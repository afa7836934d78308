"""acflow benchmark: time three CLI workloads end to end, trace their layers.

Usage, from the repository root:

    python3 bench/run.py --workload ensemble --seed 12345 --seconds 10 --trace 0

Workloads (sizes fixed so that each invocation takes a few seconds):

    ensemble  mc-energy --paths 12            12 paths x 500 steps at N=8
    sweep     sweep-eps --paths 20, T=0.05    (20 reference + 4 x 20) x 50 steps
    large-n   run at N=12, T=4                one path of 4000 steps

The CLI's ``verify`` (the operator-inequality suite, no time stepping) is not
a workload: normalised by the calibration loop below, its run medians spread
0.10-0.16 (IQR/median over ten seeds), twice as much as the stepping
workloads', because the loop is shaped like a time step, not like the suite.

Every invocation is a fresh Python process (``child.py``) with ``--workers 1``
and one BLAS thread.  It measures set-up (``import acflow.cli`` plus
``build_spaces``) and then the wall time of ``acflow.cli.main``.  Invocations
repeat while the next one is expected to end within ``--seconds`` (at least
three); medians are reported.

Wall times are reported in reference seconds (unit ``ref_s``).  On a
shared machine the speed of one CPU wanders by tens of percent over seconds
to minutes, so raw medians of separate runs differ by 15-30%.  Each
invocation therefore also times a fixed calibration loop (``child.calibrate``,
no acflow code) right after set-up and after the timed call, and every wall
time t of a run is reported as t * CAL_REF_S / c, with c the mean of all the
run's calibration times.  One calibration is too short to tell the speed of
the call next to it (its own noise is about 15%, uncorrelated with the
call's), so the run's calibrations are pooled; they track the drift from
run to run.  Set-up time (``setup_s``) is reported in plain seconds: it is
mostly module loading, which the compute-bound calibration loop does not
track.  Raw medians are kept in the report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports per-layer calls and self time,
computed kernel counts, output bytes and the tracing overhead.  A traced run
is marked incorrect when a layer that the workload must execute records no
calls.

Every invocation is checked: exit status 0, ``"pass": true`` in the summary
JSON (or a complete trajectory for ``run``), and the sha256 of every output
file equal to that of the run's first invocation.  The last line of standard
output is the JSON result; the lines above it are the full report (samples,
digests, environment), also written to ``.bench_work/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import ROOT as ROOT_SPAN, SPAN_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPEATS = 3
MIN_TRACED_ROUNDS = 2
DEADLINE_S = 170.0
# Reference seconds: a time t measured while the calibration loop in
# child.py took c seconds on average is reported as t * CAL_REF_S / c, i.e.
# the time on a machine (or at a moment) at which the loop takes CAL_REF_S.
CAL_REF_S = 0.625
# Single-threaded BLAS: the CLI runs with one worker, and with the default
# thread count set-up time on a shared 2-core box was bimodal (2 ms or
# 115-450 ms for build_spaces) and output bytes depend on the thread count.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

STEPPING = (
    "cli.main",
    "config.load_config",
    "config.write_csv",
    "spaces.build_spaces",
    "integrator.GalerkinIntegrator.__init__",
    "integrator.run_path",
    "integrator.step",
    "integrator.cho_solve",
    "operators.bhat_operator",
    "forcing.sample_increment",
    "forcing.noise_contribution",
    "spaces.l4_norm",
    "spaces.pressure_l2",
    "spaces.divergence_l2",
)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    n_modes: int  # cutoff of the time-stepped fields
    summary: str | None  # JSON file carrying "pass"
    path_steps: int  # paths integrated x steps
    must_run: tuple[str, ...]  # spans that must record calls when traced


# Sizes keep one invocation to a few seconds, so that a run holds several
# fresh-process repeats.  The sweep keeps 20 paths and shortens the horizon
# instead: with 10 paths at the shipped T=0.5, seed 7 fails
# divergence_strictly_decreasing (exit 1); at these sizes it passed at seeds
# 0-79 (smallest divergence margin 1.91 standard errors, 1 required).
# mc-energy fails its energy-bound assertion at seeds 26 and 48 of 0-69
# (exit 1; at 50 paths seed 48 passes with z = -2.93 against -3): with zero
# forcing the bound has almost no slack at early times, so a z = 3 check at
# every grid time raises false alarms at a few percent of seeds.  Such runs
# count as failed.
WORKLOADS = {
    "ensemble": Workload(
        argv=("mc-energy", "--paths", "12"),
        n_modes=8,
        summary="mc_energy.json",
        path_steps=12 * 500,
        must_run=STEPPING
        + (
            "config.write_json_report",
            "diagnostics.simulate_paths",
            "diagnostics.mc_energy_bound",
        ),
    ),
    "sweep": Workload(
        argv=("sweep-eps", "--paths", "20", "--set", "solver.horizon=0.05"),
        n_modes=8,
        summary="sweep_eps.json",
        path_steps=(20 + 4 * 20) * 50,
        must_run=STEPPING
        + (
            "config.write_json_report",
            "eps_limit.epsilon_sweep",
            "eps_limit.run_incompressible_reference",
            "eps_limit.leray_projector",
        ),
    ),
    "large-n": Workload(
        argv=("run", "--set", "solver.n_modes=12", "--set", "solver.horizon=4"),
        n_modes=12,
        summary=None,
        path_steps=4000,
        must_run=STEPPING + ("integrator.write_snapshot",),
    ),
}


# -- computed kernel counts ---------------------------------------------------------


class _Count:
    """Flops and bytes of a sequence of array operations, computed from their
    shapes; every operand is assumed to stream from memory once per
    operation (no cache reuse), so bytes are an upper estimate."""

    def __init__(self):
        self.flops = 0
        self.elements = 0

    def matmul(self, m, k, n, batch=1):
        self.flops += 2 * m * k * n * batch
        self.elements += batch * (m * k + k * n + m * n)

    def elementwise(self, size, operands=2):
        self.flops += size
        self.elements += size * (operands + 1)

    def copy(self, size):
        self.elements += 2 * size

    @property
    def bytes(self):
        return 8 * self.elements


def bhat_operator_counts(n: int, q: int) -> _Count:
    """One ``operators.bhat_operator`` call at cutoff n on a q x q grid,
    following its operations step by step."""
    c = _Count()
    for _ in range(2):  # component values of u, synthesised twice (u and v)
        c.matmul(q, n, n, batch=2)
        c.matmul(q, n, q, batch=2)
        c.elementwise(2 * q * q, 1)
    for _ in range(2):  # gradients d1, d2
        c.elementwise(2 * n * n)
        c.matmul(q, n, n, batch=2)
        c.matmul(q, n, q, batch=2)
        c.elementwise(2 * q * q, 1)
    c.copy(4 * q * q)  # np.stack of the gradients
    c.elementwise(2 * q * q)  # advection: uv[0] * gv[0]
    c.elementwise(2 * q * q)  # uv[1] * gv[1]
    c.elementwise(2 * q * q)  # sum
    for _ in range(3):  # a, b1, b2 weights 0.5 * w2d
        c.elementwise(q * q, 1)
    c.elementwise(2 * q * q)  # a
    for _ in range(2):  # b1, b2: u_i * v, then weighted
        c.elementwise(2 * q * q)
        c.elementwise(2 * q * q)
    for _ in range(2):  # adjoint transforms per component
        for _ in range(3):
            c.matmul(n, q, q)
            c.matmul(n, q, n)
            c.elementwise(n * n, 1)
        c.elementwise(2 * n * n)  # jpi scalings of t2, t3
        c.elementwise(2 * n * n)  # t1 - t2 - t3
    return c


def kernel_counts(n: int) -> dict:
    """Computed per-call counts at cutoff n with the default grid Q = 4N + 8
    and the implicit solve of size n_v = 2N^2 (two triangular sweeps over
    the dense factor)."""
    bhat = bhat_operator_counts(n, 4 * n + 8)
    nv = 2 * n * n
    return {
        "operators.bhat_operator.flops": bhat.flops,
        "operators.bhat_operator.bytes": bhat.bytes,
        "integrator.cho_solve.flops": 2 * nv * nv,
        "integrator.cho_solve.bytes": 8 * nv * nv,
    }


# -- invocations --------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_outputs(wl: Workload, out: Path) -> list[str]:
    """Program-level correctness of one invocation's outputs."""
    problems = []
    if wl.summary is not None:
        summary = json.loads((out / wl.summary).read_text(encoding="utf-8"))
        if summary.get("pass") is not True:
            problems.append(f"{wl.summary} says pass={summary.get('pass')}")
    else:  # `run` asserts nothing; require the whole finite trajectory
        rows = _csv_rows(out / "run.csv")
        if len(rows) != wl.path_steps + 1:
            problems.append(f"run.csv has {len(rows)} rows, want {wl.path_steps + 1}")
        elif not all(math.isfinite(float(v)) for r in rows for v in r):
            problems.append("run.csv holds non-finite values")
    return problems


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def invoke(
    wl: Workload, seed: int, trace: bool, run_dir: Path, env: dict, deadline: float
) -> dict:
    """Run one fresh-process invocation and check what it wrote."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "cutoffs": [wl.n_modes],
        "argv": [*wl.argv, "--seed", str(seed), "--workers", "1", "--quiet"]
        + ["--out", str(out)],
        "trace": trace,
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.npz"),
    }
    sample = {"trace": trace, "problems": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sample["problems"].append("timed out")
        return sample
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-500:]
        sample["problems"].append(f"child exited {proc.returncode}: {tail}")
        return sample
    sample.update(json.loads(Path(spec["result"]).read_text(encoding="utf-8")))
    if sample["rc"] != 0:
        sample["problems"].append(f"acflow exited {sample['rc']}")
    sample["digests"] = {p.name: _sha256(p) for p in sorted(out.iterdir())}
    sample["sizes"] = {p.name: p.stat().st_size for p in sorted(out.iterdir())}
    try:  # a failed invocation may have written nothing
        sample["problems"] += _check_outputs(wl, out)
        if out.joinpath("sweep_eps.csv").exists():
            rows = _csv_rows(out / "sweep_eps.csv")
            sample["excluded_paths"] = sum(int(float(r[-1])) for r in rows)
    except (OSError, ValueError) as exc:
        sample["problems"].append(f"unreadable output: {exc}")
    shutil.rmtree(out)
    return sample


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(wl: Workload, samples: list[dict]) -> dict:
    rates = [wl.path_steps / s["wall_ref_s"] for s in samples]
    return {
        "wall_s": {"value": _median(samples, "wall_ref_s"), "unit": "ref_s"},
        "setup_s": {"value": _median(samples, "setup_s"), "unit": "s"},
        "path_steps_per_s": {"value": statistics.median(rates), "unit": "1/ref_s"},
        "peak_rss_mb": {"value": _median(samples, "peak_rss_mb"), "unit": "MB"},
    }


def per_layer(
    wl: Workload, plain: list[dict], traced: list[dict]
) -> tuple[dict, list[str]]:
    metrics = {}
    for span in SPAN_NAMES:
        calls = traced[0]["layers"][span]["calls"]
        metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
        self_s = statistics.median(t["layers"][span]["self_s"] for t in traced)
        metrics[f"{span}.self_s"] = {"value": self_s, "unit": "s"}
    counts = kernel_counts(wl.n_modes)
    for kernel in ("operators.bhat_operator", "integrator.cho_solve"):
        ran = metrics[f"{kernel}.calls"]["value"] > 0
        for kind, unit in (("flops", "flop/call"), ("bytes", "B/call")):
            value = counts.get(f"{kernel}.{kind}", 0) if ran else 0
            metrics[f"{kernel}.{kind}"] = {"value": value, "unit": unit}
    sizes = traced[0]["sizes"]
    metrics["config.write_csv.bytes"] = {
        "value": sum(v for k, v in sizes.items() if k.endswith(".csv")),
        "unit": "B",
    }
    reports = [k for k in sizes if k.endswith(".json") and k != "manifest.json"]
    metrics["config.write_json_report.bytes"] = {
        "value": sum(sizes[k] for k in reports),
        "unit": "B",
    }
    metrics["eps_limit.diverged_paths"] = {
        "value": traced[0].get("excluded_paths", 0),
        "unit": "count",
    }
    overhead = _median(traced, "wall_ref_s") - _median(plain, "wall_ref_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "ref_s"}
    metrics["trace.uncovered_frac"] = {
        "value": metrics[f"{ROOT_SPAN}.self_s"]["value"] / _median(traced, "wall_s"),
        "unit": "frac",
    }
    missing = [
        f"{span} recorded no calls"
        for span in wl.must_run
        if any(t["layers"][span]["calls"] == 0 for t in traced)
    ]
    return metrics, missing


# -- environment ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_head() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(env: dict, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--env", str(SRC)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    source = hashlib.sha256()
    for path in sorted((SRC / "acflow").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_head": _git_head(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **json.loads(proc.stdout),
        "seed": seed,
    }


# -- main -----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345, help="acflow master seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "acflow" / "cli.py").is_file():
        print(f"error: no acflow sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)
    # Warm-up: compiles bytecode and fills the file cache, which users do
    # not pay on every invocation; also records the library versions.
    info = environment(env, args.seed)

    samples = []
    # A round is one invocation, or an untraced and a traced one; rounds
    # continue while the next one is expected to finish within --seconds.
    kinds = (False, True) if args.trace else (False,)
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_REPEATS
    measuring = time.monotonic()
    rounds = 0
    while True:
        for trace in kinds:
            run_dir = work / f"r{len(samples)}"
            samples.append(invoke(wl, args.seed, trace, run_dir, env, deadline))
        rounds += 1
        elapsed = time.monotonic() - measuring
        per_round = elapsed / rounds
        if time.monotonic() + 1.5 * per_round > deadline:
            break
        if rounds >= min_rounds and elapsed + per_round > args.seconds:
            break

    reference = next((s["digests"] for s in samples if "digests" in s), None)
    for s in samples:
        if s.get("digests") not in (None, reference):
            digests = s["digests"]
            changed = sorted(k for k, v in reference.items() if digests.get(k) != v)
            s["problems"].append(f"bytes differ from the first invocation: {changed}")
    failed = sum(1 for s in samples if s["problems"])
    plain = [s for s in samples if not s["trace"] and not s["problems"]]
    traced = [s for s in samples if s["trace"] and not s["problems"]]
    cal = [s[k] for s in plain + traced for k in ("cal_before_s", "cal_after_s")]
    for s in plain + traced:  # cal is not empty here
        s["wall_ref_s"] = s["wall_s"] * CAL_REF_S / statistics.fmean(cal)
    coverage = []
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics, coverage = per_layer(wl, plain, traced)
        else:
            metrics = end_to_end(wl, plain)

    report = {
        "workload": args.workload,
        "argv": list(wl.argv),
        "environment": info,
        "kernel_counts_computed": kernel_counts(wl.n_modes),
        "digests": reference,
        "coverage_problems": coverage,
        "samples": [
            {k: v for k, v in s.items() if k not in ("layers", "digests", "sizes")}
            for s in samples
        ],
        "sample_count": {"untraced": len(plain), "traced": len(traced)},
        "failed_frac": failed / len(samples),
        "raw_medians_s": {
            key: statistics.median(s[key] for s in plain) if plain else None
            for key in ("wall_s", "setup_s", "cal_before_s", "cal_after_s")
        },
        "run_s": time.monotonic() - started,
    }
    text = json.dumps(report, indent=2)
    (work / "report.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    result = {
        "correct": failed == 0 and not coverage and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
