"""Microseconds per block step of ``GalerkinIntegrator.run_path``.

Usage, from the repository root:

    python3 tools/step_cost.py [--src DIR [--src DIR]] [--repeats K] [--rounds R]

Each round runs every ``--src`` tree (default: this checkout's ``src``) in
a fresh process at ``OPENBLAS_NUM_THREADS=1``, the trees alternating, the
first first in even rounds and last in odd ones.  A process times
``run_path`` of one block of ``rows`` paths over STEPS steps at each shape
(N, rows) of SHAPES, K times after one untimed run, and reports the fastest
of the K as microseconds per block step (one ``step`` call, all rows at
once).  Chunk arrays, noise draws and the per-chunk norm pass are included.
The table gives, per shape and tree, the median and the quartiles over the
R rounds, and with two trees the ratio of the second's median to the
first's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (cutoff N, rows of the block): one path at N=12 is the large-n workload's
# block, 12 rows at N=8 the ensemble's, 20 at N=8 the sweep's
SHAPES = ((12, 1), (8, 12), (8, 20), (16, 20))
STEPS = 200


def measure(repeats: int) -> dict:
    """Fastest of ``repeats`` timed run_path calls per shape, in us per step."""
    from acflow import build_spaces
    from acflow.forcing import default_noise
    from acflow.integrator import GalerkinIntegrator, SolverConfig, project_initial

    costs = {}
    for n_modes, rows in SHAPES:
        sp = build_spaces(n_modes)
        cfg = SolverConfig(n_modes=n_modes, dt=1e-3, horizon=STEPS * 1e-3)
        force = sp.velocity_from_modes([(1, 1, 1, 0.4), (2, 1, 2, 0.2)])
        integ = GalerkinIntegrator(sp, cfg, force=force, noise=default_noise(sp, trace=0.05))
        initial = project_initial(sp, "smooth", "low_mode")
        paths = range(rows)
        integ.run_path(initial, paths)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            integ.run_path(initial, paths)
            best = min(best, time.perf_counter() - start)
        costs[f"{n_modes},{rows}"] = 1e6 * best / cfg.n_steps
    return costs


def run_child(src: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--child", "--repeats", str(repeats)]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="package tree to time (at most two; default: ./src)")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per process (K)")
    parser.add_argument("--rounds", type=int, default=4, help="processes per tree (R)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.repeats)))
        return 0
    srcs = [s.resolve() for s in (args.src or [ROOT / "src"])]
    if len(srcs) > 2 or args.repeats < 1 or args.rounds < 1:
        parser.error("give one or two --src trees and positive --repeats and --rounds")
    samples = {src: [] for src in srcs}
    for r in range(args.rounds):
        for src in srcs if r % 2 == 0 else srcs[::-1]:
            samples[src].append(run_child(src, args.repeats))

    print(f"us per block step of run_path, fastest of {args.repeats}; "
          f"median [q1, q3] over {args.rounds} processes per tree, {STEPS} steps, one BLAS thread")
    print()
    header = "| N, rows |" + "".join(f" {src} |" for src in srcs)
    print(header + (" ratio |" if len(srcs) == 2 else ""))
    print("|---" * (len(srcs) + 1 + (len(srcs) == 2)) + "|")
    for n_modes, rows in SHAPES:
        key = f"{n_modes},{rows}"
        stats = [quartiles([s[key] for s in samples[src]]) for src in srcs]
        cells = "".join(f" {q2:.1f} [{q1:.1f}, {q3:.1f}] |" for q1, q2, q3 in stats)
        ratio = f" {stats[1][1] / stats[0][1]:.3f} |" if len(srcs) == 2 else ""
        print(f"| {n_modes}, {rows} |{cells}{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
