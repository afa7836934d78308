"""Command-line entry points.

Subcommands: run, verify, mc-energy, mc-moment, uniqueness, sweep-eps.
Exit status 0 means all assertions passed, 1 means an assertion failed (the
CSV/JSON evidence is still written) or a path diverged (reported with its
path and step on stderr), 2 means a configuration or IO error.  Every
configuration rule is checked before ``--out`` is created: at load, or for
the path count a command needs, in ``_setup``; a command then only loads,
computes and writes.
Outputs are byte-identical across reruns and worker counts for identical
manifest inputs, and, on numpy's bundled OpenBLAS, across BLAS thread counts
(``OPENBLAS_NUM_THREADS``): the implicit matrix's inverse, the one product
whose rounding followed the thread count, is built there by LAPACK through
ctypes and at one thread.  With a numpy that links another BLAS,
numpy.linalg builds the inverse at that BLAS's thread count, so the bytes
may follow it.  Importing this module and running a command load numpy and
the standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import (
    RunManifest,
    build_force,
    build_initial,
    build_noise,
    load_config,
    write_csv,
    write_json_report,
)
from .diagnostics import (
    mc_energy_bound,
    mc_moment_bound,
    moment_stability,
    pathwise_uniqueness_check,
    perturbed_state,
    simulate_paths,
)
from .eps_limit import epsilon_sweep
from .integrator import DivergedPathError, GalerkinIntegrator, State, write_snapshot
from .operators import run_inequality_suite
from .spaces import ConfigurationError, build_spaces


def _positive_int(raw: str) -> int:
    """An argparse type: a positive integer, else a usage error (exit 2)
    that names the flag."""
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable), e.g. solver.dt=5e-4",
    )
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--paths", type=int, help="Monte Carlo path count override")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="contiguous parts of the paths, one thread each",
    )
    parser.add_argument(
        "--stamp",
        action="store_true",
        help="record a wall-clock timestamp in the manifest (breaks byte-identity)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acflow",
        description=(
            "Spectral-Galerkin simulation and verification for stochastic "
            "2-D Navier-Stokes with artificial compressibility"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = [_common_flags()]
    sub.add_parser("run", help="simulate one sample path", parents=common)
    p = sub.add_parser("verify", help="randomized operator-inequality suite", parents=common)
    p.add_argument("--samples", type=_positive_int, default=1000, help="random field samples")
    sub.add_parser("mc-energy", help="Monte Carlo weighted energy bound", parents=common)
    sub.add_parser("mc-moment", help="Monte Carlo moment bound / implied constant", parents=common)
    sub.add_parser("uniqueness", help="pathwise weighted-difference contraction", parents=common)
    sub.add_parser("sweep-eps", help="vanishing-compressibility sweep", parents=common)
    return parser


# the Monte Carlo paths a command needs: the standard error needs two, and
# mc-moment's half ensemble two of its own
_MIN_PATHS = {"mc-energy": 2, "mc-moment": 4}


def _setup(args) -> tuple:
    """Load the configuration, check the path count the command needs, and
    only then create --out, so a configuration error writes nothing."""
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"solver.seed={args.seed}")
    if args.paths is not None:
        overrides.append(f"monte_carlo.paths={args.paths}")
        overrides.append(f"sweep.paths={args.paths}")
    setup = load_config(args.config, overrides)
    need, n_paths = _MIN_PATHS.get(args.subcommand), setup["monte_carlo.paths"]
    if need and n_paths < need:
        raise ConfigurationError(
            f"monte_carlo.paths (--paths) must be at least {need} for {args.subcommand}, got {n_paths}"
        )
    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest(command=args.subcommand, setup=setup)
    if args.stamp:
        import datetime

        manifest.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return setup, manifest


def _finish(args, manifest: RunManifest, line: str, summary: dict | None = None) -> int:
    """Write the command's summary JSON, if it has one, with the run's seed
    added, then the manifest; print ``line``, the manifest line and the
    verdict unless --quiet.  The exit status is 1 when ``pass`` is false."""
    ok = summary is None or summary["pass"]
    if summary is not None:
        summary["seed"] = manifest.setup.solver.seed
        _write(args, manifest, args.subcommand.replace("-", "_") + ".json", summary)
    path = os.path.join(args.out, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    if not args.quiet:
        print(line)
        print(f"manifest {manifest.digest()[:12]} -> {path}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _problem(setup) -> tuple:
    """The configured problem's integrator and initial state."""
    spaces = build_spaces(setup.solver.n_modes)
    force, noise = build_force(setup, spaces), build_noise(setup, spaces)
    integ = GalerkinIntegrator(spaces, setup.solver, force=force, noise=noise)
    return integ, build_initial(setup, spaces)


def _write(args, manifest: RunManifest, name: str, *content) -> None:
    """Write one output, a CSV from (columns, rows), a JSON report from a
    summary or a snapshot from a State, and record its hash in the manifest."""
    writers = {".csv": write_csv, ".json": write_json_report, ".bin": write_snapshot}
    writer = writers[os.path.splitext(name)[1]]
    path = os.path.join(args.out, name)
    manifest.outputs[name] = writer(path, *content, manifest.digest())


def _cmd_run(args) -> int:
    setup, manifest = _setup(args)
    integ, initial = _problem(setup)
    record = integ.run_path(initial, path_index=0)
    _write(args, manifest, "run.csv", record.CSV_COLUMNS, record.csv_rows())
    _write(args, manifest, "run_final.bin", State(record.u, record.p, record.times[-1]))
    return _finish(
        args, manifest,
        f"ran {setup.solver.n_steps} steps to t={record.times[-1]:g}; |u(T)|={record.l2_u[-1]:.6g}",
    )


def _cmd_verify(args) -> int:
    setup, manifest = _setup(args)
    rows, all_pass = run_inequality_suite(args.samples, setup.solver.seed)
    columns = ("lemma", "seed", "lhs", "rhs", "margin", "pass")
    _write(args, manifest, "verify.csv", columns, ([r[c] for c in columns] for r in rows))
    failures = [r for r in rows if not r["pass"]]
    summary = {
        "pass": all_pass,
        "samples": args.samples,
        "checks": len(rows),
        "failures": [
            {"lemma": r["lemma"], "seed": r["seed"], "lhs": r["lhs"], "rhs": r["rhs"]}
            for r in failures
        ],
    }
    return _finish(args, manifest, f"{len(rows)} checks, {len(failures)} violations", summary)


def _cmd_mc_energy(args) -> int:
    setup, manifest = _setup(args)
    integ, initial = _problem(setup)
    n_paths, z = setup["monte_carlo.paths"], setup["monte_carlo.confidence_z"]
    records = simulate_paths(integ, initial, n_paths, workers=args.workers)
    reports = [mc_energy_bound(records, integ, delta, z, initial) for delta in setup["monte_carlo.deltas"]]
    csv_rows = [(r.delta, *row) for r in reports for row in zip(r.times, r.lhs, r.rhs, r.se)]
    _write(args, manifest, "mc_energy.csv", ("delta", "t", "lhs", "rhs", "se"), csv_rows)
    all_pass = all(r.passed for r in reports)
    summary = {
        "pass": all_pass,
        "paths": n_paths,
        "confidence_z": z,
        "min_margin_by_delta": {str(r.delta): float(r.margins().min()) for r in reports},
    }
    line = f"energy bound over {len(reports)} weight rates: pass={all_pass}"
    return _finish(args, manifest, line, summary)


def _cmd_mc_moment(args) -> int:
    setup, manifest = _setup(args)
    integ, initial = _problem(setup)
    n_paths, tol = setup["monte_carlo.paths"], setup["monte_carlo.moment_stability_tol"]
    cfg = setup.solver
    records = simulate_paths(integ, initial, n_paths, workers=args.workers)
    full = mc_moment_bound(records, integ, initial)
    half = mc_moment_bound(records.take(slice(n_paths // 2)), integ, initial)
    spread, ok = moment_stability(full, half, tol)
    _write(args, manifest, "mc_moment.csv", ("path", "sup_statistic"), enumerate(full.per_path))
    summary = {
        "pass": ok,
        "moment_p": cfg.moment_p,
        "delta": cfg.delta,
        "paths": n_paths,
        "lhs": full.lhs,
        "initial_term": full.initial_term,
        "denominator": full.denominator,
        "implied_constant": full.implied_constant,
        "implied_constant_half_ensemble": half.implied_constant,
        "relative_spread": spread,
        "stability_tolerance": tol,
    }
    line = f"implied constant {full.implied_constant} (spread {spread})"
    return _finish(args, manifest, line, summary)


def _cmd_uniqueness(args) -> int:
    setup, manifest = _setup(args)
    integ, init_a = _problem(setup)
    mode, amp = setup["uniqueness.perturb_mode"], setup["uniqueness.perturb_amplitude"]
    init_b = perturbed_state(integ.spaces, init_a, mode, amp)
    rep = pathwise_uniqueness_check(integ, init_a, init_b, c_check=setup["uniqueness.c_check"])
    rows = zip(rep.times, rep.weighted_diff, rep.weight_r)
    _write(args, manifest, "uniqueness.csv", ("t", "weighted_diff", "weight_r"), rows)
    summary = {
        "pass": rep.passed,
        "max_increase": rep.max_increase,
        "tolerance": rep.tolerance,
        "perturb_mode": list(mode),
        "perturb_amplitude": amp,
    }
    line = f"max weighted-difference increase {rep.max_increase:.3e}"
    return _finish(args, manifest, line, summary)


def _cmd_sweep(args) -> int:
    setup, manifest = _setup(args)
    spaces = build_spaces(setup.solver.n_modes)
    report = epsilon_sweep(spaces, setup.sweep, workers=args.workers)
    for eps, t_req, state in report.snapshots:
        _write(args, manifest, f"sweep_eps{eps:g}_t{t_req:g}.bin", state)

    csv_rows = [dataclasses.astuple(r) for r in report.rows]
    columns = (
        "eps",
        "sup_mean_div_sq",
        "div_se",
        "sup_mean_diff_sq",
        "diff_se",
        "pressure_energy",
        "pressure_se",
        "excluded_paths",
    )
    _write(args, manifest, "sweep_eps.csv", columns, csv_rows)
    summary = {
        "pass": report.passed,
        "divergence_strictly_decreasing": report.divergence_strictly_decreasing,
        "difference_decreasing": report.difference_decreasing,
        "pressure_bounded": report.pressure_bounded,
        "pressure_bound": report.pressure_bound,
        "div_rates": report.div_rates,
        "diff_rates": report.diff_rates,
        "paths": setup.sweep.n_paths,
    }
    line = "sweep: " + " ".join(f"{r.eps:g}->{r.div_sup:.3e}" for r in report.rows)
    return _finish(args, manifest, line, summary)


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "mc-energy": _cmd_mc_energy,
    "mc-moment": _cmd_mc_moment,
    "uniqueness": _cmd_uniqueness,
    "sweep-eps": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DivergedPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
