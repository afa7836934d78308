"""Acceptance gate.

Each test drives one acceptance criterion at its stated tolerance and prints
one pass/fail line.  Heavy path ensembles are shared across criteria through
module fixtures; all runs are seeded and deterministic.
"""

import time

import numpy as np
import pytest

from acflow import build_spaces, h10_norm, l2_norm
from acflow import operators as ops
import oracle as orc
from acflow.cli import main
from acflow.diagnostics import (
    mc_energy_bound,
    mc_moment_bound,
    moment_stability,
    pathwise_uniqueness_check,
    perturbed_state,
    simulate_paths,
)
from acflow.eps_limit import EpsSweepPlan, epsilon_sweep
from acflow.forcing import default_noise
from acflow.integrator import GalerkinIntegrator, SolverConfig, project_initial
from dataclasses import replace

ACCEPT_SEED = 20240811

INEQUALITY_LEMMAS = (
    "product_l1",
    "ladyzhenskaya",
    "convection_bound",
    "convection_difference",
    "local_monotonicity",
)
NULL_LEMMAS = ("null_self_pairing", "null_mixed_pairing")


def _line(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def spaces8():
    return build_spaces(8)


@pytest.fixture(scope="module")
def inequality_rows():
    start = time.monotonic()
    rows, all_pass = ops.run_inequality_suite(
        1000, seed=ACCEPT_SEED, cutoffs=(2, 4, 6), viscosities=(0.05, 0.1, 1.0)
    )
    return rows, all_pass, time.monotonic() - start


@pytest.fixture(scope="module")
def energy_ensemble(spaces8):
    cfg = SolverConfig(n_modes=8, dt=1e-3, horizon=0.5, seed=ACCEPT_SEED)
    noise = default_noise(spaces8, trace=0.01, n_terms=8)
    integ = GalerkinIntegrator(spaces8, cfg, noise=noise)
    initial = project_initial(spaces8, None, None)
    start = time.monotonic()
    records = simulate_paths(integ, initial, 200, workers=1)
    elapsed = time.monotonic() - start
    return integ, initial, records, elapsed


def test_criterion_1_inequality_suite(inequality_rows):
    rows, _, elapsed = inequality_rows
    checked = [r for r in rows if r["lemma"] in INEQUALITY_LEMMAS]
    violations = [r for r in checked if not r["pass"]]
    ok = not violations and elapsed <= 120.0
    _line(
        1,
        ok,
        f"{len(checked)} inequality checks over 1000 fields, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, f"violations (lemma, sample): " + ", ".join(
        f"({r['lemma']}, {r['seed']})" for r in violations[:5]
    )
    assert elapsed <= 120.0


def test_criterion_2_null_pairings(inequality_rows):
    rows, _, _ = inequality_rows
    checked = [r for r in rows if r["lemma"] in NULL_LEMMAS]
    violations = [r for r in checked if not r["pass"]]
    worst = max((r["lhs"] / r["rhs"] for r in checked if r["rhs"] > 0), default=0.0)
    ok = not violations
    _line(
        2,
        ok,
        f"{len(checked)} null pairings, worst |pairing| at {worst:.2e} of tolerance",
    )
    assert ok


def test_criterion_3_oracle_equivalence(stokes_apply, polarised_pairing):
    start = time.monotonic()
    rule = orc.make_rule(40)
    count = 0
    worst = 0.0
    for n in (2, 3, 4):
        sp = build_spaces(n)
        instances = 67 if n != 4 else 66
        for i in range(instances):
            rng = np.random.default_rng(
                np.random.SeedSequence(ACCEPT_SEED, spawn_key=(3, n, i))
            )
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            w = ops.sample_field(sp, rng)

            def rel(a, b):
                return abs(a - b) / max(abs(a), abs(b), 1e-30)

            checks = [
                rel(l2_norm(u), orc.oracle_l2(u, rule)),
                rel(h10_norm(u), orc.oracle_h10(u, rule)),
                rel(sp.l4_norm(u), orc.oracle_l4(u, rule)),
                rel(
                    float(np.dot(stokes_apply(u, 0.1), w)),
                    0.1 * orc.oracle_gradient_inner(u, w, rule),
                ),
            ]
            # the step's pairing <B(u), w> = b(u, u, w), and its polarised
            # bilinear b(u, v, w) + b(v, u, w) for a general pair
            pairs = [
                (u, float(ops.bhat_operator(sp, u) @ w), orc.oracle_trilinear(u, u, w, rule)),
                (
                    v,
                    polarised_pairing(sp, u, v, w),
                    orc.oracle_trilinear(u, v, w, rule) + orc.oracle_trilinear(v, u, w, rule),
                ),
            ]
            for second, fast, slow in pairs:
                scale = max(h10_norm(u) * h10_norm(second) * h10_norm(w), 1e-30)
                checks.append(abs(fast - slow) / max(abs(slow), 1e-8 * scale))
            worst = max(worst, max(checks))
            count += 1
            assert max(checks) <= 1e-8, f"instance (n={n}, i={i}): {checks}"
    elapsed = time.monotonic() - start
    _line(3, True, f"{count} instances agree with the quadrature oracle "
                   f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")
    assert count == 200


def test_criterion_4_energy_ledger_slopes(spaces8):
    dts = (2e-3, 1e-3, 5e-4)
    det = {}
    for dt in dts:
        cfg = SolverConfig(n_modes=8, dt=dt, horizon=0.25, seed=ACCEPT_SEED)
        integ = GalerkinIntegrator(spaces8, cfg)
        rec = integ.run_path(project_initial(spaces8, "smooth", None))
        det[dt] = np.abs(rec.residual[1:]).max()
    det_slopes = [
        float(np.log2(det[dts[i]] / det[dts[i + 1]])) for i in range(len(dts) - 1)
    ]

    noise8 = default_noise(spaces8, trace=0.01, n_terms=8)
    sto = {}
    for dt in dts:
        cfg = SolverConfig(n_modes=8, dt=dt, horizon=0.25, seed=ACCEPT_SEED)
        integ = GalerkinIntegrator(spaces8, cfg, noise=noise8)
        vals = [
            np.abs(
                integ.run_path(
                    project_initial(spaces8, None, None), path_index=p
                ).residual[1:]
            ).max()
            for p in range(12)
        ]
        sto[dt] = float(np.mean(vals))
    sto_slopes = [
        float(np.log2(sto[dts[i]] / sto[dts[i + 1]])) for i in range(len(dts) - 1)
    ]

    ok = all(1.6 <= s <= 2.4 for s in det_slopes) and all(
        0.6 <= s <= 1.4 for s in sto_slopes
    )
    _line(
        4,
        ok,
        f"deterministic residual slopes {['%.2f' % s for s in det_slopes]}, "
        f"stochastic {['%.2f' % s for s in sto_slopes]}",
    )
    for s in det_slopes:
        assert 1.6 <= s <= 2.4
    for s in sto_slopes:
        assert 0.6 <= s <= 1.4


def test_criterion_5_energy_estimate(spaces8, energy_ensemble):
    integ, initial, records, sim_elapsed = energy_ensemble
    start = time.monotonic()
    worst_z = -np.inf
    ok = True
    for delta in (0.5, 1.0, 2.0):
        rep = mc_energy_bound(records, integ, delta, 3.0, initial)
        ok = ok and rep.passed
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(rep.se > 0, (rep.lhs - rep.rhs) / rep.se, -np.inf)
        worst_z = max(worst_z, float(np.nanmax(z)))
    elapsed = sim_elapsed + (time.monotonic() - start)
    ok = ok and elapsed <= 300.0
    _line(
        5,
        ok,
        f"200 paths, deltas (0.5, 1, 2): bound holds at every grid time "
        f"(worst z-score {worst_z:.2f} vs 3), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_moment_estimate(spaces8, energy_ensemble):
    integ, initial, records, _ = energy_ensemble
    cfg4 = replace(integ.config, moment_p=4.0, delta=1.0)
    integ4 = GalerkinIntegrator(spaces8, cfg4, noise=integ.noise)
    full = mc_moment_bound(records, integ4, initial)
    half = mc_moment_bound(records.take(slice(100)), integ4, initial)
    # the gate mc-moment reads: both implied constants finite, spread <= 0.25
    spread, stable = moment_stability(full, half, 0.25)

    cfg2 = replace(integ.config, moment_p=2.0, delta=1.0)
    integ2 = GalerkinIntegrator(spaces8, cfg2, noise=integ.noise)
    m2 = mc_moment_bound(records, integ2, initial)
    e2 = mc_energy_bound(records, integ2, 1.0, 3.0, initial)
    consistent = (m2.dissipation_term == e2.dissipation_term) and (
        m2.lhs >= e2.lhs.max() - 1e-15
    )

    _line(
        6,
        stable and consistent,
        f"implied constant {full.implied_constant:.4f} (M=200) vs "
        f"{half.implied_constant:.4f} (M=100), spread {spread:.1%}; "
        f"p=2 dissipation matches energy pathway exactly: {consistent}",
    )
    assert stable
    assert consistent


def test_criterion_7_pathwise_uniqueness(spaces8):
    noise = default_noise(spaces8, trace=0.01, n_terms=8)
    cfg = SolverConfig(n_modes=8, dt=1e-3, horizon=0.25, seed=ACCEPT_SEED)
    initial = project_initial(spaces8, None, None)

    same = pathwise_uniqueness_check(GalerkinIntegrator(spaces8, cfg, noise=noise), initial, initial)
    exact_zero = bool(np.all(same.weighted_diff == 0.0)) and same.max_increase == 0.0

    increases = {}
    for dt in (1e-3, 5e-4):
        c = replace(cfg, dt=dt)
        other = perturbed_state(spaces8, initial, (1, 1, 1), 1e-3)
        rep = pathwise_uniqueness_check(GalerkinIntegrator(spaces8, c, noise=noise), initial, other)
        increases[dt] = rep.max_increase
    ratio = increases[1e-3] / increases[5e-4]
    ok = exact_zero and 1.5 <= ratio <= 2.5
    _line(
        7,
        ok,
        f"identical inputs give the exact zero series: {exact_zero}; "
        f"max step increase ratio under dt-halving {ratio:.2f}",
    )
    assert exact_zero
    assert 1.5 <= ratio <= 2.5


def test_criterion_8_eps_limit_sweep(spaces8):
    start = time.monotonic()
    plan = EpsSweepPlan(
        eps_values=(1e-1, 1e-2, 1e-3, 1e-4),
        base=SolverConfig(n_modes=8, dt=1e-3, horizon=0.5, seed=ACCEPT_SEED),
        n_paths=50,
    )
    rep = epsilon_sweep(spaces8, plan, workers=1)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed <= 600.0
    divs = " > ".join(f"{r.div_sup:.2e}" for r in rep.rows)
    gaps = ", ".join(f"{r.diff_sup:.2e}" for r in rep.rows)
    # no non-zero field at this cutoff is divergence-free, so the reference
    # is the zero field and the gap is E|u_eps|^2 itself: u_eps -> 0 is a
    # locking effect of the discrete constraint
    _line(
        8,
        ok,
        f"sup E|Div u|^2: {divs} (strictly decreasing beyond SE: "
        f"{rep.divergence_strictly_decreasing}); gap to the reference, which "
        f"is the zero field, so sup E|u_eps|^2 (locking): {gaps}, decreasing: "
        f"{rep.difference_decreasing}; scaled pressure bounded: "
        f"{rep.pressure_bounded}; {elapsed:.1f}s",
    )
    assert rep.divergence_strictly_decreasing
    assert rep.difference_decreasing
    assert rep.pressure_bounded
    assert rep.sweep_valid
    assert elapsed <= 600.0


def test_criterion_9_determinism(tmp_path):
    def bytes_of(p):
        with open(p, "rb") as fh:
            return fh.read()

    run_args = [
        "run", "--quiet",
        "--set", "solver.horizon=0.05",
        "--set", "initial_u.preset=smooth",
        "--seed", str(ACCEPT_SEED),
    ]
    a, b = tmp_path / "ra", tmp_path / "rb"
    assert main(run_args + ["--out", str(a)]) == 0
    assert main(run_args + ["--out", str(b)]) == 0
    run_same = all(
        bytes_of(a / f) == bytes_of(b / f)
        for f in ("run.csv", "run_final.bin", "manifest.json")
    )

    mc_args = [
        "mc-energy", "--quiet",
        "--set", "solver.horizon=0.05",
        "--paths", "8",
        "--seed", str(ACCEPT_SEED),
    ]
    c, d = tmp_path / "w1", tmp_path / "w4"
    assert main(mc_args + ["--out", str(c), "--workers", "1"]) == 0
    assert main(mc_args + ["--out", str(d), "--workers", "4"]) == 0
    mc_same = all(
        bytes_of(c / f) == bytes_of(d / f)
        for f in ("mc_energy.csv", "mc_energy.json", "manifest.json")
    )

    ok = run_same and mc_same
    _line(
        9,
        ok,
        f"rerun byte-identity: {run_same}; workers 1 vs 4 byte-identity: {mc_same}",
    )
    assert ok
