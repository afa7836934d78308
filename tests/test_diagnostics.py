from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from acflow import build_spaces
from acflow.cli import main
from acflow.diagnostics import (
    UniquenessWeight,
    cumulative_trapezoid,
    mc_energy_bound,
    mc_moment_bound,
    moment_stability,
    pathwise_uniqueness_check,
    perturbed_state,
    simulate_paths,
    trapezoid,
)
from acflow.eps_limit import EpsSweepPlan, epsilon_sweep
from acflow.forcing import DeterministicForce, default_noise
from acflow.integrator import SolverConfig, project_initial
from acflow.spaces import ConfigurationError


def test_trapezoid_helpers_match_scipy_bit_for_bit():
    # the numpy helpers keep scipy.integrate off the import path; they sum
    # in scipy's order, so every result has scipy's bits
    from scipy import integrate

    rng = np.random.default_rng(11)
    for n in range(2, 1002):
        x = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-4, 1)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
        assert trapezoid(y, x).tobytes() == integrate.trapezoid(y, x).tobytes()
        expected = np.concatenate([[0.0], integrate.cumulative_trapezoid(y, x)])
        assert cumulative_trapezoid(y, x).tobytes() == expected.tobytes()
    # along the last axis of a path record's (rows, steps) series, each row
    # has the bits of its own 1-D call
    y = rng.standard_normal((7, 501)) * 10.0 ** rng.uniform(-6, 6, (7, 1))
    assert trapezoid(y, x[:501]).tobytes() == np.array([trapezoid(r, x[:501]) for r in y]).tobytes()
    rows = np.stack([cumulative_trapezoid(r, x[:501]) for r in y])
    assert cumulative_trapezoid(y, x[:501]).tobytes() == rows.tobytes()


def test_moment_config_validation(tmp_path, capsys):
    # the moment exponent's range is the solver's, and so is the weight
    # rate's, which the bounds divide by: every command refuses a rate of 0
    with pytest.raises(ConfigurationError, match="moment_p"):
        SolverConfig(moment_p=1.5)
    with pytest.raises(ConfigurationError, match="solver.delta must be positive"):
        SolverConfig(delta=0.0)
    out = tmp_path / "out"
    assert main(["mc-moment", "--set", "solver.delta=0", "--quiet", "--out", str(out)]) == 2
    assert "solver.delta must be positive" in capsys.readouterr().err


def test_moment_stability_needs_both_constants_finite():
    # mc-moment's and criterion 6's gate: a half-ensemble constant that is
    # missing, zero or not finite fails it, as a spread above tol does
    def report(c):
        return SimpleNamespace(implied_constant=c)

    assert moment_stability(report(2.0), report(2.5), 0.25) == (0.25, True)
    assert moment_stability(report(2.0), report(3.0), 0.25) == (0.5, False)
    assert moment_stability(report(2.0), report(0.0), 0.25) == (1.0, False)
    for c in (None, np.nan, np.inf):
        assert moment_stability(report(2.0), report(c), 0.25) == (None, False)
        assert moment_stability(report(c), report(2.0), 0.25) == (None, False)


def test_uniqueness_weight_invariants():
    UniquenessWeight(np.array([0.0, 0.1, 0.1, 0.4]))
    with pytest.raises(ValueError):
        UniquenessWeight(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        UniquenessWeight(np.array([0.0, 0.2, 0.1]))


@pytest.fixture(scope="module")
def small_setup():
    spaces = build_spaces(4)
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.1, seed=555)
    noise = default_noise(spaces, trace=0.01, n_terms=4)
    initial = project_initial(spaces, None, None)
    records = simulate_paths(spaces, cfg, None, noise, initial, 24)
    return spaces, cfg, noise, initial, records


def test_energy_bound_deterministic_degenerate(spaces4):
    # no force, no noise: the bound degenerates to initial energy on the
    # right and the deterministic decay on the left
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.05)
    initial = project_initial(spaces4, "low_mode", None)
    records = simulate_paths(spaces4, cfg, None, None, initial, 2)
    rep = mc_energy_bound(records, spaces4, cfg, 1.0, 3.0, None, None, initial)
    assert np.all(rep.se == 0.0)
    assert np.allclose(rep.rhs, rep.rhs[0])
    assert rep.rhs[0] == pytest.approx(1.0, rel=1e-12)
    assert rep.passed
    assert np.all(rep.lhs <= rep.rhs + 1e-12)


def test_energy_bound_noise_driven(small_setup):
    spaces, cfg, noise, initial, records = small_setup
    for delta in (0.5, 1.0, 2.0):
        rep = mc_energy_bound(records, spaces, cfg, delta, 3.0, None, noise, initial)
        assert rep.passed, f"violation at delta={delta}"


def test_moment_bound_degenerate_denominator(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, moment_p=4.0)
    initial = project_initial(spaces4, "low_mode", None)
    records = simulate_paths(spaces4, cfg, None, None, initial, 2)
    rep = mc_moment_bound(records, spaces4, cfg, None, None, initial)
    assert rep.denominator == 0.0
    assert rep.implied_constant is None
    # sup term attains the initial value and the weighted dissipation is
    # bounded by the unweighted decay budget, so lhs <= 2 * initial term
    assert rep.lhs <= 2.0 * rep.initial_term * (1 + 1e-9)


def test_one_path_has_zero_standard_error(spaces4):
    # a one-path ensemble has no spread to estimate: every standard error is
    # 0, in both bounds and in the sweep, without a degrees-of-freedom warning
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.01)
    noise = default_noise(spaces4, trace=0.01, n_terms=4)
    initial = project_initial(spaces4, None, None)
    records = simulate_paths(spaces4, cfg, None, noise, initial, 1)
    assert np.all(mc_energy_bound(records, spaces4, cfg, 1.0, 3.0, None, noise, initial).se == 0.0)
    cfg4 = replace(cfg, moment_p=4.0)
    assert mc_moment_bound(records, spaces4, cfg4, None, noise, initial).lhs_se == 0.0
    rows = epsilon_sweep(spaces4, EpsSweepPlan(base=cfg, n_paths=1)).rows
    assert len(rows) == 4
    assert all(r.div_se == r.diff_se == r.pressure_se == 0.0 for r in rows)


def test_moment_bound_implied_constant_finite(small_setup):
    spaces, cfg, noise, initial, records = small_setup
    rep = mc_moment_bound(records, spaces, replace(cfg, moment_p=4.0), None, noise, initial)
    assert rep.denominator > 0
    assert rep.implied_constant is not None and np.isfinite(rep.implied_constant)
    assert rep.implied_constant >= 0


def test_moment_p2_matches_energy_dissipation_exactly(small_setup):
    spaces, cfg, noise, initial, records = small_setup
    e = mc_energy_bound(records, spaces, cfg, cfg.delta, 3.0, None, noise, initial)
    m = mc_moment_bound(records, spaces, cfg, None, noise, initial)
    assert m.dissipation_term == e.dissipation_term  # same code path, bitwise
    # the sup statistic dominates the fixed-time statistic everywhere
    assert m.lhs >= e.lhs.max() - 1e-15


def test_uniqueness_identical_inputs_exactly_zero(small_setup):
    spaces, cfg, noise, initial, _ = small_setup
    rep = pathwise_uniqueness_check(spaces, cfg, None, noise, initial, initial)
    assert np.all(rep.weighted_diff == 0.0)
    assert rep.max_increase == 0.0
    assert rep.passed


def test_uniqueness_perturbed_non_increasing(small_setup):
    spaces, cfg, noise, initial, _ = small_setup
    other = perturbed_state(spaces, initial, (1, 1, 1), 1e-3)
    rep = pathwise_uniqueness_check(spaces, cfg, None, noise, initial, other)
    assert rep.weighted_diff[0] == pytest.approx(1e-6, rel=1e-12)
    assert np.all(rep.weighted_diff <= rep.weighted_diff[0] * (1 + 1e-9))
    assert rep.max_increase <= rep.tolerance
    w = rep.weight.samples
    assert w[0] == 0.0 and np.all(np.diff(w) >= 0)


def test_uniqueness_weight_follows_first_trajectory(small_setup):
    spaces, cfg, noise, initial, _ = small_setup
    forced = DeterministicForce(
        spaces.velocity_from_modes([(1, 1, 1, 0.5)]).coeffs
    )
    other = perturbed_state(spaces, initial, (1, 1, 2), 5e-4)
    rep = pathwise_uniqueness_check(spaces, cfg, forced, noise, initial, other)
    assert rep.weight.samples[-1] > 0.0


def test_divergence_series_zero_field(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.01)
    from acflow.integrator import GalerkinIntegrator

    integ = GalerkinIntegrator(spaces4, cfg, include_convection=False)
    rec = integ.run_path(project_initial(spaces4, None, None))
    assert np.all(rec.l2_div_u == 0.0)


def test_simulate_paths_worker_invariance(small_setup):
    spaces, cfg, noise, initial, _ = small_setup
    r1 = simulate_paths(spaces, cfg, None, noise, initial, 6, workers=1)
    r2 = simulate_paths(spaces, cfg, None, noise, initial, 6, workers=3)
    assert np.array_equal(r1.energy, r2.energy)
    assert np.array_equal(r1.u, r2.u)
