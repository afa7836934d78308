import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acflow import build_spaces, l2_norm
from acflow.diagnostics import energy_bound_rhs, trapezoid
from acflow.eps_limit import (
    EpsSweepPlan,
    epsilon_sweep,
    leray_projector,
    run_incompressible_reference,
)
from acflow.forcing import default_noise
from acflow.integrator import GalerkinIntegrator, SolverConfig, project_initial
from acflow.operators import sample_field
from acflow.spaces import ConfigurationError, SpectralSpaces


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        EpsSweepPlan(eps_values=())
    with pytest.raises(ConfigurationError):
        EpsSweepPlan(eps_values=(1e-2, 1e-1))
    with pytest.raises(ConfigurationError):
        EpsSweepPlan(eps_values=(1e-1, -1e-2))
    with pytest.raises(ConfigurationError):
        EpsSweepPlan(n_paths=0)


def test_projector_is_orthogonal_projection(spaces4):
    p = np.diag(leray_projector(spaces4))
    assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(p - p.T).max() <= 1e-10


def test_divergence_constraint_has_trivial_kernel(spaces4, dense_gram):
    # the divergence coefficient map is square and invertible on this basis
    # pair, so the only exactly divergence-free field in the span is zero and
    # the projector annihilates everything
    constraint = dense_gram(spaces4) * spaces4.div_diagonal[None, :]
    s = np.linalg.svd(constraint, compute_uv=False)
    assert s.min() > 1e-12 * s.max()
    assert np.abs(leray_projector(spaces4)).max() <= 1e-12


def test_projector_kills_discrete_gradients(spaces4, rng, dense_gram):
    p = leray_projector(spaces4)
    c = rng.standard_normal(spaces4.n_pressure)
    grad = (dense_gram(spaces4) * spaces4.div_diagonal[None, :]).T @ c
    assert np.linalg.norm(p * grad) <= 1e-10 * max(np.linalg.norm(grad), 1.0)


def leray_project(spaces: SpectralSpaces, u: np.ndarray) -> np.ndarray:
    """Project a velocity field onto the divergence-free subspace."""
    p = leray_projector(spaces)
    return p * u


def test_projected_field_is_divergence_free_and_idempotent(spaces4, rng):
    u = sample_field(spaces4, rng)
    pu = leray_project(spaces4, u)
    assert spaces4.divergence_l2(pu) <= 1e-10 * max(l2_norm(u), 1.0)
    ppu = leray_project(spaces4, pu)
    assert np.abs(ppu - pu).max() <= 1e-12


def test_projector_fixes_divergence_free_fields(spaces4):
    # the divergence-free subspace is trivial here, so its only member is
    # the zero field; the projector must fix it exactly
    zero = np.zeros(spaces4.n_velocity)
    assert np.array_equal(leray_project(spaces4, zero), zero)


def test_reference_run_stays_divergence_free(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.05, seed=12)
    rec = run_incompressible_reference(spaces4, cfg)
    assert np.all(rec.l2_div_u <= 1e-9)
    assert np.all(rec.l2_p == 0.0)


def test_reference_matches_projected_linear_flow(spaces4):
    # the reference is the implicit heat flow restricted to the projector
    # range; on a trivial range it is the zero trajectory for any initial
    # datum, and the comparison with the exact projected flow still runs
    from scipy.linalg import expm

    cfg = SolverConfig(n_modes=4, dt=1e-4, horizon=0.01, seed=3)
    initial = project_initial(spaces4, "low_mode", None)
    rec = run_incompressible_reference(spaces4, cfg)
    p = np.diag(leray_projector(spaces4))
    a = p @ np.diag(-cfg.nu * spaces4.stiffness) @ p
    exact = expm(a * cfg.horizon) @ (p @ initial.u)
    assert np.linalg.norm(rec.u - exact) <= 50 * cfg.dt + 1e-12


def test_reference_reproducible(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=12)
    a = run_incompressible_reference(spaces4, cfg)
    b = run_incompressible_reference(spaces4, cfg)
    assert np.array_equal(a.l2_u, b.l2_u)


def test_single_eps_sweep_row(spaces4):
    plan = EpsSweepPlan(
        eps_values=(1e-2,),
        base=SolverConfig(n_modes=4, dt=1e-3, horizon=0.05, seed=7),
        n_paths=3,
    )
    rep = epsilon_sweep(spaces4, plan)
    assert len(rep.rows) == 1
    assert rep.rows[0].eps == 1e-2
    assert rep.div_rates == [] and rep.diff_rates == []
    assert rep.passed == (rep.sweep_valid and rep.pressure_bounded)


def test_pressure_budget_integrates_over_the_run_time_grid(spaces4):
    # 0.0504 is not a multiple of dt: the run stops at t = 0.05 after 50
    # steps, and the budget bounds the pressure energy over those times, not
    # over a grid stretched to 0.0504 (1.6% larger)
    base = SolverConfig(n_modes=4, dt=1e-3, horizon=0.0504, seed=7)
    plan = EpsSweepPlan(eps_values=(1e-2,), base=base, n_paths=2)
    rep = epsilon_sweep(spaces4, plan)
    noise = default_noise(spaces4, trace=plan.noise_trace)
    force = spaces4.velocity_from_modes(plan.force_modes)
    initial = project_initial(spaces4, None, None)
    times = np.arange(base.n_steps + 1) * base.dt
    integ = GalerkinIntegrator(spaces4, replace(base, eps=1e-2), force=force, noise=noise)
    rhs = energy_bound_rhs(integ, initial, 1.0, times)
    assert rep.pressure_bound == pytest.approx(trapezoid(np.exp(times) * rhs, times), rel=1e-12)


def test_sweep_statistics_decrease(spaces4):
    plan = EpsSweepPlan(
        eps_values=(1e-1, 1e-3),
        base=SolverConfig(n_modes=4, dt=1e-3, horizon=0.1, seed=42),
        n_paths=4,
    )
    rep = epsilon_sweep(spaces4, plan)
    assert rep.sweep_valid
    assert rep.divergence_strictly_decreasing
    assert rep.difference_decreasing
    assert rep.pressure_bounded
    assert rep.rows[0].div_sup > rep.rows[1].div_sup
    assert all(r.excluded_paths == 0 for r in rep.rows)


def test_sweep_noise_coupling_uses_shared_increments(spaces4):
    # the coupled and reference runs must consume identical increments:
    # with a trivial projector the reference is zero, so the gap statistic
    # equals the coupled field's own norm at every step
    plan = EpsSweepPlan(
        eps_values=(1e-2,),
        base=SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=99),
        n_paths=2,
        force_modes=((1, 1, 1, 0.4),),
    )
    rep = epsilon_sweep(spaces4, plan)
    from acflow.integrator import GalerkinIntegrator
    from dataclasses import replace

    cfg = replace(plan.base, eps=1e-2)
    integ = GalerkinIntegrator(
        spaces4,
        cfg,
        force=spaces4.velocity_from_modes(plan.force_modes),
        noise=default_noise(spaces4, trace=plan.noise_trace),
    )
    recs = [
        integ.run_path(project_initial(spaces4, None, None), path_index=i)
        for i in range(2)
    ]
    sup = max(np.mean([r.l2_u**2 for r in recs], axis=0).max() for _ in (0,))
    assert rep.rows[0].diff_sup == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_projector_is_exactly_zero_at_every_cutoff(n):
    # the constraint's smallest singular value falls below 1e-12 of its
    # largest from N = 10 on (the Gram's conditioning, not a kernel): the
    # projector must still be exactly zero, held as its diagonal
    p = leray_projector(build_spaces(n))
    assert p.shape == (2 * n * n,)
    assert not p.any()


def test_reference_is_the_zero_trajectory(spaces4):
    # whatever the force, noise and initial datum of the coupled runs: the
    # divergence-free subspace is trivial, so they all project to zero
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=5)
    rec = run_incompressible_reference(spaces4, cfg)
    assert rec.u.shape == (spaces4.n_velocity,) and rec.p.shape == (spaces4.n_pressure,)
    assert not rec.u.any() and not rec.p.any()
    for name in rec.SERIES:
        assert not getattr(rec, name).any()
    assert np.array_equal(rec.times, np.arange(cfg.n_steps + 1) * cfg.dt)
    for name in rec.STEP_TERMS:
        assert getattr(rec, name).shape == (cfg.n_steps,) and not getattr(rec, name).any()
    assert rec.paths == 0 and rec.diverged_at == -1


def test_reference_refuses_a_nontrivial_kernel(spaces4):
    # a zero divergence coefficient leaves a divergence-free mode, which
    # would need a projected solver
    sp = copy.copy(spaces4)
    sp.div_diagonal = spaces4.div_diagonal.copy()
    sp.div_diagonal[0] = 0.0
    assert leray_projector(sp)[0] == 1.0
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.01)
    with pytest.raises(ConfigurationError, match="not trivial"):
        run_incompressible_reference(sp, cfg)


def test_sweep_gap_is_the_coupled_energy_at_n10():
    # at N = 10 the gap to the exact zero reference is the squared L2 norm
    # the coupled records hold, bit for bit
    spaces = build_spaces(10)
    plan = EpsSweepPlan(
        eps_values=(1e-1, 1e-3),
        base=SolverConfig(n_modes=10, dt=1e-3, horizon=0.01, seed=21),
        n_paths=4,
    )
    rep = epsilon_sweep(spaces, plan)
    force = spaces.velocity_from_modes(plan.force_modes)
    noise = default_noise(spaces, trace=plan.noise_trace)
    for row in rep.rows:
        integ = GalerkinIntegrator(spaces, replace(plan.base, eps=row.eps), force, noise)
        recs = integ.run_path(project_initial(spaces, None, None), range(4))
        assert row.diff_sup == np.mean(recs.l2_u**2, axis=0).max()


def test_one_eps_sweep_holds_no_coefficient_histories():
    # the 20 x 501 x 128 coefficient histories of this sweep took 9.8 MiB
    # alone; the gap is read off the records' l2_u instead
    plan = EpsSweepPlan(
        eps_values=(1e-2,), base=SolverConfig(n_modes=8, horizon=0.5), n_paths=20
    )
    spaces = build_spaces(8)
    tracemalloc.start()
    try:
        epsilon_sweep(spaces, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.8 * 2**20


def test_reference_at_n32_forms_no_dense_projector():
    # the projector is held as its diagonal, 16 KiB at N = 32; as a
    # 2N^2 x 2N^2 matrix it took 32 MiB
    spaces = build_spaces(32)
    tracemalloc.start()
    try:
        run_incompressible_reference(spaces, SolverConfig(n_modes=32, horizon=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
