"""Vanishing-compressibility sweep against an incompressible reference.

The reference dynamics is the same semi-implicit scheme with the pressure
eliminated: initial datum, convection term, force and noise contributions are
passed through the discrete divergence-free projection every step, so the
reference trajectory carries no divergence at all.

The projection is the orthogonal projector onto the kernel of the divergence
constraint (assembled through the pressure Gram), computed from an SVD with a
relative rank threshold.  On this sine/trig basis pair the constraint map is
square and invertible, so the kernel is trivial: the only exactly
divergence-free velocity field at any finite cutoff is zero, and the
projector annihilates every field.  The sweep therefore certifies the
vanishing-epsilon trend directly: the divergence content and the distance to
the (zero-content) incompressible reference must both shrink as epsilon does,
and the rescaled pressure sqrt(eps) p must stay bounded by the energy budget.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.integrate import trapezoid

from .diagnostics import energy_bound_rhs
from .forcing import (
    DeterministicForce,
    NoiseModel,
    default_noise,
    empty_noise,
    noise_contribution,
    sample_increment,
)
from .integrator import (
    ENERGY_CAP,
    DivergedPathError,
    EnergyLedger,
    GalerkinIntegrator,
    PathRecord,
    SolverConfig,
    State,
    project_initial,
)
from .spaces import ConfigurationError, SpectralSpaces, VelocityField, h10_norm, l2_norm

logger = logging.getLogger(__name__)

_PROJECTOR_CACHE: dict[tuple[int, float], np.ndarray] = {}
_PROJECTOR_LOCK = threading.Lock()


def leray_projector(spaces: SpectralSpaces, threshold: float = 1e-12) -> np.ndarray:
    """Orthogonal projector onto the divergence-free subspace.

    The constraint matrix is the divergence coefficient map composed with the
    pressure Gram; right singular directions with singular value below
    threshold * sigma_max span the kernel.  Rank deficiency is handled by the
    threshold; with a full-rank constraint the projector is exactly zero.
    """
    key = (spaces.n_modes, float(threshold))
    with _PROJECTOR_LOCK:
        cached = _PROJECTOR_CACHE.get(key)
        if cached is None:
            constraint = spaces.gram.matrix * spaces.div_diagonal[None, :]
            _, s, vt = np.linalg.svd(constraint)
            null_rows = vt[s <= threshold * s[0]] if s.size else vt
            cached = null_rows.T @ null_rows
            _PROJECTOR_CACHE[key] = cached
    return cached


def leray_project(spaces: SpectralSpaces, u: VelocityField) -> VelocityField:
    """Project a velocity field onto the divergence-free subspace."""
    p = leray_projector(spaces)
    return VelocityField(p @ u.coeffs, spaces.n_modes)


def run_incompressible_reference(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: DeterministicForce | None = None,
    noise: NoiseModel | None = None,
    initial: State | None = None,
    path_index: int = 0,
    include_convection: bool = True,
    keep_history: bool = False,
) -> PathRecord:
    """Reference trajectory of the incompressible system on the same basis.

    Same implicit Stokes treatment and explicit convection as the coupled
    scheme, with the pressure eliminated: every forcing contribution is
    projected divergence-free, and the post-solve state is projected again
    since the Stokes solve need not commute with the projection.
    """
    proj = leray_projector(spaces)
    force = force or DeterministicForce(np.zeros(spaces.n_velocity))
    noise = noise if noise is not None else empty_noise(spaces)
    proj_force = DeterministicForce(proj @ force.coeffs)
    proj_noise = NoiseModel(noise.modes @ proj.T) if noise.n_terms else noise
    if initial is None:
        initial = project_initial(spaces, None, None)

    integ = GalerkinIntegrator(
        spaces, config, force=proj_force, noise=proj_noise,
        include_convection=include_convection,
    )
    stokes_diag = 1.0 / (1.0 + config.dt * config.nu * spaces.stiffness)

    n_steps = config.n_steps
    dt = config.dt
    u = proj @ initial.u.coeffs

    times = np.zeros(n_steps + 1)
    l2_u = np.zeros(n_steps + 1)
    h1_u = np.zeros(n_steps + 1)
    l4_u = np.zeros(n_steps + 1)
    l2_div = np.zeros(n_steps + 1)
    residual = np.zeros(n_steps + 1)
    history = np.zeros((n_steps + 1, spaces.n_velocity)) if keep_history else None
    ledger_rows = []

    quad = integ.quad_order

    def record(m, uc, res):
        f = VelocityField(uc, spaces.n_modes)
        times[m] = m * dt
        l2_u[m] = l2_norm(f)
        h1_u[m] = h10_norm(f)
        l4_u[m] = spaces.l4_norm(f, quad)
        l2_div[m] = spaces.divergence_l2(f)
        residual[m] = res
        if history is not None:
            history[m] = uc

    record(0, u, 0.0)
    for m in range(1, n_steps + 1):
        inc = sample_increment(proj_noise, dt, (config.seed, path_index, m - 1))
        xi = noise_contribution(proj_noise, inc)
        u_field = VelocityField(u, spaces.n_modes)
        bhat = integ._convection_dual(u_field)
        rhs = u + proj @ (-dt * bhat + dt * proj_force.coeffs + xi)
        u_new = proj @ (stokes_diag * rhs)

        new_field = VelocityField(u_new, spaces.n_modes)
        energy_new = l2_norm(new_field) ** 2
        dissipation = 2.0 * config.nu * h10_norm(new_field) ** 2 * dt
        work = 2.0 * float(np.dot(proj_force.coeffs, u_new)) * dt
        ito = proj_noise.trace * dt
        martingale = 2.0 * float(np.dot(xi, u))
        res = (
            (energy_new - float(np.dot(u, u)))
            + dissipation - work - ito - martingale
        )
        change = energy_new - float(np.dot(u, u))
        ledger_rows.append((m * dt, energy_new, change, dissipation, work, ito, martingale, res, 0))
        u = u_new
        record(m, u, res)
        if l2_u[m] ** 2 > ENERGY_CAP or not np.isfinite(l2_u[m]):
            raise DivergedPathError(m, l2_u[m] ** 2, path_index)

    final = State(
        u=VelocityField(u, spaces.n_modes), p=spaces.zero_pressure(), t=times[-1]
    )
    return PathRecord(
        times=times,
        l2_u=l2_u,
        h1_u=h1_u,
        l4_u=l4_u,
        l2_p=np.zeros(n_steps + 1),
        l2_div_u=l2_div,
        energy=l2_u**2,
        residual=residual,
        ledger=EnergyLedger(*np.array(ledger_rows).T),
        final_state=final,
        seed=config.seed,
        path_index=path_index,
        coeff_history=history,
    )


DEFAULT_SWEEP_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_SWEEP_FORCE_MODES = ((1, 1, 1, 0.4), (2, 1, 2, 0.2))


@dataclass(frozen=True)
class EpsSweepPlan:
    """Decreasing compressibility values with everything else held fixed."""

    eps_values: tuple[float, ...] = DEFAULT_SWEEP_EPS
    base: SolverConfig = field(default_factory=SolverConfig)
    n_paths: int = 50
    force_modes: tuple = DEFAULT_SWEEP_FORCE_MODES
    noise_trace: float = 0.01
    initial_u: object = None
    initial_p: object = None

    def __post_init__(self):
        if len(self.eps_values) < 1:
            raise ConfigurationError("sweep needs at least one eps value")
        if any(e <= 0 for e in self.eps_values):
            raise ConfigurationError("eps values must be positive")
        if any(
            self.eps_values[i + 1] >= self.eps_values[i]
            for i in range(len(self.eps_values) - 1)
        ):
            raise ConfigurationError("eps values must be strictly decreasing")
        if self.n_paths < 1:
            raise ConfigurationError("sweep needs at least one path")


@dataclass
class SweepRow:
    eps: float
    div_sup: float
    div_se: float
    diff_sup: float
    diff_se: float
    pressure_energy: float
    pressure_se: float
    excluded_paths: int


@dataclass
class ConvergenceReport:
    rows: list[SweepRow]
    pressure_bound: float
    div_rates: list[float]
    diff_rates: list[float]
    divergence_strictly_decreasing: bool
    difference_decreasing: bool
    pressure_bounded: bool
    sweep_valid: bool  # False when too many paths diverged

    @property
    def passed(self) -> bool:
        if len(self.rows) < 2:
            return self.sweep_valid and self.pressure_bounded
        return (
            self.sweep_valid
            and self.divergence_strictly_decreasing
            and self.difference_decreasing
            and self.pressure_bounded
        )


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    if values.size <= 1:
        return float(values.mean()) if values.size else 0.0, 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def epsilon_sweep(
    spaces: SpectralSpaces,
    plan: EpsSweepPlan,
    workers: int = 1,
    observe=None,
) -> ConvergenceReport:
    """Run the perturbed family over decreasing eps against the shared-noise
    incompressible reference and collect the convergence statistics.
    ``observe(eps, m, block)`` sees path 0's block after each step m."""
    noise = default_noise(spaces, trace=plan.noise_trace)
    force = DeterministicForce(
        spaces.velocity_from_modes(plan.force_modes).coeffs
    )
    initial = project_initial(spaces, plan.initial_u, plan.initial_p)
    base = replace(plan.base, n_modes=spaces.n_modes)

    ref_cfg = replace(base, eps=plan.eps_values[0])
    ref_records: dict[int, PathRecord] = {}

    def run_reference(i: int):
        return i, run_incompressible_reference(
            spaces, ref_cfg, force, noise, initial, path_index=i, keep_history=True
        )

    indices = range(plan.n_paths)
    if workers <= 1:
        results = [run_reference(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_reference, indices))
    for i, rec in results:
        ref_records[i] = rec

    rows: list[SweepRow] = []
    pressure_bound = None
    for eps in plan.eps_values:
        cfg = replace(base, eps=eps)
        integ = GalerkinIntegrator(spaces, cfg, force=force, noise=noise)
        hook = None if observe is None else partial(observe, eps)
        coupled = integ.run_paths(initial, indices, workers, keep_history=True, observe=hook)

        div2, diff2, press = [], [], []
        for i, rec in enumerate(coupled):
            if isinstance(rec, DivergedPathError):
                logger.warning("path %d diverged at step %d for eps=%g; excluded", i, rec.step, eps)
                continue
            div2.append(rec.l2_div_u**2)
            gap = rec.coeff_history - ref_records[i].coeff_history
            diff2.append(np.sum(gap * gap, axis=1))
            press.append(trapezoid(eps * rec.l2_p**2, rec.times))
        if not div2:
            raise coupled[0]
        excluded = len(coupled) - len(div2)
        div2, diff2, press = np.array(div2), np.array(diff2), np.array(press)

        div_mean = div2.mean(axis=0)
        t_div = int(np.argmax(div_mean))
        div_sup, div_se = _mean_se(div2[:, t_div])

        diff_mean = diff2.mean(axis=0)
        t_diff = int(np.argmax(diff_mean))
        diff_sup, diff_se = _mean_se(diff2[:, t_diff])

        p_mean, p_se = _mean_se(press)
        rows.append(
            SweepRow(
                eps=eps,
                div_sup=div_sup,
                div_se=div_se,
                diff_sup=diff_sup,
                diff_se=diff_se,
                pressure_energy=p_mean,
                pressure_se=p_se,
                excluded_paths=excluded,
            )
        )

        if pressure_bound is None:
            pressure_bound = _pressure_energy_budget(
                spaces, cfg, force, noise, initial
            )

    # monotonicity with statistical tolerance
    div_ok, diff_ok = True, True
    div_rates, diff_rates = [], []
    for a, b in zip(rows[:-1], rows[1:]):
        combined = float(np.hypot(a.div_se, b.div_se))
        div_ok = div_ok and (a.div_sup - b.div_sup) > combined
        combined = float(np.hypot(a.diff_se, b.diff_se))
        diff_ok = diff_ok and (b.diff_sup <= a.diff_sup + combined)
        le = np.log(a.eps / b.eps)
        if a.div_sup > 0 and b.div_sup > 0:
            div_rates.append(float(np.log(a.div_sup / b.div_sup) / le))
        else:
            div_rates.append(float("nan"))
        if a.diff_sup > 0 and b.diff_sup > 0:
            diff_rates.append(float(np.log(a.diff_sup / b.diff_sup) / le))
        else:
            diff_rates.append(float("nan"))

    pressure_ok = all(
        r.pressure_energy <= pressure_bound + 3.0 * r.pressure_se for r in rows
    )
    sweep_valid = all(r.excluded_paths <= 0.1 * plan.n_paths for r in rows)
    return ConvergenceReport(
        rows=rows,
        pressure_bound=float(pressure_bound),
        div_rates=div_rates,
        diff_rates=diff_rates,
        divergence_strictly_decreasing=bool(div_ok),
        difference_decreasing=bool(diff_ok),
        pressure_bounded=bool(pressure_ok),
        sweep_valid=bool(sweep_valid),
    )


def _pressure_energy_budget(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: DeterministicForce,
    noise: NoiseModel,
    initial: State,
) -> float:
    """Budget for E int eps |p|^2 dt implied by the weighted energy bound:
    eps E|p(t)|^2 <= e^{t} * rhs(t) with unit weight rate, integrated in t."""
    delta = 1.0
    times = np.linspace(0.0, config.horizon, config.n_steps + 1)
    rhs = energy_bound_rhs(spaces, config, force, noise, initial, delta, times)
    return float(trapezoid(np.exp(delta * times) * rhs, times))
