"""Vanishing-compressibility sweep against the incompressible reference.

The incompressible reference is the solution of the same Galerkin system
with the constraint Div u = 0 in place of the pressure equation, so it lives
in the kernel of the divergence constraint G D (G the pressure Gram, D the
divergence coefficient map).  On this sine/trig basis pair D is diagonal with
entries j pi and k pi, none zero, and G is symmetric positive definite, so
the kernel is ker(D) = {0}: the only divergence-free velocity field at any
finite cutoff is zero, and so is the reference trajectory, whatever the
initial datum, force and noise.  It is returned exactly, without stepping.

The sweep's distance to the reference is therefore |u_eps|^2 itself, the
square of the ``l2_u`` series every path record holds: at a fixed cutoff
the criterion certifies u_eps -> 0 as eps -> 0, a locking effect of the
discrete constraint, rather than convergence to a non-zero incompressible
flow (Temam, Navier-Stokes Equations, 1977, ch. III, compares
u_eps with a divergence-free solution; here that solution is 0).  Alongside
it the divergence content must shrink strictly and the rescaled pressure
sqrt(eps) p must stay bounded by the energy budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .diagnostics import energy_bound_rhs, trapezoid
from .forcing import DeterministicForce, NoiseModel, default_noise
from .integrator import GalerkinIntegrator, PathRecord, SolverConfig, State, project_initial
from .spaces import ConfigurationError, SpectralSpaces

logger = logging.getLogger(__name__)


def leray_projector(spaces: SpectralSpaces) -> np.ndarray:
    """Orthogonal projector onto the divergence-free subspace.

    The constraint G D has the kernel of the diagonal map D, since G is
    symmetric positive definite: the coordinates where ``div_diagonal`` is
    zero.  The projector is the diagonal indicator of those coordinates,
    exact at every cutoff (an SVD rank threshold mistakes the Gram's
    ill-conditioning for a kernel from N = 10 on); on this basis pair it is
    the zero matrix.
    """
    return np.diag((spaces.div_diagonal == 0).astype(float))


def run_incompressible_reference(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: DeterministicForce | None = None,
    noise: NoiseModel | None = None,
    initial: State | None = None,
    path_index: int = 0,
    include_convection: bool = True,
) -> PathRecord:
    """Reference trajectory of the incompressible system on the same basis.

    The divergence-free subspace is trivial here, so initial datum, force,
    noise and convection all project to zero and the trajectory is exactly
    u = 0 at every step, for every path: it is returned as such, a zero
    ledger included.  A basis with a non-trivial divergence-free subspace
    would need a projected solver and is refused.
    """
    if config.n_modes != spaces.n_modes:
        raise ConfigurationError("config cutoff does not match the space")
    if leray_projector(spaces).any():
        raise ConfigurationError(
            f"the divergence-free subspace at cutoff {spaces.n_modes} is not "
            "trivial; the incompressible reference has no solver for it"
        )
    times = np.arange(config.n_steps + 1) * config.dt
    return PathRecord.zeros(times, [path_index], spaces.n_velocity, spaces.n_pressure).take(0)


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
            raise ConfigurationError(f"sweep.paths must be at least 1, got {self.n_paths}")
        if self.noise_trace < 0:
            raise ConfigurationError("sweep.noise_trace must be nonnegative")


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
    """Run the perturbed family over decreasing eps against the incompressible
    reference and collect the convergence statistics.

    The reference is built once for the sweep, which refuses a basis where
    it is not the zero trajectory (see the module docstring); so the gap
    statistic sup_t E|u_eps - u_0|^2 is sup_t E|u_eps|^2, from the records'
    ``l2_u``, and its decrease shows u_eps -> 0, a locking effect of the
    discrete constraint, not convergence to a non-zero incompressible flow.
    Diverged paths are logged and left out of the statistics.
    ``observe(eps, m, block)`` sees path 0's block after each step m."""
    noise = default_noise(spaces, trace=plan.noise_trace)
    force = DeterministicForce(
        spaces.velocity_from_modes(plan.force_modes).coeffs
    )
    initial = project_initial(spaces, plan.initial_u, plan.initial_p)
    base = replace(plan.base, n_modes=spaces.n_modes)
    run_incompressible_reference(spaces, replace(base, eps=plan.eps_values[0]), force, noise, initial)

    rows: list[SweepRow] = []
    pressure_bound = None
    for eps in plan.eps_values:
        cfg = replace(base, eps=eps)
        integ = GalerkinIntegrator(spaces, cfg, force=force, noise=noise)
        hook = None if observe is None else partial(observe, eps)
        coupled = integ.run_path(initial, range(plan.n_paths), hook, workers)
        for err in coupled.diverged:
            logger.warning("path %d diverged at step %d for eps=%g; excluded", err.path, err.step, eps)
        excluded = len(coupled.diverged)
        if excluded == plan.n_paths:
            raise coupled.diverged[0]
        kept = coupled.take(np.isin(np.arange(plan.n_paths), [e.row for e in coupled.diverged], invert=True))
        div2, diff2 = kept.l2_div_u**2, kept.l2_u**2
        press = trapezoid(eps * kept.l2_p**2, kept.times)

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
