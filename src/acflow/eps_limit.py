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

import numpy as np

from .diagnostics import energy_bound_rhs, mean_se, trapezoid
from .forcing import NoiseModel, default_noise
from .integrator import GalerkinIntegrator, PathRecord, SolverConfig, State, project_initial
from .spaces import ConfigurationError, SpectralSpaces

logger = logging.getLogger(__name__)


def leray_projector(spaces: SpectralSpaces) -> np.ndarray:
    """Orthogonal projector onto the divergence-free subspace, as its
    diagonal: a vector of n_velocity entries.

    The constraint G D has the kernel of the diagonal map D, since G is
    symmetric positive definite: the coordinates where ``div_diagonal`` is
    zero.  The projector is the diagonal indicator of those coordinates,
    exact at every cutoff (an SVD rank threshold mistakes the Gram's
    ill-conditioning for a kernel from N = 10 on); on this basis pair it is
    zero.  ``np.diag`` of it is the matrix.
    """
    return (spaces.div_diagonal == 0).astype(float)


def run_incompressible_reference(spaces: SpectralSpaces, config: SolverConfig) -> PathRecord:
    """Reference trajectory of the incompressible system on the same basis.

    The divergence-free subspace is trivial here, so every initial datum,
    force, noise and the convection project to zero and the trajectory is
    exactly u = 0 at every step, for every path: it is returned as such (the
    one-path record of path 0), zero step terms included.  A basis with a
    non-trivial divergence-free subspace would need a projected solver and
    is refused.
    """
    if config.n_modes != spaces.n_modes:
        raise ConfigurationError("config cutoff does not match the space")
    if leray_projector(spaces).any():
        raise ConfigurationError(
            f"the divergence-free subspace at cutoff {spaces.n_modes} is not "
            "trivial; the incompressible reference has no solver for it"
        )
    times = np.arange(config.n_steps + 1) * config.dt
    return PathRecord.zeros(times, [0], spaces.n_velocity, spaces.n_pressure).take(0)


DEFAULT_SWEEP_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_SWEEP_FORCE_MODES = ((1, 1, 1, 0.4), (2, 1, 2, 0.2))


@dataclass(frozen=True)
class EpsSweepPlan:
    """Decreasing compressibility values with everything else held fixed;
    every path starts at rest.  Path 0's states at ``snapshot_times`` (each
    on its nearest step) are kept for every eps."""

    eps_values: tuple[float, ...] = DEFAULT_SWEEP_EPS
    base: SolverConfig = field(default_factory=SolverConfig)
    n_paths: int = 50
    force_modes: tuple = DEFAULT_SWEEP_FORCE_MODES
    noise_trace: float = 0.01
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.eps_values) < 1:
            raise ConfigurationError("sweep.eps_values must list at least one eps")
        if any(e <= 0 for e in self.eps_values):
            raise ConfigurationError(f"sweep.eps_values must be positive, got {self.eps_values}")
        if any(
            self.eps_values[i + 1] >= self.eps_values[i]
            for i in range(len(self.eps_values) - 1)
        ):
            raise ConfigurationError(f"sweep.eps_values must be strictly decreasing, got {self.eps_values}")
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
    div_rates: list[float | None]
    diff_rates: list[float | None]
    divergence_strictly_decreasing: bool
    difference_decreasing: bool
    pressure_bounded: bool
    sweep_valid: bool  # False when too many paths diverged
    snapshots: list[tuple[float, float, State]]  # path 0's (eps, requested t, state)

    @property
    def passed(self) -> bool:
        return (
            self.sweep_valid
            and self.divergence_strictly_decreasing
            and self.difference_decreasing
            and self.pressure_bounded
        )


def _peak(series: np.ndarray) -> tuple[float, float]:
    """Path mean of ``series`` (a row per path) at the grid time where that
    mean peaks, with its standard error."""
    mean, se = mean_se(series[:, int(np.argmax(series.mean(axis=0)))])
    return float(mean), float(se)


def _rate(a: float, b: float, a_eps: float, b_eps: float) -> float | None:
    """Observed rate log(a / b) / log(a_eps / b_eps) of a sup between two
    consecutive eps; None (JSON null) where either sup is not positive."""
    if a > 0 and b > 0:
        return float(np.log(a / b) / np.log(a_eps / b_eps))
    return None


def epsilon_sweep(
    spaces: SpectralSpaces,
    plan: EpsSweepPlan,
    workers: int = 1,
) -> ConvergenceReport:
    """Run the perturbed family over decreasing eps against the incompressible
    reference and collect the convergence statistics.

    The reference is built once for the sweep, which refuses a basis where
    it is not the zero trajectory (see the module docstring); so the gap
    statistic sup_t E|u_eps - u_0|^2 is sup_t E|u_eps|^2, from the records'
    ``l2_u``, and its decrease shows u_eps -> 0, a locking effect of the
    discrete constraint, not convergence to a non-zero incompressible flow.
    Diverged paths are logged and left out of the statistics.  Path 0's
    states at the plan's snapshot times, in step order for each eps, are
    the report's ``snapshots``; those at or after its blow-up are left out."""
    noise = default_noise(spaces, trace=plan.noise_trace)
    force = spaces.velocity_from_modes(plan.force_modes)
    initial = project_initial(spaces, None, None)
    base = replace(plan.base, n_modes=spaces.n_modes)
    first = replace(base, eps=plan.eps_values[0])
    run_incompressible_reference(spaces, first)

    wanted = sorted((round(t / base.dt), t) for t in plan.snapshot_times)
    keep = [m for m, _ in wanted]
    rows: list[SweepRow] = []
    snapshots = []
    for eps in plan.eps_values:
        integ = GalerkinIntegrator(spaces, replace(base, eps=eps), force=force, noise=noise)
        coupled = integ.run_path(initial, range(plan.n_paths), workers=workers, keep_steps=keep)
        stop = coupled.diverged_at[0]
        snapshots += [
            (eps, t, State(coupled.kept_u[0, j], coupled.kept_p[0, j], float(coupled.times[m])))
            for j, (m, t) in enumerate(wanted)
            if stop < 0 or m < stop
        ]
        blown = coupled.diverged_at >= 0
        for path, step in zip(coupled.paths[blown].tolist(), coupled.diverged_at[blown].tolist()):
            logger.warning("path %d diverged at step %d for eps=%g; excluded", path, step, eps)
        excluded = int(blown.sum())
        if excluded == plan.n_paths:
            coupled.raise_diverged()
        kept = coupled.take(~blown)
        div_sup, div_se = _peak(kept.l2_div_u**2)
        diff_sup, diff_se = _peak(kept.l2_u**2)
        p_mean, p_se = map(float, mean_se(trapezoid(eps * kept.l2_p**2, kept.times)))
        rows.append(SweepRow(eps, div_sup, div_se, diff_sup, diff_se, p_mean, p_se, excluded))
    pressure_bound = _pressure_energy_budget(spaces, first, force, noise, initial, coupled.times)

    # monotonicity with statistical tolerance: the divergence must fall by
    # more than the combined standard error, or stay at its limit 0, the gap
    # may not rise by more
    pairs = list(zip(rows[:-1], rows[1:]))
    return ConvergenceReport(
        rows=rows,
        pressure_bound=pressure_bound,
        div_rates=[_rate(a.div_sup, b.div_sup, a.eps, b.eps) for a, b in pairs],
        diff_rates=[_rate(a.diff_sup, b.diff_sup, a.eps, b.eps) for a, b in pairs],
        divergence_strictly_decreasing=all(
            a.div_sup - b.div_sup > np.hypot(a.div_se, b.div_se) or a.div_sup == b.div_sup == 0
            for a, b in pairs
        ),
        difference_decreasing=all(
            b.diff_sup <= a.diff_sup + np.hypot(a.diff_se, b.diff_se) for a, b in pairs
        ),
        pressure_bounded=all(
            r.pressure_energy <= pressure_bound + 3.0 * r.pressure_se for r in rows
        ),
        sweep_valid=all(r.excluded_paths <= 0.1 * plan.n_paths for r in rows),
        snapshots=snapshots,
    )


def _pressure_energy_budget(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: np.ndarray,
    noise: NoiseModel,
    initial: State,
    times: np.ndarray,
) -> float:
    """Budget for E int eps |p|^2 dt implied by the weighted energy bound:
    eps E|p(t)|^2 <= e^{t} * rhs(t) with unit weight rate, integrated over
    the run's time grid ``times``, as the pressure energy it bounds is."""
    delta = 1.0
    rhs = energy_bound_rhs(spaces, config, force, noise, initial, delta, times)
    return float(trapezoid(np.exp(delta * times) * rhs, times))
