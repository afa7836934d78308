"""Monte Carlo and pathwise verification of the a priori estimates.

Three checks are driven from simulated path ensembles:

* the exponentially weighted energy bound
    E[|u(t)|^2 + eps |p(t)|^2] e^{-delta t} + 2 nu int E||u||^2 e^{-delta s} ds
      <= initial energy + int [ |f|^2/delta + Tr(g^2) ] e^{-delta s} ds,
* the moment bound for exponents p >= 2, whose constant is not explicit;
  an implied constant is reported, and its stability between the whole
  ensemble and its first half asserted,
* the pathwise uniqueness contraction: the squared difference of two
  trajectories driven by identical noise, weighted by
  exp[-(27/nu^3) int ||u||_L4^4], must not increase beyond scheme error.

Monte Carlo paths are independent and advance in blocks that may run
concurrently, each writing its own rows of one PathRecord; the checks reduce
its arrays over the row axis, in path-index order, whatever the scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import NoiseModel
from .integrator import GalerkinIntegrator, PathRecord, SolverConfig, State
from .spaces import SpectralSpaces, l2_norm


def trapezoid(y: np.ndarray, x: np.ndarray) -> np.float64 | np.ndarray:
    """Trapezoid rule along the last axis of y for samples on the grid x,
    summed as scipy.integrate.trapezoid sums it, so the same bits."""
    return np.sum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral from x[0] along the last axis of y,
    starting at 0; after the 0 the same bits as
    scipy.integrate.cumulative_trapezoid."""
    steps = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate([np.zeros(y.shape[:-1] + (1,)), steps], axis=-1)


def mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the leading (path) axis of values; the
    error is 0 at one path."""
    mean = values.mean(axis=0)
    if len(values) == 1:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / np.sqrt(len(values))


@dataclass
class EnergyBoundReport:
    delta: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    se: np.ndarray
    confidence_z: float
    n_paths: int
    passed: bool
    dissipation_term: float  # mean weighted dissipation over the full horizon

    def margins(self) -> np.ndarray:
        return self.rhs + self.confidence_z * self.se - self.lhs


@dataclass
class MomentBoundReport:
    moment_p: float
    delta: float
    n_paths: int
    lhs: float
    lhs_se: float
    initial_term: float
    denominator: float
    implied_constant: float | None
    dissipation_term: float
    per_path: np.ndarray


@dataclass
class UniquenessReport:
    times: np.ndarray
    weighted_diff: np.ndarray
    weight_r: np.ndarray  # r(t) = (27/nu^3) int_0^t ||u(s)||_L4^4 ds
    max_increase: float
    tolerance: float
    passed: bool


def simulate_paths(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: np.ndarray | None,
    noise: NoiseModel | None,
    initial: State,
    n_paths: int,
    workers: int = 1,
) -> PathRecord:
    """Run n_paths independent trajectories, a row each, in ``workers``
    contiguous parts; deterministic in path order.  A blow-up raises the
    first DivergedPathError."""
    integ = GalerkinIntegrator(spaces, config, force=force, noise=noise)
    record = integ.run_path(initial, range(n_paths), workers=workers)
    record.raise_diverged()
    return record


def _weighted_dissipation_series(
    record: PathRecord, delta: float, nu: float, moment_p: float
) -> np.ndarray:
    """Cumulative p nu int ||u||^2 |u|^{p-2} e^{-delta s} ds on the grid,
    a row per path."""
    weight = np.exp(-delta * record.times)
    integrand = (
        moment_p * nu * record.h1_u**2 * record.l2_u ** (moment_p - 2.0) * weight
    )
    return cumulative_trapezoid(integrand, record.times)


def mc_energy_bound(
    records: PathRecord,
    spaces: SpectralSpaces,
    config: SolverConfig,
    delta: float,
    z: float,
    force: np.ndarray | None,
    noise: NoiseModel | None,
    initial: State,
) -> EnergyBoundReport:
    """Monte Carlo check of the weighted energy bound at weight rate
    ``delta`` and every grid time, lhs <= rhs + z se, over the paths of
    ``records`` simulated from this problem."""
    times, n_paths = records.times, len(records.paths)
    energy = records.l2_u**2 + config.eps * records.l2_p**2
    diss = _weighted_dissipation_series(records, delta, config.nu, 2.0)
    per_path = energy * np.exp(-delta * times) + diss

    lhs, se = mean_se(per_path)
    rhs = energy_bound_rhs(spaces, config, force, noise, initial, delta, times)

    passed = bool(np.all(lhs <= rhs + z * se + 1e-14))
    return EnergyBoundReport(
        delta=delta,
        times=times,
        lhs=lhs,
        rhs=rhs,
        se=se,
        confidence_z=z,
        n_paths=n_paths,
        passed=passed,
        dissipation_term=float(diss[:, -1].mean()),
    )


def energy_bound_rhs(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: np.ndarray | None,
    noise: NoiseModel | None,
    initial: State,
    delta: float,
    times: np.ndarray,
) -> np.ndarray:
    """Right-hand side of the weighted energy bound at the given times:
    initial energy + int_0^t [|f|^2/delta + Tr(g^2)] e^{-delta s} ds, the
    integral by the trapezoid rule on ``times``."""
    trace = noise.trace if noise is not None else 0.0
    f_sq = np.linalg.norm(force) ** 2 if force is not None else 0.0
    initial_energy = (
        l2_norm(initial.u) ** 2 + config.eps * spaces.pressure_l2(initial.p) ** 2
    )
    source = (f_sq / delta + trace) * np.exp(-delta * times)
    return initial_energy + cumulative_trapezoid(source, times)


def mc_moment_bound(
    records: PathRecord,
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: np.ndarray | None,
    noise: NoiseModel | None,
    initial: State,
) -> MomentBoundReport:
    """Monte Carlo evaluation of the p-th moment bound, at the exponent
    ``config.moment_p`` and weight rate ``config.delta``, over the paths of
    ``records`` simulated from this problem.

    The bound's constant is not explicit, so the report carries the implied
    constant (lhs minus initial terms, divided by the forcing integral);
    moment_stability asserts its finiteness and stability across
    ensemble sizes, not a fixed threshold.
    """
    p, delta, times, n_paths = config.moment_p, config.delta, records.times, len(records.paths)
    weight = np.exp(-delta * times)
    sup_term = np.max((records.l2_u**p + config.eps * records.l2_p**p) * weight, axis=-1)
    diss = _weighted_dissipation_series(records, delta, config.nu, p)[:, -1]
    per_path = sup_term + diss

    lhs, lhs_se = map(float, mean_se(per_path))

    trace = noise.trace if noise is not None else 0.0
    f_p = np.linalg.norm(force) ** p if force is not None else 0.0
    initial_term = (
        l2_norm(initial.u) ** p + config.eps * spaces.pressure_l2(initial.p) ** p
    )
    source = (f_p + trace ** (p / 2.0)) * weight
    denominator = float(cumulative_trapezoid(source, times)[-1])

    implied = (lhs - initial_term) / denominator if denominator > 0 else None
    return MomentBoundReport(
        moment_p=p,
        delta=delta,
        n_paths=n_paths,
        lhs=lhs,
        lhs_se=lhs_se,
        initial_term=initial_term,
        denominator=denominator,
        implied_constant=implied,
        dissipation_term=float(diss.mean()),
        per_path=per_path,
    )


def moment_stability(
    full: MomentBoundReport, half: MomentBoundReport, tol: float
) -> tuple[float | None, bool]:
    """The relative spread |C_full - C_half| / |C_full| of the implied
    constants of a whole ensemble and of its first half, None unless both
    are finite, and the verdict: a spread of at most ``tol``."""
    c_full, c_half = full.implied_constant, half.implied_constant
    finite = all(c is not None and np.isfinite(c) for c in (c_full, c_half))
    spread = abs(c_full - c_half) / abs(c_full) if finite and c_full else None
    return spread, bool(spread is not None and spread <= tol)


def pathwise_uniqueness_check(
    spaces: SpectralSpaces,
    config: SolverConfig,
    force: np.ndarray | None,
    noise: NoiseModel | None,
    init_a: State,
    init_b: State,
    c_check: float = 1.0,
) -> UniquenessReport:
    """Drive two trajectories with path 0's Wiener increments and track the
    weighted squared difference; additive noise cancels in the difference, so
    the weighted series must not increase beyond O(dt) scheme error."""
    integ = GalerkinIntegrator(spaces, config, force=force, noise=noise)
    diff = np.zeros(config.n_steps + 1)

    def diff_energy(m: int, block) -> None:
        if len(block.rows) == 2:
            du = block.u[0] - block.u[1]
            dp = block.p[0] - block.p[1]
            pr2 = max(float(dp @ spaces.gram_product(dp)), 0.0)
            diff[m] = float(np.dot(du, du)) + config.eps * pr2

    pair = integ.run_path([init_a, init_b], [0, 0], observe=diff_energy)
    pair.raise_diverged()
    times, l4_a = pair.times, pair.l4_u[0]

    rate = 27.0 / config.nu**3
    r = cumulative_trapezoid(rate * l4_a**4, times)
    weighted = diff * np.exp(-r)
    increases = np.diff(weighted)
    max_increase = float(increases.max()) if increases.size else 0.0
    tol = c_check * config.dt
    return UniquenessReport(
        times=times,
        weighted_diff=weighted,
        weight_r=r,
        max_increase=max_increase,
        tolerance=tol,
        passed=max_increase <= tol,
    )


def perturbed_state(spaces: SpectralSpaces, base: State, mode, amplitude: float) -> State:
    """Copy of a state with one velocity mode nudged by the given amplitude."""
    j, k, d = mode
    u = base.u.copy()
    u[spaces.velocity_index(j, k, d)] += amplitude
    return State(u=u, p=base.p, t=base.t)


__all__ = [
    "EnergyBoundReport",
    "MomentBoundReport",
    "UniquenessReport",
    "energy_bound_rhs",
    "mc_energy_bound",
    "mc_moment_bound",
    "mean_se",
    "moment_stability",
    "pathwise_uniqueness_check",
    "perturbed_state",
    "simulate_paths",
]
