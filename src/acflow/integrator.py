"""Semi-implicit Euler-Maruyama time stepping for the coupled system

    du + [ -nu Lap u + ((u.grad) + 0.5 Div u) u + grad p ] dt
        = f dt + sum_k g_k dW_k,
    eps dp + Div u dt = 0.

The linear Stokes part and the pressure coupling are treated backward-Euler
(eliminating the new pressure gives a symmetric positive definite solve in the
velocity coefficients), the stabilised convection term explicitly, and the
noise by Euler-Maruyama.  This reproduces the energy balance

    d[|u|^2 + eps |p|^2] + 2 nu ||u||^2 dt
        = [2 (f, u) + Tr(g^2)] dt + 2 sum_k (g_k, u) dW_k

unconditionally on the linear part; the per-step ledger residual measures the
remaining discretisation error.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .forcing import (
    DeterministicForce,
    NoiseModel,
    WienerIncrement,
    empty_noise,
    noise_contribution,
    sample_increment,
)
from .spaces import (
    ConfigurationError,
    GridWorkspace,
    PressureField,
    SpectralSpaces,
    VelocityField,
    _rowdot,
    h10_norm,
    l2_norm,
    scalar_pow,
    velocity_indices,
)

ENERGY_CAP = 1e12
# Most paths one step call advances.  At N=8, blocks of up to 20 cost least
# per path-step over 12, 20, 50 and 200 paths (table in CHANGES.md); with the
# block's grid arrays in its GridWorkspace, no block size page-faults per step.
BLOCK_PATHS = 20
# Bytes of Wiener increments a block draws at once: run_path draws its rows'
# noise for as many steps as fit, a sample_increment call per chunk, so a
# model of up to 2N^2 terms still holds little of it.
NOISE_CHUNK_BYTES = 1 << 20


class DivergedPathError(RuntimeError):
    """Numerical blow-up of one path, with its path index and step."""

    def __init__(self, step: int, energy: float, path: int = 0):
        super().__init__(f"path {path} diverged at step {step}: energy {energy:.3e} exceeded cap")
        self.step = step
        self.energy = energy
        self.path = path


@dataclass(frozen=True)
class SolverConfig:
    nu: float = 0.1
    eps: float = 0.1
    delta: float = 1.0
    n_modes: int = 8
    dt: float = 1e-3
    horizon: float = 0.5
    moment_p: float = 2.0
    quad_order: int | None = None
    seed: int = 12345

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigurationError("nu must be positive")
        if self.eps <= 0:
            raise ConfigurationError("eps must be positive")
        if self.delta < 0:
            raise ConfigurationError("delta must be nonnegative")
        if self.n_modes < 1:
            raise ConfigurationError("n_modes must be positive")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.dt > self.horizon:
            raise ConfigurationError("dt must not exceed the horizon")
        if self.moment_p < 2:
            raise ConfigurationError("moment_p must be at least 2")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.quad_order is not None and self.quad_order < 4 * self.n_modes:
            raise ConfigurationError(
                f"solver.quad_order {self.quad_order} too small; "
                f"need at least 4 n_modes = {4 * self.n_modes}"
            )

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


@dataclass(frozen=True)
class State:
    u: VelocityField
    p: PressureField
    t: float


@dataclass(frozen=True)
class EnergyLedger:
    """Energy balance terms as arrays: one entry per step of a path, or, as
    returned by one step call, one entry per path of the block."""

    t: np.ndarray
    energy: np.ndarray
    energy_change: np.ndarray
    dissipation_increment: np.ndarray
    work_increment: np.ndarray
    ito_increment: np.ndarray
    martingale_increment: np.ndarray
    residual: np.ndarray
    convection_pairing: np.ndarray  # (B(u_m), u_m), zero up to round-off


@dataclass(frozen=True)
class PathBlock:
    """States of M paths at one time, a row each, with the norms the ledger
    reads; ``rows`` are their positions in the batch given to run_path."""

    u: np.ndarray  # (M, n_velocity)
    p: np.ndarray  # (M, n_pressure)
    t: float
    rows: np.ndarray
    l2_u: np.ndarray
    h1_u: np.ndarray
    l2_p: np.ndarray
    energy: np.ndarray  # |u|^2 + eps |p|^2
    gram_p: np.ndarray  # G p, the product behind l2_p and the next step's grad p

    def take(self, keep: np.ndarray) -> "PathBlock":
        rows = {f.name: getattr(self, f.name)[keep] for f in fields(self) if f.name != "t"}
        return replace(self, **rows)


@dataclass
class PathRecord:
    """Per-step time series of one realised trajectory."""

    times: np.ndarray
    l2_u: np.ndarray
    h1_u: np.ndarray
    l4_u: np.ndarray
    l2_p: np.ndarray
    l2_div_u: np.ndarray
    energy: np.ndarray
    residual: np.ndarray
    ledger: EnergyLedger
    final_state: State
    seed: int
    path_index: int
    coeff_history: np.ndarray | None = None  # (n_steps + 1, n_velocity) if kept

    SERIES = ("l2_u", "h1_u", "l4_u", "l2_p", "l2_div_u", "energy", "residual")
    CSV_COLUMNS = ("t",) + SERIES

    def csv_rows(self):
        return zip(self.times, *(getattr(self, name) for name in self.SERIES))


_LEDGER_TERMS = tuple(f.name for f in fields(EnergyLedger))[1:]
# per-step arrays a path run fills: the record's series and the ledger's terms
_RUN_ARRAYS = tuple(dict.fromkeys(PathRecord.SERIES + _LEDGER_TERMS))


# what _cholesky_inverse calls in numpy's bundled OpenBLAS, built with 64-bit
# LAPACK integers and the scipy_ symbol prefix and 64_ suffix
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_dpotrf_64_",
    "scipy_dpotrs_64_",
)


@functools.cache
def _numpy_openblas():
    """The OpenBLAS bundled with numpy's wheels (``numpy.libs``), the library
    numpy's own products already run on, with its thread count and LAPACK
    Cholesky routines typed for ``ctypes``; None when numpy links another
    BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, name) for name in _OPENBLAS_SYMBOLS):
            # the thread calls take and return a C int; LAPACK's integers
            # are 64-bit, passed by reference (Fortran calling convention),
            # then the length of the character argument uplo by value
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            ref = ctypes.POINTER(ctypes.c_int64)
            mat = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
            lib.scipy_dpotrf_64_.argtypes = [ctypes.c_char_p, ref, mat, ref, ref, ctypes.c_size_t]
            lib.scipy_dpotrs_64_.argtypes = [
                ctypes.c_char_p, ref, ref, mat, ref, mat, ref, ref, ctypes.c_size_t
            ]
            lib.scipy_dpotrf_64_.restype = lib.scipy_dpotrs_64_.restype = None
            return lib
    return None


def _check_info(routine: str, info: ctypes.c_int64) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info.value}")


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """a = U^T U: U over the upper triangle of the square Fortran-order SPD
    a, by LAPACK dpotrf (uplo 'U'), the call behind scipy.linalg.cho_factor;
    a positive info means a leading minor is not positive."""
    if a.shape != (len(a), len(a)):
        raise ValueError(f"cannot factor a {a.shape} matrix")
    n, info = ctypes.c_int64(len(a)), ctypes.c_int64()
    _numpy_openblas().scipy_dpotrf_64_(b"U", n, a, n, info, 1)
    _check_info("dpotrf", info)
    return a


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with U^T U x = b over the Fortran-order b, for the factor of
    _cho_factor: LAPACK dpotrs, the call behind scipy.linalg.cho_solve."""
    if len(b) != len(factor):
        raise ValueError(f"{b.shape} right-hand sides for a {factor.shape} factor")
    n, nrhs, info = ctypes.c_int64(len(factor)), ctypes.c_int64(b.shape[1]), ctypes.c_int64()
    _numpy_openblas().scipy_dpotrs_64_(b"U", n, nrhs, factor, n, b, n, info, 1)
    _check_info("dpotrs", info)
    return b


def _cholesky_inverse(m: np.ndarray) -> np.ndarray:
    """M^-1 = cho_solve(cho_factor(M), I) for the Fortran-order M: the factor
    overwrites M and the solve a Fortran-order identity, so two matrices of
    M's size are held at once.  Numpy's bundled OpenBLAS runs it held at one
    thread: its blocked factorisation rounds differently at two threads, and
    every step reads the inverse, so output bytes would otherwise follow the
    thread count.  The previous count is restored afterwards.  With a numpy
    that links another BLAS, numpy.linalg builds it from the Cholesky factor
    L as L^-T L^-1, at whatever thread count that BLAS runs."""
    lib = _numpy_openblas()
    if lib is None:
        l_inv = np.linalg.inv(np.linalg.cholesky(m))
        return l_inv.T @ l_inv
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        return cho_solve(_cho_factor(m), np.eye(len(m), order="F"))
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def _implicit_matrix(spaces: SpectralSpaces, nu: float, eps: float, dt: float) -> np.ndarray:
    """M = I + dt nu A + (dt^2/eps) K in Fortran order, with the grad-div
    coupling K = D G D formed block by block: G is the identity on its
    diagonal blocks and kron(2C, 2C^T) and its transpose off them, so no
    dense Gram is needed.  Each entry is rounded as (I + dt nu A) +
    (dt^2/eps) (d_i G_ij d_j)."""
    n2, d, s = spaces.n_modes**2, spaces.div_diagonal, dt * dt / eps
    m = np.zeros((spaces.n_velocity,) * 2, order="F")
    np.fill_diagonal(m, (1.0 + dt * nu * spaces.stiffness) + s * (d * d))
    cross = spaces.gram_cross_block()
    for rows, cols, block in (
        (slice(None, n2), slice(n2, None), cross),
        (slice(n2, None), slice(None, n2), cross.T),
    ):
        k = d[rows, None] * block
        k *= d[None, cols]
        k *= s
        m[rows, cols] += k
    return m


def _implicit_inverse(spaces: SpectralSpaces, nu: float, eps: float, dt: float) -> np.ndarray:
    """Inverse of the implicit matrix M = I + dt nu A + (dt^2/eps) D G D.
    M is SPD and well conditioned (cond(M) about 1.1 to 24 over the shipped
    cutoffs and eps), so a step's solve is one product with M^-1."""
    try:
        return _cholesky_inverse(_implicit_matrix(spaces, nu, eps, dt))
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            "implicit system matrix is not positive definite; configuration is corrupt"
        ) from exc


def project_initial(spaces: SpectralSpaces, u_spec, p_spec) -> State:
    """L2 projection of initial data onto the cutoff space at t = 0.

    Specs are either a preset name or a list of mode entries
    (j, k, d, amplitude) for the velocity and (family, j, k, amplitude) for
    the pressure.  Entries beyond the cutoff are dropped (orthogonal
    projection for the velocity sine basis).
    """
    u = _resolve_velocity_spec(spaces, u_spec)
    p = _resolve_pressure_spec(spaces, p_spec)
    return State(u=u, p=p, t=0.0)


VELOCITY_PRESETS = {
    "zero": [],
    "low_mode": [(1, 1, 1, 1.0)],
    "smooth": [(1, 1, 1, 1.0), (2, 1, 2, 0.5), (1, 2, 1, -0.3), (2, 2, 2, 0.2)],
}

PRESSURE_PRESETS = {
    "zero": [],
    "low_mode": [("cs", 1, 1, 0.5)],
}


def _resolve_velocity_spec(spaces: SpectralSpaces, spec) -> VelocityField:
    if spec is None:
        return spaces.zero_velocity()
    if isinstance(spec, VelocityField):
        if spec.n_modes == spaces.n_modes:
            return spec
        modes = velocity_indices(spec.n_modes)
        return spaces.velocity_from_modes(
            (j, k, d, float(a)) for (j, k, d), a in zip(modes, spec.coeffs)
        )
    if isinstance(spec, str):
        try:
            return spaces.velocity_from_modes(VELOCITY_PRESETS[spec])
        except KeyError:
            raise ConfigurationError(f"unknown velocity preset {spec!r}") from None
    return spaces.velocity_from_modes(spec)


def _resolve_pressure_spec(spaces: SpectralSpaces, spec) -> PressureField:
    if spec is None:
        return spaces.zero_pressure()
    if isinstance(spec, PressureField):
        if spec.n_modes != spaces.n_modes:
            raise ConfigurationError("pressure spec cutoff mismatch")
        return spec
    if isinstance(spec, str):
        try:
            return spaces.pressure_from_modes(PRESSURE_PRESETS[spec])
        except KeyError:
            raise ConfigurationError(f"unknown pressure preset {spec!r}") from None
    return spaces.pressure_from_modes(spec)


class GalerkinIntegrator:
    """Steps the coupled velocity/pressure system along sample paths, a
    block of paths per step call."""

    def __init__(
        self,
        spaces: SpectralSpaces,
        config: SolverConfig,
        force: DeterministicForce | None = None,
        noise: NoiseModel | None = None,
        include_convection: bool = True,
    ):
        if config.n_modes != spaces.n_modes:
            raise ConfigurationError("config cutoff does not match the space")
        self.spaces = spaces
        self.config = config
        self.force = force or DeterministicForce(np.zeros(spaces.n_velocity))
        self.noise = noise if noise is not None else empty_noise(spaces)
        self.include_convection = include_convection
        self.quad_order = (
            spaces.default_quad_order if config.quad_order is None else config.quad_order
        )
        self._inverse = _implicit_inverse(spaces, config.nu, config.eps, config.dt)

    # -- one step of a block of paths -------------------------------------------

    def _block(self, u, p, t, rows) -> PathBlock:
        gram_p = np.empty_like(p)
        l2_u, l2_p = l2_norm(u), self.spaces.pressure_l2(p, gram_out=gram_p)
        eps = self.config.eps
        energy = [a**2 + eps * b**2 for a, b in zip(l2_u.tolist(), l2_p.tolist())]
        return PathBlock(u, p, t, rows, l2_u, h10_norm(u), l2_p, np.array(energy), gram_p)

    def _convection_dual(self, u, work: GridWorkspace | None = None) -> np.ndarray:
        if not self.include_convection:
            return np.zeros(self.spaces.n_velocity)
        from .operators import bhat_operator

        return bhat_operator(self.spaces, u, self.quad_order, work=work).pairings

    def step(self, state: PathBlock, inc: WienerIncrement, work: GridWorkspace | None = None):
        """One semi-implicit step of every path of a PathBlock, given the
        WienerIncrement with a row per path; returns the new block and the
        step's EnergyLedger, an entry per path.  Grid arrays go to ``work``,
        the block's GridWorkspace, when given."""
        cfg, sp, dt = self.config, self.spaces, self.config.dt
        u_m, p_m = state.u, state.p

        bhat = self._convection_dual(u_m, work)
        xi = noise_contribution(self.noise, inc)
        grad_dual_m = -sp.div_diagonal * state.gram_p  # sp.gradient_dual(p_m), from G p

        rhs = u_m - dt * grad_dual_m - dt * bhat + dt * self.force.coeffs + xi
        u_p = np.matmul(self._inverse, rhs[..., None])[..., 0]  # a gemv per row
        p_p = p_m - (dt / cfg.eps) * (sp.div_diagonal * u_p)
        new = self._block(u_p, p_p, state.t + dt, state.rows)

        change = new.energy - state.energy
        dissipation = 2.0 * cfg.nu * scalar_pow(new.h1_u, 2) * dt
        work = 2.0 * _rowdot(self.force.coeffs, u_p) * dt
        ito = np.full(len(u_p), self.noise.trace * dt)
        martingale = 2.0 * _rowdot(xi, u_m)
        residual = change + dissipation - work - ito - martingale
        return new, EnergyLedger(
            np.full(len(u_p), new.t), new.energy, change, dissipation, work, ito,
            martingale, residual, _rowdot(bhat, u_m),
        )

    # -- whole paths ---------------------------------------------------------------

    def run_path(self, initial, path_index=0, keep_history=False, observe=None):
        """Integrate from 0 to the horizon; bit-reproducible from
        (seed, path index).

        An int ``path_index`` runs one path: it returns its PathRecord or
        raises DivergedPathError.  A sequence of indices runs one block, a row
        per entry (``initial`` is a State, or one per row; rows may share an
        index and so its noise), and returns per row the record or the
        DivergedPathError that stopped that row alone.  ``observe(m, block)``
        sees the rows still running after each step m (and m = 0).  The
        block's grid workspace lives as long as this call; its increments are
        drawn by one sample_increment call per chunk of steps
        (NOISE_CHUNK_BYTES), for the rows running at the chunk's start.
        """
        cfg = self.config
        single = isinstance(path_index, (int, np.integer))
        paths = np.atleast_1d(np.asarray(path_index, dtype=int))
        inits = [initial] * len(paths) if isinstance(initial, State) else list(initial)
        u0 = np.array([s.u.coeffs for s in inits])
        p0 = np.array([s.p.coeffs for s in inits])
        block = self._block(u0, p0, inits[0].t, np.arange(len(paths)))
        times = np.zeros(cfg.n_steps + 1)
        runs = {name: np.zeros((cfg.n_steps + 1, len(paths))) for name in _RUN_ARRAYS}
        history = np.zeros((len(paths),) + times.shape + u0.shape[1:]) if keep_history else None
        errors = {}
        # l4_norm leaves the grid values of each new u and their squares in
        # the workspace, where the next step's convection finds them
        work = GridWorkspace()
        chunk = max(1, NOISE_CHUNK_BYTES // max(1, 8 * len(paths) * self.noise.n_terms))
        drawn = range(0)  # steps whose increments dw holds, for the rows drawn_rows

        def record(m, blk, ledger=None):
            times[m] = blk.t
            for name in ("l2_u", "h1_u", "l2_p", "energy"):
                runs[name][m, blk.rows] = getattr(blk, name)
            runs["l4_u"][m, blk.rows] = self.spaces.l4_norm(blk.u, self.quad_order, work=work)
            runs["l2_div_u"][m, blk.rows] = self.spaces.divergence_l2(blk.u)
            for name in _LEDGER_TERMS if ledger is not None else ():
                runs[name][m, blk.rows] = getattr(ledger, name)
            if history is not None:
                history[blk.rows, m] = blk.u

        record(0, block)
        if observe is not None:
            observe(0, block)
        for m in range(1, cfg.n_steps + 1):
            if not len(block.rows):
                break
            if m - 1 not in drawn:
                drawn, drawn_rows = range(m - 1, min(m - 1 + chunk, cfg.n_steps)), block.rows
                dw = sample_increment(self.noise, cfg.dt, (cfg.seed, paths[drawn_rows], drawn)).dw
            step_dw = dw[m - 1 - drawn.start]
            if len(block.rows) < len(drawn_rows):
                step_dw = step_dw[np.searchsorted(drawn_rows, block.rows)]
            inc = WienerIncrement(step_dw, cfg.dt, (cfg.seed, paths[block.rows], m - 1))
            block, ledger = self.step(block, inc, work)
            record(m, block, ledger)
            blown = ~(block.energy <= ENERGY_CAP)
            for r, e in zip(block.rows[blown], block.energy[blown]):
                errors[r] = DivergedPathError(m, float(e), int(paths[r]))
            block = block.take(~blown) if blown.any() else block
            if observe is not None:
                observe(m, block)

        runs = {name: np.ascontiguousarray(a.T) for name, a in runs.items()}
        out, n = [errors.get(r) for r in range(len(paths))], cfg.n_modes
        for r, u, p in zip(block.rows.tolist(), block.u, block.p):
            out[r] = PathRecord(
                times=times,
                **{name: runs[name][r] for name in PathRecord.SERIES},
                ledger=EnergyLedger(
                    times[1:], **{name: runs[name][r, 1:] for name in _LEDGER_TERMS}
                ),
                final_state=State(VelocityField(u, n), PressureField(p, n), block.t),
                seed=cfg.seed,
                path_index=int(paths[r]),
                coeff_history=None if history is None else history[r],
            )
        return completed(out)[0] if single else out

    def run_paths(
        self, initial: State, path_indices, workers: int = 1, keep_history=False, observe=None
    ):
        """run_path over many paths, split into ``workers`` contiguous parts on
        a thread each, run in blocks of at most BLOCK_PATHS; per path, in
        order, the record or DivergedPathError, whatever the split.
        ``observe`` goes to the block of the first path, which is its row 0."""
        paths = np.asarray(list(path_indices), dtype=int)

        def run_part(part, hook):
            blocks = np.array_split(part, -(-len(part) // BLOCK_PATHS))
            hooks = [hook] + [None] * (len(blocks) - 1)
            runs = (self.run_path(initial, b, keep_history, h) for b, h in zip(blocks, hooks))
            return [rec for recs in runs for rec in recs]

        parts = [p for p in np.array_split(paths, max(1, workers)) if len(p)]
        hooks = [observe] + [None] * (len(parts) - 1)
        if len(parts) <= 1:
            return [rec for p, h in zip(parts, hooks) for rec in run_part(p, h)]
        with ThreadPoolExecutor(max_workers=len(parts)) as ex:
            return [rec for recs in ex.map(run_part, parts, hooks) for rec in recs]


def completed(results: list) -> list[PathRecord]:
    """Block results as records; raises the first row's DivergedPathError."""
    for rec in results:
        if isinstance(rec, DivergedPathError):
            raise rec
    return results


def energy_residual(
    ledger: EnergyLedger,
    finer_ledger: EnergyLedger | None = None,
) -> tuple[float, float | None]:
    """Max absolute ledger residual, and the empirical order under
    dt-halving when a run at half the step is supplied."""
    max_abs = float(np.abs(ledger.residual).max(initial=0.0))
    slope = None
    if finer_ledger is not None:
        finer = float(np.abs(finer_ledger.residual).max(initial=0.0))
        if max_abs > 0 and finer > 0:
            slope = float(np.log2(max_abs / finer))
    return max_abs, slope


# -- binary snapshots -------------------------------------------------------------

SNAPSHOT_MAGIC = b"ACSN"
SNAPSHOT_VERSION = 1


def write_snapshot(path, state: State, manifest_digest: str = "0" * 64) -> None:
    """Little-endian layout: magic, u32 version, 64-byte hex digest,
    u32 cutoff, u32 velocity count, u32 pressure count, f64 time,
    velocity coefficients, pressure coefficients."""
    digest = manifest_digest.ljust(64, "0")[:64].encode("ascii")
    n = state.u.n_modes
    u = np.asarray(state.u.coeffs, dtype="<f8")
    p = np.asarray(state.p.coeffs, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(digest)
        fh.write(struct.pack("<III", n, u.shape[0], p.shape[0]))
        fh.write(struct.pack("<d", state.t))
        fh.write(u.tobytes())
        fh.write(p.tobytes())


def _read_field(fh, size: int, field: str) -> bytes:
    data = fh.read(size)
    if len(data) < size:
        raise ConfigurationError(
            f"truncated snapshot: {field} needs {size} bytes, {len(data)} left"
        )
    return data


def read_snapshot(path) -> tuple[State, str]:
    """The state and manifest digest of a write_snapshot file; a short field,
    trailing bytes or a bad header raise ConfigurationError naming them."""
    with open(path, "rb") as fh:
        magic = _read_field(fh, 4, "magic")
        if magic != SNAPSHOT_MAGIC:
            raise ConfigurationError(f"not a snapshot file: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_field(fh, 4, "version"))
        if version != SNAPSHOT_VERSION:
            raise ConfigurationError(f"unsupported snapshot version {version}")
        try:
            digest = _read_field(fh, 64, "digest").decode("ascii")
        except UnicodeDecodeError:
            raise ConfigurationError("snapshot digest is not ASCII") from None
        n, nu_len, np_len = struct.unpack("<III", _read_field(fh, 12, "counts"))
        (t,) = struct.unpack("<d", _read_field(fh, 8, "time"))
        u = np.frombuffer(_read_field(fh, 8 * nu_len, "velocity"), dtype="<f8").copy()
        p = np.frombuffer(_read_field(fh, 8 * np_len, "pressure"), dtype="<f8").copy()
        extra = len(fh.read())
        if extra:
            raise ConfigurationError(f"snapshot has {extra} trailing bytes after the pressure")
    state = State(u=VelocityField(u, n), p=PressureField(p, n), t=t)
    return state, digest


__all__ = [
    "BLOCK_PATHS",
    "DivergedPathError",
    "EnergyLedger",
    "GalerkinIntegrator",
    "PathBlock",
    "PathRecord",
    "SolverConfig",
    "State",
    "completed",
    "energy_residual",
    "project_initial",
    "read_snapshot",
    "write_snapshot",
]
