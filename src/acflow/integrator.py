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
import hashlib
import itertools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import operators
from .forcing import NoiseModel, empty_noise, noise_contribution, sample_increment
from .spaces import (
    HARD_MODE_CAP,
    ConfigurationError,
    GridWorkspace,
    SpectralSpaces,
    _rowdot,
    h10_norm,
    l4_reduce,
    scalar_pow,
)

ENERGY_CAP = 1e12
# Most paths one step call advances.  At N=8, blocks of up to 20 cost least
# per path-step over 12, 20, 50 and 200 paths (table in CHANGES.md); with the
# block's grid arrays in its GridWorkspace, no block size page-faults per step.
BLOCK_PATHS = 20
# Bytes a block holds for one chunk of steps, per row and step: the Wiener
# increments, noise sum, velocity, pressure, G p, plane u1^2 + u2^2 and
# pairings from which the chunk's norms, series and step terms are formed
# once it ends, the four norms and three velocity-sized temporaries.  A
# chunk's increments are one sample_increment call.
CHUNK_BYTES = 1 << 20


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
    seed: int = 12345

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigurationError("solver.nu must be positive")
        if self.eps <= 0:
            raise ConfigurationError("solver.eps must be positive")
        if self.delta <= 0:  # the weighted bounds divide by it
            raise ConfigurationError("solver.delta must be positive")
        if not 1 <= self.n_modes <= HARD_MODE_CAP:
            raise ConfigurationError(f"solver.n_modes must lie in [1, {HARD_MODE_CAP}], got {self.n_modes}")
        if self.dt <= 0:
            raise ConfigurationError("solver.dt must be positive")
        if self.horizon <= 0:
            raise ConfigurationError("solver.horizon must be positive")
        if self.dt > self.horizon:
            raise ConfigurationError("solver.dt must not exceed solver.horizon")
        if self.moment_p < 2:
            raise ConfigurationError("solver.moment_p must be at least 2")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError("solver.seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


@dataclass(frozen=True)
class State:
    u: np.ndarray  # (n_velocity,)
    p: np.ndarray  # (n_pressure,)
    t: float


@dataclass
class PathRecord:
    """Per-step time series of the rows of one run_path call: every array
    but ``times`` has a leading row axis, which ``take`` selects from; an
    int takes one path's 1-D record.  A row that blew up has the step in
    ``diverged_at`` (-1 for the other rows), and its series stop there.
    ``kept_u`` and ``kept_p`` hold the states of the steps run_path keeps,
    a slot each; a row's slots stay zero from its blow-up on.

    Step m's energy balance, from state m to m + 1, is

        residual[m + 1] = change + dissipation - work_increment[m]
                          - ito - martingale_increment[m]

    (residual[0] = 0), where the terms the series give are not stored:
    the change is ``np.diff(energy)``, the dissipation
    ``2 nu scalar_pow(h1_u[1:], 2) dt`` and the Ito term Tr(g^2) dt."""

    times: np.ndarray  # (n_steps + 1,)
    l2_u: np.ndarray  # (rows, n_steps + 1), as are the other SERIES
    h1_u: np.ndarray
    l4_u: np.ndarray
    l2_p: np.ndarray
    l2_div_u: np.ndarray
    energy: np.ndarray
    residual: np.ndarray
    work_increment: np.ndarray  # 2 (f, u_m+1) dt, (rows, n_steps) as are the other STEP_TERMS
    martingale_increment: np.ndarray  # 2 (xi_m, u_m), xi_m = sum_k g_k dW_k
    convection_pairing: np.ndarray  # (B(u_m), u_m), zero up to round-off
    u: np.ndarray  # last velocity coefficients, (rows, n_velocity)
    p: np.ndarray  # last pressure coefficients, (rows, n_pressure)
    kept_u: np.ndarray  # velocities at the kept steps, (rows, kept, n_velocity)
    kept_p: np.ndarray  # pressures at the kept steps, (rows, kept, n_pressure)
    paths: np.ndarray  # path index of each row
    diverged_at: np.ndarray  # step at which each row blew up, or -1

    SERIES = ("l2_u", "h1_u", "l4_u", "l2_p", "l2_div_u", "energy", "residual")
    STEP_TERMS = ("work_increment", "martingale_increment", "convection_pairing")
    CSV_COLUMNS = ("t",) + SERIES

    @classmethod
    def zeros(cls, times: np.ndarray, paths, n_velocity: int, n_pressure: int, kept: int = 0) -> "PathRecord":
        """Zero arrays with a row per entry of ``paths``, ``kept`` state slots each."""
        rows = len(paths)
        return cls(
            times,
            **{name: np.zeros((rows, len(times))) for name in cls.SERIES},
            **{name: np.zeros((rows, len(times) - 1)) for name in cls.STEP_TERMS},
            u=np.zeros((rows, n_velocity)),
            p=np.zeros((rows, n_pressure)),
            kept_u=np.zeros((rows, kept, n_velocity)),
            kept_p=np.zeros((rows, kept, n_pressure)),
            paths=np.asarray(paths),
            diverged_at=np.full(rows, -1),
        )

    def take(self, rows) -> "PathRecord":
        """The rows an int, slice, mask or index array selects."""
        names = self.SERIES + self.STEP_TERMS + ("u", "p", "kept_u", "kept_p", "paths", "diverged_at")
        return replace(self, **{name: getattr(self, name)[rows] for name in names})

    def raise_diverged(self) -> None:
        """Raise the DivergedPathError of the first row that blew up, if any
        did: its path, step and energy at that step."""
        blown = np.flatnonzero(self.diverged_at >= 0)
        if len(blown):
            r, m = blown[0], self.diverged_at[blown[0]]
            raise DivergedPathError(int(m), float(self.energy[r, m]), int(self.paths[r]))

    def csv_rows(self):
        """The CSV_COLUMNS rows of a one-path record, as lists of Python
        floats, converted a block of rows at a time so that no table of
        float objects is held."""
        columns = [self.times] + [getattr(self, name) for name in self.SERIES]
        for start in range(0, len(self.times), 256):
            yield from np.column_stack([c[start : start + 256] for c in columns]).tolist()


# what cho_solve calls in numpy's bundled OpenBLAS, built with 64-bit
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


def cho_solve(m: np.ndarray) -> np.ndarray:
    """M^-1 for the square Fortran-order SPD M, as scipy.linalg's
    cho_solve(cho_factor(M), I): LAPACK dpotrf overwrites M with its factor
    U^T U (uplo 'U'), then dpotrs solves against a Fortran-order identity, so
    two matrices of M's size are held at once; a nonzero info (a leading
    minor that is not positive) raises LinAlgError.  Numpy's bundled OpenBLAS
    runs both held at one thread: its blocked factorisation rounds
    differently at two threads, and every step reads the inverse, so output
    bytes would otherwise follow the thread count.  The previous count is
    restored afterwards.  With a numpy that links another BLAS, numpy.linalg
    builds it from the Cholesky factor L as L^-T L^-1, at whatever thread
    count that BLAS runs."""
    lib = _numpy_openblas()
    if lib is None:
        l_inv = np.linalg.inv(np.linalg.cholesky(m))
        return l_inv.T @ l_inv
    n, info = ctypes.c_int64(len(m)), ctypes.c_int64()
    eye = np.eye(len(m), order="F")
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        lib.scipy_dpotrf_64_(b"U", n, m, n, info, 1)
        if info.value == 0:
            lib.scipy_dpotrs_64_(b"U", n, n, m, n, eye, n, info, 1)
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK dpotrf/dpotrs failed with info = {info.value}")
    return eye


def _parity_classes(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The velocity indices of each parity class of the implicit matrix,
    (4, b, 1) with b = ceil(N^2 / 2), component 1's modes first, each in the
    enumeration's order; and each velocity index's position in the flattened
    classes.  C[a, a'] vanishes unless a + a' is odd, so the Gram couples
    component 1's (j, k) only with component 2's (j', k') where j + j' and
    k + k' are both odd, and M is block diagonal over the classes (pj, pk):
    component 1's modes of 0-based index parities (pj, pk) and component 2's
    of the opposite ones, in the order (0, 0), (0, 1), (1, 0), (1, 1).  At
    odd N two classes have b - 1 modes and end in a slot that reads index 0,
    which the block's zero coupling ignores.  Built from basic slices."""
    n = n_modes
    index = np.arange(2 * n * n).reshape(2, n, n)
    gather = np.zeros((4, (n * n + 1) // 2, 1), dtype=np.intp)
    scatter = np.empty_like(index)
    position = np.arange(gather.size).reshape(gather.shape[:2])
    for c, (pj, pk) in enumerate(itertools.product((0, 1), repeat=2)):
        one, two = index[0, pj::2, pk::2], index[1, 1 - pj :: 2, 1 - pk :: 2]
        n1, n2 = one.size, two.size
        gather[c, :n1, 0], gather[c, n1 : n1 + n2, 0] = one.ravel(), two.ravel()
        scatter[0, pj::2, pk::2] = position[c, :n1].reshape(one.shape)
        scatter[1, 1 - pj :: 2, 1 - pk :: 2] = position[c, n1 : n1 + n2].reshape(two.shape)
    return gather, scatter.ravel()


def _implicit_blocks(spaces: SpectralSpaces, nu: float, eps: float, dt: float):
    """The four parity blocks of M = I + dt nu A + (dt^2/eps) K, in the
    order of _parity_classes, as Fortran-order matrices.  The grad-div
    coupling K = D G D of a class is its cross part between the two
    components, from the slices of the Gram factors that hold that class's
    parities, kron(2C[pj::2, 1-pj::2], 2C^T[pk::2, 1-pk::2]), and its
    transpose; a padding slot has diagonal 1 and no coupling.  Each entry is
    rounded as (I + dt nu A) + (dt^2/eps) (d_i G_ij d_j)."""
    n, s, div = spaces.n_modes, dt * dt / eps, spaces.div_diagonal
    c, ct = spaces.gram_factors
    diagonal = ((1.0 + dt * nu * spaces.stiffness) + s * (div * div)).reshape(2, n, n)
    d = div.reshape(2, n, n)
    b = (n * n + 1) // 2
    for pj, pk in itertools.product((0, 1), repeat=2):
        d1, d2 = d[0, pj::2, pk::2].ravel(), d[1, 1 - pj :: 2, 1 - pk :: 2].ravel()
        n1, n2 = len(d1), len(d2)
        m = np.zeros((b, b), order="F")
        np.fill_diagonal(m, np.concatenate([
            diagonal[0, pj::2, pk::2].ravel(),
            diagonal[1, 1 - pj :: 2, 1 - pk :: 2].ravel(),
            np.ones(b - n1 - n2),
        ]))
        cross = np.kron(c[pj::2, 1 - pj :: 2], ct[pk::2, 1 - pk :: 2])
        one, two = slice(None, n1), slice(n1, n1 + n2)
        for rows, cols, block, left, right in ((one, two, cross, d1, d2), (two, one, cross.T, d2, d1)):
            k = left[:, None] * block
            k *= right[None, :]
            k *= s
            m[rows, cols] += k
        yield m


def _implicit_inverse(spaces: SpectralSpaces, nu: float, eps: float, dt: float) -> np.ndarray:
    """Inverses of the four parity blocks of the implicit matrix
    M = I + dt nu A + (dt^2/eps) D G D, stacked (4, b, b) in C order.  M is
    SPD and well conditioned (cond(M) about 1.1 to 24 over the shipped
    cutoffs and eps), so a step's solve is one product with each block's
    inverse.  A block is assembled and inverted at a time, so building holds
    two blocks besides the stack."""
    b = (spaces.n_modes**2 + 1) // 2
    inverse = np.empty((4, b, b))
    try:
        for c, m in enumerate(_implicit_blocks(spaces, nu, eps, dt)):
            inverse[c] = cho_solve(m)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            "implicit system matrix is not positive definite; configuration is corrupt"
        ) from exc
    return inverse


def project_initial(spaces: SpectralSpaces, u_spec, p_spec) -> State:
    """L2 projection of initial data onto the cutoff space at t = 0.

    Specs are either a preset name or a list of mode entries
    (j, k, d, amplitude) for the velocity and (family, j, k, amplitude) for
    the pressure.  Entries beyond the cutoff are dropped (orthogonal
    projection for the velocity sine basis).
    """
    u = spaces.velocity_from_modes(_mode_entries(u_spec, VELOCITY_PRESETS, "initial_u.preset"))
    p = spaces.pressure_from_modes(_mode_entries(p_spec, PRESSURE_PRESETS, "initial_p.preset"))
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


def _mode_entries(spec, presets: dict, key: str):
    """The mode entries of a spec: none for None, a preset's for its name
    (a ConfigurationError naming ``key`` for another name), else the spec."""
    if spec is None:
        return []
    if isinstance(spec, str):
        if spec not in presets:
            raise ConfigurationError(f"{key} must be one of {', '.join(presets)}, got {spec!r}")
        return presets[spec]
    return spec


def _check_coefficients(spaces: SpectralSpaces, name: str, field) -> None:
    """Refuse a field that is not one array of the cutoff's 2N^2 coefficients."""
    n = spaces.n_velocity
    if np.shape(field) != (n,):
        raise ConfigurationError(f"{name} must hold 2N^2 = {n} coefficients, got shape {np.shape(field)}")


# The chunk-buffer views that step k of a chunk reads and writes, made once
# per block: state k - 1's velocity (also as coefficient blocks, ``_c``),
# pressure and G p; step k's noise sum and pairings (also as blocks); state
# k's velocity (also as blocks), pressure (also as the Gram's swapped family
# blocks), G p and plane u1^2 + u2^2.
_Slot = namedtuple("_Slot", "u u_c p gram_p xi pairs pairs_c u_new u_new_c p_new p_new_swap gram_new plane")
# A block's buffers for what a step forms on the way, made once per block:
# its GridWorkspace, the right-hand side and a velocity-sized scratch array,
# the right-hand side gathered into class order (M, 4, b, 1) and the
# solutions, as that and as (M, 4 b), and the Gram product's first and
# second matmuls, (M, 2, N, N), the second also as (M, 2N^2).
_StepBuffers = namedtuple(
    "_StepBuffers", "work rhs scratch gathered solved solved_rows gram_left gram_cross gram_cross_rows"
)


class GalerkinIntegrator:
    """Steps the coupled velocity/pressure system along sample paths, a
    block of paths per step call."""

    def __init__(
        self,
        spaces: SpectralSpaces,
        config: SolverConfig,
        force: np.ndarray | None = None,
        noise: NoiseModel | None = None,
        include_convection: bool = True,
    ):
        if config.n_modes != spaces.n_modes:
            raise ConfigurationError("config cutoff does not match the space")
        self.spaces = spaces
        self.config = config
        self.force = np.zeros(spaces.n_velocity) if force is None else force
        _check_coefficients(spaces, "force", self.force)
        self.noise = noise if noise is not None else empty_noise(spaces)
        self.include_convection = include_convection
        # M^-1 as its four parity blocks, and where each velocity index sits
        # in the classes
        self._inverse_blocks = _implicit_inverse(spaces, config.nu, config.eps, config.dt)
        self._gather, self._scatter = _parity_classes(spaces.n_modes)
        # a step's constants: dt f and dt / eps
        self._dt_force = config.dt * self.force
        self._dt_eps = config.dt / config.eps

    # -- one step of a block of paths -------------------------------------------

    def _energy(self, l2_u, l2_p) -> np.ndarray:
        """|u|^2 + eps |p|^2 with the bits of Python floats' a**2 + eps * b**2;
        a norm is the square root of a double, so no a**2 overflows and raises."""
        return scalar_pow(l2_u, 2) + self.config.eps * scalar_pow(l2_p, 2)

    def step(self, slot: _Slot, buffers: _StepBuffers) -> None:
        """One semi-implicit step of a block of M paths, a row each, computing
        only what the next step reads, on the views and buffers its block
        made once: from the velocities ``slot.u``, the pressures ``slot.p``
        with G p in ``slot.gram_p`` and the noise sums xi = sum_k g_k dW_k in
        ``slot.xi``, writes the pairings (B(u), e_i) to ``slot.pairs`` and
        the new velocities, pressures, G p and planes u1^2 + u2^2 to
        ``slot.u_new``, ``slot.p_new``, ``slot.gram_new`` and
        ``slot.plane``.  ``buffers.work``, the block's GridWorkspace, holds
        the grid values of u, their squares and S^T C, then the new u's.
        Every call is a numpy kernel into a buffer; nothing is allocated."""
        u, u_c, p, gram_p, xi, pairs, pairs_c, u_new, u_new_c, p_new, p_new_swap, gram_new, plane = slot
        work, rhs, scratch, gathered, solved, solved_rows, gram_left, gram_cross, gram_cross_rows = buffers
        sp, g, dt = self.spaces, work.grid, self.config.dt
        div, factors = sp.div_diagonal, sp.gram_factors
        if self.include_convection:
            operators.bhat_operator(sp, u_c, work=work, out=pairs_c)
        else:
            pairs.fill(0.0)
        # u - dt grad_dual(p) - dt B(u) + dt f + xi, with grad_dual(p) = -D G p
        np.multiply(div, gram_p, out=rhs)
        np.multiply(dt, rhs, out=rhs)
        np.add(u, rhs, out=rhs)
        np.subtract(rhs, np.multiply(dt, pairs, out=scratch), out=rhs)
        np.add(rhs, self._dt_force, out=rhs)
        np.add(rhs, xi, out=rhs)
        rhs.take(self._gather, axis=-1, out=gathered, mode="clip")
        np.matmul(self._inverse_blocks, gathered, out=solved)  # a gemv per row and block
        solved_rows.take(self._scatter, axis=-1, out=u_new, mode="clip")
        np.multiply(div, u_new, out=scratch)
        np.subtract(p, np.multiply(self._dt_eps, scratch, out=scratch), out=p_new)
        # G p = p + L swap(P) L, as SpectralSpaces.gram_product forms it
        np.matmul(factors, p_new_swap, out=gram_left)
        np.matmul(gram_left, factors, out=gram_cross)
        np.add(p_new, gram_cross_rows, out=gram_new)
        # the new u's grid values, their squares and S^T C, as
        # SpectralSpaces._grid_values forms them, and the plane
        np.matmul(np.matmul(g.sin_t, u_new_c, out=work.half), g.sin2, out=work.values)
        np.multiply(work.values, work.values, out=work.squares)
        np.add(work.u1u1, work.u2u2, out=plane)

    # -- whole paths ---------------------------------------------------------------

    def run_path(self, initial, path_index=0, workers=1, keep_steps=()):
        """Integrate from 0 to the horizon; bit-reproducible from
        (seed, path index), whatever the blocks, threads and chunks of steps.

        An int ``path_index`` runs one path: it returns its 1-D PathRecord
        or raises DivergedPathError.  A sequence of indices runs a row per
        entry (``initial`` is a State, or one per row, all at one time; rows
        may share an index and so its noise) and returns one PathRecord of
        every row, blown-up rows included.  The rows are split into ``workers``
        contiguous parts on a thread each and run in blocks of at most
        BLOCK_PATHS rows, each writing its own rows of the record; when
        rows of a block blow up, the rows left start again as a new block
        from that step.  The states at the steps ``keep_steps``, distinct
        steps in [0, n_steps] in any order, go to the record's ``kept_u``
        and ``kept_p``, a slot per step in that order.
        """
        cfg, sp = self.config, self.spaces
        keep = {int(m): j for j, m in enumerate(keep_steps)}
        if len(keep) < len(keep_steps) or not all(0 <= m <= cfg.n_steps for m in keep):
            raise ValueError(f"keep_steps must be distinct steps in [0, {cfg.n_steps}]: {list(keep_steps)}")
        single = isinstance(path_index, (int, np.integer))
        paths = np.atleast_1d(np.asarray(path_index, dtype=int))
        inits = [initial] * len(paths) if isinstance(initial, State) else list(initial)
        starts = sorted({state.t for state in inits})
        if len(starts) > 1:
            raise ValueError(f"rows share one time grid, so one start time; got t = {starts}")
        # cumsum adds in order, so these are the bits of t = t + dt per step
        times = np.cumsum([inits[0].t] + [cfg.dt] * cfg.n_steps)
        record = PathRecord.zeros(times, paths, sp.n_velocity, sp.n_pressure, len(keep))
        for r, state in enumerate(inits):
            _check_coefficients(sp, "initial u", state.u)
            _check_coefficients(sp, "initial p", state.p)
            record.u[r], record.p[r] = state.u, state.p

        def run_part(part):
            for rows in np.array_split(part, -(-len(part) // BLOCK_PATHS)):
                m0 = 0
                while len(rows):
                    m0, rows = self._run_block(record, rows, m0, keep)

        parts = [p for p in np.array_split(np.arange(len(paths)), workers) if len(p)]
        if len(parts) > 1:
            with ThreadPoolExecutor(max_workers=len(parts)) as ex:
                list(ex.map(run_part, parts))
        else:
            list(map(run_part, parts))
        if single:
            record.raise_diverged()
            return record.take(0)
        return record

    def _run_block(self, record: PathRecord, rows: np.ndarray, m0: int, keep: dict):
        """Step the rows ``rows`` of ``record`` together from the coefficients
        in its ``u`` and ``p`` at step m0 until the horizon or a blow-up,
        writing their series, step terms and last coefficients in place.
        Steps run in chunks of CHUNK_BYTES.  The block makes everything a
        step touches once: the chunk buffers, the _Slot of views for each
        step of a chunk and the _StepBuffers, so a step runs only its numpy
        kernels.  One sample_increment call and one noise_contribution call
        into the noise-sum buffer give a chunk's noise sums, each step
        writes what the next reads to its slot, and the chunk's norms,
        series and step terms are then formed at once.  The first step at
        which a row's energy is not within ENERGY_CAP, the start too, ends
        the block there, in the row's ``diverged_at``; the chunk's later
        steps are dropped.  The state at a step of ``keep`` (step: slot)
        goes to the rows' ``kept_u`` and ``kept_p`` slots at m0 and after
        each step before a blow-up.  Returns the step reached and the rows
        left to run from it: none at the horizon, else the rows that did
        not blow up."""
        cfg, sp, dt = self.config, self.spaces, self.config.dt
        n_v, n_p, m, r = sp.n_velocity, sp.n_pressure, sp.midpoint.order, len(rows)
        size = CHUNK_BYTES // (8 * r * (6 * n_v + 2 * n_p + m * m + self.noise.n_terms + 4))
        size = max(1, min(size, cfg.n_steps - m0))
        # a state's velocity, pressure and G p, a step's noise sums,
        # pairings and the plane u1^2 + u2^2 of its velocity, and |u|, |p|,
        # energy and L4 norm
        u, p, gram_p = (np.empty((size + 1, r, k)) for k in (n_v, n_p, n_p))
        xis, bhat = (np.empty((size, r, n_v)) for _ in range(2))
        planes, norms = np.empty((size, r, m, m)), np.empty((4, size + 1, r))
        # each step's _Slot of views into these, and the _StepBuffers
        blocks = (r, 2, sp.n_modes, sp.n_modes)
        us, u_cs, ps, swaps, grams = map(list, (
            u, u.reshape((size + 1,) + blocks), p, p.reshape((size + 1,) + blocks)[:, :, ::-1], gram_p
        ))
        slots = list(map(_Slot, us[:-1], u_cs[:-1], ps[:-1], grams[:-1], xis, bhat,
                         bhat.reshape((size,) + blocks), us[1:], u_cs[1:], ps[1:], swaps[1:], grams[1:], planes))
        solved, gram_cross = np.empty((r,) + self._gather.shape), np.empty(blocks)
        buffers = _StepBuffers(
            GridWorkspace(sp.midpoint, (r,)), np.empty((r, n_v)), np.empty((r, n_v)), np.empty_like(solved),
            solved, solved.reshape(r, -1), np.empty(blocks), gram_cross, gram_cross.reshape(r, -1),
        )
        # l4_norm leaves the grid values of u[0], their squares and S^T C in
        # the workspace, where the first step's convection reads them
        u[0], p[0] = record.u[rows], record.p[rows]
        l2 = np.sqrt(_rowdot(u[0], u[0])), sp.pressure_l2(p[0], gram_out=gram_p[0])
        norms[:, 0] = *l2, self._energy(*l2), sp.l4_norm(u[0], work=buffers.work)
        blown = ~(norms[2, 0] <= ENERGY_CAP)
        if blown.any():  # a start above the cap: write state m0, take no step
            self._write_chunk(record, rows, m0, 0, u, bhat, bhat, norms)
        elif m0 in keep:
            record.kept_u[rows, keep[m0]], record.kept_p[rows, keep[m0]] = u[0], p[0]
        step = self.step
        while m0 < cfg.n_steps and not blown.any():
            steps = range(m0, min(m0 + size, cfg.n_steps))
            dw = sample_increment(self.noise, dt, (cfg.seed, record.paths[rows], steps))
            noise_contribution(self.noise, dw, out=xis[: len(steps)])
            states = slice(1, len(steps) + 1)
            # steps after a blow-up may overflow to inf and NaN; they are dropped
            with np.errstate(over="ignore", invalid="ignore"):
                for slot in slots[: len(steps)]:
                    step(slot, buffers)
                l2 = np.sqrt([_rowdot(u[states], u[states]),
                              np.maximum(_rowdot(p[states], gram_p[states]), 0.0)])
                norms[:, states] = *l2, self._energy(*l2), l4_reduce(planes[: len(steps)], m)
            capped = (norms[2, states] <= ENERGY_CAP).all(axis=1)
            k = len(steps) if capped.all() else int(np.argmin(capped)) + 1
            for j in range(1, k + 1 if capped.all() else k):
                if m0 + j in keep:
                    record.kept_u[rows, keep[m0 + j]], record.kept_p[rows, keep[m0 + j]] = u[j], p[j]
            self._write_chunk(record, rows, m0, k, u, bhat, xis, norms)
            m0 += k
            u[0], p[0], gram_p[0], norms[:, 0] = u[k], p[k], gram_p[k], norms[:, k]
            blown = ~(norms[2, 0] <= ENERGY_CAP)
        record.u[rows], record.p[rows] = u[0], p[0]
        record.diverged_at[rows[blown]] = m0
        return m0, rows[~blown] if blown.any() else rows[:0]

    def _write_chunk(self, record, rows, m0, n, u, bhat, xi, norms) -> None:
        """Write the states and steps of a chunk of the rows ``rows`` that
        started at step m0 and ran n steps: ``u`` and ``norms`` hold the
        states m0..m0+n, ``bhat`` and ``xi`` the steps.  State m0 was
        written by the chunk before, except at step 0.  Stacked (steps, rows)
        products make a BLAS call per row and step, so each value has the
        bits of its own row's computation."""
        cfg, sp, dt = self.config, self.spaces, self.config.dt
        first = 0 if m0 == 0 else 1
        states = slice(first, n + 1)
        h1_u, cols = h10_norm(u[states]), slice(m0 + first, m0 + n + 1)
        names = ("l2_u", "l2_p", "energy", "l4_u", "h1_u", "l2_div_u")
        for name, values in zip(names, (*norms[:, states], h1_u, sp.divergence_l2(u[states]))):
            getattr(record, name)[rows, cols] = values.T

        u_m, u_p, energy = u[:n], u[1 : n + 1], norms[2, : n + 1]
        change = energy[1:] - energy[:-1]
        dissipation = 2.0 * cfg.nu * scalar_pow(h1_u[1 - first :], 2) * dt
        work = 2.0 * _rowdot(self.force, u_p) * dt
        martingale = 2.0 * _rowdot(xi[:n], u_m)
        residual = change + dissipation - work - self.noise.trace * dt - martingale
        record.residual[rows, m0 + 1 : m0 + n + 1] = residual.T
        record.work_increment[rows, m0 : m0 + n] = work.T
        record.martingale_increment[rows, m0 : m0 + n] = martingale.T
        record.convection_pairing[rows, m0 : m0 + n] = _rowdot(bhat[:n], u_m).T


# -- binary snapshots -------------------------------------------------------------

SNAPSHOT_MAGIC = b"ACSN"
SNAPSHOT_VERSION = 1


def write_snapshot(path, state: State, manifest_digest: str = "0" * 64) -> str:
    """Little-endian layout: magic, u32 version, 64-byte hex digest,
    u32 cutoff, u32 velocity count, u32 pressure count, f64 time,
    velocity coefficients, pressure coefficients; the cutoff N is the one
    whose 2N^2 coefficients the velocity has.  Returns the file's sha256."""
    digest = manifest_digest.ljust(64, "0")[:64].encode("ascii")
    u = np.asarray(state.u, dtype="<f8")
    p = np.asarray(state.p, dtype="<f8")
    data = b"".join((
        SNAPSHOT_MAGIC,
        struct.pack("<I", SNAPSHOT_VERSION),
        digest,
        struct.pack("<III", math.isqrt(len(u) // 2), len(u), len(p)),
        struct.pack("<d", state.t),
        u.tobytes(),
        p.tobytes(),
    ))
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _read_field(fh, size: int, field: str) -> bytes:
    data = fh.read(size)
    if len(data) < size:
        raise ConfigurationError(
            f"truncated snapshot: {field} needs {size} bytes, {len(data)} left"
        )
    return data


def read_snapshot(path) -> tuple[State, str]:
    """The state and manifest digest of a write_snapshot file; a short field,
    trailing bytes or a bad header raise ConfigurationError naming them.  The
    header must give a cutoff N in [1, HARD_MODE_CAP] and 2N^2 coefficients
    for each field, checked before the arrays are read."""
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
        if not 1 <= n <= HARD_MODE_CAP:
            raise ConfigurationError(f"snapshot cutoff {n} lies outside [1, {HARD_MODE_CAP}]")
        for field, count in (("velocity", nu_len), ("pressure", np_len)):
            if count != 2 * n * n:
                raise ConfigurationError(
                    f"snapshot {field} count {count} is not 2 N^2 = {2 * n * n} at cutoff {n}"
                )
        (t,) = struct.unpack("<d", _read_field(fh, 8, "time"))
        u = np.frombuffer(_read_field(fh, 8 * nu_len, "velocity"), dtype="<f8").copy()
        p = np.frombuffer(_read_field(fh, 8 * np_len, "pressure"), dtype="<f8").copy()
        extra = len(fh.read())
        if extra:
            raise ConfigurationError(f"snapshot has {extra} trailing bytes after the pressure")
    return State(u=u, p=p, t=t), digest


__all__ = [
    "BLOCK_PATHS",
    "DivergedPathError",
    "GalerkinIntegrator",
    "PathRecord",
    "SolverConfig",
    "State",
    "project_initial",
    "read_snapshot",
    "write_snapshot",
]
