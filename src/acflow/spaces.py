"""Discrete velocity and pressure spaces on the unit square.

Velocity fields live in the span of the L2-orthonormal vector sine modes

    e_{j,k,d}(x, y) = 2 sin(j pi x) sin(k pi y) e_d,    1 <= j, k <= N,

which vanish on the boundary.  Pressure fields live in the span of the two
trigonometric families

    psi_cs(j,k) = 2 cos(j pi x) sin(k pi y),
    psi_sc(j,k) = 2 sin(j pi x) cos(k pi y),

which together contain the divergence of every velocity field exactly.  The
two pressure families are not mutually orthogonal, so pressure inner products
go through their Gram matrix, which :class:`SpectralSpaces` applies in
Kronecker form (:meth:`SpectralSpaces.gram_product`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

HARD_MODE_CAP = 64


class ConfigurationError(ValueError):
    """Invalid cutoff, step size or other solver configuration."""


class VelocityIndex(NamedTuple):
    j: int
    k: int
    d: int  # component, 1 or 2


class PressureIndex(NamedTuple):
    family: str  # "cs" (cos*sin) or "sc" (sin*cos)
    j: int
    k: int


@dataclass(frozen=True)
class VelocityField:
    """Coefficient vector over the orthonormal vector sine basis."""

    coeffs: np.ndarray
    n_modes: int

    def __post_init__(self):
        expected = 2 * self.n_modes * self.n_modes
        if self.coeffs.shape != (expected,):
            raise ConfigurationError(
                f"velocity coefficient vector must have length {expected}, "
                f"got {self.coeffs.shape}"
            )


@dataclass(frozen=True)
class PressureField:
    """Coefficient vector over the cos*sin / sin*cos pressure families."""

    coeffs: np.ndarray
    n_modes: int

    def __post_init__(self):
        expected = 2 * self.n_modes * self.n_modes
        if self.coeffs.shape != (expected,):
            raise ConfigurationError(
                f"pressure coefficient vector must have length {expected}, "
                f"got {self.coeffs.shape}"
            )


def velocity_indices(n_modes: int) -> list[VelocityIndex]:
    """Deterministic velocity enumeration: d, then j, then k, row-major."""
    return [
        VelocityIndex(j, k, d)
        for d in (1, 2)
        for j in range(1, n_modes + 1)
        for k in range(1, n_modes + 1)
    ]


def pressure_indices(n_modes: int) -> list[PressureIndex]:
    """Deterministic pressure enumeration: cs family first, then sc."""
    return [
        PressureIndex(fam, j, k)
        for fam in ("cs", "sc")
        for j in range(1, n_modes + 1)
        for k in range(1, n_modes + 1)
    ]


# Norms take a field or an (M, n) block of rows, one per path, and give a float
# or one value per row, bit-identical to the row's own: stacked matmuls make a
# BLAS call per row, while one GEMM or einsum over all rows rounds differently.


def _coeffs(x) -> np.ndarray:
    return x.coeffs if isinstance(x, (VelocityField, PressureField)) else np.asarray(x)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one per leading index."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _per_row(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def scalar_pow(values: np.ndarray, exponent: float):
    """values ** exponent through C pow(), entry by entry, as a scalar takes
    it; array ``**`` and np.power round differently (x ** 2 is x * x)."""
    if np.ndim(values) == 0:
        return float(values) ** exponent
    flat = [v**exponent for v in np.ravel(values).tolist()]
    return np.array(flat).reshape(np.shape(values))


def l2_norm(u) -> float | np.ndarray:
    """L2 norm; equals the Euclidean coefficient norm (Parseval)."""
    c = _coeffs(u)
    return _per_row(np.sqrt(_rowdot(c, c)))


def h10_norm(u) -> float | np.ndarray:
    """H1_0 seminorm; the stiffness form is diagonal on the sine basis."""
    c = _coeffs(u)
    stiffness = _stiffness_diagonal(int(round(np.sqrt(c.shape[-1] // 2))))
    return _per_row(np.sqrt(_rowdot(stiffness, c * c)))


def _stiffness_diagonal(n_modes: int) -> np.ndarray:
    return _stiffness_diagonal_cached(int(n_modes))


@lru_cache(maxsize=None)
def _stiffness_diagonal_cached(n_modes: int) -> np.ndarray:
    j = np.arange(1, n_modes + 1, dtype=float)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    lam = (np.pi**2) * (jj**2 + kk**2)
    return np.concatenate([lam.ravel(), lam.ravel()])


def gauss_rule_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    t, w = np.polynomial.legendre.leggauss(order)
    return (t + 1.0) / 2.0, w / 2.0


def _cos_sin_integrals(n_modes: int) -> np.ndarray:
    """Matrix of integrals C[a-1, b-1] = int_0^1 cos(a pi x) sin(b pi x) dx."""
    a = np.arange(1, n_modes + 1, dtype=float)
    A, B = np.meshgrid(a, a, indexing="ij")
    odd = ((A + B) % 2) == 1
    out = np.zeros((n_modes, n_modes))
    out[odd] = 2.0 * B[odd] / (np.pi * (B[odd] ** 2 - A[odd] ** 2))
    return out


class _SynthGrid:
    """Tensor Gauss-Legendre grid with cached 1-D tables, indexed [mode,
    node], that carry every per-grid constant of the transforms:

    sin, dcos     left factors of a synthesis: values and y-derivatives,
                  and x-derivatives, with their j pi;
    sin2, dcos2   right factors of a synthesis: the basis' factor 2, and
                  j pi for a y-derivative (2 dcos, exact);
    sin_w, dcos_w the adjoint's factors sin w and j pi cos w: the
                  convection's weight 0.5 w_x w_y times the basis' 2 is
                  w_x w_y, one w on each side.

    Scaling by 2 is exact, so x @ (2 t) has the bits of 2 (x @ t)."""

    def __init__(self, n_modes: int, order: int):
        self.order = order
        self.x, self.w = gauss_rule_01(order)
        j = np.arange(1, n_modes + 1, dtype=float)
        self.sin = np.sin(np.outer(j, np.pi * self.x))
        self.dcos = (np.pi * j)[:, None] * np.cos(np.outer(j, np.pi * self.x))
        self.sin2 = 2.0 * self.sin
        self.dcos2 = 2.0 * self.dcos
        self.sin_w = self.sin * self.w
        self.dcos_w = self.dcos * self.w
        self.w2d = np.outer(self.w, self.w)


class GridWorkspace:
    """Grid-sized arrays of one path block, allocated on first use and reused
    by every later step: a block's fresh grid temporaries page-fault anew on
    every step.  Owned by the block, never shared between threads; a block
    that lost rows uses leading slices.  The grid values of the coefficient
    rows last synthesised are kept for a later call on the same array, which
    must not have changed in between.  So are the squares u1 u1 and u2 u2 of
    those values once the L4 norm or a convection has formed them: they sit
    in two of the three product planes (u1 u1, u1 u2, u2 u2), which no
    caller writes to, and are dropped with the values."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self.held = None  # (coefficient rows, grid, their values on the grid)
        self.squares_held = False  # the "planes" array holds their squares

    def array(self, name: str, shape: tuple) -> np.ndarray:
        """Uninitialised (shape[0], ...) leading slice of the named array; its
        contents last until the next call for the same name."""
        a = self._arrays.get(name)
        if a is None or a.shape[1:] != shape[1:] or len(a) < shape[0]:
            a = self._arrays[name] = np.empty(shape)
        return a[: shape[0]]


def _buffer(work: GridWorkspace | None, name: str, shape: tuple) -> np.ndarray:
    return np.empty(shape) if work is None else work.array(name, shape)


class SpectralSpaces:
    """Velocity/pressure enumerations, Gram data and coefficient operators
    for a fixed mode cutoff.  Immutable after construction and safe to share
    across concurrent path simulations.
    """

    def __init__(self, n_modes: int, hard_cap: int = HARD_MODE_CAP):
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
            raise ConfigurationError("mode cutoff must be a positive integer")
        if n_modes > hard_cap:
            raise ConfigurationError(
                f"mode cutoff {n_modes} exceeds the hard cap {hard_cap}"
            )
        self.n_modes = int(n_modes)
        self.n_velocity = 2 * self.n_modes**2
        self.n_pressure = 2 * self.n_modes**2
        self.velocity_enumeration = velocity_indices(self.n_modes)
        self.pressure_enumeration = pressure_indices(self.n_modes)
        self.stiffness = _stiffness_diagonal(self.n_modes)

        # Divergence coefficient map is diagonal in these enumerations:
        # mode (j,k,1) -> j*pi on cs(j,k); mode (j,k,2) -> k*pi on sc(j,k).
        j = np.arange(1, self.n_modes + 1, dtype=float)
        jj, kk = np.meshgrid(j, j, indexing="ij")
        self.div_diagonal = np.concatenate(
            [(np.pi * jj).ravel(), (np.pi * kk).ravel()]
        )

        # Off-diagonal Gram blocks kron(2C, 2C^T) and its transpose, as the
        # factor pair L = (2C, 2C^T) of gram_product; no dense Gram is kept
        c = 2.0 * _cos_sin_integrals(self.n_modes)
        self._gram_factors = np.stack([c, c.T])

        self._grids: dict[int, _SynthGrid] = {}
        self._grid_lock = threading.Lock()

    # -- construction helpers -------------------------------------------------

    def gram_cross_block(self) -> np.ndarray:
        """The (cs, sc) block of the pressure Gram, kron(2C, 2C^T), dense:
        <psi_cs(j,k), psi_sc(j',k')> = 4 C[j,j'] C[k',k].  The (sc, cs)
        block is its transpose and both diagonal blocks are the identity."""
        return np.kron(*self._gram_factors)

    def grid(self, order: int) -> _SynthGrid:
        with self._grid_lock:
            g = self._grids.get(order)
            if g is None:
                g = _SynthGrid(self.n_modes, order)
                self._grids[order] = g
        return g

    @property
    def default_quad_order(self) -> int:
        return 4 * self.n_modes + 8

    # -- index maps ------------------------------------------------------------

    def velocity_index(self, j: int, k: int, d: int) -> int:
        n = self.n_modes
        if not (1 <= j <= n and 1 <= k <= n and d in (1, 2)):
            raise ConfigurationError(f"velocity mode ({j},{k},{d}) out of range")
        return (d - 1) * n * n + (j - 1) * n + (k - 1)

    def pressure_index(self, family: str, j: int, k: int) -> int:
        n = self.n_modes
        if family not in ("cs", "sc") or not (1 <= j <= n and 1 <= k <= n):
            raise ConfigurationError(f"pressure mode ({family},{j},{k}) out of range")
        fam = 0 if family == "cs" else 1
        return fam * n * n + (j - 1) * n + (k - 1)

    # -- field constructors -----------------------------------------------------

    def zero_velocity(self) -> VelocityField:
        return VelocityField(np.zeros(self.n_velocity), self.n_modes)

    def zero_pressure(self) -> PressureField:
        return PressureField(np.zeros(self.n_pressure), self.n_modes)

    def velocity_from_modes(
        self, entries: Iterable[tuple[int, int, int, float]]
    ) -> VelocityField:
        """Build a field from (j, k, d, amplitude) entries.

        Entries outside the cutoff are dropped, which realises the exact
        L2 projection onto the span.
        """
        coeffs = np.zeros(self.n_velocity)
        for j, k, d, amp in entries:
            if d not in (1, 2):
                raise ConfigurationError(f"velocity component must be 1 or 2, got {d}")
            if 1 <= j <= self.n_modes and 1 <= k <= self.n_modes:
                coeffs[self.velocity_index(j, k, d)] += amp
        return VelocityField(coeffs, self.n_modes)

    def pressure_from_modes(
        self, entries: Iterable[tuple[str, int, int, float]]
    ) -> PressureField:
        coeffs = np.zeros(self.n_pressure)
        for fam, j, k, amp in entries:
            if fam not in ("cs", "sc"):
                raise ConfigurationError(f"pressure family must be cs or sc, got {fam}")
            if 1 <= j <= self.n_modes and 1 <= k <= self.n_modes:
                coeffs[self.pressure_index(fam, j, k)] += amp
        return PressureField(coeffs, self.n_modes)

    # -- norms and pairings ------------------------------------------------------

    def gram_product(self, p, out: np.ndarray | None = None) -> np.ndarray:
        """G p for a coefficient vector or rows of them, into ``out`` when
        given.  With P the (..., 2, N, N) coefficient blocks and L the factor
        pair (2C, 2C^T), G p = p + L swap(P) L: two stacked N x N matmuls, a
        BLAS call per matrix, so O(N^3) per row against the dense O(N^4)."""
        c = _coeffs(p)
        blocks = self._coeff_blocks(c)[..., ::-1, :, :]
        cross = np.matmul(np.matmul(self._gram_factors, blocks), self._gram_factors)
        return np.add(c, cross.reshape(c.shape), out=out)

    def pressure_l2(self, p, gram_out: np.ndarray | None = None) -> float | np.ndarray:
        """L2 norm through the Gram; G p goes to ``gram_out`` when given."""
        c = _coeffs(p)
        q = self.gram_product(c, out=gram_out)
        return _per_row(np.sqrt(np.maximum(_rowdot(c, q), 0.0)))

    def l4_norm(
        self, u, quad_order: int | None = None, work: GridWorkspace | None = None
    ) -> float | np.ndarray:
        """L4 norm of the vector field by tensor Gauss-Legendre quadrature;
        with a workspace, the grid values of u and their squares stay held
        in it."""
        if quad_order is None:
            quad_order = self.default_quad_order
        if quad_order < 4 * self.n_modes:
            raise ConfigurationError(
                f"quad_order {quad_order} too small; need at least {4 * self.n_modes}"
            )
        g = self.grid(quad_order)
        planes = self._product_planes(u, g, work)
        mag2 = _buffer(work, "mag2", planes.shape[:-3] + planes.shape[-2:])
        np.add(planes[..., 0, :, :], planes[..., 2, :, :], out=mag2)
        mag2 *= mag2
        mag2 *= g.w2d
        return scalar_pow(np.sum(mag2, axis=(-2, -1)), 0.25)

    def component_l4_norm(
        self, u: VelocityField, d: int, quad_order: int | None = None
    ) -> float:
        """L4 norm of a single scalar component."""
        if quad_order is None:
            quad_order = self.default_quad_order
        g = self.grid(quad_order)
        vals = self._component_values(u, g)[d - 1]
        return float(np.sum(vals**4 * g.w2d) ** 0.25)

    def divergence(self, u: VelocityField) -> PressureField:
        """Exact coefficient map onto the pressure basis."""
        return PressureField(self.div_diagonal * u.coeffs, self.n_modes)

    def divergence_l2(self, u) -> float | np.ndarray:
        return self.pressure_l2(self.div_diagonal * _coeffs(u))

    def gradient_dual(self, p) -> np.ndarray:
        """Pairings <grad p, e_i> for every velocity basis function.

        Computed through the duality <grad p, w> = -<p, Div w>; the pressure
        field itself is never differentiated.
        """
        return -self.div_diagonal * self.gram_product(p)

    # -- synthesis ----------------------------------------------------------------

    def _coeff_blocks(self, u) -> np.ndarray:
        """Coefficients as (..., 2, N, N) blocks: velocity components, or the
        cs and sc pressure families."""
        n = self.n_modes
        c = _coeffs(u)
        return c.reshape(c.shape[:-1] + (2, n, n))

    def _synthesize(self, left, c, right2, g: _SynthGrid, work, name) -> np.ndarray:
        """left.T @ c @ right2 over the coefficient blocks c, into the
        workspace's ``name`` array when one is given; ``left`` and
        ``right2`` are tables of the grid, so the basis' factor 2 and the
        derivative factors cost no pass."""
        rows = c.shape[:-2]
        half = np.matmul(left.T, c, out=_buffer(work, "half", rows + (g.order, self.n_modes)))
        return np.matmul(half, right2, out=_buffer(work, name, rows + (g.order, g.order)))

    def _component_values(self, u, g: _SynthGrid, work: GridWorkspace | None = None) -> np.ndarray:
        """Values of both components on the tensor grid, shape (..., 2, Q, Q).
        A workspace holds them, and hands them back for the same rows."""
        held = None if work is None else work.held
        if held is not None and held[0] is u and held[1] is g:
            return held[2]
        vals = self._synthesize(g.sin, self._coeff_blocks(u), g.sin2, g, work, "values")
        if work is not None:
            work.held, work.squares_held = (u, g, vals), False
        return vals

    def _product_planes(self, u, g: _SynthGrid, work: GridWorkspace | None = None, cross=False):
        """Pointwise products of the grid values of u in (..., 3, Q, Q)
        planes u1 u1, u1 u2, u2 u2, the middle one formed only with
        ``cross``.  A workspace holds the squares with the values, and hands
        them back for the same rows; callers only read the planes."""
        vals = self._component_values(u, g, work)
        planes = _buffer(work, "planes", vals.shape[:-3] + (3,) + vals.shape[-2:])
        if work is None or not work.squares_held:
            np.multiply(vals, vals, out=planes[..., ::2, :, :])
        if cross:  # u2 u1 is u1 u2 bit for bit
            np.multiply(vals[..., 0, :, :], vals[..., 1, :, :], out=planes[..., 1, :, :])
        if work is not None:
            work.squares_held = True
        return planes

    def _component_gradients(
        self, u, g: _SynthGrid, work: GridWorkspace | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial derivatives (d_1 u, d_2 u) on the grid, each of shape
        (..., 2, Q, Q): [i][..., d] = d_i u_d."""
        c = self._coeff_blocks(u)
        d1 = self._synthesize(g.dcos, c, g.sin2, g, work, "d1")
        d2 = self._synthesize(g.sin, c, g.dcos2, g, work, "d2")
        return d1, d2


def build_spaces(n_modes: int) -> SpectralSpaces:
    """Construct the velocity/pressure enumerations and the pressure Gram's
    Kronecker factors.

    The returned object carries ``velocity_enumeration`` and
    ``pressure_enumeration`` together with the coefficient-space operators
    built on them.
    """
    return SpectralSpaces(n_modes)
