"""Discrete velocity and pressure spaces on the unit square.

A field is its float64 coefficient array over a basis below: (n,) for one
field, (rows, n) for a block of them, n = 2N^2 for the velocity and for the
pressure.  Velocity fields live in the span of the L2-orthonormal vector
sine modes

    e_{j,k,d}(x, y) = 2 sin(j pi x) sin(k pi y) e_d,    1 <= j, k <= N,

which vanish on the boundary.  Pressure fields live in the span of the two
trigonometric families

    psi_cs(j,k) = 2 cos(j pi x) sin(k pi y),
    psi_sc(j,k) = 2 sin(j pi x) cos(k pi y),

which together contain the divergence of every velocity field exactly.  The
two pressure families are not mutually orthogonal, so pressure inner products
go through their Gram matrix, which :class:`SpectralSpaces` applies in
Kronecker form (:meth:`SpectralSpaces.gram_product`).

A step's grid work, the L4 norm and the convection pairings, runs on the
M = 2N + 1 midpoint nodes per axis of :class:`_MidpointGrid`, on which both
are exact up to round-off; a check that needs other nodes synthesises on a
:class:`_SynthGrid` of its own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

HARD_MODE_CAP = 64


class ConfigurationError(ValueError):
    """Invalid cutoff, step size or other solver configuration."""


# Norms take one field or an (M, n) block of rows, one per path, and give a
# np.float64 or one value per row, bit-identical to the row's own: stacked
# matmuls make a BLAS call per row, while one GEMM or einsum over all rows
# rounds differently.


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one per leading index."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def scalar_pow(values: np.ndarray, exponent: float):
    """values ** exponent through C pow(), entry by entry, as a scalar takes
    it; array ``**`` and np.power round differently (x ** 2 is x * x)."""
    if values.ndim == 0:
        return float(values) ** exponent
    return np.array([v**exponent for v in values.ravel().tolist()]).reshape(values.shape)


def l4_reduce(mag2: np.ndarray, order: int) -> np.ndarray:
    """L4 norms of the planes u1^2 + u2^2 (..., M, M) of the order^2
    midpoint grid, each with its own bits; squares the planes in place."""
    mag2 *= mag2
    return scalar_pow(np.sum(mag2, axis=(-2, -1)) / order**2, 0.25)


def l2_norm(u: np.ndarray) -> np.float64 | np.ndarray:
    """L2 norm; equals the Euclidean coefficient norm (Parseval)."""
    return np.sqrt(_rowdot(u, u))


def h10_norm(u: np.ndarray) -> np.float64 | np.ndarray:
    """H1_0 seminorm; the stiffness form is diagonal on the sine basis."""
    stiffness = _stiffness_diagonal(int(round(np.sqrt(u.shape[-1] // 2))))
    return np.sqrt(_rowdot(stiffness, u * u))


@lru_cache(maxsize=None)
def _stiffness_diagonal(n_modes: int) -> np.ndarray:
    j = np.arange(1, n_modes + 1, dtype=float)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    lam = (np.pi**2) * (jj**2 + kk**2)
    return np.concatenate([lam.ravel(), lam.ravel()])


def _cos_sin_integrals(n_modes: int, cos_degrees=None) -> np.ndarray:
    """Matrix of integrals C[r, b-1] = int_0^1 cos(a_r pi x) sin(b pi x) dx,
    1 <= b <= n_modes, over the cosine degrees a_r, by default 1..n_modes:
    2b / (pi (b^2 - a^2)) when a + b is odd, else 0."""
    a = np.arange(1, n_modes + 1, dtype=float)
    if cos_degrees is not None:
        a = np.asarray(cos_degrees, dtype=float)
    A, B = np.meshgrid(a, np.arange(1, n_modes + 1, dtype=float), indexing="ij")
    odd = ((A + B) % 2) == 1
    out = np.zeros(A.shape)
    out[odd] = 2.0 * B[odd] / (np.pi * (B[odd] ** 2 - A[odd] ** 2))
    return out


class _SynthGrid:
    """Tensor grid of the nodes x in (0, 1) per axis, with 1-D tables,
    indexed [mode, node], that carry the constants of a synthesis:

    sin, dcos     left factors: values and y-derivatives, and x-derivatives,
                  with their j pi;
    sin2, dcos2   right factors: the basis' factor 2, and j pi for a
                  y-derivative (2 dcos, exact).

    Scaling by 2 is exact, so x @ (2 t) has the bits of 2 (x @ t)."""

    def __init__(self, n_modes: int, x: np.ndarray):
        self.order = len(x)
        self.x = x
        j = np.arange(1, n_modes + 1, dtype=float)
        self.sin = np.sin(np.outer(j, np.pi * x))
        self.dcos = (np.pi * j)[:, None] * np.cos(np.outer(j, np.pi * x))
        self.sin2 = 2.0 * self.sin
        self.dcos2 = 2.0 * self.dcos


class _MidpointGrid(_SynthGrid):
    """The M = 2N + 1 midpoint nodes x_i = (i + 1/2) / M per axis, on which
    a step's L4 norm and convection pairings are exact.  The midpoint rule
    (1/M) sum_i integrates cos(m pi x) exactly for 0 <= m < 2M.  In each
    variable an integrand of either is a cosine series of degree at most
    4N < 2M, or a cosine series of degree at most 2N times sin(k pi x),
    which the rule does not integrate; that one is paired through the
    series' DCT-II, exact on M > 2N nodes, and the closed form
    I[n, k] = int_0^1 cos(n pi x) sin(k pi x) dx.  The adjoint's tables:

    sin_m, dcos_m  S = sin / M and D = j pi cos / M, the rule against
                   sin(j pi x) and its x-derivative;
    dct_sin        W[i, k] = sum_{n=0}^{2N} (c_n / M) cos(n pi x_i) I[n, k],
                   c_0 = 1 and c_n = 2, an (M, N) table."""

    def __init__(self, n_modes: int):
        m = 2 * n_modes + 1
        super().__init__(n_modes, (np.arange(m) + 0.5) / m)
        self.sin_m = self.sin / m
        self.dcos_m = self.dcos / m
        degrees = np.arange(2 * n_modes + 1)
        weights = np.where(degrees == 0, 1.0, 2.0) / m
        dct = weights[:, None] * np.cos(np.outer(degrees, np.pi * self.x))
        self.dct_sin = dct.T @ _cos_sin_integrals(n_modes, degrees)


class GridWorkspace:
    """Arrays of a block of coefficient rows of leading shape ``rows`` on
    the midpoint grid, allocated once: a block's fresh grid temporaries
    page-fault anew on every step.  Owned by the block, never shared between
    threads.  ``values`` holds the grid values of u (..., 2, M, M), and
    ``planes`` their pointwise products u1 u1, u1 u2, u2 u2 (..., 3, M, M),
    of which the L4 norm forms the squares ``planes[..., ::2]`` and the
    convection the cross term; ``d1`` and ``d2`` hold the gradients and
    then the convection's terms u1 d1 u and u2 d2 u, ``half`` the values'
    first product S^T C, which d2 u reuses, ``half_d1`` that of d1 u,
    ``adjoint_a`` and ``adjoint_b`` the adjoint's products (..., 2, N, M),
    and the same memory as (..., 2, M, N), ``adjoint_n`` its last, and
    ``mag2`` |u|^4."""

    def __init__(self, grid: _MidpointGrid, rows: tuple):
        m, n = grid.order, len(grid.sin)
        self.grid = grid
        self.values = np.empty(rows + (2, m, m))
        self.planes = np.empty(rows + (3, m, m))
        self.d1 = np.empty(rows + (2, m, m))
        self.d2 = np.empty(rows + (2, m, m))
        self.half = np.empty(rows + (2, m, n))
        self.half_d1 = np.empty(rows + (2, m, n))
        self.adjoint_a = np.empty(rows + (2, n, m))
        self.adjoint_b = np.empty(rows + (2, n, m))
        self.adjoint_n = np.empty(rows + (2, n, n))
        self.mag2 = np.empty(rows + (m, m))
        # the views a step reads, made once: the components, as planes and
        # kept as an axis, the squares, the overlapping pairs b1, b2 of the
        # convection, and the adjoint's buffers as (..., 2, M, N)
        self.v1, self.v2 = self.values[..., 0, :, :], self.values[..., 1, :, :]
        self.u1, self.u2 = self.values[..., 0:1, :, :], self.values[..., 1:2, :, :]
        self.u1u1, self.u1u2, self.u2u2 = (self.planes[..., i, :, :] for i in range(3))
        self.squares = self.planes[..., ::2, :, :]
        self.b1, self.b2 = self.planes[..., 0:2, :, :], self.planes[..., 1:3, :, :]
        self.adjoint_at = self.adjoint_a.reshape(rows + (2, m, n))
        self.adjoint_bt = self.adjoint_b.reshape(rows + (2, m, n))


class SpectralSpaces:
    """Gram data and coefficient operators for a fixed mode cutoff, whose
    coefficient orders ``velocity_index`` and ``pressure_index`` give.
    Immutable after construction, so safe to share across concurrent path
    simulations.
    """

    def __init__(self, n_modes: int):
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
            raise ConfigurationError("mode cutoff must be a positive integer")
        if n_modes > HARD_MODE_CAP:
            raise ConfigurationError(
                f"mode cutoff {n_modes} exceeds the hard cap {HARD_MODE_CAP}"
            )
        self.n_modes = int(n_modes)
        self.n_velocity = 2 * self.n_modes**2
        self.n_pressure = 2 * self.n_modes**2
        self.stiffness = _stiffness_diagonal(self.n_modes)

        # Divergence coefficient map is diagonal in these enumerations:
        # mode (j,k,1) -> j*pi on cs(j,k); mode (j,k,2) -> k*pi on sc(j,k).
        j = np.arange(1, self.n_modes + 1, dtype=float)
        jj, kk = np.meshgrid(j, j, indexing="ij")
        self.div_diagonal = np.concatenate(
            [(np.pi * jj).ravel(), (np.pi * kk).ravel()]
        )

        # Off-diagonal Gram blocks kron(2C, 2C^T) and its transpose, as the
        # factor pair L = (2C, 2C^T) of gram_product: <psi_cs(j,k),
        # psi_sc(j',k')> = 4 C[j,j'] C[k',k].  No dense Gram is kept
        c = 2.0 * _cos_sin_integrals(self.n_modes)
        self.gram_factors = np.stack([c, c.T])

        # the grid of a step's convection and L4 norm
        self.midpoint = _MidpointGrid(self.n_modes)

    # -- index maps ------------------------------------------------------------

    def velocity_index(self, j: int, k: int, d: int) -> int:
        """Position of mode (j, k, d): component d, then j, then k,
        row-major."""
        n = self.n_modes
        if not (1 <= j <= n and 1 <= k <= n and d in (1, 2)):
            raise ConfigurationError(f"velocity mode ({j},{k},{d}) out of range")
        return (d - 1) * n * n + (j - 1) * n + (k - 1)

    def pressure_index(self, family: str, j: int, k: int) -> int:
        """Position of mode (family, j, k): the cs family first, then sc,
        each j, then k, row-major."""
        n = self.n_modes
        if family not in ("cs", "sc") or not (1 <= j <= n and 1 <= k <= n):
            raise ConfigurationError(f"pressure mode ({family},{j},{k}) out of range")
        fam = 0 if family == "cs" else 1
        return fam * n * n + (j - 1) * n + (k - 1)

    # -- field constructors -----------------------------------------------------

    def velocity_from_modes(
        self, entries: Iterable[tuple[int, int, int, float]]
    ) -> np.ndarray:
        """Build a field's coefficients from (j, k, d, amplitude) entries.

        Entries outside the cutoff are dropped, which realises the exact
        L2 projection onto the span.
        """
        coeffs = np.zeros(self.n_velocity)
        for j, k, d, amp in entries:
            if d not in (1, 2):
                raise ConfigurationError(f"velocity component must be 1 or 2, got {d}")
            if 1 <= j <= self.n_modes and 1 <= k <= self.n_modes:
                coeffs[self.velocity_index(j, k, d)] += amp
        return coeffs

    def pressure_from_modes(
        self, entries: Iterable[tuple[str, int, int, float]]
    ) -> np.ndarray:
        coeffs = np.zeros(self.n_pressure)
        for fam, j, k, amp in entries:
            if fam not in ("cs", "sc"):
                raise ConfigurationError(f"pressure family must be cs or sc, got {fam}")
            if 1 <= j <= self.n_modes and 1 <= k <= self.n_modes:
                coeffs[self.pressure_index(fam, j, k)] += amp
        return coeffs

    # -- norms and pairings ------------------------------------------------------

    def gram_product(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G p for a coefficient vector or rows of them, into ``out`` when
        given.  With P the (..., 2, N, N) coefficient blocks and L the factor
        pair (2C, 2C^T), G p = p + L swap(P) L: two stacked N x N matmuls, a
        BLAS call per matrix, so O(N^3) per row against the dense O(N^4)."""
        blocks = self._coeff_blocks(p)[..., ::-1, :, :]
        cross = np.matmul(np.matmul(self.gram_factors, blocks), self.gram_factors)
        return np.add(p, cross.reshape(p.shape), out=out)

    def pressure_l2(
        self, p: np.ndarray, gram_out: np.ndarray | None = None
    ) -> np.float64 | np.ndarray:
        """L2 norm through the Gram; G p goes to ``gram_out`` when given."""
        q = self.gram_product(p, out=gram_out)
        return np.sqrt(np.maximum(_rowdot(p, q), 0.0))

    def l4_norm(self, u: np.ndarray, work: GridWorkspace | None = None) -> float | np.ndarray:
        """L4 norm of the vector field by the midpoint rule, exact: |u|^4 is
        a cosine polynomial of degree at most 4N < 2M in each variable.
        With a block's workspace, the grid values of u and their squares
        stay in it for a convection of the same rows."""
        if work is None:
            work = GridWorkspace(self.midpoint, u.shape[:-1])
        self._grid_values(u, work)
        return l4_reduce(np.add(work.u1u1, work.u2u2, out=work.mag2), work.grid.order)

    def divergence_l2(self, u: np.ndarray) -> np.float64 | np.ndarray:
        return self.pressure_l2(self.div_diagonal * u)

    # -- synthesis ----------------------------------------------------------------

    def _coeff_blocks(self, c: np.ndarray) -> np.ndarray:
        """Coefficients as (..., 2, N, N) blocks: velocity components, or the
        cs and sc pressure families."""
        n = self.n_modes
        return c.reshape(c.shape[:-1] + (2, n, n))

    def _synthesize(self, left, c, right2, out=None, half=None) -> np.ndarray:
        """left.T @ c @ right2 over the coefficient blocks c, into ``out``,
        with the first product into ``half``, when given; ``left`` and
        ``right2`` are tables of the grid, so the basis' factor 2 and the
        derivative factors cost no pass."""
        return np.matmul(np.matmul(left.T, c, out=half), right2, out=out)

    def _grid_values(self, c: np.ndarray, work: GridWorkspace) -> None:
        """The grid values of the coefficient rows c into ``work.values``,
        and their squares u1 u1, u2 u2 into the product planes."""
        g = work.grid
        self._synthesize(g.sin, self._coeff_blocks(c), g.sin2, work.values, work.half)
        np.multiply(work.values, work.values, out=work.squares)

    def _component_gradients(self, u: np.ndarray, work: GridWorkspace) -> tuple[np.ndarray, np.ndarray]:
        """Partial derivatives (d_1 u, d_2 u) on the block's grid, into
        ``work.d1`` and ``work.d2``, each of shape (..., 2, M, M):
        [i][..., d] = d_i u_d; d_2 u from the S^T C of u in ``work.half``."""
        g = work.grid
        return (
            self._synthesize(g.dcos, self._coeff_blocks(u), g.sin2, work.d1, work.half_d1),
            np.matmul(work.half, g.dcos2, out=work.d2),
        )


def build_spaces(n_modes: int) -> SpectralSpaces:
    """Construct the spaces of cutoff ``n_modes``: the stiffness and
    divergence diagonals and the pressure Gram's Kronecker factors, with the
    coefficient-space operators built on them.  The enumerations are the
    maps ``velocity_index`` and ``pressure_index``; no mode table is built.
    """
    return SpectralSpaces(n_modes)
