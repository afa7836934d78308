"""Stokes operator, stabilised convection form and inequality verifiers.

The convection form is the antisymmetrised pairing

    b(u, v, w) = 0.5 * sum_{i,j} int [u_i (d_i v_j) w_j - u_i (d_i w_j) v_j]

evaluated pseudo-spectrally: fields and gradients are synthesised on a tensor
grid and multiplied pointwise.  :func:`bhat_operator`, the step's pairings
(B(u), e_i), integrates on the midpoint grid of the spaces, where every term
is integrated exactly; its null pairing <B(u), u> = 0 holds because the
integration is exact, to round-off.  The inequality checks pair through
that same operator, <B(u), w> = B(u) . w, and reach the form for two
fields by polarisation:

    <B(u + v) - B(u) - B(v), w> = b(u, v, w) + b(v, u, w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import (
    GridWorkspace,
    SpectralSpaces,
    VelocityField,
    _coeffs,
    _SynthGrid,
    h10_norm,
    l2_norm,
)


@dataclass(frozen=True)
class MonotonicityReport:
    margin: float
    stokes_term: float
    convection_term: float
    ball_term: float
    rhs: float
    r: float
    in_ball: bool


def bhat_operator(
    spaces: SpectralSpaces,
    u,
    work: GridWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pairings (B(u), e_i) of the stabilised convection operator against
    every basis function, from a single pass over u on the midpoint grid,
    exact up to round-off.

    ``u`` is a field or an (M, n_velocity) block of coefficient rows; a
    block gives one row of pairings per path, each bit-identical to the
    row's own call.  ``work`` is the block's workspace, which must hold the
    grid values of u and their squares, as ``spaces.l4_norm(u, work=work)``
    leaves them; the grid arrays go to it.  The pairings go to ``out``, a
    C-contiguous array of u's shape, when given.

    With T1 = u1 d1 u, T2 = u2 d2 u, b1 = u1 u and b2 = u2 u, the pairing
    with e_(j,k,d) is int (T1 + T2)_d sin sin - b1_d j pi cos sin -
    b2_d sin k pi cos; the tables of ``_MidpointGrid`` pair each term
    exactly, T1 and b1 with W in y, T2 and b2 with W in x.
    """
    c = _coeffs(u)
    if work is None:
        work = GridWorkspace(spaces.midpoint, c.shape[:-1])
        spaces._grid_values(c, work)
    g, n = work.grid, spaces.n_modes
    t1, t2 = spaces._component_gradients(c, g, work)
    t1 *= work.u1
    t2 *= work.u2
    np.multiply(work.v1, work.v2, out=work.u1u2)
    # pair = (S T1 - D b1) W + W^T (T2 S^T - b2 D^T), with the overlapping
    # planes b1 = u1 u, b2 = u2 u: six stacked matmuls, a BLAS call per row
    # matrix
    left = np.matmul(g.sin_m, t1, out=work.adjoint_a)
    left -= np.matmul(g.dcos_m, work.b1, out=work.adjoint_b)
    if out is not None:
        out = out.reshape(left.shape[:-1] + (n,))
    pair = np.matmul(left, g.dct_sin, out=out)
    right = np.matmul(t2, g.sin_m.T, out=work.adjoint_at)
    right -= np.matmul(work.b2, g.dcos_m.T, out=work.adjoint_bt)
    pair += np.matmul(g.dct_sin.T, right, out=work.adjoint_n)
    return pair.reshape(c.shape)


# -- inequality checks ---------------------------------------------------------


def _difference_pairing(
    spaces: SpectralSpaces,
    u: VelocityField,
    v: VelocityField,
    w: VelocityField,
) -> float:
    """<B(u) - B(v), w>, through the step's own convection operator."""
    return float((bhat_operator(spaces, u) - bhat_operator(spaces, v)) @ w.coeffs)


def check_ladyzhenskaya(spaces: SpectralSpaces, u: VelocityField) -> list[tuple[float, float]]:
    """Per-component interpolation inequality
    ||phi||_L4^4 <= 2 ||phi||_L2^2 ||grad phi||_L2^2."""
    n = spaces.n_modes
    out = []
    for d in (1, 2):
        lhs = spaces.component_l4_norm(u, d) ** 4
        block = u.coeffs.reshape(2, n, n)[d - 1].ravel()
        l2sq = float(np.dot(block, block))
        stiff = spaces.stiffness[: n * n]
        h1sq = float(np.dot(stiff, block * block))
        out.append((lhs, 2.0 * l2sq * h1sq))
    return out


def check_product_l1(
    spaces: SpectralSpaces,
    u: VelocityField,
    v: VelocityField,
) -> tuple[float, float]:
    """Product bound ||phi psi||_L2^2 <= ||phi d1 phi||_L1 ||psi d2 psi||_L1
    with phi the first component of u and psi the second component of v.

    Both sides by the midpoint rule on Q = 4N + 8 nodes per axis: exact for
    the lhs, a cosine polynomial of degree at most 4N < 2Q in each variable,
    and approximate for the rhs, whose |phi d1 phi| is no trig polynomial."""
    q = 4 * spaces.n_modes + 8
    g = _SynthGrid(spaces.n_modes, (np.arange(q) + 0.5) / q)
    phi = spaces._component_values(u, g)[0]
    psi = spaces._component_values(v, g)[1]
    d1phi = spaces._component_gradients(u, g)[0][0]
    d2psi = spaces._component_gradients(v, g)[1][1]
    # the rule's weight 1 / Q^2 makes each integral a mean over the grid
    lhs = float(np.mean((phi * psi) ** 2))
    rhs = float(np.mean(np.abs(phi * d1phi))) * float(np.mean(np.abs(psi * d2psi)))
    return lhs, rhs


def check_convection_bound(
    spaces: SpectralSpaces,
    u: VelocityField,
    w: VelocityField,
) -> tuple[float, float]:
    """Convection bound |<B(u), w>| <= 2 ||u||^{3/2} |u|^{1/2} ||w||_L4."""
    lhs = abs(float(bhat_operator(spaces, u) @ w.coeffs))
    rhs = (
        2.0
        * h10_norm(u) ** 1.5
        * l2_norm(u) ** 0.5
        * spaces.l4_norm(w)
    )
    return lhs, rhs


def check_convection_difference(
    spaces: SpectralSpaces,
    u: VelocityField,
    v: VelocityField,
    nu: float,
) -> tuple[float, float]:
    """Difference bound |<B(u) - B(v), u - v>| <=
    (nu/2) ||u-v||^2 + 27/(2 nu^3) |u-v|^2 ||v||_L4^4."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    w = VelocityField(u.coeffs - v.coeffs, u.n_modes)
    lhs = abs(_difference_pairing(spaces, u, v, w))
    rhs = 0.5 * nu * h10_norm(w) ** 2 + (27.0 / (2.0 * nu**3)) * l2_norm(
        w
    ) ** 2 * spaces.l4_norm(v) ** 4
    return lhs, rhs


def monotonicity_margin(
    spaces: SpectralSpaces,
    u: VelocityField,
    v: VelocityField,
    nu: float,
    r: float,
) -> MonotonicityReport:
    """Local monotonicity of the Stokes-plus-convection operator on the
    L4 ball of radius r, tested with w = u - v."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if r < 0:
        raise ValueError("ball radius must be nonnegative")
    w = VelocityField(u.coeffs - v.coeffs, u.n_modes)
    stokes_term = nu * h10_norm(w) ** 2
    convection_term = _difference_pairing(spaces, u, v, w)
    ball_term = (27.0 * r**4 / (2.0 * nu**3)) * l2_norm(w) ** 2
    rhs = 0.5 * nu * h10_norm(w) ** 2
    in_ball = spaces.l4_norm(v) <= r
    margin = stokes_term + convection_term + ball_term - rhs
    return MonotonicityReport(
        margin=margin,
        stokes_term=stokes_term,
        convection_term=convection_term,
        ball_term=ball_term,
        rhs=rhs,
        r=r,
        in_ball=in_ball,
    )


# -- randomized inequality suite -------------------------------------------------


def sample_field(
    spaces: SpectralSpaces,
    rng: np.random.Generator,
    smoothness: float = 2.0,
    amplitude: float = 1.0,
) -> VelocityField:
    """Random field with coefficients ~ N(0, (j^2+k^2)^-smoothness)."""
    n = spaces.n_modes
    j = np.arange(1, n + 1, dtype=float)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    sigma = (jj**2 + kk**2) ** (-smoothness / 2.0)
    sigma = np.concatenate([sigma.ravel(), sigma.ravel()])
    coeffs = amplitude * sigma * rng.standard_normal(spaces.n_velocity)
    return VelocityField(coeffs, n)


NULL_PAIRING_TOL = 1e-12
MONOTONICITY_TOL = 1e-10


def _scale(*fields: VelocityField) -> float:
    s = 1.0
    for f in fields:
        s *= max(h10_norm(f), 1e-30)
    return s


def run_inequality_suite(
    n_samples: int,
    seed: int,
    cutoffs=(2, 4, 6),
    viscosities=(0.05, 0.1, 1.0),
) -> tuple[list[dict], bool]:
    """Randomized search for violations of the operator inequalities.

    Returns one ledger row per check instance:
    {lemma, seed, lhs, rhs, margin, pass}.  Sample generation is a pure
    function of (seed, sample index) so any violation is reproducible.
    """
    spaces_by_cutoff = {n: SpectralSpaces(n) for n in cutoffs}
    rows: list[dict] = []
    all_pass = True

    def add(lemma, sample_seed, lhs, rhs, ok):
        nonlocal all_pass
        rows.append(
            {
                "lemma": lemma,
                "seed": sample_seed,
                "lhs": lhs,
                "rhs": rhs,
                "margin": rhs - lhs,
                "pass": bool(ok),
            }
        )
        all_pass = all_pass and bool(ok)

    for i in range(n_samples):
        spaces = spaces_by_cutoff[cutoffs[i % len(cutoffs)]]
        nu = viscosities[(i // len(cutoffs)) % len(viscosities)]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        u = sample_field(spaces, rng)
        v = sample_field(spaces, rng)
        w = sample_field(spaces, rng)

        lhs, rhs = check_product_l1(spaces, u, v)
        add("product_l1", i, lhs, rhs, lhs <= rhs * (1 + 1e-12) + 1e-14)

        for lhs, rhs in check_ladyzhenskaya(spaces, u):
            add("ladyzhenskaya", i, lhs, rhs, lhs <= rhs * (1 + 1e-12) + 1e-14)

        lhs, rhs = check_convection_bound(spaces, u, w)
        add("convection_bound", i, lhs, rhs, lhs <= rhs * (1 + 1e-12) + 1e-14)

        lhs, rhs = check_convection_difference(spaces, u, v, nu)
        add("convection_difference", i, lhs, rhs, lhs <= rhs * (1 + 1e-12) + 1e-14)

        # pull v into the L4 ball of radius r = ||v||_L4 (the tightest ball)
        r = spaces.l4_norm(v)
        report = monotonicity_margin(spaces, u, v, nu, r)
        tol = MONOTONICITY_TOL * _scale(u, v)
        add(
            "local_monotonicity",
            i,
            report.rhs - report.ball_term - report.convection_term,
            report.stokes_term,
            report.in_ball and report.margin >= -tol,
        )

        bu, bv = bhat_operator(spaces, u), bhat_operator(spaces, v)
        null_tol = NULL_PAIRING_TOL * _scale(u, u, u)
        val = abs(float(bu @ u.coeffs))
        add("null_self_pairing", i, val, null_tol, val <= null_tol)

        # b(u, v, v) by polarisation: <B(u+v) - B(u) - B(v), v> is
        # b(u, v, v) + b(v, u, v), and b(v, u, v) = -<B(v), u>
        null_tol = NULL_PAIRING_TOL * _scale(u, v, v)
        bsum = bhat_operator(spaces, u.coeffs + v.coeffs)
        val = abs(float((bsum - bu - bv) @ v.coeffs + bv @ u.coeffs))
        add("null_mixed_pairing", i, val, null_tol, val <= null_tol)

    return rows, all_pass
