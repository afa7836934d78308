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

from functools import lru_cache

import numpy as np

from .spaces import GridWorkspace, SpectralSpaces, _SynthGrid, h10_norm, l2_norm


def bhat_operator(
    spaces: SpectralSpaces,
    u: np.ndarray,
    work: GridWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pairings (B(u), e_i) of the stabilised convection operator against
    every basis function, from a single pass over u on the midpoint grid,
    exact up to round-off.

    ``u`` is a field's coefficients or an (M, n_velocity) block of rows; a
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
    if work is None:
        work = GridWorkspace(spaces.midpoint, u.shape[:-1])
        spaces._grid_values(u, work)
    g, n = work.grid, spaces.n_modes
    t1, t2 = spaces._component_gradients(u, work)
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
    return pair.reshape(u.shape)


# -- inequality checks ---------------------------------------------------------


@lru_cache(maxsize=None)
def _product_grid(n_modes: int) -> _SynthGrid:
    """The Q = 4N + 8 midpoint nodes per axis of check_product_l1."""
    q = 4 * n_modes + 8
    return _SynthGrid(n_modes, (np.arange(q) + 0.5) / q)


def check_product_l1(spaces: SpectralSpaces, u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Product bound ||phi psi||_L2^2 <= ||phi d1 phi||_L1 ||psi d2 psi||_L1
    with phi the first component of u and psi the second component of v.

    Both sides by the midpoint rule on Q = 4N + 8 nodes per axis: exact for
    the lhs, a cosine polynomial of degree at most 4N < 2Q in each variable,
    and approximate for the rhs, whose |phi d1 phi| is no trig polynomial.
    Only the four planes read are synthesised."""
    g = _product_grid(spaces.n_modes)
    u1, v2 = spaces._coeff_blocks(u)[0], spaces._coeff_blocks(v)[1]
    phi, d1phi = (spaces._synthesize(left, u1, g.sin2) for left in (g.sin, g.dcos))
    psi, d2psi = (spaces._synthesize(g.sin, v2, right) for right in (g.sin2, g.dcos2))
    # the rule's weight 1 / Q^2 makes each integral a mean over the grid
    lhs = float(np.mean((phi * psi) ** 2))
    rhs = float(np.mean(np.abs(phi * d1phi))) * float(np.mean(np.abs(psi * d2psi)))
    return lhs, rhs


NULL_PAIRING_TOL = 1e-12
MONOTONICITY_TOL = 1e-10


def sample_checks(
    spaces: SpectralSpaces,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    nu: float,
) -> list[tuple[str, float, float, bool]]:
    """The inequality checks of one sample (u, v, w) at viscosity nu, as
    (lemma, lhs, rhs, pass) rows:

    product_l1             ||phi psi||^2 <= ||phi d1 phi||_L1 ||psi d2 psi||_L1
                           (check_product_l1);
    ladyzhenskaya          ||u_d||_L4^4 <= 2 |u_d|^2 ||u_d||^2, d = 1, 2;
    convection_bound       |<B(u), w>| <= 2 ||u||^{3/2} |u|^{1/2} ||w||_L4;
    convection_difference  |<B(u) - B(v), u - v>| <=
                           (nu/2) ||u - v||^2 + 27/(2 nu^3) |u - v|^2 ||v||_L4^4;
    local_monotonicity     the Stokes-plus-convection operator is monotone
                           on the L4 ball of radius r = ||v||_L4, tested with
                           u - v: (nu/2) ||u - v||^2 - 27 r^4/(2 nu^3) |u - v|^2
                           - <B(u) - B(v), u - v> <= nu ||u - v||^2;
    null_self_pairing      |<B(u), u>| within NULL_PAIRING_TOL;
    null_mixed_pairing     |b(u, v, v)| within NULL_PAIRING_TOL, by
                           polarisation: <B(u+v) - B(u) - B(v), v> is
                           b(u, v, v) + b(v, u, v), and b(v, u, v) = -<B(v), u>.

    The block [u, v, w, u + v] runs a step's grid work once: one l4_norm,
    whose grid values stay in the block's workspace, then one bhat_operator
    on them, the step's own pairing <B(u), w> = B(u) . w."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    n = spaces.n_modes
    block = np.stack([u, v, w, u + v])
    work = GridWorkspace(spaces.midpoint, block.shape[:-1])
    l4 = spaces.l4_norm(block, work=work).tolist()
    bu, bv, _, bsum = bhat_operator(spaces, block, work=work)
    bounds = [("product_l1", *check_product_l1(spaces, u, v))]

    for d in (1, 2):
        # the component's L4 norm, rounded as a norm, to the fourth
        vals = work.values[0, d - 1]
        lhs = (float(np.sum(vals**4) / work.grid.order**2) ** 0.25) ** 4
        comp = u.reshape(2, n, n)[d - 1].ravel()
        l2sq = float(np.dot(comp, comp))
        h1sq = float(np.dot(spaces.stiffness[: n * n], comp * comp))
        bounds.append(("ladyzhenskaya", lhs, 2.0 * l2sq * h1sq))

    h1_u = h10_norm(u)
    lhs = abs(float(bu @ w))
    rhs = 2.0 * h1_u**1.5 * l2_norm(u) ** 0.5 * l4[2]
    bounds.append(("convection_bound", lhs, rhs))

    diff = u - v
    h1_diff, l2_diff = h10_norm(diff), l2_norm(diff)
    convection_term = float((bu - bv) @ diff)
    r = l4[1]
    rhs = 0.5 * nu * h1_diff**2 + (27.0 / (2.0 * nu**3)) * l2_diff**2 * r**4
    bounds.append(("convection_difference", abs(convection_term), rhs))
    rows = [(lemma, lhs, rhs, bool(lhs <= rhs * (1 + 1e-12) + 1e-14)) for lemma, lhs, rhs in bounds]

    # the tolerances scale with the H1_0 norms of the fields paired
    scale_u, scale_v = max(h1_u, 1e-30), max(h10_norm(v), 1e-30)
    stokes_term = nu * h1_diff**2
    ball_term = (27.0 * r**4 / (2.0 * nu**3)) * l2_diff**2
    half = 0.5 * nu * h1_diff**2
    margin = stokes_term + convection_term + ball_term - half
    tol = MONOTONICITY_TOL * (scale_u * scale_v)
    lhs = half - ball_term - convection_term
    rows.append(("local_monotonicity", lhs, stokes_term, bool(margin >= -tol)))

    null_tol = NULL_PAIRING_TOL * (scale_u * scale_u * scale_u)
    val = abs(float(bu @ u))
    rows.append(("null_self_pairing", val, null_tol, bool(val <= null_tol)))
    null_tol = NULL_PAIRING_TOL * (scale_u * scale_v * scale_v)
    val = abs(float((bsum - bu - bv) @ v + bv @ u))
    rows.append(("null_mixed_pairing", val, null_tol, bool(val <= null_tol)))
    return rows


# -- randomized inequality suite -------------------------------------------------


@lru_cache(maxsize=None)
def _field_scales(n_modes: int) -> np.ndarray:
    """(j^2 + k^2)^-1 for both components, in the velocity order."""
    j = np.arange(1, n_modes + 1, dtype=float)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    sigma = (jj**2 + kk**2) ** (-1.0)
    return np.concatenate([sigma.ravel(), sigma.ravel()])


def sample_field(spaces: SpectralSpaces, rng: np.random.Generator) -> np.ndarray:
    """Random field with coefficients ~ N(0, (j^2+k^2)^-2)."""
    return _field_scales(spaces.n_modes) * rng.standard_normal(spaces.n_velocity)


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
    for i in range(n_samples):
        spaces = spaces_by_cutoff[cutoffs[i % len(cutoffs)]]
        nu = viscosities[(i // len(cutoffs)) % len(viscosities)]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        u, v, w = (sample_field(spaces, rng) for _ in range(3))
        for lemma, lhs, rhs, ok in sample_checks(spaces, u, v, w, nu):
            rows.append(
                {"lemma": lemma, "seed": i, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "pass": ok}
            )
    return rows, all(r["pass"] for r in rows)
