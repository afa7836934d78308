"""Brute-force tensor quadrature used by the test suite.

Everything here is evaluated by summing basis modes pointwise on a tensor
Gauss-Legendre grid, one mode at a time.  It deliberately shares no code with
the fast spectral routines (no cached value tables, no batched contractions),
so agreement between the two paths certifies both.  Allowed to be slow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from acflow.spaces import PressureField, VelocityField


@dataclass(frozen=True)
class QuadRule:
    """1-D Gauss-Legendre rule on (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def make_rule(order: int) -> QuadRule:
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    t, w = np.polynomial.legendre.leggauss(order)
    return QuadRule(nodes=(t + 1.0) / 2.0, weights=w / 2.0, order=order)


def velocity_modes(n_modes: int) -> list[tuple[int, int, int]]:
    """(j, k, d) of each velocity coefficient in turn: component d, then j,
    then k, row-major."""
    ks = range(1, n_modes + 1)
    return [(j, k, d) for d in (1, 2) for j in ks for k in ks]


def pressure_modes(n_modes: int) -> list[tuple[str, int, int]]:
    """(family, j, k) of each pressure coefficient in turn: the cs family,
    then sc, each j, then k, row-major."""
    ks = range(1, n_modes + 1)
    return [(family, j, k) for family in ("cs", "sc") for j in ks for k in ks]


def oracle_integrate(f, rule: QuadRule) -> float:
    """Tensor-product quadrature of a pointwise scalar function f(x, y), given
    the nodes as a column x and a row y that broadcast to the grid."""
    x, y = rule.nodes[:, None], rule.nodes[None, :]
    w2d = np.outer(rule.weights, rule.weights)
    return float(np.sum(np.asarray(f(x, y)) * w2d))


def velocity_values(u: VelocityField, x, y) -> list[np.ndarray]:
    """Mode-by-mode evaluation of both components at the given points."""
    comps = [np.zeros(np.broadcast(x, y).shape) for _ in range(2)]
    for idx, (j, k, d) in enumerate(velocity_modes(u.n_modes)):
        c = u.coeffs[idx]
        if c == 0.0:
            continue
        comps[d - 1] += c * 2.0 * np.sin(j * np.pi * x) * np.sin(k * np.pi * y)
    return comps


def velocity_gradients(u: VelocityField, x, y) -> list[list[np.ndarray]]:
    """grads[i][d] = d_i u_d evaluated pointwise, i, d in {0, 1}."""
    shape = np.broadcast(x, y).shape
    grads = [[np.zeros(shape) for _ in range(2)] for _ in range(2)]
    for idx, (j, k, d) in enumerate(velocity_modes(u.n_modes)):
        c = u.coeffs[idx]
        if c == 0.0:
            continue
        grads[0][d - 1] += (
            c * 2.0 * j * np.pi * np.cos(j * np.pi * x) * np.sin(k * np.pi * y)
        )
        grads[1][d - 1] += (
            c * 2.0 * k * np.pi * np.sin(j * np.pi * x) * np.cos(k * np.pi * y)
        )
    return grads


def pressure_values(p: PressureField, x, y) -> np.ndarray:
    vals = np.zeros(np.broadcast(x, y).shape)
    for idx, (fam, j, k) in enumerate(pressure_modes(p.n_modes)):
        c = p.coeffs[idx]
        if c == 0.0:
            continue
        if fam == "cs":
            vals += c * 2.0 * np.cos(j * np.pi * x) * np.sin(k * np.pi * y)
        else:
            vals += c * 2.0 * np.sin(j * np.pi * x) * np.cos(k * np.pi * y)
    return vals


def pressure_mode_values(index, x, y) -> np.ndarray:
    fam, j, k = index
    if fam == "cs":
        return 2.0 * np.cos(j * np.pi * x) * np.sin(k * np.pi * y)
    return 2.0 * np.sin(j * np.pi * x) * np.cos(k * np.pi * y)


def oracle_l2(u: VelocityField, rule: QuadRule) -> float:
    def f(x, y):
        v1, v2 = velocity_values(u, x, y)
        return v1 * v1 + v2 * v2

    return float(np.sqrt(max(oracle_integrate(f, rule), 0.0)))


def oracle_h10(u: VelocityField, rule: QuadRule) -> float:
    def f(x, y):
        g = velocity_gradients(u, x, y)
        return sum(g[i][d] ** 2 for i in range(2) for d in range(2))

    return float(np.sqrt(max(oracle_integrate(f, rule), 0.0)))


def oracle_l4(u: VelocityField, rule: QuadRule) -> float:
    def f(x, y):
        v1, v2 = velocity_values(u, x, y)
        return (v1 * v1 + v2 * v2) ** 2

    return float(max(oracle_integrate(f, rule), 0.0) ** 0.25)


def oracle_gradient_inner(u: VelocityField, v: VelocityField, rule: QuadRule) -> float:
    """int grad u : grad v, the stiffness pairing."""

    def f(x, y):
        gu = velocity_gradients(u, x, y)
        gv = velocity_gradients(v, x, y)
        return sum(gu[i][d] * gv[i][d] for i in range(2) for d in range(2))

    return oracle_integrate(f, rule)


def oracle_divergence(u: VelocityField, x, y) -> np.ndarray:
    g = velocity_gradients(u, x, y)
    return g[0][0] + g[1][1]


def oracle_div_pairing(p: PressureField, w: VelocityField, rule: QuadRule) -> float:
    """int p * Div w, evaluated pointwise."""

    def f(x, y):
        return pressure_values(p, x, y) * oracle_divergence(w, x, y)

    return oracle_integrate(f, rule)


def oracle_trilinear(
    u: VelocityField, v: VelocityField, w: VelocityField, rule: QuadRule
) -> float:
    """Antisymmetrised convection form, term by term:

    0.5 * sum_{i,j} int [u_i (d_i v_j) w_j - u_i (d_i w_j) v_j] dx
    """

    def f(x, y):
        uu = velocity_values(u, x, y)
        vv = velocity_values(v, x, y)
        ww = velocity_values(w, x, y)
        gv = velocity_gradients(v, x, y)
        gw = velocity_gradients(w, x, y)
        total = np.zeros(np.broadcast(x, y).shape)
        for i in range(2):
            for jc in range(2):
                total += uu[i] * gv[i][jc] * ww[jc] - uu[i] * gw[i][jc] * vv[jc]
        return 0.5 * total

    return oracle_integrate(f, rule)


# -- grid-free closed forms ---------------------------------------------------


def _cos_sin(n: int, k: int) -> float:
    """int_0^1 cos(n pi x) sin(k pi x) dx for integers n and k >= 1."""
    if (n + k) % 2 == 0:
        return 0.0
    return 2.0 * k / (np.pi * (k * k - n * n))


def _cos_cos(p: int, q: int) -> float:
    """int_0^1 cos(p pi x) cos(q pi x) dx for integers p and q."""
    return 0.5 * ((p == q) + (p == -q))


def sin_sin_sin(a: int, b: int, c: int) -> float:
    """int_0^1 sin(a pi x) sin(b pi x) sin(c pi x) dx, from
    sin A sin B = (cos(A - B) - cos(A + B)) / 2."""
    return 0.5 * (_cos_sin(a - b, c) - _cos_sin(a + b, c))


def cos_sin_sin(a: int, b: int, c: int) -> float:
    """int_0^1 cos(a pi x) sin(b pi x) sin(c pi x) dx, from the same
    identity for sin B sin C."""
    return 0.5 * (_cos_cos(a, b - c) - _cos_cos(a, b + c))


def oracle_bhat_pairings(u: VelocityField) -> np.ndarray:
    """The pairings b(u, u, e_(j,k,d)) with every basis function, without a
    grid.  With w = e_(j,k,d), each term of

    0.5 * sum_i int [u_i (d_i u_d) w_d - u_i (d_i w_d) u_d] dx

    is a sum over mode pairs of products of an x- and a y-integral of three
    sines, or of a cosine and two sines; each factor carries the basis'
    2 and the derivative's a pi, so a term is 0.5 * 8 = 4 times the
    contraction.  Indices: a, b the modes of u_i, p, q those of u_d."""
    n = u.n_modes
    ks = range(1, n + 1)
    sss = np.array([[[sin_sin_sin(a, b, c) for c in ks] for b in ks] for a in ks])
    css = np.array([[[cos_sin_sin(a, b, c) for c in ks] for b in ks] for a in ks])
    kpi = np.pi * np.arange(1, n + 1)
    blocks = u.coeffs.reshape(2, n, n)
    c1, c2 = blocks
    out = np.zeros((2, n, n))
    for d, cd in enumerate(blocks):
        terms = (
            # u_1 (d_1 u_d) w_d and u_1 (d_1 w_d) u_d
            +np.einsum("ab,pq,p,paj,bqk->jk", c1, cd, kpi, css, sss),
            -np.einsum("ab,pq,j,jap,bkq->jk", c1, cd, kpi, css, sss),
            # u_2 (d_2 u_d) w_d and u_2 (d_2 w_d) u_d
            +np.einsum("ab,pq,q,apj,qbk->jk", c2, cd, kpi, sss, css),
            -np.einsum("ab,pq,k,ajp,kbq->jk", c2, cd, kpi, sss, css),
        )
        out[d] = 4.0 * sum(terms)
    return out.reshape(-1)
