import os
import subprocess
import sys

import numpy as np
import pytest

import acflow
from acflow import build_spaces, h10_norm, l2_norm
from acflow.spaces import ConfigurationError
import oracle as orc
from acflow.operators import sample_checks, sample_field


def test_build_spaces_counts():
    sp = build_spaces(1)
    assert (sp.n_velocity, sp.n_pressure) == (2, 2)
    sp = build_spaces(4)
    assert (sp.n_velocity, sp.n_pressure) == (32, 32)


def test_build_spaces_rejects_bad_cutoffs():
    with pytest.raises(ConfigurationError):
        build_spaces(0)
    with pytest.raises(ConfigurationError):
        build_spaces(65)


def test_enumeration_order_is_component_then_rowmajor():
    sp = build_spaces(2)
    assert sp.velocity_index(1, 1, 1) == 0
    assert sp.velocity_index(1, 2, 1) == 1
    assert sp.velocity_index(2, 1, 1) == 2
    assert sp.velocity_index(1, 1, 2) == 4
    # the oracle's own loops enumerate the modes in the same order
    for n in (1, 2, 5):
        sp = build_spaces(n)
        assert [sp.velocity_index(*m) for m in orc.velocity_modes(n)] == list(range(sp.n_velocity))
        assert [sp.pressure_index(*m) for m in orc.pressure_modes(n)] == list(range(sp.n_pressure))


def test_gram_diagonal_is_one_at_n2(spaces2, dense_gram):
    assert np.allclose(np.diag(dense_gram(spaces2)), 1.0, atol=1e-14)


def test_gram_matches_quadrature_oracle(spaces3, dense_gram):
    rule = orc.make_rule(48)
    g = dense_gram(spaces3)
    modes = orc.pressure_modes(spaces3.n_modes)
    for a in range(0, spaces3.n_pressure, 5):
        for b in range(a, spaces3.n_pressure, 7):
            pa, pb = modes[a], modes[b]
            val = orc.oracle_integrate(
                lambda x, y: orc.pressure_mode_values(pa, x, y)
                * orc.pressure_mode_values(pb, x, y),
                rule,
            )
            assert abs(g[a, b] - val) <= 1e-10


@pytest.mark.parametrize("n_modes", range(2, 13))
def test_kronecker_gram_product_matches_dense_gram(n_modes, rng, dense_gram):
    sp = build_spaces(n_modes)
    p = rng.standard_normal((5, sp.n_pressure))
    dense = (dense_gram(sp) @ p.T).T
    rel = np.abs(sp.gram_product(p) - dense).max() / np.abs(dense).max()
    assert rel <= 1e-14
    # a row's product does not depend on the rows beside it
    assert all(sp.gram_product(row).tobytes() == q.tobytes() for row, q in zip(p, sp.gram_product(p)))


def test_cutoff_13_builds_at_one_and_two_blas_threads():
    # nothing in the construction of the spaces factors the (numerically
    # semidefinite) pressure Gram, so no BLAS thread count refuses a cutoff
    src = os.path.dirname(os.path.dirname(acflow.__file__))
    code = "from acflow import build_spaces; print(build_spaces(13).n_pressure)"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert (out.returncode, out.stdout.strip()) == (0, "338"), out.stderr


def test_l2_norm_examples(spaces3):
    assert l2_norm(np.zeros(spaces3.n_velocity)) == 0.0
    u = spaces3.velocity_from_modes([(1, 1, 1, 3.0), (2, 2, 2, 4.0)])
    assert l2_norm(u) == pytest.approx(5.0, abs=1e-14)


def test_l2_norm_matches_oracle(spaces3, rng):
    u = sample_field(spaces3, rng)
    rule = orc.make_rule(40)
    assert l2_norm(u) == pytest.approx(orc.oracle_l2(u, rule), rel=1e-10)


def test_h10_norm_examples(spaces3):
    assert h10_norm(np.zeros(spaces3.n_velocity)) == 0.0
    u = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    assert h10_norm(u) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    v = spaces3.velocity_from_modes([(2, 1, 2, 1.0)])
    assert h10_norm(v) == pytest.approx(np.pi * np.sqrt(5.0), rel=1e-13)


def test_h10_norm_matches_oracle(spaces3, rng):
    u = sample_field(spaces3, rng)
    rule = orc.make_rule(40)
    assert h10_norm(u) == pytest.approx(orc.oracle_h10(u, rule), rel=1e-10)


def test_l4_norm_examples(spaces3):
    assert spaces3.l4_norm(np.zeros(spaces3.n_velocity)) == 0.0
    u = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    assert spaces3.l4_norm(u) == pytest.approx(np.sqrt(1.5), rel=1e-12)


def test_l4_norm_quadrature_self_convergence(spaces3, rng):
    # the midpoint rule on M = 2N + 1 nodes is exact for |u|^4, so the rule
    # on twice as many nodes gives the same norm to round-off
    u = sample_field(spaces3, rng)
    m = 2 * spaces3.midpoint.order
    x = (np.arange(m) + 0.5) / m
    pts = np.column_stack([a.ravel() for a in np.meshgrid(x, x, indexing="ij")])
    vals = synthesize(spaces3, u, pts)
    doubled = (np.sum(np.sum(vals**2, axis=1) ** 2) / m**2) ** 0.25
    base = spaces3.l4_norm(u)
    assert abs(base - doubled) <= 1e-13 * abs(doubled)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 8, 12, 16, 32, 64])
def test_l4_norm_of_the_top_mode_is_exact(n_modes):
    # int (2 sin(N pi x) sin(N pi y))^4 = 16 (3/8)^2 = 9/4 in closed form,
    # a cosine polynomial of degree 4N, which M = 2N + 1 midpoint nodes
    # integrate exactly; a Gauss-Legendre rule does not.  The Ladyzhenskaya
    # rows of sample_checks carry each component's ||u_d||_L4^4
    sp = build_spaces(n_modes)
    z = np.zeros(sp.n_velocity)
    for d in (1, 2):
        u = sp.velocity_from_modes([(n_modes, n_modes, d, 1.0)])
        assert abs(sp.l4_norm(u) / (9.0 / 4.0) ** 0.25 - 1.0) <= 1e-14
        lady = [lhs for lemma, lhs, *_ in sample_checks(sp, u, z, z, 1.0) if lemma == "ladyzhenskaya"]
        assert abs(lady[d - 1] ** 0.25 / (9.0 / 4.0) ** 0.25 - 1.0) <= 1e-14


def test_divergence_examples(spaces3):
    # the step's divergence map, Div u = div_diagonal * u coefficient-wise
    zero = spaces3.div_diagonal * np.zeros(spaces3.n_velocity)
    assert np.all(zero == 0.0)

    u = spaces3.velocity_from_modes([(1, 2, 1, 1.0)])
    d = spaces3.div_diagonal * u
    expected = np.zeros(spaces3.n_pressure)
    expected[spaces3.pressure_index("cs", 1, 2)] = np.pi
    assert np.allclose(d, expected, atol=1e-14)


def test_divergence_norm_matches_oracle(spaces3, rng):
    u = sample_field(spaces3, rng)
    rule = orc.make_rule(48)
    fast = spaces3.divergence_l2(u)
    slow = np.sqrt(
        orc.oracle_integrate(lambda x, y: orc.oracle_divergence(u, x, y) ** 2, rule)
    )
    assert fast == pytest.approx(slow, rel=1e-10)


def _projected_stream_curl(spaces, a=1, b=1):
    """L2 projection of the divergence-free curl of the stream function
    2 sin(a pi x) sin(b pi y); the sin*cos component structure is not
    representable in the sine tensor basis, so the projection truncates."""
    rule = orc.make_rule(4 * spaces.n_modes + 16)
    n = spaces.n_modes
    coeffs = np.zeros(spaces.n_velocity)

    def u1(x, y):
        return 2.0 * b * np.pi * np.sin(a * np.pi * x) * np.cos(b * np.pi * y)

    def u2(x, y):
        return -2.0 * a * np.pi * np.cos(a * np.pi * x) * np.sin(b * np.pi * y)

    for idx, (j, k, d) in enumerate(orc.velocity_modes(n)):
        comp = u1 if d == 1 else u2
        coeffs[idx] = orc.oracle_integrate(
            lambda x, y: comp(x, y) * 2.0 * np.sin(j * np.pi * x) * np.sin(k * np.pi * y),
            rule,
        )
    return coeffs


def test_projected_curl_divergence_decays_with_cutoff():
    # The exactly divergence-free curl field lies outside the sine tensor
    # span at every finite cutoff; its projection keeps an O(1/sqrt(N))
    # divergence.  Assert the decay trend rather than a small absolute value.
    norms = []
    for n in (4, 8, 12):
        sp = build_spaces(n)
        u = _projected_stream_curl(sp)
        norms.append(sp.divergence_l2(u))
    assert norms[0] > norms[1] > norms[2] > 0.0


def _gradient_pairing(spaces, p):
    """Pairings <grad p, e_i> as the step forms them, through the duality
    <grad p, w> = -<p, Div w>: -div_diagonal * (G p)."""
    return -spaces.div_diagonal * spaces.gram_product(p)


def test_gradient_pairing_zero_pressure(spaces3):
    p = np.zeros(spaces3.n_pressure)
    assert np.all(_gradient_pairing(spaces3, p) == 0.0)


def test_gradient_pairing_of_divergence_matches_operator_column(spaces3, dense_grad_div):
    e1 = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    p = spaces3.div_diagonal * e1
    pairing = -_gradient_pairing(spaces3, p)  # <p, Div e_i> over i
    column = dense_grad_div(spaces3)[:, spaces3.velocity_index(1, 1, 1)]
    assert np.allclose(pairing, column, atol=1e-10)


def test_gradient_divergence_duality_is_exact(spaces3, rng):
    p = rng.standard_normal(spaces3.n_pressure)
    grad = _gradient_pairing(spaces3, p)
    g_p = spaces3.gram_product(p)
    # <grad p, e_i> = -<p, Div e_i> on every basis function, with the pressure
    # pairing <p, q> = (G p) . q: Div e_i is one scaled pressure mode, so each
    # side is one rounded product and the two agree bit for bit
    for e_i in np.eye(spaces3.n_velocity):
        grad_pair = float(np.dot(grad, e_i))
        div_pair = float(np.dot(g_p, spaces3.div_diagonal * e_i))
        assert grad_pair == -div_pair


def test_gradient_divergence_duality_holds_to_round_off(spaces3, rng, dense_gram):
    p = rng.standard_normal(spaces3.n_pressure)
    w = sample_field(spaces3, rng)
    grad_pair = float(np.dot(_gradient_pairing(spaces3, p), w))
    div_pair = float(np.dot(p, dense_gram(spaces3) @ (spaces3.div_diagonal * w)))
    # <grad p, w> = -<p, Div w> for a general w, with Div w paired through the
    # dense Gram; the two sides sum in different orders, so they agree to
    # round-off, not bit for bit
    assert abs(grad_pair + div_pair) <= 1e-14 * abs(grad_pair)


def test_gradient_pairing_matches_oracle(spaces3, rng):
    p = rng.standard_normal(spaces3.n_pressure)
    w = sample_field(spaces3, rng)
    rule = orc.make_rule(48)
    grad_pair = float(np.dot(_gradient_pairing(spaces3, p), w))
    against = -orc.oracle_div_pairing(p, w, rule)
    assert grad_pair == pytest.approx(against, rel=1e-8, abs=1e-10)


def synthesize(spaces, u: np.ndarray, points) -> np.ndarray:
    """Pointwise values of the field at (x, y) points in [0, 1]^2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    j = np.arange(1, spaces.n_modes + 1, dtype=float)
    sx = np.sin(np.outer(j, np.pi * pts[:, 0]))
    sy = np.sin(np.outer(j, np.pi * pts[:, 1]))
    c = spaces._coeff_blocks(u)
    vals = 2.0 * np.einsum("jm,djk,km->md", sx, c, sy)
    return vals


def test_synthesize_examples(spaces3, rng):
    u = sample_field(spaces3, rng)
    boundary = synthesize(spaces3, u, [(0.0, 0.3), (1.0, 0.7), (0.5, 0.0), (0.2, 1.0)])
    assert np.abs(boundary).max() <= 1e-12 * max(l2_norm(u), 1.0)

    e = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    val = synthesize(spaces3, e, [(0.5, 0.5)])[0]
    assert val == pytest.approx([2.0, 0.0], abs=1e-14)


def test_synthesize_parseval_against_quadrature(spaces3, rng):
    u = sample_field(spaces3, rng)
    rule = orc.make_rule(40)
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()])
    vals = synthesize(spaces3, u, pts)
    w2d = np.outer(rule.weights, rule.weights).ravel()
    quad = np.sum((vals**2).sum(axis=1) * w2d)
    assert quad == pytest.approx(l2_norm(u) ** 2, rel=1e-10)


def test_stiffness_form_is_diagonal(spaces2):
    rule = orc.make_rule(32)
    n = spaces2.n_velocity
    for a in range(n):
        for b in range(a, n):
            ea = np.zeros(n)
            ea[a] = 1.0
            eb = np.zeros(n)
            eb[b] = 1.0
            val = orc.oracle_gradient_inner(ea, eb, rule)
            if a == b:
                j, k, _ = orc.velocity_modes(2)[a]
                assert val == pytest.approx(np.pi**2 * (j**2 + k**2), rel=1e-12)
            else:
                assert abs(val) <= 1e-10


def test_pressure_l2_positive_semidefinite(spaces8, rng):
    for _ in range(5):
        p = rng.standard_normal(spaces8.n_pressure)
        assert spaces8.pressure_l2(p) >= 0.0
