import numpy as np
import pytest

from acflow import build_spaces, h10_norm, l2_norm
from acflow.spaces import SpectralSpaces, VelocityField
from acflow import operators as ops
import oracle as orc


def _scale(*fields):
    s = 1.0
    for f in fields:
        s *= max(h10_norm(f), 1.0)
    return s


def test_stokes_apply_examples(spaces3, stokes_apply):
    zero = stokes_apply(spaces3.zero_velocity(), 1.0)
    assert np.all(zero == 0.0)

    e = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    dual = stokes_apply(e, 1.0)
    expected = np.zeros(spaces3.n_velocity)
    expected[spaces3.velocity_index(1, 1, 1)] = 2.0 * np.pi**2
    assert np.allclose(dual, expected, rtol=0, atol=1e-12)


def test_stokes_pairing_is_h10_norm(spaces3, rng, stokes_apply):
    u = ops.sample_field(spaces3, rng)
    nu = 0.37
    dual = stokes_apply(u, nu)
    assert float(np.dot(dual, u.coeffs)) == pytest.approx(nu * h10_norm(u) ** 2, rel=1e-13)


def test_stokes_rejects_bad_viscosity(spaces3, stokes_apply):
    with pytest.raises(ValueError):
        stokes_apply(spaces3.zero_velocity(), 0.0)


def test_trilinear_null_pairings(spaces3, rng):
    u = ops.sample_field(spaces3, rng)
    v = ops.sample_field(spaces3, rng)
    assert abs(ops.trilinear_bhat(spaces3, u, v, v)) <= 1e-12 * _scale(u, v, v)
    assert abs(ops.trilinear_bhat(spaces3, u, u, u)) <= 1e-12 * _scale(u, u, u)


def test_trilinear_antisymmetry_exact(spaces3, rng):
    u = ops.sample_field(spaces3, rng)
    v = ops.sample_field(spaces3, rng)
    w = ops.sample_field(spaces3, rng)
    a = ops.trilinear_bhat(spaces3, u, v, w)
    b = ops.trilinear_bhat(spaces3, u, w, v)
    assert a == pytest.approx(-b, rel=1e-12, abs=1e-14 * _scale(u, v, w))


def test_trilinear_fixed_instance_matches_oracle(spaces2):
    u = spaces2.velocity_from_modes([(1, 1, 1, 0.8), (2, 2, 2, -0.5)])
    v = spaces2.velocity_from_modes([(1, 2, 2, 1.1), (2, 1, 1, 0.4)])
    w = spaces2.velocity_from_modes([(2, 1, 2, -0.9), (1, 1, 1, 0.3)])
    fast = ops.trilinear_bhat(spaces2, u, v, w)
    slow = orc.oracle_trilinear(u, v, w, orc.make_rule(32))
    assert fast == pytest.approx(slow, rel=1e-8)


def test_trilinear_requires_matching_cutoff(spaces2, spaces3):
    u = spaces3.zero_velocity()
    with pytest.raises(ValueError):
        ops.trilinear_bhat(spaces2, u, u, u)


def test_bhat_operator_examples(spaces3, rng):
    zero = ops.bhat_operator(spaces3, spaces3.zero_velocity())
    assert np.all(zero == 0.0)

    u = ops.sample_field(spaces3, rng)
    dual = ops.bhat_operator(spaces3, u)
    assert abs(float(np.dot(dual, u.coeffs))) <= 1e-12 * _scale(u, u, u)


def test_bhat_operator_matches_trilinear_components(spaces3, rng):
    # same integrand algebra, different contraction order: agreement is at
    # summation round-off, far inside every downstream tolerance
    u = ops.sample_field(spaces3, rng)
    dual = ops.bhat_operator(spaces3, u)
    tol = 1e-13 * _scale(u, u, u)
    for i in range(spaces3.n_velocity):
        e = np.zeros(spaces3.n_velocity)
        e[i] = 1.0
        direct = ops.trilinear_bhat(spaces3, u, u, VelocityField(e, spaces3.n_modes))
        assert abs(dual[i] - direct) <= tol


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_bhat_operator_matches_closed_form_oracle(n_modes):
    # the midpoint grid integrates every term exactly, so the pairings
    # equal the grid-free closed forms up to round-off
    sp = build_spaces(n_modes)
    rng = np.random.default_rng(n_modes)
    for _ in range(4):
        u = ops.sample_field(sp, rng)
        want = orc.oracle_bhat_pairings(u)
        assert np.abs(ops.bhat_operator(sp, u) - want).max() <= 1e-13 * _scale(u, u, u)


def test_ladyzhenskaya_examples(spaces3):
    zero = ops.check_ladyzhenskaya(spaces3, spaces3.zero_velocity())
    assert zero[0] == (0.0, 0.0) and zero[1] == (0.0, 0.0)

    u = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    lhs, rhs = ops.check_ladyzhenskaya(spaces3, u)[0]
    assert lhs == pytest.approx(9.0 / 4.0, rel=1e-12)
    assert rhs == pytest.approx(4.0 * np.pi**2, rel=1e-12)
    assert lhs < rhs


def test_ladyzhenskaya_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            for lhs, rhs in ops.check_ladyzhenskaya(sp, u):
                assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_product_l1_randomized(rng):
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            lhs, rhs = ops.check_product_l1(sp, u, v)
            assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_convection_bound_examples(spaces3, rng):
    lhs, rhs = ops.check_convection_bound(spaces3, spaces3.zero_velocity(), spaces3.zero_velocity())
    assert (lhs, rhs) == (0.0, 0.0)

    u = ops.sample_field(spaces3, rng)
    lhs, rhs = ops.check_convection_bound(spaces3, u, u)
    assert lhs <= 1e-12 * _scale(u, u, u)
    assert lhs <= rhs


def test_convection_bound_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            w = ops.sample_field(sp, rng)
            lhs, rhs = ops.check_convection_bound(sp, u, w)
            assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_difference_bound_examples(spaces3, rng):
    u = ops.sample_field(spaces3, rng)
    lhs, rhs = ops.check_convection_difference(spaces3, u, u, 0.1)
    assert lhs <= 1e-12 * _scale(u, u, u) and rhs == 0.0

    lhs, rhs = ops.check_convection_difference(spaces3, u, spaces3.zero_velocity(), 0.1)
    assert lhs <= 1e-12 * _scale(u, u, u)
    assert rhs == pytest.approx(0.05 * h10_norm(u) ** 2, rel=1e-12)


def test_difference_bound_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for nu in (0.05, 0.1, 1.0):
            for _ in range(20):
                u = ops.sample_field(sp, rng)
                v = ops.sample_field(sp, rng)
                lhs, rhs = ops.check_convection_difference(sp, u, v, nu)
                assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_monotonicity_examples(spaces3, rng):
    u = ops.sample_field(spaces3, rng)
    rep = ops.monotonicity_margin(spaces3, u, u, 0.1, 1.0)
    assert rep.margin == 0.0
    assert rep.in_ball == (spaces3.l4_norm(u) <= 1.0)

    rep = ops.monotonicity_margin(spaces3, u, spaces3.zero_velocity(), 0.1, 0.0)
    assert rep.in_ball
    assert rep.margin == pytest.approx(0.05 * h10_norm(u) ** 2, rel=1e-9)
    recomputed = rep.stokes_term + rep.convection_term + rep.ball_term - rep.rhs
    assert rep.margin == pytest.approx(recomputed, abs=1e-15)


def test_monotonicity_randomized_in_ball(rng):
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            r = sp.l4_norm(v)
            rep = ops.monotonicity_margin(sp, u, v, 0.1, r)
            assert rep.in_ball
            assert rep.margin >= -1e-10 * _scale(u, v)


def check_ibp_identity(
    spaces: SpectralSpaces,
    u: VelocityField,
    v: VelocityField,
    w: VelocityField,
    quad_order: int | None = None,
) -> float:
    """Residual of the integration-by-parts identity
    <(u.grad)v, w> + <(Div u) w, v> + <(u.grad)w, v> = 0."""
    if quad_order is None:
        quad_order = spaces.default_quad_order
    g = spaces.grid(quad_order)
    uu = spaces._component_values(u, g)
    vv = spaces._component_values(v, g)
    ww = spaces._component_values(w, g)
    gv = spaces._component_gradients(v, g)
    gw = spaces._component_gradients(w, g)
    gu = spaces._component_gradients(u, g)
    div_u = gu[0][0] + gu[1][1]
    adv_v = uu[0] * gv[0] + uu[1] * gv[1]
    adv_w = uu[0] * gw[0] + uu[1] * gw[1]
    t1 = float(np.sum((adv_v[0] * ww[0] + adv_v[1] * ww[1]) * g.w2d))
    t2 = float(np.sum(div_u * (ww[0] * vv[0] + ww[1] * vv[1]) * g.w2d))
    t3 = float(np.sum((adv_w[0] * vv[0] + adv_w[1] * vv[1]) * g.w2d))
    return t1 + t2 + t3


def test_ibp_identity_examples(spaces3, rng):
    z = spaces3.zero_velocity()
    u = ops.sample_field(spaces3, rng)
    assert check_ibp_identity(spaces3, z, u, u) == 0.0
    assert abs(check_ibp_identity(spaces3, u, u, u)) <= 1e-10 * _scale(u, u, u)


def test_ibp_identity_randomized(rng):
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(50):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            w = ops.sample_field(sp, rng)
            res = check_ibp_identity(sp, u, v, w)
            assert abs(res) <= 1e-8 * _scale(u, v, w)


def test_difference_identity(rng):
    # <B(u) - B(v), u - v> = -<B(u - v), v>
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(30):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            w = VelocityField(u.coeffs - v.coeffs, n)
            left = ops.trilinear_bhat(sp, u, u, w) - ops.trilinear_bhat(sp, v, v, w)
            right = -ops.trilinear_bhat(sp, w, w, v)
            assert left == pytest.approx(right, abs=1e-10 * _scale(u, v))


def test_oracle_equivalence_sample(rng):
    rule = orc.make_rule(40)
    for n in (2, 3, 4):
        sp = build_spaces(n)
        for _ in range(8):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            w = ops.sample_field(sp, rng)
            assert l2_norm(u) == pytest.approx(orc.oracle_l2(u, rule), rel=1e-8)
            assert h10_norm(u) == pytest.approx(orc.oracle_h10(u, rule), rel=1e-8)
            assert sp.l4_norm(u) == pytest.approx(orc.oracle_l4(u, rule), rel=1e-8)
            fast = ops.trilinear_bhat(sp, u, v, w)
            slow = orc.oracle_trilinear(u, v, w, rule)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-10 * _scale(u, v, w))


def test_inequality_suite_smoke():
    rows, all_pass = ops.run_inequality_suite(24, seed=99)
    assert all_pass
    assert {r["lemma"] for r in rows} == {
        "product_l1",
        "ladyzhenskaya",
        "convection_bound",
        "convection_difference",
        "local_monotonicity",
        "null_self_pairing",
        "null_mixed_pairing",
    }
    for r in rows:
        assert r["pass"] and isinstance(r["seed"], int)


def test_sample_field_is_seeded(spaces3):
    a = ops.sample_field(spaces3, np.random.default_rng(5))
    b = ops.sample_field(spaces3, np.random.default_rng(5))
    assert np.array_equal(a.coeffs, b.coeffs)
