import numpy as np
import pytest

from acflow import build_spaces, h10_norm, l2_norm
from acflow.spaces import SpectralSpaces
from acflow import operators as ops
import oracle as orc


def _scale(*fields):
    s = 1.0
    for f in fields:
        s *= max(h10_norm(f), 1.0)
    return s


def test_stokes_apply_examples(spaces3, stokes_apply):
    zero = stokes_apply(np.zeros(spaces3.n_velocity), 1.0)
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
    assert float(np.dot(dual, u)) == pytest.approx(nu * h10_norm(u) ** 2, rel=1e-13)


def test_stokes_rejects_bad_viscosity(spaces3, stokes_apply):
    with pytest.raises(ValueError):
        stokes_apply(np.zeros(spaces3.n_velocity), 0.0)


def test_trilinear_null_pairings(spaces3, rng, polarised_pairing):
    # b(u, u, u) = <B(u), u> and b(u, v, v) = P(u, v) . v + <B(v), u>, with
    # P(u, v) . w = b(u, v, w) + b(v, u, w) and b(v, u, v) = -<B(v), u>
    u = ops.sample_field(spaces3, rng)
    v = ops.sample_field(spaces3, rng)
    mixed = polarised_pairing(spaces3, u, v, v) + float(ops.bhat_operator(spaces3, v) @ u)
    assert abs(mixed) <= 1e-12 * _scale(u, v, v)
    assert abs(float(ops.bhat_operator(spaces3, u) @ u)) <= 1e-12 * _scale(u, u, u)


def test_trilinear_antisymmetry_exact(spaces3, rng, polarised_pairing):
    # b(u, v, w) = -b(u, w, v) makes the cyclic sum of the symmetrised form
    # P(u, v) . w = b(u, v, w) + b(v, u, w) vanish
    u = ops.sample_field(spaces3, rng)
    v = ops.sample_field(spaces3, rng)
    w = ops.sample_field(spaces3, rng)
    cyclic = (
        polarised_pairing(spaces3, u, v, w)
        + polarised_pairing(spaces3, v, w, u)
        + polarised_pairing(spaces3, w, u, v)
    )
    assert abs(cyclic) <= 1e-12 * _scale(u, v, w)


def test_trilinear_fixed_instance_matches_oracle(spaces2, polarised_pairing):
    u = spaces2.velocity_from_modes([(1, 1, 1, 0.8), (2, 2, 2, -0.5)])
    v = spaces2.velocity_from_modes([(1, 2, 2, 1.1), (2, 1, 1, 0.4)])
    w = spaces2.velocity_from_modes([(2, 1, 2, -0.9), (1, 1, 1, 0.3)])
    rule = orc.make_rule(32)
    fast = float(ops.bhat_operator(spaces2, u) @ w)
    assert fast == pytest.approx(orc.oracle_trilinear(u, u, w, rule), rel=1e-8)
    slow = orc.oracle_trilinear(u, v, w, rule) + orc.oracle_trilinear(v, u, w, rule)
    assert polarised_pairing(spaces2, u, v, w) == pytest.approx(slow, rel=1e-8)


def test_bhat_operator_examples(spaces3, rng):
    zero = ops.bhat_operator(spaces3, np.zeros(spaces3.n_velocity))
    assert np.all(zero == 0.0)

    u = ops.sample_field(spaces3, rng)
    dual = ops.bhat_operator(spaces3, u)
    assert abs(float(np.dot(dual, u))) <= 1e-12 * _scale(u, u, u)


def test_bhat_operator_matches_trilinear_components(spaces3, rng):
    # the oracle's mode-by-mode Gauss quadrature of b(u, u, e_i) resolves
    # the form to round-off, far inside every downstream tolerance
    u = ops.sample_field(spaces3, rng)
    dual = ops.bhat_operator(spaces3, u)
    rule = orc.make_rule(40)
    tol = 1e-13 * _scale(u, u, u)
    for i, e in enumerate(np.eye(spaces3.n_velocity)):
        direct = orc.oracle_trilinear(u, u, e, rule)
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


def _checks(sp, u, v=None, w=None, nu=0.1):
    """The rows of sample_checks by lemma, a list of (lhs, rhs, pass) each;
    v and w default to the zero field."""
    z = np.zeros(sp.n_velocity)
    out = {}
    for lemma, lhs, rhs, ok in ops.sample_checks(sp, u, z if v is None else v, z if w is None else w, nu):
        out.setdefault(lemma, []).append((lhs, rhs, ok))
    return out


def test_ladyzhenskaya_examples(spaces3):
    zero = _checks(spaces3, np.zeros(spaces3.n_velocity))["ladyzhenskaya"]
    assert zero == [(0.0, 0.0, True), (0.0, 0.0, True)]

    u = spaces3.velocity_from_modes([(1, 1, 1, 1.0)])
    lhs, rhs, ok = _checks(spaces3, u)["ladyzhenskaya"][0]
    assert lhs == pytest.approx(9.0 / 4.0, rel=1e-12)
    assert rhs == pytest.approx(4.0 * np.pi**2, rel=1e-12)
    assert lhs < rhs and ok


def test_ladyzhenskaya_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            for lhs, rhs, ok in _checks(sp, u)["ladyzhenskaya"]:
                assert lhs <= rhs * (1 + 1e-12) + 1e-14 and ok


def test_product_l1_randomized(rng):
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            lhs, rhs = ops.check_product_l1(sp, u, v)
            assert lhs <= rhs * (1 + 1e-12) + 1e-14


@pytest.mark.parametrize("n_modes", [2, 4, 6])
def test_product_l1_lhs_is_exact(n_modes):
    # ||phi psi||^2 is a cosine polynomial of degree at most 4N in each
    # variable, which the 4N + 8 midpoint nodes integrate exactly: it equals
    # the oracle's Gauss-Legendre quadrature to round-off
    sp = build_spaces(n_modes)
    rng = np.random.default_rng(n_modes)
    rule = orc.make_rule(8 * n_modes + 16)
    for _ in range(4):
        u = ops.sample_field(sp, rng)
        v = ops.sample_field(sp, rng)

        def square(x, y):
            return (orc.velocity_values(u, x, y)[0] * orc.velocity_values(v, x, y)[1]) ** 2

        lhs, _ = ops.check_product_l1(sp, u, v)
        assert lhs == pytest.approx(orc.oracle_integrate(square, rule), rel=1e-13, abs=0)


def test_convection_bound_examples(spaces3, rng):
    zero = _checks(spaces3, np.zeros(spaces3.n_velocity))["convection_bound"]
    assert zero == [(0.0, 0.0, True)]

    u = ops.sample_field(spaces3, rng)
    [(lhs, rhs, ok)] = _checks(spaces3, u, w=u)["convection_bound"]
    assert lhs <= 1e-12 * _scale(u, u, u)
    assert lhs <= rhs and ok


def test_convection_bound_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            w = ops.sample_field(sp, rng)
            [(lhs, rhs, ok)] = _checks(sp, u, w=w)["convection_bound"]
            assert lhs <= rhs * (1 + 1e-12) + 1e-14 and ok


def test_difference_bound_examples(spaces3, rng):
    u = ops.sample_field(spaces3, rng)
    [(lhs, rhs, _)] = _checks(spaces3, u, u)["convection_difference"]
    assert lhs <= 1e-12 * _scale(u, u, u) and rhs == 0.0

    [(lhs, rhs, _)] = _checks(spaces3, u)["convection_difference"]
    assert lhs <= 1e-12 * _scale(u, u, u)
    assert rhs == pytest.approx(0.05 * h10_norm(u) ** 2, rel=1e-12)


def test_difference_bound_randomized(rng):
    for n in (2, 4, 6):
        sp = build_spaces(n)
        for nu in (0.05, 0.1, 1.0):
            for _ in range(20):
                u = ops.sample_field(sp, rng)
                v = ops.sample_field(sp, rng)
                [(lhs, rhs, ok)] = _checks(sp, u, v, nu=nu)["convection_difference"]
                assert lhs <= rhs * (1 + 1e-12) + 1e-14 and ok


def test_monotonicity_examples(spaces3, rng):
    # the row is ((nu/2) ||u-v||^2 - ball - convection, nu ||u-v||^2), so
    # its margin rhs - lhs is the monotonicity margin
    u = ops.sample_field(spaces3, rng)
    assert _checks(spaces3, u, u)["local_monotonicity"] == [(0.0, 0.0, True)]

    [(lhs, rhs, ok)] = _checks(spaces3, u)["local_monotonicity"]
    assert ok
    assert rhs - lhs == pytest.approx(0.05 * h10_norm(u) ** 2, rel=1e-9)
    with pytest.raises(ValueError):
        ops.sample_checks(spaces3, u, u, u, 0.0)


def test_monotonicity_randomized_in_ball(rng):
    # the ball's radius is ||v||_L4, so v is always in it
    for n in (2, 4):
        sp = build_spaces(n)
        for _ in range(60):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            [(lhs, rhs, ok)] = _checks(sp, u, v)["local_monotonicity"]
            assert ok
            assert rhs - lhs >= -1e-10 * _scale(u, v)


def check_ibp_identity(spaces: SpectralSpaces, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Residual of the integration-by-parts identity
    <(u.grad)v, w> + <(Div u) w, v> + <(u.grad)w, v> = 0, evaluated mode by
    mode on the oracle's Gauss-Legendre rule of 4N + 8 nodes."""

    def integrand(x, y):
        uu, vv, ww = (orc.velocity_values(f, x, y) for f in (u, v, w))
        gu, gv, gw = (orc.velocity_gradients(f, x, y) for f in (u, v, w))
        div_u = gu[0][0] + gu[1][1]
        return sum(
            sum(uu[i] * (gv[i][d] * ww[d] + gw[i][d] * vv[d]) for i in range(2))
            + div_u * ww[d] * vv[d]
            for d in range(2)
        )

    return orc.oracle_integrate(integrand, orc.make_rule(4 * spaces.n_modes + 8))


def test_ibp_identity_examples(spaces3, rng):
    z = np.zeros(spaces3.n_velocity)
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
    # <B(u) - B(v), u - v> = -<B(u - v), v>: the monotonicity check's
    # convection term against the oracle's quadrature of the right side
    for n in (2, 4):
        sp = build_spaces(n)
        rule = orc.make_rule(4 * n + 8)
        for _ in range(30):
            u = ops.sample_field(sp, rng)
            v = ops.sample_field(sp, rng)
            w = u - v
            left = float((ops.bhat_operator(sp, u) - ops.bhat_operator(sp, v)) @ w)
            right = -orc.oracle_trilinear(w, w, v, rule)
            assert left == pytest.approx(right, abs=1e-10 * _scale(u, v))


def test_oracle_equivalence_sample(rng, polarised_pairing):
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
            fast = float(ops.bhat_operator(sp, u) @ w)
            slow = orc.oracle_trilinear(u, u, w, rule)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-10 * _scale(u, u, w))
            fast = polarised_pairing(sp, u, v, w)
            slow = orc.oracle_trilinear(u, v, w, rule) + orc.oracle_trilinear(v, u, w, rule)
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


def test_inequality_suite_reads_the_step_pairing(monkeypatch):
    # B(u) + 1e-3 u breaks <B(u), u> = 0, which a rescaling of B would not:
    # the null pairings fail only if the suite pairs through bhat_operator
    step = ops.bhat_operator
    monkeypatch.setattr(
        ops,
        "bhat_operator",
        lambda spaces, u, *args, **kwargs: step(spaces, u, *args, **kwargs) + 1e-3 * u,
    )
    rows, all_pass = ops.run_inequality_suite(6, seed=99)
    assert not all_pass
    for lemma in ("null_self_pairing", "null_mixed_pairing"):
        verdicts = [r["pass"] for r in rows if r["lemma"] == lemma]
        assert len(verdicts) == 6 and not any(verdicts), lemma


def test_inequality_suite_pairs_through_the_l4_workspace(monkeypatch):
    # an l4_norm that returns the right norms but leaves the grid values of
    # the block's rows rolled by one in the workspace: the convection then
    # reads them, as a step's does, and the null pairings fail
    l4_norm = SpectralSpaces.l4_norm

    def rolled(self, u, work=None):
        norms = l4_norm(self, u)
        if work is not None:
            l4_norm(self, np.roll(u, 1, axis=0), work=work)
        return norms

    monkeypatch.setattr(SpectralSpaces, "l4_norm", rolled)
    rows, all_pass = ops.run_inequality_suite(6, seed=99)
    assert not all_pass
    for lemma in ("null_self_pairing", "null_mixed_pairing"):
        verdicts = [r["pass"] for r in rows if r["lemma"] == lemma]
        assert len(verdicts) == 6 and not any(verdicts), lemma


def test_inequality_suite_rows_rebuilt_from_seed_and_index():
    # any one sample's rows follow from (seed, index) alone, bit for bit
    cutoffs, viscosities = (2, 4, 6), (0.05, 0.1, 1.0)
    rows, _ = ops.run_inequality_suite(12, seed=2718, cutoffs=cutoffs, viscosities=viscosities)
    per_sample = len(rows) // 12
    for i in (0, 5, 11):
        sp = build_spaces(cutoffs[i % 3])
        nu = viscosities[(i // 3) % 3]
        rng = np.random.default_rng(np.random.SeedSequence(2718, spawn_key=(i,)))
        u, v, w = (ops.sample_field(sp, rng) for _ in range(3))
        want = [
            (r["lemma"], r["lhs"].hex(), r["rhs"].hex(), r["pass"])
            for r in rows[i * per_sample : (i + 1) * per_sample]
        ]
        got = [(lemma, lhs.hex(), rhs.hex(), ok) for lemma, lhs, rhs, ok in ops.sample_checks(sp, u, v, w, nu)]
        assert all(r["seed"] == i for r in rows[i * per_sample : (i + 1) * per_sample])
        assert got == want, i


def test_sample_field_is_seeded(spaces3):
    a = ops.sample_field(spaces3, np.random.default_rng(5))
    b = ops.sample_field(spaces3, np.random.default_rng(5))
    assert np.array_equal(a, b)
