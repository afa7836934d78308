import numpy as np
import pytest

import oracle as orc
from acflow.operators import sample_field


def test_weights_sum_to_interval_length():
    for order in (2, 8, 16, 33):
        rule = orc.make_rule(order)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.weights > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))


def test_polynomial_exactness():
    # degree <= 2*order - 1 is integrated exactly
    for order in (2, 3, 5):
        rule = orc.make_rule(order)
        for deg in range(2 * order):
            exact = 1.0 / (deg + 1)
            got = float(np.sum(rule.weights * rule.nodes**deg))
            assert abs(got - exact) <= 1e-13


def test_integrate_examples():
    rule = orc.make_rule(16)
    assert orc.oracle_integrate(lambda x, y: np.ones_like(x), rule) == pytest.approx(
        1.0, abs=1e-14
    )
    val = orc.oracle_integrate(
        lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2, rule
    )
    assert val == pytest.approx(0.25, abs=1e-12)
    rule2 = orc.make_rule(2)
    assert orc.oracle_integrate(lambda x, y: x**2 * y**2, rule2) == pytest.approx(
        1.0 / 9.0, abs=1e-14
    )


def test_order_doubling_certificate(spaces3, rng):
    u = sample_field(spaces3, rng)
    base = orc.oracle_l4(u, orc.make_rule(24))
    doubled = orc.oracle_l4(u, orc.make_rule(48))
    assert abs(base - doubled) <= 1e-9 * abs(doubled)


def test_trilinear_zero_arguments(spaces3, rng):
    u = sample_field(spaces3, rng)
    z = spaces3.zero_velocity()
    rule = orc.make_rule(32)
    assert orc.oracle_trilinear(z, u, u, rule) == 0.0
    assert orc.oracle_trilinear(u, z, u, rule) == 0.0
    assert orc.oracle_trilinear(u, u, z, rule) == 0.0


def test_trilinear_swap_antisymmetry(spaces3, rng):
    u = sample_field(spaces3, rng)
    v = sample_field(spaces3, rng)
    w = sample_field(spaces3, rng)
    rule = orc.make_rule(32)
    assert orc.oracle_trilinear(u, v, w, rule) == pytest.approx(
        -orc.oracle_trilinear(u, w, v, rule), rel=1e-13, abs=1e-15
    )
