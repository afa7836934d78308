import numpy as np
import pytest

from acflow.forcing import (
    NoiseModel,
    default_noise,
    empty_noise,
    noise_contribution,
    noise_from_modes,
    sample_increment,
)


def test_trace_examples(spaces3):
    assert empty_noise(spaces3).trace == 0.0

    g = noise_from_modes(spaces3, [(1, 1, 1, 0.5)])
    assert g.trace == pytest.approx(0.25, abs=1e-15)

    g2 = noise_from_modes(
        spaces3, [(1, 1, 1, np.sqrt(0.1)), (2, 1, 2, np.sqrt(0.2))]
    )
    assert g2.trace == pytest.approx(0.3, abs=1e-14)


def test_default_noise_normalisation(spaces8):
    g = default_noise(spaces8, trace=0.01, n_terms=8)
    assert g.n_terms == 8
    assert g.n_terms <= spaces8.n_velocity
    assert g.trace == pytest.approx(0.01, rel=1e-12)


def test_default_noise_takes_the_lowest_shells(spaces3):
    # at N=3 the shells j^2 + k^2 = 2, 5, 8 hold 2, 4 and 2 modes; ties go
    # in index order, component 1's (j, k) at 3 (j - 1) + k - 1, component
    # 2's nine places on, and |g_k|^2 follows (j^2 + k^2)^-2
    g = default_noise(spaces3, trace=1.0, n_terms=8)
    assert [int(np.flatnonzero(row)[0]) for row in g.modes] == [0, 9, 1, 3, 10, 12, 4, 13]
    weights = np.array([float(s) ** -2 for s in (2, 2, 5, 5, 5, 5, 8, 8)])
    assert g.modes[g.modes != 0].tobytes() == np.sqrt(weights / np.sum(weights)).tobytes()


def test_increment_determinism(spaces3):
    g = default_noise(spaces3, trace=0.01, n_terms=4)
    a = sample_increment(g, 1e-3, (42, 7, 19))
    b = sample_increment(g, 1e-3, (42, 7, 19))
    assert np.array_equal(a, b)
    c = sample_increment(g, 1e-3, (42, 7, 20))
    assert not np.array_equal(a, c)


def test_increment_empty_noise(spaces3):
    g = empty_noise(spaces3)
    dw = sample_increment(g, 1e-3, (0, 0, 0))
    assert dw.shape == (0,)
    assert np.all(noise_contribution(g, dw) == 0.0)


def test_increment_rejects_bad_dt(spaces3):
    g = default_noise(spaces3, n_terms=2)
    with pytest.raises(ValueError):
        sample_increment(g, 0.0, (0, 0, 0))
    # seed, path and step are Philox key and counter words
    for seed_path in (
        (-1, 0, 0), (0, [0, -1], 0), (2**64, 0, 0), (0, 2**64, 0), (0, [1, 2**64], 0), (0, 0, 2**64),
    ):
        with pytest.raises(ValueError):
            sample_increment(g, 1e-3, seed_path)


def _block_draw(g, dt, seed, n):
    # step 0 of paths 0..n-1 as one block: the rows equal n single draws
    paths = range(n)
    return sample_increment(g, dt, (seed, paths, 0))


def test_increment_variance_matches_dt(spaces3):
    g = default_noise(spaces3, trace=0.01, n_terms=4)
    dt = 2e-3
    n = 100_000
    draws = _block_draw(g, dt, 1234, n)
    var = draws.var(axis=0, ddof=1)
    se = dt * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - dt) <= 3.0 * se)
    mean_se = np.sqrt(dt / n)
    assert np.all(np.abs(draws.mean(axis=0)) <= 3.0 * mean_se)


def test_contribution_examples(spaces3):
    g = noise_from_modes(spaces3, [(1, 1, 1, 0.5)])
    contrib = noise_contribution(g, np.zeros(1))
    assert np.all(contrib == 0.0)

    assert np.array_equal(noise_contribution(g, np.ones(1)), g.modes[0])


def test_contribution_linearity(spaces3, rng):
    g = default_noise(spaces3, n_terms=4)
    dw1 = rng.standard_normal(4)
    dw2 = rng.standard_normal(4)
    a, b = 1.7, -0.3
    lhs = noise_contribution(g, a * dw1 + b * dw2)
    rhs = a * noise_contribution(g, dw1) + b * noise_contribution(g, dw2)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)


def test_contribution_dimension_mismatch(spaces3):
    g = default_noise(spaces3, n_terms=4)
    with pytest.raises(ValueError):
        noise_contribution(g, np.zeros(3))


def test_contribution_moments(spaces3):
    g = default_noise(spaces3, trace=0.01, n_terms=4)
    dt = 1e-2
    n = 100_000
    contrib = noise_contribution(g, _block_draw(g, dt, 777, n))
    sq = np.einsum("ij,ij->i", contrib, contrib)
    mean = contrib.sum(axis=0) / n
    expected = g.trace * dt
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - expected) <= 3.0 * se
    assert np.abs(mean).max() <= 3.0 * np.sqrt(dt * g.modes.max() ** 2 / n) + 1e-6


def test_modes_live_in_galerkin_space(spaces3):
    g = default_noise(spaces3, n_terms=64)
    assert g.n_terms <= 2 * spaces3.n_modes**2


def test_increments_match_numpy_philox_streams(spaces3):
    # a draw is the normals of the Philox stream keyed by (seed, path) from
    # the step's counter, also for words past 32 and 63 bits, at the largest
    # seed and path and for a block of paths drawn in one call
    g = default_noise(spaces3, n_terms=5)
    paths = [0, 3, 2**32 - 1, 2**32, 2**40 + 7, 2**63 + 1, 2**64 - 1]
    for seed in (0, 12345, 2**32, 2**64 - 1):
        for step in (0, 499, 2**33 + 1):
            block = sample_increment(g, 1e-3, (seed, paths, step))
            assert block.shape == (len(paths), 5)
            for row, path in zip(block, paths):
                # uint64 words: numpy makes a list holding 2**64 - 1 floats
                key = np.array([seed, path], dtype=np.uint64)
                bits = np.random.Philox(key=key, counter=np.array([0, step, 0, 0], dtype=np.uint64))
                want = np.sqrt(1e-3) * np.random.Generator(bits).standard_normal(5)
                assert row.tobytes() == want.tobytes()
                assert sample_increment(g, 1e-3, (seed, path, step)).tobytes() == want.tobytes()


def test_first_normals_of_a_draw_are_pinned(spaces3):
    # numpy may change Philox or its ziggurat between releases; every noisy
    # output's bytes would then move, so pin two normals of one draw
    g = default_noise(spaces3, n_terms=2)
    z = sample_increment(g, 1.0, (12345, 3, 499))
    assert [float.hex(float(x)) for x in z] == ["0x1.14ad641943d92p+0", "-0x1.07bf415f0bf43p-2"]


@pytest.mark.parametrize("paths", [[4], [0, 3, 3], [5, 1, 1, 2, 7] * 4])
def test_multi_step_draw_equals_per_step_draws(spaces3, paths):
    # blocks of 1, 3 and 20 rows, rows sharing a path index among them
    g = default_noise(spaces3, n_terms=5)
    steps = range(6, 17)
    block = sample_increment(g, 2e-3, (99, paths, steps))
    assert block.shape == (len(steps), len(paths), 5)
    for i, step in enumerate(steps):
        single = sample_increment(g, 2e-3, (99, paths, step))
        assert block[i].tobytes() == single.tobytes()
    one_path = sample_increment(g, 2e-3, (99, paths[0], steps))
    assert one_path.tobytes() == block[:, 0].tobytes()


def test_multi_step_draw_of_empty_noise(spaces3):
    dw = sample_increment(empty_noise(spaces3), 1e-3, (1, [0, 2], range(4)))
    assert dw.shape == (4, 2, 0)
    # the product over zero terms is +0.0 everywhere, as np.zeros would be
    xi = noise_contribution(empty_noise(spaces3), dw)
    assert xi.shape == (4, 2, spaces3.n_velocity)
    assert not xi.any() and not np.signbit(xi).any()
