import numpy as np
import pytest

from acflow.forcing import (
    NoiseModel,
    default_noise,
    empty_noise,
    noise_contribution,
    noise_from_modes,
    philox_keys,
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


def test_increments_match_numpy_seed_sequence_streams(spaces3):
    # a draw is the Philox stream of SeedSequence(seed, spawn_key=(path, step)),
    # also for words past 32 bits and for a block of paths drawn in one call
    g = default_noise(spaces3, n_terms=5)
    paths = [0, 3, 2**32 - 1, 2**32, 2**40 + 7]
    for seed in (0, 12345, 2**32, 2**64 - 1):
        for step in (0, 499, 2**33 + 1):
            block = sample_increment(g, 1e-3, (seed, paths, step))
            assert block.shape == (len(paths), 5)
            for row, path in zip(block, paths):
                seq = np.random.SeedSequence(seed, spawn_key=(path, step))
                normal = np.random.Generator(np.random.Philox(seq)).standard_normal
                want = np.sqrt(1e-3) * normal(5)
                assert row.tobytes() == want.tobytes()
                assert sample_increment(g, 1e-3, (seed, path, step)).tobytes() == want.tobytes()


def test_key_table_matches_numpy_seed_sequence_keys(spaces3):
    # words past 32 bits in seed and path, and one- and two-word steps in one
    # table
    paths = [0, 5, 2**32 - 1, 2**32, 2**40 + 7]
    steps = [0, 1, 499, 2**32 - 1, 2**32, 2**33 + 1]
    for seed in (0, 12345, 2**32 + 9, 2**64 - 1):
        table = philox_keys(seed, paths, steps)
        assert table.shape == (len(steps), len(paths), 2) and table.dtype == np.uint64
        for i, step in enumerate(steps):
            for j, path in enumerate(paths):
                seq = np.random.SeedSequence(seed, spawn_key=(path, step))
                want = np.random.Philox(seq).state["state"]["key"]
                assert table[i, j].tobytes() == want.tobytes()


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
    assert noise_contribution(empty_noise(spaces3), dw).shape == (4, 2, spaces3.n_velocity)
