"""Deterministic force and additive trace-class Wiener noise.

Noise increments are generated counter-based: each (seed, path, step) triple
keys its own Philox stream, so a draw is a pure function of that triple and
Monte Carlo scheduling or parallelism cannot change results.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from itertools import permutations
from operator import index

import numpy as np

from .spaces import ConfigurationError, SpectralSpaces


@dataclass(frozen=True)
class DeterministicForce:
    """Time-invariant force as a velocity coefficient vector."""

    coeffs: np.ndarray

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class NoiseModel:
    """Finite family of velocity-space noise modes g_k."""

    modes: np.ndarray  # shape (K, n_velocity)
    trace: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "trace", float(np.sum(self.modes * self.modes)))

    @property
    def n_terms(self) -> int:
        return self.modes.shape[0]


def empty_noise(spaces: SpectralSpaces) -> NoiseModel:
    return NoiseModel(np.zeros((0, spaces.n_velocity)))


def noise_from_modes(spaces: SpectralSpaces, entries) -> NoiseModel:
    """One noise term per (j, k, d, amplitude) entry."""
    rows = []
    for j, k, d, amp in entries:
        f = spaces.velocity_from_modes([(j, k, d, amp)])
        rows.append(f.coeffs)
    if len(rows) > spaces.n_velocity:
        raise ValueError(
            f"{len(rows)} noise terms exceed the {spaces.n_velocity}-dimensional space"
        )
    if not rows:
        return empty_noise(spaces)
    return NoiseModel(np.array(rows))


def default_noise(spaces: SpectralSpaces, trace: float = 0.01, n_terms: int = 8) -> NoiseModel:
    """Lowest-mode noise with |g_k|^2 proportional to (j^2+k^2)^-2,
    normalised to the requested covariance trace."""
    if n_terms < 0:
        raise ConfigurationError(f"noise.n_terms must be nonnegative, got {n_terms!r}")
    order = sorted(
        range(spaces.n_velocity),
        key=lambda i: (
            spaces.velocity_enumeration[i].j ** 2 + spaces.velocity_enumeration[i].k ** 2,
            i,
        ),
    )
    chosen = order[: min(n_terms, spaces.n_velocity)]
    weights = np.array(
        [
            float(
                spaces.velocity_enumeration[i].j ** 2
                + spaces.velocity_enumeration[i].k ** 2
            )
            ** -2
            for i in chosen
        ]
    )
    if trace < 0:
        raise ConfigurationError(f"noise.trace must be nonnegative, got {trace!r}")
    amps = np.sqrt(trace * weights / np.sum(weights))
    rows = np.zeros((len(chosen), spaces.n_velocity))
    for row, (i, a) in enumerate(zip(chosen, amps)):
        rows[row, i] = a
    return NoiseModel(rows)


def sample_increment(noise: NoiseModel, dt: float, seed_path: tuple) -> np.ndarray:
    """Draw dW_k ~ N(0, dt) i.i.d., keyed by (seed, path, step): the normals
    of ``Philox(SeedSequence(seed, spawn_key=(path, step)))``.  A sequence of
    paths gives the draw a row per path, each the draw of its own key, and a
    sequence of steps a leading step axis before the paths'.  The keys of
    just these steps and paths are derived, by one :func:`philox_keys` call."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    seed, path, step = seed_path
    seed, paths, steps = index(seed), np.atleast_1d(path).tolist(), np.atleast_1d(step).tolist()
    if min(seed, *steps, *paths) < 0:
        raise ValueError("seed, path and step must be nonnegative")
    rows = np.zeros((len(steps), len(paths), noise.n_terms))
    if noise.n_terms:
        # one state dict for every re-key, its words Python ints: the
        # setter reads them one by one, and numpy scalars cost more
        state = {**_FRESH_PHILOX, "state": {"counter": [0] * 4, "key": None}}
        keys = philox_keys(seed, paths, steps).reshape(-1, 2)
        for row, key in zip(rows.reshape(-1, noise.n_terms), keys):
            state["state"]["key"] = key.tolist()
            _STREAM.bits.state = state
            _STREAM.normal(out=row)
    rows *= np.sqrt(dt)
    rows = rows if np.ndim(step) else rows[0]
    return rows if np.ndim(path) else rows[..., 0, :]


class _Stream(threading.local):
    """A Philox generator per thread, re-keyed for every draw."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.normal = np.random.Generator(self.bits).standard_normal


# Philox keys as numpy's SeedSequence derives them: hashmix and mix the seed
# words (padded to four), then the spawn key (path, step), into a pool of four
# 32-bit words.  The seed's part of the pool is hashed once per seed, on
# Python ints; the path and step words are mixed in on uint64 arrays of
# 32-bit words, a key per entry (products of two words fit, differences wrap
# mod 2^64).  The hash constants depend only on how many words were mixed,
# never on them, and a word updates each pool word from that pool word and
# its own hash alone, so its four updates are one pass over a (4, ...) array.
_STREAM = _Stream()
_MASK32 = 0xFFFFFFFF
_FRESH_PHILOX = dict(bit_generator="Philox", buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)
_MIX_MULT, _POOL_MULT, _WORD_MULT = 0x931E8875, 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value: int, const: int, mult: int = _MIX_MULT) -> tuple[int, int]:
    after = const * mult & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ value >> 16, after


def _mix(pool: list[int], dst: int, word: int, const: int) -> int:
    hashed, const = _hashmix(word, const)
    mixed = (_POOL_MULT * pool[dst] - _WORD_MULT * hashed) & _MASK32
    pool[dst] = mixed ^ mixed >> 16
    return const


@functools.cache
def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """The pool after the seed's words, a (4, 1) uint64 array, and the hash
    constant after it."""
    words, pool, const = _words(seed), [], 0x43B0D7E5
    for word in (words + [0, 0, 0])[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src, dst in permutations(range(4), 2):
        const = _mix(pool, dst, pool[src], const)
    for word in words[4:]:
        for dst in range(4):
            const = _mix(pool, dst, word, const)
    pool = np.array(pool, dtype=np.uint64)[:, None]
    pool.flags.writeable = False
    return pool, const


def _hashed(values: np.ndarray, const: int, mult: int = _MIX_MULT) -> tuple[np.ndarray, int]:
    """_hashmix of ``values`` under four successive hash constants, stacked
    on a new leading axis, and the constant after them."""
    consts = [const]
    for _ in range(4):
        consts.append(consts[-1] * mult & _MASK32)
    c = np.array(consts, dtype=np.uint64).reshape((5,) + (1,) * (np.ndim(values) - 1))
    hashed = (values ^ c[:4]) * c[1:] & _MASK32
    hashed ^= hashed >> 16
    return hashed, consts[4]


def _mixed(pool: np.ndarray, const: int, words) -> tuple[np.ndarray, int]:
    """The (4, ...) pool after mixing in each word, an array broadcasting
    against the pool's trailing axes, and the hash constant after it."""
    for word in words:
        hashed, const = _hashed(word[None], const)
        pool = (_POOL_MULT * pool - _WORD_MULT * hashed) & _MASK32
        pool ^= pool >> 16
    return pool, const


def _word_groups(values: np.ndarray):
    """(rows, words) for the uint64 values of each word count: one 32-bit
    word below 2^32, two from there on, low word first.  Values that all
    have one word are one group, and its rows a slice."""
    two_words = values > _MASK32
    if not two_words.any():
        yield slice(None), [values]
        return
    for n_words, rows in ((1, ~two_words), (2, two_words)):
        if rows.any():
            shifts = np.arange(0, 32 * n_words, 32, dtype=np.uint64)
            yield rows, [values[rows] >> s & np.uint64(_MASK32) for s in shifts]


def philox_keys(seed: int, paths, steps) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=(path, step))`` for every
    step and path, shape (len(steps), len(paths), 2), in uint64 arithmetic;
    :func:`sample_increment` takes its rows' keys from here."""
    seed_pool, seed_const = _seed_pool(index(seed))
    paths = np.array([index(p) for p in paths], dtype=np.uint64)
    steps = np.asarray(steps, dtype=np.uint64).reshape(-1)
    keys = np.empty((len(steps), len(paths), 2), dtype=np.uint64)
    for path_rows, path_words in _word_groups(paths):
        pool, path_const = _mixed(seed_pool, seed_const, path_words)
        for step_rows, step_words in _word_groups(steps):
            spawned, _ = _mixed(pool[:, None, :], path_const, [w[:, None] for w in step_words])
            state = _hashed(spawned, 0x8B51F9DD, 0x58F38DED)[0]
            rows = (step_rows, path_rows)
            if not any(isinstance(r, slice) for r in rows):  # two masks
                rows = np.ix_(*rows)
            keys[rows] = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)
    return keys


def noise_contribution(noise: NoiseModel, dw: np.ndarray) -> np.ndarray:
    """Coefficient increment sum_k g_k dW_k; increments with one row of dW
    per path give one row per path, each bit-identical to its own call."""
    if dw.shape[-1] != noise.n_terms:
        raise ValueError(
            f"increment has {dw.shape[-1]} terms, noise model has {noise.n_terms}"
        )
    if noise.n_terms == 0:
        return np.zeros(dw.shape[:-1] + (noise.modes.shape[1],))
    return (noise.modes.T @ dw[..., None])[..., 0]
