"""Deterministic force and additive trace-class Wiener noise.

Noise increments are generated counter-based: each (seed, path, step) triple
keys its own Philox stream, so a draw is a pure function of that triple and
Monte Carlo scheduling or parallelism cannot change results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import index

import numpy as np

from .spaces import SpectralSpaces


@dataclass(frozen=True)
class DeterministicForce:
    """Time-invariant force as a velocity coefficient vector."""

    coeffs: np.ndarray

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class WienerIncrement:
    """One step of Wiener increments together with its provenance triple."""

    dw: np.ndarray
    dt: float
    seed_path: tuple[int, int, int]  # (seed, path index, step index)


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
        raise ValueError("noise trace must be nonnegative")
    amps = np.sqrt(trace * weights / np.sum(weights))
    rows = np.zeros((len(chosen), spaces.n_velocity))
    for row, (i, a) in enumerate(zip(chosen, amps)):
        rows[row, i] = a
    return NoiseModel(rows)


def sample_increment(
    noise: NoiseModel, dt: float, seed_path: tuple[int, int, int], keys=None
) -> WienerIncrement:
    """Draw dW_k ~ N(0, dt) i.i.d., keyed by (seed, path, step): the normals
    of ``Philox(SeedSequence(seed, spawn_key=(path, step)))``.  A sequence of
    paths gives ``dw`` a row per path, each the draw of its own key.
    ``keys``, the rows' Philox keys as :func:`philox_keys` gives them for this
    seed and step, saves deriving them here."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    seed, path, step = seed_path
    seed, step, paths = index(seed), index(step), np.atleast_1d(path).tolist()
    if min(seed, step, *paths) < 0:
        raise ValueError("seed, path and step must be nonnegative")
    rows = np.zeros((len(paths), noise.n_terms))
    if noise.n_terms and keys is None:
        keys = [_philox_key(seed, p, step) for p in paths]
    for row, key in zip(rows, keys if noise.n_terms else ()):
        key = np.asarray(key, dtype=np.uint64)
        _STREAM.bits.state = {**_FRESH_PHILOX, "state": {"counter": _ZERO4, "key": key}}
        row[:] = _STREAM.normal(noise.n_terms)
    dw = np.sqrt(dt) * (rows if np.ndim(path) else rows[0])
    return WienerIncrement(dw, dt, (seed, path, step))


class _Stream(threading.local):
    """A Philox generator per thread, re-keyed for every draw."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.normal = np.random.Generator(self.bits).standard_normal


# Philox keys as numpy's SeedSequence derives them: hashmix and mix the seed
# words (padded to four), then the spawn key (path, step), into a pool of four
# 32-bit words; the part fixed by (seed, path) is kept per path.  The same
# functions run on Python ints or, for a table of keys, on uint64 arrays of
# 32-bit words (products of two words fit, differences wrap mod 2^64).
_STREAM = _Stream()
_MASK32 = 0xFFFFFFFF
_ZERO4 = np.zeros(4, dtype=np.uint64)
_FRESH_PHILOX = dict(bit_generator="Philox", buffer=_ZERO4, buffer_pos=4, has_uint32=0, uinteger=0)


def _words(n: int) -> list[int]:
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value: int, const: int, mult: int = 0x931E8875) -> tuple[int, int]:
    after = const * mult & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ value >> 16, after


def _mix(pool: list[int], dst: int, word: int, const: int) -> int:
    hashed, const = _hashmix(word, const)
    mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashed) & _MASK32
    pool[dst] = mixed ^ mixed >> 16
    return const


@lru_cache(maxsize=4096)
def _path_pool(seed: int, path: int) -> tuple[tuple[int, ...], int]:
    words, pool, const = _words(seed), [], 0x43B0D7E5
    for word in (words + [0, 0, 0])[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src, dst in permutations(range(4), 2):
        const = _mix(pool, dst, pool[src], const)
    for word in words[4:] + _words(path):
        for dst in range(4):
            const = _mix(pool, dst, word, const)
    return tuple(pool), const


def _philox_key(seed: int, path: int, step: int) -> list[int]:
    return _spawned_key(*_path_pool(seed, path), _words(step))


def _spawned_key(pool, const, step_words) -> list:
    pool = list(pool)
    for word in step_words:
        for dst in range(4):
            const = _mix(pool, dst, word, const)
    state, const = [], 0x8B51F9DD
    for word in pool:
        hashed, const = _hashmix(word, const, 0x58F38DED)
        state.append(hashed)
    return [state[0] | state[1] << 32, state[2] | state[3] << 32]


def philox_keys(seed: int, paths, steps) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=(path, step))`` for every
    step and path, shape (len(steps), len(paths), 2), in uint64 arithmetic:
    the table form of the key each :func:`sample_increment` row derives."""
    seed, paths = index(seed), [index(p) for p in paths]
    steps = np.asarray(steps, dtype=np.uint64).reshape(-1, 1)
    pools = [_path_pool(seed, p) for p in paths]
    pool = [np.array([pl[i] for pl, _ in pools], dtype=np.uint64) for i in range(4)]
    const = np.array([c for _, c in pools], dtype=np.uint64)
    keys = np.empty((len(steps), len(paths), 2), dtype=np.uint64)
    two_words = (steps > _MASK32)[:, 0]
    for n_words, rows in ((1, ~two_words), (2, two_words)):
        if rows.any():
            shifts = np.arange(0, 32 * n_words, 32, dtype=np.uint64)
            words = [steps[rows] >> s & np.uint64(_MASK32) for s in shifts]
            keys[rows] = np.stack(_spawned_key(pool, const, words), axis=-1)
    return keys


def noise_contribution(noise: NoiseModel, inc: WienerIncrement) -> np.ndarray:
    """Coefficient increment sum_k g_k dW_k; an increment with one row of dW
    per path gives one row per path, each bit-identical to its own call."""
    dw = inc.dw
    if dw.shape[-1] != noise.n_terms:
        raise ValueError(
            f"increment has {dw.shape[-1]} terms, noise model has {noise.n_terms}"
        )
    if noise.n_terms == 0:
        return np.zeros(dw.shape[:-1] + (noise.modes.shape[1],))
    return (noise.modes.T @ dw[..., None])[..., 0]
