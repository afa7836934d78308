"""Deterministic force and additive trace-class Wiener noise.

Noise increments are counter-based: the Philox key (seed, path) names a
path's stream and the counter's second word names the step, so a draw is a
pure function of (seed, path, step) and Monte Carlo scheduling or
parallelism cannot change results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .spaces import SpectralSpaces, scalar_pow


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
    rows = [spaces.velocity_from_modes([entry]).coeffs for entry in entries]
    return NoiseModel(np.array(rows)) if rows else empty_noise(spaces)


def default_noise(spaces: SpectralSpaces, trace: float = 0.01, n_terms: int = 8) -> NoiseModel:
    """Lowest-mode noise with |g_k|^2 proportional to (j^2+k^2)^-2,
    normalised to the requested covariance trace: the n_terms velocity
    modes of least j^2 + k^2, ties taken in index order.  Both must be
    nonnegative, as the configuration checks them at load."""
    n = spaces.n_modes
    j, k = np.divmod(np.arange(spaces.n_velocity) % (n * n), n)
    shells = (j + 1) ** 2 + (k + 1) ** 2
    chosen = np.argsort(shells, kind="stable")[:n_terms]
    weights = scalar_pow(shells[chosen].astype(float), -2)
    amps = np.sqrt(trace * weights / np.sum(weights))
    rows = np.zeros((len(chosen), spaces.n_velocity))
    rows[np.arange(len(chosen)), chosen] = amps
    return NoiseModel(rows)


def sample_increment(noise: NoiseModel, dt: float, seed_path: tuple) -> np.ndarray:
    """Draw dW_k ~ N(0, dt) i.i.d. for (seed, path, step): the first K normals
    of ``Philox(key=[seed, path], counter=[0, step, 0, 0])``, so each step
    owns 2^64 counter blocks of its path's stream.  A sequence of paths gives
    the draw a row per path, and a sequence of steps a leading step axis
    before the paths'.  Seed, path and step must each lie in [0, 2^64)."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    seed, path, step = seed_path
    seed, paths, steps = index(seed), _words(path), _words(step)
    words = (seed, *steps, *paths)
    if min(words) < 0 or max(words) >= 2**64:
        raise ValueError("seed, path and step must be nonnegative and below 2**64")
    rows = np.zeros((len(steps), len(paths), noise.n_terms))
    if noise.n_terms:
        # one state dict for every row-step, its words Python ints (the
        # setter reads them one by one, and numpy scalars cost more); a set
        # empties the buffer, so a row starts at its step's first block
        key, counter = [seed, 0], [0] * 4
        state = {**_FRESH_PHILOX, "state": {"counter": counter, "key": key}}
        for m, step_rows in zip(steps, rows):
            counter[1] = m
            for path_index, row in zip(paths, step_rows):
                key[1] = path_index
                _STREAM.bits.state = state
                _STREAM.normal(out=row)
    rows *= np.sqrt(dt)
    rows = rows if np.iterable(step) else rows[0]
    return rows if np.iterable(path) else rows[..., 0, :]


def _words(x) -> list[int]:
    """The Python ints of an integer or a sequence of them, one by one: numpy
    makes floats of a list mixing words from 2^63 on with smaller ones."""
    return [index(w) for w in x] if np.iterable(x) else [index(x)]


class _Stream(threading.local):
    """A Philox generator per thread, set to each row-step's key and counter."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.normal = np.random.Generator(self.bits).standard_normal


_STREAM = _Stream()
_FRESH_PHILOX = dict(bit_generator="Philox", buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)


def noise_contribution(noise: NoiseModel, dw: np.ndarray) -> np.ndarray:
    """Coefficient increment sum_k g_k dW_k; increments with one row of dW
    per path give one row per path, each bit-identical to its own call."""
    if dw.shape[-1] != noise.n_terms:
        raise ValueError(
            f"increment has {dw.shape[-1]} terms, noise model has {noise.n_terms}"
        )
    return (noise.modes.T @ dw[..., None])[..., 0]
