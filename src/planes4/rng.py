"""Deterministic, portable pseudo-random numbers.

All manifest-seeded randomness in the toolkit flows through SplitMix64 so
that runs are reproducible bit-for-bit and trivially portable to other
languages.  The generator is the standard SplitMix64 step:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

with all arithmetic modulo 2^64.  The state is a Weyl sequence, so draw k
of a block is the mix of state + k * gamma: every method draws a block of
``size`` values in one numpy uint64 pass, equal to ``size`` sequential
draws (``size=None`` gives one value as a Python scalar).  Uniform doubles
are next() / 2^64, in [0, 1] (an output >= 2^64 - 1024 rounds to 1.0), and
normals come from the Box-Muller transform on consecutive uniforms.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic generator; see module docstring for the algorithm."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self, size: int | None = None):
        """The next output as an int, or the next ``size`` as a uint64 array."""
        k = np.arange(1, (1 if size is None else size) + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)     # wraps mod 2^64
        z = (z ^ (z >> 30)) * np.uint64(_MUL1)
        z = (z ^ (z >> 27)) * np.uint64(_MUL2)
        z ^= z >> 31
        self.state = (self.state + len(k) * _GAMMA) & _MASK
        return int(z[0]) if size is None else z

    def uniform(self, size: int | None = None):
        """Uniform doubles next() / 2^64 in [0, 1]; 1.0 itself has odds 2^-54."""
        u = self.next_u64(1 if size is None else size).astype(np.float64) / 2.0**64
        return float(u[0]) if size is None else u

    def normal(self, size: int | None = None):
        """Standard normals via Box-Muller (each second deviate discarded).

        Each normal takes a uniform pair (u1, u2) in draw order.  libm's
        ``math.log`` and ``math.cos`` are applied per element: numpy's
        vectorised log differs from libm's in the last bit on some inputs.
        """
        u = self.uniform(2 * (1 if size is None else size)).reshape(-1, 2)
        u1 = np.where(u[:, 0] <= 0.0, 2.0**-64, u[:, 0]).tolist()
        log = np.fromiter(map(math.log, u1), float, len(u1))
        cos = np.fromiter(map(math.cos, (2.0 * math.pi * u[:, 1]).tolist()), float, len(u1))
        out = np.sqrt(-2.0 * log) * cos
        return float(out[0]) if size is None else out

    def unit_vector(self, dim: int, size: int | None = None) -> np.ndarray:
        """Uniform points on the unit sphere in R^dim, one per row.

        Each row is a group of ``dim`` normals v divided by sqrt(np.sum(v * v)),
        the squares added left to right (pairwise from dim 8) with no BLAS
        call.  A group whose norm is at most 1e-12 is skipped and the later
        groups keep their order, as a sequential redraw would.
        """
        n = 1 if size is None else size
        rows = np.empty((0, dim))
        while len(rows) < n:
            v = self.normal((n - len(rows)) * dim).reshape(-1, dim)
            r = np.sqrt(np.sum(v * v, axis=1))
            rows = np.concatenate([rows, v[r > 1e-12] / r[r > 1e-12, None]])
        return rows[0] if size is None else rows
