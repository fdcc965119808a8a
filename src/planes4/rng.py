"""Deterministic, portable pseudo-random numbers.

All manifest-seeded randomness in the toolkit flows through SplitMix64 so
that runs are reproducible bit-for-bit and trivially portable to other
languages.  The generator is the standard SplitMix64 step:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

with all arithmetic modulo 2^64.  Uniform doubles are next() / 2^64 and
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

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return self.next_u64() / 2.0**64

    def normal(self) -> float:
        """One standard normal via Box-Muller (second deviate discarded)."""
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0**-64
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^dim."""
        while True:
            v = self.normals(dim)
            r = float(np.linalg.norm(v))
            if r > 1e-12:
                return v / r
