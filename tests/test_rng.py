"""Block SplitMix64 draws against the sequential Python-int generator."""

import numpy as np
import pytest

from helpers import MASK64, ForcedSplitMix64, SequentialSplitMix64
from planes4.rng import SplitMix64

SEEDS = [0, 1, MASK64]     # 2^64 - 1: the state wraps on the first draw


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_equal_sequential_draws(seed):
    seq = SequentialSplitMix64(seed)
    want = [seq.next_u64() for _ in range(10_000)]
    gen = SplitMix64(seed)
    got = []
    for size in (1, 0, 2, 997, 4000, 4995, 1, 3, None):   # 10^4 draws in uneven blocks
        block = gen.next_u64(size)
        got += [block] if size is None else [int(z) for z in block]
        assert isinstance(block, int) == (size is None)
    assert got == want
    assert gen.state == seq.state


@pytest.mark.parametrize("seed", SEEDS)
def test_block_uniforms_and_normals_equal_sequential(seed):
    seq = SequentialSplitMix64(seed)
    gen = SplitMix64(seed)
    assert gen.uniform(10_000).tolist() == [seq.uniform() for _ in range(10_000)]
    assert gen.uniform() == seq.uniform()
    # bitwise: numpy's vectorised log moves the last bit of some of these
    assert gen.normal(10_000).tolist() == [seq.normal() for _ in range(10_000)]
    assert gen.normal() == seq.normal()
    assert gen.state == seq.state


@pytest.mark.parametrize("z", [0, 1, 2**53 + 1, 2**64 - 1025, 2**64 - 1024, 2**64 - 1])
def test_uint64_to_double_is_python_int_division(z):
    class Fixed(SplitMix64):
        def next_u64(self, size=None):
            return np.full(size, z, dtype=np.uint64)

    u = Fixed(0).uniform(3)
    assert u.tolist() == [int(z) / 2.0**64] * 3
    # uniforms lie in [0, 1]: an output >= 2^64 - 1024 rounds up to exactly 1.0
    assert (u[0] == 1.0) == (z >= 2**64 - 1024)


@pytest.mark.parametrize("group", [0, 1, 6, 7])
def test_forced_redraw_skips_only_the_zero_group(group):
    # the four u1 draws of one group of 4 normals read 1.0, and a u1 of 1.0
    # gives a normal of 0: that group is all zero, so it is skipped and
    # every later group moves up one place
    forced = [8 * group + 2 * k for k in range(4)]
    seq = SequentialSplitMix64(3, forced)
    want = np.array([seq.unit_vector(4) for _ in range(10)])
    gen = ForcedSplitMix64(3, forced)
    got = gen.unit_vector(4, 10)
    assert np.array_equal(got, want)
    assert gen.drawn == seq.drawn == 8 * 11
    assert np.array_equal(ForcedSplitMix64(3, forced).unit_vector(4), want[0])
    assert gen.unit_vector(4, 0).shape == (0, 4)
