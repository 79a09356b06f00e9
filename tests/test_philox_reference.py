"""World bytes against an independent, pure-Python Philox4x64-10.

``GENERATOR_ID`` names Philox4x64-10 with a 128-bit block counter, blocks
of 8192 draws and an inverse CDF.  This reference spells that scheme out
from its parts, so that a drift in numpy, or in the sampler's chunked draw,
says which part moved:

- the bijection, with the round multipliers and Weyl key increments of
  Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as
  1, 2, 3" (SC '11); Python integers make the 64x64 -> 128-bit products exact;
- the layout numpy gives it: the key is ``(seed mod 2**64, seed >> 64)``,
  block ``b`` starts at the 256-bit counter ``b << 128`` (words low to
  high), and the counter is incremented before each four-word output;
- each uniform is ``(w >> 11) * 2**-53`` of one 64-bit word ``w``;
- each symbol is ``bisect_right`` of its uniform over the half-open
  cumulative boundaries.
"""

import bisect
import hashlib

import numpy as np
import pytest

from test_golden_reports import WORLD_FILE_SHA256
from typicality_lab.chsh import chsh_distribution
from typicality_lab.ghz import ghz_distribution
from typicality_lab.worlds import BLOCK_LEN, _cumulative_boundaries, sample_world

MASK = 2**64 - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox4x64_10(counter, key):
    """The four output words of Philox4x64-10 for four counter words and two key words."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        p0, p1 = MULTIPLIERS[0] * c0, MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def block_words(seed, block, n):
    """The first ``n`` 64-bit words of block ``block`` of the world with seed ``seed``."""
    key = (seed & MASK, seed >> 64)
    counter = block << 128
    words = []
    while len(words) < n:
        counter += 1
        words.extend(philox4x64_10([(counter >> (64 * i)) & MASK for i in range(4)], key))
    return words[:n]


def block_uniforms(seed, block, n):
    return [(w >> 11) * 2.0**-53 for w in block_words(seed, block, n)]


def block_symbols(fps, seed, block, n):
    """The first ``n`` symbol indices of a block, by binary search over the boundaries."""
    cum = _cumulative_boundaries(fps).tolist()
    return [bisect.bisect_right(cum, u) for u in block_uniforms(seed, block, n)]


SEEDS = [42, 2**63 + 5, 2**64 - 1]
#: Block 0, and the last block of the first chunk and the first of the second.
BLOCKS = [0, 15, 16]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block", BLOCKS)
def test_key_and_counter_layout(seed, block):
    got = np.random.Philox(key=seed, counter=block << 128).random_raw(12)
    assert got.tolist() == block_words(seed, block, 12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block", BLOCKS)
def test_53_bit_uniforms(seed, block):
    generator = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
    assert generator.random(12).tolist() == block_uniforms(seed, block, 12)


def test_golden_world_at_block_0_and_the_chunk_edge():
    # The world of ``chsh --trials 200000 --seed 42 --world-out``, which the
    # golden test pins by digest; CHSH has mixed guide buckets.
    fps = chsh_distribution("analytic")
    world = sample_world(fps, 200_000, 42)
    assert hashlib.sha256(world.to_json().encode()).hexdigest() == WORLD_FILE_SHA256
    for block in BLOCKS:
        got = world.indices[block * BLOCK_LEN : (block + 1) * BLOCK_LEN]
        assert got.tolist() == block_symbols(fps, 42, block, BLOCK_LEN)


def test_world_at_a_seed_with_the_top_key_bit_set():
    # GHZ has no mixed guide bucket: the table alone answers every draw.
    fps = ghz_distribution("analytic")
    seed = 2**63 + 5
    world = sample_world(fps, BLOCK_LEN + 100, seed)
    expected = block_symbols(fps, seed, 0, BLOCK_LEN) + block_symbols(fps, seed, 1, 100)
    assert world.indices.tolist() == expected
