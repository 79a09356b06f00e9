"""Chi-square block-frequency tests of a prefix against a claimed space.

Certifying algorithmic randomness is impossible; this battery makes no
such claim.  It rejects gross non-typicality only: the frequencies of
non-overlapping length-k blocks are compared against the i.i.d. product
weights with a chi-square goodness-of-fit test, which passes when its
p-value is at least the significance.  A typical sequence still fails
each test at the significance rate (default 0.01), so an occasional
failure on a fresh seed is expected behaviour, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .spaces import FiniteProbabilitySpace
from .worlds import WorldPrefix

__all__ = [
    "DEFAULT_BLOCK_LENS",
    "DEFAULT_SIGNIFICANCE",
    "FrequencyTest",
    "BatteryReport",
    "block_frequency_test",
    "long_enough",
    "run_battery",
]

DEFAULT_BLOCK_LENS = (1, 2, 3)
DEFAULT_SIGNIFICANCE = 0.01


@dataclass(frozen=True)
class FrequencyTest:
    """One chi-square block-frequency test.

    ``passed`` is exactly ``p_value >= significance``, where ``p_value`` is
    the chi-square upper tail of ``statistic``.  ``zero_cells`` is the
    number of zero-probability blocks removed from the statistic; a prefix
    that *hits* such a block gets an infinite statistic and p-value 0.
    """

    block_len: int
    statistic: float
    p_value: float
    dof: int
    significance: float
    n_blocks: int
    zero_cells: int
    zero_cell_hits: int

    @property
    def passed(self) -> bool:
        return self.p_value >= self.significance

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass(frozen=True)
class BatteryReport:
    """Aggregate of block-frequency tests at several block lengths."""

    tests: tuple[FrequencyTest, ...]

    @property
    def all_pass(self) -> bool:
        return all(t.passed for t in self.tests)

    @property
    def passed_count(self) -> int:
        return sum(1 for t in self.tests if t.passed)

    def to_dict(self) -> dict:
        return {
            "tests": [t.to_dict() for t in self.tests],
            "passed": self.passed_count,
            "total": len(self.tests),
            "all_pass": self.all_pass,
        }


def block_frequency_test(
    world: WorldPrefix,
    fps: FiniteProbabilitySpace,
    block_len: int,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> FrequencyTest:
    """Chi-square test of non-overlapping length-k block frequencies.

    Requires ``block_len >= 1`` and ``block_len * |alphabet|**block_len
    <= len(world) / 10`` so every positive-probability cell has a usable
    expected count.  The p-value is the chi-square upper tail with
    (#positive-probability blocks - 1) degrees of freedom.
    """
    if world.alphabet != fps.alphabet:
        raise ValueError("world and probability space alphabets differ")
    if block_len < 1:
        raise ValueError("block_len must be at least 1")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    n_sym = len(fps.alphabet)
    if not long_enough(len(world), n_sym, block_len):
        need = (
            10 * block_len * n_sym**block_len
            if block_len <= _MAX_REPORTED_BLOCK_LEN
            else f"10 * {block_len} * {n_sym}**{block_len}"
        )
        raise ValueError(
            f"world too short for block_len {block_len}: need length >= "
            f"{need}, got {len(world)}"
        )
    n_cells = n_sym**block_len
    n_blocks = len(world) // block_len
    observed = world.counts(block_len)
    cell_probs = reduce(np.kron, [np.asarray(fps.weights)] * block_len)
    positive = cell_probs > 0
    expected = n_blocks * cell_probs[positive]
    statistic = float((((observed[positive] - expected) ** 2) / expected).sum())
    zero_hits = int(observed[~positive].sum())
    if zero_hits > 0:
        statistic = float("inf")
    dof = int(positive.sum()) - 1
    return FrequencyTest(
        block_len=block_len,
        statistic=statistic,
        p_value=_chi2_sf(statistic, dof),
        dof=dof,
        significance=significance,
        n_blocks=n_blocks,
        zero_cells=int(n_cells - positive.sum()),
        zero_cell_hits=zero_hits,
    )


#: Beyond this block length the required length is named, not computed.
_MAX_REPORTED_BLOCK_LEN = 64


def long_enough(length: int, n_sym: int, block_len: int) -> bool:
    """Whether ``block_len * n_sym**block_len <= length / 10``, the battery's length rule.

    With two or more symbols a block length above ``length.bit_length()``
    fails it (``n_sym**block_len`` alone exceeds ``length``), and is
    rejected without building that power, which for an absurd
    ``--blocks`` value would not fit in memory.
    """
    if n_sym > 1 and block_len > length.bit_length():
        return False
    return block_len * n_sym**block_len <= length / 10


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``P(X >= x)`` of the chi-square law with integer ``dof``, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5, with ``h = x / 2``: the sum of
    ``e**-h * h**a / a!`` over ``a = 0 .. dof/2 - 1`` for an even ``dof``, and
    over ``a = 1/2 .. dof/2 - 1`` plus ``erfc(sqrt(h))`` for an odd one.  Each
    term is taken in log space, where ``e**-h`` does not underflow nor
    ``h**a`` overflow at tens of thousands of dof.  Zero dof is the point mass at 0.
    """
    if x <= 0.0:
        return 1.0
    if dof == 0 or math.isinf(x):
        return 0.0
    h, half = x / 2.0, (dof % 2) / 2.0
    log_h = math.log(h)
    logs = [(j + half) * log_h - h - math.lgamma(j + half + 1.0) for j in range(dof // 2)]
    top = max(logs, default=0.0)
    tail = math.exp(top) * sum(math.exp(t - top) for t in logs)
    return min(1.0, tail + (math.erfc(math.sqrt(h)) if dof % 2 else 0.0))


def run_battery(
    world: WorldPrefix,
    fps: FiniteProbabilitySpace,
    block_lens: Sequence[int] = DEFAULT_BLOCK_LENS,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> BatteryReport:
    """Run block-frequency tests for each configured block length."""
    if not block_lens:
        raise ValueError("block_lens must name at least one block length")
    tests = tuple(
        block_frequency_test(world, fps, k, significance) for k in block_lens
    )
    return BatteryReport(tests=tests)
