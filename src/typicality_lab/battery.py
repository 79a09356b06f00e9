"""Chi-square block-frequency tests of a prefix against a claimed space.

Certifying algorithmic randomness is impossible; this battery makes no
such claim.  It rejects gross non-typicality only: the frequencies of
non-overlapping length-k blocks are compared against the i.i.d. product
weights with a chi-square goodness-of-fit test.  A typical sequence still
fails each test at roughly the significance rate (default 0.01), so an
occasional failure on a fresh seed is expected behaviour, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``passed`` is exactly ``statistic <= threshold``.  ``zero_cells`` is
    the number of zero-probability blocks removed from the statistic; a
    prefix that *hits* such a block gets an infinite statistic, since the
    claimed space assigns it measure zero.
    """

    block_len: int
    statistic: float
    threshold: float
    dof: int
    significance: float
    n_blocks: int
    zero_cells: int
    zero_cell_hits: int

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def to_dict(self) -> dict:
        return {
            "block_len": self.block_len,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "dof": self.dof,
            "significance": self.significance,
            "n_blocks": self.n_blocks,
            "zero_cells": self.zero_cells,
            "zero_cell_hits": self.zero_cell_hits,
            "pass": self.passed,
        }


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
    expected count.  The threshold is the chi-square quantile at
    ``1 - significance`` with (#positive-probability blocks - 1) degrees
    of freedom.
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
    threshold = _chi2_quantile(1.0 - significance, dof) if dof > 0 else 0.0
    return FrequencyTest(
        block_len=block_len,
        statistic=statistic,
        threshold=threshold,
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


#: ``chi2.ppf(1 - DEFAULT_SIGNIFICANCE, dof)`` for ``dof = 4**k - 1``, k in
#: ``DEFAULT_BLOCK_LENS``: the thresholds of a default CHSH battery, whose
#: coin-pair cells have four symbols.  Stored so a default run loads no scipy.
_KNOWN_QUANTILES = {
    (1.0 - DEFAULT_SIGNIFICANCE, 3): 11.344866730144373,
    (1.0 - DEFAULT_SIGNIFICANCE, 15): 30.57791416689249,
    (1.0 - DEFAULT_SIGNIFICANCE, 63): 92.01002361413214,
}


def _chi2_quantile(q: float, dof: int) -> float:
    """Chi-square quantile, bit for bit what ``scipy.stats.chi2.ppf(q, dof)`` returns.

    That is ``2 * gammaincinv(dof / 2, q)``, or the stored value for a pair
    in ``_KNOWN_QUANTILES``.  ``scipy.special`` is imported here, not at
    module level: it is the package's only scipy dependency and commands
    that run no battery, or only the default CHSH one, should not pay for
    loading it.  ``scipy.special.chdtri`` is not a substitute: at q = 0.99
    it differs from ``chi2.ppf`` in the last digits for 3, 15 and 63
    degrees of freedom, which the CHSH battery uses.
    """
    known = _KNOWN_QUANTILES.get((q, dof))
    if known is not None:
        return known
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2.0, q))


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
