"""Chi-square block-frequency tests of a prefix against a claimed space.

Certifying algorithmic randomness is impossible; this battery makes no
such claim.  It rejects gross non-typicality only: the frequencies of
non-overlapping length-k blocks are compared against the i.i.d. product
weights with a chi-square goodness-of-fit test.  The tests of one run are
one family (see :func:`holm_family`): each passes when its Holm-adjusted
p-value is at least the significance.  A typical sequence still fails the
family at the significance rate (default 0.01), so an occasional failure
on a fresh seed is expected behaviour, not a bug.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .checks import Check
from .spaces import FiniteProbabilitySpace

if TYPE_CHECKING:  # the battery reads worlds but never builds one, so needs no sampler
    from .worlds import WorldPrefix

__all__ = [
    "DEFAULT_BLOCK_LENS",
    "DEFAULT_SIGNIFICANCE",
    "FrequencyTest",
    "BatteryReport",
    "block_frequency_test",
    "frequency_test",
    "holm_family",
    "run_battery",
]

DEFAULT_BLOCK_LENS = (1, 2, 3)
DEFAULT_SIGNIFICANCE = 0.01

#: The longest block any test counts.
_MAX_BLOCK_LEN = 64


class FrequencyTest(NamedTuple):
    """One chi-square block-frequency test, a member of a family of tests.

    ``p_value`` is the chi-square upper tail of ``statistic``, and
    ``adjusted_p_value`` its value adjusted for the family (see
    :func:`holm_family`); ``check`` decides ``adjusted_p_value >=
    significance``.  ``zero_cells`` is the number of zero-probability blocks
    removed from the statistic; a prefix that *hits* such a block gets an
    infinite statistic, reported as null, and p-value 0.
    """

    block_len: int
    statistic: float
    p_value: float
    dof: int
    significance: float
    n_blocks: int
    zero_cells: int
    zero_cell_hits: int
    adjusted_p_value: float

    @property
    def check(self) -> Check:
        return Check(
            f"block-frequency-k{self.block_len}", self.adjusted_p_value, ">=", self.significance
        )

    @property
    def passed(self) -> bool:
        return self.check.passed

    def to_dict(self) -> dict:
        out = {**self._asdict(), "pass": self.passed}
        out["statistic"] = self.statistic if math.isfinite(self.statistic) else None
        return out


class BatteryReport(NamedTuple):
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

    Requires ``1 <= block_len <= 64`` and ``block_len * |alphabet|**block_len
    <= len(world) / 10`` so every positive-probability cell has a usable
    expected count.  With two or more symbols the length rule alone refuses
    every block longer than 64; with one, every test has 0 degrees of
    freedom and decides nothing, so no longer block is counted.  The p-value
    is the chi-square upper tail with (#positive-probability blocks - 1)
    degrees of freedom.
    """
    if world.alphabet != fps.alphabet:
        raise ValueError(
            "world and probability-space alphabets differ (symbols and order must match)"
        )
    if not 1 <= block_len <= _MAX_BLOCK_LEN:
        raise ValueError(f"block_len must be from 1 to {_MAX_BLOCK_LEN}, got {block_len}")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    cells = len(fps.alphabet) ** block_len
    if block_len * cells > len(world) / 10:
        raise ValueError(
            f"world too short for block_len {block_len}: need length >= "
            f"{10 * block_len * cells}, got {len(world)}"
        )
    cell_probs = reduce(np.kron, [np.asarray(fps.weights)] * block_len)
    return frequency_test(world.counts(block_len), cell_probs, block_len, significance)


def frequency_test(
    observed: np.ndarray,
    cell_probs: np.ndarray,
    block_len: int = 1,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> FrequencyTest:
    """The chi-square test of block counts ``observed`` against block weights ``cell_probs``.

    The core of :func:`block_frequency_test`, for counts already taken:
    ``observed[i]`` counts the blocks of code ``i``, and their total is the
    number of blocks.  It checks no length rule, and is a family of one, its
    p-value unadjusted.  With no blocks it decides nothing: statistic 0, p-value 1.
    """
    n_blocks = int(observed.sum())
    positive = cell_probs > 0
    expected = n_blocks * cell_probs[positive]
    statistic = float(((observed[positive] - expected) ** 2 / expected).sum()) if n_blocks else 0.0
    zero_hits = int(observed[~positive].sum())
    if zero_hits > 0:
        statistic = float("inf")
    dof = int(positive.sum()) - 1
    p, zeros = _chi2_sf(statistic, dof), positive.size - 1 - dof
    return FrequencyTest(block_len, statistic, p, dof, significance, n_blocks, zeros, zero_hits, p)


def holm_family(tests: Sequence[FrequencyTest], rate: float) -> tuple[FrequencyTest, ...]:
    """The tests as one family at family-wise rate ``rate``, by Holm's step-down procedure.

    With the ``m`` p-values sorted, ``p_(1) <= ... <= p_(m)``, the ``i``-th
    one's adjusted p-value is the largest ``min(1, (m - j + 1) * p_(j))``
    over ``j <= i`` (Holm, 1979), and each test's significance is ``rate``.
    A test passes when its adjusted p-value is at least ``rate``, so the
    family rejects a true law with probability at most ``rate``, whatever
    the dependence between its tests.  Tied p-values get one adjusted
    value, so the result does not depend on the order of ``tests``.
    """
    m = len(tests)
    adjusted = [0.0] * m
    running = 0.0
    for rank, i in enumerate(sorted(range(m), key=lambda i: tests[i].p_value)):
        running = max(running, min(1.0, (m - rank) * tests[i].p_value))
        adjusted[i] = running
    return tuple(
        t._replace(significance=rate, adjusted_p_value=a) for t, a in zip(tests, adjusted)
    )


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
    """A block-frequency test at each distinct length, as one family at rate ``significance``."""
    if not block_lens or len(set(block_lens)) < len(block_lens):
        raise ValueError(f"block_lens must be one or more distinct block lengths, got {block_lens}")
    tests = [block_frequency_test(world, fps, k, significance) for k in block_lens]
    return BatteryReport(tests=holm_family(tests, significance))
