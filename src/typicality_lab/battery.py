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
    A test passes when its adjusted p-value is at least ``rate``.  With
    exact p-values the family would reject a true law with probability at
    most ``rate``, whatever the dependence between its tests; chi-square
    p-values are asymptotic, and a battery at the shortest CHSH world its
    length rule allows rejects at 1.28x, 1.60x and 2.39x a ``rate`` of
    0.01 for k = 1, 2 and 3 (README gives every measured rate).  Tied
    p-values get one adjusted value, so the result does not depend on the
    order of ``tests``.
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


#: Stirling's error ``lgamma(n + 1) - (n + 1/2) log n + n - log sqrt(2 pi)`` at
#: ``n = 1/2, 1, ..., 15``, correctly rounded.
_STIRLERR_HALVES = (
    0.15342640972002736, 0.08106146679532726, 0.05481412105191765, 0.0413406959554093,
    0.03316287351993629, 0.02767792568499834, 0.023746163656297496, 0.020790672103765093,
    0.018488450532673187, 0.016644691189821193, 0.015134973221917378, 0.013876128823070748,
    0.012810465242920227, 0.01189670994589177, 0.011104559758206917, 0.010411265261972096,
    0.009799416126158804, 0.009255462182712733, 0.008768700134139386, 0.00833056343336287,
    0.00793411456431402, 0.007573675487951841, 0.007244554301320383, 0.00694284010720953,
    0.006665247032707682, 0.006408994188004207, 0.006171712263039458, 0.0059513701127588475,
    0.0057462165130101155, 0.005554733551962801,
)


def _stirlerr(n: float) -> float:
    """Stirling's error at a positive integer or half-integer ``n``, by table or series.

    Past ``n = 15`` the series ``1/(12n) - 1/(360n**3) + 1/(1260n**5) -
    1/(1680n**7) + 1/(1188n**9)``, whose first term left out is below 2e-16.
    """
    if n <= 15.0:
        return _STIRLERR_HALVES[int(2.0 * n) - 1]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0_terms(a: float, h: float) -> list[float]:
    """Terms that sum to ``a log(a / h) + h - a``, without its cancellation when ``a`` is near ``h``.

    Near ``h`` they are those of the series ``(a - h) v + 2a (v**3/3 +
    v**5/5 + ...)`` in ``v = (a - h) / (a + h)``, to the last that moves
    the sum.
    """
    if abs(a - h) >= 0.5 * (a + h):
        return [a * math.log(a / h), h, -a]
    v = (a - h) / (a + h)
    terms, power, odd = [(a - h) * v], 2.0 * a * v, 1
    while abs(power) > 1e-17 * terms[0]:
        power *= v * v
        odd += 2
        terms.append(power / odd)
    return terms


def _poisson_term(a: float, h: float) -> float:
    """``e**-h * h**a / Gamma(a + 1)``, in Loader's saddle-point form.

    ``exp(-stirlerr(a) - bd0(a, h)) / sqrt(2 pi a)`` (C. Loader, "Fast and
    Accurate Computation of Binomial Probabilities", 2000), its exponent
    summed by ``math.fsum``: the exponent is small where the term is not,
    so it loses no digits to ``a log h`` and ``lgamma``, which reach 10**5
    and more at tens of thousands of dof.
    """
    if a == 0.0:
        return math.exp(-h)
    exponent = math.fsum([_stirlerr(a), *_bd0_terms(a, h)])
    return math.exp(-exponent) / math.sqrt(2.0 * math.pi * a)


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``P(X >= x)`` of the chi-square law with integer ``dof``, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5, with ``h = x / 2``: the sum of the
    Poisson terms ``e**-h * h**a / a!`` over ``a = 0 .. dof/2 - 1`` for an
    even ``dof``, and over ``a = 1/2 .. dof/2 - 1`` plus ``erfc(sqrt(h))``
    for an odd one.  The largest term, at the greatest ``a`` of the range
    not above ``h`` (or its least one), is taken by :func:`_poisson_term`;
    the rest follow from it by ``t(a + 1) = t(a) h / (a + 1)`` and ``t(a -
    1) = t(a) a / h``, which shrink them away from it, and all are summed
    by ``math.fsum``.  Zero dof is the point mass at 0.
    """
    if x <= 0.0:
        return 1.0
    if dof == 0 or math.isinf(x):
        return 0.0
    h, low, top = x / 2.0, (dof % 2) / 2.0, dof / 2.0 - 1.0
    terms = [math.erfc(math.sqrt(h))] if dof % 2 else []
    if top >= low:
        start = min(top, max(low, low + math.floor(h - low)))
        first = _poisson_term(start, h)
        terms.append(first)
        a, term = start, first
        while a < top and term:
            a += 1.0
            term = term * h / a
            terms.append(term)
        a, term = start, first
        while a > low and term:
            term = term * a / h
            a -= 1.0
            terms.append(term)
    return min(1.0, math.fsum(terms))


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
