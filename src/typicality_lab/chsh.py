"""The CHSH protocol: quantum run, exact distribution, and local-realist baselines.

Each round, a referee distributes one half of a two-qubit singlet to each
of two parties.  Each party tosses a fair coin and measures one of two
single-qubit observables depending on the toss:

* party A measures ``R = X`` on coin 0 and ``Q = Z`` on coin 1,
* party B measures ``S = -(X+Z)/sqrt(2)`` on coin 0 and
  ``T = (-X+Z)/sqrt(2)`` on coin 1.

(Some textbook presentations swap which observable is called ``R`` and
which ``Q``; with the convention used here all four conditional averages
come out at +1/sqrt(2) except ``<QT>``.)

One full round is a single 16-outcome measurement on coin-A (x) coin-B
(x) qubit-A (x) qubit-B, declared once as the :data:`CHSH` record (see
:mod:`typicality_lab.protocol`).  Its outcome distribution has the closed
form

    P(c, d, m, n) = [1 + (-1)^(cd) * m * n / sqrt(2)] / 16,

which every run cross-checks against the Born weights of the operator
construction.  Conditioning on the coin pair and averaging the outcome
product m*n gives <RS> + <QS> + <RT> - <QT> = 2*sqrt(2), whereas any
assignment of pre-existing values to R, Q, S, T -- however distributed --
caps the same combination at 2 (the CHSH inequality).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import battery as battery_mod
from .checks import SIGMAS, Check
from .linalg import ATOL, X, Z, bell_singlet
from .protocol import Protocol
from .spaces import SUM_ATOL, FiniteProbabilitySpace, product, uniform
from .worlds import WorldPrefix, sign_cell, tally

__all__ = [
    "ChshOutcome",
    "CHSH_OUTCOMES",
    "RQST_TUPLES",
    "MIN_TRIALS",
    "S_TARGET",
    "LOCAL_BOUND",
    "local_bound_check",
    "CHSH",
    "build_chsh_operators",
    "chsh_distribution",
    "coin_event",
    "ConditionalAverageReport",
    "run_chsh",
    "lhv_chsh_averages",
    "lhv_chsh_simulate",
    "random_h_spaces",
    "lhv_sweep",
    "SweepReport",
]


class ChshOutcome(NamedTuple):
    """One round's record: both coins and both measurement results."""

    c: int  # party A coin, 0 or 1
    d: int  # party B coin, 0 or 1
    m: int  # party A result, +1 or -1
    n: int  # party B result, +1 or -1


#: Value tuples (r, q, s, t) for hidden-variable distributions.
RQST_TUPLES = tuple(itertools.product((1, -1), repeat=4))

#: Minimum run length, so each coin pair collects on the order of 10^3 samples.
MIN_TRIALS = 4000

S_TARGET = 2.0 * math.sqrt(2.0)

#: The CHSH inequality: every local hidden-variable model has ``|s| <= LOCAL_BOUND``.
LOCAL_BOUND = 2.0

_SQRT2 = math.sqrt(2.0)

#: Which coin pair each conditional average draws from, and which
#: hidden-value coordinates it multiplies in the local-realist model.
_AVERAGES = {
    "rs": ((0, 0), (0, 2)),
    "qs": ((1, 0), (1, 2)),
    "rt": ((0, 1), (0, 3)),
    "qt": ((1, 1), (1, 3)),
}


#: ``_SIGNS[x, a]`` is the value product that tuple ``RQST_TUPLES[x]``
#: contributes to average ``a`` (``_AVERAGES`` order: rs, qs, rt, qt).
_SIGNS = np.array(
    [[x[i] * x[j] for _, (i, j) in _AVERAGES.values()] for x in RQST_TUPLES], dtype=float
)


def _closed_form(o: ChshOutcome) -> float:
    sign = 1 if (o.c * o.d) % 2 == 0 else -1  # integer (-1)^(cd)
    return (1.0 + sign * o.m * o.n / _SQRT2) / 16.0


#: Party A measures (R, Q) = (X, Z), party B (S, T) = (-(X+Z)/sqrt2, (-X+Z)/sqrt2).
CHSH = Protocol(
    outcome=ChshOutcome,
    observables=((X, Z), (-(X + Z) / _SQRT2, (-X + Z) / _SQRT2)),
    shared_state=bell_singlet(),
    closed_form=_closed_form,
)

#: All 16 outcomes, in the canonical sampling order.
CHSH_OUTCOMES = CHSH.alphabet

build_chsh_operators = CHSH.operators
chsh_distribution = CHSH.distribution
coin_event = CHSH.coin_event


@dataclass(frozen=True)
class ConditionalAverageReport:
    """The four coin-conditioned product averages and their combination.

    ``averages`` maps ``rs``, ``qs``, ``rt`` and ``qt`` to their values, and
    ``s_value`` is ``rs + qs + rt - qt`` computed from them in that order.
    For sampled runs, ``counts`` holds the per-average cell sizes,
    ``std_errors`` the binomial standard errors of each average, and
    ``tolerances`` the 4-sigma acceptance bands derived from the
    appropriate exact distribution.  ``batteries`` holds the battery of
    each coin pair long enough for one, and ``exact`` the noise-free
    reference report when one exists.  Fields left at None are not
    reported.
    """

    averages: dict
    method: str
    trials: int | None = None
    seed: int | None = None
    counts: dict | None = None
    std_errors: dict | None = None
    tolerances: dict | None = None
    batteries: dict | None = None
    exact: "ConditionalAverageReport | None" = None

    @property
    def s_value(self) -> float:
        a = self.averages
        return a["rs"] + a["qs"] + a["rt"] - a["qt"]

    def to_dict(self) -> dict:
        out = {**asdict(self), "s_value": self.s_value}
        out["exact"] = self.exact and self.exact.to_dict()
        out["battery"] = out.pop("batteries") and {
            key: rep.to_dict() for key, rep in self.batteries.items()
        }
        return {key: value for key, value in out.items() if value is not None}


def _cell_statistics(cells: Sequence, variances: Sequence[float]) -> tuple[dict, dict, dict, dict]:
    """Averages, counts, standard errors and 4-sigma tolerances of the four coin-pair cells.

    ``cells`` are the :class:`~typicality_lab.worlds.SignCell` of each
    average in ``_AVERAGES`` order, and ``variances`` the variance of its
    product under the exact conditional law, which sets its tolerance.
    Raises if any coin pair collected no samples.
    """
    averages, counts, std_errors, tolerances = {}, {}, {}, {}
    for (name, ((c, d), _)), cell, variance in zip(_AVERAGES.items(), cells, variances):
        if cell.count == 0:
            raise RuntimeError(f"coin pair ({c},{d}) collected no samples")
        averages[name] = cell.mean
        counts[name] = cell.count
        std_errors[name] = cell.std_error
        tolerances[name] = SIGMAS * math.sqrt(variance / cell.count)
    return averages, counts, std_errors, tolerances


def run_chsh(
    trials: int,
    seed: int,
    threads: int = 1,
    battery_blocks: Sequence[int] = battery_mod.DEFAULT_BLOCK_LENS,
    on_world: Callable[[WorldPrefix], None] | None = None,
) -> ConditionalAverageReport:
    """Sample a length-``trials`` world and compute the conditional averages.

    The world is drawn directly from the round distribution: the measure
    over outcome sequences is exactly the i.i.d. product of the Born
    weights, so per-round state collapse would produce identical
    statistics at far higher cost (and the distribution itself is
    cross-checked against the operator construction).

    Each coin pair's subsequence is also tested against its conditional
    distribution with the block-frequency battery (``battery_blocks``;
    pass ``()`` to skip).  Raises if any coin pair collected no samples.
    Every statistic is taken from counts made while the world is drawn
    (:func:`~typicality_lab.worlds.tally`), so the world is not kept unless
    ``on_world`` is given; it is then called with the world before any
    statistic is checked.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}, got {trials}")
    fps = chsh_distribution("analytic")
    events = [coin_event(c, d) for (c, d), _ in _AVERAGES.values()]
    # Block lengths no cell of this run can be long enough for are not counted.
    block_lens = [
        k
        for k in battery_blocks
        if battery_mod.long_enough(trials, len(events[0]), k)
    ]
    tallied = tally(fps, trials, seed, threads, events, block_lens, on_world)
    cells = [
        sign_cell(tallied.counts, CHSH.product_signs(c, d)) for (c, d), _ in _AVERAGES.values()
    ]
    # Under the exact conditional law every average has Var(m*n) = 1 - 1/2.
    averages, counts, std_errors, tolerances = _cell_statistics(cells, [0.5] * len(cells))
    tolerances["s_value"] = SIGMAS * math.sqrt(sum(0.5 / n for n in counts.values()))
    batteries = {}
    for ((c, d), _), event, cell_tally, cell in zip(
        _AVERAGES.values(), events, tallied.cells, cells
    ):
        # Only block lengths the cell is long enough for.
        usable = [
            k for k in battery_blocks if battery_mod.long_enough(cell.count, len(event), k)
        ]
        if usable:
            batteries[f"{c}{d}"] = battery_mod.run_battery(cell_tally, fps.condition(event), usable)
    return ConditionalAverageReport(
        averages,
        method="typical-sampling",
        trials=trials,
        seed=seed,
        counts=counts,
        std_errors=std_errors,
        tolerances=tolerances,
        batteries=batteries or None,
    )


def _require_rqst_space(h: FiniteProbabilitySpace) -> None:
    if set(h.alphabet) != set(RQST_TUPLES):
        raise ValueError(
            "hidden-variable space must be over all 16 value tuples (r, q, s, t) "
            "with entries +1/-1"
        )


def lhv_chsh_averages(h: FiniteProbabilitySpace) -> ConditionalAverageReport:
    """Exact conditional averages when (R, Q, S, T) carry pre-existing values.

    With values distributed as ``h``, each average is the weighted sum of
    the corresponding product, e.g. ``<RS> = sum_x h(x) * r * s``.  Every
    valid ``h`` satisfies ``|s_value| <= 2`` (each value tuple contributes
    rs + qs + rt - qt = +/-2); the callers check that bound.  Each sum is
    exactly rounded, whatever the order of ``h``'s alphabet.
    """
    _require_rqst_space(h)
    w = np.array([h.prob(x) for x in RQST_TUPLES])
    averages = {name: math.fsum(w * _SIGNS[:, a]) for a, name in enumerate(_AVERAGES)}
    return ConditionalAverageReport(averages, method="lhv-exact")


def lhv_chsh_simulate(
    h: FiniteProbabilitySpace, trials: int, seed: int, threads: int = 1
) -> ConditionalAverageReport:
    """Sampled counterpart of :func:`lhv_chsh_averages`.

    Draws rounds from the product of ``h`` with two fair coins, restricts
    to each coin pair, and averages the revealed products.  The report
    nests the exact averages; the empirical ones converge to them, within
    the recorded 4-sigma tolerances.
    """
    _require_rqst_space(h)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    exact = lhv_chsh_averages(h)
    coin = uniform((0, 1))
    joint = product(h, coin, coin)
    symbol_counts = tally(joint, trials, seed, threads).counts
    cells = [
        sign_cell(
            symbol_counts,
            [sym[0][i] * sym[0][j] if sym[1:] == (c, d) else 0 for sym in joint.alphabet],
        )
        for (c, d), (i, j) in _AVERAGES.values()
    ]
    variances = [max(0.0, 1.0 - average**2) for average in exact.averages.values()]
    averages, counts, std_errors, tolerances = _cell_statistics(cells, variances)
    return ConditionalAverageReport(
        averages,
        method="lhv-simulated",
        trials=trials,
        seed=seed,
        counts=counts,
        std_errors=std_errors,
        tolerances=tolerances,
        exact=exact,
    )


def random_h_spaces(count: int, seed: int) -> list[FiniteProbabilitySpace]:
    """Hidden-variable distributions drawn uniformly from the simplex.

    Uses normalized exponential draws (symmetric over the 16 vertices),
    from a Philox stream keyed on ``seed``.
    """
    blocks = _random_h_weights(count, seed)
    return [FiniteProbabilitySpace(RQST_TUPLES, w) for block in blocks for w in block]


#: Rows of hidden-variable weights drawn at a time, so that the memory of a
#: sweep does not grow with its count.
_SWEEP_BLOCK = 8192


def _random_h_weights(count: int, seed: int) -> Iterator[np.ndarray]:
    """The weights of :func:`random_h_spaces`, in blocks of at most ``_SWEEP_BLOCK`` rows.

    The blocks' draws from one Philox generator consume its stream exactly
    as one ``(count, 16)`` draw does, and each row is normalized by its own
    sum, so row ``k`` of the stacked blocks is the ``k``-th space's weights.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, count, _SWEEP_BLOCK):
        w = gen.standard_exponential((min(_SWEEP_BLOCK, count - start), len(RQST_TUPLES)))
        yield w / w.sum(axis=1, keepdims=True)


def _lhv_s_values(weights: np.ndarray) -> np.ndarray:
    """``s_value`` of each row of hidden-variable weights over ``RQST_TUPLES``.

    Each row is checked by the rules of :class:`FiniteProbabilitySpace`.
    The matrix product rounds differently from the exact sums of
    :func:`lhv_chsh_averages`, by at most a few units in the last place.
    """
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if np.any(np.abs(weights.sum(axis=1) - 1.0) > SUM_ATOL):
        raise ValueError(f"weights must sum to 1 within {SUM_ATOL}")
    rs, qs, rt, qt = (weights @ _SIGNS).T
    return rs + qs + rt - qt


def local_bound_check(s_value: float) -> Check:
    """The ``chsh-bound`` check ``|s_value| <= LOCAL_BOUND`` (read at call time), plus ``ATOL``."""
    return Check("chsh-bound", abs(s_value), "<=", LOCAL_BOUND + ATOL)


@dataclass(frozen=True)
class SweepReport:
    """Max ``s_value`` of the random draws (None if none) and of the vertices, and their check."""

    max_s_value: float | None
    vertex_max_s_value: float
    num_random: int
    num_vertices: int
    seed: int

    @property
    def check(self) -> Check:
        drawn = [s for s in (self.max_s_value, self.vertex_max_s_value) if s is not None]
        return local_bound_check(max(drawn))

    @property
    def bound_ok(self) -> bool:
        return self.check.passed

    def to_dict(self) -> dict:
        return {**asdict(self), "bound": LOCAL_BOUND, "bound_ok": self.bound_ok}


def lhv_sweep(count: int, seed: int) -> SweepReport:
    """Max ``s_value`` over ``count`` random distributions, and over the 16 point masses.

    The random distributions are drawn and checked one block at a time,
    so the memory of a sweep does not grow with ``count``.  The point
    masses are the rows of the identity, whose ``s_value`` the matrix
    product gives exactly; they are taken after the random draw.
    """
    random_max = max(
        (float(_lhv_s_values(w).max()) for w in _random_h_weights(count, seed)),
        default=None,
    )
    return SweepReport(
        max_s_value=random_max,
        vertex_max_s_value=float(_lhv_s_values(np.eye(len(RQST_TUPLES))).max()),
        num_random=count,
        num_vertices=len(RQST_TUPLES),
        seed=seed,
    )
