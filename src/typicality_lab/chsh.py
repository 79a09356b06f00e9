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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import battery as battery_mod
from .linalg import X, Z, bell_singlet
from .protocol import Protocol
from .spaces import SUM_ATOL, FiniteProbabilitySpace, product, uniform
from .worlds import WorldPrefix, sign_cell, tally

__all__ = [
    "ChshOutcome",
    "CHSH_OUTCOMES",
    "RQST_TUPLES",
    "MIN_TRIALS",
    "S_TARGET",
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

    ``s_value`` is always ``rs + qs + rt - qt`` exactly as computed from
    the four stored averages.  For sampled runs, ``counts`` holds the
    per-average cell sizes, ``std_errors`` the binomial standard errors of
    each average, and ``tolerances`` the 4-sigma acceptance bands derived
    from the appropriate exact distribution.  ``exact`` carries the
    noise-free reference report when one exists.
    """

    rs: float
    qs: float
    rt: float
    qt: float
    s_value: float
    method: str
    trials: int | None = None
    seed: int | None = None
    counts: dict | None = None
    std_errors: dict | None = None
    tolerances: dict | None = None
    batteries: dict | None = None
    exact: "ConditionalAverageReport | None" = None

    @classmethod
    def from_averages(cls, averages: dict, method: str, **extra) -> "ConditionalAverageReport":
        s_value = averages["rs"] + averages["qs"] + averages["rt"] - averages["qt"]
        return cls(
            rs=averages["rs"],
            qs=averages["qs"],
            rt=averages["rt"],
            qt=averages["qt"],
            s_value=s_value,
            method=method,
            **extra,
        )

    @property
    def averages(self) -> dict:
        return {"rs": self.rs, "qs": self.qs, "rt": self.rt, "qt": self.qt}

    def to_dict(self) -> dict:
        out = {
            "averages": self.averages,
            "s_value": self.s_value,
            "method": self.method,
        }
        if self.trials is not None:
            out["trials"] = self.trials
        if self.seed is not None:
            out["seed"] = self.seed
        if self.counts is not None:
            out["counts"] = dict(self.counts)
        if self.std_errors is not None:
            out["std_errors"] = dict(self.std_errors)
        if self.tolerances is not None:
            out["tolerances"] = dict(self.tolerances)
        if self.batteries is not None:
            out["battery"] = {
                key: rep.to_dict() for key, rep in self.batteries.items()
            }
        if self.exact is not None:
            out["exact"] = self.exact.to_dict()
        return out


def run_chsh(
    trials: int,
    seed: int,
    threads: int = 1,
    battery_blocks: Sequence[int] | None = battery_mod.DEFAULT_BLOCK_LENS,
    significance: float = battery_mod.DEFAULT_SIGNIFICANCE,
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
    pass ``None`` to skip).  Raises if any coin pair collected no samples.
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
        for k in battery_blocks or ()
        if battery_mod.long_enough(trials, len(events[0]), k)
    ]
    tallied = tally(fps, trials, seed, threads, events, block_lens, on_world)
    averages: dict[str, float] = {}
    counts: dict[str, int] = {}
    std_errors: dict[str, float] = {}
    tolerances: dict[str, float] = {}
    tested: dict[str, tuple] = {}
    for (name, ((c, d), _)), event, cell_tally in zip(
        _AVERAGES.items(), events, tallied.cells
    ):
        cell = sign_cell(tallied.counts, CHSH.product_signs(c, d))
        if cell.count == 0:
            raise RuntimeError(f"coin pair ({c},{d}) collected no samples")
        averages[name] = cell.mean
        counts[name] = cell.count
        std_errors[name] = cell.std_error
        # 4 sigma under the exact conditional law: Var(m*n) = 1 - 1/2.
        tolerances[name] = 4.0 * math.sqrt(0.5 / cell.count)
        if battery_blocks is not None:
            conditional = fps.condition(event)
            # Only block lengths the cell is long enough for.
            usable = [
                k
                for k in battery_blocks
                if battery_mod.long_enough(cell.count, len(conditional.alphabet), k)
            ]
            if usable:
                tested[f"{c}{d}"] = (cell_tally, conditional, usable)
    tolerances["s_value"] = 4.0 * math.sqrt(sum(0.5 / n for n in counts.values()))
    batteries = {
        key: battery_mod.run_battery(cell_tally, conditional, usable, significance)
        for key, (cell_tally, conditional, usable) in tested.items()
    }
    return ConditionalAverageReport.from_averages(
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
    return ConditionalAverageReport.from_averages(averages, method="lhv-exact")


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
    averages: dict[str, float] = {}
    counts: dict[str, int] = {}
    std_errors: dict[str, float] = {}
    tolerances: dict[str, float] = {}
    exact_avgs = exact.averages
    for name, ((c, d), (i, j)) in _AVERAGES.items():
        cell = sign_cell(
            symbol_counts,
            [sym[0][i] * sym[0][j] if sym[1:] == (c, d) else 0 for sym in joint.alphabet],
        )
        if cell.count == 0:
            raise RuntimeError(f"coin pair ({c},{d}) collected no samples")
        averages[name] = cell.mean
        counts[name] = cell.count
        std_errors[name] = cell.std_error
        variance = max(0.0, 1.0 - exact_avgs[name] ** 2)
        tolerances[name] = 4.0 * math.sqrt(variance / cell.count)
    return ConditionalAverageReport.from_averages(
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
    return [FiniteProbabilitySpace(RQST_TUPLES, w) for w in _random_h_weights(count, seed)]


def _random_h_weights(count: int, seed: int) -> np.ndarray:
    """The weights of :func:`random_h_spaces`, one row per distribution.

    One ``(count, 16)`` draw consumes the Philox stream exactly as
    ``count`` successive 16-draws do, and each row is normalized by its
    own sum, so row ``k`` is the ``k``-th space's weight vector.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    w = gen.standard_exponential((count, len(RQST_TUPLES)))
    return w / w.sum(axis=1, keepdims=True)


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


@dataclass(frozen=True)
class SweepReport:
    """Bound check over random hidden-variable distributions plus all vertices."""

    max_s_value: float
    vertex_max_s_value: float
    num_random: int
    num_vertices: int
    seed: int
    bound: float = 2.0

    @property
    def bound_ok(self) -> bool:
        return self.max_s_value <= self.bound + 1e-12

    def to_dict(self) -> dict:
        return {
            "max_s_value": self.max_s_value,
            "vertex_max_s_value": self.vertex_max_s_value,
            "num_random": self.num_random,
            "num_vertices": self.num_vertices,
            "seed": self.seed,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
        }


def lhv_sweep(count: int, seed: int) -> SweepReport:
    """Max ``s_value`` over ``count`` random distributions and the 16 point masses.

    The point masses are the rows of the identity, whose ``s_value`` the
    matrix product gives exactly.  They are taken after the random draw,
    whose weights set the peak memory, so that the first matrix product's
    BLAS buffers are not added to it.
    """
    random_s = _lhv_s_values(_random_h_weights(count, seed))
    vertex_s = _lhv_s_values(np.eye(len(RQST_TUPLES)))
    return SweepReport(
        max_s_value=float(np.concatenate([vertex_s, random_s]).max()),
        vertex_max_s_value=float(vertex_s.max()),
        num_random=count,
        num_vertices=len(RQST_TUPLES),
        seed=seed,
    )
