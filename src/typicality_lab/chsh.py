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
:mod:`typicality_lab.protocol`) when this module is imported.  Its
observables and singlet are built on first use, so the local-realist
analyses load no ``linalg``.  Its outcome distribution has the closed form

    P(c, d, m, n) = [1 + (-1)^(cd) * m * n / sqrt(2)] / 16,

which every run cross-checks against the Born weights of the operator
construction.  Conditioning on the coin pair and averaging the outcome
product m*n gives <RS> + <QS> + <RT> - <QT> = 2*sqrt(2), whereas any
assignment of pre-existing values to R, Q, S, T -- however distributed --
caps the same combination at 2 (the CHSH inequality).  Rounds of such a model
are drawn as a run of the law their values reveal over the same 16 outcomes.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .checks import ATOL, FALSE_ALARM_RATE, SIGMAS, Check
from .protocol import Protocol
from .spaces import FiniteProbabilitySpace

if TYPE_CHECKING:  # numpy is imported by the sweep, the sampler by the runs that draw
    import numpy as np

    from .worlds import WorldPrefix

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


def _closed_form(o: ChshOutcome) -> float:
    sign = 1 if (o.c * o.d) % 2 == 0 else -1  # integer (-1)^(cd)
    # (2 + sign m n sqrt 2) / 32, sqrt 2 to 200 bits: one int ratio, which division rounds once.
    return (2 * 2**200 + sign * o.m * o.n * math.isqrt(2 * 4**200)) / (32 * 2**200)


@functools.cache
def _arrays() -> tuple:
    from .linalg import X, Z, bell_singlet

    # Party A measures (R, Q) = (X, Z), party B (S, T) = (-(X+Z)/sqrt2, (-X+Z)/sqrt2).
    return ((X, Z), (-(X + Z) / _SQRT2, (-X + Z) / _SQRT2)), bell_singlet()


CHSH = Protocol(ChshOutcome, _arrays, _closed_form, MIN_TRIALS)
CHSH_OUTCOMES = CHSH.alphabet
build_chsh_operators = CHSH.operators
chsh_distribution = CHSH.distribution
coin_event = CHSH.coin_event


class ConditionalAverageReport(NamedTuple):
    """The four coin-conditioned product averages and their combination.

    ``averages`` maps ``rs``, ``qs``, ``rt`` and ``qt`` to their values, and
    ``s_value`` is ``rs + qs + rt - qt`` computed from them in that order.
    For sampled runs, ``counts`` holds the per-average cell sizes, and
    :attr:`check` holds ``s_value`` within ``s_tolerance`` of ``s_target``.
    ``cell_tests`` holds each coin pair's block-frequency test, and
    ``exact`` the noise-free reference report when one exists.  Fields left
    at None are not reported.
    """

    averages: dict
    method: str
    trials: int | None = None
    seed: int | None = None
    counts: dict | None = None
    s_target: float | None = None
    s_tolerance: float | None = None
    cell_tests: dict | None = None
    exact: "ConditionalAverageReport | None" = None

    @property
    def s_value(self) -> float:
        a = self.averages
        return a["rs"] + a["qs"] + a["rt"] - a["qt"]

    @property
    def check(self) -> Check:
        """The ``s-value`` check of a sampled run: ``|s_value - s_target| <= s_tolerance``."""
        return Check("s-value", abs(self.s_value - self.s_target), "<=", self.s_tolerance)

    def to_dict(self) -> dict:
        out = {**self._asdict(), "s_value": self.s_value}
        out["exact"] = self.exact and self.exact.to_dict()
        out["cell_tests"] = self.cell_tests and {
            key: test.to_dict() for key, test in self.cell_tests.items()
        }
        return {key: value for key, value in out.items() if value is not None}


def _cell_statistics(cells: dict) -> tuple[dict, dict]:
    """Averages and counts of the four coin-pair cells, keyed as ``_AVERAGES``.

    ``cells`` maps each coin pair to its cell, as :meth:`CHSH.tally_cells` returns them.
    Raises if any coin pair collected no samples.
    """
    averages, counts = {}, {}
    for name, ((c, d), _) in _AVERAGES.items():
        cell = cells[c, d]
        if cell.count == 0:
            raise RuntimeError(f"coin pair ({c},{d}) collected no samples")
        averages[name] = cell.mean
        counts[name] = cell.count
    return averages, counts


def run_chsh(
    trials: int,
    seed: int,
    threads: int = 1,
    on_world: Callable[[WorldPrefix], None] | None = None,
) -> ConditionalAverageReport:
    """Sample a length-``trials`` world and compute the conditional averages.

    The world is drawn directly from the round distribution: the measure
    over outcome sequences is exactly the i.i.d. product of the Born
    weights, so per-round state collapse would produce identical
    statistics at far higher cost (and the distribution itself is
    cross-checked against the operator construction).

    ``s_value`` is held to ``S_TARGET`` within ``SIGMAS`` times its standard
    deviation ``sqrt(sum 0.5 / n)`` given the cell counts ``n``.  Each coin
    pair is also tested against its conditional law (see
    :meth:`~typicality_lab.protocol.Protocol.cell_tests`).  Raises if any coin
    pair collected no samples.  Every statistic is taken from the symbol counts
    and per-coin cells of :meth:`~typicality_lab.protocol.Protocol.tally_cells`,
    so the world is not kept unless ``on_world`` is given; it is then
    called with the world before any statistic is checked.
    """
    fps = chsh_distribution("analytic")
    counts, cells = CHSH.tally_cells(fps, trials, seed, threads, on_world)
    averages, cell_counts = _cell_statistics(cells)
    return ConditionalAverageReport(
        averages,
        method="typical-sampling",
        trials=trials,
        seed=seed,
        counts=cell_counts,
        s_target=S_TARGET,
        s_tolerance=SIGMAS * math.sqrt(sum(0.5 / n for n in cell_counts.values())),
        cell_tests=CHSH.cell_tests(fps, counts),
    )


def _require_h_space(h: FiniteProbabilitySpace) -> None:
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
    _require_h_space(h)
    averages = {
        name: math.fsum(h.prob(x) * x[i] * x[j] for x in RQST_TUPLES)
        for name, (_, (i, j)) in _AVERAGES.items()
    }
    return ConditionalAverageReport(averages, method="lhv-exact")


def _revealed_law(h: FiniteProbabilitySpace) -> FiniteProbabilitySpace:
    """The law a local round reveals on ``CHSH.alphabet``: ``h{x[c] = m, x[2 + d] = n} / 4``.

    Its sums, and the total of ``h`` they are divided by, are exactly rounded,
    so it does not depend on the order of ``h``'s alphabet.
    """
    total = 4 * math.fsum(map(h.prob, RQST_TUPLES))
    revealed = [[x for x in RQST_TUPLES if (x[o.c], x[2 + o.d]) == o[2:]] for o in CHSH.alphabet]
    weights = [math.fsum(map(h.prob, xs)) / total for xs in revealed]
    return FiniteProbabilitySpace(CHSH.alphabet, weights)


def lhv_chsh_simulate(
    h: FiniteProbabilitySpace, trials: int, seed: int, threads: int = 1
) -> ConditionalAverageReport:
    """Sampled counterpart of :func:`lhv_chsh_averages`.

    A CHSH run of :func:`_revealed_law`, read off its coin-pair cells as :func:`run_chsh`
    reads its own.  The report nests the exact averages, and its check holds ``s_value`` to
    the exact one within Hoeffding's band (*JASA* 58, 1963): given the cell counts ``n``, it
    sums ``n`` independent terms of range ``2 / n`` per coin pair, so it strays ``t`` from
    its mean with probability at most ``2 exp(-t**2 / (2 sum 1/n))`` for every ``h``, and
    the band is the ``t`` where that is ``FALSE_ALARM_RATE``.  A normal band rejects far
    above that rate for an ``h`` near a vertex.  Raises below ``MIN_TRIALS``, before
    drawing, as the quantum runs do.
    """
    exact = lhv_chsh_averages(h)
    _, cells = CHSH.tally_cells(_revealed_law(h), trials, seed, threads)
    averages, counts = _cell_statistics(cells)
    spread = sum(1 / n for n in counts.values())
    return ConditionalAverageReport(
        averages,
        method="lhv-simulated",
        trials=trials,
        seed=seed,
        counts=counts,
        s_target=exact.s_value,
        s_tolerance=math.sqrt(2 * math.log(2 / FALSE_ALARM_RATE) * spread),
        exact=exact,
    )


#: Each value tuple's ``rs + qs + rt - qt``, +2 or -2, in ``RQST_TUPLES`` order.
_S_COEFFICIENTS = tuple(
    ConditionalAverageReport(
        {name: x[i] * x[j] for name, (_, (i, j)) in _AVERAGES.items()}, "lhv-exact"
    ).s_value
    for x in RQST_TUPLES
)

#: A swept weight is an integer count of ``2**-53``.
_ONE = 2**53

#: Rows of hidden-variable weights drawn at a time, which bounds a sweep's memory.
_SWEEP_BLOCK = 1024


def random_h_spaces(count: int, seed: int) -> list[FiniteProbabilitySpace]:
    """Hidden-variable distributions uniform on the simplex, :func:`_random_h_counts` / 2**53."""
    blocks = _random_h_counts(count, seed)
    return [FiniteProbabilitySpace(RQST_TUPLES, w) for block in blocks for w in block / _ONE]


def _random_h_counts(count: int, seed: int) -> Iterator[np.ndarray]:
    """The weights of :func:`random_h_spaces` times ``2**53``, ``_SWEEP_BLOCK`` rows at a time.

    Row ``k`` sorts the top 53 bits, ``w >> 11``, of raw words ``15k`` to ``15k + 14`` of
    one Philox stream keyed on ``seed``.  Its int64 counts are the 16 gaps from 0 through
    those cuts to ``2**53``, in ``RQST_TUPLES`` order: spacings of sorted uniforms are
    uniform on the simplex (Devroye, *Non-Uniform Random Variate Generation*, 1986, V.2).
    """
    import numpy as np

    if count < 0:
        raise ValueError("count must be non-negative")
    bitgen = np.random.Philox(key=seed)
    for start in range(0, count, _SWEEP_BLOCK):
        words = bitgen.random_raw((min(_SWEEP_BLOCK, count - start), len(RQST_TUPLES) - 1))
        yield np.diff(np.sort((words >> 11).astype(np.int64)), prepend=0, append=_ONE)


def _max_s_value(counts: np.ndarray) -> float:
    """The largest ``s_value`` of rows of weights ``counts * 2**-53``, from exact int64 sums."""
    return int((counts @ _S_COEFFICIENTS).max()) / _ONE


def local_bound_check(s_value: float) -> Check:
    """The ``chsh-bound`` check ``|s_value| <= LOCAL_BOUND`` (read at call time), plus ``ATOL``."""
    return Check("chsh-bound", abs(s_value), "<=", LOCAL_BOUND + ATOL)


class SweepReport(NamedTuple):
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
        return {**self._asdict(), "bound": LOCAL_BOUND, "bound_ok": self.bound_ok}


def lhv_sweep(count: int, seed: int) -> SweepReport:
    """Max ``s_value`` over ``count`` random distributions, and over the 16 point masses.

    The random distributions are drawn and scored one block at a time, so the
    memory of a sweep does not grow with ``count``.  The point masses, taken
    after them, are the rows of ``2**53`` times the identity.  Only the sweep
    loads numpy, so the exact ``lhv chsh`` run loads none.
    """
    import numpy as np

    random_max = max(map(_max_s_value, _random_h_counts(count, seed)), default=None)
    return SweepReport(
        max_s_value=random_max,
        vertex_max_s_value=_max_s_value(_ONE * np.eye(len(RQST_TUPLES), dtype=np.int64)),
        num_random=count,
        num_vertices=len(RQST_TUPLES),
        seed=seed,
    )
