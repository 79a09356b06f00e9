"""The GHZ protocol: perfect three-party correlations and their local-realist impossibility.

Each round, a source distributes the three qubits of the state
``(|000> - |111>)/sqrt(2)`` to three parties.  Each party tosses a fair
coin and measures ``X`` on 0 or ``Y`` on 1.  One round is a single
64-outcome measurement, declared once as the :data:`GHZ` record (see
:mod:`typicality_lab.protocol`) when this module is imported; its
observables and state are built on first use, so ``lhv ghz`` loads no
numpy.  The round's distribution is

    P(c1, c2, c3, m1, m2, m3) = [1 - m1*m2*m3 * cos(pi*(c1+c2+c3)/2)] / 64.

The cosine factor is evaluated by integer lookup on c1+c2+c3, never by
floating trigonometry, so the structural zeros of the distribution are
exact.  That exactness carries the whole argument: an outcome of weight
exactly zero can never be sampled, so for coin triples 011/101/110 the
product m1*m2*m3 is +1 on *every* round, and on 000 it is -1 on every
round -- perfect correlations, not statistical ones.

No assignment of pre-existing values to the six observables can
reproduce those correlations: the four parity constraints they impose on
(m1_0, m1_1, m2_0, m2_1, m3_0, m3_1) have no solution, which
:func:`lhv_ghz_enumerate` verifies by checking all 64 assignments.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .checks import Check
from .protocol import Protocol
from .spaces import FiniteProbabilitySpace

if TYPE_CHECKING:  # the sampler is imported by the run, not by the enumeration
    from .worlds import WorldPrefix

__all__ = [
    "GhzOutcome",
    "GHZ_OUTCOMES",
    "LhvAssignment",
    "LHV_ASSIGNMENTS",
    "MIN_TRIALS",
    "COS_QUARTER_TURNS",
    "CONSTRAINTS",
    "GHZ",
    "build_ghz_operators",
    "ghz_distribution",
    "coin_event",
    "GhzRunReport",
    "run_ghz",
    "GhzEnumeration",
    "lhv_ghz_enumerate",
    "FeasibilityReport",
    "lhv_ghz_feasibility",
]


class GhzOutcome(NamedTuple):
    """One round's record: the three coins and the three measurement results."""

    c1: int
    c2: int
    c3: int
    m1: int
    m2: int
    m3: int


class LhvAssignment(NamedTuple):
    """Pre-existing values of the six observables, ``m<i>_<coin>`` per party."""

    m1_0: int
    m1_1: int
    m2_0: int
    m2_1: int
    m3_0: int
    m3_1: int


#: All 64 value assignments, in lexicographic order over (+1, -1).
LHV_ASSIGNMENTS = tuple(
    LhvAssignment(*values) for values in itertools.product((1, -1), repeat=6)
)

#: Minimum run length, so each coin triple collects on the order of 10^3 samples.
MIN_TRIALS = 8000

#: cos(pi*k/2) for k = c1+c2+c3, as exact integers.
COS_QUARTER_TURNS = {0: 1, 1: 0, 2: -1, 3: 0}

#: The perfect-correlation constraints, keyed by coin triple in fixed
#: order: value product +1 on 011/101/110 and -1 on 000.
CONSTRAINTS = {
    "011": ((0, 3, 5), +1),
    "101": ((1, 2, 5), +1),
    "110": ((1, 3, 4), +1),
    "000": ((0, 2, 4), -1),
}

#: For each of ``LHV_ASSIGNMENTS``, whether it meets each constraint, keyed
#: in ``CONSTRAINTS`` order; both local-realist analyses read this table.
_VERDICTS = tuple(
    {
        name: math.prod(a[i] for i in coords) == required
        for name, (coords, required) in CONSTRAINTS.items()
    }
    for a in LHV_ASSIGNMENTS
)


def _closed_form(o: GhzOutcome) -> float:
    return (1 - o.m1 * o.m2 * o.m3 * COS_QUARTER_TURNS[o.c1 + o.c2 + o.c3]) / 64.0


@functools.cache
def _arrays() -> tuple:
    from .linalg import X, Y, ghz_state

    # Every party measures X on coin 0 and Y on coin 1.  The Y observable
    # makes the Born weights complex; a real-only shortcut would be wrong.
    return ((X, Y),) * 3, ghz_state()


GHZ = Protocol(GhzOutcome, _arrays, _closed_form, MIN_TRIALS)
GHZ_OUTCOMES = GHZ.alphabet
build_ghz_operators = GHZ.operators
ghz_distribution = GHZ.distribution
coin_event = GHZ.coin_event


class GhzRunReport(NamedTuple):
    """Per-coin-triple results of a sampled run.

    ``constrained`` maps the four perfectly correlated triples to their
    sample count, required product and violation count (always zero short
    of a sampler bug), and ``check`` holds their total to zero; ``free``
    maps the other four triples to their sample count and mean product,
    which tends to 0 (null for a triple with no rounds).  ``cell_tests``
    holds each triple's chi-square test, keyed alike, which decides both kinds.
    """

    trials: int
    seed: int
    constrained: dict
    free: dict
    cell_tests: dict

    @property
    def check(self) -> Check:
        violations = sum(entry["violations"] for entry in self.constrained.values())
        return Check("perfect-correlations", violations, "==", 0)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "perfect_correlation": dict(self.constrained),
            "free_triples": dict(self.free),
            "cell_tests": {key: test.to_dict() for key, test in self.cell_tests.items()},
        }


def run_ghz(
    trials: int,
    seed: int,
    threads: int = 1,
    on_world: Callable[[WorldPrefix], None] | None = None,
) -> GhzRunReport:
    """Sample a length-``trials`` world and count the perfect-correlation violations.

    For coin triples 011/101/110 every conditioned round must have
    product +1, and for 000 product -1; each round that breaks this is
    counted, though such outcomes have weight exactly zero and the
    sampler cannot produce them.  The remaining four triples report their
    empirical mean product.  Each triple's cell is taken from
    :meth:`~typicality_lab.protocol.Protocol.tally_cells`, counted while
    the world is drawn; ``on_world``, if given, is called with the world.
    Each triple is also tested against its conditional law (see
    :meth:`~typicality_lab.protocol.Protocol.cell_tests`), which a forbidden
    outcome fails; for a free triple that test, not a band on its mean, decides.
    """
    fps = ghz_distribution("analytic")
    counts, cells = GHZ.tally_cells(fps, trials, seed, threads, on_world)
    constrained, free = {}, {}
    for coins, cell in cells.items():
        key = "".join(str(c) for c in coins)
        if key in CONSTRAINTS:
            required = CONSTRAINTS[key][1]
            constrained[key] = {
                "count": cell.count,
                "required_product": required,
                "violations": cell.plus if required < 0 else cell.minus,
            }
        else:
            free[key] = {
                "count": cell.count,
                "mean_product": cell.mean if cell.count else None,
            }
    return GhzRunReport(trials, seed, constrained, free, GHZ.cell_tests(fps, counts))


class GhzEnumeration(NamedTuple):
    """Exhaustive check of all 64 value assignments against the four constraints.

    ``witnesses`` lists, for every assignment, the first constraint (in
    the fixed order 011, 101, 110, 000) it fails; no assignment satisfies
    all four, so the table always has 64 rows.
    """

    satisfying_count: int
    plus_only_count: int
    per_constraint_counts: dict
    witnesses: tuple

    @property
    def check(self) -> Check:
        return Check("lhv-enumeration", self.satisfying_count, "==", 0)

    def to_dict(self) -> dict:
        witnesses = [{"assignment": list(a), "fails": name} for a, name in self.witnesses]
        return {**self._asdict(), "witnesses": witnesses}


def lhv_ghz_enumerate() -> GhzEnumeration:
    """Count assignments meeting the perfect-correlation constraints (none do).

    The three +1 constraints alone are three independent parities on six
    values and admit exactly 8 assignments; adding the 000 constraint
    leaves none, since the product of the three +1 parities forces the
    000 product to +1.
    """
    return GhzEnumeration(
        satisfying_count=sum(all(v.values()) for v in _VERDICTS),
        plus_only_count=sum(v["011"] and v["101"] and v["110"] for v in _VERDICTS),
        per_constraint_counts={name: sum(v[name] for v in _VERDICTS) for name in CONSTRAINTS},
        witnesses=tuple(
            (a, next(name for name, ok in v.items() if not ok))
            for a, v in zip(LHV_ASSIGNMENTS, _VERDICTS)
            if not all(v.values())
        ),
    )


class FeasibilityReport(NamedTuple):
    """Constraint-violation mass of a hidden-value distribution.

    ``violation_mass[name]`` is the total weight on assignments breaking
    that constraint.  Recovering the perfect correlations would need all
    four masses to vanish, but every assignment violates at least one
    constraint, so the masses sum to at least 1 for any distribution;
    ``feasible`` is therefore always False.
    """

    violation_mass: dict
    total_violation_mass: float

    @property
    def feasible(self) -> bool:
        return all(mass == 0.0 for mass in self.violation_mass.values())

    def to_dict(self) -> dict:
        return {**self._asdict(), "feasible": self.feasible}


def _require_h_space(p: FiniteProbabilitySpace) -> None:
    if set(p.alphabet) != set(LHV_ASSIGNMENTS):
        raise ValueError(
            "hidden-variable space must be over all 64 six-value assignments "
            "with entries +1/-1"
        )


def lhv_ghz_feasibility(p: FiniteProbabilitySpace) -> FeasibilityReport:
    """Per-constraint violation mass of a distribution over value assignments."""
    _require_h_space(p)
    masses = {
        name: math.fsum(p.prob(a) for a, v in zip(LHV_ASSIGNMENTS, _VERDICTS) if not v[name])
        for name in CONSTRAINTS
    }
    return FeasibilityReport(
        violation_mass=masses,
        total_violation_mass=math.fsum(masses.values()),
    )
