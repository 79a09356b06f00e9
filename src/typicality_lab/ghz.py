"""The GHZ protocol: perfect three-party correlations and their local-realist impossibility.

Each round, a source distributes the three qubits of the state
``(|000> - |111>)/sqrt(2)`` to three parties.  Each party tosses a fair
coin and measures ``X`` on 0 or ``Y`` on 1.  One round is a single
64-outcome measurement, declared once as the :data:`GHZ` record (see
:mod:`typicality_lab.protocol`), whose distribution is

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

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .checks import SIGMAS, Check
from .linalg import X, Y, ghz_state
from .protocol import Protocol
from .spaces import FiniteProbabilitySpace
from .worlds import WorldPrefix, sign_cell, tally

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


def _closed_form(o: GhzOutcome) -> float:
    return (1 - o.m1 * o.m2 * o.m3 * COS_QUARTER_TURNS[o.c1 + o.c2 + o.c3]) / 64.0


#: Every party measures X on coin 0 and Y on coin 1.  The Y observable
#: makes the Born weights complex; a real-only shortcut would be wrong.
GHZ = Protocol(
    outcome=GhzOutcome,
    observables=((X, Y),) * 3,
    shared_state=ghz_state(),
    closed_form=_closed_form,
)

#: All 64 outcomes, in the canonical sampling order.
GHZ_OUTCOMES = GHZ.alphabet

build_ghz_operators = GHZ.operators
ghz_distribution = GHZ.distribution
coin_event = GHZ.coin_event


@dataclass(frozen=True)
class GhzRunReport:
    """Per-coin-triple results of a sampled run.

    ``constrained`` maps the four perfectly correlated triples to their
    sample count, required product and violation count (always zero short
    of a sampler bug), and ``check`` holds their total to zero; ``free``
    maps the other four triples to their mean product, which converges to
    0 within the recorded 4-sigma tolerance (both null for a triple with
    no rounds).
    """

    trials: int
    seed: int
    constrained: dict
    free: dict

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
    empirical mean product.  The counts are taken while the world is
    drawn; ``on_world``, if given, is called with the world.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}, got {trials}")
    fps = ghz_distribution("analytic")
    symbol_counts = tally(fps, trials, seed, threads, on_world=on_world).counts
    constrained: dict = {}
    free: dict = {}
    for coins in itertools.product((0, 1), repeat=3):
        key = "".join(str(c) for c in coins)
        cell = sign_cell(symbol_counts, GHZ.product_signs(*coins))
        if key in CONSTRAINTS:
            required = CONSTRAINTS[key][1]
            violations = cell.plus if required < 0 else cell.minus
            constrained[key] = {
                "count": cell.count,
                "required_product": required,
                "violations": violations,
            }
        else:
            free[key] = {
                "count": cell.count,
                "mean_product": cell.mean if cell.count else None,
                "tolerance": SIGMAS / math.sqrt(cell.count) if cell.count else None,
            }
    return GhzRunReport(trials=trials, seed=seed, constrained=constrained, free=free)


def _constraint_satisfied(assignment: LhvAssignment, name: str) -> bool:
    coords, required = CONSTRAINTS[name]
    prod = assignment[coords[0]] * assignment[coords[1]] * assignment[coords[2]]
    return prod == required


@dataclass(frozen=True)
class GhzEnumeration:
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
        return {**asdict(self), "witnesses": witnesses}


def lhv_ghz_enumerate() -> GhzEnumeration:
    """Count assignments meeting the perfect-correlation constraints (none do).

    The three +1 constraints alone are three independent parities on six
    values and admit exactly 8 assignments; adding the 000 constraint
    leaves none, since the product of the three +1 parities forces the
    000 product to +1.
    """
    per_constraint = {name: 0 for name in CONSTRAINTS}
    satisfying = plus_only = 0
    witnesses = []
    for assignment in LHV_ASSIGNMENTS:
        verdicts = {name: _constraint_satisfied(assignment, name) for name in CONSTRAINTS}
        for name, ok in verdicts.items():
            per_constraint[name] += int(ok)
        satisfying += all(verdicts.values())
        plus_only += all(verdicts[n] for n in ("011", "101", "110"))
        failed = [name for name, ok in verdicts.items() if not ok]
        witnesses += [(assignment, failed[0])] if failed else []
    return GhzEnumeration(
        satisfying_count=satisfying,
        plus_only_count=plus_only,
        per_constraint_counts=per_constraint,
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class FeasibilityReport:
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
        return {**asdict(self), "feasible": self.feasible}


def _require_assignment_space(p: FiniteProbabilitySpace) -> None:
    if set(p.alphabet) != set(LHV_ASSIGNMENTS):
        raise ValueError(
            "hidden-variable space must be over all 64 six-value assignments "
            "with entries +1/-1"
        )


def lhv_ghz_feasibility(p: FiniteProbabilitySpace) -> FeasibilityReport:
    """Per-constraint violation mass of a distribution over value assignments."""
    _require_assignment_space(p)
    masses = {}
    for name in CONSTRAINTS:
        masses[name] = math.fsum(
            p.prob(x) for x in LHV_ASSIGNMENTS if not _constraint_satisfied(LhvAssignment(*x), name)
        )
    return FeasibilityReport(
        violation_mass=masses,
        total_violation_mass=math.fsum(masses.values()),
    )
