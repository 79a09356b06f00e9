"""Each pass/fail decision of a run as one record: a value, a relation and a bound."""

import operator
from typing import NamedTuple

__all__ = ["ATOL", "Check", "RELATIONS", "SIGMAS"]

#: Absolute tolerance of every operator identity and of every exact check.
ATOL = 1e-12

#: Width, in standard errors, of every acceptance band on a sampled average.
SIGMAS = 4.0

#: Each relation's test of ``value`` against ``bound``, and the relation a failure shows.
RELATIONS = {"<=": (operator.le, ">"), ">=": (operator.ge, "<"), "==": (operator.eq, "!=")}


class Check(NamedTuple):
    """The decision ``value relation bound``; any failed check fails its run."""

    name: str
    value: float
    relation: str
    bound: float

    @property
    def passed(self) -> bool:
        return RELATIONS[self.relation][0](self.value, self.bound)

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}
