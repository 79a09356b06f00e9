"""Each pass/fail decision of a run as one record: a value, a relation and a bound."""

import math
import operator
from typing import NamedTuple

__all__ = ["ATOL", "Check", "FALSE_ALARM_RATE", "RELATIONS", "SIGMAS"]

#: Absolute tolerance of every operator identity and of every exact check.
ATOL = 1e-12

#: Width, in standard errors, of the ``chsh`` s-value band, which sets ``FALSE_ALARM_RATE``.
SIGMAS = 4.0

#: The stated false-alarm rate of every gate on a sampled run: the two-sided normal tail
#: beyond ``SIGMAS``, 2 Phi(-4), about 6.33e-5.  Measured rates differ at the trials floors:
#: the s-value band's exact rate is at most 1.06x this, and the coin-cell families' are in
#: :data:`~typicality_lab.protocol.CELL_FAMILY_RATE`'s note.
FALSE_ALARM_RATE = math.erfc(SIGMAS / math.sqrt(2.0))

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
