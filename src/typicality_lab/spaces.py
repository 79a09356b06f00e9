"""Finite probability spaces.

A :class:`FiniteProbabilitySpace` is a normalized non-negative weight
function over an explicitly ordered finite alphabet.  Symbols may be any
hashable values, including (nested) tuples.  The ordering is part of the
value: it is preserved through products, conditionals and marginals so
that seeded sampling downstream is deterministic.

Events are plain collections of symbols; the operations validate
membership.  Individual weights may be exactly zero -- only conditioning
on a zero-probability event is rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # numpy is imported where an array is made, so `lhv ghz` never loads it
    import numpy as np

__all__ = [
    "SUM_ATOL",
    "FiniteProbabilitySpace",
    "uniform",
    "point_mass",
    "fair_coin",
    "product",
]

#: Tolerance on the total weight of a probability space.
SUM_ATOL = 1e-12

#: Cap on the alphabet size of a product space.
MAX_PRODUCT_SIZE = 10**6

#: Every seed of a draw from a space is below this: one 64-bit word.
_MAX_SEED = 2**64


def _encode_symbol(symbol):
    """Symbol -> JSON value (tuples become lists, recursively)."""
    if isinstance(symbol, tuple):
        return [_encode_symbol(part) for part in symbol]
    return symbol


def _decode_symbol(value):
    """JSON value -> symbol (lists become tuples, recursively)."""
    if isinstance(value, list):
        return tuple(_decode_symbol(part) for part in value)
    return value


class FiniteProbabilitySpace:
    """Non-negative weights summing to one over an ordered finite alphabet."""

    __slots__ = ("_alphabet", "_weights", "_index", "_array")

    def __init__(self, alphabet: Iterable, weights: Iterable[float]):
        alpha = tuple(alphabet)
        try:
            items = list(weights)
            # float() would also unwrap an array, parse text and cast a truth value, numpy's too.
            if any(
                getattr(x, "ndim", 0) or isinstance(x, (str, bytes, bytearray, bool))
                or getattr(getattr(x, "dtype", None), "kind", "f") not in "iuf"
                for x in items
            ):
                raise TypeError
            w = tuple(map(float, items))
        except OverflowError:  # an integer beyond the float range, such as 10**400
            raise ValueError("weights must be finite") from None
        except TypeError:  # not a sequence, a nested one, or a value that is no number
            raise ValueError("weights must be a flat sequence of numbers") from None
        if len(alpha) == 0:
            raise ValueError("alphabet must be non-empty")
        if len(alpha) != len(w):
            raise ValueError(
                f"alphabet size {len(alpha)} does not match weight count {len(w)}"
            )
        if len(set(alpha)) != len(alpha):
            raise ValueError("alphabet must be duplicate-free")
        if not all(map(math.isfinite, w)):
            raise ValueError("weights must be finite")
        if any(x < 0 for x in w):
            raise ValueError("weights must be non-negative")
        try:
            total = math.fsum(w)
        except OverflowError:  # finite weights whose sum passes the float range
            total = math.inf
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"weights must sum to 1 within {SUM_ATOL}, got {total!r}")
        self._alphabet = alpha
        self._weights = w
        self._index = {a: i for i, a in enumerate(alpha)}
        self._array = None

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def weights(self) -> np.ndarray:
        """The weights as one read-only float array, made when first read."""
        if self._array is None:
            import numpy as np

            self._array = np.array(self._weights)
            self._array.setflags(write=False)
        return self._array

    def __len__(self) -> int:
        return len(self._alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteProbabilitySpace):
            return NotImplemented
        return self._alphabet == other._alphabet and self._weights == other._weights

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a!r}: {p:g}" for a, p in zip(self._alphabet, self._weights))
        return f"FiniteProbabilitySpace({{{pairs}}})"

    def index(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def prob(self, symbol) -> float:
        """Weight of a single symbol."""
        return self._weights[self.index(symbol)]

    def _event_indices(self, event: Iterable) -> list[int]:
        seen = set()
        for symbol in event:
            seen.add(self.index(symbol))
        return sorted(seen)

    def event_prob(self, event: Iterable) -> float:
        """Total weight of a set of symbols (the empty event has weight 0)."""
        idx = self._event_indices(event)
        return float(self.weights[idx].sum()) if idx else 0.0

    def condition(self, event: Iterable) -> "FiniteProbabilitySpace":
        """Restrict to an event of positive probability and renormalize.

        The conditional alphabet keeps the parent ordering.
        """
        idx = self._event_indices(event)
        mass = float(self.weights[idx].sum()) if idx else 0.0
        if mass <= 0.0:
            raise ValueError("cannot condition on an event of probability zero")
        alpha = tuple(self._alphabet[i] for i in idx)
        return FiniteProbabilitySpace(alpha, (self.weights[idx] / mass).tolist())

    def marginal(self, side: str) -> "FiniteProbabilitySpace":
        """Marginal of a space over pairs, keeping the left or right coordinate."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        for symbol in self._alphabet:
            if not (isinstance(symbol, tuple) and len(symbol) == 2):
                raise ValueError("marginal requires an alphabet of pairs")
        return self.marginal_index(0 if side == "left" else 1)

    def marginal_index(self, coord: int) -> "FiniteProbabilitySpace":
        """Marginal of a space over tuples, keeping coordinate ``coord``.

        The resulting alphabet lists the kept values in order of first
        occurrence in the parent alphabet, so the left/right marginals of
        a product space recover the factors exactly.
        """
        groups: dict = {}
        for symbol, weight in zip(self._alphabet, self._weights):
            if not isinstance(symbol, tuple):
                raise ValueError("marginal requires an alphabet of tuples")
            if not 0 <= coord < len(symbol):
                raise ValueError(
                    f"coordinate {coord} out of range for symbol {symbol!r}"
                )
            groups.setdefault(symbol[coord], []).append(weight)
        return FiniteProbabilitySpace(
            tuple(groups), [math.fsum(parts) for parts in groups.values()]
        )

    def to_json(self) -> str:
        """Serialize as ``{"alphabet": [...], "weights": [...]}``."""
        obj = {
            "alphabet": [_encode_symbol(a) for a in self._alphabet],
            "weights": list(self._weights),
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, source) -> "FiniteProbabilitySpace":
        """Rebuild from :meth:`to_json`'s JSON text."""
        obj = json.loads(source)
        if not isinstance(obj, dict) or "alphabet" not in obj or "weights" not in obj:
            raise ValueError(
                "probability space JSON must be an object with 'alphabet' and 'weights'"
            )
        alphabet, weights = obj["alphabet"], obj["weights"]
        # JSON lists only: the constructor would iterate a string's
        # characters or an object's keys, and cast strings, booleans and
        # nulls.  A nested list is left to the constructor's flat-sequence rule.
        if not isinstance(alphabet, list):
            raise ValueError("malformed probability space JSON: 'alphabet' must be a list")
        if not isinstance(weights, list) or any(
            w is None or isinstance(w, (bool, str, dict)) for w in weights
        ):
            raise ValueError("weights must be a list of JSON numbers")
        try:
            return cls([_decode_symbol(a) for a in alphabet], weights)
        except TypeError as err:
            raise ValueError(f"malformed probability space JSON: {err}") from None


def uniform(alphabet: Iterable) -> FiniteProbabilitySpace:
    """Uniform space over an alphabet."""
    alpha = tuple(alphabet)
    if not alpha:
        raise ValueError("alphabet must be non-empty")
    return FiniteProbabilitySpace(alpha, [1.0 / len(alpha)] * len(alpha))


def point_mass(alphabet: Iterable, symbol) -> FiniteProbabilitySpace:
    """Space giving all weight to one symbol."""
    alpha = tuple(alphabet)
    if symbol not in alpha:
        raise ValueError(f"symbol {symbol!r} is not in the alphabet")
    return FiniteProbabilitySpace(alpha, [1.0 if a == symbol else 0.0 for a in alpha])


def fair_coin() -> FiniteProbabilitySpace:
    """Uniform space on {0, 1}."""
    return uniform((0, 1))


def product(*spaces: FiniteProbabilitySpace) -> FiniteProbabilitySpace:
    """Independent product of K spaces, on K-tuples.

    The product alphabet is the Cartesian product in lexicographic order
    of the factor orderings, and weights multiply.  ``product(p)`` of a
    single space yields 1-tuples.  The product alphabet may hold at most
    ``MAX_PRODUCT_SIZE`` symbols.
    """
    if not spaces:
        raise ValueError("product requires at least one space")
    size = math.prod(len(sp) for sp in spaces)
    if size > MAX_PRODUCT_SIZE:
        raise ValueError(f"product alphabet size {size} exceeds cap {MAX_PRODUCT_SIZE}")
    alphabet = tuple(itertools.product(*(sp.alphabet for sp in spaces)))
    # A symbol's weight is its factors' weights multiplied left to right.
    weights = [math.prod(ws) for ws in itertools.product(*(sp._weights for sp in spaces))]
    return FiniteProbabilitySpace(alphabet, weights)
