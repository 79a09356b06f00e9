"""Finite probability spaces and the Bernoulli measure of strings.

A :class:`FiniteProbabilitySpace` is a normalized non-negative weight
function over an explicitly ordered finite alphabet.  Symbols may be any
hashable values, including (nested) tuples.  The ordering is part of the
value: it is preserved through products, conditionals and marginals so
that seeded sampling downstream is deterministic.

Events are plain collections of symbols; the operations validate
membership.  Individual weights may be exactly zero -- only conditioning
on a zero-probability event is rejected.

Strings over the alphabet get the i.i.d. product weight
``P(s1) * ... * P(sn)``, which is the measure of the set of infinite
sequences extending the string; a prefix-free set of strings has measure
equal to the sum of its string weights.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce
from typing import Iterable, Sequence

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

    __slots__ = ("_alphabet", "_weights", "_index")

    def __init__(self, alphabet: Iterable, weights: Iterable[float]):
        alpha = tuple(alphabet)
        w = np.array(list(weights), dtype=float)
        if len(alpha) == 0:
            raise ValueError("alphabet must be non-empty")
        if w.ndim != 1:
            raise ValueError("weights must be a flat sequence of numbers")
        if len(alpha) != w.size:
            raise ValueError(
                f"alphabet size {len(alpha)} does not match weight count {w.size}"
            )
        if len(set(alpha)) != len(alpha):
            raise ValueError("alphabet must be duplicate-free")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"weights must sum to 1 within {SUM_ATOL}, got {total!r}")
        w.setflags(write=False)
        self._alphabet = alpha
        self._weights = w
        self._index = {a: i for i, a in enumerate(alpha)}

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __len__(self) -> int:
        return len(self._alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteProbabilitySpace):
            return NotImplemented
        return self._alphabet == other._alphabet and np.array_equal(
            self._weights, other._weights
        )

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
        return float(self._weights[self.index(symbol)])

    def _event_indices(self, event: Iterable) -> list[int]:
        seen = set()
        for symbol in event:
            seen.add(self.index(symbol))
        return sorted(seen)

    def event_prob(self, event: Iterable) -> float:
        """Total weight of a set of symbols (the empty event has weight 0)."""
        idx = self._event_indices(event)
        return float(self._weights[idx].sum()) if idx else 0.0

    def condition(self, event: Iterable) -> "FiniteProbabilitySpace":
        """Restrict to an event of positive probability and renormalize.

        The conditional alphabet keeps the parent ordering.
        """
        idx = self._event_indices(event)
        mass = float(self._weights[idx].sum()) if idx else 0.0
        if mass <= 0.0:
            raise ValueError("cannot condition on an event of probability zero")
        alpha = tuple(self._alphabet[i] for i in idx)
        weights = self._weights[idx] / mass
        return FiniteProbabilitySpace(alpha, weights)

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
            groups.setdefault(symbol[coord], []).append(float(weight))
        return FiniteProbabilitySpace(
            tuple(groups), [math.fsum(parts) for parts in groups.values()]
        )

    def string_prob(self, string: Iterable) -> float:
        """Product weight ``P(s1)...P(sn)`` of a finite string; empty string -> 1."""
        out = 1.0
        for symbol in string:
            out *= float(self._weights[self.index(symbol)])
        return out

    def prefix_free_measure(self, strings: Iterable[Sequence]) -> float:
        """Sum of string weights over a prefix-free set of strings.

        Raises if one string is a proper prefix of another (or the set
        contains the empty string alongside others).
        """
        normalized = {tuple(s) for s in strings}
        for s in normalized:
            for cut in range(len(s)):
                if s[:cut] in normalized:
                    raise ValueError(
                        f"set is not prefix-free: {s[:cut]!r} is a prefix of {s!r}"
                    )
        return math.fsum(self.string_prob(s) for s in normalized)

    def to_json(self) -> str:
        """Serialize as ``{"alphabet": [...], "weights": [...]}``."""
        obj = {
            "alphabet": [_encode_symbol(a) for a in self._alphabet],
            "weights": [float(w) for w in self._weights],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, source) -> "FiniteProbabilitySpace":
        """Rebuild from :meth:`to_json` output (a JSON string or parsed dict)."""
        obj = json.loads(source) if isinstance(source, str) else source
        if not isinstance(obj, dict) or "alphabet" not in obj or "weights" not in obj:
            raise ValueError(
                "probability space JSON must be an object with 'alphabet' and 'weights'"
            )
        try:
            return cls([_decode_symbol(a) for a in obj["alphabet"]], obj["weights"])
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
    weights = reduce(
        lambda acc, sp: np.multiply.outer(acc, sp.weights).reshape(-1),
        spaces[1:],
        np.asarray(spaces[0].weights),
    )
    return FiniteProbabilitySpace(alphabet, weights)
