"""Sampling and transforming finite prefixes of outcome sequences.

A "world" here is a finite prefix of the infinite sequence of outcomes an
experiment would produce under i.i.d. repetition.  Since algorithmically
random sequences cannot be generated, a seeded counter-based generator
stands in for a typical sequence: almost every sequence under the product
measure passes every effective test, and a high-quality deterministic
stream is the computable surrogate.  Every sampled prefix records its
seed, generator id and length in a provenance field.

Sampling draws i.i.d. symbols by inverse CDF over the space's explicit
alphabet ordering.  Cumulative boundaries are half-open: a uniform draw
exactly equal to a boundary resolves to the *later* symbol.  One
consequence is exact, not statistical: a symbol of weight zero can never
be produced.  The boundaries are clipped at 1.0 and pinned to 1.0 from the
last positive weight onward, so they are non-decreasing even when the
weights sum to slightly more than one.

Generation is blocked.  Block ``i`` of a run with seed ``s`` uses a
Philox stream with key ``s`` and counter offset ``i << 128`` (Salmon et
al., SC'11), so blocks can be generated in any order and grouping and the
result is byte-identical to the single-threaded one.  Work is handed out
in chunks of 16 consecutive blocks; each chunk fills one buffer of
uniforms, block by block, and writes its symbols straight into its slice
of the preallocated output, so threads never copy or concatenate.

The search is a guide table (Chen and Asau, 1974): bucket ``j`` of 1024
stores ``searchsorted(cum, j / 1024, side="right")``, a draw ``u`` starts
at the entry of bucket ``floor(u * 1024)``, and ``idx += u >= cum[idx]``
repeats until no draw steps.  It returns exactly what
``searchsorted(cum, u, side="right")`` would: scaling by 2**10 is exact in
binary floating point, the start never overshoots because the boundaries
are non-decreasing, and the steps stop at the first boundary above ``u``.

Indices are stored in the smallest unsigned dtype that holds the alphabet
(``uint8`` for up to 256 symbols), 8x smaller than ``int64``.  Arithmetic
on them inside the package first casts them to a dtype that holds every
result, such as block codes below ``n**k``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .spaces import FiniteProbabilitySpace, _decode_symbol, _encode_symbol

__all__ = [
    "GENERATOR_ID",
    "BLOCK_LEN",
    "WorldPrefix",
    "sample_world",
    "condition_seq",
    "partition_seq",
    "project_seq",
    "zip_seqs",
    "empirical",
    "EmpiricalStats",
    "SignCell",
    "sign_cell",
    "lln_report",
    "LlnReport",
    "LlnRow",
]

#: Identifier of the sampling scheme, recorded in provenance.
GENERATOR_ID = "philox4x64/ctr128-block8192/invcdf"

#: Symbols generated per counter block.
BLOCK_LEN = 8192

_MAX_SEED = 2**64

#: Blocks per unit of threaded work, and the symbols that covers.
_CHUNK_BLOCKS = 16
_CHUNK_LEN = _CHUNK_BLOCKS * BLOCK_LEN

#: Buckets of the inverse-CDF guide table; a power of two keeps ``u * _GUIDE`` exact.
_GUIDE = 1024


def _index_dtype(alphabet_size: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds indices ``0..alphabet_size - 1``."""
    return np.min_scalar_type(max(alphabet_size - 1, 0))


def _as_indices(indices, alphabet_size: int) -> np.ndarray:
    """Validated indices in the compact dtype; a compact array is not copied.

    Only integers are indices: floats, booleans and strings are rejected
    rather than cast, so a stored world cannot silently replay as another.
    """
    if isinstance(indices, np.ndarray):
        idx = indices.reshape(-1)
    else:
        items = indices if isinstance(indices, (list, tuple)) else list(indices)
        if any(
            issubclass(t, bool) or not issubclass(t, (int, np.integer))
            for t in set(map(type, items))
        ):
            raise ValueError("world indices must be integers")
        try:
            idx = np.array(items, dtype=np.int64)
        except OverflowError:
            raise ValueError("world indices out of range for the alphabet") from None
    if idx.dtype.kind not in "iu":
        raise ValueError("world indices must be integers")
    if idx.size and (
        (idx.dtype.kind == "i" and idx.min() < 0) or idx.max() >= alphabet_size
    ):
        raise ValueError("world indices out of range for the alphabet")
    return idx.astype(_index_dtype(alphabet_size), copy=False)


class WorldPrefix:
    """A finite prefix of an outcome sequence over an explicit alphabet.

    Stores symbols as indices into the alphabet, in the smallest unsigned
    dtype that holds them; the symbol view is materialized on demand.
    Instances are immutable.  An index array that already has that dtype
    is not copied: the instance keeps a read-only view of it, so the
    caller must not write to it afterwards.
    """

    __slots__ = ("_alphabet", "_indices", "_provenance")

    def __init__(self, alphabet: Iterable, indices, provenance: dict | None = None):
        alpha = tuple(alphabet)
        if not alpha:
            raise ValueError("alphabet must be non-empty")
        if len(set(alpha)) != len(alpha):
            raise ValueError("alphabet must be duplicate-free")
        idx = _as_indices(indices, len(alpha))
        idx.setflags(write=False)
        self._alphabet = alpha
        self._indices = idx
        self._provenance = dict(provenance) if provenance else {"kind": "literal"}

    @classmethod
    def from_symbols(
        cls, alphabet: Iterable, symbols: Iterable, provenance: dict | None = None
    ) -> "WorldPrefix":
        alpha = tuple(alphabet)
        lookup = {a: i for i, a in enumerate(alpha)}
        try:
            idx = [lookup[s] for s in symbols]
        except KeyError as err:
            raise ValueError(f"symbol {err.args[0]!r} is not in the alphabet") from None
        return cls(alpha, idx, provenance)

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def provenance(self) -> dict:
        return dict(self._provenance)

    def __len__(self) -> int:
        return int(self._indices.size)

    def __getitem__(self, i: int):
        return self._alphabet[int(self._indices[i])]

    def counts(self, block_len: int = 1) -> np.ndarray:
        """Occurrences of each alphabet symbol, in alphabet order.

        With ``block_len`` k, occurrences of each non-overlapping length-k
        block, indexed by its code ``sum_j s_j * n**(k-1-j)`` over an
        alphabet of ``n`` symbols; a trailing partial block is not counted.
        Codes are built by Horner's rule in the smallest unsigned dtype
        that holds ``n**k - 1``, which is exact because every intermediate
        value is below ``n**k``.  Counted chunk by chunk, so no index array
        wider than that dtype is ever built for the whole prefix.
        """
        if block_len < 1:
            raise ValueError("block_len must be at least 1")
        n_cells = len(self._alphabet) ** block_len
        dtype = np.min_scalar_type(n_cells - 1)
        used = self._indices[: self._indices.size - self._indices.size % block_len]
        step = _CHUNK_LEN - _CHUNK_LEN % block_len
        total = np.zeros(n_cells, dtype=np.int64)
        for start in range(0, used.size, step):
            codes = part = used[start : start + step]
            if block_len > 1:
                # A copy: the stored indices are read-only and may be narrower.
                codes = part[::block_len].astype(dtype)
                for j in range(1, block_len):
                    codes *= len(self._alphabet)
                    codes += part[j::block_len]
            total += np.bincount(codes, minlength=n_cells)
        return total

    def symbols(self) -> list:
        """The prefix as a list of symbols."""
        return [self._alphabet[i] for i in self._indices]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorldPrefix):
            return NotImplemented
        return self._alphabet == other._alphabet and np.array_equal(
            self._indices, other._indices
        )

    def __repr__(self) -> str:
        return (
            f"WorldPrefix(len={len(self)}, alphabet_size={len(self._alphabet)}, "
            f"provenance={self._provenance.get('kind')!r})"
        )

    def prefix(self, n: int) -> "WorldPrefix":
        """The first ``n`` symbols as a new prefix."""
        if not 0 <= n <= len(self):
            raise ValueError(f"prefix length {n} out of range 0..{len(self)}")
        prov = {"kind": "prefix", "length": n, "parent": self._provenance}
        return WorldPrefix(self._alphabet, self._indices[:n], prov)

    # -- export / import ------------------------------------------------

    def _tokens(self) -> list[str]:
        tokens = [_symbol_token(a) for a in self._alphabet]
        if len(set(tokens)) != len(tokens):
            raise ValueError(
                "alphabet symbols do not have distinct text tokens; use JSON export"
            )
        return tokens

    def to_text(self) -> str:
        """Compact newline-free text: one token per symbol, comma-separated."""
        tokens = self._tokens()
        return ",".join(tokens[i] for i in self._indices)

    @classmethod
    def from_text(cls, text: str, alphabet: Iterable) -> "WorldPrefix":
        """Parse :meth:`to_text` output against a known alphabet."""
        alpha = tuple(alphabet)
        lookup = {}
        for i, a in enumerate(alpha):
            token = _symbol_token(a)
            if token in lookup:
                raise ValueError(
                    "alphabet symbols do not have distinct text tokens; use JSON import"
                )
            lookup[token] = i
        text = text.strip()
        if not text:
            raise ValueError("world text is empty")
        try:
            idx = [lookup[tok] for tok in text.split(",")]
        except KeyError as err:
            raise ValueError(f"unknown symbol token {err.args[0]!r}") from None
        return cls(alpha, idx, {"kind": "imported", "format": "text"})

    def to_json(self) -> str:
        obj = {
            "alphabet": [_encode_symbol(a) for a in self._alphabet],
            "indices": self._indices.tolist(),
            "provenance": self._provenance,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, source) -> "WorldPrefix":
        """Rebuild from :meth:`to_json` output (accepts ``symbols`` in place of ``indices``)."""
        obj = json.loads(source) if isinstance(source, str) else source
        if not isinstance(obj, dict) or "alphabet" not in obj:
            raise ValueError("world JSON must be an object with an 'alphabet' field")
        alphabet = [_decode_symbol(a) for a in obj["alphabet"]]
        provenance = obj.get("provenance") or {"kind": "imported", "format": "json"}
        try:
            if "indices" in obj:
                return cls(alphabet, obj["indices"], provenance)
            if "symbols" in obj:
                symbols = [_decode_symbol(s) for s in obj["symbols"]]
                return cls.from_symbols(alphabet, symbols, provenance)
        except TypeError as err:
            raise ValueError(f"malformed world JSON: {err}") from None
        raise ValueError("world JSON needs an 'indices' or 'symbols' field")


def _symbol_token(symbol) -> str:
    if isinstance(symbol, tuple):
        return "|".join(_symbol_token(part) for part in symbol)
    token = str(symbol)
    if "," in token or "|" in token or "\n" in token:
        raise ValueError(f"symbol {symbol!r} has no unambiguous text token")
    return token


def _cumulative_boundaries(fps: FiniteProbabilitySpace) -> np.ndarray:
    """Non-decreasing inverse-CDF boundaries, clipped at 1.0.

    Boundaries from the last positive weight onward are pinned to 1.0 so a
    draw can never select past it.  The clip keeps them sorted when the
    weights sum to slightly more than one (within ``SUM_ATOL``).
    """
    weights = np.asarray(fps.weights, dtype=float)
    cum = np.minimum(np.cumsum(weights), 1.0)
    positive = np.flatnonzero(weights > 0)
    cum[positive[-1] :] = 1.0
    return cum


def _sample_chunk(
    seed: int, chunk: int, cum: np.ndarray, guide: np.ndarray, out: np.ndarray
) -> None:
    """Fill ``out``, chunk ``chunk`` of the world, with inverse-CDF draws.

    Block ``b`` keeps its own Philox stream, so the uniforms are the ones a
    block-at-a-time draw would give.  ``cum`` is scaled by ``_GUIDE``.
    """
    u = np.empty(out.size)
    first = chunk * _CHUNK_BLOCKS
    for offset in range(0, out.size, BLOCK_LEN):
        block = first + offset // BLOCK_LEN
        gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
        gen.random(out=u[offset : offset + BLOCK_LEN])
    u *= _GUIDE
    out[...] = _guide_search(u, cum, guide)


def _guide_search(u: np.ndarray, cum: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """``searchsorted(cum, u, side="right")`` for draws ``u`` in ``[0, _GUIDE)``.

    ``u`` and ``cum`` are the draws and boundaries scaled by ``_GUIDE``,
    which changes no comparison; ``guide[j]`` is the answer for ``u = j``.
    """
    idx = guide.take(u.astype(np.intp))
    while True:
        step = u >= cum.take(idx)
        if not step.any():
            return idx
        idx += step


def sample_world(
    fps: FiniteProbabilitySpace, length: int, seed: int, threads: int = 1
) -> WorldPrefix:
    """Draw ``length`` i.i.d. symbols from ``fps``, deterministically in ``seed``.

    The result is identical for every ``threads`` value; threads only
    parallelize chunk generation.  At most ``min(threads, chunks, CPUs)``
    threads run.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    cum = _cumulative_boundaries(fps)
    guide = np.searchsorted(cum, np.arange(_GUIDE) / _GUIDE, side="right")
    cum *= _GUIDE
    indices = np.empty(length, dtype=_index_dtype(len(fps.alphabet)))

    def fill(chunk: int) -> None:
        start = chunk * _CHUNK_LEN
        _sample_chunk(seed, chunk, cum, guide, indices[start : start + _CHUNK_LEN])

    n_chunks = -(-length // _CHUNK_LEN)
    workers = min(threads, n_chunks, os.cpu_count() or 1)
    if workers == 1:
        for chunk in range(n_chunks):
            fill(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_chunks)))
    provenance = {
        "kind": "sampled",
        "seed": int(seed),
        "generator": GENERATOR_ID,
        "length": int(length),
    }
    return WorldPrefix(fps.alphabet, indices, provenance)


def condition_seq(world: WorldPrefix, event: Iterable) -> WorldPrefix:
    """Order-preserving restriction of a prefix to the symbols of an event.

    The result lives on the event alphabet (in parent order) and may be
    empty.  Its length always equals the total count of event symbols in
    the input.
    """
    return partition_seq(world, [event])[0]


def partition_seq(world: WorldPrefix, events: Sequence[Iterable]) -> list[WorldPrefix]:
    """:func:`condition_seq` of a prefix on each of several disjoint events, in one pass.

    Entry ``i`` equals ``condition_seq(world, events[i])``.  A cell-id table
    sends each symbol to its event (or to none) and a local-code table to
    its index in that event's alphabet, so the prefix is read once however
    many events there are.
    """
    keep_ids = [sorted({_alphabet_index(world, s) for s in event}) for event in events]
    if not all(keep_ids):
        raise ValueError("event must contain at least one symbol")
    if len(set().union(*keep_ids)) != sum(map(len, keep_ids)):
        raise ValueError("events must be disjoint")
    if not keep_ids:
        return []
    n_events = len(keep_ids)
    cell = np.full(len(world.alphabet), n_events, dtype=_index_dtype(n_events + 1))
    local = np.zeros(len(world.alphabet), dtype=_index_dtype(max(map(len, keep_ids))))
    for i, ids in enumerate(keep_ids):
        cell[ids] = i
        local[ids] = np.arange(len(ids))
    parts: list[list[np.ndarray]] = [[] for _ in keep_ids]
    # Chunk by chunk: a lookup casts its index array to intp, so this caps
    # that temporary at one chunk.
    for start in range(0, len(world), _CHUNK_LEN):
        chunk = world.indices[start : start + _CHUNK_LEN].astype(np.intp)
        chunk_cells = cell.take(chunk)
        chunk_local = local.take(chunk)
        for i, cell_parts in enumerate(parts):
            cell_parts.append(np.compress(chunk_cells == i, chunk_local))
    result = []
    for ids, cell_parts in zip(keep_ids, parts):
        indices = np.concatenate(cell_parts) if cell_parts else local[:0]
        prov = {"kind": "conditioned", "event_size": len(ids), "parent": world.provenance}
        result.append(
            WorldPrefix(tuple(world.alphabet[i] for i in ids), indices, prov)
        )
    return result


def project_seq(world: WorldPrefix, coords) -> WorldPrefix:
    """Coordinate-wise projection of a prefix over a tuple alphabet.

    ``coords`` is one coordinate index or a tuple of indices; a tuple
    keeps those coordinates (in the given order) as a tuple symbol.
    Length is preserved.  The projected alphabet lists values in order of
    first occurrence in the parent alphabet.
    """
    single = isinstance(coords, int)
    coord_list = [coords] if single else list(coords)
    if not coord_list:
        raise ValueError("coords must name at least one coordinate")
    projected = []
    for symbol in world.alphabet:
        if not isinstance(symbol, tuple):
            raise ValueError("project_seq requires an alphabet of tuples")
        for c in coord_list:
            if not 0 <= c < len(symbol):
                raise ValueError(f"coordinate {c} out of range for symbol {symbol!r}")
        projected.append(symbol[coord_list[0]] if single else tuple(symbol[c] for c in coord_list))
    new_alpha: dict = {}
    for p in projected:
        new_alpha.setdefault(p, len(new_alpha))
    remap = np.array(
        [new_alpha[p] for p in projected], dtype=_index_dtype(len(new_alpha))
    )
    prov = {"kind": "projected", "coords": coords, "parent": world.provenance}
    return WorldPrefix(tuple(new_alpha), remap[world.indices], prov)


def zip_seqs(worlds: Sequence[WorldPrefix]) -> WorldPrefix:
    """Elementwise tuples of equal-length prefixes.

    The result alphabet is the Cartesian product of the factor alphabets
    in lexicographic order, matching :func:`typicality_lab.spaces.product`.
    """
    if not worlds:
        raise ValueError("zip_seqs requires at least one world")
    length = len(worlds[0])
    for w in worlds[1:]:
        if len(w) != length:
            raise ValueError("zip_seqs requires equal-length worlds")
    alphabet = tuple(itertools.product(*(w.alphabet for w in worlds)))
    # int64 from the start: the product of the factor sizes overflows the
    # factors' compact dtypes.
    indices = np.zeros(length, dtype=np.int64)
    for w in worlds:
        indices = indices * len(w.alphabet) + w.indices
    prov = {"kind": "zipped", "parents": [w.provenance for w in worlds]}
    return WorldPrefix(alphabet, indices, prov)


def _alphabet_index(world: WorldPrefix, symbol) -> int:
    try:
        return world.alphabet.index(symbol)
    except ValueError:
        raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None


@dataclass(frozen=True)
class EmpiricalStats:
    """Exact per-symbol occurrence counts of a prefix."""

    counts: dict
    total: int

    def frequency(self, symbol) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(symbol, 0) / self.total


def empirical(world: WorldPrefix) -> EmpiricalStats:
    """Count occurrences of every alphabet symbol (zeros included)."""
    counts = {a: int(n) for a, n in zip(world.alphabet, world.counts())}
    return EmpiricalStats(counts=counts, total=len(world))


class SignCell(NamedTuple):
    """A +/-1 value tallied over one cell of a world: rounds counted, rounds at +1."""

    count: int
    plus: int

    @property
    def minus(self) -> int:
        return self.count - self.plus

    @property
    def mean(self) -> float:
        """``(plus - minus) / count``: the cell's average value."""
        return (self.plus - self.minus) / self.count

    @property
    def std_error(self) -> float:
        """Binomial standard error of :attr:`mean`, via the +1 fraction."""
        p_hat = self.plus / self.count
        return 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / self.count)


def sign_cell(counts: np.ndarray, signs: Sequence[int]) -> SignCell:
    """Tally a +/-1 value from per-symbol occurrence ``counts``.

    ``signs[i]`` is the value on alphabet symbol ``i``: +1 or -1 inside the
    cell, 0 outside it.  Counting first gives the same averages as
    conditioning the world and averaging the values, since every sum
    involved is an exact integer.
    """
    signs = np.asarray(signs)
    return SignCell(
        count=int(counts[signs != 0].sum()), plus=int(counts[signs > 0].sum())
    )


@dataclass(frozen=True)
class LlnRow:
    symbol: object
    count: int
    frequency: float
    expected: float
    z: float


@dataclass(frozen=True)
class LlnReport:
    """Per-symbol comparison of empirical frequencies with a claimed space.

    ``z`` scores use the binomial standard deviation.  A zero-weight
    symbol scores 0 when absent and +inf when present (its occurrence is
    impossible, not merely unlikely); the mirrored convention applies to
    weight-one symbols.  Convergence statements about finite prefixes are
    only ever as strong as ``threshold`` allows; the report records it.
    """

    rows: tuple[LlnRow, ...]
    threshold: float
    length: int

    @property
    def flagged(self) -> tuple[LlnRow, ...]:
        return tuple(r for r in self.rows if abs(r.z) > self.threshold)

    @property
    def max_abs_z(self) -> float:
        return max(abs(r.z) for r in self.rows)


def lln_report(
    world: WorldPrefix, fps: FiniteProbabilitySpace, threshold: float = 4.0
) -> LlnReport:
    """Empirical frequency vs expected weight, with binomial z-scores."""
    if world.alphabet != fps.alphabet:
        raise ValueError("world and probability space alphabets differ")
    n = len(world)
    if n == 0:
        raise ValueError("cannot report on an empty world")
    raw = world.counts()
    rows = []
    for symbol, count, p in zip(world.alphabet, raw, fps.weights):
        count = int(count)
        p = float(p)
        expected_count = n * p
        variance = n * p * (1.0 - p)
        if variance > 0.0:
            z = (count - expected_count) / variance**0.5
        elif count == expected_count:
            z = 0.0
        else:
            z = float("inf") if count > expected_count else float("-inf")
        rows.append(
            LlnRow(symbol=symbol, count=count, frequency=count / n, expected=p, z=z)
        )
    return LlnReport(rows=tuple(rows), threshold=threshold, length=n)
