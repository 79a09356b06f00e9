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
result is byte-identical to the single-threaded one.  Every draw is one
:func:`tally`, in two pieces.  The scheduler, :func:`_in_chunk_order`,
only schedules: it runs a step for each chunk of 16 consecutive blocks on
at most ``min(threads, chunks, CPUs)`` plain ``threading`` workers, which
start a chunk only while it is at most ``2 * workers`` chunks past the
consumer's, and yields the steps' results in chunk order; a step's
exception is raised to the consumer, and the workers are joined when the
stream ends or is closed.  It imports no ``concurrent.futures`` (nor the
``logging`` that comes with it).  The step draws one chunk.  It fills the
chunk's raw 64-bit Philox words from one bit generator, which starts at
the counter of the chunk's first block and is advanced to
``(i + 1) << 128`` after each block; those are the words of a fresh
generator per block, so ``GENERATOR_ID`` and the world bytes are those of
the block-at-a-time draw.  It counts the chunk's symbols from the words,
and writes the symbols into their slice of the world when the world is
kept.  The consumer adds up the counts.  :func:`sample_world` is the world
a tally keeps; :func:`condition_seq` restricts a stored one to an event.

Each drawing thread keeps its two buffers on one ``threading.local`` of
the tally: one chunk-sized ``uint64`` buffer for the words and one
``intp`` buffer for their guide buckets.  Each is made on the thread's
first chunk and reused for every later one, so a chunk's step allocates
nothing chunk-sized, and touches no fresh page; a kept world's symbols are
written straight into its slice.  A run's statistics therefore need no
world in memory, and its memory does not grow with its length.

The search is a guide table (Chen and Asau, 1974), worked in integers on
the words.  A word ``w`` stands for the uniform ``u = (w >> 11) * 2**-53``,
and ``u`` is at or past a boundary ``c`` exactly when ``w >> 11`` is at
least the threshold ``ceil(c * 2**53)``, since ``w >> 11`` is an integer
and scaling by a power of two is exact.  The draw's bucket of
1024 is ``w >> 54``, which equals ``floor(u * 1024)``.  Bucket ``j`` of the
table stores the symbol of its first word; in a pure bucket, one with no
threshold strictly inside it, that is the symbol of every word.  So the
counts of a chunk are its 1024-bin bucket histogram, folded through the
table, plus the counts of the draws in mixed buckets, one with a
threshold strictly inside, which alone are searched with
``searchsorted(thresholds, w >> 11, side="right")``.  CHSH has 8 mixed
buckets; GHZ, whose boundaries lie on the 1/1024 grid, has none and skips
the search.  Every draw gets exactly the symbol of the float inverse
CDF, ``searchsorted(cum, u, side="right")``.

Indices are stored in the smallest unsigned dtype that holds the alphabet
(``uint8`` for up to 256 symbols), 8x smaller than ``int64``.  Arithmetic
on them inside the package first casts them to a dtype that holds every
result, such as block codes below ``n**k``.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import threading
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .spaces import _MAX_SEED, FiniteProbabilitySpace, _decode_symbol, _encode_symbol

__all__ = [
    "GENERATOR_ID",
    "BLOCK_LEN",
    "WorldPrefix",
    "sample_world",
    "tally",
    "condition_seq",
    "project_seq",
    "zip_seqs",
    "empirical",
    "EmpiricalStats",
    "SignCell",
    "sign_cell",
]

#: Identifier of the sampling scheme, recorded in provenance: Philox4x64-10,
#: block ``b`` of 8192 draws at counter ``b << 128``, and an inverse CDF.  As
#: numpy lays it out, the 128-bit key is ``(seed mod 2**64, seed >> 64)`` in
#: words low to high, the 256-bit counter is incremented before each
#: four-word output, and each uniform is ``(w >> 11) * 2**-53`` of one word.
GENERATOR_ID = "philox4x64/ctr128-block8192/invcdf"

#: Symbols generated per counter block.
BLOCK_LEN = 8192

#: Blocks per unit of threaded work, and the symbols that covers.
_CHUNK_BLOCKS = 16
_CHUNK_LEN = _CHUNK_BLOCKS * BLOCK_LEN

#: Buckets of the inverse-CDF guide table: the top 10 bits of a word name its bucket.
_GUIDE = 1024
_BUCKET_SHIFT = 64 - 10

#: Low bits of a Philox word that its uniform ``(w >> 11) * 2**-53`` drops.
_UNIFORM_SHIFT = 11

#: Chunks each sampling thread may draw ahead of the consumer of the stream.
_WINDOW = 2

#: Philox counter steps from the end of one block's draws to the start of the
#: next block, ``(b + 1) << 128``: each step yields four 64-bit draws.
_NEXT_BLOCK = (1 << 128) - BLOCK_LEN // 4


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
    caller must not write to it afterwards.  The provenance, nested parents
    and all, is copied on the way in and on the way out, so neither a caller
    nor a world derived from this one can change it.
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
        self._provenance = copy.deepcopy(provenance) if provenance else {"kind": "literal"}

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
        return copy.deepcopy(self._provenance)

    def __len__(self) -> int:
        return int(self._indices.size)

    def __getitem__(self, i: int):
        return self._alphabet[int(self._indices[i])]

    def counts(self, block_len: int = 1) -> np.ndarray:
        """Occurrences of each alphabet symbol, in alphabet order.

        With ``block_len`` k, occurrences of each non-overlapping length-k
        block, indexed by its code ``sum_j s_j * n**(k-1-j)`` over an
        alphabet of ``n`` symbols; a trailing partial block is not counted.
        Fed ``_CHUNK_LEN`` symbols at a time to :class:`_BlockCounter`, so
        no array of block codes is built for the whole prefix.
        """
        counter = _BlockCounter(len(self._alphabet), block_len)
        for start in range(0, len(self), _CHUNK_LEN):
            counter.add(self._indices[start : start + _CHUNK_LEN])
        return counter.total

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

    def to_json(self) -> str:
        obj = {
            "alphabet": [_encode_symbol(a) for a in self._alphabet],
            "indices": self._indices.tolist(),
            "provenance": self._provenance,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, source) -> "WorldPrefix":
        """Rebuild from :meth:`to_json`'s JSON text (``symbols`` may stand for ``indices``)."""
        obj = json.loads(source)
        if not isinstance(obj, dict) or "alphabet" not in obj:
            raise ValueError("world JSON must be an object with an 'alphabet' field")
        # JSON lists only, not a string's characters or an object's keys.
        for field in ("alphabet", "symbols"):
            if field in obj and not isinstance(obj[field], list):
                raise ValueError(f"malformed world JSON: {field!r} must be a list")
        provenance = obj.get("provenance") or {"kind": "imported", "format": "json"}
        try:
            alphabet = [_decode_symbol(a) for a in obj["alphabet"]]
            if "indices" in obj:
                return cls(alphabet, obj["indices"], provenance)
            if "symbols" in obj:
                symbols = [_decode_symbol(s) for s in obj["symbols"]]
                return cls.from_symbols(alphabet, symbols, provenance)
        except TypeError as err:
            raise ValueError(f"malformed world JSON: {err}") from None
        raise ValueError("world JSON needs an 'indices' or 'symbols' field")


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


def _guide_tables(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The guide table over ``cum``, which buckets hold a boundary inside, and the thresholds.

    A word ``w`` of the draw stands for the uniform ``(w >> 11) * 2**-53``,
    which is at or past boundary ``c`` exactly when ``w >> 11`` is at least
    ``ceil(c * 2**53)``, since ``w >> 11`` is an integer and the scaling is
    exact.  Those integers are the ``thresholds``, and the symbol
    of ``w`` is ``searchsorted(thresholds, w >> 11, side="right")``.
    Bucket ``j`` holds the words with ``w >> 54 == j``.  ``guide[j]``, in
    the world's index dtype, is the symbol of the bucket's first word, and
    of every word of the bucket when no threshold lies strictly inside it.
    ``mixed[j]`` is true when one does; it is None when no bucket has one,
    as when every boundary lies on the ``1 / _GUIDE`` grid.
    """
    thresholds = np.ceil(cum * 2.0**53).astype(np.uint64)
    edges = np.arange(_GUIDE + 1, dtype=np.uint64) << np.uint64(_BUCKET_SHIFT - _UNIFORM_SHIFT)
    guide = np.searchsorted(thresholds, edges[:-1], side="right")
    mixed = np.searchsorted(thresholds, edges[1:], side="left") > guide
    guide = guide.astype(_index_dtype(cum.size))
    return guide, (mixed if mixed.any() else None), thresholds


def _fill_words(words: np.ndarray, seed: int, chunk: int) -> None:
    """Fill ``words`` with the first ``words.size`` Philox words of chunk ``chunk`` of the world.

    One Philox bit generator starts at the chunk's first block and is
    advanced to the counter of each next block, so the words are the ones a
    fresh generator per block would give.
    """
    bitgen = np.random.Philox(key=seed, counter=(chunk * _CHUNK_BLOCKS) << 128)
    for offset in range(0, words.size, BLOCK_LEN):
        if offset:
            bitgen.advance(_NEXT_BLOCK)
        words[offset : offset + BLOCK_LEN] = bitgen.random_raw(
            min(BLOCK_LEN, words.size - offset)
        )


def _count_words(
    words: np.ndarray,
    bucket: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray | None, np.ndarray],
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """The symbol counts of the draws of ``words``, and their symbols written to ``kept`` if given.

    ``tables`` are :func:`_guide_tables`' over the boundaries, and
    ``bucket`` is an ``intp`` array of ``words.size`` items, overwritten
    with the draws' guide buckets.  The counts of the pure buckets' draws
    come from the histogram of the buckets, folded through the guide table;
    only the draws of mixed buckets are searched, and added one by one.
    ``kept``, in the guide table's dtype, gets the table's symbol of every
    draw and the search's of the mixed ones.
    """
    guide, mixed, thresholds = tables
    np.right_shift(words, np.uint64(_BUCKET_SHIFT), out=bucket.view(np.uint64))
    hist = np.bincount(bucket, minlength=_GUIDE)
    if mixed is not None:
        fix = np.flatnonzero(mixed.take(bucket, mode="clip"))
        found = np.searchsorted(thresholds, words[fix] >> np.uint64(_UNIFORM_SHIFT), side="right")
        hist[mixed] = 0
    # Every sum is an integer below 2**53, so the float weights count exactly.
    counts = np.bincount(guide, weights=hist, minlength=thresholds.size).astype(np.int64)
    if mixed is not None:
        counts += np.bincount(found, minlength=thresholds.size)
    if kept is not None:
        # Buckets are below _GUIDE, so "clip" never clips; it spares the
        # copy of ``out`` that "raise" makes.
        guide.take(bucket, out=kept, mode="clip")
        if mixed is not None:
            kept[fix] = found
    return counts


def _check_draw(length: int, seed: int, threads: int) -> None:
    if length < 1:
        raise ValueError("length must be at least 1")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if threads < 1:
        raise ValueError("threads must be at least 1")


def _in_chunk_order(step: Callable[[int], object], n_chunks: int, threads: int) -> Iterator:
    """``step(chunk)`` for chunks ``0 .. n_chunks - 1``, yielded in chunk order.

    At most ``min(threads, n_chunks, CPUs)`` worker threads run the steps,
    taking chunks in order; a worker starts a chunk only while it is at most
    ``workers * _WINDOW`` chunks past the last one the consumer has taken,
    so the results in flight do not grow with ``n_chunks``.  A step's
    exception is raised to the consumer at its chunk.  When the stream ends
    or is closed early, the workers finish the steps they are running and
    are joined.  With one thread the steps run in the caller's thread.
    """
    workers = min(threads, n_chunks, os.cpu_count() or 1)
    if workers == 1:
        yield from map(step, range(n_chunks))
        return
    turn = threading.Condition()
    done: dict = {}  # chunk -> (raised, result or exception), until the consumer takes it
    claimed = taken = 0
    closed = False

    def work() -> None:
        nonlocal claimed
        while True:
            with turn:
                while not closed and claimed - taken >= workers * _WINDOW:
                    turn.wait()
                if closed or claimed == n_chunks:
                    return
                chunk, claimed = claimed, claimed + 1
            try:
                result = (False, step(chunk))
            except BaseException as err:  # handed to the consumer, which raises it
                result = (True, err)
            with turn:
                done[chunk] = result
                turn.notify_all()

    pool = [threading.Thread(target=work, daemon=True) for _ in range(workers)]
    for thread in pool:
        thread.start()
    try:
        for chunk in range(n_chunks):
            with turn:
                while chunk not in done:
                    turn.wait()
                raised, result = done.pop(chunk)
                taken += 1
                turn.notify_all()
            if raised:
                raise result
            yield result
    finally:
        with turn:
            closed = True
            turn.notify_all()
        for thread in pool:
            thread.join()


def sample_world(
    fps: FiniteProbabilitySpace, length: int, seed: int, threads: int = 1
) -> WorldPrefix:
    """Draw ``length`` i.i.d. symbols from ``fps``, deterministically in ``seed``.

    The result is identical for every ``threads`` value; threads only
    parallelize chunk generation.  At most ``min(threads, chunks, CPUs)``
    threads run.  It is the world :func:`tally` keeps for ``on_world``.
    """
    kept = []
    tally(fps, length, seed, threads, on_world=kept.append)
    return kept[0]


class _BlockCounter:
    """Histogram of the non-overlapping ``block_len``-blocks of a sequence fed in parts.

    A block's code is ``sum_j s_j * n**(k-1-j)`` over ``n`` symbols, built
    by Horner's rule in the smallest unsigned dtype that holds ``n**k - 1``;
    that is exact because every intermediate value is below ``n**k``.  The
    symbols of a part that do not fill a block are carried into the next
    one, so parts may end anywhere; a partial block left at the end is not
    counted.
    """

    def __init__(self, n_sym: int, block_len: int):
        if block_len < 1:
            raise ValueError("block_len must be at least 1")
        self.n_sym = n_sym
        self.block_len = block_len
        self.total = np.zeros(n_sym**block_len, dtype=np.int64)
        self._dtype = np.min_scalar_type(self.total.size - 1)
        self._tail: np.ndarray | None = None

    def add(self, part: np.ndarray) -> None:
        if self._tail is not None:
            # Only the carried block is copied, with the symbols that finish it.
            fill = self.block_len - self._tail.size
            head, part = np.concatenate((self._tail, part[:fill])), part[fill:]
            self._tail = self._count(head)
        if part.size:
            self._tail = self._count(part)

    def _count(self, part: np.ndarray) -> np.ndarray | None:
        """Count the whole blocks of ``part``; return a copy of the symbols left over, or None."""
        k = self.block_len
        used = part.size - part.size % k
        codes = part[:used]
        if k > 1:
            # A copy: the parts may be read-only and narrower than the codes.
            codes = part[0:used:k].astype(self._dtype)
            for j in range(1, k):
                codes *= self.n_sym
                codes += part[j:used:k]
        self.total += np.bincount(codes, minlength=self.total.size)
        return part[used:].copy() if used < part.size else None


def tally(
    fps: FiniteProbabilitySpace,
    length: int,
    seed: int,
    threads: int = 1,
    on_world: Callable[[WorldPrefix], None] | None = None,
) -> np.ndarray:
    """The symbol counts of ``sample_world(fps, length, seed)``, taken chunk by chunk in the draw.

    One step, scheduled by :func:`_in_chunk_order`, draws, stores and
    counts a chunk, in one thread and into that thread's buffers; the
    consumer adds up the counts in chunk order.  The world is kept only
    when ``on_world`` is given; it is then called with the world once the
    draw is done, before the counts are returned.  A kept world too long
    for any array, or for the memory, raises MemoryError.
    """
    _check_draw(length, seed, threads)
    n_sym = len(fps.alphabet)
    tables = _guide_tables(_cumulative_boundaries(fps))
    try:
        world = np.empty(length, dtype=_index_dtype(n_sym)) if on_world is not None else None
    except ValueError:  # numpy's "maximum allowed dimension exceeded", from 2**63 on
        raise MemoryError(f"no array holds a world of {length} symbols") from None
    scratch = threading.local()  # each drawing thread's buffers, reused chunk after chunk

    def step(chunk: int) -> np.ndarray:
        if not hasattr(scratch, "words"):
            scratch.words = np.empty(_CHUNK_LEN, np.uint64)
            scratch.bucket = np.empty(_CHUNK_LEN, np.intp)
        start = chunk * _CHUNK_LEN
        size = min(_CHUNK_LEN, length - start)
        words = scratch.words[:size]
        _fill_words(words, seed, chunk)
        kept = world[start : start + size] if world is not None else None
        return _count_words(words, scratch.bucket[:size], tables, kept)

    total = np.zeros(n_sym, dtype=np.int64)
    for chunk_counts in _in_chunk_order(step, -(-length // _CHUNK_LEN), threads):
        total += chunk_counts
    if on_world is not None:
        prov = dict(kind="sampled", seed=int(seed), generator=GENERATOR_ID, length=int(length))
        on_world(WorldPrefix(fps.alphabet, world, prov))
    return total


def condition_seq(world: WorldPrefix, event: Iterable) -> WorldPrefix:
    """Order-preserving restriction of a prefix to the symbols of an event.

    The result lives on the event alphabet (in parent order) and may be
    empty.  Its length always equals the total count of event symbols in
    the input.  The world is read a chunk at a time, so that no mask is as
    long as it is.
    """
    ids = sorted({_alphabet_index(world.alphabet, s) for s in event})
    if not ids:
        raise ValueError("event must contain at least one symbol")
    keep = np.zeros(len(world.alphabet), dtype=bool)
    keep[ids] = True
    local = np.zeros(len(world.alphabet), dtype=_index_dtype(len(ids)))
    local[ids] = np.arange(len(ids))
    chunks = (world.indices[at : at + _CHUNK_LEN] for at in range(0, len(world), _CHUNK_LEN))
    parts = [local.take(chunk.compress(keep.take(chunk))) for chunk in chunks]
    indices = np.concatenate(parts) if parts else local[:0]
    prov = {"kind": "conditioned", "event_size": len(ids), "parent": world._provenance}
    return WorldPrefix(tuple(world.alphabet[i] for i in ids), indices, prov)


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
    prov = {"kind": "projected", "coords": coords, "parent": world._provenance}
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
    prov = {"kind": "zipped", "parents": [w._provenance for w in worlds]}
    return WorldPrefix(alphabet, indices, prov)


def _alphabet_index(alphabet: tuple, symbol) -> int:
    try:
        return alphabet.index(symbol)
    except ValueError:
        raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None


class EmpiricalStats(NamedTuple):
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
