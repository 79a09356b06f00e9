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
:func:`tally`.  The calling thread and up to ``min(threads, chunks,
CPUs) - 1`` plain ``threading`` workers, where the CPUs are those the
process may run on, take chunks of 4 consecutive blocks from one shared
iterator, so the draw imports no ``concurrent.futures`` (nor the
``logging`` that comes with it), and the scheduler places them.  Each
thread keeps one Philox bit generator, set to the counter of each block
it draws, and two chunk-sized buffers, made once: ``uint64`` for the
chunk's raw words and ``intp`` for their guide buckets.  It adds every
chunk it draws into its own sums, a bucket histogram and the counts of
the draws the search resolves, and writes the chunk's symbols into their
slice of the world when the world is kept.  Sums are order-free, so no
chunk waits for another; the threads' sums are folded into symbol counts
once all are joined, and a thread's error is raised then.  A run's statistics therefore need no world in
memory, and its memory does not grow with its length.

The search is a guide table (Chen and Asau, 1974), worked in integers on
the words.  A word ``w`` stands for the uniform ``u = (w >> 11) * 2**-53``,
and ``u`` is at or past a boundary ``c`` exactly when ``w >> 11`` is at
least the threshold ``ceil(c * 2**53)``, since ``w >> 11`` is an integer
and scaling by a power of two is exact.  The draw's bucket of
1024 is ``w >> 54``, which equals ``floor(u * 1024)``.  Bucket ``j`` of the
table stores the symbol of its first word; in a pure bucket, one with no
threshold strictly inside it, that is the symbol of every word.  So the
counts of a draw are its 1024-bin bucket histogram, folded through the
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
import os
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

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
_CHUNK_BLOCKS = 4
_CHUNK_LEN = _CHUNK_BLOCKS * BLOCK_LEN

#: Buckets of the inverse-CDF guide table: the top 10 bits of a word name its bucket.
_GUIDE = 1024
_BUCKET_SHIFT = 64 - 10

#: Low bits of a Philox word that its uniform ``(w >> 11) * 2**-53`` drops.
_UNIFORM_SHIFT = 11


def _index_dtype(alphabet_size: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds indices ``0..alphabet_size - 1``."""
    return np.min_scalar_type(max(alphabet_size - 1, 0))


def _as_indices(indices, alphabet_size: int) -> np.ndarray:
    """Validated indices in the compact dtype; a compact array is not copied.

    Only integers are indices: floats, booleans and strings are rejected
    rather than cast, and an array must be one-dimensional rather than
    flattened, so a stored world cannot silently replay as another.
    """
    if isinstance(indices, np.ndarray):
        if indices.ndim != 1:
            raise ValueError(f"world indices must be one-dimensional, not {indices.ndim}-d")
        idx = indices
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
        Counted in slices of ``max(k, _CHUNK_LEN - _CHUNK_LEN % k)`` symbols,
        so no block crosses a slice and no array of codes is as long as the
        prefix.  Codes are built by Horner's rule in the smallest unsigned
        dtype that holds ``n**k - 1``: every intermediate is below ``n**k``.
        """
        if block_len < 1:
            raise ValueError("block_len must be at least 1")
        n_sym, k = len(self._alphabet), block_len
        total = np.zeros(n_sym**k, dtype=np.int64)
        dtype = np.min_scalar_type(total.size - 1)
        used = len(self) - len(self) % k
        step = max(k, _CHUNK_LEN - _CHUNK_LEN % k)
        for start in range(0, used, step):
            part = self._indices[start : min(start + step, used)]
            # A copy when k > 1: the world is read-only and may be narrower than the codes.
            codes = part[::k].astype(dtype, copy=k > 1)
            for j in range(1, k):
                codes *= n_sym
                codes += part[j::k]
            total += np.bincount(codes, minlength=total.size)
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
        if "indices" in obj and "symbols" in obj:
            raise ValueError("world JSON must give 'indices' or 'symbols', not both")
        # JSON lists only, not a string's characters or an object's keys.
        for field in ("alphabet", "symbols"):
            if field in obj and not isinstance(obj[field], list):
                raise ValueError(f"malformed world JSON: {field!r} must be a list")
        if not isinstance(obj.get("provenance"), (dict, type(None))):
            raise ValueError("malformed world JSON: 'provenance' must be an object")
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


def _fill_words(words: np.ndarray, bitgen: np.random.Philox, chunk: int) -> None:
    """Fill ``words`` with the first ``words.size`` Philox words of chunk ``chunk`` of the world.

    ``bitgen`` is keyed on the world's seed, and is set to the counter
    ``b << 128`` of each block ``b`` before drawing it, wherever it stood,
    so the words are the ones a fresh generator per block would give.
    Setting the state takes less time than building a generator or
    advancing one.
    """
    state = bitgen.state
    for offset in range(0, words.size, BLOCK_LEN):
        block = chunk * _CHUNK_BLOCKS + offset // BLOCK_LEN
        # ``block << 128`` in numpy's 64-bit counter words, low to high; 4: no buffered words.
        state["state"]["counter"] = np.array([0, 0, block, 0], np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        words[offset : offset + BLOCK_LEN] = bitgen.random_raw(
            min(BLOCK_LEN, words.size - offset)
        )


def _count_words(
    words: np.ndarray,
    bucket: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray | None, np.ndarray],
    sums: np.ndarray,
    kept: np.ndarray | None = None,
) -> None:
    """Add the draws of ``words`` to ``sums``, and write their symbols to ``kept`` if given.

    ``tables`` are :func:`_guide_tables`' over the boundaries, and
    ``bucket`` is an ``intp`` array of ``words.size`` items, overwritten
    with the draws' guide buckets.  ``sums[:_GUIDE]`` gets the histogram
    of the buckets, and ``sums[_GUIDE:]`` the symbol counts of the draws
    in mixed buckets, the only ones searched; :func:`_fold` turns the sums
    into symbol counts.  ``kept``, in the guide table's dtype, gets the
    table's symbol of every draw and the search's of the mixed ones.
    """
    guide, mixed, thresholds = tables
    np.right_shift(words, np.uint64(_BUCKET_SHIFT), out=bucket.view(np.uint64))
    sums[:_GUIDE] += np.bincount(bucket, minlength=_GUIDE)
    if kept is not None:
        # Buckets are below _GUIDE, so "clip" never clips; it spares the
        # copy of ``out`` that "raise" makes.
        guide.take(bucket, out=kept, mode="clip")
    if mixed is not None:
        fix = np.flatnonzero(mixed.take(bucket, mode="clip"))
        found = np.searchsorted(thresholds, words[fix] >> np.uint64(_UNIFORM_SHIFT), side="right")
        sums[_GUIDE:] += np.bincount(found, minlength=thresholds.size)
        if kept is not None:
            kept[fix] = found


def _fold(sums: np.ndarray, tables: tuple[np.ndarray, np.ndarray | None, np.ndarray]) -> np.ndarray:
    """The symbol counts of :func:`_count_words`' ``sums``.

    The pure buckets' draws are counted through the guide table and the
    mixed buckets' are counted as searched.  The fold stays in ``int64``,
    since a whole draw's bucket count can pass 2**53.
    """
    guide, mixed, _ = tables
    hist, counts = sums[:_GUIDE].copy(), sums[_GUIDE:].copy()
    if mixed is not None:
        hist[mixed] = 0
    np.add.at(counts, guide, hist)
    return counts


def _cpu_count() -> int:
    """How many CPUs the process may run on: all of them where the system cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows
        return os.cpu_count() or 1


def _check_draw(length: int, seed: int, threads: int) -> None:
    if length < 1:
        raise ValueError("length must be at least 1")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if threads < 1:
        raise ValueError("threads must be at least 1")


def sample_world(
    fps: FiniteProbabilitySpace, length: int, seed: int, threads: int = 1
) -> WorldPrefix:
    """Draw ``length`` i.i.d. symbols from ``fps``, deterministically in ``seed``.

    The result is identical for every ``threads`` value; threads only
    parallelize chunk generation.  At most ``min(threads, chunks, CPUs)``
    threads run, counting the CPUs this process may run on.  It is the
    world :func:`tally` keeps for ``on_world``.
    """
    kept = []
    tally(fps, length, seed, threads, on_world=kept.append)
    return kept[0]


def tally(
    fps: FiniteProbabilitySpace,
    length: int,
    seed: int,
    threads: int = 1,
    on_world: Callable[[WorldPrefix], None] | None = None,
) -> np.ndarray:
    """The symbol counts of ``sample_world(fps, length, seed)``, summed chunk by chunk as drawn.

    The calling thread draws, and so do up to ``min(threads, chunks,
    CPUs) - 1`` more, counting the :func:`_cpu_count` CPUs the process
    may run on; the cap bounds the threads, and the two chunk-sized
    buffers each one holds, however many ``threads`` asks for.  Each
    thread takes the next chunk from one shared iterator, draws it into
    its own buffers with its own Philox generator, and adds it into its
    own sums; those are folded into counts once every thread is joined.
    A thread's error stops the others after their current chunk, and the
    first error is raised once all are joined.  The world is kept only
    when ``on_world`` is given, each chunk written into its slice;
    ``on_world`` is then called with it once the draw is done, before
    the counts are returned.  A kept world too long for any array,
    or for the memory, raises MemoryError.
    """
    _check_draw(length, seed, threads)
    n_sym = len(fps.alphabet)
    tables = _guide_tables(_cumulative_boundaries(fps))
    try:
        world = np.empty(length, dtype=_index_dtype(n_sym)) if on_world is not None else None
    except (ValueError, MemoryError):  # ValueError: numpy's "maximum allowed dimension exceeded"
        raise MemoryError(f"too little memory for a world of {length} symbols") from None
    n_chunks = -(-length // _CHUNK_LEN)
    # Shared by every thread: a range iterator's next() holds the GIL, so no
    # chunk is handed out twice.
    chunks = iter(range(n_chunks))
    sums: list = []  # each thread's bucket histogram and mixed-bucket counts
    errors: list = []

    def draw() -> None:
        try:
            words = np.empty(min(_CHUNK_LEN, length), np.uint64)
            bucket = np.empty(words.size, np.intp)
            bitgen = np.random.Philox(key=seed)
            own = np.zeros(_GUIDE + n_sym, np.int64)
            sums.append(own)
            for chunk in chunks:
                if errors:
                    return
                start = chunk * _CHUNK_LEN
                size = min(_CHUNK_LEN, length - start)
                _fill_words(words[:size], bitgen, chunk)
                kept = world[start : start + size] if world is not None else None
                _count_words(words[:size], bucket[:size], tables, own, kept)
        except BaseException as err:  # raised by the caller once every thread is joined
            errors.append(err)

    helpers = min(threads, n_chunks, _cpu_count()) - 1
    pool = [threading.Thread(target=draw, daemon=True) for _ in range(helpers)]
    for thread in pool:
        thread.start()
    draw()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    if on_world is not None:
        prov = dict(kind="sampled", seed=int(seed), generator=GENERATOR_ID, length=int(length))
        on_world(WorldPrefix(fps.alphabet, world, prov))
    return _fold(np.sum(sums, axis=0), tables)


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
