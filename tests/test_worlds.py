"""Tests for world sampling, sequence operators and frequency reports."""

import itertools
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typicality_lab.chsh import chsh_distribution, coin_event, random_h_spaces
from typicality_lab.ghz import ghz_distribution
from typicality_lab import worlds as worlds_mod
from typicality_lab.spaces import FiniteProbabilitySpace, fair_coin, product, uniform
from typicality_lab.worlds import (
    BLOCK_LEN,
    GENERATOR_ID,
    WorldPrefix,
    condition_seq,
    empirical,
    project_seq,
    sample_world,
    zip_seqs,
)

SQRT2 = math.sqrt(2.0)


def _allow_cpus(monkeypatch, n):
    """Let a draw count ``n`` CPUs, so that it may start ``n - 1`` workers on any host."""
    monkeypatch.setattr(worlds_mod, "_cpu_count", lambda: n)


@st.composite
def small_worlds(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    length = draw(st.integers(min_value=0, max_value=40))
    indices = draw(
        st.lists(st.integers(0, size - 1), min_size=length, max_size=length)
    )
    return WorldPrefix(range(size), indices)


class TestSampling:
    def test_degenerate_space_is_constant(self):
        fps = FiniteProbabilitySpace(["a", "b"], [1.0, 0.0])
        world = sample_world(fps, 500, seed=9)
        assert world.symbols() == ["a"] * 500

    def test_fair_coin_frequency(self):
        world = sample_world(fair_coin(), 100_000, seed=5)
        freq = empirical(world).frequency(0)
        # 3 sigma is ~0.0047 at this length; the band is widened to 0.01.
        assert abs(freq - 0.5) <= 0.01

    def test_zero_weight_symbol_never_appears(self):
        fps = FiniteProbabilitySpace(["a", "z", "b"], [0.4, 0.0, 0.6])
        world = sample_world(fps, 200_000, seed=17)
        assert empirical(world).counts["z"] == 0

    def test_trailing_zero_weight_symbol_never_appears(self):
        fps = FiniteProbabilitySpace(["a", "b", "z"], [0.4, 0.6, 0.0])
        world = sample_world(fps, 200_000, seed=18)
        assert empirical(world).counts["z"] == 0

    def test_reproducible(self):
        fps = uniform("abc")
        w1 = sample_world(fps, 10_000, seed=77)
        w2 = sample_world(fps, 10_000, seed=77)
        assert w1 == w2
        assert w1.symbols() == w2.symbols()

    def test_threads_do_not_change_output(self):
        fps = chsh_distribution("analytic")
        length = 3 * BLOCK_LEN + 17
        base = sample_world(fps, length, seed=42)
        for threads in (2, 4, 8):
            assert sample_world(fps, length, seed=42, threads=threads) == base

    def test_prefix_consistency_across_lengths(self):
        # Blocked generation makes a longer run extend a shorter one.
        fps = uniform("xy")
        short = sample_world(fps, BLOCK_LEN + 10, seed=3)
        longer = sample_world(fps, 2 * BLOCK_LEN, seed=3)
        np.testing.assert_array_equal(
            longer.indices[: len(short)], short.indices
        )

    def test_provenance_recorded(self):
        world = sample_world(fair_coin(), 10, seed=4)
        prov = world.provenance
        assert prov["kind"] == "sampled"
        assert prov["seed"] == 4
        assert prov["generator"] == GENERATOR_ID
        assert prov["length"] == 10

    def test_boundary_ties_resolve_to_the_later_symbol(self):
        # The inverse-CDF intervals are half-open: a draw landing exactly
        # on a boundary belongs to the later symbol, and a zero-weight
        # symbol (whose boundary equals its predecessor's) gets nothing.
        from typicality_lab.worlds import _cumulative_boundaries

        fps = FiniteProbabilitySpace(["a", "z", "b"], [0.25, 0.0, 0.75])
        cum = _cumulative_boundaries(fps)
        np.testing.assert_array_equal(cum, [0.25, 0.25, 1.0])
        draws = np.array([0.0, 0.2499, 0.25, 0.999])
        picks = np.searchsorted(cum, draws, side="right")
        assert picks.tolist() == [0, 0, 2, 2]  # 0.25 goes to "b", never "z"

    @pytest.mark.parametrize(
        "weights",
        [[0.25, 0.0, 0.75], [0.3, 0.0, 0.0, 0.7], [0.1, 0.2, 0.0, 0.3, 0.4], [1.0, 0.0]],
    )
    def test_guide_search_resolves_exact_ties_like_searchsorted(self, weights):
        # Words whose ``w >> 11`` is one below, at and one above each
        # boundary's threshold ceil(c * 2**53), and at both edges of every
        # guide bucket, with the 11 dropped bits clear and set; a boundary
        # inside a guide bucket (0.3) needs the mixed-bucket search, one on
        # a bucket edge (0.25) does not.
        from typicality_lab.worlds import (
            _GUIDE,
            _count_words,
            _cumulative_boundaries,
            _fold,
            _guide_tables,
        )

        fps = FiniteProbabilitySpace(range(len(weights)), weights)
        cum = _cumulative_boundaries(fps)
        at = np.ceil(cum * 2.0**53).astype(np.uint64)
        edges = np.arange(_GUIDE, dtype=np.uint64) << np.uint64(43)
        one = np.uint64(1)
        x = np.concatenate([at - one, at, at + one, edges, edges + np.uint64(2**43 - 1)])
        x = x[x < 2**53]  # at - 1 wraps below a zero threshold
        words = np.concatenate([x << np.uint64(11), (x << np.uint64(11)) | np.uint64(2**11 - 1)])
        expected = np.searchsorted(cum, (words >> np.uint64(11)) * 2.0**-53, side="right")
        tables = _guide_tables(cum)
        kept = np.empty(words.size, dtype=tables[0].dtype)
        sums = np.zeros(_GUIDE + len(weights), dtype=np.int64)
        _count_words(words, np.empty(words.size, dtype=np.intp), tables, sums, kept)
        counts = _fold(sums, tables)
        np.testing.assert_array_equal(kept, expected)
        np.testing.assert_array_equal(counts, np.bincount(expected, minlength=len(weights)))
        assert not np.any(fps.weights[kept] == 0.0)

    def test_boundaries_stay_monotone_when_weights_sum_above_one(self):
        # The weights sum to 1 + 2e-13, inside SUM_ATOL; the running sum
        # passes 1.0 before the last symbol and must be clipped there.
        from typicality_lab.worlds import _cumulative_boundaries

        fps = FiniteProbabilitySpace(["a", "b", "c"], [0.5, 0.5 + 1e-13, 1e-13])
        cum = _cumulative_boundaries(fps)
        assert np.all(np.diff(cum) >= 0)
        np.testing.assert_array_equal(cum, [0.5, 1.0, 1.0])
        counts = sample_world(fps, 3 * BLOCK_LEN, seed=6).counts()
        assert counts[2] == 0 and counts[:2].min() > 0

    def test_thread_pool_is_capped_by_chunks_and_cpus(self, monkeypatch):
        # The calling thread draws too, so it counts as one of the threads.
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(worlds_mod.threading, "Thread", RecordingThread)
        _allow_cpus(monkeypatch, 3)
        fps = uniform("ab")
        chunk = worlds_mod._CHUNK_LEN
        base = sample_world(fps, 4 * chunk, seed=5)
        assert started == []  # one thread asked for: the caller alone
        assert sample_world(fps, 4 * chunk, seed=5, threads=1000) == base
        assert len(started) == 3 - 1  # the CPU count, less the caller
        sample_world(fps, 2 * chunk, seed=5, threads=1000)
        assert len(started) == 2 + 1  # one more: the chunk count, less the caller
        sample_world(fps, chunk, seed=5, threads=1000)
        assert len(started) == 3  # a single chunk: the caller alone
        _allow_cpus(monkeypatch, 1)
        sample_world(fps, 4 * chunk, seed=5, threads=1000)
        assert len(started) == 3  # one CPU: one thread
        assert not any(thread.is_alive() for thread in started)

    def test_cpus_without_sched_getaffinity_are_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(worlds_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(worlds_mod.os, "cpu_count", lambda: 3)
        assert worlds_mod._cpu_count() == 3
        monkeypatch.setattr(worlds_mod.os, "cpu_count", lambda: None)
        assert worlds_mod._cpu_count() == 1  # unknown CPU count: one thread

    @pytest.mark.parametrize("fault", [None, "chunk"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_draw_leaves_the_cpu_affinity_alone(self, monkeypatch, threads, fault):
        # The scheduler places the drawing threads: no thread of a draw, one
        # that ends or one whose chunk raises, sets the CPUs it may run on.
        calls = []
        monkeypatch.setattr(
            worlds_mod.os, "sched_setaffinity", lambda *args: calls.append(args), raising=False
        )
        _allow_cpus(monkeypatch, 3)
        fps = chsh_distribution("analytic")
        length = 6 * worlds_mod._CHUNK_LEN
        base = worlds_mod.tally(fps, length, 3)
        if fault == "chunk":
            fill_words = worlds_mod._fill_words

            def failing(words, bitgen, chunk):
                if chunk == 4:
                    raise ArithmeticError("chunk 4")
                fill_words(words, bitgen, chunk)

            monkeypatch.setattr(worlds_mod, "_fill_words", failing)
            with pytest.raises(ArithmeticError, match="chunk 4"):
                worlds_mod.tally(fps, length, 3, threads)
        else:
            np.testing.assert_array_equal(worlds_mod.tally(fps, length, 3, threads), base)
        assert calls == []

    def test_a_process_allowed_one_cpu_starts_no_worker(self, monkeypatch):
        if not hasattr(worlds_mod.os, "sched_setaffinity"):
            pytest.skip("no sched_setaffinity on this platform")
        started = []
        monkeypatch.setattr(
            worlds_mod.threading,
            "Thread",
            lambda *args, **kwargs: started.append(args) or threading.Thread(*args, **kwargs),
        )
        before = worlds_mod.os.sched_getaffinity(0)
        fps = chsh_distribution("analytic")
        length = 6 * worlds_mod._CHUNK_LEN
        worlds_mod.os.sched_setaffinity(0, {min(before)})
        try:
            counts = worlds_mod.tally(fps, length, 3, threads=4)
            assert worlds_mod.os.sched_getaffinity(0) == {min(before)}
        finally:
            worlds_mod.os.sched_setaffinity(0, before)
        assert started == []
        np.testing.assert_array_equal(counts, worlds_mod.tally(fps, length, 3))

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_draw_joins_its_threads_on_error(self, monkeypatch, raiser):
        # A chunk that raises, in the calling thread or in a worker, reaches
        # the caller once, and only after every thread is joined.  The other
        # threads wait in their first chunk until the error is raised, so
        # that the raiser surely draws a chunk.
        _allow_cpus(monkeypatch, 3)
        before = threading.active_count()
        fill_words = worlds_mod._fill_words
        raised = threading.Event()
        caller = threading.get_ident()

        def failing(words, bitgen, chunk):
            if (threading.get_ident() == caller) == (raiser == "caller"):
                raised.set()
                raise ArithmeticError(f"chunk {chunk} in the {raiser}")
            assert raised.wait(timeout=30)
            fill_words(words, bitgen, chunk)

        monkeypatch.setattr(worlds_mod, "_fill_words", failing)
        with pytest.raises(ArithmeticError, match=f"in the {raiser}"):
            worlds_mod.tally(uniform("ab"), 20 * worlds_mod._CHUNK_LEN, 5, threads=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "length",
        [
            1,
            BLOCK_LEN - 1,
            BLOCK_LEN + 1,
            4 * worlds_mod._CHUNK_LEN + 1,
            12 * worlds_mod._CHUNK_LEN + 5,
        ],
    )
    def test_counts_only_tally_is_the_kept_worlds_counts(self, monkeypatch, length, threads):
        # The joint of lhv chsh --trials has 64 symbols of uneven weights,
        # so many more of its draws fall in mixed buckets than CHSH's.
        _allow_cpus(monkeypatch, 3)
        joint = product(random_h_spaces(1, 3)[0], fair_coin(), fair_coin())
        for fps in (chsh_distribution("analytic"), ghz_distribution("analytic"), joint):
            counts = worlds_mod.tally(fps, length, 11, threads)
            np.testing.assert_array_equal(counts, sample_world(fps, length, 11).counts())

    def test_more_threads_than_cores_fill_disjoint_chunks(self, monkeypatch):
        # Six workers on a fast switch interval write one shared output;
        # a chunk written twice or not at all would change the world.
        import sys

        _allow_cpus(monkeypatch, 6)
        fps = chsh_distribution("analytic")
        length = 9 * worlds_mod._CHUNK_LEN + 3
        base = sample_world(fps, length, seed=31)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert sample_world(fps, length, seed=31, threads=6) == base
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_stream_chunks_are_the_world_whichever_thread_reuses_its_buffers(
        self, monkeypatch, threads
    ):
        # Each thread draws every chunk with its own generator, and counts
        # it in its own buffers and sums, over and over; a buffer shared
        # between threads, or written before the previous chunk was stored
        # and counted, would mix chunks.
        import sys

        _allow_cpus(monkeypatch, 3)
        fps = chsh_distribution("analytic")
        length = 7 * worlds_mod._CHUNK_LEN + 5

        def run(threads):
            kept = []
            counts = worlds_mod.tally(fps, length, 23, threads, kept.append)
            return kept[0], counts

        base, base_counts = run(1)
        fill_words, count_words = worlds_mod._fill_words, worlds_mod._count_words
        # (thread, its generator) per chunk drawn, and (thread, the addresses of
        # its words, buckets and sums) per chunk counted.
        generators, buffers = [], []

        def filling(words, bitgen, chunk):
            generators.append((threading.get_ident(), id(bitgen)))
            fill_words(words, bitgen, chunk)

        def counting(words, bucket, tables, sums, kept):
            address = (words.ctypes.data, bucket.ctypes.data, sums.ctypes.data)
            buffers.append((threading.get_ident(), address))
            count_words(words, bucket, tables, sums, kept)

        monkeypatch.setattr(worlds_mod, "_fill_words", filling)
        monkeypatch.setattr(worlds_mod, "_count_words", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                generators.clear()
                buffers.clear()
                world, counts = run(threads)
                # Each thread draws every one of its chunks with one generator,
                # into one set of buffers.
                for per_chunk in (generators, buffers):
                    per_thread: dict = {}
                    for ident, used in per_chunk:
                        per_thread.setdefault(ident, set()).add(used)
                    assert len(per_chunk) == 8
                    assert all(len(used) == 1 for used in per_thread.values())
                assert world == base
                np.testing.assert_array_equal(counts, base_counts)
                np.testing.assert_array_equal(counts, world.counts())
        finally:
            sys.setswitchinterval(interval)

    def test_indices_use_the_smallest_unsigned_dtype(self):
        world = sample_world(chsh_distribution("analytic"), 100, seed=1)
        assert world.indices.dtype == np.uint8
        assert WorldPrefix("ab", [1, 0]).indices.dtype == np.uint8
        assert WorldPrefix(range(256), [255]).indices.dtype == np.uint8
        assert WorldPrefix(range(257), [256]).indices.dtype == np.uint16
        wide = WorldPrefix("ab", np.array([1, 0], dtype=np.int64))
        assert wide.indices.dtype == np.uint8
        assert wide.symbols() == ["b", "a"]

    def test_compact_index_array_is_kept_without_a_copy(self):
        raw = np.array([0, 1, 1], dtype=np.uint8)
        world = WorldPrefix("ab", raw)
        assert np.shares_memory(world.indices, raw)
        assert not world.indices.flags.writeable

    @pytest.mark.parametrize("bad", [0.7, 1.9, 1.0, True, False, "3", None, [1]])
    def test_non_integer_indices_rejected(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            WorldPrefix(range(4), [0, bad, 1])
        with pytest.raises(ValueError, match="must be integers"):
            WorldPrefix.from_json(json.dumps({"alphabet": [0, 1, 2, 3], "indices": [0, bad, 1]}))

    @pytest.mark.parametrize(
        "raw", [np.array([0.0, 1.0]), np.array([True, False]), np.array(["0", "1"])]
    )
    def test_non_integer_index_arrays_rejected(self, raw):
        with pytest.raises(ValueError, match="must be integers"):
            WorldPrefix("ab", raw)

    @pytest.mark.parametrize(
        "raw",
        [np.array([[0, 1, 2], [2, 1, 0]], np.uint8), np.array(1, np.uint8)],
        ids=["2-d", "0-d"],
    )
    def test_index_arrays_of_other_than_one_dimension_rejected(self, raw):
        # Neither is flattened: not into a 6-symbol world, nor into a 1-symbol one.
        with pytest.raises(ValueError, match="must be one-dimensional"):
            WorldPrefix((0, 1, 2), raw)

    @pytest.mark.parametrize("bad", [[2], [-1], [2**64]])
    def test_out_of_range_indices_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            WorldPrefix("ab", bad)

    def test_counts_across_chunks(self):
        fps = uniform("abc")
        world = sample_world(fps, 2 * worlds_mod._CHUNK_LEN + 3, seed=12)
        np.testing.assert_array_equal(
            world.counts(), np.bincount(world.indices.astype(np.int64), minlength=3)
        )
        assert world.counts().sum() == len(world)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="length"):
            sample_world(fair_coin(), 0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            sample_world(fair_coin(), 10, seed=-3)
        with pytest.raises(ValueError, match="seed"):
            sample_world(fair_coin(), 10, seed=2**64)
        with pytest.raises(ValueError, match="threads"):
            sample_world(fair_coin(), 10, seed=1, threads=0)


class TestConditionSeq:
    def test_full_alphabet_is_identity(self):
        world = sample_world(uniform("ab"), 100, seed=1)
        cond = condition_seq(world, ["a", "b"])
        assert cond.symbols() == world.symbols()

    def test_filter_by_inspection(self):
        world = WorldPrefix.from_symbols("abx", ["a", "x", "b", "x", "a"])
        cond = condition_seq(world, {"a", "b"})
        assert cond.symbols() == ["a", "b", "a"]
        assert cond.alphabet == ("a", "b")

    def test_empty_result_allowed(self):
        world = WorldPrefix.from_symbols("ab", ["a", "a"])
        cond = condition_seq(world, ["b"])
        assert len(cond) == 0

    def test_length_identity(self):
        world = sample_world(uniform("abc"), 5000, seed=2)
        stats = empirical(world)
        cond = condition_seq(world, ["a", "c"])
        assert len(cond) == stats.counts["a"] + stats.counts["c"]

    def test_chsh_conditional_frequencies(self):
        # Conditioned subsequences approach the conditional law; 4 sigma band.
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 100_000, seed=31)
        event = coin_event(0, 0)
        cond = condition_seq(world, event)
        conditional = fps.condition(event)
        stats = empirical(cond)
        for outcome in conditional.alphabet:
            p = conditional.prob(outcome)
            sigma = math.sqrt(p * (1 - p) / len(cond))
            assert abs(stats.frequency(outcome) - p) <= 4 * sigma

    def test_matches_mask_reference_across_chunks(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 2 * worlds_mod._CHUNK_LEN + 11, seed=4)
        event = coin_event(1, 1)
        cond = condition_seq(world, event)
        keep = [fps.index(o) for o in fps.alphabet if o in event]
        kept = world.indices[np.isin(world.indices, keep)]
        np.testing.assert_array_equal(cond.indices, np.searchsorted(keep, kept))
        assert cond.indices.dtype == np.uint8

    def test_provenance_records_parent(self):
        world = sample_world(fair_coin(), 50, seed=11)
        cond = condition_seq(world, [0])
        assert cond.provenance["kind"] == "conditioned"
        assert cond.provenance["parent"]["kind"] == "sampled"

    def test_foreign_symbol_rejected(self):
        world = WorldPrefix.from_symbols("ab", ["a"])
        with pytest.raises(ValueError, match="not in the alphabet"):
            condition_seq(world, ["q"])


class TestProjectZip:
    def test_project_inverts_zip(self):
        w1 = sample_world(uniform("ab"), 300, seed=6)
        w2 = sample_world(uniform((0, 1, 2)), 300, seed=7)
        zipped = zip_seqs([w1, w2])
        assert project_seq(zipped, 0) == w1
        assert project_seq(zipped, 1) == w2

    def test_small_projection(self):
        world = WorldPrefix.from_symbols(
            tuple(itertools.product((0, 1), (1, -1))), [(0, 1), (1, -1)]
        )
        assert project_seq(world, 1).symbols() == [1, -1]

    def test_multi_coordinate_projection(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 80_000, seed=12)
        coins = project_seq(world, (0, 1))
        stats = empirical(coins)
        assert coins.alphabet == tuple(itertools.product((0, 1), (0, 1)))
        for pair in coins.alphabet:
            sigma = math.sqrt(0.25 * 0.75 / len(coins))
            assert abs(stats.frequency(pair) - 0.25) <= 4 * sigma

    def test_zip_singleton(self):
        w = sample_world(fair_coin(), 20, seed=3)
        z = zip_seqs([w])
        assert z.symbols() == [(s,) for s in w.symbols()]

    def test_zip_pair_by_inspection(self):
        w1 = WorldPrefix.from_symbols((0, 1), [0, 1])
        w2 = WorldPrefix.from_symbols((1, -1), [1, -1])
        assert zip_seqs([w1, w2]).symbols() == [(0, 1), (1, -1)]

    def test_zip_length_mismatch(self):
        w1 = WorldPrefix.from_symbols((0, 1), [0, 1])
        w2 = WorldPrefix.from_symbols((0, 1), [0])
        with pytest.raises(ValueError, match="equal-length"):
            zip_seqs([w1, w2])

    def test_project_requires_tuples(self):
        with pytest.raises(ValueError, match="tuples"):
            project_seq(sample_world(fair_coin(), 5, seed=1), 0)

    def test_zip_alphabet_matches_product_space(self):
        w1 = sample_world(uniform("ab"), 10, seed=1)
        w2 = sample_world(fair_coin(), 10, seed=2)
        zipped = zip_seqs([w1, w2])
        joint = product(uniform("ab"), fair_coin())
        assert zipped.alphabet == joint.alphabet

    def test_zip_of_independent_coins_is_typical_for_the_product(self):
        # Independence at finite scale: the pair sequence passes the
        # block-frequency battery against the product law.
        from typicality_lab.battery import run_battery

        w1 = sample_world(fair_coin(), 40_000, seed=61)
        w2 = sample_world(fair_coin(), 40_000, seed=62)
        pair = zip_seqs([w1, w2])
        report = run_battery(pair, product(fair_coin(), fair_coin()))
        assert report.all_pass


class TestEmpiricalAndLln:
    def test_constant_world(self):
        world = WorldPrefix.from_symbols("a", ["a"] * 7)
        stats = empirical(world)
        assert stats.counts == {"a": 7}
        assert stats.total == 7

    def test_counts_by_inspection(self):
        world = WorldPrefix.from_symbols("ab", ["a", "b", "a"])
        assert empirical(world).counts == {"a": 2, "b": 1}

    def test_chsh_frequencies_within_four_sigma(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 200_000, seed=23)
        stats = empirical(world)
        for outcome in fps.alphabet:
            p = fps.prob(outcome)
            sigma = math.sqrt(p * (1 - p) / len(world))
            assert abs(stats.frequency(outcome) - p) <= 4 * sigma


class TestPrefixCommutation:
    @given(small_worlds(), st.data())
    @settings(max_examples=60, derandomize=True)
    def test_condition_commutes_with_prefix(self, world, data):
        event = data.draw(
            st.sets(st.sampled_from(list(world.alphabet)), min_size=1)
        )
        n = data.draw(st.integers(0, len(world)))
        cond_of_prefix = condition_seq(world.prefix(n), event)
        prefix_of_cond = condition_seq(world, event).prefix(len(cond_of_prefix))
        assert cond_of_prefix.symbols() == prefix_of_cond.symbols()

    @given(small_worlds(), st.integers(0, 40))
    @settings(max_examples=60, derandomize=True)
    def test_project_commutes_with_prefix(self, base, raw_n):
        world = zip_seqs([base, base])
        n = min(raw_n, len(world))
        left = project_seq(world.prefix(n), 0)
        right = project_seq(world, 0).prefix(n)
        assert left.symbols() == right.symbols()


class TestExportImport:
    def test_json_round_trip(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 500, seed=15)
        again = WorldPrefix.from_json(world.to_json())
        assert again == world
        assert again.provenance == world.provenance

    def test_json_accepts_symbols_field(self):
        obj = {"alphabet": ["a", "b"], "symbols": ["b", "a", "b"]}
        world = WorldPrefix.from_json(json.dumps(obj))
        assert world.symbols() == ["b", "a", "b"]

    def test_from_json_refuses_indices_and_symbols_together(self):
        # Neither field silently wins: 3 indices here, or 4 symbols.
        obj = {"alphabet": [0, 1], "indices": [0, 1, 1], "symbols": [1, 1, 1, 1]}
        with pytest.raises(ValueError, match="'indices' or 'symbols', not both"):
            WorldPrefix.from_json(json.dumps(obj))

    def test_from_json_rejects_missing_data(self):
        with pytest.raises(ValueError, match="indices"):
            WorldPrefix.from_json(json.dumps({"alphabet": ["a"]}))

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"alphabet": "ab", "indices": [1, 0]}, "alphabet"),
            ({"alphabet": {"a": 0, "b": 1}, "indices": [1, 0]}, "alphabet"),
            ({"alphabet": ["a", "b"], "symbols": "ba"}, "symbols"),
        ],
        ids=["string-alphabet", "object-alphabet", "string-symbols"],
    )
    def test_from_json_fields_must_be_lists(self, obj, field):
        # Iterated, each would read as a world over ("a", "b").
        with pytest.raises(ValueError, match=f"'{field}' must be a list"):
            WorldPrefix.from_json(json.dumps(obj))

    @pytest.mark.parametrize("provenance", ["x", [1], 5], ids=["string", "list", "number"])
    def test_from_json_provenance_must_be_an_object(self, provenance):
        # Replayed, each would fail in repr(world), which reads the provenance's kind.
        obj = {"alphabet": ["a", "b"], "indices": [1, 0], "provenance": provenance}
        with pytest.raises(ValueError, match="'provenance' must be an object"):
            WorldPrefix.from_json(json.dumps(obj))

    def test_from_json_null_provenance_is_imported(self):
        obj = {"alphabet": ["a", "b"], "indices": [1, 0], "provenance": None}
        assert WorldPrefix.from_json(json.dumps(obj)).provenance["kind"] == "imported"


def _scribble(tree):
    """Change every dict and list of a provenance tree in place."""
    if isinstance(tree, dict):
        for value in tree.values():
            _scribble(value)
        tree["seed"] = 999
    elif isinstance(tree, list):
        for value in tree:
            _scribble(value)
        tree.append(999)


class TestProvenanceIsImmutable:
    def test_no_provenance_handed_in_or_out_changes_a_world(self):
        world = sample_world(chsh_distribution(), 100, seed=1)
        given = {"kind": "literal", "parent": {"seed": 5, "parents": [{"kind": "x"}]}}
        derived = [
            WorldPrefix((0, 1), [0, 1, 1], given),
            world.prefix(10),
            world.prefix(10).prefix(5),
            condition_seq(world, coin_event(0, 1)),
            project_seq(world, (0, 2)),
            zip_seqs([world, project_seq(world, 0)]),
            WorldPrefix.from_json(world.prefix(10).to_json()),
        ]
        worlds = [world, *derived]
        before = [w.to_json() for w in worlds]
        _scribble(given)
        for w in worlds:
            _scribble(w.provenance)
        assert [w.to_json() for w in worlds] == before
        assert world.provenance["seed"] == 1
