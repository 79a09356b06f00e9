"""The fast paths against the computations they replaced.

Each reference below is the straightforward version kept for comparison:
``scipy.stats.chi2`` for the battery p-value, one draw of raw words spaced
in Python and ``fractions.Fraction`` sums for the sweep, conditioning the
world cell by cell for the run statistics, one ``searchsorted`` per Philox
block for the sampler, a membership mask per event for the one-pass cell
split, int64 Horner codes for the battery's block histograms, and the
materialised world, split and counted, for the counts taken while it is
drawn.  The fast paths must agree exactly, except the closed-form
chi-square tail, which must agree to a stated relative error.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typicality_lab
from typicality_lab import chsh as chsh_mod
from typicality_lab.battery import _chi2_sf, block_frequency_test
from typicality_lab.checks import Check
from typicality_lab.chsh import (
    CHSH_OUTCOMES,
    RQST_TUPLES,
    chsh_distribution,
    coin_event,
    lhv_chsh_averages,
    lhv_chsh_simulate,
    random_h_spaces,
    run_chsh,
)
from typicality_lab.cli import main
from typicality_lab.ghz import (
    GHZ_OUTCOMES,
    GhzOutcome,
    ghz_distribution,
    run_ghz,
)
from typicality_lab import worlds as worlds_mod
from typicality_lab.spaces import SUM_ATOL, FiniteProbabilitySpace, point_mass, product, uniform
from typicality_lab.worlds import (
    BLOCK_LEN,
    WorldPrefix,
    _GUIDE,
    _count_words,
    _cumulative_boundaries,
    _fill_words,
    _fold,
    _guide_tables,
    condition_seq,
    sample_world,
    tally,
)

_SRC = os.path.dirname(os.path.dirname(typicality_lab.__file__))


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestChi2UpperTail:
    """``_chi2_sf`` against ``scipy.stats.chi2``, which the package no longer imports."""

    QUANTILES = (1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6)

    def relative_error(self, dofs):
        chi2 = pytest.importorskip("scipy.stats").chi2
        worst = 0.0
        for dof in dofs:
            xs = chi2.ppf(self.QUANTILES, dof)
            expected = chi2.sf(xs, dof)
            got = np.array([_chi2_sf(float(x), dof) for x in xs])
            worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
        return worst

    def test_matches_scipy_up_to_dof_4999(self):
        # Every dof to 64, then every 59th and the last: the whole range
        # 1..4999 costs seconds to sweep.  These dofs differ by up to 5.8e-14,
        # scipy's own error: the 50-digit tail of test_battery_reference is
        # within 1.5e-15 of the package at these points.
        dofs = [*range(1, 65), *range(65, 5000, 59), 4999]
        assert self.relative_error(dofs) <= 1e-13

    def test_matches_scipy_at_the_largest_cells(self):
        # 4**7 - 1 and 4**8 - 1: k = 7 and k = 8 on a four-symbol CHSH cell.
        assert self.relative_error([16383, 65535]) <= 1e-14

    @pytest.mark.parametrize("significance", [0.01, 0.05, 0.2, 1e-6])
    def test_decision_is_the_quantile_test(self, significance):
        chi2 = pytest.importorskip("scipy.stats").chi2
        gen = np.random.default_rng(7)
        dofs = gen.integers(1, 1000, size=1000)
        quantiles = chi2.ppf(1.0 - significance, dofs)
        statistics = quantiles * np.exp(gen.normal(0.0, 0.2, size=dofs.size))
        away = np.abs(np.log(statistics / quantiles)) > 1e-9
        assert away.sum() > 990
        for x, dof, q in zip(statistics[away], dofs[away], quantiles[away]):
            assert (_chi2_sf(float(x), int(dof)) >= significance) == (x <= q)

    def test_edges(self):
        assert _chi2_sf(0.0, 3) == _chi2_sf(-1.0, 3) == 1.0
        assert _chi2_sf(math.inf, 1) == _chi2_sf(math.inf, 4) == 0.0
        assert _chi2_sf(0.0, 0) == 1.0
        assert _chi2_sf(1e-300, 0) == _chi2_sf(math.inf, 0) == 0.0
        assert _chi2_sf(1e-300, 1) == pytest.approx(1.0)
        assert _chi2_sf(1e-300, 2) == pytest.approx(1.0)
        assert _chi2_sf(2000.0, 3) == 0.0


def test_commands_run_without_scipy(tmp_path):
    fps = chsh_distribution("analytic")
    world, space = tmp_path / "world.json", tmp_path / "fps.json"
    world.write_text(sample_world(fps, 200_000, 11).to_json())
    space.write_text(fps.to_json())
    out = _python(
        "import os, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from typicality_lab.cli import main\n"
        f"for argv in (['battery', {str(world)!r}, {str(space)!r}],\n"
        "             ['chsh', '--trials', '200000', '--seed', '42'],\n"
        "             ['ghz', '--trials', '8000', '--seed', '1'], ['lhv', 'ghz'],\n"
        "             ['lhv', 'chsh', '--sweep', '100', '--seed', '1']):\n"
        "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


class TestSweep:
    @staticmethod
    def python_counts(count, seed):
        """One ``(count, 15)`` draw of raw words, each row's cuts ``w >> 11`` spaced in Python."""
        rows = []
        for words in np.random.Philox(key=seed).random_raw((count, 15)).tolist():
            cuts = [0, *sorted(w >> 11 for w in words), 2**53]
            rows.append([b - a for a, b in zip(cuts, cuts[1:])])
        return np.array(rows, dtype=np.int64).reshape(count, len(RQST_TUPLES))

    @staticmethod
    def exact_averages(h):
        """The four averages of ``h`` as Fractions."""
        return {
            name: sum(Fraction(h.prob(x)) * x[i] * x[j] for x in RQST_TUPLES)
            for name, (_, (i, j)) in chsh_mod._AVERAGES.items()
        }

    @pytest.mark.parametrize("seed", [42, 3])
    def test_rows_are_the_spaces_weights(self, seed):
        counts = np.vstack(list(chsh_mod._random_h_counts(3000, seed)))
        assert np.array_equal(counts, self.python_counts(3000, seed))
        assert (counts >= 0).all() and (counts.sum(axis=1) == 2**53).all()
        spaces = random_h_spaces(3000, seed)
        assert [[Fraction(w) * 2**53 for w in h.weights] for h in spaces] == counts.tolist()
        assert all(math.fsum(h.weights) == 1.0 for h in spaces)

    @pytest.mark.parametrize("seed", [42, 3])
    def test_s_values_match_exact_averages(self, seed):
        counts = np.vstack(list(chsh_mod._random_h_counts(500, seed)))
        for row, h in zip(counts, random_h_spaces(500, seed)):
            exact = self.exact_averages(h)
            assert lhv_chsh_averages(h).averages == {n: float(a) for n, a in exact.items()}
            s_value = exact["rs"] + exact["qs"] + exact["rt"] - exact["qt"]
            assert Fraction(chsh_mod._max_s_value(row[None])) == s_value

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 12])
    def test_blocked_sweep_is_the_one_shot_sweep(self, count, monkeypatch):
        # Blocks of 4 rows: none, one short, one full, one and a bit, three.
        monkeypatch.setattr(chsh_mod, "_SWEEP_BLOCK", 4)
        one_shot = self.python_counts(count, 9)
        blocks = list(chsh_mod._random_h_counts(count, 9))
        assert [len(block) for block in blocks] == [min(4, count - s) for s in range(0, count, 4)]
        assert np.array_equal(np.vstack([np.empty((0, 16), np.int64), *blocks]), one_shot)

        scored = []
        max_s_value = chsh_mod._max_s_value

        def recording(counts):
            scored.append(counts)
            return max_s_value(counts)

        monkeypatch.setattr(chsh_mod, "_max_s_value", recording)
        report = chsh_mod.lhv_sweep(count, 9)
        *random_rows, vertices = scored
        assert [len(rows) for rows in random_rows] == [len(block) for block in blocks]
        assert vertices.tolist() == (2**53 * np.eye(len(RQST_TUPLES), dtype=int)).tolist()
        coefficients = list(chsh_mod._S_COEFFICIENTS)
        exact = [sum(n * c for n, c in zip(row, coefficients)) for row in one_shot.tolist()]
        assert report.max_s_value == (Fraction(max(exact), 2**53) if count else None)

    def test_s_value_does_not_depend_on_the_rows_beside_it(self):
        # One row alone, in blocks of 1024 rows and in one block of 3000.
        counts = np.vstack(list(chsh_mod._random_h_counts(3000, 42)))
        one_block = chsh_mod._max_s_value(counts)
        blocks = [chsh_mod._max_s_value(counts[i : i + 1024]) for i in range(0, 3000, 1024)]
        alone = [chsh_mod._max_s_value(row[None]) for row in counts]
        assert max(blocks) == max(alone) == one_block

    def test_blocked_sweep_report_bytes(self, monkeypatch, capsys):
        for seed in ("3", "7"):
            argv = ["lhv", "chsh", "--sweep", "1000", "--seed", seed]
            monkeypatch.setattr(chsh_mod, "_SWEEP_BLOCK", 1024)
            assert main(argv) == 0
            default = capsys.readouterr().out
            for block in (1, 7, 64, 1000):
                monkeypatch.setattr(chsh_mod, "_SWEEP_BLOCK", block)
                assert main(argv) == 0
                assert capsys.readouterr().out == default, (seed, block)

    def test_empty_sweep_reports_the_vertices(self):
        report = chsh_mod.lhv_sweep(0, 1)
        assert report.max_s_value is None
        assert report.vertex_max_s_value == 2.0
        assert report.num_random == 0

    @pytest.mark.parametrize("mode", ["--sweep", "--h-file"])
    def test_bound_violation_is_a_report_failure(self, mode, monkeypatch, capsys, tmp_path):
        # A planted breach: a bound of 1, which every vertex's |s| of 2 exceeds.
        monkeypatch.setattr(chsh_mod, "LOCAL_BOUND", 1.0)
        h_file = tmp_path / "h.json"
        h_file.write_text(point_mass(RQST_TUPLES, (1, 1, 1, 1)).to_json())
        args = ["10", "--seed", "1"] if mode == "--sweep" else [str(h_file)]
        status = main(["lhv", "chsh", mode, *args])
        captured = capsys.readouterr()
        assert status == 1
        assert [f["check"] for f in json.loads(captured.out)["failures"]] == ["chsh-bound"]
        assert "Traceback" not in captured.err


def conditioned_cell(world, event, value):
    """Count, mean and values of ``value`` on one conditioned cell."""
    cell = condition_seq(world, event)
    values = np.array([value(sym) for sym in cell.alphabet])[cell.indices]
    return len(cell), float(values.mean()), values


class TestCountsFirst:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_run_chsh(self, seed):
        report = run_chsh(40_000, seed)
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 40_000, seed)
        for name, ((c, d), _) in chsh_mod._AVERAGES.items():
            count, mean, _ = conditioned_cell(world, coin_event(c, d), lambda o: o.m * o.n)
            assert report.counts[name] == count
            assert report.averages[name] == mean
            # The coin pair's test, before its family adjusts it, is the
            # battery's block-1 test of the conditioned subsequence.
            cell = condition_seq(world, coin_event(c, d))
            alone = block_frequency_test(cell, fps.condition(coin_event(c, d)), 1)
            test = report.cell_tests[f"{c}{d}"]._replace(significance=alone.significance)
            assert test._replace(adjusted_p_value=alone.p_value) == alone

    @pytest.mark.parametrize("seed", [42, 7])
    def test_lhv_chsh_simulate(self, seed):
        h = random_h_spaces(1, seed)[0]
        report = lhv_chsh_simulate(h, 40_000, seed)
        coin = uniform((0, 1))
        joint = product(h, coin, coin)
        world = sample_world(joint, 40_000, seed)
        for name, ((c, d), (i, j)) in chsh_mod._AVERAGES.items():
            event = [sym for sym in joint.alphabet if sym[1:] == (c, d)]
            count, mean, _ = conditioned_cell(world, event, lambda sym: sym[0][i] * sym[0][j])
            assert report.counts[name] == count
            assert report.averages[name] == mean

    @pytest.mark.parametrize("seed", [42, 7])
    def test_run_ghz(self, seed):
        report = run_ghz(40_000, seed)
        fps = ghz_distribution("analytic")
        world = sample_world(fps, 40_000, seed)
        for key, entry in {**report.constrained, **report.free}.items():
            coins = tuple(int(ch) for ch in key)
            event = [o for o in GHZ_OUTCOMES if o[:3] == coins]
            count, mean, values = conditioned_cell(
                world, event, lambda o: o.m1 * o.m2 * o.m3
            )
            assert entry["count"] == count
            # As for chsh: the triple's test before its family adjusts it.
            alone = block_frequency_test(condition_seq(world, event), fps.condition(event), 1)
            test = report.cell_tests[key]._replace(significance=alone.significance)
            assert test._replace(adjusted_p_value=alone.p_value) == alone
            if key in report.constrained:
                required = entry["required_product"]
                assert entry["violations"] == int((values != required).sum()) == 0
            else:
                assert entry["mean_product"] == mean


CHUNK = worlds_mod._CHUNK_LEN


def constant_guide(fps, symbol):
    """A stand-in for ``worlds._guide_tables`` whose table maps every draw to ``symbol`` of ``fps``.

    The draw's real count, keep and split code runs on the constant world.
    """
    index = fps.index(symbol)
    guide_tables = worlds_mod._guide_tables

    def planted(cum):
        guide, _, thresholds = guide_tables(cum)
        return np.full_like(guide, index), None, thresholds

    return planted


class TestChecksKept:
    @pytest.mark.parametrize(
        "outcome, triple",
        [(GhzOutcome(0, 0, 0, 1, 1, 1), "000"), (GhzOutcome(0, 1, 1, 1, 1, -1), "011")],
    )
    def test_forbidden_product_is_counted(self, monkeypatch, capsys, outcome, triple):
        monkeypatch.setattr(
            worlds_mod, "_guide_tables", constant_guide(ghz_distribution("analytic"), outcome)
        )
        report = run_ghz(8000, 1)
        assert {key: e["violations"] for key, e in report.constrained.items()} == {
            key: 8000 if key == triple else 0 for key in report.constrained
        }
        assert report.check == Check("perfect-correlations", 8000, "==", 0)
        assert not report.check.passed
        # Every round lies in one constrained triple, so no free triple has a mean.
        assert all(
            entry == {"count": 0, "mean_product": None}
            for entry in report.free.values()
        )
        # The forbidden outcome is a zero cell of its triple's test, which
        # fails; a triple without rounds decides nothing, and passes.
        for key, test in report.cell_tests.items():
            hits, blocks = (8000, 8000) if key == triple else (0, 0)
            assert (test.zero_cell_hits, test.n_blocks, test.passed) == (hits, blocks, not hits)
            assert test.p_value == (0.0 if hits else 1.0)
        assert main(["ghz", "--trials", "8000", "--seed", "1"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [f["check"] for f in failures] == [
            "perfect-correlations", f"block-frequency-k1-cell-{triple}"
        ]

    def test_run_chsh_empty_cell_raises(self, monkeypatch):
        fps = chsh_distribution("analytic")
        monkeypatch.setattr(worlds_mod, "_guide_tables", constant_guide(fps, CHSH_OUTCOMES[0]))
        with pytest.raises(RuntimeError, match=r"coin pair \(1,0\) collected no samples"):
            run_chsh(4000, 1)

    def test_lhv_simulate_empty_cell_raises(self, monkeypatch):
        symbol = (RQST_TUPLES[0], 0, 0)
        h = uniform(RQST_TUPLES)
        joint = product(h, uniform((0, 1)), uniform((0, 1)))
        monkeypatch.setattr(worlds_mod, "_guide_tables", constant_guide(joint, symbol))
        with pytest.raises(RuntimeError, match=r"coin pair \(1,0\) collected no samples"):
            lhv_chsh_simulate(h, 4000, 1)


def reference_sample(fps, length, seed):
    """The block-at-a-time sampler: one ``searchsorted`` per 8192-symbol block."""
    cum = _cumulative_boundaries(fps)
    parts = []
    for block in range(-(-length // BLOCK_LEN)):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
        count = min(BLOCK_LEN, length - block * BLOCK_LEN)
        parts.append(np.searchsorted(cum, gen.random(count), side="right"))
    return np.concatenate(parts)


@st.composite
def sampled_spaces(draw):
    """Weight vectors with exact zeros, 1e-300-sized weights and sums of 1 + eps."""
    size = draw(st.integers(1, 300))
    raw = draw(
        st.lists(
            st.one_of(
                st.just(0.0), st.just(1e-300), st.floats(1e-6, 1.0), st.floats(1e-6, 1e-3)
            ),
            min_size=size,
            max_size=size,
        )
    )
    raw[draw(st.integers(0, size - 1))] = draw(st.floats(0.01, 1.0))
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    # Push the sum above one, up to the tolerance the constructor allows.
    bump = draw(st.sampled_from([0.0, 1e-13, 0.9 * SUM_ATOL]))
    heaviest = max(range(size), key=weights.__getitem__)
    weights[heaviest] += bump
    if abs(math.fsum(weights) - 1.0) > SUM_ATOL:
        weights[heaviest] -= bump
    return FiniteProbabilitySpace(range(size), weights)


@st.composite
def grid_spaces(draw):
    """Weights that are multiples of 1/1024, zeros included: every boundary on the guide grid."""
    cuts = sorted(draw(st.lists(st.integers(0, _GUIDE), max_size=40)))
    ticks = np.diff([0, *cuts, _GUIDE])
    return FiniteProbabilitySpace(range(ticks.size), ticks / _GUIDE)


#: Words per guide bucket: bucket ``j`` holds ``w >> 11`` from ``j << 43`` to ``(j + 1) << 43``.
BUCKET_WIDTH = 1 << 43


def words_of(x, rng):
    """Philox words with ``w >> 11 == x``, their 11 dropped bits drawn from ``rng``."""
    x = np.asarray(x, dtype=np.uint64)
    return (x << np.uint64(11)) | rng.integers(0, 1 << 11, x.size, dtype=np.uint64)


def float_inverse(fps, words):
    """The symbols of ``words`` by the float inverse CDF of the uniforms ``(w >> 11) * 2**-53``."""
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    return np.searchsorted(_cumulative_boundaries(fps), uniforms, side="right")


def count_and_keep(fps, words):
    """``_count_words``' counts of ``words`` under ``fps``, and the symbols it keeps."""
    tables = _guide_tables(_cumulative_boundaries(fps))
    kept = np.empty(words.size, dtype=tables[0].dtype)
    sums = np.zeros(_GUIDE + len(fps), dtype=np.int64)
    _count_words(words, np.empty(words.size, np.intp), tables, sums, kept)
    return _fold(sums, tables), kept


@st.composite
def mixed_bucket_words(draw):
    """A space, and words at its thresholds, in its mixed buckets and a few anywhere."""
    fps = draw(st.one_of(sampled_spaces(), grid_spaces()))
    _, mixed, thresholds = _guide_tables(_cumulative_boundaries(fps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    lo = np.flatnonzero(mixed if mixed is not None else []).astype(np.uint64) << np.uint64(43)
    x = np.concatenate(
        [
            lo,
            lo + np.uint64(BUCKET_WIDTH - 1),
            thresholds - np.uint64(1),  # wraps past 2**53 below a zero threshold: dropped
            thresholds,
            thresholds + np.uint64(1),
            np.repeat(lo, 20) + rng.integers(0, BUCKET_WIDTH, 20 * lo.size, dtype=np.uint64),
            rng.integers(0, 2**53, 50, dtype=np.uint64),
            np.array([0, 2**53 - 1], dtype=np.uint64),
        ]
    )
    return fps, words_of(x[x < 2**53], rng)


class TestGuideTableSampler:
    @settings(max_examples=150, deadline=None)
    @given(case=mixed_bucket_words())
    def test_search_matches_searchsorted_right(self, case):
        fps, words = case
        cum = _cumulative_boundaries(fps)
        if np.all(cum * _GUIDE == np.floor(cum * _GUIDE)):
            assert _guide_tables(cum)[1] is None  # every boundary on the grid: no search at all
        expected = float_inverse(fps, words)
        counts, kept = count_and_keep(fps, words)
        np.testing.assert_array_equal(kept, expected)
        np.testing.assert_array_equal(counts, np.bincount(expected, minlength=len(fps)))
        assert not np.any(fps.weights[kept] == 0.0)

    def test_chsh_has_eight_mixed_buckets_and_ghz_none(self):
        chsh_mixed = _guide_tables(_cumulative_boundaries(chsh_distribution("analytic")))[1]
        assert int(chsh_mixed.sum()) == 8
        assert _guide_tables(_cumulative_boundaries(ghz_distribution("analytic")))[1] is None

    @pytest.mark.parametrize("chunk", [0, 3])
    @pytest.mark.parametrize(
        "size", [1, BLOCK_LEN - 1, BLOCK_LEN, 3 * BLOCK_LEN + 5, CHUNK - 1, CHUNK]
    )
    def test_one_advanced_generator_matches_fresh_block_generators(self, chunk, size):
        # Sizes below CHUNK are a world's final partial chunk; those not a
        # multiple of BLOCK_LEN end in a partial block.  The words are the
        # fresh generators' raw words, and stand for their uniforms.  Chunk 3
        # is drawn by a generator that drew part of chunk 1 and so stands
        # mid-block with words buffered, and jumps over chunk 2, which
        # another thread took.
        for seed in (7, 2**64 - 1):
            bitgen = np.random.Philox(key=seed)
            if chunk:
                _fill_words(np.empty(BLOCK_LEN + 3, dtype=np.uint64), bitgen, 1)
            words = np.empty(size, dtype=np.uint64)
            _fill_words(words, bitgen, chunk)
            first = chunk * CHUNK // BLOCK_LEN
            sizes = [
                (b, min(BLOCK_LEN, size - (b - first) * BLOCK_LEN))
                for b in range(first, first + -(-size // BLOCK_LEN))
            ]
            fresh = [np.random.Philox(key=seed, counter=b << 128).random_raw(n) for b, n in sizes]
            np.testing.assert_array_equal(words, np.concatenate(fresh))
            uniforms = [
                np.random.Generator(np.random.Philox(key=seed, counter=b << 128)).random(n)
                for b, n in sizes
            ]
            np.testing.assert_array_equal(
                (words >> np.uint64(11)) * 2.0**-53, np.concatenate(uniforms)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        fps=sampled_spaces(),
        length=st.one_of(
            st.sampled_from(
                [1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1]
                + [CHUNK * k + d for k in (1, 2) for d in (-1, 0, 1)]
            ),
            st.integers(1, 2 * CHUNK + BLOCK_LEN),
        ),
        seed=st.integers(0, 2**64 - 1),
        threads=st.integers(1, 3),
    )
    def test_matches_block_searchsorted(self, fps, length, seed, threads):
        world = sample_world(fps, length, seed, threads=threads)
        np.testing.assert_array_equal(world.indices, reference_sample(fps, length, seed))
        assert world.indices.dtype == (np.uint8 if len(fps) <= 256 else np.uint16)
        assert not np.any(fps.weights[world.indices] == 0.0)

    def test_chsh_and_ghz_match_over_many_chunks(self):
        for fps in (chsh_distribution("analytic"), ghz_distribution("analytic")):
            length = 5 * CHUNK + 3
            world = sample_world(fps, length, 42, threads=2)
            np.testing.assert_array_equal(world.indices, reference_sample(fps, length, 42))
            assert not np.any(fps.weights[world.indices] == 0.0)


def reference_condition(world, event):
    """Indices of ``condition_seq(world, event)`` from one membership mask."""
    keep_ids = sorted(world.alphabet.index(s) for s in set(event))
    remap = np.zeros(len(world.alphabet), dtype=np.int64)
    remap[keep_ids] = np.arange(len(keep_ids))
    return remap[world.indices[np.isin(world.indices, keep_ids)]]


@st.composite
def partitioned_worlds(draw):
    """A world, some symbols never drawn, and disjoint events over a subset."""
    size = draw(st.integers(1, 256))
    length = draw(
        st.one_of(
            st.sampled_from([0, 1] + [CHUNK * k + d for k in (1, 2) for d in (-1, 0, 1)]),
            st.integers(0, 2 * CHUNK + 5),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = rng.choice(size, size=draw(st.integers(1, size)), replace=False)
    world = WorldPrefix(range(size), rng.choice(drawn, size=length))
    # Each symbol goes to one of the events or to none (label n_events).
    n_events = draw(st.integers(1, 5))
    labels = rng.integers(0, n_events + 1, size=size)
    events = [list(np.flatnonzero(labels == i)) for i in range(n_events)]
    events = [e for e in events if e] or [[int(rng.integers(size))]]
    return world, events


class TestPartition:
    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_worlds())
    def test_each_part_is_condition_seq(self, case):
        world, events = case
        for event in events:
            part = condition_seq(world, event)
            assert part.alphabet == tuple(world.alphabet[i] for i in sorted(event))
            assert part.provenance == {
                "kind": "conditioned",
                "event_size": len(event),
                "parent": world.provenance,
            }
            assert part.indices.dtype == worlds_mod._index_dtype(len(event))
            np.testing.assert_array_equal(part.indices, reference_condition(world, event))

    def test_chsh_coin_pairs(self):
        world = sample_world(chsh_distribution("analytic"), 3 * CHUNK + 7, 42)
        for c in (0, 1):
            for d in (0, 1):
                event = coin_event(c, d)
                part = condition_seq(world, event)
                assert part.alphabet == event
                assert part.provenance["kind"] == "conditioned"
                np.testing.assert_array_equal(part.indices, reference_condition(world, event))

    def test_empty_event_rejected(self):
        world = WorldPrefix("abc", [0, 1, 2])
        with pytest.raises(ValueError, match="at least one symbol"):
            condition_seq(world, "")


def reference_block_counts(world, block_len):
    """The int64 Horner histogram the battery built before compact codes."""
    n_sym = len(world.alphabet)
    n_blocks = len(world) // block_len
    codes = np.zeros(n_blocks, dtype=np.int64)
    for j in range(block_len):
        codes = codes * n_sym + world.indices[j : n_blocks * block_len : block_len]
    return np.bincount(codes, minlength=n_sym**block_len)


class TestCompactBlockCounts:
    @pytest.mark.parametrize(
        "n_sym, block_len",
        # Every block length up to 4 whose histogram has at most 2**20 cells,
        # and blocks longer than a chunk, each counted in a slice of its own.
        [(n, k) for n in (1, 2, 4, 16, 300) for k in (1, 2, 3, 4) if n**k <= 2**20]
        + [(1, CHUNK + 1)],
    )
    @pytest.mark.parametrize("length", [0, 11, 4 * CHUNK - 1, 4 * CHUNK + 2, 8 * CHUNK + 3])
    def test_matches_int64_horner(self, n_sym, block_len, length):
        rng = np.random.default_rng(n_sym * 1000 + block_len * 10 + length)
        world = WorldPrefix(range(n_sym), rng.integers(0, n_sym, size=length))
        counts = world.counts(block_len)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, reference_block_counts(world, block_len))
        assert counts.sum() == length // block_len

    def test_codes_reaching_the_dtype_maximum(self):
        # 4**4 - 1 = 255 and 16**2 - 1 = 255: the codes fill uint8 exactly.
        for n_sym, block_len in ((4, 4), (16, 2), (2, 8)):
            world = WorldPrefix(range(n_sym), np.full(10 * block_len + 1, n_sym - 1))
            counts = world.counts(block_len)
            assert counts[-1] == 10 and counts.sum() == 10
            np.testing.assert_array_equal(counts, reference_block_counts(world, block_len))

    def test_block_len_must_be_positive(self):
        with pytest.raises(ValueError, match="block_len"):
            WorldPrefix("ab", [0, 1]).counts(0)


@st.composite
def tallied_runs(draw):
    """A space with never-drawn symbols, and a length near chunk edges."""
    size = draw(st.integers(1, 16))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=size, max_size=size)))
    weights[draw(st.integers(0, size - 1))] = 2.0
    fps = FiniteProbabilitySpace(range(size), weights / weights.sum())
    length = draw(
        st.one_of(
            st.sampled_from([1, 2, 3] + [CHUNK * k + d for k in (1, 2) for d in (-1, 0, 1)]),
            st.integers(1, 2 * CHUNK + 5),
        )
    )
    return fps, length


class TestTally:
    @settings(max_examples=40, deadline=None)
    @given(
        case=tallied_runs(),
        seed=st.integers(0, 2**64 - 1),
        threads=st.integers(1, 3),
    )
    def test_matches_the_sampled_worlds_counts(self, case, seed, threads):
        fps, length = case
        counts = tally(fps, length, seed, threads)
        np.testing.assert_array_equal(counts, sample_world(fps, length, seed).counts())
        assert counts.dtype == np.int64

    def test_on_world_sees_the_sampled_world(self):
        fps = chsh_distribution("analytic")
        seen = []
        counts = tally(fps, CHUNK + 5, 7, 2, on_world=seen.append)
        world = sample_world(fps, CHUNK + 5, 7)
        assert seen == [world]
        assert seen[0].provenance == world.provenance
        np.testing.assert_array_equal(counts, world.counts())

