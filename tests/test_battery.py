"""Tests for the block-frequency battery."""

import math

import numpy as np
import pytest

from typicality_lab.battery import (
    DEFAULT_SIGNIFICANCE,
    BatteryReport,
    block_frequency_test,
    frequency_test,
    holm_family,
    run_battery,
)
from typicality_lab.chsh import chsh_distribution, coin_event
from typicality_lab.spaces import FiniteProbabilitySpace, fair_coin, point_mass, uniform
from typicality_lab.worlds import WorldPrefix, condition_seq, sample_world


class TestBlockFrequency:
    def test_degenerate_space_scores_zero(self):
        fps = FiniteProbabilitySpace(["a", "b"], [1.0, 0.0])
        world = sample_world(fps, 1000, seed=5)
        result = block_frequency_test(world, fps, 1)
        assert result.statistic == 0.0
        assert result.passed

    def test_fair_coin_passes(self):
        world = sample_world(fair_coin(), 10_000, seed=101)
        result = block_frequency_test(world, fair_coin(), 1)
        assert result.passed
        assert result.dof == 1

    def test_alternating_world_fails_at_k2(self):
        # "0101..." has every length-2 block equal to (0,1).  With 5000
        # blocks and 1250 expected per cell the statistic is, by hand,
        # 3 * (0-1250)^2/1250 + (5000-1250)^2/1250 = 3750 + 11250 = 15000.
        world = WorldPrefix.from_symbols((0, 1), [0, 1] * 5000)
        result = block_frequency_test(world, fair_coin(), 2)
        assert result.statistic == pytest.approx(15000.0, abs=1e-9)
        assert not result.passed

    def test_alternating_world_passes_at_k1(self):
        # The same sequence has perfect single-symbol frequencies.
        world = WorldPrefix.from_symbols((0, 1), [0, 1] * 5000)
        result = block_frequency_test(world, fair_coin(), 1)
        assert result.statistic == 0.0

    def test_zero_probability_cells_are_removed(self):
        fps = FiniteProbabilitySpace(["a", "b", "z"], [0.5, 0.5, 0.0])
        world = sample_world(fps, 2000, seed=6)
        result = block_frequency_test(world, fps, 1)
        assert result.zero_cells == 1
        assert result.dof == 1
        assert result.zero_cell_hits == 0

    def test_zero_probability_hit_is_infinite(self):
        fps = FiniteProbabilitySpace(["a", "z"], [1.0, 0.0])
        world = WorldPrefix.from_symbols(["a", "z"], ["a"] * 999 + ["z"])
        result = block_frequency_test(world, fps, 1)
        assert result.statistic == float("inf")
        assert result.zero_cell_hits == 1
        assert not result.passed

    def test_insufficient_length_rejected(self):
        world = sample_world(fair_coin(), 100, seed=1)
        with pytest.raises(ValueError, match="too short"):
            block_frequency_test(world, fair_coin(), 4)

    def test_length_rule(self):
        for length in (0, 9, 80, 1000, 10**6):
            for n_sym in (1, 2, 4, 16):
                fps = uniform(range(n_sym))
                world = WorldPrefix(range(n_sym), np.arange(length) % n_sym)
                for k in range(1, 30):
                    if k * n_sym**k <= length / 10:
                        assert block_frequency_test(world, fps, k).n_blocks == length // k
                    else:
                        with pytest.raises(ValueError, match="too short"):
                            block_frequency_test(world, fps, k)

    def test_block_len_above_64_is_refused_at_once(self):
        # The cap is checked first: a one-symbol world of 10**4 meets the
        # length rule at k = 65, and 3**(10**8) alone would take seconds to
        # build, so reaching the length rule would show either way.
        one = WorldPrefix(["a"], np.zeros(10**4, dtype=np.intp))
        three = WorldPrefix("abc", np.arange(100) % 3)
        for world, fps in ((one, point_mass(["a"], "a")), (three, uniform("abc"))):
            for block_len in (65, 10**8):
                message = f"^block_len must be from 1 to 64, got {block_len}$"
                with pytest.raises(ValueError, match=message):
                    block_frequency_test(world, fps, block_len)
        # At 64 the one-symbol test runs, and decides nothing.
        result = block_frequency_test(one, point_mass(["a"], "a"), 64)
        assert (result.n_blocks, result.dof, result.p_value) == (156, 0, 1.0)

    def test_block_len_must_be_positive(self):
        world = sample_world(fair_coin(), 100, seed=1)
        with pytest.raises(ValueError, match="block_len"):
            block_frequency_test(world, fair_coin(), 0)

    def test_alphabet_mismatch_rejected(self):
        world = sample_world(fair_coin(), 100, seed=1)
        with pytest.raises(ValueError, match="alphabets differ"):
            block_frequency_test(world, FiniteProbabilitySpace("ab", [0.5, 0.5]), 1)

    def test_six_sigma_deviation_fails(self):
        # A single-symbol excess of z sigma contributes z^2 (1 - p) per
        # cell; at 6.5 sigma on a fair coin the statistic is about 42, whose
        # p-value is far below the significance.
        n, z = 10_000, 6.5
        excess = int(z * math.sqrt(n * 0.25))
        world = WorldPrefix.from_symbols(
            (0, 1), [0] * (n // 2 + excess) + [1] * (n // 2 - excess)
        )
        report = run_battery(world, fair_coin(), (1, 2))
        k1 = report.tests[0]
        assert k1.block_len == 1
        assert k1.p_value < k1.significance
        assert not report.all_pass


class TestRunBattery:
    def test_degenerate_all_pass(self):
        fps = FiniteProbabilitySpace(["a", "b"], [1.0, 0.0])
        world = sample_world(fps, 2000, seed=2)
        report = run_battery(world, fps)
        assert report.all_pass
        assert report.passed_count == 3

    def test_sampled_chsh_world_passes(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 200_000, seed=42)
        report = run_battery(world, fps, (1, 2))
        assert report.all_pass

    def test_conditioned_chsh_world_passes_conditional_battery(self):
        # Restricting to one coin pair leaves a sequence typical for the
        # conditional law (the finite-scale face of closure under
        # conditioning).
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 100_000, seed=42)
        event = coin_event(1, 1)
        report = run_battery(condition_seq(world, event), fps.condition(event))
        assert report.all_pass

    def test_deterministic(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 50_000, seed=9)
        r1 = run_battery(world, fps, (1, 2))
        r2 = run_battery(world, fps, (1, 2))
        assert r1 == r2

    def test_requires_block_lengths(self):
        world = sample_world(fair_coin(), 100, seed=1)
        with pytest.raises(ValueError, match="block length"):
            run_battery(world, fair_coin(), ())

    def test_repeated_block_length_is_refused_before_counting(self, monkeypatch):
        # Counted twice, k = 1 would scale every adjusted p-value for a family of three.
        world = sample_world(fair_coin(), 1000, seed=1)
        monkeypatch.setattr(WorldPrefix, "counts", lambda *args: pytest.fail("counted"))
        with pytest.raises(ValueError, match=r"^block_lens must be one or more distinct .*\(1, 1\)$"):
            run_battery(world, fair_coin(), (1, 1))

    def test_report_dict_shape(self):
        world = sample_world(fair_coin(), 1000, seed=4)
        report = run_battery(world, fair_coin(), (1, 2))
        d = report.to_dict()
        assert d["total"] == 2
        assert {t["block_len"] for t in d["tests"]} == {1, 2}
        # The tests are one Holm family, each decided by its adjusted p-value.
        assert all(t["adjusted_p_value"] >= t["p_value"] for t in d["tests"])
        assert report.tests == holm_family(
            [block_frequency_test(world, fair_coin(), k) for k in (1, 2)], DEFAULT_SIGNIFICANCE
        )
        assert isinstance(report, BatteryReport)


def _with_p_values(*p_values):
    test = frequency_test(np.array([5, 5]), np.array([0.5, 0.5]))
    return [test._replace(p_value=p) for p in p_values]


class TestHolmFamily:
    def test_adjusted_p_values_step_down(self):
        # Sorted: 0.001, 0.01, 0.02, 0.5, scaled by 4, 3, 2, 1 and made non-decreasing.
        tests = holm_family(_with_p_values(0.02, 0.001, 0.5, 0.01), 0.05)
        adjusted = [t.adjusted_p_value for t in tests]
        assert adjusted == pytest.approx([0.04, 0.004, 0.5, 0.03], rel=1e-15)
        assert [t.passed for t in tests] == [False, False, True, False]
        assert all(t.significance == 0.05 for t in tests)
        assert [t.check.value for t in tests] == adjusted

    def test_running_maximum_and_cap_at_one(self):
        # 3 * 0.004 = 0.012 is below the first step's 4 * 0.004 = 0.016.
        tests = holm_family(_with_p_values(0.004, 0.004, 0.3, 0.9), 0.05)
        assert [t.adjusted_p_value for t in tests] == pytest.approx([0.016, 0.016, 0.6, 0.9])
        capped = holm_family(_with_p_values(0.6, 0.7), 0.05)
        assert [t.adjusted_p_value for t in capped] == [1.0, 1.0]

    def test_order_of_the_tests_does_not_matter(self):
        p_values = [0.03, 0.001, 0.03, 0.2, 1e-9]
        forward = holm_family(_with_p_values(*p_values), 0.01)
        backward = holm_family(_with_p_values(*reversed(p_values)), 0.01)
        assert forward == tuple(reversed(backward))

    def test_a_single_test_keeps_its_p_value(self):
        (test,) = holm_family(_with_p_values(0.25), 0.1)
        assert test.adjusted_p_value == 0.25
        assert test.to_dict()["adjusted_p_value"] == 0.25


class TestFrequencyTest:
    def test_is_the_block_test_of_a_worlds_counts(self):
        fps = chsh_distribution("analytic")
        world = sample_world(fps, 50_000, seed=3)
        for k in (1, 2):
            cell_probs = fps.weights if k == 1 else np.kron(fps.weights, fps.weights)
            expected = block_frequency_test(world, fps, k, 0.05)
            assert frequency_test(world.counts(k), cell_probs, k, 0.05) == expected

    def test_is_a_family_of_one(self):
        test = frequency_test(np.array([30, 70]), np.array([0.5, 0.5]))
        assert test.adjusted_p_value == test.p_value < test.significance
        assert holm_family([test], test.significance) == (test,)
        assert test.check.value == test.p_value and not test.passed

    def test_no_blocks_decide_nothing(self):
        # No 0/0: a row without rounds, with or without zero cells, passes.
        for cell_probs in ([0.25] * 4, [0.5, 0.0, 0.5, 0.0]):
            test = frequency_test(np.zeros(4, dtype=np.int64), np.array(cell_probs))
            assert (test.statistic, test.p_value, test.adjusted_p_value) == (0.0, 1.0, 1.0)
            assert (test.n_blocks, test.zero_cell_hits) == (0, 0) and test.passed
