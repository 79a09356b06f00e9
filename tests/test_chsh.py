"""Tests for the CHSH protocol: operators, distribution, runs and the local bound."""

import itertools
import math

import numpy as np
import pytest

from typicality_lab.chsh import (
    CHSH,
    CHSH_OUTCOMES,
    MIN_TRIALS,
    RQST_TUPLES,
    S_TARGET,
    ChshOutcome,
    build_chsh_operators,
    chsh_distribution,
    coin_event,
    lhv_chsh_averages,
    lhv_chsh_simulate,
    lhv_sweep,
    random_h_spaces,
    run_chsh,
)
from typicality_lab.linalg import ATOL, check_completeness, dag
from typicality_lab.spaces import FiniteProbabilitySpace, point_mass, uniform

SQRT2 = math.sqrt(2.0)


class TestOperators:
    def test_sixteen_elements_on_dim_sixteen(self):
        mset = build_chsh_operators()
        assert len(mset) == 16
        assert mset.dim == 16
        assert set(mset.labels) == set(CHSH_OUTCOMES)

    def test_completeness(self):
        assert check_completeness(build_chsh_operators()) <= ATOL

    def test_elements_are_projectors(self):
        for _, op in build_chsh_operators():
            assert np.abs(op @ op - op).max() <= ATOL
            assert np.abs(op - dag(op)).max() <= ATOL


class TestDistribution:
    def test_known_entries(self):
        fps = chsh_distribution("analytic")
        assert fps.prob(ChshOutcome(0, 0, 1, 1)) == pytest.approx(
            (1 + 1 / SQRT2) / 16, abs=1e-15
        )
        # Decimal value of (1 + 1/sqrt(2)) / 16.
        assert fps.prob(ChshOutcome(0, 0, 1, 1)) == pytest.approx(
            0.10669417382415922, abs=1e-15
        )
        assert fps.prob(ChshOutcome(1, 1, 1, 1)) == pytest.approx(
            (1 - 1 / SQRT2) / 16, abs=1e-15
        )

    def test_coin_pairs_have_quarter_mass(self):
        fps = chsh_distribution("analytic")
        for c, d in itertools.product((0, 1), (0, 1)):
            assert fps.event_prob(coin_event(c, d)) == pytest.approx(0.25, abs=1e-12)

    def test_analytic_matches_linear_algebra(self):
        analytic = chsh_distribution("analytic")
        operator = chsh_distribution("linear_algebra")
        assert analytic.alphabet == operator.alphabet
        assert float(np.abs(analytic.weights - operator.weights).max()) <= 1e-12

    def test_coin_marginal_is_uniform(self):
        fps = chsh_distribution("analytic")
        regrouped = FiniteProbabilitySpace(
            [((o.c, o.d), (o.m, o.n)) for o in CHSH_OUTCOMES], fps.weights
        )
        left = regrouped.marginal("left")
        np.testing.assert_allclose(left.weights, 0.25, atol=1e-12)

    def test_weights_sum_to_one(self):
        for method in ("analytic", "linear_algebra"):
            assert float(chsh_distribution(method).weights.sum()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            chsh_distribution("symbolic")

    def test_initial_state_is_unit(self):
        psi = CHSH.initial_state()
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_averages_converge(self):
        report = run_chsh(60_000, seed=314)
        for name, target in [
            ("rs", 1 / SQRT2),
            ("qs", 1 / SQRT2),
            ("rt", 1 / SQRT2),
            ("qt", -1 / SQRT2),
        ]:
            value = report.averages[name]
            assert abs(value - target) <= report.tolerances[name]

    def test_s_value_identity_is_exact(self):
        report = run_chsh(10_000, seed=5)
        a = report.averages
        assert report.s_value == a["rs"] + a["qs"] + a["rt"] - a["qt"]

    def test_s_value_near_target(self):
        report = run_chsh(200_000, seed=42)
        assert abs(report.s_value - S_TARGET) <= report.tolerances["s_value"]

    def test_counts_and_errors_recorded(self):
        report = run_chsh(20_000, seed=8)
        assert sum(report.counts.values()) == 20_000
        assert set(report.std_errors) == {"rs", "qs", "rt", "qt"}
        assert all(err > 0 for err in report.std_errors.values())

    def test_batteries_pass_for_fixed_seed(self):
        report = run_chsh(200_000, seed=42)
        assert set(report.batteries) == {"00", "01", "10", "11"}
        assert all(b.all_pass for b in report.batteries.values())

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError, match=str(MIN_TRIALS)):
            run_chsh(MIN_TRIALS - 1, seed=1)

    def test_reproducible(self):
        r1 = run_chsh(10_000, seed=99)
        r2 = run_chsh(10_000, seed=99)
        assert r1.averages == r2.averages

    def test_threads_do_not_change_averages(self):
        r1 = run_chsh(30_000, seed=4, threads=1)
        r4 = run_chsh(30_000, seed=4, threads=4)
        assert r1.averages == r4.averages


class TestLhvExact:
    def test_point_mass_all_plus(self):
        h = point_mass(RQST_TUPLES, (1, 1, 1, 1))
        report = lhv_chsh_averages(h)
        assert report.averages == {"rs": 1.0, "qs": 1.0, "rt": 1.0, "qt": 1.0}
        assert report.s_value == 2.0

    def test_uniform_h_vanishes(self):
        report = lhv_chsh_averages(uniform(RQST_TUPLES))
        for value in report.averages.values():
            assert value == pytest.approx(0.0, abs=1e-15)
        assert report.s_value == pytest.approx(0.0, abs=1e-15)

    def test_all_vertices_give_plus_minus_two(self):
        values = set()
        for x in RQST_TUPLES:
            s = lhv_chsh_averages(point_mass(RQST_TUPLES, x)).s_value
            values.add(s)
            assert abs(abs(s) - 2.0) <= 1e-12
        assert values == {2.0, -2.0}

    def test_thousand_random_h_respect_bound(self):
        for h in random_h_spaces(1000, seed=3):
            assert abs(lhv_chsh_averages(h).s_value) <= 2.0 + 1e-12

    def test_malformed_h_rejected(self):
        with pytest.raises(ValueError, match="16 value tuples"):
            lhv_chsh_averages(uniform([(1, 1), (1, -1)]))


class TestLhvSimulate:
    def test_point_mass_is_exact_from_the_start(self):
        h = point_mass(RQST_TUPLES, (1, -1, -1, 1))
        report = lhv_chsh_simulate(h, trials=500, seed=21)
        assert report.averages == report.exact.averages
        assert report.s_value == report.exact.s_value

    def test_uniform_h_stays_near_zero(self):
        report = lhv_chsh_simulate(uniform(RQST_TUPLES), trials=100_000, seed=6)
        assert abs(report.s_value) <= 0.05

    def test_random_h_within_tolerance_of_exact(self):
        h = random_h_spaces(1, seed=44)[0]
        report = lhv_chsh_simulate(h, trials=50_000, seed=45)
        for name, value in report.averages.items():
            assert abs(value - report.exact.averages[name]) <= report.tolerances[name]

    def test_bound_holds_with_tolerance(self):
        h = random_h_spaces(1, seed=90)[0]
        report = lhv_chsh_simulate(h, trials=50_000, seed=91)
        slack = report.tolerances["rs"] + report.tolerances["qs"] + \
            report.tolerances["rt"] + report.tolerances["qt"]
        assert report.s_value <= 2.0 + slack

    def test_counts_recorded(self):
        report = lhv_chsh_simulate(uniform(RQST_TUPLES), trials=8000, seed=2)
        assert sum(report.counts.values()) == 8000


class TestSweep:
    def test_sweep_respects_bound(self):
        sweep = lhv_sweep(1000, seed=3)
        assert sweep.bound_ok
        assert sweep.max_s_value <= 2.0 + 1e-12

    def test_vertex_maximum_is_exactly_two(self):
        sweep = lhv_sweep(0, seed=1)
        assert abs(sweep.vertex_max_s_value - 2.0) <= 1e-12

    def test_deterministic_in_seed(self):
        assert lhv_sweep(50, seed=7).max_s_value == lhv_sweep(50, seed=7).max_s_value
