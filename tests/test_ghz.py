"""Tests for the GHZ protocol: operators, distribution, perfect correlations, impossibility."""

import itertools

import numpy as np
import pytest

from typicality_lab.ghz import (
    GHZ,
    CONSTRAINTS,
    GHZ_OUTCOMES,
    LHV_ASSIGNMENTS,
    MIN_TRIALS,
    GhzOutcome,
    LhvAssignment,
    build_ghz_operators,
    coin_event,
    ghz_distribution,
    lhv_ghz_enumerate,
    lhv_ghz_feasibility,
    run_ghz,
)
from typicality_lab.linalg import ATOL, check_completeness, dag
from typicality_lab.spaces import FiniteProbabilitySpace, point_mass, uniform
from typicality_lab.worlds import empirical, sample_world


class TestOperators:
    def test_sixty_four_elements_on_dim_sixty_four(self):
        mset = build_ghz_operators()
        assert len(mset) == 64
        assert mset.dim == 64
        assert set(mset.labels) == set(GHZ_OUTCOMES)

    def test_completeness(self):
        assert check_completeness(build_ghz_operators()) <= ATOL

    def test_elements_are_projectors(self):
        for _, op in build_ghz_operators():
            assert np.abs(op @ op - op).max() <= ATOL
            assert np.abs(op - dag(op)).max() <= ATOL

    def test_coin_one_operators_are_genuinely_complex(self):
        # The Y observable forces complex entries; a real-only path would
        # silently produce a different (wrong) distribution.
        mset = build_ghz_operators()
        op = mset.operator_for(GhzOutcome(1, 1, 1, 1, 1, 1))
        assert np.abs(op.imag).max() > 0.1


class TestDistribution:
    def test_structural_zero_is_exact(self):
        fps = ghz_distribution("analytic")
        assert fps.prob(GhzOutcome(0, 0, 0, 1, 1, 1)) == 0.0

    def test_known_positive_entry(self):
        fps = ghz_distribution("analytic")
        assert fps.prob(GhzOutcome(0, 1, 1, 1, 1, 1)) == pytest.approx(1 / 32, abs=1e-15)

    def test_sixteen_structural_zeros(self):
        fps = ghz_distribution("analytic")
        zeros = [o for o in GHZ_OUTCOMES if fps.prob(o) == 0.0]
        assert len(zeros) == 16
        for o in zeros:
            coin_sum = o.c1 + o.c2 + o.c3
            product = o.m1 * o.m2 * o.m3
            assert (coin_sum, product) in {(0, 1), (2, -1)}

    def test_coin_triples_have_eighth_mass(self):
        fps = ghz_distribution("analytic")
        for coins in itertools.product((0, 1), repeat=3):
            assert fps.event_prob(coin_event(*coins)) == pytest.approx(0.125, abs=1e-12)

    def test_analytic_matches_linear_algebra(self):
        analytic = ghz_distribution("analytic")
        operator = ghz_distribution("linear_algebra")
        assert analytic.alphabet == operator.alphabet
        assert float(np.abs(analytic.weights - operator.weights).max()) <= 1e-12

    def test_coin_marginal_is_uniform(self):
        fps = ghz_distribution("analytic")
        regrouped = FiniteProbabilitySpace(
            [((o.c1, o.c2, o.c3), (o.m1, o.m2, o.m3)) for o in GHZ_OUTCOMES],
            fps.weights,
        )
        np.testing.assert_allclose(regrouped.marginal("left").weights, 0.125, atol=1e-12)

    def test_initial_state_is_unit(self):
        assert np.linalg.norm(GHZ.initial_state()) == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_perfect_correlations_hold(self):
        report = run_ghz(50_000, seed=7)
        for triple, entry in report.constrained.items():
            required = -1 if triple == "000" else 1
            assert entry["required_product"] == required
            assert entry["violations"] == 0
            assert entry["count"] > 0

    def test_free_triples_hover_near_zero(self):
        report = run_ghz(100_000, seed=7)
        assert set(report.free) == {"001", "010", "100", "111"}
        for entry in report.free.values():
            assert abs(entry["mean_product"]) <= entry["tolerance"]

    def test_structural_zeros_never_sampled(self):
        fps = ghz_distribution("analytic")
        world = sample_world(fps, 200_000, seed=99)
        stats = empirical(world)
        for outcome in GHZ_OUTCOMES:
            if fps.prob(outcome) == 0.0:
                assert stats.counts[outcome] == 0

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError, match=str(MIN_TRIALS)):
            run_ghz(MIN_TRIALS - 1, seed=1)

    def test_threads_do_not_change_report(self):
        r1 = run_ghz(30_000, seed=3, threads=1)
        r4 = run_ghz(30_000, seed=3, threads=4)
        assert r1.to_dict() == r4.to_dict()


class TestConstraints:
    def test_violations_are_the_structural_zeros(self):
        zeros = {
            o for o, w in zip(GHZ_OUTCOMES, ghz_distribution("analytic").weights) if w == 0.0
        }
        violations = set()
        for o in GHZ_OUTCOMES:
            key = f"{o.c1}{o.c2}{o.c3}"
            if key in CONSTRAINTS and o.m1 * o.m2 * o.m3 != CONSTRAINTS[key][1]:
                violations.add(o)
        assert zeros == violations

    def test_coordinates_follow_the_coins(self):
        # Party k's value on coin c is coordinate 2*k + c of an assignment.
        for key, (coords, _) in CONSTRAINTS.items():
            assert coords == tuple(2 * k + int(c) for k, c in enumerate(key))
        for k, c in itertools.product(range(3), (0, 1)):
            assert LhvAssignment._fields[2 * k + c] == f"m{k + 1}_{c}"


class TestEnumeration:
    def test_no_assignment_satisfies_all_constraints(self):
        assert lhv_ghz_enumerate().satisfying_count == 0

    def test_plus_constraints_alone_admit_eight(self):
        # Brute-force oracle, written independently of the enumerator.
        count = 0
        for x in itertools.product((1, -1), repeat=6):
            m10, m11, m20, m21, m30, m31 = x
            if m10 * m21 * m31 == 1 and m11 * m20 * m31 == 1 and m11 * m21 * m30 == 1:
                count += 1
        assert count == 8
        assert lhv_ghz_enumerate().plus_only_count == 8

    def test_each_constraint_alone_admits_half(self):
        result = lhv_ghz_enumerate()
        assert result.per_constraint_counts == {
            "011": 32,
            "101": 32,
            "110": 32,
            "000": 32,
        }

    def test_all_plus_assignment_fails_the_000_constraint(self):
        all_plus = LhvAssignment(1, 1, 1, 1, 1, 1)
        witness = dict(lhv_ghz_enumerate().witnesses)
        assert witness[all_plus] == "000"

    def test_witness_table_covers_every_assignment(self):
        result = lhv_ghz_enumerate()
        assert len(result.witnesses) == 64
        named = {assignment for assignment, _ in result.witnesses}
        assert named == set(LHV_ASSIGNMENTS)
        for assignment, name in result.witnesses:
            coords, required = CONSTRAINTS[name]
            prod = assignment[coords[0]] * assignment[coords[1]] * assignment[coords[2]]
            assert prod != required

    def test_runtime_is_tiny(self):
        import time

        start = time.perf_counter()
        lhv_ghz_enumerate()
        assert time.perf_counter() - start < 0.01


class TestFeasibility:
    def test_uniform_distribution_violates_each_constraint_half_the_time(self):
        report = lhv_ghz_feasibility(uniform(LHV_ASSIGNMENTS))
        for mass in report.violation_mass.values():
            assert mass == pytest.approx(0.5, abs=1e-12)
        assert not report.feasible

    def test_plus_only_support_fails_the_000_constraint_fully(self):
        plus_only = [
            x
            for x in LHV_ASSIGNMENTS
            if x.m1_0 * x.m2_1 * x.m3_1 == 1
            and x.m1_1 * x.m2_0 * x.m3_1 == 1
            and x.m1_1 * x.m2_1 * x.m3_0 == 1
        ]
        assert len(plus_only) == 8
        weights = [1 / 8 if x in plus_only else 0.0 for x in LHV_ASSIGNMENTS]
        p = FiniteProbabilitySpace(LHV_ASSIGNMENTS, weights)
        report = lhv_ghz_feasibility(p)
        assert report.violation_mass["000"] == pytest.approx(1.0, abs=1e-12)
        assert report.violation_mass["011"] == 0.0

    def test_every_distribution_is_infeasible(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            raw = rng.random(64)
            p = FiniteProbabilitySpace(LHV_ASSIGNMENTS, raw / raw.sum())
            report = lhv_ghz_feasibility(p)
            assert not report.feasible
            assert report.total_violation_mass >= 1.0 - 1e-9

    def test_point_masses_are_infeasible(self):
        for x in LHV_ASSIGNMENTS:
            report = lhv_ghz_feasibility(point_mass(LHV_ASSIGNMENTS, x))
            assert not report.feasible

    def test_malformed_p_rejected(self):
        with pytest.raises(ValueError, match="64"):
            lhv_ghz_feasibility(uniform([(1, 1), (1, -1)]))
