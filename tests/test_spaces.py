"""Tests for finite probability spaces, products, conditionals and string measures."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typicality_lab.chsh import CHSH_OUTCOMES, chsh_distribution, coin_event
from typicality_lab.ghz import ghz_distribution
from typicality_lab.ghz import coin_event as ghz_coin_event
from typicality_lab import spaces as spaces_mod
from typicality_lab.spaces import (
    FiniteProbabilitySpace,
    fair_coin,
    point_mass,
    product,
    uniform,
)

SQRT2 = math.sqrt(2.0)


def weights_strategy(size):
    """Normalized non-negative weights with at least one positive entry."""
    return (
        st.lists(st.integers(min_value=0, max_value=50), min_size=size, max_size=size)
        .filter(lambda ws: sum(ws) > 0)
        .map(lambda ws: [w / sum(ws) for w in ws])
    )


class TestConstruction:
    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="non-empty"):
            FiniteProbabilitySpace([], [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteProbabilitySpace(["a", "a"], [0.5, 0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            FiniteProbabilitySpace(["a", "b"], [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteProbabilitySpace(["a", "b"], [0.6, 0.5])

    def test_rejects_nested_weights(self):
        # Sixteen one-element rows match the alphabet size but are not weights.
        with pytest.raises(ValueError, match="flat sequence"):
            FiniteProbabilitySpace(range(16), [[0.0625]] * 16)
        with pytest.raises(ValueError, match="flat sequence"):
            FiniteProbabilitySpace.from_json(
                json.dumps({"alphabet": list(range(16)), "weights": [[0.0625]] * 16})
            )
        # As an array, or a list of one-element arrays, which float() would unwrap.
        with pytest.raises(ValueError, match="flat sequence"):
            FiniteProbabilitySpace(range(16), np.full((16, 1), 0.0625))
        with pytest.raises(ValueError, match="flat sequence"):
            FiniteProbabilitySpace(range(16), [np.array([0.0625])] * 16)
        # A 0-d array or a numpy scalar is one number.
        assert FiniteProbabilitySpace(range(2), [np.array(0.5), np.float64(0.5)]).prob(0) == 0.5

    @pytest.mark.parametrize("weights", [[10**400, 0], [-(10**400), 1]], ids=["above", "below"])
    def test_integer_weights_beyond_the_float_range_are_not_finite(self, weights):
        with pytest.raises(ValueError, match="weights must be finite"):
            FiniteProbabilitySpace([0, 1], weights)

    def test_finite_weights_summing_beyond_the_float_range(self):
        with pytest.raises(ValueError, match=r"sum to 1 within 1e-12, got inf$"):
            FiniteProbabilitySpace([0, 1], [1e308, 1e308])

    def test_zero_weights_allowed(self):
        fps = FiniteProbabilitySpace(["a", "b", "z"], [0.4, 0.6, 0.0])
        assert fps.prob("z") == 0.0

    def test_json_round_trip(self):
        fps = FiniteProbabilitySpace([(0, 1), (1, (1, -1))], [0.25, 0.75])
        again = FiniteProbabilitySpace.from_json(fps.to_json())
        assert again == fps

    def test_from_json_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="alphabet"):
            FiniteProbabilitySpace.from_json(json.dumps({"weights": [1.0]}))

    @pytest.mark.parametrize("alphabet", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
    def test_from_json_alphabet_must_be_a_list(self, alphabet):
        # Iterated, each would read as the alphabet ("a", "b").
        with pytest.raises(ValueError, match="'alphabet' must be a list"):
            FiniteProbabilitySpace.from_json(
                json.dumps({"alphabet": alphabet, "weights": [0.5, 0.5]})
            )

    def test_sum_message_names_the_total(self):
        with pytest.raises(ValueError, match=r"sum to 1 within 1e-12, got 0\.75$"):
            FiniteProbabilitySpace([0, 1], [0.5, 0.25])


#: Edge values of a weight: non-finite, signed zeros, subnormals, and values
#: that put a total near 1 +/- SUM_ATOL.
_EDGE_WEIGHTS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 3 * 5e-324, 2.2250738585072014e-308,
    1e-16, 1e-12, 2e-12, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, -1e-12,
)

#: Two vectors whose totals lie near 1 - SUM_ATOL, where a total summed in
#: another order than fsum's may land on the other side: the constructor
#: refuses the first and accepts the second.
_BAND_REFUSED = (0.5, 0.49999999999899986, 1.1e-16)  # fsum 0.9999999999989999
_BAND_ACCEPTED = (0.3, 0.699999999999, 3e-17)  # fsum 0.999999999999


def _verdict(check, weights):
    """None if ``check`` accepts ``weights``, else the rule its message names."""
    try:
        check(weights)
    except ValueError as err:
        return next(rule for rule in ("finite", "non-negative", "sum to 1") if rule in str(err))
    return None


class TestWeightRule:
    """The constructor's plain-Python rule against the rule on exact totals.

    Non-finite weights are refused first, then negative ones, then a total
    further than ``SUM_ATOL`` from 1.  The constructor's total is
    ``math.fsum``'s, the exact sum correctly rounded, so its verdict may
    differ from that of the exact ``fractions.Fraction`` total only within
    an ulp of ``1 +/- SUM_ATOL``.
    """

    @staticmethod
    def _vectors():
        for size in (1, 2, 3):
            yield from itertools.product(_EDGE_WEIGHTS, repeat=size)
        # Sixteen weights, as a hidden-variable space over the CHSH value tuples has.
        for edge in _EDGE_WEIGHTS:
            for at in (0, 7, 15):
                yield tuple(edge if k == at else 1 / 16 for k in range(16))
        yield from (_BAND_REFUSED, _BAND_ACCEPTED)

    @staticmethod
    def _exact_verdict(weights):
        """The rule that refuses ``weights``, deciding the sum on its exact total, or None."""
        if not all(map(math.isfinite, weights)):
            return "finite"
        if any(w < 0 for w in weights):
            return "non-negative"
        if abs(sum(map(Fraction, weights)) - 1) > Fraction(spaces_mod.SUM_ATOL):
            return "sum to 1"
        return None

    def test_same_verdicts_off_the_bound(self):
        compared = 0
        for w in self._vectors():
            got = _verdict(lambda w: FiniteProbabilitySpace(range(len(w)), w), w)
            exact = self._exact_verdict(w)
            if got != exact:
                off = abs(sum(map(Fraction, w)) - 1) - Fraction(spaces_mod.SUM_ATOL)
                assert abs(off) <= Fraction(math.ulp(1.0)), (w, got, exact)
            compared += 1
        assert compared > 6000

    def test_each_side_of_the_band(self):
        # The fsum total decides either side, and the message names it.
        with pytest.raises(ValueError, match=r"got 0\.9999999999989999$"):
            FiniteProbabilitySpace(range(3), _BAND_REFUSED)
        accepted = FiniteProbabilitySpace(range(3), _BAND_ACCEPTED)
        assert accepted.weights.tolist() == list(_BAND_ACCEPTED)

    def test_weights_are_one_cached_read_only_array(self):
        fps = FiniteProbabilitySpace("abc", [0.25, 0.25, 0.5])
        assert fps.weights is fps.weights
        assert fps.weights.dtype == np.float64
        assert fps.weights.tolist() == [0.25, 0.25, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            fps.weights[0] = 0.5
        assert fps.prob("a") == 0.25

    @pytest.mark.parametrize(
        "weights",
        [
            [None, 1.0], [1j, 1.0], [[0.5], 0.5], 1.0,
            ["0.5", "0.5"], [b"1", b"0"], [True, False], [np.True_, np.False_],
        ],
        ids=["null", "complex", "ragged", "scalar", "text", "bytes", "bool", "numpy-bool"],
    )
    def test_no_number_is_no_flat_sequence(self, weights):
        with pytest.raises(ValueError, match="flat sequence of numbers"):
            FiniteProbabilitySpace([0, 1], weights)


class TestEventProb:
    def test_empty_event(self):
        assert fair_coin().event_prob([]) == 0.0

    def test_chsh_coin_pairs(self):
        fps = chsh_distribution("analytic")
        for c, d in itertools.product((0, 1), (0, 1)):
            assert fps.event_prob(coin_event(c, d)) == pytest.approx(0.25, abs=1e-12)

    def test_ghz_coin_triples(self):
        fps = ghz_distribution("analytic")
        for coins in itertools.product((0, 1), repeat=3):
            assert fps.event_prob(ghz_coin_event(*coins)) == pytest.approx(0.125, abs=1e-12)

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValueError, match="not in the alphabet"):
            fair_coin().event_prob([0, 2])

    @given(weights_strategy(6), st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    @settings(max_examples=60, derandomize=True)
    def test_additive_over_disjoint_events(self, weights, left, right):
        fps = FiniteProbabilitySpace(range(6), weights)
        right = right - left
        union = fps.event_prob(left | right)
        assert union == pytest.approx(fps.event_prob(left) + fps.event_prob(right), abs=1e-12)


class TestProduct:
    def test_two_fair_coins(self):
        joint = product(fair_coin(), fair_coin())
        assert joint.alphabet == tuple(itertools.product((0, 1), (0, 1)))
        np.testing.assert_allclose(joint.weights, 0.25)

    def test_h_times_two_coins(self):
        # Joint weight of ((r,q,s,t), c, d) is H(r,q,s,t)/4.
        rng = np.random.default_rng(8)
        tuples = tuple(itertools.product((1, -1), repeat=4))
        raw = rng.random(16)
        h = FiniteProbabilitySpace(tuples, raw / raw.sum())
        joint = product(h, fair_coin(), fair_coin())
        for x in tuples:
            for c, d in itertools.product((0, 1), (0, 1)):
                assert joint.prob((x, c, d)) == pytest.approx(h.prob(x) / 4, abs=1e-12)

    def test_p_times_three_coins(self):
        # Joint weight of (x, c1, c2, c3) is P(x)/8.
        tuples = tuple(itertools.product((1, -1), repeat=6))
        p = point_mass(tuples, tuples[5])
        joint = product(p, fair_coin(), fair_coin(), fair_coin())
        assert joint.prob((tuples[5], 0, 1, 0)) == pytest.approx(1 / 8, abs=1e-12)
        assert joint.prob((tuples[4], 0, 1, 0)) == 0.0

    def test_size_cap(self):
        big = uniform(range(2000))
        with pytest.raises(ValueError, match="exceeds cap"):
            product(big, big)

    def test_requires_a_space(self):
        with pytest.raises(ValueError):
            product()


class TestCondition:
    def test_chsh_conditional_is_quarter_law(self):
        fps = chsh_distribution("analytic")
        for c, d in itertools.product((0, 1), (0, 1)):
            cond = fps.condition(coin_event(c, d))
            sign = 1 if c * d == 0 else -1
            for outcome in cond.alphabet:
                want = (1 + sign * outcome.m * outcome.n / SQRT2) / 4
                assert cond.prob(outcome) == pytest.approx(want, abs=1e-12)

    def test_uniform_conditioning(self):
        fps = uniform("abcd")
        cond = fps.condition({"a", "c"})
        assert cond.alphabet == ("a", "c")
        np.testing.assert_allclose(cond.weights, 0.5)

    def test_product_conditioned_on_coins_recovers_factor(self):
        rng = np.random.default_rng(13)
        tuples = tuple(itertools.product((1, -1), repeat=4))
        raw = rng.random(16)
        h = FiniteProbabilitySpace(tuples, raw / raw.sum())
        joint = product(h, fair_coin(), fair_coin())
        event = [sym for sym in joint.alphabet if sym[1] == 1 and sym[2] == 0]
        cond = joint.condition(event)
        for x in tuples:
            assert cond.prob((x, 1, 0)) == pytest.approx(h.prob(x), abs=1e-12)

    def test_zero_probability_event_rejected(self):
        fps = FiniteProbabilitySpace(["a", "z"], [1.0, 0.0])
        with pytest.raises(ValueError, match="probability zero"):
            fps.condition(["z"])

    @given(weights_strategy(5), st.sets(st.integers(0, 4), min_size=1))
    @settings(max_examples=60, derandomize=True)
    def test_conditional_sums_to_one(self, weights, event):
        fps = FiniteProbabilitySpace(range(5), weights)
        if fps.event_prob(event) == 0.0:
            return
        cond = fps.condition(event)
        assert float(cond.weights.sum()) == pytest.approx(1.0, abs=1e-12)


class TestMarginal:
    def test_marginal_of_product_is_factor(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n1, n2 = rng.integers(1, 6, size=2)
            w1, w2 = rng.random(n1), rng.random(n2)
            p1 = FiniteProbabilitySpace(range(n1), w1 / w1.sum())
            p2 = FiniteProbabilitySpace([f"s{i}" for i in range(n2)], w2 / w2.sum())
            joint = product(p1, p2)
            left = joint.marginal("left")
            right = joint.marginal("right")
            assert left.alphabet == p1.alphabet
            np.testing.assert_allclose(left.weights, p1.weights, atol=1e-12)
            assert right.alphabet == p2.alphabet
            np.testing.assert_allclose(right.weights, p2.weights, atol=1e-12)

    def test_chsh_regrouped_left_marginal_is_uniform(self):
        fps = chsh_distribution("analytic")
        regrouped = FiniteProbabilitySpace(
            [((o.c, o.d), (o.m, o.n)) for o in CHSH_OUTCOMES], fps.weights
        )
        left = regrouped.marginal("left")
        assert left.alphabet == tuple(itertools.product((0, 1), (0, 1)))
        np.testing.assert_allclose(left.weights, 0.25, atol=1e-12)

    def test_hand_built_joint(self):
        joint = FiniteProbabilitySpace(
            [(0, 0), (0, 1), (1, 0), (1, 1)], [0.1, 0.2, 0.3, 0.4]
        )
        left = joint.marginal("left")
        assert left.alphabet == (0, 1)
        assert left.prob(0) == pytest.approx(0.3, abs=1e-12)
        assert left.prob(1) == pytest.approx(0.7, abs=1e-12)

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            fair_coin().marginal("left")

    def test_marginal_index_on_triples(self):
        joint = product(fair_coin(), uniform("ab"), fair_coin())
        mid = joint.marginal_index(1)
        assert mid.alphabet == ("a", "b")
        np.testing.assert_allclose(mid.weights, 0.5, atol=1e-12)
