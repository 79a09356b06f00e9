"""Tests for the protocol record: factored Born weights, their checks, and the runs' use of them."""

import itertools
import json
import math

import numpy as np
import pytest

from typicality_lab import chsh as chsh_mod
from typicality_lab import ghz as ghz_mod
from typicality_lab import linalg
from typicality_lab import protocol as protocol_mod
from typicality_lab import worlds as worlds_mod
from typicality_lab.chsh import CHSH
from typicality_lab.cli import main
from typicality_lab.ghz import GHZ
from typicality_lab.linalg import X, Z, basis, projector
from typicality_lab.spaces import FiniteProbabilitySpace, uniform

#: The cross-check's ``max_abs_diff`` each protocol reports, fixed to the bit.
REPORTED_MAX_ABS_DIFF = {"chsh": 5.551115123125783e-17, "ghz": 2.42861286636753e-17}

PROTOCOLS = {"chsh": CHSH, "ghz": GHZ}

MODULES = {"chsh": chsh_mod, "ghz": ghz_mod}


def _born_weight(factors, psi):
    """``|E psi|^2`` for ``E`` the tensor product of ``factors``, axis ``k`` taking factor ``k``."""
    w = psi
    for axis, f in enumerate(factors):
        w = np.moveaxis(np.tensordot(f, w, axes=(1, axis)), 0, axis)
    return float(np.vdot(w, w).real)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestFactoredBornWeights:
    def test_match_the_dense_operator_set(self, name):
        record = PROTOCOLS[name]
        dense = record.operators().outcome_probabilities(record.initial_state())
        factored = record.distribution("linear_algebra")
        assert factored.alphabet == record.alphabet
        np.testing.assert_allclose(
            factored.weights, [dense[o] for o in record.alphabet], rtol=0, atol=1e-15
        )

    def test_one_batched_product_per_axis(self, name, monkeypatch):
        # The reference applies each outcome's factors to psi on its own;
        # the batched products round differently, within eps / 16, one ulp
        # of the largest weight (CHSH's, about 0.107).
        record = PROTOCOLS[name]
        psi = record.initial_state().reshape((2,) * (2 * record.parties))
        expected = [_born_weight(factors, psi) for _, factors in record._factors()]
        products = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: products.append(1) or einsum(*a, **k))
        got = record.distribution("linear_algebra").weights
        np.testing.assert_allclose(got, expected, rtol=0, atol=np.finfo(float).eps / 16)
        # One product per qubit axis, and one for the squared norms.
        assert len(products) == 2 * record.parties + 1

    def test_reported_cross_check_difference_is_unchanged(self, name):
        record = PROTOCOLS[name]
        diff = record.distribution("analytic").weights - record.distribution("linear_algebra").weights
        assert float(abs(diff).max()) == REPORTED_MAX_ABS_DIFF[name]

    def test_non_involutory_observable_rejected(self, name):
        record = PROTOCOLS[name]
        observables, state = record.arrays()
        bad = record._replace(arrays=lambda: (((X + Z, Z), *observables[1:]), state))
        with pytest.raises(ValueError, match="square to the identity"):
            bad.distribution("linear_algebra")

    def test_incomplete_coin_projectors_rejected(self, name, monkeypatch):
        p0 = projector(basis(2, 0))
        monkeypatch.setattr(protocol_mod, "_coin_projectors", lambda: ((0, p0), (1, p0)))
        with pytest.raises(ValueError, match="sum to the identity"):
            PROTOCOLS[name].distribution("linear_algebra")


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_arrays_are_built_once(name):
    record = PROTOCOLS[name]
    assert record.observables is record.observables
    assert record.shared_state is record.shared_state
    assert {record: name}[record._replace()] == name  # plain data: equal records hash alike


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_runs_build_no_dense_operator_set(name, monkeypatch, capsys):
    init = linalg.MeasurementOperatorSet.__init__

    def factor_sets_only(self, elements):
        elements = list(elements)
        if any(np.shape(m)[0] > 2 for _, m in elements):
            raise AssertionError("a dense operator set was built")
        init(self, elements)

    monkeypatch.setattr(linalg.MeasurementOperatorSet, "__init__", factor_sets_only)
    assert main([name, "--trials", "8000", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["cross_check"]["max_abs_diff"] == (
        REPORTED_MAX_ABS_DIFF[name]
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_cross_check_failure_fails_the_run(name, monkeypatch, capsys):
    real = getattr(MODULES[name], f"{name}_distribution")

    def planted(method="analytic"):
        return real(method) if method == "analytic" else uniform(PROTOCOLS[name].alphabet)

    monkeypatch.setattr(MODULES[name], f"{name}_distribution", planted)
    status = main([name, "--trials", "8000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1
    assert report["cross_check"]["pass"] is False
    assert [f["check"] for f in report["failures"]] == ["distribution-cross-check"]


def test_coin_cells():
    assert CHSH.coin_event(1, 0) == tuple(o for o in CHSH.alphabet if (o.c, o.d) == (1, 0))
    for record in (CHSH, GHZ):
        n, kept, floor = record.parties, [], record.min_trials
        counts, cells = record.tally_cells(record.distribution(), floor, 3, 2, kept.append)
        np.testing.assert_array_equal(counts, kept[0].counts())
        assert list(cells) == list(itertools.product((0, 1), repeat=n))
        for coins, cell in cells.items():
            products = [math.prod(o[n:]) for o in kept[0].symbols() if o[:n] == coins]
            assert cell == (len(products), products.count(1))
        with pytest.raises(ValueError, match=f"at least {floor}, got {floor - 1}"):
            record.tally_cells(record.distribution(), floor - 1, 3)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_law_off_the_alphabet_or_its_order_is_refused(name, monkeypatch):
    # Reshaped as the record's rows, a reordered law would put each count
    # under another outcome, and its cell tests would read the same wrong rows.
    record = PROTOCOLS[name]
    fps = record.distribution()
    counts = worlds_mod.tally(fps, record.min_trials, 3)
    reordered = FiniteProbabilitySpace(fps.alphabet[::-1], fps.weights[::-1])
    foreign = uniform(range(len(fps)))

    def drawn(*args, **kwargs):
        raise AssertionError("drew a run of a refused law")

    monkeypatch.setattr(worlds_mod, "tally", drawn)
    for law in (reordered, foreign):
        with pytest.raises(ValueError, match="^the law must be over the protocol's alphabet"):
            record.tally_cells(law, record.min_trials, 3)
        with pytest.raises(ValueError, match="^the law must be over the protocol's alphabet"):
            record.cell_tests(law, counts)
    # The same outcomes in the same order are the record's alphabet, whatever tuple holds them.
    same = FiniteProbabilitySpace(list(fps.alphabet), fps.weights)
    assert record.cell_tests(same, counts) == record.cell_tests(fps, counts)


def _exact_conditional_means(record):
    """Each coin tuple's exact conditional law of the results' product: its mass on +1 and -1."""
    fps = record.distribution("analytic")
    n = record.parties
    laws = {}
    for coins in itertools.product((0, 1), repeat=n):
        cell = fps.condition(record.coin_event(*coins))
        products = [math.prod(o[n:]) for o in cell.alphabet]
        laws[coins] = {
            sign: math.fsum(w for p, w in zip(products, cell.weights) if p == sign)
            for sign in (1, -1)
        }
    return laws


class TestVariancesHeldAsData:
    """The runs hold each cell's variance as a constant; the exact distribution bears them out."""

    def test_chsh_coin_pairs_have_variance_one_half(self):
        report = chsh_mod.run_chsh(chsh_mod.MIN_TRIALS, 5)
        for name, ((c, d), _) in chsh_mod._AVERAGES.items():
            law = _exact_conditional_means(CHSH)[c, d]
            mean = law[1] - law[-1]
            # The run holds Var(m*n) = 1 - 1/2 as the constant 0.5; derived
            # as 1 - mean**2 it would be 0.5000000000000001 and move report bytes.
            assert abs(mean**2 - 0.5) <= math.ulp(0.5)
        assert report.s_tolerance == 4.0 * math.sqrt(sum(0.5 / n for n in report.counts.values()))

    def test_ghz_constraints_are_the_exact_conditional_means(self):
        laws = _exact_conditional_means(GHZ)
        for key, (_, required) in ghz_mod.CONSTRAINTS.items():
            law = laws[tuple(map(int, key))]
            assert law[-required] == 0.0
            assert law[1] - law[-1] == required

    def test_ghz_free_triples_have_mean_zero(self):
        laws = _exact_conditional_means(GHZ)
        free = [coins for coins in laws if "".join(map(str, coins)) not in ghz_mod.CONSTRAINTS]
        assert len(free) == 4
        for coins in free:
            assert laws[coins][1] - laws[coins][-1] == 0.0


class TestTrialsFloorHeldAsData:
    """Each record holds its shortest run, and its module's ``MIN_TRIALS`` is that floor."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_one_thousand_rounds_per_coin_tuple(self, name):
        record = PROTOCOLS[name]
        assert record.min_trials == 1000 * 2**record.parties == MODULES[name].MIN_TRIALS
