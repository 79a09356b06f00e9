"""Tests for the protocol record: factored Born weights, their checks, and the runs' use of them."""

import json

import numpy as np
import pytest

from typicality_lab import chsh as chsh_mod
from typicality_lab import ghz as ghz_mod
from typicality_lab import linalg
from typicality_lab import protocol as protocol_mod
from typicality_lab.chsh import CHSH
from typicality_lab.cli import main
from typicality_lab.ghz import GHZ
from typicality_lab.linalg import X, Z, basis, projector
from typicality_lab.spaces import uniform

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
        bad = record._replace(observables=((X + Z, Z), *record.observables[1:]))
        with pytest.raises(ValueError, match="square to the identity"):
            bad.distribution("linear_algebra")

    def test_incomplete_coin_projectors_rejected(self, name, monkeypatch):
        p0 = projector(basis(2, 0))
        monkeypatch.setattr(protocol_mod, "_COIN_PROJECTORS", ((0, p0), (1, p0)))
        with pytest.raises(ValueError, match="sum to the identity"):
            PROTOCOLS[name].distribution("linear_algebra")


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
    assert CHSH.product_signs(1, 0) == [
        o.m * o.n if (o.c, o.d) == (1, 0) else 0 for o in CHSH.alphabet
    ]
    assert GHZ.product_signs(0, 1, 1) == [
        o.m1 * o.m2 * o.m3 if o[:3] == (0, 1, 1) else 0 for o in GHZ.alphabet
    ]
