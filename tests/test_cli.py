"""Tests for the command-line interface: exit codes, schemas, determinism."""

import contextlib
import errno
import gc
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from typicality_lab import __main__ as entry_mod
from typicality_lab import battery as battery_mod
from typicality_lab import chsh as chsh_mod
from typicality_lab import cli as cli_mod
from typicality_lab import ghz as ghz_mod
from typicality_lab import worlds as worlds_mod
from typicality_lab.checks import Check
from typicality_lab.chsh import CHSH, RQST_TUPLES, chsh_distribution
from typicality_lab.cli import main
from typicality_lab.ghz import GhzOutcome, ghz_distribution
from typicality_lab.linalg import ATOL
from typicality_lab.spaces import SUM_ATOL, FiniteProbabilitySpace, fair_coin, point_mass, uniform
from typicality_lab.worlds import WorldPrefix, sample_world


#: A space, also readable as a world, whose one symbol parses as JSON but
#: is nested too deeply to decode into a tuple within the recursion limit.
DEEP_SYMBOL_SPACE = (
    '{"alphabet": [' + "[" * 900 + "0" + "]" * 900 + '], "weights": [1.0], "indices": [0]}'
)

#: A space whose first weight is a JSON integer beyond the float range.
BIG_WEIGHT_SPACE = json.dumps({"alphabet": [0, 1], "weights": [10**400, 0]})

#: A space of finite weights whose sum passes the float range.
HUGE_SUM_SPACE = json.dumps({"alphabet": [0, 1], "weights": [1e308, 1e308]})

#: Spaces with a null and an object among their weights.
NULL_WEIGHT_SPACE = json.dumps({"alphabet": [0, 1], "weights": [None, 1]})
OBJECT_WEIGHT_SPACE = json.dumps({"alphabet": [0, 1], "weights": [{}, 1]})


def _h_at_sum_edge(seed, shift):
    """Random weights on the 16 value tuples, normalized, then ``shift`` added to the first."""
    rng = random.Random(seed)
    raw = [rng.random() for _ in RQST_TUPLES]
    weights = [w / math.fsum(raw) for w in raw]
    weights[0] += shift
    return FiniteProbabilitySpace(RQST_TUPLES, weights).to_json()


#: Hidden-variable files the loader accepts, summing to 1 + 9.9987e-13 and 1 - 9.9998e-13:
#: the farthest floats from 1 within ``SUM_ATOL``.  Their revealed laws' quarter sums, were
#: they not divided by the file's total, would sum past ``SUM_ATOL`` from 1.
H_SUM_ABOVE_SPACE = _h_at_sum_edge(21, 9.999e-13)
H_SUM_BELOW_SPACE = _h_at_sum_edge(453, -9.999e-13)
#: A one-symbol world and its space: the length rule admits every block
#: length up to 64 here, so only the cap refuses 65.
ONE_SYMBOL_WORLD = WorldPrefix([0], np.zeros(640, dtype=np.intp)).to_json()
ONE_SYMBOL_SPACE = point_mass([0], 0).to_json()
#: A valid world whose provenance is a JSON string, not an object.
STRING_PROVENANCE_WORLD = json.dumps({"alphabet": [0, 1], "indices": [0, 1], "provenance": "x"})
#: A world that names its indices twice, as 3 indices and as 4 symbols.
TWO_INDEX_FIELDS_WORLD = json.dumps(
    {"alphabet": [0, 1], "indices": [0, 1, 1], "symbols": [1, 1, 1, 1]}
)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def strict_json(text):
    """``text`` parsed as JSON, refusing the tokens ``NaN``, ``Infinity`` and ``-Infinity``."""

    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def run_json(capsys, argv):
    status, out, err = run_cli(capsys, argv)
    return status, strict_json(out) if out else None, err


class TestChshCommand:
    def test_successful_run(self, capsys):
        status, report, _ = run_json(
            capsys, ["chsh", "--trials", "20000", "--seed", "42"]
        )
        assert status == 0
        assert report["schema"] == 8
        assert report["protocol"] == "chsh"
        assert report["seed"] == 42
        assert report["trials"] == 20000
        assert set(report["averages"]) == {"rs", "qs", "rt", "qt"}
        assert report["cross_check"]["pass"] is True
        assert report["failures"] == []
        assert abs(report["s_value"] - 2 * math.sqrt(2)) < 0.1
        assert [c["name"] for c in report["checks"]] == [
            "distribution-cross-check",
            "s-value",
            *(f"block-frequency-k1-cell-{cd}" for cd in ("00", "01", "10", "11")),
        ]
        for check in report["checks"][2:]:
            test = report["cell_tests"][check["name"][-2:]]
            assert check["value"] == test["adjusted_p_value"] >= test["p_value"]
            assert check["bound"] == test["significance"] == math.erfc(4 / math.sqrt(2))

    def test_failed_cell_test_fails_the_run(self, capsys, monkeypatch):
        # Each coin pair tested against its law with the weights rotated.
        frequency_test = battery_mod.frequency_test

        def rotated(observed, cell_probs, *args):
            return frequency_test(observed, np.roll(cell_probs, 1), *args)

        monkeypatch.setattr(battery_mod, "frequency_test", rotated)
        status, report, _ = run_json(capsys, ["chsh", "--trials", "8000", "--seed", "1"])
        assert status == 1
        assert [f["check"] for f in report["failures"]] == [
            f"block-frequency-k1-cell-{cd}" for cd in ("00", "01", "10", "11")
        ]
        assert not any(t["pass"] for t in report["cell_tests"].values())

    def test_below_minimum_trials_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, ["chsh", "--trials", "10", "--seed", "1"])
        assert status == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "usage"

    def test_deterministic_bytes(self, capsys):
        argv = ["chsh", "--trials", "10000", "--seed", "3"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_threads_do_not_change_bytes(self, capsys):
        base = ["chsh", "--trials", "20000", "--seed", "3"]
        _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
        _, out4, _ = run_cli(capsys, base + ["--threads", "4"])
        assert out1 == out4

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1", "0.5"])
    def test_tolerance_is_refused(self, capsys, tolerance):
        # The s-value band is the 4-sigma one, whose false-alarm rate the report states.
        status, out, err = run_cli(
            capsys,
            ["chsh", "--trials", "8000", "--seed", "2", f"--tolerance={tolerance}"],
        )
        assert_usage_error(status, out, err, "chsh does not use --tolerance")

    def test_seed_random_prints_seed(self, capsys):
        status, out, err = run_cli(capsys, ["chsh", "--trials", "8000", "--seed", "random"])
        assert status == 0
        assert err.startswith("seed: ")
        reported = json.loads(out)["seed"]
        assert reported == int(err.split(":")[1])

    def test_seed_is_required(self, capsys):
        status, out, err = run_cli(capsys, ["chsh", "--trials", "8000"])
        assert_usage_error(status, out, err, "--seed")

    def test_world_out(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        run_cli(
            capsys,
            ["chsh", "--trials", "8000", "--seed", "5", "--world-out", str(world_path)],
        )
        world = WorldPrefix.from_json(world_path.read_text())
        assert len(world) == 8000
        assert world == sample_world(chsh_distribution("analytic"), 8000, 5)


class TestGhzCommand:
    def test_successful_run(self, capsys):
        status, report, _ = run_json(capsys, ["ghz", "--trials", "20000", "--seed", "7"])
        assert status == 0
        assert report["protocol"] == "ghz"
        # The hidden-value enumeration is reported by ``lhv ghz`` alone.
        assert "lhv" not in report
        assert [c["name"] for c in report["checks"]] == [
            "distribution-cross-check",
            "perfect-correlations",
            *(f"block-frequency-k1-cell-{c:03b}" for c in range(8)),
        ]
        for entry in report["perfect_correlation"].values():
            assert entry["violations"] == 0
        assert report["failures"] == []

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["ghz", "--trials", "10000", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_below_minimum_trials_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, ["ghz", "--trials", "500", "--seed", "1"])
        assert status == 2
        assert "8000" in json.loads(err)["error"]["message"]


class TestLhvCommand:
    @pytest.mark.parametrize("text", [H_SUM_ABOVE_SPACE, H_SUM_BELOW_SPACE], ids=["above", "below"])
    def test_the_sum_edge_files_sit_at_the_tolerance(self, text):
        h = FiniteProbabilitySpace.from_json(text)
        total = math.fsum(h.weights)
        outward = math.nextafter(total, 2 * total - 1)
        assert abs(total - 1) <= SUM_ATOL < abs(outward - 1)
        # Quarter sums of the revealed law, not divided by the file's total.
        quarters = [
            0.25 * math.fsum(h.prob(x) for x in RQST_TUPLES if (x[o.c], x[2 + o.d]) == o[2:])
            for o in CHSH.alphabet
        ]
        with pytest.raises(ValueError, match="^weights must sum to 1 within"):
            FiniteProbabilitySpace(CHSH.alphabet, quarters)

    def test_uniform_h_file_gives_zero_s(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform(RQST_TUPLES).to_json())
        status, report, _ = run_json(
            capsys, ["lhv", "chsh", "--h-file", str(h_path)]
        )
        assert status == 0
        assert report["protocol"] == "lhv-chsh"
        assert report["method"] == "lhv-exact"
        assert abs(report["s_value"]) < 1e-12

    def test_h_file_with_trials_simulates(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform(RQST_TUPLES).to_json())
        status, report, _ = run_json(
            capsys,
            ["lhv", "chsh", "--h-file", str(h_path), "--trials", "20000", "--seed", "4"],
        )
        assert status == 0
        assert report["method"] == "lhv-simulated"
        assert report["exact"]["method"] == "lhv-exact"
        assert abs(report["s_value"]) < 0.2
        assert [c["name"] for c in report["checks"]] == ["chsh-bound", "s-value"]
        assert report["s_target"] == report["exact"]["s_value"]

    @pytest.mark.parametrize("extra", [[], ["--trials", "4000", "--seed", "4"]])
    def test_exact_averages_are_computed_once(self, capsys, tmp_path, monkeypatch, extra):
        calls = []
        averages = chsh_mod.lhv_chsh_averages

        def counting(h):
            calls.append(h)
            return averages(h)

        monkeypatch.setattr(chsh_mod, "lhv_chsh_averages", counting)
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform(RQST_TUPLES).to_json())
        status, _, _ = run_json(capsys, ["lhv", "chsh", "--h-file", str(h_path)] + extra)
        assert status == 0
        assert len(calls) == 1

    def test_sweep_respects_bound(self, capsys):
        status, report, _ = run_json(
            capsys, ["lhv", "chsh", "--sweep", "1000", "--seed", "3"]
        )
        assert status == 0
        assert report["sweep"]["max_s_value"] <= 2 + 1e-12
        assert report["sweep"]["bound_ok"] is True

    @pytest.mark.parametrize("source", ["sweep", "vertex"])
    def test_one_local_bound_decides_both_checks(self, capsys, tmp_path, monkeypatch, source):
        # Every sweep takes the vertices, and the vertex below has s = 2, so a
        # bound of 1.5 must fail both the sweep and the --h-file check.
        monkeypatch.setattr(chsh_mod, "LOCAL_BOUND", 1.5)
        if source == "sweep":
            argv = ["lhv", "chsh", "--sweep", "10", "--seed", "1"]
        else:
            h_path = tmp_path / "h.json"
            h_path.write_text(point_mass(RQST_TUPLES, (1, 1, 1, -1)).to_json())
            argv = ["lhv", "chsh", "--h-file", str(h_path)]
        status, report, _ = run_json(capsys, argv)
        assert status == 1
        assert [f["check"] for f in report["failures"]] == ["chsh-bound"]

    def test_negative_sweep_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, ["lhv", "chsh", "--sweep", "-5", "--seed", "1"])
        assert status == 2
        assert out == ""
        assert "--sweep" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("trials", ["2", "0", "3999"])
    def test_h_file_trials_below_minimum_is_usage_error(self, capsys, tmp_path, trials):
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform(RQST_TUPLES).to_json())
        status, out, err = run_cli(
            capsys,
            ["lhv", "chsh", "--h-file", str(h_path), "--trials", trials, "--seed", "4"],
        )
        assert status == 2
        assert out == ""
        assert "4000" in json.loads(err)["error"]["message"]

    def test_sweep_requires_seed(self, capsys):
        status, _, err = run_cli(capsys, ["lhv", "chsh", "--sweep", "10"])
        assert status == 2
        assert "--seed" in json.loads(err)["error"]["message"]

    def test_chsh_requires_input_choice(self, capsys):
        status, _, err = run_cli(capsys, ["lhv", "chsh"])
        assert status == 2
        assert "--h-file or --sweep" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("seed", [["--seed", "random"], []], ids=["random", "none"])
    def test_missing_input_is_reported_before_the_seed(self, capsys, seed):
        status, out, err = run_cli(capsys, ["lhv", "chsh", "--trials", "5000", *seed])
        assert len(err.splitlines()) == 1
        assert_usage_error(status, out, err, "--h-file or --sweep")

    def test_malformed_h_file_names_the_problem(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(json.dumps({"alphabet": [[1, 1, 1, 1]], "weights": [0.5]}))
        status, _, err = run_cli(capsys, ["lhv", "chsh", "--h-file", str(h_path)])
        assert status == 2
        message = json.loads(err)["error"]["message"]
        assert "sum to 1" in message

    def test_nested_weights_h_file_is_usage_error(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        alphabet = [list(x) for x in RQST_TUPLES]
        h_path.write_text(json.dumps({"alphabet": alphabet, "weights": [[0.0625]] * 16}))
        for extra in ([], ["--trials", "20000", "--seed", "1"]):
            status, out, err = run_cli(
                capsys, ["lhv", "chsh", "--h-file", str(h_path)] + extra
            )
            assert status == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "usage"
            assert "flat sequence" in error["message"]

    @pytest.mark.parametrize(
        "text", [None, "", "{", '{"alphabet": [0, 1], "weights": [0.5, 0.5]}']
    )
    def test_bad_h_file_prints_no_drawn_seed(self, capsys, tmp_path, text):
        # The file is read and checked before a random seed is drawn, so the
        # usage error is the only line on stderr.
        h_path = tmp_path / "h.json"
        if text is not None:
            h_path.write_text(text)
        argv = ["lhv", "chsh", "--h-file", str(h_path), "--trials", "4000", "--seed", "random"]
        status, out, err = run_cli(capsys, argv)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["code"] == "usage"

    def test_wrong_alphabet_h_file(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform((0, 1)).to_json())
        status, _, err = run_cli(capsys, ["lhv", "chsh", "--h-file", str(h_path)])
        assert status == 2
        assert "16 value tuples" in json.loads(err)["error"]["message"]

    def test_ghz_reports_infeasibility(self, capsys):
        status, report, _ = run_json(capsys, ["lhv", "ghz"])
        assert status == 0
        assert report["protocol"] == "lhv-ghz"
        assert report["lhv"]["satisfying_count"] == 0
        assert report["lhv"]["plus_only_count"] == 8
        assert len(report["lhv"]["witnesses"]) == 64
        assert report["failures"] == []

    def test_ghz_with_p_file_reports_masses(self, capsys, tmp_path):
        from typicality_lab.ghz import LHV_ASSIGNMENTS

        p_path = tmp_path / "p.json"
        p_path.write_text(uniform(LHV_ASSIGNMENTS).to_json())
        status, report, _ = run_json(capsys, ["lhv", "ghz", "--h-file", str(p_path)])
        assert status == 0
        assert report["feasibility"]["feasible"] is False
        assert report["feasibility"]["total_violation_mass"] >= 1.0 - 1e-9


class TestBatteryCommand:
    def test_chsh_world_passes_against_its_own_space(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        run_cli(
            capsys,
            [
                "chsh",
                "--trials",
                "200000",
                "--seed",
                "42",
                "--world-out",
                str(world_path),
            ],
        )
        fps_path.write_text(chsh_distribution("analytic").to_json())
        status, report, _ = run_json(
            capsys, ["battery", str(world_path), str(fps_path)]
        )
        assert status == 0
        assert report["protocol"] == "battery"
        assert report["all_pass"] is True

    def test_constant_world_fails_against_fair_coin(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world = WorldPrefix.from_symbols((0, 1), [0] * 1000)
        world_path.write_text(world.to_json())
        fps_path.write_text(fair_coin().to_json())
        status, report, _ = run_json(
            capsys, ["battery", str(world_path), str(fps_path), "--blocks", "1,2"]
        )
        assert status == 1
        assert report["all_pass"] is False
        assert len(report["failures"]) == 2

    def test_zero_weight_hit_writes_a_null_statistic(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text(WorldPrefix.from_symbols((0, 1), [0] * 100 + [1] * 5).to_json())
        fps_path.write_text(point_mass((0, 1), 0).to_json())
        status, report, _ = run_json(
            capsys, ["battery", str(world_path), str(fps_path), "--blocks", "1"]
        )
        assert status == 1
        (test,) = report["tests"]
        assert (test["statistic"], test["p_value"], test["zero_cell_hits"]) == (None, 0.0, 5)
        assert report["failures"] == [{"check": "block-frequency-k1", "detail": "0.0 < 0.01"}]

    def test_empty_world_file_is_usage_error(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text("")
        fps_path.write_text(fair_coin().to_json())
        status, _, err = run_cli(capsys, ["battery", str(world_path), str(fps_path)])
        assert status == 2
        assert "empty" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("bad", [0.7, 1.9, True, "1"])
    def test_non_integer_world_indices_are_usage_error(self, capsys, tmp_path, bad):
        # Casting would replay a different world from the one in the file.
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        indices = sample_world(fair_coin(), 5000, seed=8).indices.tolist()
        indices[17] = bad
        world_path.write_text(json.dumps({"alphabet": [0, 1], "indices": indices}))
        fps_path.write_text(fair_coin().to_json())
        status, out, err = run_cli(capsys, ["battery", str(world_path), str(fps_path)])
        assert status == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "usage"
        assert "must be integers" in error["message"]

    def test_alphabet_mismatch_is_usage_error(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text(WorldPrefix.from_symbols("ab", ["a"] * 500).to_json())
        fps_path.write_text(fair_coin().to_json())
        status, _, err = run_cli(capsys, ["battery", str(world_path), str(fps_path)])
        assert status == 2
        assert "alphabets differ" in json.loads(err)["error"]["message"]

    def test_significance_override(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        fps_path.write_text(fair_coin().to_json())
        status, report, _ = run_json(
            capsys,
            ["battery", str(world_path), str(fps_path), "--tolerance", "0.2"],
        )
        assert report["significance"] == 0.2
        assert all(t["significance"] == 0.2 for t in report["tests"])

    def test_bad_blocks_flag(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        fps_path.write_text(fair_coin().to_json())
        status, _, err = run_cli(
            capsys,
            ["battery", str(world_path), str(fps_path), "--blocks", "1,x"],
        )
        assert status == 2


def assert_usage_error(status, out, err, fragment):
    assert status == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "usage"
    assert fragment in error["message"]


class TestWorldOutSamplesOnce:
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        tally = worlds_mod.tally

        def counting(*args, **kwargs):
            calls.append(args)
            return tally(*args, **kwargs)

        monkeypatch.setattr(worlds_mod, "tally", counting)
        return calls

    @pytest.mark.parametrize(
        "command, fps", [("chsh", chsh_distribution()), ("ghz", ghz_distribution())]
    )
    def test_one_draw_writes_the_run_world(self, capsys, tmp_path, draws, command, fps):
        world_path = tmp_path / "world.json"
        argv = [command, "--trials", "8000", "--seed", "5", "--world-out", str(world_path)]
        status, _, _ = run_cli(capsys, argv)
        assert status == 0
        assert len(draws) == 1
        assert WorldPrefix.from_json(world_path.read_text()) == sample_world(fps, 8000, 5)

    def test_ghz_writes_the_world_of_a_failed_run(self, capsys, tmp_path, monkeypatch):
        forbidden = GhzOutcome(0, 0, 0, 1, 1, 1)

        index = ghz_distribution().index(forbidden)
        guide_tables = worlds_mod._guide_tables

        def planted(cum):
            # A guide table that maps every draw to the forbidden outcome.
            guide, _, thresholds = guide_tables(cum)
            return np.full_like(guide, index), None, thresholds

        monkeypatch.setattr(worlds_mod, "_guide_tables", planted)
        world_path = tmp_path / "world.json"
        argv = ["ghz", "--trials", "8000", "--seed", "5", "--world-out", str(world_path)]
        status, report, _ = run_json(capsys, argv)
        assert status == 1
        rate = repr(math.erfc(4 / math.sqrt(2)))
        assert report["failures"] == [
            {"check": "perfect-correlations", "detail": "8000 != 0"},
            {"check": "block-frequency-k1-cell-000", "detail": f"0.0 < {rate}"},
        ]
        assert report["cell_tests"]["000"]["zero_cell_hits"] == 8000
        assert (report["trials"], report["seed"]) == (8000, 5)
        assert report["perfect_correlation"]["000"]["violations"] == 8000
        assert report["cross_check"]["pass"] is True
        # No round falls in a free triple, so none has a mean.
        for entry in report["free_triples"].values():
            assert entry == {"count": 0, "mean_product": None}
        world = WorldPrefix.from_json(world_path.read_text())
        assert world == WorldPrefix(
            ghz_distribution().alphabet, np.full(8000, ghz_distribution().index(forbidden))
        )


class TestExitCodeHoles:
    def test_unwritable_world_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "world.json"
        argv = ["chsh", "--trials", "8000", "--seed", "5", "--world-out", str(target)]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, "--world-out")

    @pytest.mark.parametrize("command", ["chsh", "ghz"])
    def test_world_too_large_to_keep(self, capsys, tmp_path, command):
        # 10**15 one-byte symbols are 909 TiB, past any 47-bit address space,
        # so keeping the world fails at once on every host.
        target = tmp_path / "world.json"
        argv = [command, "--trials", str(10**15), "--seed", "1", "--world-out", str(target)]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, f"too little memory for a world of {10**15} symbols")
        assert len(err.splitlines()) == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["ghz", "--trials", "8000", "--seed", "1", "--tolerance", "nan"], "--tolerance"),
            (["ghz", "--trials", "8000", "--seed", "1", "--tolerance", "0.5"], "--tolerance"),
            (["lhv", "chsh", "--sweep", "10", "--trials", "2", "--seed", "1"], "--trials"),
            (["lhv", "ghz", "--seed", "1"], "--seed"),
            (["lhv", "chsh", "--h-file", "h.json", "--seed", "5"], "--seed"),
            (["lhv", "chsh", "--h-file", "h.json", "--threads", "2"], "--threads"),
            (["lhv", "chsh", "--sweep", "10", "--seed", "1", "--threads", "2"], "--threads"),
            (["lhv", "ghz", "--threads", "1"], "--threads"),
            (["battery", "world.json", "fps.json", "--threads", "4"], "--threads"),
            (["chsh", "--trials", "8000", "--seed", "1", "--tolerance", "0.5"], "--tolerance"),
        ],
    )
    def test_unused_flag(self, capsys, argv, flag):
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, f"does not use {flag}")

    def test_simulation_reads_threads_and_seed(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(uniform(RQST_TUPLES).to_json())
        base = ["lhv", "chsh", "--h-file", str(h_path), "--trials", "8000", "--seed", "5"]
        status, out1, _ = run_cli(capsys, base)
        assert status == 0
        assert run_cli(capsys, base + ["--threads", "2"])[1] == out1

    def test_parse_error_is_a_json_usage_error(self, capsys):
        status, out, err = run_cli(capsys, ["chsh", "--trials", "many", "--seed", "1"])
        assert_usage_error(status, out, err, "--trials")

    def test_battery_seed(self, capsys, tmp_path):
        world_path = tmp_path / "world.json"
        fps_path = tmp_path / "fps.json"
        world_path.write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        fps_path.write_text(fair_coin().to_json())
        argv = ["battery", str(world_path), str(fps_path), "--seed", "3"]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, "does not use --seed")

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (json.dumps({"alphabet": 5, "weights": [1.0], "indices": [0]}).encode(), "malformed"),
            (b"\xff{}", "cannot read"),  # not UTF-8
            (
                json.dumps({"alphabet": "01", "weights": [0.5, 0.5], "indices": [0, 1]}).encode(),
                "'alphabet' must be a list",
            ),
            (
                json.dumps({"alphabet": {"0": 0, "1": 1}, "weights": [0.5, 0.5], "indices": [0]})
                .encode(),
                "'alphabet' must be a list",
            ),
            (b"[" * 200_000, "nested too deeply"),
            (DEEP_SYMBOL_SPACE.encode(), "nested too deeply"),
            # A JSON string holding a valid space, not decoded a second time.
            (json.dumps(fair_coin().to_json()).encode(), "JSON must be an object with"),
            # Read as a space, the weight is not finite; read as a world, it has no indices.
            (BIG_WEIGHT_SPACE.encode(), "invalid"),
        ],
        ids=[
            "non-list-alphabet", "not-utf-8", "string-alphabet", "object-alphabet",
            "deep", "deep-symbol", "string-wrapped", "big-weight",
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["battery", "{bad}", "{space}"],
            ["battery", "{world}", "{bad}"],
            ["lhv", "chsh", "--h-file", "{bad}"],
            ["lhv", "ghz", "--h-file", "{bad}"],
        ],
        ids=["battery-world", "battery-space", "lhv-chsh", "lhv-ghz"],
    )
    def test_bad_input_file(self, capsys, tmp_path, argv, content, fragment):
        files = {name: tmp_path / f"{name}.json" for name in ("bad", "world", "space")}
        files["bad"].write_bytes(content)
        files["world"].write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        files["space"].write_text(fair_coin().to_json())
        status, out, err = run_cli(capsys, [arg.format(**files) for arg in argv])
        assert_usage_error(status, out, err, fragment)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "weights",
        [
            lambda n: "1" + "0" * (n - 1),
            lambda n: ["1"] + ["0"] * (n - 1),
            lambda n: [True] + [False] * (n - 1),
            lambda n: {"0" * k or "1": 0.5 for k in range(n)},  # keys read 1, 0, 0, ...
            lambda n: [None] + [1] + [0] * (n - 2),  # a null casts to NaN
            lambda n: [{}] + [1] + [0] * (n - 2),
        ],
        ids=["string", "strings", "booleans", "object", "null-item", "object-item"],
    )
    @pytest.mark.parametrize(
        "argv, space",
        [
            (["battery", "{world}", "{bad}"], fair_coin()),
            (["lhv", "chsh", "--h-file", "{bad}"], uniform(RQST_TUPLES)),
            (["lhv", "ghz", "--h-file", "{bad}"], uniform(ghz_mod.LHV_ASSIGNMENTS)),
        ],
        ids=["battery", "lhv-chsh", "lhv-ghz"],
    )
    def test_weights_must_be_json_numbers(self, capsys, tmp_path, argv, space, weights):
        # The first four cast to a point mass on the first symbol.
        alphabet = json.loads(space.to_json())["alphabet"]
        files = {"bad": tmp_path / "bad.json", "world": tmp_path / "world.json"}
        files["bad"].write_text(json.dumps({"alphabet": alphabet, "weights": weights(len(space))}))
        files["world"].write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        status, out, err = run_cli(capsys, [arg.format(**files) for arg in argv])
        assert_usage_error(status, out, err, "weights must be a list of JSON numbers")

    def test_repeated_block_length(self, capsys, tmp_path):
        files = {"world": tmp_path / "world.json", "space": tmp_path / "space.json"}
        files["world"].write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        files["space"].write_text(fair_coin().to_json())
        argv = ["battery", str(files["world"]), str(files["space"]), "--blocks", "2,3,2"]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, "one or more distinct block lengths")

    def test_max_dim_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("TYPICALITY_LAB_MAX_DIM", "abc")
        status, report, _ = run_json(capsys, ["ghz", "--trials", "8000", "--seed", "1"])
        assert status == 0
        assert report["cross_check"]["pass"] is True


#: The message for ``--trials`` of 2**63 or more, whatever the invocation.
TRIALS_BEYOND = "--trials must be below 2**63"

#: Invalid command lines and the message of the one JSON error line each
#: prints.  Input files are named relative to the working directory.
#: argparse's "invalid choice" wording differs between Python versions, so
#: no case below depends on it.
_USAGE_ERRORS = [
    ("chsh --trials 8000", "--seed is required (use '--seed random' to draw one)"),
    ("chsh --seed 1", "chsh requires --trials >= 4000"),
    ("chsh --tri 8000 --seed 1", "typicality-lab: unrecognized arguments: --tri 8000"),
    (
        "chsh --trials many --seed 1",
        "typicality-lab chsh: argument --trials: invalid int value: 'many'",
    ),
    ("chsh --trials 10 --seed 1", "chsh requires --trials >= 4000"),
    ("ghz --trials 10 --seed 1", "ghz requires --trials >= 8000"),
    (
        "chsh --trials 8000 --seed 1 --tolerance nan",
        "chsh does not use --tolerance",
    ),
    ("chsh --trials 8000 --seed 18446744073709551616", "--seed must be a 64-bit unsigned integer"),
    ("chsh --trials 8000 --seed x", "--seed expects an integer or 'random', got 'x'"),
    ("chsh --trials 8000 --seed 1 --threads 0", "--threads must be at least 1"),
    (
        "battery world.json fps.json --blocks 1,x",
        "--blocks expects comma-separated integers, got '1,x'",
    ),
    ("chsh --trials 8000 --seed 1 --blocks 1", "chsh does not use --blocks"),
    ("ghz --trials 8000 --seed 1 --blocks 1,x", "ghz does not use --blocks"),
    ("battery world.json fps.json --blocks 0", "block_len must be from 1 to 64, got 0"),
    (
        "battery world.json fps.json --blocks 2,3,2",
        "block_lens must be one or more distinct block lengths, got (2, 3, 2)",
    ),
    ("battery one.json one_fps.json --blocks 65", "block_len must be from 1 to 64, got 65"),
    ("battery world.json fps.json --seed 3", "battery does not use --seed"),
    ("battery world.json fps.json --trials 5", "battery does not use --trials"),
    (
        "battery world.json fps.json --trials x",
        "typicality-lab battery: argument --trials: invalid int value: 'x'",
    ),
    ("ghz --trials 8000 --seed 1 --sweep 5", "ghz does not use --sweep"),
    ("lhv ghz --world-out x.json", "lhv ghz does not use --world-out"),
    # The report goes to stdout only.
    ("lhv ghz --out report.json", "typicality-lab: unrecognized arguments: --out report.json"),
    # A NUL names no file: each path slot refuses one before any file is opened.
    ("lhv ghz --h-file a\x00b", "--h-file path 'a\\x00b' holds a NUL character"),
    ("lhv chsh --h-file a\x00b", "--h-file path 'a\\x00b' holds a NUL character"),
    (
        "chsh --trials 8000 --seed 1 --world-out a\x00b",
        "--world-out path 'a\\x00b' holds a NUL character",
    ),
    ("battery a\x00b fps.json", "the world file path 'a\\x00b' holds a NUL character"),
    # An empty path names no file either: it skips no write.
    ("ghz --trials 8000 --seed 1 --world-out=", "--world-out path '' names no file"),
    ("lhv chsh --h-file=", "--h-file path '' names no file"),
    (
        "battery world.json a\x00b",
        "the probability-space file path 'a\\x00b' holds a NUL character",
    ),
    ("ghz --trials 8000 --seed 1 --tolerance 0.5", "ghz does not use --tolerance"),
    ("chsh --trials 4000 --seed 1 --tolerance 0.5", "chsh does not use --tolerance"),
    (
        "chsh --trials 4000 --seed 1 --format json",
        "typicality-lab: unrecognized arguments: --format json",
    ),
    ("lhv ghz --threads 1", "lhv ghz does not use --threads"),
    ("lhv chsh --h-file h.json --seed 5", "lhv chsh does not use --seed"),
    ("lhv chsh --sweep -1 --seed 1", "--sweep must be non-negative, got -1"),
    ("lhv chsh --sweep 20", "--seed is required (use '--seed random' to draw one)"),
    ("lhv chsh", "lhv chsh requires --h-file or --sweep"),
    ("lhv chsh --trials 5000 --seed 1", "lhv chsh requires --h-file or --sweep"),
    (
        "lhv chsh --h-file missing.json",
        "cannot read hidden-variable file 'missing.json': [Errno 2] No such file or "
        "directory: 'missing.json'",
    ),
    (
        "lhv chsh --h-file broken.json",
        "hidden-variable file 'broken.json' is not valid JSON: Expecting property name "
        "enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    (
        "lhv ghz --h-file h.json",
        "invalid hidden-variable file 'h.json': hidden-variable space must be over all 64 "
        "six-value assignments with entries +1/-1",
    ),
    ("battery empty.json fps.json", "world file 'empty.json' is empty"),
    (
        "battery float-world.json fps.json",
        "invalid world file 'float-world.json': world indices must be integers",
    ),
    (
        "battery world.json h.json",
        "world and probability-space alphabets differ (symbols and order must match)",
    ),
    ("battery deep.json fps.json", "world file 'deep.json' is nested too deeply"),
    (
        "battery world.json deep-symbol.json",
        "probability-space file 'deep-symbol.json' is nested too deeply",
    ),
    (
        "battery world.json string-alphabet.json",
        "invalid probability-space file 'string-alphabet.json': malformed probability space "
        "JSON: 'alphabet' must be a list",
    ),
    (
        "battery string-symbols.json fps.json",
        "invalid world file 'string-symbols.json': malformed world JSON: 'symbols' must be a list",
    ),
    (
        "battery world.json string-space.json",
        "invalid probability-space file 'string-space.json': probability space JSON must be an "
        "object with 'alphabet' and 'weights'",
    ),
    (
        "battery string-provenance.json fps.json",
        "invalid world file 'string-provenance.json': malformed world JSON: 'provenance' must "
        "be an object",
    ),
    (
        "battery two-index-fields.json fps.json",
        "invalid world file 'two-index-fields.json': world JSON must give 'indices' or "
        "'symbols', not both",
    ),
    (
        "battery string-world.json fps.json",
        "invalid world file 'string-world.json': world JSON must be an object with an "
        "'alphabet' field",
    ),
    (
        "battery world.json big.json",
        "invalid probability-space file 'big.json': weights must be finite",
    ),
    (
        "lhv chsh --h-file big-h.json --trials 8000 --seed random",
        "invalid hidden-variable file 'big-h.json': weights must be finite",
    ),
    (
        "battery world.json huge-sum.json",
        "invalid probability-space file 'huge-sum.json': weights must sum to 1 within 1e-12, "
        "got inf",
    ),
    (
        "lhv chsh --h-file huge-sum-h.json",
        "invalid hidden-variable file 'huge-sum-h.json': weights must sum to 1 within 1e-12, "
        "got inf",
    ),
    (
        "battery world.json null-weights.json",
        "invalid probability-space file 'null-weights.json': weights must be a list of JSON "
        "numbers",
    ),
    (
        "lhv ghz --h-file object-weights.json",
        "invalid hidden-variable file 'object-weights.json': weights must be a list of JSON "
        "numbers",
    ),
    ("chsh --trials 9223372036854775808 --seed 1 --world-out w.json", TRIALS_BEYOND),
    ("ghz --trials 9223372036854775808 --seed 1 --world-out w.json", TRIALS_BEYOND),
    ("lhv chsh --h-file h.json --trials 9223372036854775808 --seed 1", TRIALS_BEYOND),
    (
        "chsh --trials 4611686018427387904 --seed 1 --world-out w.json",
        "too little memory for a world of 4611686018427387904 symbols",
    ),
    (
        "ghz --trials 8000 --seed 1 --world-out no-dir/w",
        "cannot write --world-out file 'no-dir/w': [Errno 2] No such file or directory: "
        "'no-dir/w'",
    ),
]


class TestUsageErrorLines:
    """Each usage error prints exactly its one JSON line on stderr, nothing on stdout, and exits 2."""

    @pytest.mark.parametrize(
        "command, message", _USAGE_ERRORS, ids=[command for command, _ in _USAGE_ERRORS]
    )
    def test_exact_line(self, capsys, tmp_path, monkeypatch, command, message):
        h_text = uniform(RQST_TUPLES).to_json()
        texts = {
            "world.json": sample_world(fair_coin(), 5000, seed=8).to_json(),
            "fps.json": fair_coin().to_json(),
            "h.json": h_text,
            "empty.json": "",
            "broken.json": "{",
            "float-world.json": json.dumps({"alphabet": [0, 1], "indices": [0.5]}),
            "deep.json": "[" * 200_000,
            "deep-symbol.json": DEEP_SYMBOL_SPACE,
            "string-alphabet.json": json.dumps({"alphabet": "01", "weights": [0.5, 0.5]}),
            "string-symbols.json": json.dumps({"alphabet": [0, 1], "symbols": "0110"}),
            "string-space.json": json.dumps(fair_coin().to_json()),
            "string-world.json": json.dumps(sample_world(fair_coin(), 5000, seed=8).to_json()),
            "string-provenance.json": STRING_PROVENANCE_WORLD,
            "two-index-fields.json": TWO_INDEX_FIELDS_WORLD,
            "big.json": BIG_WEIGHT_SPACE,
            "big-h.json": json.dumps(
                {"alphabet": json.loads(h_text)["alphabet"], "weights": [-(10**400), 1] + [0] * 14}
            ),
            "huge-sum.json": HUGE_SUM_SPACE,
            "huge-sum-h.json": json.dumps(
                {"alphabet": json.loads(h_text)["alphabet"], "weights": [1e308, 1e308] + [0] * 14}
            ),
            "null-weights.json": NULL_WEIGHT_SPACE,
            "object-weights.json": OBJECT_WEIGHT_SPACE,
            "one.json": ONE_SYMBOL_WORLD,
            "one_fps.json": ONE_SYMBOL_SPACE,
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        for link, target in (("link-world.json", "world.json"), ("link-h.json", "h.json")):
            (tmp_path / link).symlink_to(target)
        monkeypatch.chdir(tmp_path)
        expected = {"error": {"code": "usage", "message": message}, "schema": 8}
        line = json.dumps(expected, sort_keys=True) + "\n"
        assert run_cli(capsys, command.split()) == (2, "", line)
        # No usage error writes a file, or writes over one of its inputs.
        assert sorted(os.listdir(tmp_path)) == sorted([*texts, "link-world.json", "link-h.json"])
        assert {name: (tmp_path / name).read_text() for name in texts} == texts

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["battery", "", "fps.json"], "the world file"),
            (["battery", "world.json", ""], "the probability-space file"),
        ],
    )
    def test_an_empty_input_path(self, capsys, argv, name):
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, f"{name} path '' names no file")


def _skewed(distribution, skew):
    """``distribution`` with its ``linear_algebra`` weights moved by ``skew`` between two cells."""

    def skewed(method):
        space = distribution(method)
        if method == "analytic":
            return space
        weights = space.weights.copy()
        weights[0] += skew
        weights[1] -= skew
        return type(space)(space.alphabet, weights)

    return skewed


class TestCrossCheck:
    def test_agreeing_distributions_pass(self):
        entry, check = cli_mod._cross_check(chsh_distribution)
        assert entry["pass"] is True
        assert entry["max_abs_diff"] <= entry["tolerance"]
        assert check == Check("distribution-cross-check", entry["max_abs_diff"], "<=", ATOL)

    def test_disagreeing_distributions_fail_once(self):
        entry, check = cli_mod._cross_check(_skewed(chsh_distribution, 1e-6))
        assert entry["pass"] is False
        assert entry["max_abs_diff"] == pytest.approx(1e-6)
        assert (check.name, check.passed) == ("distribution-cross-check", False)


class TestChecksDecideTheRun:
    # Every check gates the run: the planted check alone decides the status, and a
    # passed check beside it adds no failure.
    @pytest.mark.parametrize("beside_a_passed_check", [True, False])
    @pytest.mark.parametrize(
        ("relation", "value", "bound", "passed", "shown"),
        [
            ("<=", 1.0, 1.0, True, ">"),
            ("<=", 1.5, 1.0, False, ">"),
            (">=", 0.01, 0.01, True, "<"),
            (">=", 0.005, 0.01, False, "<"),
            ("==", 0, 0, True, "!="),
            ("==", 3, 0, False, "!="),
        ],
    )
    def test_only_a_failed_gating_check_fails(
        self, capsys, monkeypatch, relation, value, bound, passed, shown, beside_a_passed_check
    ):
        check = Check("planted", value, relation, bound)
        assert check.passed is passed
        checks = [check] + ([Check("beside", 0, "==", 0)] if beside_a_passed_check else [])
        _, flags_read, module = cli_mod._INVOCATIONS["lhv ghz"]
        planted = (lambda args, ghz: ({"protocol": "lhv-ghz"}, checks), flags_read, module)
        monkeypatch.setitem(cli_mod._INVOCATIONS, "lhv ghz", planted)
        status, report, _ = run_json(capsys, ["lhv", "ghz"])
        assert report["checks"] == [
            {
                "name": "planted",
                "value": value,
                "relation": relation,
                "bound": bound,
                "passed": passed,
            }
        ] + (
            [{"name": "beside", "value": 0, "relation": "==", "bound": 0, "passed": True}]
            if beside_a_passed_check
            else []
        )
        assert status == (0 if passed else 1)
        detail = f"{value!r} {shown} {bound!r}"
        assert report["failures"] == ([] if passed else [{"check": "planted", "detail": detail}])

    def test_failed_cross_check_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(chsh_mod, "chsh_distribution", _skewed(chsh_distribution, 1e-6))
        status, report, _ = run_json(capsys, ["chsh", "--trials", "8000", "--seed", "1"])
        assert status == 1
        assert report["cross_check"]["pass"] is False
        assert [f["check"] for f in report["failures"]] == ["distribution-cross-check"]


def _with_src(env):
    """``env`` with the ``src`` directory of the package under test first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


#: Runs the command-line program on its arguments and prints its exit status,
#: peak RSS in kilobytes (the Linux unit) and minor page faults.  The run is spawned from this
#: small process, not from the test process, because a child's peak RSS
#: counts the memory of the process it was spawned from.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-B", "-m", "typicality_lab", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss, usage.ru_minflt)
"""


def _child_usage(argv):
    """Peak RSS in MB and minor page faults of one ``typicality_lab`` process.

    The child gets only ``PATH`` and ``PYTHONPATH``, and it imports the
    package through a link at a path whose length does not depend on where
    the package is checked out, from a working directory of the same
    length: the size of its environment and the lengths of the path
    strings it holds move its heap layout, and with it both readings.  So
    both processes run as ``python -B`` rather than with
    ``PYTHONDONTWRITEBYTECODE`` set: they write no bytecode into the package
    under test, and their environment does not grow.
    """
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    with tempfile.TemporaryDirectory() as root:
        os.symlink(src, os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-B", "-c", _PEAK_RSS, *argv],
            cwd=root,
            env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": os.path.join(root, "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert done.returncode == 0, done.stderr
    status, peak_kb, faults = map(int, done.stdout.split())
    assert status == 0
    return peak_kb / 1024, faults


class TestPeakMemory:
    """A run's counts are taken as its world is drawn, so its memory does not grow with trials."""

    def peak_mb(self, trials):
        return _child_usage(["chsh", "--trials", str(trials), "--seed", "3", "--threads", "2"])[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss unit")
    def test_chsh_peak_does_not_grow_with_trials(self):
        small, large = self.peak_mb(400_000), self.peak_mb(4_000_000)
        assert large - small < 3.0, (small, large)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss unit")
    @pytest.mark.parametrize("command", ["chsh", "ghz"])
    def test_two_threads_add_little_to_a_one_chunk_run(self, command):
        # 8000 trials are one chunk, drawn by the calling thread into
        # buffers of its size.  4M trials add the second thread, and each
        # thread's two 4-block buffers of 256 KB: about 1 MB in all.
        small, large = (
            _child_usage([command, "--trials", trials, "--seed", "3", "--threads", "2"])[0]
            for trials in ("8000", "4000000")
        )
        assert large - small < 2.0, (small, large)


class TestPageFaults:
    """Memory that grows with the draw, such as a kept world, shows as fresh pages.

    A buffer allocated per chunk does not: the allocator hands back the
    block the last chunk freed, so it touches no fresh page.  That is
    caught in ``tests/test_worlds.py`` by
    ``TestSampling::test_stream_chunks_are_the_world_whichever_thread_reuses_its_buffers``.
    """

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_chsh_faults_do_not_grow_with_trials(self, threads):
        # Memory that grew with the draw, such as a world kept at 8 bytes a
        # trial, would take about 7000 more faults between these two sizes.
        faults = [
            _child_usage(["chsh", "--trials", trials, "--seed", "3", "--threads", threads])[1]
            for trials in ("400000", "4000000")
        ]
        assert faults[1] - faults[0] < 2000, faults


#: Prints the OpenBLAS thread count numpy ended up with, after importing
#: the package first, as the command-line entry points do.
_BLAS_THREADS = """
import ctypes, glob, os, sys
import typicality_lab, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
getters = [getattr(ctypes.CDLL(lib), n) for lib in libs for n in names if hasattr(ctypes.CDLL(lib), n)]
if not getters:
    sys.exit(3)
getters[0].restype = ctypes.c_int
print(getters[0](), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


class TestBlasThreads:
    def blas_threads(self, **env_vars):
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env.update(env_vars)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS],
            env=_with_src(env),
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode == 3:
            pytest.skip("numpy is not linked against a bundled OpenBLAS")
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_one_thread_by_default(self):
        assert self.blas_threads() == ["1", "1"]

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_set_thread_count_wins(self, var):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two CPUs to tell two BLAS threads from one")
        threads, openblas_var = self.blas_threads(**{var: "2"})
        assert threads == "2"
        assert openblas_var == ("2" if var == "OPENBLAS_NUM_THREADS" else "None")


#: Prints which of the standard-library modules that only some runs use, or
#: that no run needs, importing the command line and both protocols has loaded.
_DEFERRED_IMPORTS = """
import sys
import typicality_lab.cli
import typicality_lab.chsh
import typicality_lab.ghz
names = ("concurrent.futures", "csv", "dataclasses", "secrets")
print(*(name for name in names if name in sys.modules))
"""


#: Runs ``main`` on its arguments with two CPUs counted, so that a draw of
#: more than one chunk runs on worker threads, and the report discarded; then
#: prints the exit status and which of the thread pool's modules it loaded.
_THREADED_IMPORTS = """
import contextlib, io, sys
import typicality_lab.worlds
typicality_lab.worlds._cpu_count = lambda: 2
from typicality_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(status, *(name for name in ("concurrent.futures", "logging") if name in sys.modules))
"""


#: Runs ``main`` on its arguments with the report and any error discarded, then
#: prints the exit status, the package's modules that the run loaded, and
#: ``numpy`` if the run loaded it.
_LOADED_MODULES = """
import contextlib, io, sys
from typicality_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = main(sys.argv[1:])
    except SystemExit as done:  # --help
        status = done.code
prefix = "typicality_lab."
loaded = {m[len(prefix):] for m in sys.modules if m.startswith(prefix)}
print(status, *sorted(loaded | ({"numpy"} & sys.modules.keys())))
"""

#: Each invocation, its exit status, and the package modules (and numpy) it
#: must not load.  ``{name}`` is a file of the ``fuzz_files`` fixture.
_MODULE_SETS = [
    ("lhv ghz", 0, {"worlds", "battery", "chsh", "linalg", "numpy"}),
    ("lhv ghz --h-file {p.json}", 0, {"worlds", "battery", "chsh", "linalg", "numpy"}),
    ("lhv chsh --sweep 100 --seed 1", 0, {"worlds", "battery", "ghz", "linalg"}),
    ("lhv chsh --h-file {h.json}", 0, {"worlds", "battery", "ghz", "linalg", "numpy"}),
    ("lhv chsh --h-file {h.json} --trials 4000 --seed 1", 0, {"battery", "ghz", "linalg"}),
    ("ghz --trials 8000 --seed 1", 0, {"chsh"}),
    ("chsh --trials 4000 --seed 1", 0, {"ghz"}),
    ("battery {world.json} {fps.json}", 0, {"chsh", "ghz", "protocol", "linalg"}),
    ("nope", 2, {"worlds", "battery", "chsh", "ghz", "protocol", "linalg", "numpy"}),
    # A usage error after the invocation's module is imported: that module's own imports only.
    ("chsh --trials 4000", 2, {"worlds", "battery", "ghz", "linalg", "numpy"}),
    ("lhv chsh --h-file {missing.json}", 2, {"worlds", "battery", "ghz", "linalg", "numpy"}),
    ("battery {missing.json} {fps.json}", 2, {"chsh", "ghz", "protocol", "linalg"}),
    ("--help", 0, {"worlds", "battery", "chsh", "ghz", "protocol", "linalg", "numpy"}),
]


#: Rebinds a protocol module's distribution before its record runs, runs the
#: protocol, and prints each method the rebinding was called with, and whether
#: it is still bound.
_REBOUND_BEFORE_THE_RECORD = """
from typicality_lab import {module} as mod
calls = []
def rebound(method="analytic"):
    calls.append(method)
    return mod.{record}.distribution(method)
mod.{name} = rebound
mod.{run}(8000, 1)
print(*calls, mod.{name} is rebound)
"""


class TestImportCost:
    def test_rarely_used_modules_are_not_imported_up_front(self):
        # Only --seed random runs need secrets (with hashlib).  No run needs csv,
        # or concurrent.futures (with logging, 5-9 ms per process), and no
        # module of the package defines a dataclass.
        done = subprocess.run(
            [sys.executable, "-c", _DEFERRED_IMPORTS],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    @pytest.mark.parametrize("trials", ["8000", "270000"])
    @pytest.mark.parametrize("command", ["chsh", "ghz"])
    def test_threaded_runs_load_no_thread_pool_module(self, command, trials):
        # 270000 trials are nine chunks, drawn by the caller and one worker;
        # the scheduler needs neither concurrent.futures nor logging (5-9 ms).
        argv = [command, "--trials", trials, "--threads", "2", "--seed", "1"]
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_IMPORTS, *argv],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    @pytest.mark.parametrize(
        ("command", "status", "not_loaded"), _MODULE_SETS, ids=[c for c, _, _ in _MODULE_SETS]
    )
    def test_each_invocation_loads_only_what_it_runs(self, fuzz_files, command, status, not_loaded):
        argv = [
            str(fuzz_files / word[1:-1]) if word.startswith("{") else word
            for word in command.split()
        ]
        done = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, *argv],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        shown, *loaded = done.stdout.split()
        assert int(shown) == status
        assert {"cli", "checks", "spaces"} <= set(loaded)
        assert not_loaded.isdisjoint(loaded), loaded

    @pytest.mark.parametrize(
        "statement",
        [
            "import typicality_lab.cli",
            "from typicality_lab import lhv_ghz_feasibility",
            # The closed forms build no arrays, so a dump of either distribution needs none.
            "import typicality_lab.chsh as c, typicality_lab.ghz as g; "
            "c.chsh_distribution().to_json(); g.ghz_distribution().to_json()",
        ],
    )
    def test_package_imports_load_no_numpy(self, statement):
        loaded = "print('numpy' in sys.modules, 'typicality_lab.linalg' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; {statement}; {loaded}"],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize(
        ("module", "record", "outcomes"),
        [(chsh_mod, "CHSH", "CHSH_OUTCOMES"), (ghz_mod, "GHZ", "GHZ_OUTCOMES")],
    )
    def test_each_module_holds_one_record(self, module, record, outcomes):
        assert getattr(module, record) is getattr(module, record)
        assert getattr(module, outcomes) is getattr(module, record).alphabet
        with pytest.raises(AttributeError, match="has no attribute 'NOPE'"):
            module.NOPE

    @pytest.mark.parametrize(
        ("module", "record", "name", "run"),
        [
            ("chsh", "CHSH", "chsh_distribution", "run_chsh"),
            ("ghz", "GHZ", "ghz_distribution", "run_ghz"),
        ],
    )
    def test_a_distribution_rebound_before_the_record_is_the_one_run(
        self, module, record, name, run
    ):
        script = _REBOUND_BEFORE_THE_RECORD.format(module=module, record=record, name=name, run=run)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["analytic", "True"]


class TestProcessEntryPoint:
    """``python -m typicality_lab`` writes what ``main`` does in process, and exits with its status."""

    def child(self, argv, stdout=subprocess.PIPE):
        return subprocess.run(
            [sys.executable, "-m", "typicality_lab", *argv],
            env=_with_src(dict(os.environ)),
            stdout=stdout,
            stderr=subprocess.PIPE,
            timeout=120,
        )

    @staticmethod
    def with_files(argv, root):
        """``argv`` with ``{zeros}`` a world of 1000 zeros and ``{coin}`` a fair coin, in ``root``.

        Every block test of that world against that coin fails.
        """
        (root / "zeros.json").write_text(WorldPrefix.from_symbols((0, 1), [0] * 1000).to_json())
        (root / "coin.json").write_text(fair_coin().to_json())
        return [str(root / f"{word[1:-1]}.json") if word[0] == "{" else word for word in argv]

    def in_process(self, capsys, argv):
        freezes = gc.get_freeze_count()
        status = main(argv)
        assert gc.get_freeze_count() == freezes  # only the process entry point freezes
        captured = capsys.readouterr()
        return status, captured.out.encode(), captured.err.encode()

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["chsh", "--trials", "4000", "--seed", "1"], 0),
            (["battery", "{zeros}", "{coin}"], 1),
            (["chsh", "--trials", "4000"], 2),  # argparse: --seed is required
            (["chsh", "--trials", "10", "--seed", "1"], 2),  # too few trials
        ],
    )
    def test_same_output_and_status(self, capsys, tmp_path, argv, status):
        argv = self.with_files(argv, tmp_path)
        expected = self.in_process(capsys, argv)
        assert expected[0] == status
        done = self.child(argv)
        assert (done.returncode, done.stdout, done.stderr) == expected
        if status == 2:
            assert json.loads(done.stderr)["error"]["code"] == "usage"

    def test_console_script_runs_the_same_function(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["typicality-lab"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is entry_mod.main

    def test_out_file_is_complete(self, capsys, tmp_path):
        # A child's stdout sent to a file holds the whole report, byte for byte.
        argv = self.with_files(["battery", "{zeros}", "{coin}"], tmp_path)
        status, out, _ = self.in_process(capsys, argv)
        assert status == 1
        with open(tmp_path / "report.json", "wb") as report:
            done = self.child(argv, stdout=report)
        assert (done.returncode, done.stderr) == (status, b"")
        assert (tmp_path / "report.json").read_bytes() == out


class _Refusing(io.StringIO):
    """A stream that refuses every write, as a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


#: The one JSON line of a report that a full disk refused.
_REFUSED = json.dumps(
    {
        "error": {
            "code": "usage",
            "message": f"cannot write the report: [Errno {errno.ENOSPC}] "
            + os.strerror(errno.ENOSPC),
        },
        "schema": 8,
    },
    sort_keys=True,
)


class TestOutputFailures:
    """A stream that refuses its text, or a MemoryError, ends in the JSON usage error (exit 2)."""

    def test_a_refused_report_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _Refusing())
        assert main(["ghz", "--trials", "8000", "--seed", "1"]) == 2
        assert capsys.readouterr().err == _REFUSED + "\n"

    def test_a_refused_help_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _Refusing())
        assert main(["ghz", "--help"]) == 2
        assert capsys.readouterr().err == _REFUSED.replace("the report", "the help") + "\n"

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["nope"], io.StringIO()),
            (["ghz", "--trials", "8000", "--seed", "random"], io.StringIO()),
            (["lhv", "ghz"], _Refusing()),
        ],
        ids=["usage-error", "seed-line", "report"],
    )
    def test_a_refused_stderr_ends_with_exit_2(self, monkeypatch, argv, out):
        # No line reaches stderr, and a run whose seed line was refused writes no report.
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", _Refusing())
        assert main(argv) == 2
        assert out.getvalue() == ""

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8 GiB")])
    def test_a_loader_out_of_memory_is_a_usage_error(self, capsys, tmp_path, monkeypatch, error):
        def too_big(text):
            raise error

        (tmp_path / "world.json").write_text(sample_world(fair_coin(), 5000, seed=8).to_json())
        (tmp_path / "fps.json").write_text(fair_coin().to_json())
        monkeypatch.setattr(WorldPrefix, "from_json", too_big)
        argv = ["battery", str(tmp_path / "world.json"), str(tmp_path / "fps.json")]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, str(error) or "too little memory")
        assert len(err.splitlines()) == 1

    def test_a_world_write_out_of_memory_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        def too_big(world):
            raise MemoryError

        monkeypatch.setattr(WorldPrefix, "to_json", too_big)
        argv = ["chsh", "--trials", "4000", "--seed", "1", "--world-out", str(tmp_path / "w.json")]
        status, out, err = run_cli(capsys, argv)
        assert_usage_error(status, out, err, "too little memory")
        assert not (tmp_path / "w.json").exists()


#: A report longer than a stream buffer's 8192 bytes, and one shorter, which a buffered
#: stdout holds until it is flushed.
_LONG_AND_SHORT = [["ghz", "--trials", "8000", "--seed", "1"], ["lhv", "chsh", "--sweep", "0"]]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestOutputFailuresInAProcess:
    """Exit 2 with the one JSON line in a real process, and no error from interpreter shutdown."""

    @staticmethod
    def run(argv, buffered, **streams):
        env = _with_src(dict(os.environ))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "typicality_lab", *argv]
        return subprocess.run(command, env=env, timeout=120, **streams)

    @pytest.mark.parametrize("argv", _LONG_AND_SHORT, ids=["long", "short"])
    def test_a_full_disk(self, buffered, argv):
        with open("/dev/full", "wb") as full:
            done = self.run([*argv, "--seed", "1"], buffered, stdout=full, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr.decode()) == (2, _REFUSED + "\n")

    @pytest.mark.parametrize("argv", _LONG_AND_SHORT, ids=["long", "short"])
    def test_a_pipe_with_no_reader(self, buffered, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            done = self.run([*argv, "--seed", "1"], buffered, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert done.returncode == 2
        assert json.loads(done.stderr)["error"] == {
            "code": "usage",
            "message": f"cannot write the report: [Errno {errno.EPIPE}] "
            + os.strerror(errno.EPIPE),
        }

    def test_a_world_into_a_full_disk(self, buffered):
        # The file refuses the world only when it is flushed, at its close.
        argv = ["ghz", "--trials", "8000", "--seed", "1", "--world-out", "/dev/full"]
        done = self.run(argv, buffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        refused = _REFUSED.replace("the report", "--world-out file '/dev/full'")
        assert (done.returncode, done.stdout, done.stderr.decode()) == (2, b"", refused + "\n")

    def test_help_into_a_full_disk(self, buffered):
        with open("/dev/full", "wb") as full:
            done = self.run(["ghz", "--help"], buffered, stdout=full, stderr=subprocess.PIPE)
        refused = _REFUSED.replace("the report", "the help")
        assert (done.returncode, done.stderr.decode()) == (2, refused + "\n")

    @pytest.mark.parametrize("argv", [["nope"], ["lhv", "chsh", "--sweep", "0", "--seed", "random"]])
    def test_a_full_disk_behind_stderr(self, buffered, argv):
        # The usage error's line, or the seed line, refused: the run writes no report.
        with open("/dev/full", "wb") as full:
            done = self.run(argv, buffered, stdout=subprocess.PIPE, stderr=full)
        assert (done.returncode, done.stdout) == (2, b"")


#: The files of the ``fuzz_files`` fixture.
_FUZZ_FILES = (
    "world.json",
    "fps.json",
    "chsh.json",
    "h.json",
    "p.json",
    "empty.json",
    "broken.json",
    "float-world.json",
    "string-weights.json",
    "big-weights.json",
    "null-weights.json",
    "object-weights.json",
    "deep.json",
    "deep-symbol.json",
    "not-utf-8.json",
    "one.json",
    "one_fps.json",
    "string-provenance.json",
    "two-index-fields.json",
    "h-sum-above.json",
    "h-sum-below.json",
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files of every kind a command may be handed, valid or not: those of ``_FUZZ_FILES``."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "world.json": sample_world(fair_coin(), 5000, seed=8).to_json(),
        "fps.json": fair_coin().to_json(),
        "chsh.json": chsh_distribution().to_json(),
        "h.json": uniform(RQST_TUPLES).to_json(),
        "p.json": uniform(ghz_mod.LHV_ASSIGNMENTS).to_json(),
        "empty.json": "",
        "broken.json": "{",
        "float-world.json": json.dumps({"alphabet": [0, 1], "indices": [0.5]}),
        "string-weights.json": json.dumps({"alphabet": [0, 1], "weights": "10"}),
        "big-weights.json": BIG_WEIGHT_SPACE,
        "null-weights.json": NULL_WEIGHT_SPACE,
        "object-weights.json": OBJECT_WEIGHT_SPACE,
        "deep.json": "[" * 200_000,
        "deep-symbol.json": DEEP_SYMBOL_SPACE,
        "one.json": ONE_SYMBOL_WORLD,
        "one_fps.json": ONE_SYMBOL_SPACE,
        "string-provenance.json": STRING_PROVENANCE_WORLD,
        "two-index-fields.json": TWO_INDEX_FIELDS_WORLD,
        "h-sum-above.json": H_SUM_ABOVE_SPACE,
        "h-sum-below.json": H_SUM_BELOW_SPACE,
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "not-utf-8.json").write_bytes(b"\xff{}")
    assert sorted(os.listdir(root)) == sorted(_FUZZ_FILES)
    return root


def _flag(name, values):
    return st.tuples(st.just(name), values.map(str))


def _fuzz_argv(root):
    """Argument lists: a command, then flags with valid, out-of-range or junk values."""
    paths = st.sampled_from(
        [str(root / name) for name in os.listdir(root)]
        + [str(root / "missing.json"), str(root / "no-dir" / "out.json")]
    )
    outputs = st.sampled_from([str(root / "out.json"), str(root / "no-dir" / "out.json")])
    junk = st.sampled_from(["x", "", "1e3", "-"])
    flags = st.one_of(
        _flag("--trials", st.one_of(st.integers(-3, 20000), junk)),
        _flag("--seed", st.one_of(st.integers(-1, 2**64), st.just("random"), junk)),
        _flag("--threads", st.one_of(st.integers(1, 3), junk)),
        _flag("--tolerance", st.one_of(st.floats(allow_nan=True, allow_infinity=True), junk)),
        _flag(
            "--blocks",
            st.one_of(
                st.lists(st.sampled_from([-1, 0, 1, 2, 3, 6, 40, 10**6]), max_size=3).map(
                    lambda ks: ",".join(map(str, ks))
                ),
                junk,
            ),
        ),
        _flag("--sweep", st.one_of(st.integers(-2, 300), junk)),
        _flag("--h-file", paths),
        _flag("--world-out", outputs),
    )
    h_file, world, fps = (str(root / name) for name in ("h.json", "world.json", "fps.json"))
    # Valid invocations to start from; a repeated flag overrides, as argparse reads the last.
    commands = st.one_of(
        st.sampled_from(
            [
                ["chsh", "--trials", "8000", "--seed", "1"],
                ["ghz", "--trials", "8000", "--seed", "1"],
                ["lhv", "chsh", "--sweep", "20", "--seed", "1"],
                ["lhv", "chsh", "--h-file", h_file],
                ["lhv", "chsh", "--h-file", h_file, "--trials", "4000", "--seed", "1"],
                ["lhv", "ghz"],
                ["battery", world, fps],
                ["chsh"],
                ["lhv"],
                ["nope"],
            ]
        ),
        st.tuples(st.just("battery"), paths, paths).map(list),
    )
    return st.tuples(commands, st.lists(flags, max_size=2)).map(
        lambda parts: parts[0] + [token for pair in parts[1] for token in pair]
    )


#: Each command's file slots, ``{}`` standing for the file handed to the slot
#: and ``{name}`` for the file ``name`` of the ``fuzz_files`` fixture.
_FILE_SLOTS = {
    "battery-world": "battery {} {fps.json}",
    "battery-space": "battery {world.json} {}",
    "lhv-chsh-h-file": "lhv chsh --h-file {}",
    "lhv-ghz-h-file": "lhv ghz --h-file {}",
}


#: A valid argument list for each invocation of ``cli._INVOCATIONS``, in
#: its order, with ``{name}`` for the file ``name`` of the ``fuzz_files``
#: fixture.
_VALID_INVOCATIONS = {
    "chsh": "chsh --trials 4000 --seed 1",
    "ghz": "ghz --trials 8000 --seed 1",
    "lhv chsh --sweep": "lhv chsh --sweep 20 --seed 1",
    "lhv chsh --trials": "lhv chsh --h-file {h.json} --trials 4000 --seed 1",
    "lhv chsh": "lhv chsh --h-file {h.json}",
    "lhv ghz": "lhv ghz",
    # The one-symbol world, where the length rule admits every --blocks to 64.
    "battery": "battery {one.json} {one_fps.json}",
}

#: A valid value for each flag some invocation reads, by its ``argparse`` name.
#: No invocation that does not read ``--world-out`` accepts it, so the path
#: is never written.
_FLAG_VALUES = {
    "trials": "8000",
    "seed": "1",
    "threads": "2",
    "tolerance": "0.5",
    "sweep": "20",
    "h_file": "{h.json}",
    "world_out": "{world-out.json}",
    "blocks": "1,2",
}


#: The outcome classes of an edge case besides a usage error: a report (exit
#: 0 or 1), or a run that starts to draw its 2**63 - 1 trials.
REPORT, DRAW = "report", "draw"


def _trials_edges(command, module):
    """``--trials`` at ``MIN_TRIALS - 1``, 0 and a negative, then at 2**63 - 1 and 2**63."""
    too_few = f"^{command} requires --trials >= {module.MIN_TRIALS}$"
    return [(f"--trials {t}", too_few) for t in (module.MIN_TRIALS - 1, 0, -1)] + [
        (f"--trials {2**63 - 1}", DRAW),
        (f"--trials {2**63}", f"^{re.escape(TRIALS_BEYOND)}$"),
    ]


_SEED_EDGES = [
    (f"--seed {2**64}", "^--seed must be a 64-bit unsigned integer$"),
    ("--seed -1", "^--seed must be a 64-bit unsigned integer$"),
    (f"--seed {2**64 - 1}", REPORT),
]
_THREADS_EDGES = [("--threads 0", "^--threads must be at least 1$")]
#: No memory holds a world of 2**62 trials, so keeping it is refused.
_WORLD_BEYOND = (
    f"--trials {2**62} --world-out {{world-out.json}}",
    f"^too little memory for a world of {2**62} symbols$",
)
_WORLD_OUT_EDGES = [
    ("--world-out {no-dir/world.json}", "^cannot write --world-out file '.*world.json': "),
    ("--world-out=", "^--world-out path '' names no file$"),
]
_H_FILE_EDGES = [
    ("--h-file=", "^--h-file path '' names no file$"),
    ("--h-file {big-weights.json}", "^invalid hidden-variable file '.*': weights must be finite$"),
    ("--h-file {missing.json}", "^cannot read hidden-variable file '.*missing.json': "),
]
_H_SUM_EDGES = [("--h-file {h-sum-above.json}", REPORT), ("--h-file {h-sum-below.json}", REPORT)]

#: Each invocation's cases at the edge values of the flags it reads, in
#: ``cli._INVOCATIONS`` order: the words added to its argument list in
#: ``_VALID_INVOCATIONS`` (``argparse`` reads the last of a repeated flag),
#: and the outcome, a usage error's message pattern or a class above.
_EDGE_CASES = {
    "chsh": [
        *_trials_edges("chsh", chsh_mod),
        _WORLD_BEYOND,
        *_SEED_EDGES,
        *_THREADS_EDGES,
        *_WORLD_OUT_EDGES,
    ],
    "ghz": [
        *_trials_edges("ghz", ghz_mod),
        _WORLD_BEYOND,
        *_SEED_EDGES,
        *_THREADS_EDGES,
        *_WORLD_OUT_EDGES,
    ],
    "lhv chsh --sweep": [
        ("--sweep -1", "^--sweep must be non-negative, got -1$"),
        ("--sweep 0", REPORT),
        *_SEED_EDGES,
    ],
    "lhv chsh --trials": [
        *_trials_edges("lhv chsh", chsh_mod),
        *_SEED_EDGES,
        *_THREADS_EDGES,
        *_H_FILE_EDGES,
        *_H_SUM_EDGES,
    ],
    "lhv chsh": [*_H_FILE_EDGES, *_H_SUM_EDGES],
    "lhv ghz": _H_FILE_EDGES,
    "battery": [
        *[
            (f"--tolerance {raw}", "^significance must be in \\(0, 1\\)$")
            for raw in ("nan", "inf", "0", "-1")
        ],
        ("--blocks 0", "^block_len must be from 1 to 64, got 0$"),
        ("--blocks -1", "^block_len must be from 1 to 64, got -1$"),
        ("--blocks 1,1", "^block_lens must be one or more distinct block lengths, got \\(1, 1\\)$"),
        ("--blocks=", "^block_lens must be one or more distinct block lengths, got \\(\\)$"),
        ("--blocks 64", REPORT),
        ("--blocks 65", "^block_len must be from 1 to 64, got 65$"),
    ],
}


class _Drawn(Exception):
    """Raised in place of a draw, with its length."""


def _fuzz_words(root, template):
    """``template``'s words, with each ``{name}`` made the path of the file ``name`` in ``root``."""
    return [str(root / word[1:-1]) if word[0] == "{" else word for word in template.split()]


class TestMainFuzz:
    """Every invocation ends in a report (exit 0 or 1) or a JSON usage error (exit 2)."""

    def test_every_unread_flag_is_a_usage_error(self, capsys, fuzz_files):
        # Each invocation runs as it is, and then once with each flag it does
        # not read, in a fixed order; a flag that names another invocation of
        # the same command (``lhv chsh`` with ``--trials``) is that invocation.
        invocations = cli_mod._INVOCATIONS
        assert list(_VALID_INVOCATIONS) == list(invocations)
        flags = set().union(*(read for _, read, _ in invocations.values()))
        assert set(_FLAG_VALUES) == flags
        for mode, (_, flags_read, _) in invocations.items():
            argv = _fuzz_words(fuzz_files, _VALID_INVOCATIONS[mode])
            status, out, _ = run_cli(capsys, argv)
            assert status in (0, 1) and strict_json(out)["protocol"], argv
            for flag in sorted(flags - flags_read):
                option = "--" + flag.replace("_", "-")
                if f"{mode} {option}" in invocations:
                    continue
                extra = [option, *_fuzz_words(fuzz_files, _FLAG_VALUES[flag])]
                status, out, err = run_cli(capsys, argv + extra)
                assert (status, out, len(err.splitlines())) == (2, "", 1), argv + extra
                error = json.loads(err)["error"]
                assert error["code"] == "usage"
                assert "does not use --" in error["message"], error

    @pytest.mark.parametrize("command", ["chsh", "ghz", "lhv", "battery"])
    def test_help_lists_the_flags_read(self, capsys, command):
        # The flags the command's invocations read, and no other.
        invocations = cli_mod._INVOCATIONS.items()
        read = set().union(*(e[1] for mode, e in invocations if mode.split()[0] == command))
        expected = {"--" + flag.replace("_", "-") for flag in read}
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert shown == expected

    def test_every_flag_has_a_reader(self, capsys):
        # So removing a flag's last reader removes the flag; --format and chsh's
        # --tolerance are gone, and no help offers them.
        read = set().union(*(flags for _, flags, _ in cli_mod._INVOCATIONS.values()))
        assert set(cli_mod._FLAGS) <= read
        for command in ("chsh", "ghz", "lhv", "battery"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert "--format" not in shown
            assert command != "chsh" or "--tolerance" not in shown

    def test_every_read_flag_at_its_edge_values(self, capsys, monkeypatch, fuzz_files):
        invocations = cli_mod._INVOCATIONS
        assert list(_EDGE_CASES) == list(invocations)

        def drawn(fps, length, *args, **kwargs):
            raise _Drawn(length)

        for mode, (_, flags_read, _) in invocations.items():
            named = {
                word[2:].split("=")[0].replace("-", "_")
                for extra, _ in _EDGE_CASES[mode]
                for word in extra.split()
                if word.startswith("--")
            }
            assert named == flags_read, mode
            for extra, outcome in _EDGE_CASES[mode]:
                argv = _fuzz_words(fuzz_files, f"{_VALID_INVOCATIONS[mode]} {extra}")
                if outcome == DRAW:
                    with monkeypatch.context() as patch, pytest.raises(_Drawn) as raised:
                        patch.setattr(worlds_mod, "tally", drawn)
                        main(argv)
                    assert raised.value.args == (2**63 - 1,), argv
                    assert capsys.readouterr() == ("", ""), argv
                    continue
                status, out, err = run_cli(capsys, argv)
                if outcome == REPORT:
                    assert status in (0, 1) and strict_json(out)["protocol"], argv
                    assert err == "", argv
                    continue
                assert (status, out, len(err.splitlines())) == (2, "", 1), argv
                line = json.loads(err)
                assert sorted(line) == ["error", "schema"] and line["error"]["code"] == "usage"
                assert re.search(outcome, line["error"]["message"]), (argv, line)

    @staticmethod
    def assert_report_or_usage_error(argv, status, out, err):
        assert status in (0, 1, 2), (argv, status)
        assert "Traceback" not in err
        if status == 2:
            *before, last = err.splitlines()
            assert all(line.startswith("seed: ") for line in before), err
            assert json.loads(last)["error"]["code"] == "usage"

    @pytest.mark.parametrize("name", _FUZZ_FILES)
    @pytest.mark.parametrize("slot", _FILE_SLOTS)
    def test_every_file_in_every_slot(self, capsys, fuzz_files, slot, name):
        argv = [
            str(fuzz_files / (name if word == "{}" else word[1:-1])) if word[0] == "{" else word
            for word in _FILE_SLOTS[slot].split()
        ]
        status, out, err = run_cli(capsys, argv)
        self.assert_report_or_usage_error(argv, status, out, err)
        if status == 2:
            assert out == "" and len(err.splitlines()) == 1
        else:
            assert strict_json(out)["protocol"]

    def test_any_argv(self, fuzz_files):
        @settings(
            max_examples=120,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(argv=_fuzz_argv(fuzz_files))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            self.assert_report_or_usage_error(argv, status, out.getvalue(), err.getvalue())

        check()


#: The leaves of the JSON documents below: integers beyond the float range,
#: NaN and the infinities among them.
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),
    st.sampled_from([10**309, -(10**309), 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_READER_FIELDS = ("alphabet", "weights", "indices", "symbols", "provenance")
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(_READER_FIELDS), inner, max_size=5),
    ),
    max_leaves=16,
)
#: JSON documents: any value, or an object holding some of the readers' fields.
_json_documents = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {},
        optional={
            field: st.one_of(st.lists(_json_leaves, max_size=4), _json_values)
            for field in _READER_FIELDS
        },
    ),
)


class TestReaderFuzz:
    """Each file reader returns, or raises one of the errors ``cli._load`` reports."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(document=_json_documents)
    @example(document={"alphabet": [], "weights": [10**400]})
    def test_any_json_document(self, document):
        text = json.dumps(document)
        for read in (FiniteProbabilitySpace.from_json, WorldPrefix.from_json):
            try:
                read(text)
            except (ValueError, RecursionError):
                pass


class TestTracedHarness:
    """The benchmark's tracing harness still finds the names it wraps."""

    def trace(self, tmp_path, argv):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spans = tmp_path / "spans.json"
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(root, "perfbench", "traced_cli.py"),
                str(spans),
                str(tmp_path / "report.json"),
                *argv,
            ],
            env=_with_src(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        trace = json.loads(spans.read_text())
        assert trace["exit"] == 0
        return [span[2] for span in trace["spans"]], trace["counts"]

    @pytest.mark.parametrize("command", ["chsh", "ghz"])
    def test_one_operator_distribution_span(self, command, tmp_path):
        names, _ = self.trace(tmp_path, [command, "--trials", "8000", "--seed", "1"])
        assert names.count("linalg.operator_dist") == 1

    def test_battery_spans(self, tmp_path):
        # One battery of a saved world, testing block lengths 1, 2 and 3;
        # the run that saved it tests its coin pairs from the symbol counts.
        world, space = tmp_path / "world.json", tmp_path / "fps.json"
        space.write_text(chsh_distribution().to_json())
        names, _ = self.trace(
            tmp_path, ["chsh", "--trials", "200000", "--seed", "1", "--world-out", str(world)]
        )
        assert "battery.run_battery" not in names
        names, counts = self.trace(tmp_path, ["battery", str(world), str(space)])
        assert names.count("battery.run_battery") == 1
        assert counts["battery.tests"] == 3
