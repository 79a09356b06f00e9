"""The ``battery`` report against a plain-Python reference, field by field.

The reference shares no code with the package past its own test helpers.
It reads the world and space files with ``json``, histograms the
non-overlapping length-k blocks of the world as tuples in a dict (the
trailing partial block is dropped), weighs each block by the product of
its symbols' weights, and sums the chi-square statistic with
``math.fsum``.  Its upper tail is taken in closed form in 50-digit
``decimal`` arithmetic: for ``h = x / 2``, the sum of ``e**-h h**a / a!``
over ``a = 0 .. dof/2 - 1`` for an even ``dof``, and over ``a = 1/2 ..
dof/2 - 1`` plus ``erfc(sqrt(h))`` for an odd one; the package's
``_chi2_sf`` is held to it within a few ulps on a grid of ``x`` and dof.
The tests of one report are one family: their p-values are adjusted by
Holm's step-down procedure in plain Python, and each test passes when
its adjusted p-value is at least the significance.  From those it builds every test entry, the
checks, ``failures`` and the exit status.

The inputs are the golden world and space files of
``test_golden_reports``: a 200000-symbol CHSH world over 16 symbols, and
one coin pair's subsequence over 4.  Integers, strings, booleans and the
exit status must match exactly, and every other float within 1e-12
relative, as in ``test_chsh_reference``.
"""

import contextlib
import decimal
import functools
import io
import itertools
import json
import math

import pytest

from test_chsh_reference import REL, assert_same, holm
from test_golden_reports import write_inputs
from typicality_lab.battery import _chi2_sf
from typicality_lab.cli import main

#: The tolerances the golden reports run at: passing, failing none, failing all.
TOLERANCES = [0.2, 1e-6, 0.999]
#: pi to 50 digits, for the half-integer gamma function.
PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def chi2_sf(x, dof):
    """Upper tail ``P(X >= x)`` of the chi-square law with integer ``dof``."""
    if x <= 0.0:
        return 1.0
    if dof == 0 or math.isinf(x):
        return 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        h = decimal.Decimal(x) / 2
        if dof % 2:
            # e**-h h**(1/2) / Gamma(3/2), then each term times h / (a + 1).
            term, a = (-h).exp() * h.sqrt() * 2 / PI.sqrt(), decimal.Decimal("0.5")
            tail = decimal.Decimal(math.erfc(math.sqrt(x / 2.0)))
        else:
            term, a, tail = (-h).exp(), decimal.Decimal(0), decimal.Decimal(0)
        for _ in range(dof // 2):
            tail += term
            a += 1
            term = term * h / a
        return min(1.0, float(tail))


@functools.lru_cache
def read_json(path):
    with open(path) as f:
        return json.load(f)


@functools.lru_cache
def block_test(world_path, fps_path, k):
    """The test entry of block length ``k``, short of its significance and decision."""
    indices, weights = read_json(world_path)["indices"], read_json(fps_path)["weights"]
    n_blocks = len(indices) // k
    observed = {}
    for start in range(0, n_blocks * k, k):
        block = tuple(indices[start : start + k])
        observed[block] = observed.get(block, 0) + 1
    statistic_terms, zero_cells, zero_hits = [], 0, 0
    for block in itertools.product(range(len(weights)), repeat=k):
        p = math.prod(weights[i] for i in block)
        if p == 0.0:
            zero_cells += 1
            zero_hits += observed.get(block, 0)
            continue
        expected = n_blocks * p
        statistic_terms.append((observed.get(block, 0) - expected) ** 2 / expected)
    dof = len(weights) ** k - zero_cells - 1
    statistic = math.inf if zero_hits else math.fsum(statistic_terms)
    return {
        "block_len": k,
        "statistic": statistic if math.isfinite(statistic) else None,
        "p_value": chi2_sf(statistic, dof),
        "dof": dof,
        "n_blocks": n_blocks,
        "zero_cells": zero_cells,
        "zero_cell_hits": zero_hits,
    }


def reference_report(world_path, fps_path, blocks, significance):
    """The report and exit status of ``battery world fps --blocks ... --tolerance ...``."""
    world, fps = read_json(world_path), read_json(fps_path)
    assert world["alphabet"] == fps["alphabet"]
    n_sym, length = len(fps["alphabet"]), len(world["indices"])
    for k in blocks:
        if k * n_sym**k > length / 10:
            message = f"world too short for block_len {k}: need length >= {10 * k * n_sym**k}, "
            error = {"code": "usage", "message": f"{message}got {length}"}
            return {"error": error, "schema": 7}, 2
    tests = [block_test(world_path, fps_path, k) for k in blocks]
    tests = [
        {**test, "adjusted_p_value": p, "significance": significance, "pass": p >= significance}
        for test, p in zip(tests, holm([t["p_value"] for t in tests]))
    ]
    checks = [
        {"name": f"block-frequency-k{t['block_len']}", "value": t["adjusted_p_value"],
         "relation": ">=", "bound": significance, "passed": t["pass"]}
        for t in tests
    ]
    failures = [c["name"] for c in checks if not c["passed"]]
    report = {
        "schema": 7,
        "protocol": "battery",
        "world_length": length,
        "significance": significance,
        "tests": tests,
        "passed": sum(t["pass"] for t in tests),
        "total": len(tests),
        "all_pass": all(t["pass"] for t in tests),
        "checks": checks,
        "failures": failures,
    }
    return report, 1 if failures else 0


def run_command(argv):
    """The exit status, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize(
    "world, fps, blocks",
    [("world", "fps", "1,2,3"), ("cell", "cell_fps", "1,2,3,4"), ("world", "fps", "4")],
    ids=["world", "cell", "world-k4"],
)
def test_report_matches_the_reference(files, world, fps, blocks, tolerance):
    argv = ["battery", str(files[world]), str(files[fps]), "--blocks", blocks]
    argv += ["--tolerance", repr(tolerance)]
    block_lens = [int(k) for k in blocks.split(",")]
    expected, expected_status = reference_report(files[world], files[fps], block_lens, tolerance)
    status, out, err = run_command(argv)
    assert status == expected_status
    if status == 2:
        assert out == ""
        assert_same(json.loads(err), expected)
        return
    assert err == ""
    got = json.loads(out)
    # A failure's detail restates its check's value and bound.
    got["failures"] = [f["check"] for f in got["failures"]]
    assert_same(got, expected)


def test_the_reference_decides_every_way(files):
    # The golden world passes every test at 0.2 and fails at 0.999, at k = 2
    # alone.  The cell's smallest p-value is above 1/4, so its family of four
    # adjusts each to 1 and passes at every significance, although each
    # test alone would fail at 0.999.  k = 4 on the 16-symbol world is too
    # short, as 4 * 16**4 > 200000 / 10.
    world = [reference_report(files["world"], files["fps"], [1, 2, 3], t) for t in (0.2, 0.999)]
    assert [status for _, status in world] == [0, 1]
    assert world[1][0]["failures"] == ["block-frequency-k2"]
    for tolerance in TOLERANCES:
        cell, status = reference_report(files["cell"], files["cell_fps"], [1, 2, 3, 4], tolerance)
        assert status == 0 and {t["adjusted_p_value"] for t in cell["tests"]} == {1.0}
        assert all(t["p_value"] < 0.999 for t in cell["tests"])
    error, status = reference_report(files["world"], files["fps"], [4], 0.2)
    assert status == 2
    assert error["error"]["message"] == (
        "world too short for block_len 4: need length >= 2621440, got 200000"
    )


@pytest.mark.parametrize("dof", [1, 2, 3, 15, 16, 31, 255, 4095, 16383, 65535])
def test_package_chi2_sf_is_the_reference_to_the_last_digits(dof):
    # x = dof + z sqrt(2 dof), on both sides of dof: within 2e-15 out to four
    # standard deviations, and within 1e-14 in the upper tail beyond, where
    # the largest term's exponent, rounded once, is some tens.
    for z, bound in [(k / 2, 2e-15) for k in range(-8, 9)] + [(z, 1e-14) for z in (5, 6, 7, 8)]:
        x = dof + z * math.sqrt(2.0 * dof)
        if x > 0.0:
            expected = chi2_sf(x, dof)
            assert abs(_chi2_sf(x, dof) - expected) <= bound * expected, (x, dof)


def test_chi2_sf_is_the_chi_square_tail():
    stats = pytest.importorskip("scipy.stats")
    for x, dof in ((0.5, 1), (9.9, 15), (7.8, 3), (266.0, 255), (3944.2, 4095), (4400.0, 4096)):
        assert chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=REL)
