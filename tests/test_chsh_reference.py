"""The ``chsh`` report against a plain-Python reference, field by field.

The reference shares no code with the package past its own test helpers.
It writes the closed form P(c, d, m, n) = [1 + (-1)^(cd) m n / sqrt 2] / 16,
each weight taken to 60 digits in ``decimal`` and rounded once to a float,
over the sampling order (coins outermost, 0 before 1, +1 before -1), draws
the world with the pure-Python Philox4x64-10 of ``test_philox_reference``
and a ``bisect`` inverse CDF, counts each coin pair's outcomes in dicts,
and derives from those counts every figure of the report: the four
averages, the s-value and its ``SIGMAS`` tolerance, each coin pair's chi-square statistic and its
p-value (3 degrees of freedom, in closed form), the Holm-adjusted
p-values of the four, the checks (the coin pairs' in the order 00, 01, 10,
11), ``failures`` and the exit status.

Integers, strings, booleans and the exit status must match exactly, and
every other float within 1e-12 relative.  The one figure the reference
does not derive is ``cross_check.max_abs_diff``, the rounding gap between
two float computations of the same weights: it is only required to be
within the cross-check's tolerance.  The seeds were fixed before any
report was looked at.
"""

import bisect
import contextlib
import decimal
import io
import itertools
import json
import math

import pytest

from test_philox_reference import block_uniforms
from typicality_lab import chsh as chsh_mod
from typicality_lab.cli import main

TRIALS = 8000
SEEDS = [1, 77, 2**64 - 1]
SIGMAS = 4.0
ATOL = 1e-12
REL = 1e-12

#: Each conditional average, by the coin pair it is taken on.
AVERAGES = {"rs": (0, 0), "qs": (1, 0), "rt": (0, 1), "qt": (1, 1)}
OUTCOMES = list(itertools.product((0, 1), (0, 1), (1, -1), (1, -1)))


def closed_form(c, d, m, n):
    """The weight of outcome ``(c, d, m, n)``, correctly rounded."""
    sign = -1 if c == d == 1 else 1
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float((1 + sign * m * n / decimal.Decimal(2).sqrt()) / 16)


def chi2_sf_3(x):
    """Upper tail of the chi-square law with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def holm(p_values):
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    adjusted, running = [0.0] * len(p_values), 0.0
    for rank, i in enumerate(order):
        running = max(running, min(1.0, (len(p_values) - rank) * p_values[i]))
        adjusted[i] = running
    return adjusted


def check(name, value, relation, bound):
    passed = value <= bound if relation == "<=" else value >= bound
    return {"name": name, "value": value, "relation": relation, "bound": bound, "passed": passed}


def reference_report(seed, sigmas=SIGMAS, max_abs_diff=0.0):
    """The report and exit status of ``chsh --trials TRIALS --seed seed``, its band ``sigmas`` wide.

    The coin pairs' family keeps the rate of the ``SIGMAS`` band.
    """
    weights = [closed_form(*o) for o in OUTCOMES]
    cum = list(itertools.accumulate(weights))
    cum[-1] = 1.0  # the last positive weight's boundary is pinned to 1
    uniforms = block_uniforms(seed, 0, TRIALS)
    counts = dict.fromkeys(OUTCOMES, 0)
    for u in uniforms:
        counts[OUTCOMES[bisect.bisect_right(cum, u)]] += 1

    averages, cell_counts, cell_tests = {}, {}, {}
    for name, (c, d) in AVERAGES.items():
        cell = {(m, n): counts[(c, d, m, n)] for m in (1, -1) for n in (1, -1)}
        total = sum(cell.values())
        plus = cell[(1, 1)] + cell[(-1, -1)]
        averages[name] = (plus - (total - plus)) / total
        cell_counts[name] = total
        mass = sum(closed_form(c, d, m, n) for m, n in cell)
        expected = [total * closed_form(c, d, m, n) / mass for m, n in cell]
        statistic = sum((o - e) ** 2 / e for o, e in zip(cell.values(), expected))
        cell_tests[f"{c}{d}"] = {
            "block_len": 1, "dof": 3, "n_blocks": total, "statistic": statistic,
            "p_value": chi2_sf_3(statistic), "zero_cells": 0, "zero_cell_hits": 0,
        }
    s_value = averages["rs"] + averages["qs"] + averages["rt"] - averages["qt"]
    rate = math.erfc(SIGMAS / math.sqrt(2.0))
    adjusted = holm([t["p_value"] for t in cell_tests.values()])
    for test, p in zip(cell_tests.values(), adjusted):
        test.update(adjusted_p_value=p, significance=rate, **{"pass": p >= rate})

    s_target = 2.0 * math.sqrt(2.0)
    # Given the counts n, each average has variance 0.5 / n, and the four are independent.
    tolerance = sigmas * math.sqrt(sum(0.5 / n for n in cell_counts.values()))
    checks = [
        check("distribution-cross-check", max_abs_diff, "<=", ATOL),
        check("s-value", abs(s_value - s_target), "<=", tolerance),
    ] + [
        check(f"block-frequency-k1-cell-{cell}", test["adjusted_p_value"], ">=", rate)
        for cell, test in sorted(cell_tests.items())
    ]
    failures = [c["name"] for c in checks if not c["passed"]]
    report = {
        "schema": 7,
        "protocol": "chsh",
        "method": "typical-sampling",
        "trials": TRIALS,
        "seed": seed,
        "averages": averages,
        "counts": cell_counts,
        "s_value": s_value,
        "cell_tests": cell_tests,
        "s_target": s_target,
        "s_tolerance": tolerance,
        "cross_check": {"max_abs_diff": max_abs_diff, "tolerance": ATOL, "pass": True},
        "checks": checks,
        "failures": failures,
    }
    return report, 1 if failures else 0


def assert_same(got, expected, path="report"):
    """Dict keys, list lengths, integers, strings and booleans exactly; floats to ``REL``."""
    if isinstance(expected, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(expected, rel=REL, abs=0.0), path
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(expected), path
        for key in expected:
            assert_same(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), path
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same(g, e, f"{path}[{i}]")
    else:
        assert type(got) is type(expected) and got == expected, path


def run_chsh_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return json.loads(out.getvalue()), status


@pytest.mark.parametrize(
    "seed, sigmas",
    [(seed, SIGMAS) for seed in SEEDS] + [(SEEDS[0], 1e-9)],
    ids=[str(seed) for seed in SEEDS] + [f"{SEEDS[0]}-sigmas-1e-9"],
)
def test_report_matches_the_reference(seed, sigmas, monkeypatch):
    # A band of 1e-9 standard deviations, planted in the package, is one no sampled run meets.
    monkeypatch.setattr(chsh_mod, "SIGMAS", sigmas)
    got, status = run_chsh_command(["chsh", "--trials", str(TRIALS), "--seed", str(seed)])
    max_abs_diff = got["cross_check"]["max_abs_diff"]
    assert 0.0 <= max_abs_diff <= ATOL
    expected, expected_status = reference_report(seed, sigmas, max_abs_diff)
    # A failure's detail restates its check's value and bound.
    got["failures"] = [f["check"] for f in got["failures"]]
    assert_same(got, expected)
    assert status == expected_status
    assert status == (0 if sigmas == SIGMAS else 1)


def test_chi2_sf_3_is_the_chi_square_tail():
    stats = pytest.importorskip("scipy.stats")
    for x in (0.01, 0.5, 3.0, 7.8, 25.0, 60.0):
        assert chi2_sf_3(x) == pytest.approx(stats.chi2.sf(x, 3), rel=1e-12)


def test_closed_form_is_correctly_rounded():
    # Half the weights are (2 - sqrt 2) / 32, which a float evaluation of
    # (1 - 1/sqrt 2) / 16 rounds three times and misses by one ulp.
    assert closed_form(0, 0, 1, -1) == float.fromhex("0x1.2bec333018867p-6")
    assert closed_form(0, 0, 1, 1) == float.fromhex("0x1.b504f333f9de6p-4")
    assert (1.0 - 1.0 / math.sqrt(2.0)) / 16.0 == float.fromhex("0x1.2bec333018868p-6")
