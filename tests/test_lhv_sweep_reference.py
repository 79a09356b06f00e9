"""The ``lhv chsh --sweep`` report against a plain-Python reference, field by field.

The weights are the one thing the reference takes from numpy: one
``Generator(Philox(key=seed)).standard_exponential((count, 16))`` draw,
each row divided by its own sum, since plain Python cannot redraw the
ziggurat exponentials cheaply.  Everything after the draw is its own.
Each value tuple x = (r, q, s, t) contributes rs + qs + rt - qt to the
s-value, as PAPER.md defines it, and each row's s-value is summed
exactly in ``fractions.Fraction``.  The exact maximum must be at most 2,
and the report's ``max_s_value`` within 2 ulps of it; the vertices, the
point masses on each tuple, reach 2 exactly.  Every other field, the
``chsh-bound`` check, ``failures``, the exit status and the CSV view must
match exactly.

The counts cover an empty sweep, a single draw, two seeds of 1000 draws,
and 1025 draws, whose last block of the package's 1024-row blocks holds
one row.  At seed 775 that row holds the maximum, so a sweep that drops
its last partial block shows.
"""

import contextlib
import csv
import functools
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from test_lhv_chsh_reference import LOCAL_BOUND, TUPLES, bound_check
from typicality_lab.cli import main

#: (count, seed) of each sweep compared.
CASES = [(0, 1), (1, 5), (1000, 3), (1000, 7), (1025, 775)]

#: Each tuple's rs + qs + rt - qt, in the tuples' order.
COEFFICIENTS = [r * s + q * s + r * t - q * t for r, q, s, t in TUPLES]


def exact_s_value(row):
    """The exact sum of a row's weights times the coefficients, as a Fraction.

    Each float weight is an integer over a power of two, so the sum is one
    integer over the largest of those powers.
    """
    ratios = [w.as_integer_ratio() for w in row]
    denominator = max(d for _, d in ratios)
    return Fraction(
        sum(n * c * (denominator // d) for (n, d), c in zip(ratios, COEFFICIENTS)), denominator
    )


@functools.lru_cache(maxsize=None)
def exact_s_values(count, seed):
    """The exact s-value of each drawn distribution, in draw order."""
    draw = np.random.Generator(np.random.Philox(key=seed)).standard_exponential((count, 16))
    return [exact_s_value(row) for row in (draw / draw.sum(axis=1, keepdims=True)).tolist()]


def reference_report(count, seed):
    """The report of ``lhv chsh --sweep count --seed seed`` and its exit status.

    Its ``max_s_value`` is the exact maximum as a Fraction, or None for an empty sweep.
    """
    exact = max(exact_s_values(count, seed), default=None)
    vertex_max = float(max(COEFFICIENTS))
    check, failures = bound_check(float(max(Fraction(vertex_max), exact or 0)))
    report = {
        "schema": 6,
        "protocol": "lhv-chsh",
        "sweep": {
            "max_s_value": exact,
            "vertex_max_s_value": vertex_max,
            "num_random": count,
            "num_vertices": len(TUPLES),
            "seed": seed,
            "bound": LOCAL_BOUND,
            "bound_ok": check["passed"],
        },
        "checks": [check],
        "failures": failures,
    }
    return report, 1 if failures else 0


def run_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return out.getvalue(), status


def assert_near_exact(got, exact):
    """``got`` is a float within 2 ulps of the Fraction ``exact``, or both are None."""
    if exact is None:
        assert got is None
        return
    assert isinstance(got, float)
    assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize(("count", "seed"), CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_report_matches_the_reference(count, seed):
    argv = ["lhv", "chsh", "--sweep", str(count), "--seed", str(seed)]
    expected, expected_status = reference_report(count, seed)
    exact = expected["sweep"]["max_s_value"]
    assert exact is None or exact <= 2

    text, status = run_text(argv)
    got = json.loads(text)
    assert_near_exact(got["sweep"]["max_s_value"], exact)
    got["sweep"]["max_s_value"] = expected["sweep"]["max_s_value"] = None
    got["failures"] = [f["check"] for f in got["failures"]]
    # As JSON text, so that 2.0 is not 2 and True is not 1.
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert status == expected_status == 0

    text, status = run_text(argv + ["--format", "csv"])
    header, row = csv.reader(io.StringIO(text))
    assert header == ["max_s_value", "vertex_max_s_value", "num_random", "bound_ok"]
    assert_near_exact(float(row[0]) if row[0] else None, exact)
    sweep = expected["sweep"]
    assert row[1:] == [repr(sweep["vertex_max_s_value"]), str(count), str(sweep["bound_ok"])]
    assert status == expected_status


def test_the_last_row_of_1025_holds_the_maximum():
    s_values = exact_s_values(1025, 775)
    assert max(s_values) == s_values[-1] > max(s_values[:-1])
