"""The ``lhv chsh --sweep`` report against a plain-Python reference, field by field.

The reference shares no numpy call with the package.  Its words come from
the pure-Python Philox4x64-10 of ``test_philox_reference``, keyed on the
seed: words 15k to 15k + 14 of the stream make distribution k.  Each
word's top 53 bits, ``w >> 11``, cut [0, 2**53], and the distribution's
16 weights are the gaps from 0 through the sorted cuts to 2**53, over
2**53, one per value tuple x = (r, q, s, t) in lexicographic order.  Each
tuple contributes rs + qs + rt - qt to the s-value, as PAPER.md defines
it, so every s-value is a Python integer over 2**53.  The report's
``max_s_value`` must be the largest of them exactly, at most 2; the
vertices, the point masses on each tuple, reach 2 exactly.  Every field,
the ``chsh-bound`` check, ``failures`` and the exit status must match
exactly.

The counts cover an empty sweep, a single draw, two seeds of 1000 draws,
and 1025 draws, whose last block of the package's 1024-row blocks holds
one row.  At seed 3961 that row holds the maximum, so a sweep that drops
its last partial block shows.
"""

import contextlib
import functools
import io
import json

import pytest

from test_lhv_chsh_reference import LOCAL_BOUND, TUPLES, bound_check
from test_philox_reference import block_words
from typicality_lab.cli import main

#: (count, seed) of each sweep compared.
CASES = [(0, 1), (1, 5), (1000, 3), (1000, 7), (1025, 3961)]

#: Each tuple's rs + qs + rt - qt, in the tuples' order.
COEFFICIENTS = [r * s + q * s + r * t - q * t for r, q, s, t in TUPLES]

ONE = 2**53


@functools.lru_cache(maxsize=None)
def s_numerators(count, seed):
    """2**53 times the s-value of each drawn distribution, in draw order, as integers."""
    words = block_words(seed, 0, 15 * count)
    numerators = []
    for k in range(count):
        cuts = [0, *sorted(w >> 11 for w in words[15 * k : 15 * k + 15]), ONE]
        gaps = [b - a for a, b in zip(cuts, cuts[1:])]
        assert sum(gaps) == ONE and min(gaps) >= 0
        numerators.append(sum(n * c for n, c in zip(gaps, COEFFICIENTS)))
    return numerators


def reference_report(count, seed):
    """The report of ``lhv chsh --sweep count --seed seed`` and its exit status."""
    numerators = s_numerators(count, seed)
    # An integer of at most 2**54 over a power of two: the float is exact.
    random_max = max(numerators) / ONE if numerators else None
    vertex_max = float(max(COEFFICIENTS))
    check, failures = bound_check(max(vertex_max, random_max or 0.0))
    report = {
        "schema": 7,
        "protocol": "lhv-chsh",
        "sweep": {
            "max_s_value": random_max,
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


@pytest.mark.parametrize(("count", "seed"), CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_report_matches_the_reference(count, seed):
    argv = ["lhv", "chsh", "--sweep", str(count), "--seed", str(seed)]
    expected, expected_status = reference_report(count, seed)
    random_max = expected["sweep"]["max_s_value"]
    assert random_max is None or abs(random_max) <= 2

    text, status = run_text(argv)
    got = json.loads(text)
    got["failures"] = [f["check"] for f in got["failures"]]
    # As JSON text, so that 2.0 is not 2 and True is not 1.
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert status == expected_status == 0


def test_the_last_row_of_1025_holds_the_maximum():
    numerators = s_numerators(1025, 3961)
    assert max(numerators) == numerators[-1] > max(numerators[:-1])
