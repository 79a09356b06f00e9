"""The ``lhv chsh --h-file`` reports against plain-Python references, field by field.

The reference shares no code with the package past its own test helpers.
It reads the hidden-variable file as JSON, draws rounds of the value
tuple x = (r, q, s, t) with two fair coins, one symbol (x, c, d) per
round with the coins innermost and x in the file's own order, from the
pure-Python Philox4x64-10 of ``test_philox_reference`` and a ``bisect``
inverse CDF, and counts them in dicts.  Party A reveals r on coin 0 and q
on coin 1, party B s on coin 0 and t on coin 1.  From the counts it
derives the four averages and the s-value's Hoeffding band
``sqrt(2 ln(2 / rate) sum 1/n)`` over the coin pairs' counts ``n``, at the
rate ``2 Phi(-SIGMAS)``; from the file alone the nested ``exact`` report,
each average an exactly rounded sum; then the ``chsh-bound`` check on the
exact s-value, the ``s-value`` check of the simulated one against the
exact one, ``failures`` and the exit status.

Two files are read: one listing the value tuples in ``RQST_TUPLES``
order, and one in a shuffled order that ends on a tuple of weight zero.
Integers, strings, booleans and the exit status must match exactly, and
every other float within 1e-12 relative.  The seeds were fixed before any
report was looked at.

Without ``--trials`` the report holds the exact averages alone.  Each is
the ``fractions.Fraction`` sum of the file's weights times the products,
and the report's float must be that sum correctly rounded, exactly; the
s-value is ``rs + qs + rt - qt`` of those floats.  That reference also
reads the golden uniform file.
"""

import bisect
import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from test_chsh_reference import assert_same
from test_philox_reference import block_uniforms
from typicality_lab.cli import main

TRIALS = 8000
SEEDS = [4, 1234, 2**63]
SIGMAS = 4.0
ATOL = 1e-12
LOCAL_BOUND = 2.0

#: The value tuples (r, q, s, t) in lexicographic order over (+1, -1).
TUPLES = list(itertools.product((1, -1), repeat=4))


def ordered_h():
    """Weights (i + 1) / 136 in lexicographic order: no two alike, summing to one."""
    return {"alphabet": [list(x) for x in TUPLES], "weights": [(i + 1) / 136 for i in range(16)]}


def shuffled_h():
    """A fixed shuffle of the tuples; the last one listed has weight zero."""
    order = TUPLES[:]
    random.Random(20).shuffle(order)
    weights = [float(i % 5 + 1) for i in range(15)] + [0.0]
    total = sum(weights)
    return {"alphabet": [list(x) for x in order], "weights": [w / total for w in weights]}


def uniform_h():
    """The golden file: weight 1/16 on each tuple, in lexicographic order."""
    return {"alphabet": [list(x) for x in TUPLES], "weights": [1 / 16] * 16}


H_FILES = {"ordered": ordered_h, "shuffled": shuffled_h}

#: The files the exact reference reads.
EXACT_H_FILES = {**H_FILES, "uniform": uniform_h}


def average_name(c, d):
    return "rq"[c] + "st"[d]


def s_value(a):
    return a["rs"] + a["qs"] + a["rt"] - a["qt"]


def bound_check(s):
    """The ``chsh-bound`` check of an exact s-value, and the failures it makes."""
    value = abs(s)
    passed = value <= LOCAL_BOUND + ATOL
    check = {
        "name": "chsh-bound",
        "value": value,
        "relation": "<=",
        "bound": LOCAL_BOUND + ATOL,
        "passed": passed,
    }
    return check, [] if passed else ["chsh-bound"]


def reference_report(h, seed):
    """The report and exit status of ``lhv chsh --h-file h --trials TRIALS --seed seed``."""
    h_weights = {tuple(x): w for x, w in zip(h["alphabet"], h["weights"])}
    symbols = [(x, c, d) for x in h_weights for c in (0, 1) for d in (0, 1)]
    weights = [h_weights[x] * 0.5 * 0.5 for x, _, _ in symbols]
    cum = [min(total, 1.0) for total in itertools.accumulate(weights)]
    last = max(i for i, w in enumerate(weights) if w > 0)
    cum[last:] = [1.0] * (len(cum) - last)  # pinned from the last positive weight on
    counts = dict.fromkeys(symbols, 0)
    for u in block_uniforms(seed, 0, TRIALS):
        counts[symbols[bisect.bisect_right(cum, u)]] += 1

    exact, averages, cell_counts = {}, {}, {}
    for c, d in ((0, 0), (1, 0), (0, 1), (1, 1)):
        name = average_name(c, d)
        exact[name] = math.fsum(w * x[c] * x[2 + d] for x, w in h_weights.items())
        plus = minus = 0
        for (x, cc, dd), n in counts.items():
            if (cc, dd) == (c, d):
                if x[c] * x[2 + d] > 0:
                    plus += n
                else:
                    minus += n
        total = plus + minus
        averages[name] = (plus - minus) / total
        cell_counts[name] = total

    bound, failures = bound_check(s_value(exact))
    rate = math.erfc(SIGMAS / math.sqrt(2.0))
    s_tolerance = math.sqrt(2.0 * math.log(2.0 / rate) * sum(1.0 / n for n in cell_counts.values()))
    s_error = abs(s_value(averages) - s_value(exact))
    band = {"name": "s-value", "value": s_error, "relation": "<=", "bound": s_tolerance}
    band["passed"] = s_error <= s_tolerance
    failures += [] if band["passed"] else ["s-value"]
    report = {
        "schema": 7,
        "protocol": "lhv-chsh",
        "method": "lhv-simulated",
        "trials": TRIALS,
        "seed": seed,
        "averages": averages,
        "counts": cell_counts,
        "s_value": s_value(averages),
        "s_target": s_value(exact),
        "s_tolerance": s_tolerance,
        "exact": {"averages": exact, "method": "lhv-exact", "s_value": s_value(exact)},
        "checks": [bound, band],
        "failures": failures,
    }
    return report, 1 if failures else 0


def run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return json.loads(out.getvalue()), status


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(H_FILES))
def test_report_matches_the_reference(tmp_path, name, seed):
    h = H_FILES[name]()
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h))
    argv = ["lhv", "chsh", "--h-file", str(path), "--trials", str(TRIALS), "--seed", str(seed)]
    got, status = run_command(argv)
    expected, expected_status = reference_report(h, seed)
    got["failures"] = [f["check"] for f in got["failures"]]
    assert_same(got, expected)
    assert status == expected_status == 0


def test_the_shuffled_file_is_a_reordering():
    h = shuffled_h()
    assert sorted(map(tuple, h["alphabet"])) == sorted(TUPLES)
    assert [tuple(x) for x in h["alphabet"]] != TUPLES
    assert h["weights"][-1] == 0.0 and abs(sum(h["weights"]) - 1.0) <= 1e-12


def exact_reference(h):
    """The report and exit status of ``lhv chsh --h-file h``."""
    averages = {}
    for c, d in ((0, 0), (1, 0), (0, 1), (1, 1)):
        terms = (Fraction(w) * x[c] * x[2 + d] for x, w in zip(h["alphabet"], h["weights"]))
        averages[average_name(c, d)] = float(sum(terms))
    bound, failures = bound_check(s_value(averages))
    report = {
        "schema": 7,
        "protocol": "lhv-chsh",
        "method": "lhv-exact",
        "averages": averages,
        "s_value": s_value(averages),
        "checks": [bound],
        "failures": failures,
    }
    return report, 1 if failures else 0


def run_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return out.getvalue(), status


@pytest.mark.parametrize("name", sorted(EXACT_H_FILES))
def test_exact_report_matches_the_reference(tmp_path, name):
    h = EXACT_H_FILES[name]()
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h))
    expected, expected_status = exact_reference(h)
    text, status = run_text(["lhv", "chsh", "--h-file", str(path)])
    got = json.loads(text)
    got["failures"] = [f["check"] for f in got["failures"]]
    # As JSON text: every float exactly, and 2.0 is not 2.
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert status == expected_status == 0


def test_the_uniform_file_is_the_golden_one():
    from typicality_lab.chsh import RQST_TUPLES
    from typicality_lab.spaces import uniform

    assert json.loads(uniform(RQST_TUPLES).to_json()) == uniform_h()
