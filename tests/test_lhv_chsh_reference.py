"""The ``lhv chsh --h-file --trials`` report against a plain-Python reference, field by field.

The reference shares no code with the package past its own test helpers.
It reads the hidden-variable file as JSON, draws rounds of the value
tuple x = (r, q, s, t) with two fair coins, one symbol (x, c, d) per
round with the coins innermost and x in the file's own order, from the
pure-Python Philox4x64-10 of ``test_philox_reference`` and a ``bisect``
inverse CDF, and counts them in dicts.  Party A reveals r on coin 0 and q
on coin 1, party B s on coin 0 and t on coin 1.  From the counts it
derives the four averages, their binomial standard errors and the
``SIGMAS`` tolerances from the exact variance ``1 - average**2``; from the
file alone the nested ``exact`` report, each average an exactly rounded
sum; and the ``chsh-bound`` check on the exact s-value, ``failures`` and
the exit status.

Two files are read: one listing the value tuples in ``RQST_TUPLES``
order, and one in a shuffled order that ends on a tuple of weight zero.
Integers, strings, booleans and the exit status must match exactly, and
every other float within 1e-12 relative.  The seeds were fixed before any
report was looked at.
"""

import bisect
import contextlib
import io
import itertools
import json
import math
import random

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


H_FILES = {"ordered": ordered_h, "shuffled": shuffled_h}


def average_name(c, d):
    return "rq"[c] + "st"[d]


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

    exact, averages, cell_counts, std_errors, tolerances = {}, {}, {}, {}, {}
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
        std_errors[name] = 2.0 * math.sqrt((plus / total) * (1.0 - plus / total) / total)
        tolerances[name] = SIGMAS * math.sqrt(max(0.0, 1.0 - exact[name] ** 2) / total)

    def s_value(a):
        return a["rs"] + a["qs"] + a["rt"] - a["qt"]

    bound = {
        "name": "chsh-bound",
        "value": abs(s_value(exact)),
        "relation": "<=",
        "bound": LOCAL_BOUND + ATOL,
        "gating": True,
    }
    bound["passed"] = bound["value"] <= bound["bound"]
    failures = [] if bound["passed"] else ["chsh-bound"]
    report = {
        "schema": 4,
        "protocol": "lhv-chsh",
        "method": "lhv-simulated",
        "trials": TRIALS,
        "seed": seed,
        "averages": averages,
        "counts": cell_counts,
        "std_errors": std_errors,
        "tolerances": tolerances,
        "s_value": s_value(averages),
        "exact": {"averages": exact, "method": "lhv-exact", "s_value": s_value(exact)},
        "checks": [bound],
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
