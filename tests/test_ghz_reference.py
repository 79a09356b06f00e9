"""The ``ghz`` report against a plain-Python reference, field by field.

The reference shares no code with the package past its own test helpers.
It writes the closed form P(c1, c2, c3, m1, m2, m3) = [1 - m1 m2 m3
cos(pi (c1 + c2 + c3) / 2)] / 64 over the sampling order (coins outermost,
0 before 1, +1 before -1), with the cosine as an exact integer, draws the
world with the pure-Python Philox4x64-10 of ``test_philox_reference`` and
a ``bisect`` inverse CDF, counts each coin triple's outcomes in dicts, and
derives from those counts the ``perfect_correlation`` and
``free_triples`` entries and the ``cell_tests``: each triple's chi-square
test against the law its own closed form gives (zero-weight results
removed, a hit on one failing it), the tail from the reference helpers
``test_battery_reference`` shares with ``test_chsh_reference``, and the
eight p-values adjusted as one Holm family in plain Python.  It
enumerates the 64 assignments of values to the six observables for the
``lhv`` entry and its witnesses, and builds the checks, ``failures`` and
the exit status.

Integers, strings, booleans and the exit status must match exactly, and
every other float within 1e-12 relative.  The one figure the reference
does not derive is ``cross_check.max_abs_diff``, the rounding gap between
two float computations of the same weights: it is only required to be
within the cross-check's tolerance.  The seeds were fixed before any
report was looked at.
"""

import bisect
import contextlib
import io
import itertools
import json
import math

import pytest

from test_battery_reference import chi2_sf
from test_chsh_reference import assert_same, holm
from test_philox_reference import block_uniforms
from typicality_lab.cli import main

TRIALS = 8000
SEEDS = [2, 99, 2**64 - 1]
SIGMAS = 4.0
ATOL = 1e-12

#: cos(pi * k / 2) for k = c1 + c2 + c3.
COS = {0: 1, 1: 0, 2: -1, 3: 0}
OUTCOMES = list(itertools.product((0, 1), (0, 1), (0, 1), (1, -1), (1, -1), (1, -1)))
TRIPLES = list(itertools.product((0, 1), repeat=3))
#: The perfectly correlated triples, in the order the enumeration tries them.
CONSTRAINED = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)]


def closed_form(c1, c2, c3, m1, m2, m3):
    return (1 - m1 * m2 * m3 * COS[c1 + c2 + c3]) / 64.0


def key(triple):
    return "".join(map(str, triple))


def required_product(triple):
    """The one product of results the closed form gives weight on ``triple``."""
    (product,) = {
        m1 * m2 * m3
        for m1, m2, m3 in itertools.product((1, -1), repeat=3)
        if closed_form(*triple, m1, m2, m3) > 0
    }
    return product


def check(name, value, relation, bound):
    passed = {"==": value == bound, "<=": value <= bound, ">=": value >= bound}[relation]
    return {"name": name, "value": value, "relation": relation, "bound": bound, "passed": passed}


def enumeration():
    """The ``lhv`` entry: every assignment (m1_0, m1_1, m2_0, m2_1, m3_0, m3_1) tried."""
    required = {triple: required_product(triple) for triple in CONSTRAINED}
    per_constraint = dict.fromkeys(map(key, CONSTRAINED), 0)
    satisfying = plus_only = 0
    witnesses = []
    for values in itertools.product((1, -1), repeat=6):
        met = {
            triple: math.prod(values[2 * party + c] for party, c in enumerate(triple))
            == required[triple]
            for triple in CONSTRAINED
        }
        for triple, ok in met.items():
            per_constraint[key(triple)] += ok
        satisfying += all(met.values())
        plus_only += all(ok for triple, ok in met.items() if required[triple] > 0)
        failed = [key(triple) for triple, ok in met.items() if not ok]
        if failed:
            witnesses.append({"assignment": list(values), "fails": failed[0]})
    return {
        "satisfying_count": satisfying,
        "plus_only_count": plus_only,
        "per_constraint_counts": per_constraint,
        "witnesses": witnesses,
    }


def cell_test(triple, counts):
    """The block-1 chi-square test of ``triple``'s outcome counts, before its family adjusts it."""
    results = list(itertools.product((1, -1), repeat=3))
    weights = {m: closed_form(*triple, *m) for m in results}
    mass = sum(weights.values())
    total = sum(counts[(*triple, *m)] for m in results)
    zero_cells = sum(w == 0 for w in weights.values())
    zero_hits = sum(counts[(*triple, *m)] for m in results if weights[m] == 0)
    expected = {m: total * w / mass for m, w in weights.items() if w > 0}
    # A triple without rounds decides nothing: no terms, statistic 0, p-value 1.
    terms = [(counts[(*triple, *m)] - e) ** 2 / e for m, e in expected.items()] if total else []
    statistic = math.inf if zero_hits else math.fsum(terms)
    dof = len(results) - zero_cells - 1
    return {
        "block_len": 1, "dof": dof, "n_blocks": total, "p_value": chi2_sf(statistic, dof),
        "statistic": statistic if math.isfinite(statistic) else None,
        "zero_cells": zero_cells, "zero_cell_hits": zero_hits,
    }


def cell_tests(counts):
    """Every triple's test, keyed by its coins, as one Holm family at 2 Phi(-SIGMAS)."""
    tests = {key(triple): cell_test(triple, counts) for triple in TRIPLES}
    rate = math.erfc(SIGMAS / math.sqrt(2.0))
    for test, p in zip(tests.values(), holm([t["p_value"] for t in tests.values()])):
        test.update(adjusted_p_value=p, significance=rate, **{"pass": p >= rate})
    return tests


def reference_report(seed, max_abs_diff=0.0):
    """The report and exit status of ``ghz --trials TRIALS --seed seed``."""
    weights = [closed_form(*o) for o in OUTCOMES]
    cum = list(itertools.accumulate(weights))
    last = max(i for i, w in enumerate(weights) if w > 0)
    cum[last:] = [1.0] * (len(cum) - last)  # pinned from the last positive weight on
    counts = dict.fromkeys(OUTCOMES, 0)
    for u in block_uniforms(seed, 0, TRIALS):
        counts[OUTCOMES[bisect.bisect_right(cum, u)]] += 1

    perfect, free = {}, {}
    for triple in TRIPLES:
        by_product = {1: 0, -1: 0}
        for o, n in counts.items():
            if o[:3] == triple:
                by_product[o[3] * o[4] * o[5]] += n
        total = by_product[1] + by_product[-1]
        if triple in CONSTRAINED:
            required = required_product(triple)
            perfect[key(triple)] = {
                "count": total,
                "required_product": required,
                "violations": by_product[-required],
            }
        else:
            free[key(triple)] = {
                "count": total,
                "mean_product": (by_product[1] - by_product[-1]) / total,
            }
    lhv = enumeration()
    tests = cell_tests(counts)
    checks = [
        check("perfect-correlations", sum(e["violations"] for e in perfect.values()), "==", 0),
        *(
            check(f"block-frequency-k1-cell-{k}", t["adjusted_p_value"], ">=", t["significance"])
            for k, t in tests.items()
        ),
        check("lhv-enumeration", lhv["satisfying_count"], "==", 0),
        check("distribution-cross-check", max_abs_diff, "<=", ATOL),
    ]
    failures = [c["name"] for c in checks if not c["passed"]]
    report = {
        "schema": 7,
        "protocol": "ghz",
        "trials": TRIALS,
        "seed": seed,
        "perfect_correlation": perfect,
        "free_triples": free,
        "cell_tests": tests,
        "lhv": lhv,
        "cross_check": {"max_abs_diff": max_abs_diff, "tolerance": ATOL, "pass": True},
        "checks": checks,
        "failures": failures,
    }
    return report, 1 if failures else 0


def run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return json.loads(out.getvalue()), status


@pytest.mark.parametrize("seed", SEEDS)
def test_report_matches_the_reference(seed):
    got, status = run_command(["ghz", "--trials", str(TRIALS), "--seed", str(seed)])
    max_abs_diff = got["cross_check"]["max_abs_diff"]
    assert 0.0 <= max_abs_diff <= ATOL
    expected, expected_status = reference_report(seed, max_abs_diff)
    # A failure's detail restates its check's value and bound.
    got["failures"] = [f["check"] for f in got["failures"]]
    assert_same(got, expected)
    assert status == expected_status == 0


def test_the_enumeration_finds_the_known_counts():
    # Three independent parities on six values leave 8 of 64 assignments;
    # each constraint alone holds on half of them; none holds all four.
    lhv = enumeration()
    assert (lhv["satisfying_count"], lhv["plus_only_count"]) == (0, 8)
    assert set(lhv["per_constraint_counts"].values()) == {32}
    assert len(lhv["witnesses"]) == 64


def test_a_forbidden_outcome_fails_its_triples_test():
    # One round of weight zero on 000, and no round at all on 111.
    counts = dict.fromkeys(OUTCOMES, 1000)
    counts.update({o: 0 for o in OUTCOMES if closed_form(*o) == 0})
    counts.update({o: 0 for o in OUTCOMES if o[:3] == (1, 1, 1)})
    counts[(0, 0, 0, 1, 1, 1)] = 1
    tests = cell_tests(counts)
    assert (tests["000"]["zero_cell_hits"], tests["000"]["p_value"]) == (1, 0.0)
    assert not tests["000"]["pass"] and tests["000"]["statistic"] is None
    assert tests["111"]["n_blocks"] == 0 and tests["111"]["p_value"] == 1.0
    assert [k for k, t in tests.items() if not t["pass"]] == ["000"]
    assert {t["dof"] for k, t in tests.items() if k in map(key, CONSTRAINED)} == {3}
    assert {t["dof"] for k, t in tests.items() if k not in map(key, CONSTRAINED)} == {7}
