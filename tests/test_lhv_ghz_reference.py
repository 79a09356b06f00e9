"""The ``lhv ghz`` report, with and without ``--h-file``, against a plain-Python reference.

The reference shares no code with the package past its own test helpers.
It rebuilds from the paper's statement of the GHZ correlations what a
local-realist account must meet: an assignment gives each of the three
parties a value +1 or -1 for each of its two coins, six values written
(m1_0, m1_1, m2_0, m2_1, m3_0, m3_1), and the product of the three values
picked by a coin triple must be +1 on 011, 101 and 110 and -1 on 000.  It
enumerates the 64 assignments lexicographically over (+1, -1), counts
those meeting every constraint, those meeting the three +1 constraints,
and those meeting each one, and names for each failing assignment its
first failed constraint in the order 011, 101, 110, 000.  With a
hidden-variable file it sums, as ``fractions.Fraction``s of the file's
floats, the weight on the assignments that break each constraint.

Integers, strings, booleans and the exit status must match exactly; each
violation mass must lie within a few ulps of its exact sum.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from typicality_lab.cli import main

#: The perfectly correlated coin triples, each with the product of values it requires.
CONSTRAINTS = [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1), ((0, 0, 0), -1)]
ASSIGNMENTS = list(itertools.product((1, -1), repeat=6))
ULPS = 4


def key(triple):
    return "".join(map(str, triple))


def meets(assignment, triple, required):
    """Whether the three values the coin ``triple`` picks multiply to ``required``."""
    return math.prod(assignment[2 * party + c] for party, c in enumerate(triple)) == required


def enumeration():
    per_constraint = {key(triple): 0 for triple, _ in CONSTRAINTS}
    satisfying = plus_only = 0
    witnesses = []
    for a in ASSIGNMENTS:
        met = [meets(a, triple, required) for triple, required in CONSTRAINTS]
        for (triple, _), ok in zip(CONSTRAINTS, met):
            per_constraint[key(triple)] += ok
        satisfying += all(met)
        plus_only += all(ok for (_, required), ok in zip(CONSTRAINTS, met) if required > 0)
        if not all(met):
            first = CONSTRAINTS[met.index(False)][0]
            witnesses.append({"assignment": list(a), "fails": key(first)})
    return {
        "satisfying_count": satisfying,
        "plus_only_count": plus_only,
        "per_constraint_counts": per_constraint,
        "witnesses": witnesses,
    }


def exact_masses(h_path):
    """Each constraint's violation mass, and their total, as exact sums of the file's floats."""
    with open(h_path) as f:
        h = json.load(f)
    weight = {tuple(a): Fraction(w) for a, w in zip(h["alphabet"], h["weights"])}
    assert sorted(weight) == sorted(ASSIGNMENTS)
    masses = {
        key(triple): sum(weight[a] for a in ASSIGNMENTS if not meets(a, triple, required))
        for triple, required in CONSTRAINTS
    }
    return masses, sum(masses.values())


def reference_report(h_path=None):
    """The report and exit status of ``lhv ghz [--h-file h_path]``, masses left out."""
    lhv = enumeration()
    passed = lhv["satisfying_count"] == 0
    report = {
        "schema": 7,
        "protocol": "lhv-ghz",
        "lhv": lhv,
        "checks": [{"name": "lhv-enumeration", "value": lhv["satisfying_count"],
                    "relation": "==", "bound": 0, "passed": passed}],
        "failures": [] if passed else ["lhv-enumeration"],
    }
    if h_path is not None:
        report["feasibility"] = {"feasible": False}
    return report, 0 if passed else 1


def run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return out.getvalue(), status


def assert_within_ulps(got, exact):
    assert isinstance(got, float)
    assert abs(Fraction(got) - exact) <= ULPS * Fraction(math.ulp(float(exact)))


@pytest.fixture(scope="module")
def h_files(tmp_path_factory):
    """Weight 2k+1 on the k-th assignment, as the golden file; and k/2016 in a shuffled order."""
    root = tmp_path_factory.mktemp("lhv-ghz")
    order = list(ASSIGNMENTS)
    random.Random(5).shuffle(order)
    spaces = {
        "ordered": (ASSIGNMENTS, [(2 * k + 1) / 64**2 for k in range(64)]),
        "shuffled": (order, [k / 2016 for k in range(64)]),
    }
    paths = {}
    for name, (alphabet, weights) in spaces.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({"alphabet": alphabet, "weights": weights}))
    return paths


@pytest.mark.parametrize("h_file", [None, "ordered", "shuffled"])
def test_report_matches_the_reference(h_files, h_file):
    h_path = None if h_file is None else h_files[h_file]
    argv = ["lhv", "ghz"] + ([] if h_path is None else ["--h-file", str(h_path)])
    text, status = run_command(argv)
    got = json.loads(text)
    expected, expected_status = reference_report(h_path)
    if h_path is not None:
        feasibility = got["feasibility"]
        masses, total = exact_masses(h_path)
        assert sorted(feasibility["violation_mass"]) == sorted(masses)
        for name, exact in masses.items():
            assert_within_ulps(feasibility["violation_mass"][name], exact)
        assert_within_ulps(feasibility["total_violation_mass"], total)
        # Every assignment breaks a constraint, so the masses sum to at least 1.
        assert total >= 1
        del feasibility["violation_mass"], feasibility["total_violation_mass"]
    assert got == expected
    assert status == expected_status == 0


def test_the_enumeration_finds_the_known_counts():
    # The three +1 constraints are three independent parities on six values
    # and leave 8 assignments; their product forces the 000 product to +1.
    lhv = enumeration()
    assert (lhv["satisfying_count"], lhv["plus_only_count"]) == (0, 8)
    assert set(lhv["per_constraint_counts"].values()) == {32}
    assert len(lhv["witnesses"]) == 64
