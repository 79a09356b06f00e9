"""Workload commands, their generated input files, and the exact checks on their outputs.

Every input the program receives is written here from the workload seed;
the closed forms below are the benchmark's own, not imported from the
package under test, so they double as an independent check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORLD = "world.json"
FPS = "fps.json"
H_FILE = "h.json"
P_FILE = "p.json"

#: Commands of one pass, in order.  ``{seed}`` and the file names above are
#: filled in per run; sizes are fixed.
WORKLOADS = {
    "bulk-10m": [
        "chsh --trials 10000000 --threads 2 --seed {seed}",
        "ghz --trials 10000000 --threads 2 --seed {seed}",
    ],
    "short-cli": [
        "chsh --trials 200000 --seed {seed}",
        "ghz --trials 100000 --seed {seed}",
        "lhv ghz",
        "lhv chsh --sweep 1000 --seed {seed}",
    ],
    "world-replay": [
        "chsh --trials 5000000 --seed {seed} --world-out {world}",
        "battery {world} {fps} --blocks 1,2,3",
    ],
    "lhv-sweep": [
        "lhv chsh --sweep 50000 --seed {seed}",
        "lhv chsh --h-file {h} --trials 2000000 --seed {seed}",
        "lhv ghz --h-file {p}",
    ],
}

#: The bulk-10m command whose report must not depend on ``--threads``.
THREAD_INVARIANCE_COMMAND = 0

_RQST = list(itertools.product((1, -1), repeat=4))
_ASSIGNMENTS = list(itertools.product((1, -1), repeat=6))
_CHSH_PRODUCTS = {"rs": (0, 2), "qs": (1, 2), "rt": (0, 3), "qt": (1, 3)}
_GHZ_CONSTRAINTS = {
    "011": ((0, 3, 5), 1),
    "101": ((1, 2, 5), 1),
    "110": ((1, 3, 4), 1),
    "000": ((0, 2, 4), -1),
}
_EXACT_ATOL = 1e-12


def commands(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    files = {
        "world": workdir / WORLD,
        "fps": workdir / FPS,
        "h": workdir / H_FILE,
        "p": workdir / P_FILE,
    }
    return [
        [token.format(seed=seed, **files) for token in template.split()]
        for template in WORKLOADS[workload]
    ]


def trials_requested(argv: list[str]) -> int:
    return int(argv[argv.index("--trials") + 1]) if "--trials" in argv else 0


def _simplex_point(rng: random.Random, size: int) -> list[float]:
    draws = [rng.expovariate(1.0) for _ in range(size)]
    total = math.fsum(draws)
    return [d / total for d in draws]


def chsh_closed_form() -> tuple[list, list[float]]:
    """P(c, d, m, n) = [1 + (-1)^(cd) m n / sqrt 2] / 16, in sampling order."""
    alphabet = list(itertools.product((0, 1), (0, 1), (1, -1), (1, -1)))
    weights = [
        (1.0 + (1 if c * d == 0 else -1) * m * n / math.sqrt(2.0)) / 16.0
        for c, d, m, n in alphabet
    ]
    return alphabet, weights


def write_inputs(seed: int, workdir: Path) -> dict:
    """Write fps.json, h.json and p.json; return the hidden-variable weights."""
    rng = random.Random(seed)
    h = _simplex_point(rng, len(_RQST))
    p = _simplex_point(rng, len(_ASSIGNMENTS))
    alphabet, weights = chsh_closed_form()
    files = {
        FPS: (alphabet, weights),
        H_FILE: (_RQST, h),
        P_FILE: (_ASSIGNMENTS, p),
    }
    for name, (symbols, probs) in files.items():
        obj = {"alphabet": [list(s) for s in symbols], "weights": probs}
        (workdir / name).write_text(json.dumps(obj), encoding="utf-8")
    return {"h": h, "p": p}


@dataclass
class Outcome:
    """Result of checking one invocation."""

    errors: list[str] = field(default_factory=list)
    rejections: int = 0
    digest: str = ""
    report_bytes: int = 0


def _battery_tests(report: dict) -> list[dict]:
    if report.get("protocol") == "battery":
        return report["tests"]
    return [t for cell in report.get("battery", {}).values() for t in cell["tests"]]


def check(argv: list[str], status: int, report_bytes: bytes, inputs: dict) -> Outcome:
    """Exact checks on one invocation; chi-square rejections are only counted."""
    out = Outcome(
        digest=hashlib.sha256(report_bytes).hexdigest(), report_bytes=len(report_bytes)
    )
    try:
        report = json.loads(report_bytes)
    except ValueError:
        out.errors.append("report is not JSON")
        return out
    try:
        tests = _battery_tests(report)
        out.rejections = sum(1 for t in tests if not t["pass"])
        if any(t["zero_cell_hits"] for t in tests):
            out.errors.append("battery hit a zero-probability cell")
        failures = report.get("failures", [])
        rejected_only = bool(failures) and all(
            f["check"].startswith("block-frequency-k") for f in failures
        )
        if not (status == 0 or (status == 1 and argv[0] == "battery" and rejected_only)):
            out.errors.append(f"exit status {status}, failures {failures}")
        if "--trials" in argv and report.get("trials") != trials_requested(argv):
            out.errors.append("report trials differ from --trials")
        if "cross_check" in report and report["cross_check"]["pass"] is not True:
            out.errors.append("distribution cross-check failed")
        if "perfect_correlation" in report:
            if any(e["violations"] for e in report["perfect_correlation"].values()):
                out.errors.append("GHZ perfect-correlation violations")
        if "lhv" in report and report["lhv"]["satisfying_count"] != 0:
            out.errors.append("an LHV assignment satisfies every GHZ constraint")
        if "sweep" in report and report["sweep"]["bound_ok"] is not True:
            out.errors.append("CHSH sweep exceeded the local bound")
        if "--h-file" in argv and argv[0] == "lhv" and argv[1] == "chsh":
            exact = report["exact"]["averages"]
            for name, (i, j) in _CHSH_PRODUCTS.items():
                expected = math.fsum(w * x[i] * x[j] for w, x in zip(inputs["h"], _RQST))
                if abs(exact[name] - expected) > _EXACT_ATOL:
                    out.errors.append(f"exact <{name}> differs from the closed form")
        if "--h-file" in argv and argv[1] == "ghz":
            masses = report["feasibility"]["violation_mass"]
            for name, (coords, required) in _GHZ_CONSTRAINTS.items():
                expected = math.fsum(
                    w
                    for w, a in zip(inputs["p"], _ASSIGNMENTS)
                    if math.prod(a[c] for c in coords) != required
                )
                if abs(masses[name] - expected) > _EXACT_ATOL:
                    out.errors.append(f"violation mass {name} differs from the closed form")
    except (KeyError, TypeError, IndexError) as err:
        out.errors.append(f"report lacks the field {err}")
    return out
