"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints an ``ACCEPTANCE <id> ...: PASS|FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a checklist.
Statistical criteria run at fixed seeds; the tolerances are 4-sigma bands
derived from the exact distributions.
"""

import itertools
import json
import math
import time

import numpy as np

from typicality_lab.battery import run_battery
from typicality_lab.chsh import (
    build_chsh_operators,
    chsh_distribution,
    coin_event,
    lhv_sweep,
)
from typicality_lab.cli import main
from typicality_lab.ghz import build_ghz_operators, ghz_distribution, lhv_ghz_enumerate
from typicality_lab.linalg import check_completeness, controlled_unitary, dag
from typicality_lab.spaces import FiniteProbabilitySpace, product
from typicality_lab.worlds import (
    condition_seq,
    empirical,
    project_seq,
    sample_world,
    zip_seqs,
)

SQRT2 = math.sqrt(2.0)


def report(criterion: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


def cli_json(tmp_path, name, argv):
    out = tmp_path / name
    status = main(argv + ["--out", str(out)])
    return status, json.loads(out.read_text())


def test_01_chsh_distribution_oracle_equivalence():
    start = time.perf_counter()
    analytic = chsh_distribution("analytic")
    operator = chsh_distribution("linear_algebra")
    elapsed = time.perf_counter() - start
    diff = float(np.abs(analytic.weights - operator.weights).max())
    ok = diff <= 1e-12 and len(analytic.alphabet) == 16 and elapsed < 1.0
    assert report("C1 chsh-distribution-equivalence", ok)
    assert diff <= 1e-12
    assert elapsed < 1.0


def test_02_ghz_distribution_oracle_equivalence():
    start = time.perf_counter()
    analytic = ghz_distribution("analytic")
    operator = ghz_distribution("linear_algebra")
    elapsed = time.perf_counter() - start
    diff = float(np.abs(analytic.weights - operator.weights).max())
    zeros = sum(1 for w in analytic.weights if w == 0.0)
    ok = diff <= 1e-12 and zeros == 16 and elapsed < 1.0
    assert report("C2 ghz-distribution-equivalence", ok)
    assert diff <= 1e-12
    assert zeros == 16
    assert elapsed < 1.0


def test_03_two_sqrt_two_equality(tmp_path):
    start = time.perf_counter()
    status, out = cli_json(
        tmp_path, "chsh.json", ["chsh", "--trials", "200000", "--seed", "42"]
    )
    elapsed = time.perf_counter() - start
    targets = {"rs": 1 / SQRT2, "qs": 1 / SQRT2, "rt": 1 / SQRT2, "qt": -1 / SQRT2}
    avg_ok = all(
        abs(out["averages"][name] - target) <= 0.015 for name, target in targets.items()
    )
    s_ok = abs(out["s_value"] - 2.828427) <= 0.025
    ok = status == 0 and s_ok and avg_ok and elapsed < 10.0
    assert report("C3 chsh-2sqrt2-equality", ok)
    assert status == 0
    assert s_ok
    assert avg_ok
    assert elapsed < 10.0


def test_04_chsh_bound():
    start = time.perf_counter()
    sweep = lhv_sweep(1000, seed=3)
    elapsed = time.perf_counter() - start
    ok = (
        sweep.max_s_value <= 2.0 + 1e-12
        and abs(sweep.vertex_max_s_value - 2.0) <= 1e-12
        and elapsed < 1.0
    )
    assert report("C4 chsh-local-bound", ok)
    assert sweep.max_s_value <= 2.0 + 1e-12
    assert abs(sweep.vertex_max_s_value - 2.0) <= 1e-12
    assert elapsed < 1.0


def test_05_ghz_perfect_correlations(tmp_path):
    start = time.perf_counter()
    status, out = cli_json(
        tmp_path, "ghz.json", ["ghz", "--trials", "100000", "--seed", "7"]
    )
    elapsed = time.perf_counter() - start
    perfect = out["perfect_correlation"]
    constrained_ok = (
        all(perfect[t]["violations"] == 0 for t in ("011", "101", "110", "000"))
        and perfect["000"]["required_product"] == -1
        and all(perfect[t]["required_product"] == 1 for t in ("011", "101", "110"))
    )
    free_ok = all(
        abs(entry["mean_product"]) <= 0.05 for entry in out["free_triples"].values()
    )
    ok = status == 0 and constrained_ok and free_ok and elapsed < 10.0
    assert report("C5 ghz-perfect-correlations", ok)
    assert status == 0
    assert constrained_ok
    assert free_ok
    assert elapsed < 10.0


def test_06_ghz_lhv_impossibility():
    start = time.perf_counter()
    result = lhv_ghz_enumerate()
    elapsed = time.perf_counter() - start
    # Independent brute-force oracle for the three-parity count.
    oracle = sum(
        1
        for x in itertools.product((1, -1), repeat=6)
        if x[0] * x[3] * x[5] == 1 and x[1] * x[2] * x[5] == 1 and x[1] * x[3] * x[4] == 1
    )
    ok = (
        result.satisfying_count == 0
        and result.plus_only_count == 8
        and oracle == 8
        and elapsed < 0.010
    )
    assert report("C6 ghz-lhv-impossibility", ok)
    assert result.satisfying_count == 0
    assert result.plus_only_count == oracle == 8
    assert elapsed < 0.010


def test_07_completeness():
    chsh_defect = check_completeness(build_chsh_operators())
    ghz_defect = check_completeness(build_ghz_operators())
    ok = chsh_defect <= 1e-12 and ghz_defect <= 1e-12
    assert report("C7 measurement-completeness", ok)
    assert chsh_defect <= 1e-12
    assert ghz_defect <= 1e-12


def test_08_controlled_unitary_theorem():
    rng = np.random.default_rng(2718)

    def random_unitary(dim):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    failures = 0
    for _ in range(100):
        dim_u = int(rng.integers(2, 9))
        dim_c = int(rng.integers(2, 9))
        parts = int(rng.integers(1, dim_c + 1))
        basis_u = random_unitary(dim_c)
        cuts = (
            sorted(rng.choice(range(1, dim_c), size=parts - 1, replace=False))
            if parts > 1
            else []
        )
        bounds = [0, *cuts, dim_c]
        groups = [basis_u[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        branches = [
            (random_unitary(dim_u), cols @ cols.conj().T) for cols in groups
        ]
        u = controlled_unitary(branches)
        eye = np.eye(dim_u * dim_c)
        if np.abs(dag(u) @ u - eye).max() > 1e-12:
            failures += 1
            continue
        if np.abs(u @ dag(u) - eye).max() > 1e-12:
            failures += 1
            continue
        # Branch action on an eigenvector of each branch projector.
        for (branch_u, _), cols in zip(branches, groups):
            theta = rng.normal(size=dim_u) + 1j * rng.normal(size=dim_u)
            theta /= np.linalg.norm(theta)
            phi = cols[:, 0]
            got = u @ np.kron(theta, phi)
            want = np.kron(branch_u @ theta, phi)
            if np.abs(got - want).max() > 1e-12:
                failures += 1
                break
    ok = failures == 0
    assert report("C8 controlled-unitary", ok)
    assert failures == 0


def test_09_sequence_operator_properties():
    rng = np.random.default_rng(1618)
    start = time.perf_counter()
    cases = 0

    def random_space(max_symbols=6, with_zero=False):
        size = int(rng.integers(2, max_symbols + 1))
        raw = rng.random(size)
        if with_zero:
            raw[rng.integers(size)] = 0.0
        return FiniteProbabilitySpace(range(size), raw / raw.sum())

    for _ in range(250):  # project(zip(...), i) == w_i, exactly
        k = int(rng.integers(2, 4))
        length = int(rng.integers(1, 200))
        parts = [
            sample_world(random_space(), length, seed=int(rng.integers(2**32)))
            for _ in range(k)
        ]
        zipped = zip_seqs(parts)
        assert all(project_seq(zipped, i) == parts[i] for i in range(k))
        cases += 1

    for _ in range(250):  # len(condition(w, B)) == sum of event counts
        fps = random_space()
        world = sample_world(fps, int(rng.integers(1, 500)), seed=int(rng.integers(2**32)))
        n_event = int(rng.integers(1, len(fps.alphabet) + 1))
        event = list(rng.choice(len(fps.alphabet), size=n_event, replace=False))
        cond = condition_seq(world, event)
        counts = empirical(world).counts
        assert len(cond) == sum(counts[s] for s in event)
        cases += 1

    for _ in range(250):  # weight-zero symbols never sampled, exactly
        fps = random_space(with_zero=True)
        world = sample_world(fps, 2000, seed=int(rng.integers(2**32)))
        counts = empirical(world).counts
        assert all(
            counts[sym] == 0 for sym, w in zip(fps.alphabet, fps.weights) if w == 0.0
        )
        cases += 1

    for _ in range(250):  # marginal(product(p1, p2)) == factor, within 1e-12
        p1, p2 = random_space(4), random_space(4)
        joint = product(p1, p2)
        left, right = joint.marginal("left"), joint.marginal("right")
        assert left.alphabet == p1.alphabet
        assert right.alphabet == p2.alphabet
        assert np.abs(left.weights - p1.weights).max() <= 1e-12
        assert np.abs(right.weights - p2.weights).max() <= 1e-12
        cases += 1

    elapsed = time.perf_counter() - start
    ok = cases == 1000 and elapsed < 5.0
    assert report("C9 sequence-operator-properties", ok)
    assert cases == 1000
    assert elapsed < 5.0


def test_10_conditioning_closure_battery():
    fps = chsh_distribution("analytic")
    world = sample_world(fps, 200_000, seed=42)
    all_pass = True
    for c, d in itertools.product((0, 1), (0, 1)):
        event = coin_event(c, d)
        cell = condition_seq(world, event)
        result = run_battery(cell, fps.condition(event), (1, 2, 3), significance=0.01)
        all_pass = all_pass and result.all_pass
    assert report("C10 conditioning-closure-battery", all_pass)
    assert all_pass


def test_11_reproducibility(tmp_path):
    commands = {
        "chsh": ["chsh", "--trials", "20000", "--seed", "42"],
        "ghz": ["ghz", "--trials", "20000", "--seed", "7"],
        "lhv-chsh": ["lhv", "chsh", "--sweep", "100", "--seed", "3"],
        "lhv-ghz": ["lhv", "ghz"],
    }
    world_path = tmp_path / "world.json"
    fps_path = tmp_path / "fps.json"
    status = main(
        [
            "chsh",
            "--trials",
            "20000",
            "--seed",
            "9",
            "--world-out",
            str(world_path),
            "--out",
            str(tmp_path / "seed9.json"),
        ]
    )
    assert status == 0
    fps_path.write_text(chsh_distribution("analytic").to_json())
    commands["battery"] = ["battery", str(world_path), str(fps_path), "--blocks", "1,2"]

    # Only the sampling commands read --threads; the others refuse it.
    threaded = {"chsh", "ghz"}
    ok = True
    for name, argv in commands.items():
        outputs = []
        for run_id, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{name}-{run_id}.json"
            flags = ["--threads", str(threads)] if name in threaded else []
            status = main(argv + flags + ["--out", str(out)])
            assert status == 0, name
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    assert report("C11 reproducibility", ok)
    assert ok
