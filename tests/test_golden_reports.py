"""Golden report bytes: the sha256 of canonical CLI reports at fixed seeds.

A change that alters any byte of these reports is a behaviour change, not
a speed-up, and must update the digests below on purpose.  The input
files are rebuilt from library constructors whose output is itself fixed.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from typicality_lab.chsh import RQST_TUPLES, chsh_distribution, coin_event
from typicality_lab.cli import main
from typicality_lab.ghz import LHV_ASSIGNMENTS
from typicality_lab.spaces import FiniteProbabilitySpace, uniform
from typicality_lab.worlds import condition_seq, sample_world

#: argv template -> (exit status, sha256 of stdout).
GOLDEN = {
    "chsh --trials 200000 --seed 42": (
        0,
        "a7a9baa23fbbd2f7d99a74e19ac5222b4f53287da0219985e70b361958331c89",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "3c26c57b8f8a0c1f99a6fe47647441c081b1d39e7f9b8f0ac750ce80024e4179",
    ),
    "lhv ghz": (
        0,
        "92aacaccd6d4ef4d42c3937e1b7150809a7f62b5aec24c12bd7bcfbfe5745ea4",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "913f2eb05873a6b73f802734eac9bf82506ae97659821e4031153fee6d8613d4",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "af4221d100c8c6013fc06223ccddc0bf45671c35611533b265a148462c445156",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "f9b5e19df11d623333f13a983b88c5944421fae4c82f6134f5f34b0f0eb34f74",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "79bb646a5d70dba224935f32374039d551a844a2cf62cdd1b510fc6fefacb788",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "66bfee25872726bde0fe88d424d76442896f08e63c0e5879d27bb47330085f1f",
    ),
}

#: The CSV views, and the modes the reports above do not reach.
GOLDEN.update(
    {
        "chsh --trials 200000 --seed 42 --format csv": (
            0,
            "25fb23b07ac766c78f4b90e01c8b6d35bba8a99dd74dc5ba445f8c0b7ff2ed8e",
        ),
        "ghz --trials 100000 --seed 7 --format csv": (
            0,
            "92d7288a818e674f0f291a61bc5fb4cf001b449b459123d66a9dfb0df150f26c",
        ),
        "lhv chsh --sweep 1000 --seed 3 --format csv": (
            0,
            "e86471895f3ff083b912b021c7922d1b95c85359eb4edeae63c2d8fbe907b34b",
        ),
        "lhv ghz --format csv": (
            0,
            "16c6ffa54e6e6a3e42885beb255c5e6f9828198e93565b4d55b8e91bdac07175",
        ),
        "battery {world} {fps} --tolerance 0.2 --format csv": (
            0,
            "707f5fdb0e8cadf0eb4776b9ac86685d110e7e373eba3daf722ecf0e607f791a",
        ),
        "lhv chsh --h-file {h}": (
            0,
            "08b106011fb0d3638910d5cef31397335b448cf167eae6acd7252db1c5c56ba1",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "a6310411160aee28b3b4afbfae8292bf1aa045fa32ad1f1b104cc132a6604ea1",
        ),
        # The (0, 0) coin pair of chsh --trials 200000 --seed 42, to k = 4.
        "battery {cell} {cell_fps} --blocks 1,2,3,4": (
            0,
            "135a89be4cd662b688a387ff79731672c2b53bfbc22316396ffacbc5c7f18b8d",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "e76abe02a0ed743ee19268e3b3304ad73953c3a2be1292b628eee84df2e104f7",
        ),
        # A significance the golden world fails at k = 2, its one Holm-adjusted
        # p-value below it.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "b09cdd408c7d26b2d54d520a4ada46ab4691f5025ff9579d6b18cbf07650d00a",
        ),
        "battery {world} {fps} --tolerance 0.999 --format csv": (
            1,
            "f24ac50abd6e305203ca7cbee8bc452594dab88cb8eebef5a99f9154f8e4b684",
        ),
        "lhv chsh --h-file {h} --trials 20000 --seed 4 --format csv": (
            0,
            "175d161fceba7595b2ff09c3ed19cb9c8b8403c8649d502dfa66d901a0426820",
        ),
    }
)

#: sha256 of the world file ``chsh --trials 200000 --seed 42 --world-out`` writes.
WORLD_FILE_SHA256 = "7f93effec4317e47255d33f5fe383adcc252081431e18e14e5d9804d0818169a"


def write_inputs(directory):
    """Hidden-variable spaces for CHSH (uniform) and GHZ, a CHSH world and the CHSH space.

    ``cell`` is the (0, 0) coin pair's subsequence of the world of ``chsh
    --trials 200000 --seed 42``, and ``cell_fps`` that pair's law.
    """
    files = {
        name: directory / f"{name}.json" for name in ("h", "p", "world", "fps", "cell", "cell_fps")
    }
    fps = chsh_distribution("analytic")
    files["h"].write_text(uniform(RQST_TUPLES).to_json())
    # Weight 2k+1 on the k-th assignment, so no two constraints see the same mass.
    files["p"].write_text(
        FiniteProbabilitySpace(LHV_ASSIGNMENTS, [(2 * k + 1) / 64**2 for k in range(64)]).to_json()
    )
    files["world"].write_text(sample_world(fps, 200_000, 11).to_json())
    files["fps"].write_text(fps.to_json())
    event = coin_event(0, 0)
    files["cell"].write_text(condition_seq(sample_world(fps, 200_000, 42), event).to_json())
    files["cell_fps"].write_text(fps.condition(event).to_json())
    return files


def run_report(template, files):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(template.format(**files).split())
    return status, buffer.getvalue()


def report_digest(template, files):
    status, out = run_report(template, files)
    return status, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("template", sorted(GOLDEN))
def test_report_bytes_unchanged(template, input_files):
    assert report_digest(template, input_files) == GOLDEN[template]


@pytest.mark.parametrize("template", sorted(t for t in GOLDEN if "--format csv" not in t))
def test_report_is_strict_json(template, input_files):
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    json.loads(run_report(template, input_files)[1], parse_constant=refuse)


@pytest.mark.parametrize("template", sorted(t for t in GOLDEN if "--format csv" not in t))
def test_each_check_holds_its_decision_only(template, input_files):
    checks = json.loads(run_report(template, input_files)[1])["checks"]
    assert checks
    assert all(sorted(c) == ["bound", "name", "passed", "relation", "value"] for c in checks)


#: One golden run of each report kind.
ONE_OF_EACH_KIND = [
    "chsh --trials 200000 --seed 42",
    "ghz --trials 100000 --seed 7",
    "battery {world} {fps} --tolerance 0.2",
    "lhv chsh --sweep 1000 --seed 3",
    "lhv chsh --h-file {h}",
    "lhv chsh --h-file {h} --trials 20000 --seed 4",
    "lhv ghz",
]


@pytest.mark.parametrize("template", ONE_OF_EACH_KIND)
def test_every_random_byte_is_a_raw_philox_word(template, input_files, monkeypatch):
    # numpy's Generator methods may change between releases; raw bit-generator words may not.
    def refuse(*args, **kwargs):
        raise AssertionError("a report drew through numpy.random.Generator")

    monkeypatch.setattr(np.random, "Generator", refuse)
    assert report_digest(template, input_files) == GOLDEN[template]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_world_file_bytes_unchanged(threads, tmp_path):
    world = tmp_path / "world.json"
    template = f"chsh --trials 200000 --seed 42 --threads {threads} --world-out {{out}}"
    status, digest = report_digest(template, {"out": world})
    assert (status, digest) == GOLDEN["chsh --trials 200000 --seed 42"]
    assert hashlib.sha256(world.read_bytes()).hexdigest() == WORLD_FILE_SHA256
