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
        "877d60b28b593d572078841aada5d0e2c2c3a48e21f326c5047642e887a556f8",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "e12ccdccff443d62eac8440281f09281e1437923a3c3b9a4c261a261b007a77f",
    ),
    "lhv ghz": (
        0,
        "1a7dd7b25a50667631c3541b73e0ea6765e92532c7b652c43987a1d3805696b7",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "66a8823d94197997b4f8ad0d04cc5b4da5f643119988b5da2762137b1e40047c",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "4521d3f2439394bbb90d502182e25efa77444e60e7c8675d1eab53f96d16c1a1",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "4b6da04cff591909fabd8b92cad6e3c22899d3189adab184f250741300264203",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "feb4f5e5c20ed7bd42bf73ee922d499d9c206d685340e7fec956efefd9c1e039",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "1d73a8959eb19c64c00de3c8cda1a952a57ab61df5d1b8b68476cdbdaeb6c374",
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
            "d389ecfcfda79d8f7da59d529977d66c50013d7072415746e51ea75cee6950c9",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "6ce57e01cc63781ed44ee0c76148ccc5e7fc7f98c4a41b7c7a34f9b9b8a2b1b1",
        ),
        # The (0, 0) coin pair of chsh --trials 200000 --seed 42, to k = 4.
        "battery {cell} {cell_fps} --blocks 1,2,3,4": (
            0,
            "9feb712bec23ff825b898886ef92c096cf95e0b03d50799da58fabe70476493a",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "fcbc79065479ed00af79995354770102917dd756b40cc4002c6015e2c1f173cb",
        ),
        # A significance the golden world fails at k = 2, its one Holm-adjusted
        # p-value below it.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "6afe01eec9f00e16b5c1e4f6c939d6ad97e39e07cdc13dd7454c8361773789eb",
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
