"""Golden report bytes: the sha256 of canonical CLI reports at fixed seeds.

A change that alters any byte of these reports is a behaviour change, not
a speed-up, and must update the digests below on purpose.  The input
files are rebuilt from library constructors whose output is itself fixed.
"""

import contextlib
import hashlib
import io
import json

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
        "d6a12677a807a09f7e3595505da5e418d670d1dfdd9d8147e84a0f225119862c",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "a0819ea5a6fb6b9a8b094c94874e2fd9024c37723605b369dcff583a6658fec8",
    ),
    "lhv ghz": (
        0,
        "c115ee2226efd93c4a327c71fa8395366c55b6307d3cbaa291749b684455411e",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "f9a716addc9e5f819e26a41db6cc42eae05b6a2ef8c839fd27441f575bcc0c90",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "8eb6a2d622ff05370a13744ffa1ffff7a8d70ac6437ad40897915b900a161e8b",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "eb205b30837661debf6c82615524e9b28b15036ec2096fd1aa39c5fa1d91da9e",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "cf90b3739dd96674df316d6dbd84bd2463841afbc35d3ab86322cbab3c072ebb",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "48be6acc9bdcb2a26f1e2425486f04af3c78cfbf05b4833d7352baa421d62d74",
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
            "174b27c9edf342c96fc1dec8f7e23bf9db62c3c3b1d3dae1103d74e262668223",
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
            "d608bcebb43f7825e7c698f88bae1d81e04c67f1afdb6c21675082dcc69b5d22",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "1e3a3be6d184df69cc083de4ada08521f1de75e7fc54d9c1e7da4cdab5dfc49e",
        ),
        # The (0, 0) coin pair of chsh --trials 200000 --seed 42, to k = 4.
        "battery {cell} {cell_fps} --blocks 1,2,3,4": (
            0,
            "a092209924a4a066847c428ea39bcc0f36abf850252ed76f596bc72dbe2067fb",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "ee43323227d057850789900889d41a1ac0344bdeafbdfcfe06ca034a44619f76",
        ),
        # A significance the golden world fails at k = 2, its one Holm-adjusted
        # p-value below it.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "ee008c601d6f22f5f35ba1eb9e5b2e628dd1f0cec88b270a387925a0d6b8040c",
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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_world_file_bytes_unchanged(threads, tmp_path):
    world = tmp_path / "world.json"
    template = f"chsh --trials 200000 --seed 42 --threads {threads} --world-out {{out}}"
    status, digest = report_digest(template, {"out": world})
    assert (status, digest) == GOLDEN["chsh --trials 200000 --seed 42"]
    assert hashlib.sha256(world.read_bytes()).hexdigest() == WORLD_FILE_SHA256
