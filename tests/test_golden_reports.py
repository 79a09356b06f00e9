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

from typicality_lab.chsh import RQST_TUPLES, chsh_distribution
from typicality_lab.cli import main
from typicality_lab.ghz import LHV_ASSIGNMENTS
from typicality_lab.spaces import FiniteProbabilitySpace, uniform
from typicality_lab.worlds import sample_world

#: argv template -> (exit status, sha256 of stdout).
GOLDEN = {
    "chsh --trials 200000 --seed 42": (
        0,
        "022d97ac5a821a5a18ecf92b6158c69419e5cc3959537ec7f841526106a2b103",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "f3fee1c11198d6cb0626c080495465b63448fb8919eacb146b9b9e7649006b65",
    ),
    "lhv ghz": (
        0,
        "84f7763e2a850f5e16f54f111ea694da5e3e288674e3b8a3dc9c2bc534ea4f34",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "9a40c1a7ddb5d7d2c3aeaee73ffc42df2ba0ccac87e921c446cc378452bb31ae",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "b96afe337c5933c7d2e1f8b4143b667266a12687c40531e04e854b8640558f74",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "24779eabce32ade51db39937f9cc2c8b92b69a2f4b4b85100a4fc8a1ad79d00b",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "c37b496ad0c78e7cd596af7c9f0d693e1ec71a2ea4edf0fb8601b486ee2b118d",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "b3a3ca35466578e672f7ed2bd434aaf286ed4863e6a8b44b34c5c929cdb3df92",
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
            "bd19b2801275fbdfa31bfe2b78befc0a32aeddaabeb5d490c1f8e10761f43b0f",
        ),
        "lhv ghz --format csv": (
            0,
            "16c6ffa54e6e6a3e42885beb255c5e6f9828198e93565b4d55b8e91bdac07175",
        ),
        "battery {world} {fps} --tolerance 0.2 --format csv": (
            0,
            "75b23637ca6c31b48b1dcb14c0bd8781dc3ba3de43627816f6e69a685d7a498a",
        ),
        "lhv chsh --h-file {h}": (
            0,
            "b35e0151d7f4c0f63aac9bf6447040f91cca2f5efa07581b47ea7da2e9d9ea9d",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "e758e414788fc22030a069f0dbe3907d841bdad6edc1fde1d1b9f555b56f2aad",
        ),
        "chsh --trials 200000 --seed 42 --blocks 1,2,3,4": (
            0,
            "faec9f5f3a375e7b945d1fcccd7fa02483dd549168ff5ebfd93d7af41c43a7a6",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "3185aee72c04123b0bb55aff4c5cbce85800c156bc502cf213ae2d0c981627a2",
        ),
        # A significance the golden world fails at three block lengths.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "6b8ab75308be3cf290758b38d68a62044ac1c0e3266949e708212744fa8d4d1f",
        ),
        "battery {world} {fps} --tolerance 0.999 --format csv": (
            1,
            "24cae9c30e2a041c41f9834921e4f5081d0267e2aa2a84a814542be35fe7081a",
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
    """Hidden-variable spaces for CHSH (uniform) and GHZ, a CHSH world and the CHSH space."""
    files = {
        "h": directory / "h.json",
        "p": directory / "p.json",
        "world": directory / "world.json",
        "fps": directory / "fps.json",
    }
    fps = chsh_distribution("analytic")
    files["h"].write_text(uniform(RQST_TUPLES).to_json())
    # Weight 2k+1 on the k-th assignment, so no two constraints see the same mass.
    files["p"].write_text(
        FiniteProbabilitySpace(LHV_ASSIGNMENTS, [(2 * k + 1) / 64**2 for k in range(64)]).to_json()
    )
    files["world"].write_text(sample_world(fps, 200_000, 11).to_json())
    files["fps"].write_text(fps.to_json())
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
