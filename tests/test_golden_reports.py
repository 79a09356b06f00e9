"""Golden report bytes: the sha256 of canonical CLI reports at fixed seeds.

A change that alters any byte of these reports is a behaviour change, not
a speed-up, and must update the digests below on purpose.  The input
files are rebuilt from library constructors whose output is itself fixed.
"""

import contextlib
import hashlib
import io

import pytest

from typicality_lab.chsh import RQST_TUPLES, chsh_distribution
from typicality_lab.cli import main
from typicality_lab.spaces import uniform
from typicality_lab.worlds import sample_world

#: argv template -> (exit status, sha256 of stdout).
GOLDEN = {
    "chsh --trials 200000 --seed 42": (
        0,
        "ed7affc0a5f2a021e72f9b8aff930e404d91c2fe77240c655df61eec31d1c92b",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "7172fe8264da1880cc3657c5fa3d118ea7a2898f945a53e37f1cef1460b4c044",
    ),
    "lhv ghz": (
        0,
        "7d6a075f6d8e250904bbbbcae2a2b288beeec2a6f23c0bf0a7d3ed3460a4bede",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "6ee7cb81a06b34a74730947507d95b96105c68101c76a00b60d6e3dd8f09c77f",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "ee90c3d357a1e212d716deeb4f0462da5b4e266cb15de30b654ee052e83ee2e8",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "e8660e751afbede5b84b19ff20f5ce236c454c7ca2f4c08514831394f8a824d1",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "aaf24ee043d9c2133c7f64c550b5947b80d7d91c0ef96e57ad20b68a34fc75d2",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "7b9633903b3d4ee53fab567a18727adaf55b58d4dcf352137b15e0dd5866d0f6",
    ),
}

#: sha256 of the world file ``chsh --trials 200000 --seed 42 --world-out`` writes.
WORLD_FILE_SHA256 = "7f93effec4317e47255d33f5fe383adcc252081431e18e14e5d9804d0818169a"


def write_inputs(directory):
    """The uniform hidden-variable space, a CHSH world and the CHSH space."""
    files = {
        "h": directory / "h.json",
        "world": directory / "world.json",
        "fps": directory / "fps.json",
    }
    fps = chsh_distribution("analytic")
    files["h"].write_text(uniform(RQST_TUPLES).to_json())
    files["world"].write_text(sample_world(fps, 200_000, 11).to_json())
    files["fps"].write_text(fps.to_json())
    return files


def report_digest(template, files):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(template.format(**files).split())
    return status, hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("template", sorted(GOLDEN))
def test_report_bytes_unchanged(template, input_files):
    assert report_digest(template, input_files) == GOLDEN[template]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_world_file_bytes_unchanged(threads, tmp_path):
    world = tmp_path / "world.json"
    template = f"chsh --trials 200000 --seed 42 --threads {threads} --world-out {{out}}"
    status, digest = report_digest(template, {"out": world})
    assert (status, digest) == GOLDEN["chsh --trials 200000 --seed 42"]
    assert hashlib.sha256(world.read_bytes()).hexdigest() == WORLD_FILE_SHA256
