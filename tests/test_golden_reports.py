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
from typicality_lab.ghz import LHV_ASSIGNMENTS
from typicality_lab.spaces import FiniteProbabilitySpace, uniform
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
            "48519c1a5290f264ba6f11e3254338f42d49dcf191b08ca5293106949aaf628d",
        ),
        "lhv ghz --format csv": (
            0,
            "16c6ffa54e6e6a3e42885beb255c5e6f9828198e93565b4d55b8e91bdac07175",
        ),
        "battery {world} {fps} --tolerance 0.2 --format csv": (
            0,
            "9de20eb18d36094353e04b196c455c2fd9d38d81d2ff00d5b4f7682b96bbcae7",
        ),
        "lhv chsh --h-file {h}": (
            0,
            "1c1fcc6a0cfc8336b113af0449860dee9711f439b88b0acd71936faa1c1207ac",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "c6f115af5b0af1bb98babd3c15ff8b701be8312385d3ee53457b7cc88009ba13",
        ),
        "chsh --trials 200000 --seed 42 --blocks 1,2,3,4": (
            0,
            "8ba0ded405528a826cdff05b406debaf5b5f2298a072f7378db4ddbff20e5b4b",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "abc2140e8e2389d2ea5bbaa62d9922fba7b441e43d960edcdd5f1f3ac8e4952e",
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
