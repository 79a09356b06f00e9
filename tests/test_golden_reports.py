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
        "9ecaeabc45cc792a56845c2a65b30a1a7f79b82dc4a2881c49ca5e3ac93b96f3",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "c5052507eececc06e1454aec7b9d2a141ec6f0a45a222448555b422e3b6f2d38",
    ),
    "lhv ghz": (
        0,
        "4ea86ddb229a4f9fa9e1acd321ba0be7de39b0c04c4b239e2af8b9a54a98c315",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "b2b1f37dbbe933a5f6c9088e8d9598d5b1371e252f3d14eb8e1c16ed5b679993",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "11b1410e907dfbcde988bd33dccdf8ab3d695b3259b23099b264527207e3fdb6",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "1d8a8d4b5e8a8cc16919c133deb2eb247957f92ed439f89a275205e84cdbe7a9",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "60c8ce0fa3610341dfe67874d6fc04ed6f144204a117e7761537cac4ab988657",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "761074d97101411b8417e9dcfd335d52070334f45d4a875e9236cc4e4acedde9",
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
            "75b23637ca6c31b48b1dcb14c0bd8781dc3ba3de43627816f6e69a685d7a498a",
        ),
        "lhv chsh --h-file {h}": (
            0,
            "c023f9fff84a1434b123996c44b00af6b74528f745dc987b841aa9c80a21c221",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "a460cbc1e644951a9efaf3938067c0ba6630a8a1f853b8e7bad04cad75256e3b",
        ),
        "chsh --trials 200000 --seed 42 --blocks 1,2,3,4": (
            0,
            "5464d93ac33775d5f8469e21e5635b8438f78484d3736a8ab3097b78b387d6fd",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "eec1c0a374ce1ad80e2331b29eb0d75a3edd6759a74e2c3ac1591b349cf0483a",
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
