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
        "e495af466127942c72108d8402d1ca67cdff322fa92cee95b224704adcc3ee15",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "9a918860346cda863635de8beae1962ce5460de1285dedc9793bdc343e66ca0e",
    ),
    "lhv ghz": (
        0,
        "2b2959d82ef7c441424b5594d9bb213dc56e0cd190dff4d29354476e6ebdaec8",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "178422bc83a2c4688826f1f7648f5f3459866cb524d45e956a6b2ee1839696aa",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "066d0a5c4823f24dd5b083041ab9669cb6aa209de3c1d5f967999ca6109570b8",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "a5bf8686160038352de05039be05ce6e0cb7d804023dc898e3d300c2ddaefc47",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "63a28c4abcf2669bc15de40458aa1a019184408674959b5eafe39c4ecc6a32ec",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "c5dcbfedeff30958fa066c5866df5c17c6ea9baf96fb964702b7091a8a6dbe72",
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
            "75b23637ca6c31b48b1dcb14c0bd8781dc3ba3de43627816f6e69a685d7a498a",
        ),
        "lhv chsh --h-file {h}": (
            0,
            "9ae5e564da2ad67ff7ceaa1501dee2606d0ce3555d0e0c458c341ebb6e8cbcf5",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "7b9b49a696161b08d499ad920fa4b188bd42a22070a1a8636d47b7c89959eebf",
        ),
        # The (0, 0) coin pair of chsh --trials 200000 --seed 42, to k = 4.
        "battery {cell} {cell_fps} --blocks 1,2,3,4": (
            0,
            "96fdf3aa5419fb7403d073baee681f729f000e50ce73dfa54bcf27c7cec271ca",
        ),
        # A tolerance no sampled run meets: the s-value check fails.
        "chsh --trials 200000 --seed 42 --tolerance 1e-9": (
            1,
            "994da4652d2ae43241f0c1793ff77164db54f386a2b27821524e0c385d64164e",
        ),
        # A significance the golden world fails at three block lengths.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "eb5c123d85539a278338b3b4008f955ea22914bf3d79d2417d0e8c4a7a67548d",
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
