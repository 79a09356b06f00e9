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

from typicality_lab import chsh as chsh_mod
from typicality_lab.chsh import RQST_TUPLES, chsh_distribution, coin_event
from typicality_lab.cli import main
from typicality_lab.ghz import LHV_ASSIGNMENTS
from typicality_lab.spaces import FiniteProbabilitySpace, uniform
from typicality_lab.worlds import condition_seq, sample_world

#: argv template -> (exit status, sha256 of stdout).
GOLDEN = {
    "chsh --trials 200000 --seed 42": (
        0,
        "43bfb285df4c0e9962cb9b43da943ea58f71f247d315d83658f7248d1048b086",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "ce55ed3c731cab8d93e91352513c36bac4e0bc93d12f707be1800b9272ab8d1b",
    ),
    "lhv ghz": (
        0,
        "8478600f9ca594e35e9828d0e30b508f5b9ab53eae6890fa0325e75558378809",
    ),
    "lhv chsh --sweep 1000 --seed 3": (
        0,
        "ffa6f7ae2d7f06e749f4551d67d2103b4dea4a306437ff1824f06d3324efc177",
    ),
    "lhv chsh --h-file {h} --trials 20000 --seed 4": (
        0,
        "5a4e5b228a6fc5e42c896284f2b239f4dfcac3d1cc5071e815b174c81adb3153",
    ),
    "battery {world} {fps} --tolerance 0.2": (
        0,
        "45d1acea96e4c1377f61a22c9c7d7ab88d160eb16c2e60ed4c07bb65ff65d087",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "8f11d555c6ae6e5a326173d085eb74f94a3121fd5787520882ed7d89b532a240",
    ),
    # 300001 trials: nine full 4-block chunks of 32768 symbols and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "9a3aaee6523692d1512ed9ed93eb568e7314ed0012301e6be986c98a2feef586",
    ),
}

#: The modes the reports above do not reach.
GOLDEN.update(
    {
        "lhv chsh --h-file {h}": (
            0,
            "f03b33746f8b3c22265ffcfecd1aacda2ea24c9c3bb5b1eec7085de506638585",
        ),
        "lhv ghz --h-file {p}": (
            0,
            "2e22a5afa58c17f5dc2f3c49154d151f22cce865e769617170926f6877c33815",
        ),
        # The (0, 0) coin pair of chsh --trials 200000 --seed 42, to k = 4.
        "battery {cell} {cell_fps} --blocks 1,2,3,4": (
            0,
            "dce48022fc2d02e4eeb1ab285f59836de4161283186537242fde07b4892a897b",
        ),
        # A band no sampled run meets, planted as ``chsh.SIGMAS``: the s-value check fails.
        "chsh --trials 200000 --seed 42 @SIGMAS=1e-9": (
            1,
            "b11d824c99da8c3636be4a88f285ae7a82c8743c8b3b54b9b747b23f50edff8c",
        ),
        # A significance the golden world fails at k = 2, its one Holm-adjusted
        # p-value below it.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "f3ef45466563e63f6ba6110a9cbda19be293859d98042eddca75957bf367107d",
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
    """The exit status and stdout of ``template``'s command, with any ``@NAME=value`` planted.

    A planted ``NAME`` is a constant of the ``chsh`` module, set to the float ``value``.
    """
    command, _, planted = template.partition(" @")
    buffer = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(buffer):
        if planted:
            name, value = planted.split("=")
            patch.setattr(chsh_mod, name, float(value))
        status = main(command.format(**files).split())
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


@pytest.mark.parametrize("template", sorted(GOLDEN))
def test_report_is_strict_json(template, input_files):
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    json.loads(run_report(template, input_files)[1], parse_constant=refuse)


@pytest.mark.parametrize("template", sorted(GOLDEN))
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
