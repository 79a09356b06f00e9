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
        "5b4dfb255f822c3f0ba24d813fb83f5b66dd8670489f40a84899a5fc2e9c1c1c",
    ),
    "ghz --trials 100000 --seed 7": (
        0,
        "aa70d639dba19feef886f4f086c2d9f7058f641460f621efa716b8d01b77762c",
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
        "b78a71e6d9fff26e8cc6af177f2bc650119ffde339bd6f40c1926f6f2dca7df5",
    ),
    "battery {world} {fps} --tolerance 1e-6": (
        0,
        "f0aa74e3a91a95df0a13e447f5e558938d5515f41706d55b27f48a4b030c7354",
    ),
    # 300001 trials: two full 16-block chunks and a partial one.
    "ghz --trials 300001 --seed 5": (
        0,
        "d6559792392bab5f69926f508e550b3e6be320a75ec9fc16a1e4556f838e6281",
    ),
}

#: The modes the reports above do not reach.
GOLDEN.update(
    {
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
            "1383710fda44a6742386a303d25a5994c119eaa823e16e9613a152e5f82112cf",
        ),
        # A band no sampled run meets, planted as ``chsh.SIGMAS``: the s-value check fails.
        "chsh --trials 200000 --seed 42 @SIGMAS=1e-9": (
            1,
            "821067e9e40681b1e164b1ce7da6b3f4612a80d66c09f29e7d11f801de465167",
        ),
        # A significance the golden world fails at k = 2, its one Holm-adjusted
        # p-value below it.
        "battery {world} {fps} --tolerance 0.999": (
            1,
            "a8c5130fcf4f26e9b7b50d5dd4c8d3139cb71750785945aa11c503357ca85468",
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
