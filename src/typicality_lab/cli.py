"""Command-line entry point for protocol runs, hidden-variable analyses and the battery.

Every command is deterministic given its flags: seeds are explicit (use
``--seed random`` to draw one; it is printed so the run can be replayed),
reports carry no timestamps, and the canonical JSON output is
byte-identical across reruns and across ``--threads`` values.  Exit
status is 0 only when every gating check passes; each check is listed in
the report's ``checks``, and each failed gating one in its ``failures``.

The flow is table -> handler -> :func:`main`.  Each invocation (a
command, with its protocol for ``lhv`` and its input for ``lhv chsh``)
has one entry in ``_INVOCATIONS``: its handler, the flags it reads and
its least ``--trials``.  :func:`_check_args` works out the invocation, validates
and resolves the parsed namespace in place against its entry, and
returns the handler, which reads the namespace and returns the report
body and its :class:`~typicality_lab.checks.Check` records.  ``main``
alone stamps the report with ``schema``, ``checks`` and the ``failures``
it derives from them, turns every :class:`UsageError` into the one-line
JSON error, and sets the exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys

from . import battery as battery_mod
from . import chsh as chsh_mod
from . import ghz as ghz_mod
from .checks import RELATIONS, Check
from .linalg import ATOL
from .spaces import FiniteProbabilitySpace
from .worlds import _MAX_SEED, WorldPrefix

__all__ = ["SCHEMA_VERSION", "main"]

SCHEMA_VERSION = 3


class UsageError(Exception):
    """Bad invocation or malformed input file; maps to exit status 2."""


def _parse_blocks(raw: str) -> tuple[int, ...]:
    try:
        blocks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--blocks expects comma-separated integers, got {raw!r}")
    if not blocks or any(b < 1 for b in blocks):
        raise UsageError(f"--blocks expects positive integers, got {raw!r}")
    if len(set(blocks)) != len(blocks):
        raise UsageError(f"--blocks repeats a block length, got {raw!r}")
    return blocks


def _resolve_seed(raw: str | None, required: bool) -> int | None:
    # A drawn seed is printed at once.  Callers resolve it after every input
    # check that needs no seed, so a usage error prints no seed.  Writing
    # --out or --world-out can still fail later, after the run has used the
    # seed; the seed line printed before that error names the run.
    if raw is None:
        if required:
            raise UsageError("--seed is required (use '--seed random' to draw one)")
        return None
    if raw == "random":
        import secrets  # deferred, as csv below: most runs never use it

        seed = secrets.randbits(64)
        print(f"seed: {seed}", file=sys.stderr)
        return seed
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"--seed expects an integer or 'random', got {raw!r}")
    if not 0 <= seed < _MAX_SEED:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    return seed


def _load(path: str, what: str, parse):
    """``parse`` of the JSON in ``path``; a bad file or a ValueError of ``parse`` is a UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {what} file {path!r}: {err}")
    if not text.strip():
        raise UsageError(f"{what} file {path!r} is empty")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"{what} file {path!r} is not valid JSON: {err}")
    try:
        return parse(obj)
    except ValueError as err:
        raise UsageError(f"invalid {what} file {path!r}: {err}")


def _load_h(path: str, require_alphabet) -> FiniteProbabilitySpace:
    """A hidden-variable distribution whose alphabet ``require_alphabet`` accepts."""

    def parse(obj) -> FiniteProbabilitySpace:
        h = FiniteProbabilitySpace.from_json(obj)
        require_alphabet(h)
        return h

    return _load(path, "hidden-variable", parse)


# -- commands ----------------------------------------------------------


def _write_text(path: str, text: str, flag: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {flag} file {path!r}: {err}")


@contextlib.contextmanager
def _world_saver(args: argparse.Namespace):
    """The callback that saves the run's own world to ``--world-out``, or None.

    Too little memory to keep or serialize that world is a usage error.
    """
    if not args.world_out:
        yield None
        return
    try:
        yield lambda world: _write_text(args.world_out, world.to_json(), "--world-out")
    except MemoryError:
        raise UsageError(f"--world-out: too little memory for a world of {args.trials} trials")


def _cross_check(distribution) -> tuple[dict, Check]:
    """The report's ``cross_check`` entry for a protocol's distribution, and its check.

    Callers pass the distribution function as their protocol module holds
    it at call time, so that a wrapper installed there, such as a tracer,
    is the one called.
    """
    analytic = distribution("analytic")
    operator = distribution("linear_algebra")
    diff = float(abs(analytic.weights - operator.weights).max())
    check = Check("distribution-cross-check", diff, "<=", ATOL)
    return {"max_abs_diff": diff, "tolerance": ATOL, "pass": check.passed}, check


def cmd_chsh(args: argparse.Namespace) -> tuple[dict, list]:
    """Quantum protocol run and distribution cross-check; the coin-pair batteries never gate."""
    cross_check, cross = _cross_check(chsh_mod.chsh_distribution)
    with _world_saver(args) as on_world:
        report_obj = chsh_mod.run_chsh(
            args.trials, args.seed, args.threads, battery_blocks=args.blocks, on_world=on_world
        )
    s_tolerance = report_obj.tolerances["s_value"] if args.tolerance is None else args.tolerance
    s_error = abs(report_obj.s_value - chsh_mod.S_TARGET)
    checks = [cross, Check("s-value", s_error, "<=", s_tolerance)] + [
        dataclasses.replace(t.check, name=f"{t.check.name}-cell-{cell}", gating=False)
        for cell, battery in (report_obj.batteries or {}).items()
        for t in battery.tests
    ]
    body = {
        "protocol": "chsh",
        **report_obj.to_dict(),
        "s_target": chsh_mod.S_TARGET,
        "s_tolerance": s_tolerance,
        "cross_check": cross_check,
    }
    return body, checks


def cmd_ghz(args: argparse.Namespace) -> tuple[dict, list]:
    """Quantum protocol run plus the exhaustive hidden-value enumeration."""
    cross_check, cross = _cross_check(ghz_mod.ghz_distribution)
    with _world_saver(args) as on_world:
        run = ghz_mod.run_ghz(args.trials, args.seed, threads=args.threads, on_world=on_world)
    enumeration = ghz_mod.lhv_ghz_enumerate()
    body = {
        "protocol": "ghz",
        **run.to_dict(),
        "lhv": enumeration.to_dict(),
        "cross_check": cross_check,
    }
    return body, [run.check, enumeration.check, cross]


def cmd_lhv_chsh_sweep(args: argparse.Namespace) -> tuple[dict, list]:
    """Local-realist CHSH: the largest ``s`` of ``--sweep`` random hidden-variable distributions."""
    sweep = chsh_mod.lhv_sweep(args.sweep, args.seed)
    return {"protocol": "lhv-chsh", "sweep": sweep.to_dict()}, [sweep.check]


def cmd_lhv_chsh_h_file(args: argparse.Namespace) -> tuple[dict, list]:
    """Local-realist CHSH: the exact averages of ``--h-file``, or ``--trials`` simulated rounds."""
    if args.trials is None:
        report = exact = chsh_mod.lhv_chsh_averages(args.h)
    else:
        report = chsh_mod.lhv_chsh_simulate(args.h, args.trials, args.seed, args.threads)
        exact = report.exact
    body = {"protocol": "lhv-chsh", **report.to_dict()}
    return body, [chsh_mod.local_bound_check(exact.s_value)]


def cmd_lhv_ghz(args: argparse.Namespace) -> tuple[dict, list]:
    """Local-realist GHZ: the enumeration, and the violation masses of ``--h-file``."""
    enumeration = ghz_mod.lhv_ghz_enumerate()
    body = {"protocol": "lhv-ghz", "lhv": enumeration.to_dict()}
    if args.h_file is not None:
        h = _load_h(args.h_file, ghz_mod._require_assignment_space)
        body["feasibility"] = ghz_mod.lhv_ghz_feasibility(h).to_dict()
    return body, [enumeration.check]


def cmd_battery(args: argparse.Namespace) -> tuple[dict, list]:
    """Replay a stored world against a stored space through the battery."""
    world = _load(args.world_file, "world", WorldPrefix.from_json)
    fps = _load(args.fps_file, "probability-space", FiniteProbabilitySpace.from_json)
    if world.alphabet != fps.alphabet:
        raise UsageError(
            "world and probability-space alphabets differ (symbols and order must match)"
        )
    significance = battery_mod.DEFAULT_SIGNIFICANCE if args.tolerance is None else args.tolerance
    try:
        result = battery_mod.run_battery(world, fps, args.blocks, significance)
    except ValueError as err:
        raise UsageError(str(err))
    body = {
        "protocol": "battery",
        "world_length": len(world),
        "significance": significance,
        **result.to_dict(),
    }
    return body, [t.check for t in result.tests]


# -- output ------------------------------------------------------------


def _canonical_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _csv_view(report: dict) -> str:
    """Lossy CSV view: the averages or per-test rows, nothing else."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    protocol = report.get("protocol")
    if protocol in ("chsh", "lhv-chsh") and "averages" in report:
        avg = report["averages"]
        writer.writerow(["rs", "qs", "rt", "qt", "s_value"])
        writer.writerow([avg["rs"], avg["qs"], avg["rt"], avg["qt"], report["s_value"]])
    elif protocol == "lhv-chsh" and "sweep" in report:
        fields = ["max_s_value", "vertex_max_s_value", "num_random", "bound_ok"]
        writer.writerow(fields)
        writer.writerow([report["sweep"][field] for field in fields])
    elif protocol == "ghz":
        writer.writerow(["triple", "kind", "count", "value"])
        for triple, entry in sorted(report.get("perfect_correlation", {}).items()):
            writer.writerow([triple, "violations", entry["count"], entry["violations"]])
        for triple, entry in sorted(report.get("free_triples", {}).items()):
            writer.writerow([triple, "mean_product", entry["count"], entry["mean_product"]])
    elif protocol == "lhv-ghz":
        writer.writerow(["field", "value"])
        writer.writerow(["satisfying_count", report["lhv"]["satisfying_count"]])
        writer.writerow(["plus_only_count", report["lhv"]["plus_only_count"]])
    elif protocol == "battery":
        writer.writerow(["block_len", "statistic", "p_value", "dof", "pass"])
        for t in report["tests"]:
            writer.writerow([t["block_len"], t["statistic"], t["p_value"], t["dof"], t["pass"]])
    return buffer.getvalue()


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = _canonical_json(report) if args.fmt == "json" else _csv_view(report)
    if args.out:
        _write_text(args.out, text, "--out")
    else:
        sys.stdout.write(text)


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, which :func:`main` reports."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="typicality-lab",
        description="Seeded CHSH/GHZ protocol runs, local-hidden-variable analyses, "
        "and block-frequency randomness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, battery_blocks: bool = False) -> None:
        p.add_argument("--threads", type=int, help="sampling threads (default 1)")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--tolerance",
            type=float,
            help="override the default acceptance tolerance (battery: significance)",
        )
        if battery_blocks:
            p.add_argument(
                "--blocks",
                default="1,2,3",
                help="comma-separated block lengths for the battery",
            )

    p_chsh = sub.add_parser("chsh", help="run the quantum CHSH protocol")
    p_chsh.add_argument("--trials", type=int, required=True)
    p_chsh.add_argument("--seed", required=True)
    p_chsh.add_argument("--world-out", help="also save the sampled world (JSON)")
    add_common(p_chsh, battery_blocks=True)

    p_ghz = sub.add_parser("ghz", help="run the quantum GHZ protocol")
    p_ghz.add_argument("--trials", type=int, required=True)
    p_ghz.add_argument("--seed", required=True)
    p_ghz.add_argument("--world-out", help="also save the sampled world (JSON)")
    add_common(p_ghz)

    p_lhv = sub.add_parser("lhv", help="local-hidden-variable analyses")
    p_lhv.add_argument("protocol", choices=("chsh", "ghz"))
    p_lhv.add_argument("--h-file", help="hidden-variable distribution (JSON)")
    p_lhv.add_argument("--sweep", type=int, help="number of random distributions to test")
    p_lhv.add_argument("--trials", type=int, help="also simulate this many rounds")
    p_lhv.add_argument("--seed")
    add_common(p_lhv)

    p_batt = sub.add_parser("battery", help="test a stored world against a stored space")
    p_batt.add_argument("world_file", help="world JSON file")
    p_batt.add_argument("fps_file", help="probability-space JSON file")
    p_batt.add_argument("--seed")  # parsed only to be refused as a JSON usage error
    add_common(p_batt, battery_blocks=True)

    return parser


#: Each invocation's handler, the optional flags (without defaults) it reads,
#: and its least ``--trials``, or None where it takes none.  A flag given
#: where it would be ignored is a usage error, not silently dropped.  An
#: invocation that reads ``--seed`` requires it.
_INVOCATIONS = {
    "chsh": (
        cmd_chsh,
        {"trials", "seed", "threads", "tolerance", "world_out"},
        chsh_mod.MIN_TRIALS,
    ),
    "ghz": (cmd_ghz, {"trials", "seed", "threads", "world_out"}, ghz_mod.MIN_TRIALS),
    "lhv chsh --sweep": (cmd_lhv_chsh_sweep, {"sweep", "seed"}, None),
    "lhv chsh --trials": (
        cmd_lhv_chsh_h_file,
        {"h_file", "trials", "seed", "threads"},
        chsh_mod.MIN_TRIALS,
    ),
    "lhv chsh": (cmd_lhv_chsh_h_file, {"h_file"}, None),
    "lhv ghz": (cmd_lhv_ghz, {"h_file"}, None),
    "battery": (cmd_battery, {"tolerance"}, None),
}


def _check_args(args: argparse.Namespace):
    """Validate the parsed flags and resolve them in place; return the invocation's handler.

    ``--blocks`` becomes a tuple, ``--threads`` defaults to 1, ``lhv chsh
    --h-file`` is loaded into ``args.h``, and ``--seed`` becomes an integer
    or None.  A bad invocation raises :class:`UsageError`.
    """
    mode = " ".join(filter(None, [args.command, getattr(args, "protocol", None)]))
    if mode == "lhv chsh" and args.sweep is not None:
        mode += " --sweep"
    elif mode == "lhv chsh" and args.trials is not None:
        mode += " --trials"
    handler, flags_read, min_trials = _INVOCATIONS[mode]
    for flag in ("trials", "seed", "threads", "tolerance", "sweep", "h_file", "world_out"):
        if getattr(args, flag, None) is not None and flag not in flags_read:
            raise UsageError(f"{mode} does not use --{flag.replace('_', '-')}")
    if hasattr(args, "blocks"):
        args.blocks = _parse_blocks(args.blocks)
    if args.threads is None:
        args.threads = 1
    elif args.threads < 1:
        raise UsageError("--threads must be at least 1")
    if min_trials is not None and args.trials < min_trials:
        raise UsageError(f"{mode.removesuffix(' --trials')} requires --trials >= {min_trials}")
    if mode == "chsh" and args.tolerance is not None and not (
        math.isfinite(args.tolerance) and args.tolerance > 0
    ):
        raise UsageError(f"chsh requires a positive finite --tolerance, got {args.tolerance!r}")
    if mode == "lhv chsh --sweep" and args.sweep < 0:
        raise UsageError(f"--sweep must be non-negative, got {args.sweep}")
    if handler is cmd_lhv_chsh_h_file:
        if args.h_file is None:
            raise UsageError("lhv chsh requires --h-file or --sweep")
        args.h = _load_h(args.h_file, chsh_mod._require_rqst_space)
    # Last, so a drawn seed is printed only for an invocation that is valid so far.
    args.seed = _resolve_seed(args.seed, required="seed" in flags_read)
    return handler


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; return 0 or 1 with a report, or 2 after a JSON usage error."""
    try:
        args = build_parser().parse_args(argv)
        body, checks = _check_args(args)(args)
        failures = [
            {"check": c.name, "detail": f"{c.value!r} {RELATIONS[c.relation][1]} {c.bound!r}"}
            for c in checks
            if c.gating and not c.passed
        ]
        report = {**body, "checks": [c.to_dict() for c in checks], "failures": failures}
        _emit({"schema": SCHEMA_VERSION, **report}, args)
        return 1 if failures else 0
    except UsageError as err:
        error = {"schema": SCHEMA_VERSION, "error": {"code": "usage", "message": str(err)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2

