"""Command-line entry point for protocol runs, hidden-variable analyses and the battery.

Every command is deterministic given its flags: seeds are explicit (use
``--seed random`` to draw one; it is printed so the run can be replayed),
reports carry no timestamps, and the canonical JSON output is
byte-identical across reruns and across ``--threads`` values.  Exit
status is 0 only when every gating check passes; each check is listed in
the report's ``checks``, and each failed gating one in its ``failures``.

The flow is parser -> :func:`_check_args` -> handler -> :func:`main`:
each subcommand's parser binds its handler, ``_check_args`` validates and
resolves the parsed namespace in place, and the handler reads it and
returns the report body and its :class:`~typicality_lab.checks.Check`
records.  ``main`` alone stamps the report with ``schema``, ``checks``
and the ``failures`` it derives from them, and sets the exit status.
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
from .worlds import WorldPrefix

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
    if not 0 <= seed < 2**64:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    return seed


def _load_json_file(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise UsageError(f"cannot read {what} file {path!r}: {err}")
    if not text.strip():
        raise UsageError(f"{what} file {path!r} is empty")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"{what} file {path!r} is not valid JSON: {err}")


def _load_fps(path: str, what: str) -> FiniteProbabilitySpace:
    obj = _load_json_file(path, what)
    try:
        return FiniteProbabilitySpace.from_json(obj)
    except ValueError as err:
        raise UsageError(f"invalid {what} file {path!r}: {err}")


def _load_h(path: str, analyse) -> tuple:
    """A hidden-variable distribution and ``analyse`` of it, which checks its alphabet."""
    h = _load_fps(path, "hidden-variable")
    try:
        return h, analyse(h)
    except ValueError as err:
        raise UsageError(f"invalid hidden-variable file {path!r}: {err}")


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


def cmd_lhv_chsh(args: argparse.Namespace) -> tuple[dict, list]:
    """Local-realist CHSH: a sweep, or the exact (and simulated) averages of ``--h-file``."""
    if args.sweep is not None:
        sweep = chsh_mod.lhv_sweep(args.sweep, args.seed)
        body, check = {"sweep": sweep.to_dict()}, sweep.check
    elif args.h_file is not None:
        h, exact = args.h
        if args.trials is not None:
            body = chsh_mod.lhv_chsh_simulate(h, args.trials, args.seed, args.threads).to_dict()
        else:
            body = exact.to_dict()
        check = chsh_mod.local_bound_check(exact.s_value)
    else:
        raise UsageError("lhv chsh requires --h-file or --sweep")
    return {"protocol": "lhv-chsh", **body}, [check]


def cmd_lhv_ghz(args: argparse.Namespace) -> tuple[dict, list]:
    """Local-realist GHZ: the enumeration, and the violation masses of ``--h-file``."""
    enumeration = ghz_mod.lhv_ghz_enumerate()
    body = {"protocol": "lhv-ghz", "lhv": enumeration.to_dict()}
    if args.h_file is not None:
        _, feasibility = _load_h(args.h_file, ghz_mod.lhv_ghz_feasibility)
        body["feasibility"] = feasibility.to_dict()
    return body, [enumeration.check]


def cmd_battery(args: argparse.Namespace) -> tuple[dict, list]:
    """Replay a stored world against a stored space through the battery."""
    world_obj = _load_json_file(args.world_file, "world")
    try:
        world = WorldPrefix.from_json(world_obj)
    except ValueError as err:
        raise UsageError(f"invalid world file {args.world_file!r}: {err}")
    fps = _load_fps(args.fps_file, "probability-space")
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
    """An argument parser whose errors are JSON usage errors, exit status 2."""

    def error(self, message: str):
        _print_usage_error(f"{self.prog}: {message}")
        sys.exit(2)


def _print_usage_error(message: str) -> None:
    error = {"schema": SCHEMA_VERSION, "error": {"code": "usage", "message": message}}
    print(json.dumps(error, sort_keys=True), file=sys.stderr)


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
    p_chsh.set_defaults(handler=cmd_chsh)

    p_ghz = sub.add_parser("ghz", help="run the quantum GHZ protocol")
    p_ghz.add_argument("--trials", type=int, required=True)
    p_ghz.add_argument("--seed", required=True)
    p_ghz.add_argument("--world-out", help="also save the sampled world (JSON)")
    add_common(p_ghz)
    p_ghz.set_defaults(handler=cmd_ghz)

    p_lhv = sub.add_parser("lhv", help="local-hidden-variable analyses")
    p_lhv.add_argument("protocol", choices=("chsh", "ghz"))
    p_lhv.add_argument("--h-file", help="hidden-variable distribution (JSON)")
    p_lhv.add_argument("--sweep", type=int, help="number of random distributions to test")
    p_lhv.add_argument("--trials", type=int, help="also simulate this many rounds")
    p_lhv.add_argument("--seed")
    add_common(p_lhv)
    # The positional's choices are exactly these two handlers' protocols.
    lhv_handlers = {"chsh": cmd_lhv_chsh, "ghz": cmd_lhv_ghz}
    p_lhv.set_defaults(handler=lambda args: lhv_handlers[args.protocol](args))

    p_batt = sub.add_parser("battery", help="test a stored world against a stored space")
    p_batt.add_argument("world_file", help="world JSON file")
    p_batt.add_argument("fps_file", help="probability-space JSON file")
    p_batt.add_argument("--seed")  # parsed only to be refused as a JSON usage error
    add_common(p_batt, battery_blocks=True)
    p_batt.set_defaults(handler=cmd_battery)

    return parser


#: The optional flags, without defaults, that each invocation reads.  One
#: given where it would be ignored is a usage error, not silently dropped.
#: An invocation that reads ``--seed`` requires it.
_FLAGS_READ = {
    "chsh": {"trials", "seed", "threads", "tolerance", "world_out"},
    "ghz": {"trials", "seed", "threads", "world_out"},
    "lhv chsh --sweep": {"sweep", "seed"},
    "lhv chsh --trials": {"h_file", "trials", "seed", "threads"},
    "lhv chsh": {"h_file"},
    "lhv ghz": {"h_file"},
    "battery": {"tolerance"},
}

#: The least ``--trials`` of each invocation that takes one.
_MIN_TRIALS = {
    "chsh": chsh_mod.MIN_TRIALS,
    "ghz": ghz_mod.MIN_TRIALS,
    "lhv chsh --trials": chsh_mod.MIN_TRIALS,
}


def _check_args(args: argparse.Namespace) -> None:
    """Validate the parsed flags and resolve them in place, or raise :class:`UsageError`.

    ``--blocks`` becomes a tuple, ``--threads`` defaults to 1, ``lhv chsh
    --h-file`` is loaded into ``args.h`` as the space and its exact
    averages, and ``--seed`` becomes an integer or None.
    """
    mode = " ".join(filter(None, [args.command, getattr(args, "protocol", None)]))
    if mode == "lhv chsh" and args.sweep is not None:
        mode += " --sweep"
    elif mode == "lhv chsh" and args.trials is not None:
        mode += " --trials"
    for flag in ("trials", "seed", "threads", "tolerance", "sweep", "h_file", "world_out"):
        if getattr(args, flag, None) is not None and flag not in _FLAGS_READ[mode]:
            raise UsageError(f"{mode} does not use --{flag.replace('_', '-')}")
    if hasattr(args, "blocks"):
        args.blocks = _parse_blocks(args.blocks)
    if args.threads is None:
        args.threads = 1
    elif args.threads < 1:
        raise UsageError("--threads must be at least 1")
    if mode in _MIN_TRIALS and args.trials < _MIN_TRIALS[mode]:
        raise UsageError(
            f"{mode.removesuffix(' --trials')} requires --trials >= {_MIN_TRIALS[mode]}"
        )
    if mode == "chsh" and args.tolerance is not None and not (
        math.isfinite(args.tolerance) and args.tolerance > 0
    ):
        raise UsageError(f"chsh requires a positive finite --tolerance, got {args.tolerance!r}")
    if mode == "lhv chsh --sweep" and args.sweep < 0:
        raise UsageError(f"--sweep must be non-negative, got {args.sweep}")
    if mode.startswith("lhv chsh") and args.h_file is not None:
        args.h = _load_h(args.h_file, chsh_mod.lhv_chsh_averages)
    # Last, so a drawn seed is printed only for an invocation that is valid so far.
    args.seed = _resolve_seed(args.seed, required="seed" in _FLAGS_READ[mode])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        body, checks = args.handler(args)
        failures = [
            {"check": c.name, "detail": f"{c.value!r} {RELATIONS[c.relation][1]} {c.bound!r}"}
            for c in checks
            if c.gating and not c.passed
        ]
        report = {**body, "checks": [c.to_dict() for c in checks], "failures": failures}
        _emit({"schema": SCHEMA_VERSION, **report}, args)
        return 1 if failures else 0
    except UsageError as err:
        _print_usage_error(str(err))
        return 2

