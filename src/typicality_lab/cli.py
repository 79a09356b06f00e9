"""Command-line entry point for protocol runs, hidden-variable analyses and the battery.

Every command is deterministic given its flags: seeds are explicit (use
``--seed random`` to draw one; it is printed so the run can be replayed),
and each writes one report, as canonical JSON with no timestamps, which
is byte-identical across reruns and across ``--threads`` values.  Exit
status is 0 only when every check passes; each check is listed in the
report's ``checks``, and each failed one in its ``failures``.

The flow is table -> parser -> handler -> :func:`main`.  Each invocation
(a command, with its protocol for ``lhv`` and its input for ``lhv chsh``)
has one entry in ``_INVOCATIONS``: its handler, the flags it reads and
the module its handler runs.  :func:`build_parser` gives every command
each flag of ``_FLAGS`` and helps only with those its invocations read.
:func:`_check_args` works out the invocation, refuses each flag it does
not read, imports its one module, validates and resolves the namespace
in place, and returns the handler and the module.  The handler runs that
module on the namespace and returns the report body and its checks.  So
a process loads only the package modules its invocation runs:
``lhv ghz`` loads no sampler, battery or numpy.  ``main`` alone
stamps the report with ``schema``, ``checks`` and the ``failures`` it
derives from them, turns every :class:`UsageError`, every MemoryError and
every output stream that refuses its text into the one-line JSON error,
and sets the exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import sys

from .checks import ATOL, RELATIONS, Check
from .spaces import _MAX_SEED, FiniteProbabilitySpace

__all__ = ["SCHEMA_VERSION", "main"]

SCHEMA_VERSION = 7


class UsageError(Exception):
    """Bad invocation or malformed input file; maps to exit status 2."""


def _parse_blocks(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--blocks expects comma-separated integers, got {raw!r}")


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
        import secrets  # deferred: most runs never use it

        seed = secrets.randbits(64)
        _write_stream(sys.stderr, f"seed: {seed}\n", "the seed")
        return seed
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"--seed expects an integer or 'random', got {raw!r}")
    if not 0 <= seed < _MAX_SEED:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    return seed


def _load(path: str, what: str, parse):
    """``parse`` of the text in ``path``; a bad file or a ValueError of ``parse`` is a UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {what} file {path!r}: {err}")
    if not text.strip():
        raise UsageError(f"{what} file {path!r} is empty")
    try:
        return parse(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"{what} file {path!r} is not valid JSON: {err}")
    except ValueError as err:
        raise UsageError(f"invalid {what} file {path!r}: {err}")
    except RecursionError:
        raise UsageError(f"{what} file {path!r} is nested too deeply")


def _load_h(path: str, require_alphabet) -> FiniteProbabilitySpace:
    """A hidden-variable distribution whose alphabet ``require_alphabet`` accepts."""

    def parse(text: str) -> FiniteProbabilitySpace:
        h = FiniteProbabilitySpace.from_json(text)
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


def _write_stream(stream, text: str, what: str) -> None:
    """Write and flush ``text``; a full disk or a closed pipe is a UsageError."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as err:
        raise UsageError(f"cannot write {what}: {err}")


def _world_writer(args: argparse.Namespace):
    """The callback that saves the run's own world to ``--world-out``, or None."""
    if args.world_out is not None:
        return lambda world: _write_text(args.world_out, world.to_json(), "--world-out")
    return None


def _cross_check(distribution) -> tuple[dict, Check]:
    """The report's ``cross_check`` entry for a protocol's distribution, and its check.

    Callers pass the distribution function as their protocol module holds
    it at call time, so that a wrapper installed there, such as a tracer,
    is the one called.  Every handler reads its protocol's functions that
    way.
    """
    analytic = distribution("analytic")
    operator = distribution("linear_algebra")
    diff = float(abs(analytic.weights - operator.weights).max())
    check = Check("distribution-cross-check", diff, "<=", ATOL)
    return {"max_abs_diff": diff, "tolerance": ATOL, "pass": check.passed}, check


def _cell_checks(run) -> list:
    """The check of each of a run's coin-tuple tests, named for its coins."""
    return [t.check._replace(name=f"{t.check.name}-cell-{c}") for c, t in run.cell_tests.items()]


def cmd_chsh(args: argparse.Namespace, chsh) -> tuple[dict, list]:
    """Quantum protocol run, distribution cross-check and the coin pairs' test family."""
    cross_check, cross = _cross_check(chsh.chsh_distribution)
    report_obj = chsh.run_chsh(args.trials, args.seed, args.threads, _world_writer(args))
    body = {"protocol": "chsh", **report_obj.to_dict(), "cross_check": cross_check}
    return body, [cross, report_obj.check, *_cell_checks(report_obj)]


def cmd_ghz(args: argparse.Namespace, ghz) -> tuple[dict, list]:
    """Quantum protocol run, its coin triples' test family and the hidden-value enumeration."""
    cross_check, cross = _cross_check(ghz.ghz_distribution)
    run = ghz.run_ghz(args.trials, args.seed, args.threads, _world_writer(args))
    enumeration = ghz.lhv_ghz_enumerate()
    body = {
        "protocol": "ghz",
        **run.to_dict(),
        "lhv": enumeration.to_dict(),
        "cross_check": cross_check,
    }
    return body, [run.check, *_cell_checks(run), enumeration.check, cross]


def cmd_lhv_chsh_sweep(args: argparse.Namespace, chsh) -> tuple[dict, list]:
    """Local-realist CHSH: the largest ``s`` of ``--sweep`` random hidden-variable distributions."""
    sweep = chsh.lhv_sweep(args.sweep, args.seed)
    return {"protocol": "lhv-chsh", "sweep": sweep.to_dict()}, [sweep.check]


def cmd_lhv_chsh_h_file(args: argparse.Namespace, chsh) -> tuple[dict, list]:
    """Local-realist CHSH: the exact averages of ``--h-file``, or ``--trials`` simulated rounds."""
    if args.trials is None:
        report = chsh.lhv_chsh_averages(args.h)
        checks = [chsh.local_bound_check(report.s_value)]
    else:
        report = chsh.lhv_chsh_simulate(args.h, args.trials, args.seed, args.threads)
        checks = [chsh.local_bound_check(report.exact.s_value), report.check]
    return {"protocol": "lhv-chsh", **report.to_dict()}, checks


def cmd_lhv_ghz(args: argparse.Namespace, ghz) -> tuple[dict, list]:
    """Local-realist GHZ: the enumeration, and the violation masses of ``--h-file``."""
    enumeration = ghz.lhv_ghz_enumerate()
    body = {"protocol": "lhv-ghz", "lhv": enumeration.to_dict()}
    if args.h is not None:
        body["feasibility"] = ghz.lhv_ghz_feasibility(args.h).to_dict()
    return body, [enumeration.check]


def cmd_battery(args: argparse.Namespace, battery) -> tuple[dict, list]:
    """Replay a stored world against a stored space through the battery."""
    from .worlds import WorldPrefix

    world = _load(args.world_file, "world", WorldPrefix.from_json)
    fps = _load(args.fps_file, "probability-space", FiniteProbabilitySpace.from_json)
    significance = battery.DEFAULT_SIGNIFICANCE if args.tolerance is None else args.tolerance
    blocks = battery.DEFAULT_BLOCK_LENS if args.blocks is None else _parse_blocks(args.blocks)
    try:
        result = battery.run_battery(world, fps, blocks, significance)
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


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = _canonical_json(report)
    if args.out is not None:
        _write_text(args.out, text, "--out")
    else:
        _write_stream(sys.stdout, text, "the report")


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, and help a stream refuses, are usage errors."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")

    def _print_message(self, message: str, file=None) -> None:
        if message:
            _write_stream(file or sys.stderr, message, "the help")


#: Each optional flag's ``argparse`` settings, by its ``args`` name.  Every
#: command parses all of them, so :func:`_check_args` refuses each flag an
#: invocation does not read by one rule, whichever command it was given to.
_FLAGS = {
    "trials": {"type": int, "help": "rounds to draw (lhv chsh: also simulate this many)"},
    "seed": {"help": "an integer, or 'random' to draw one and print it"},
    "threads": {"type": int, "help": "sampling threads (default 1)"},
    "tolerance": {"type": float, "help": "family-wise significance (default 0.01)"},
    "sweep": {"type": int, "help": "number of random distributions to test"},
    "h_file": {"help": "hidden-variable distribution (JSON)"},
    "world_out": {"help": "also save the sampled world (JSON)"},
    "blocks": {"help": "comma-separated block lengths (default 1,2,3)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="typicality-lab",
        description="Seeded CHSH/GHZ protocol runs, local-hidden-variable analyses, "
        "and block-frequency randomness checks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, about in (
        ("chsh", "run the quantum CHSH protocol"),
        ("ghz", "run the quantum GHZ protocol"),
        ("lhv", "local-hidden-variable analyses"),
        ("battery", "test a stored world against a stored space"),
    ):
        p = commands[command] = sub.add_parser(command, help=about, allow_abbrev=False)
        invocations = [entry for mode, entry in _INVOCATIONS.items() if mode.split()[0] == command]
        read = set().union(*(flags for _, flags, _ in invocations))
        for name, settings in _FLAGS.items():
            shown = settings if name in read else {**settings, "help": argparse.SUPPRESS}
            p.add_argument("--" + name.replace("_", "-"), **shown)
        p.add_argument("--out", help="write the report here instead of stdout")
    commands["lhv"].add_argument("protocol", choices=("chsh", "ghz"))
    commands["battery"].add_argument("world_file", help="world JSON file")
    commands["battery"].add_argument("fps_file", help="probability-space JSON file")
    return parser


#: The least ``--trials`` refused: the int64 symbol counts of a run hold less,
#: and a draw that long would take thousands of years.
_TRIALS_BEYOND = 2**63

#: Each invocation's handler, the optional flags (without defaults) it reads,
#: and the package module its handler runs.  A flag given where it would be
#: ignored is a usage error, not silently dropped, and a command's help shows
#: only the flags its invocations read.  An invocation that reads
#: ``--seed`` requires it, and one that reads ``--trials`` requires at least
#: its module's ``MIN_TRIALS`` and less than ``_TRIALS_BEYOND``.
_INVOCATIONS = {
    "chsh": (cmd_chsh, {"trials", "seed", "threads", "world_out"}, "chsh"),
    "ghz": (cmd_ghz, {"trials", "seed", "threads", "world_out"}, "ghz"),
    "lhv chsh --sweep": (cmd_lhv_chsh_sweep, {"sweep", "seed"}, "chsh"),
    "lhv chsh --trials": (cmd_lhv_chsh_h_file, {"h_file", "trials", "seed", "threads"}, "chsh"),
    "lhv chsh": (cmd_lhv_chsh_h_file, {"h_file"}, "chsh"),
    "lhv ghz": (cmd_lhv_ghz, {"h_file"}, "ghz"),
    "battery": (cmd_battery, {"tolerance", "blocks"}, "battery"),
}


def _check_args(args: argparse.Namespace):
    """Validate the parsed flags and resolve them in place; return the handler and its module.

    ``--threads`` defaults to 1, ``--h-file`` is loaded into ``args.h``
    (None without the flag) for every invocation that reads it, and
    ``--seed`` becomes an integer or None.  No path may be empty or hold a NUL,
    and no output may name a path the invocation also reads or writes.  A bad
    invocation raises :class:`UsageError`.
    """
    mode = " ".join(filter(None, [args.command, getattr(args, "protocol", None)]))
    if mode == "lhv chsh" and args.sweep is not None:
        mode += " --sweep"
    elif mode == "lhv chsh" and args.trials is not None:
        mode += " --trials"
    handler, flags_read, module_name = _INVOCATIONS[mode]
    for flag in _FLAGS:
        if getattr(args, flag) is not None and flag not in flags_read:
            raise UsageError(f"{mode} does not use --{flag.replace('_', '-')}")
    # Every path named: none may be empty or hold a NUL, as no file name can, and no
    # output may overwrite another path named; each pair that may clash starts with one.
    named = [("--out", args.out), ("--world-out", args.world_out), ("--h-file", args.h_file)]
    named += [("the world file", getattr(args, "world_file", None))]
    named += [("the probability-space file", getattr(args, "fps_file", None))]
    for name, path in named:
        if path == "":
            raise UsageError(f"{name} path '' names no file")
        if path and "\0" in path:
            raise UsageError(f"{name} path {path!r} holds a NUL character")
    paths = [(name, os.path.realpath(path)) for name, path in named if path]
    for (output, out_path), (name, path) in itertools.combinations(paths, 2):
        if output in ("--out", "--world-out") and path == out_path:
            raise UsageError(f"{output} and {name} name the same file")
    if args.threads is None:
        args.threads = 1
    elif args.threads < 1:
        raise UsageError("--threads must be at least 1")
    module = importlib.import_module(f"{__package__}.{module_name}")
    if "trials" in flags_read and (args.trials is None or args.trials < module.MIN_TRIALS):
        raise UsageError(
            f"{mode.removesuffix(' --trials')} requires --trials >= {module.MIN_TRIALS}"
        )
    if "trials" in flags_read and args.trials >= _TRIALS_BEYOND:
        raise UsageError("--trials must be below 2**63")
    if mode == "lhv chsh --sweep" and args.sweep < 0:
        raise UsageError(f"--sweep must be non-negative, got {args.sweep}")
    if handler is cmd_lhv_chsh_h_file and args.h_file is None:
        raise UsageError("lhv chsh requires --h-file or --sweep")
    if "h_file" in flags_read:
        args.h = None if args.h_file is None else _load_h(args.h_file, module._require_h_space)
    # Last, so a drawn seed is printed only for an invocation that is valid so far.
    args.seed = _resolve_seed(args.seed, required="seed" in flags_read)
    return handler, module


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; return 0 or 1 with a report, or 2 after a JSON usage error."""
    try:
        args = build_parser().parse_args(argv)
        handler, module = _check_args(args)
        body, checks = handler(args, module)
        failures = [
            {"check": c.name, "detail": f"{c.value!r} {RELATIONS[c.relation][1]} {c.bound!r}"}
            for c in checks
            if not c.passed
        ]
        report = {**body, "checks": [c.to_dict() for c in checks], "failures": failures}
        _emit({"schema": SCHEMA_VERSION, **report}, args)
        return 1 if failures else 0
    except (UsageError, MemoryError) as err:
        message = str(err) or "too little memory"
        error = {"schema": SCHEMA_VERSION, "error": {"code": "usage", "message": message}}
        with contextlib.suppress(OSError):  # a stderr that refuses the line: the status tells
            print(json.dumps(error, sort_keys=True), file=sys.stderr, flush=True)
        return 2

