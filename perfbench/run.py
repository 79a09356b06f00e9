"""Closed-loop benchmark of the typicality-lab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a workload's commands as fresh processes, each starting
after the previous one exits; one pass is the workload's command list in
order.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
``--workload all`` runs every workload in both modes.  End-to-end times are
scaled by a contention probe timed beside each command (see ``spawn``).
Every invocation's report is checked; the last line of stdout is one JSON
result object.
The package measured is the one under ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
HARNESS = HERE / "traced_cli.py"
PYTHON = sys.executable

#: Fewest untraced passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: The contention probe: a fixed pure-Python loop that this process times
#: every PROBE_EVERY_S on the CPU a measured command is bound to.  Other
#: tenants of a shared host slow both alike, so end-to-end times are scaled
#: by PROBE_S over the mean probe time seen while the command ran.
PROBE_LOOP = 5000
PROBE_EVERY_S = 0.05
PROBE_S = 0.001

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_self_s": "s",
    "cli.report_bytes": "bytes",
    "linalg.operator_dist_s": "s",
    "linalg.operator_dist_calls": "count",
    "worlds.sample_s": "s",
    "worlds.sample_calls": "count",
    "worlds.sample_symbols_per_s": "1/s",
    "worlds.sample_thread_speedup": "ratio",
    "worlds.condition_s": "s",
    "worlds.condition_calls": "count",
    "worlds.condition_symbols_scanned": "count",
    "worlds.index_bytes": "bytes",
    "worlds.sampled_per_trial": "ratio",
    "worlds.to_json_s": "s",
    "worlds.from_json_s": "s",
    "worlds.world_file_bytes": "bytes",
    "chsh.run_self_s": "s",
    "ghz.run_self_s": "s",
    "battery.s": "s",
    "battery.tests": "count",
    "battery.blocks_tested": "count",
    "battery.rejections": "count",
    "spaces.constructed": "count",
    "spaces.self_s": "s",
    "chsh.lhv_sweep_s": "s",
    "chsh.sweep_spaces_per_s": "1/s",
    "chsh.lhv_averages_calls": "count",
    "chsh.lhv_simulate_self_s": "s",
    "ghz.lhv_s": "s",
    "trace.overhead_s": "s",
}

_ENV_PROBE = (
    "import json, sys, numpy, scipy, typicality_lab.cli as cli; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'module_file': cli.__file__}))"
)
_SETUP = "import typicality_lab.cli"


class BenchmarkError(Exception):
    """The checkout cannot be measured; no result is printed."""


# -- processes -----------------------------------------------------------


@dataclass
class Child:
    status: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    speed: float = 1.0


def child_env() -> dict:
    """This checkout's src first on PYTHONPATH; no TYPICALITY_LAB_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TYPICALITY_LAB_")}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def probe() -> float:
    """Seconds the probe loop takes on the calling thread's CPU."""
    start = time.perf_counter()
    totals: dict[int, float] = {}
    for i in range(PROBE_LOOP):
        totals[i % 97] = totals.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - start


def bound_cpus(argv: list[str]) -> set[int]:
    """One CPU for a single-threaded command; every allowed CPU for --threads > 1."""
    allowed = sorted(os.sched_getaffinity(0))
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    return set(allowed) if threads > 1 else {allowed[0]}


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict, cpus=None) -> Child:
    """Run one process to completion; peak RSS and CPU come from its own wait4.

    With ``cpus``, the process is bound to them, and while it runs the probe
    is timed on each of them in turn; ``speed`` is PROBE_S over the mean.
    A thread reaps the process, so that its end is timed to the moment.
    """
    everywhere = os.sched_getaffinity(0)
    order = itertools.cycle(sorted(cpus)) if cpus else None
    reaped = {}
    done = threading.Event()
    samples: list[float] = []
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        try:
            if cpus:
                os.sched_setaffinity(0, cpus)  # the child inherits it
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=WORKDIR)

            def reap():
                try:
                    reaped["wait4"] = os.wait4(proc.pid, 0)
                    reaped["end"] = time.perf_counter()
                finally:
                    done.set()

            waiter = threading.Thread(target=reap, daemon=True)
            waiter.start()
            try:
                while not done.wait(PROBE_EVERY_S):
                    if order:
                        os.sched_setaffinity(0, {next(order)})
                        samples.append(probe())
            except BaseException:
                if not done.is_set():
                    proc.kill()
                waiter.join()
                raise
            if order and not samples:
                samples.append(probe())
        finally:
            os.sched_setaffinity(0, everywhere)
    _, status, usage = reaped["wait4"]
    return Child(
        status=os.waitstatus_to_exitcode(status),
        wall_s=reaped["end"] - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        speed=PROBE_S * len(samples) / sum(samples) if samples else 1.0,
    )


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _commit() -> str:
    """HEAD of this checkout, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_environment(env: dict) -> dict:
    """Versions of what is measured; asserts the package is this checkout's."""
    if not (SRC / "typicality_lab").is_dir():
        raise BenchmarkError(f"no typicality_lab package under {SRC}")
    child = spawn([PYTHON, "-c", _ENV_PROBE], WORKDIR / "env.json", WORKDIR / "env.err", env)
    if child.status != 0:
        raise BenchmarkError("cannot import typicality_lab.cli: see " + str(WORKDIR / "env.err"))
    info = json.loads((WORKDIR / "env.json").read_text())
    if not _inside_src(info["module_file"]):
        raise BenchmarkError(f"typicality_lab resolves to {info['module_file']}, not {SRC}")
    info.update(nproc=os.cpu_count(), commit=_commit())
    return info


# -- checks --------------------------------------------------------------


@dataclass
class Ledger:
    """Every invocation's exact checks, and report bytes compared across passes."""

    inputs: dict
    attempted: int = 0
    failed: int = 0
    rejections: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def record(self, index: int, argv: list[str], status: int, report: Path, tag: str):
        data = report.read_bytes() if report.exists() else b""
        out = workloads.check(argv, status, data, self.inputs)
        if "--world-out" in argv:
            world = Path(argv[argv.index("--world-out") + 1])
            data = world.read_bytes() if world.exists() else b""
            out.digest += "+world:" + hashlib.sha256(data).hexdigest()
        first = self.reference.setdefault(index, (out.digest, out.report_bytes, argv))
        if first[0] != out.digest:
            out.errors.append("report bytes differ from the first pass")
        self.rejections[index] = out.rejections
        self.attempted += 1
        if out.errors:
            self.failed += 1
            self.errors.append(f"{tag} {' '.join(argv)}: {'; '.join(out.errors)}")
        return out


# -- passes --------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    scaled_wall_s: float
    scaled_cpu_s: float


def untraced_pass(cmds, ledger: Ledger, env: dict, tag: str, probed=False) -> PassResult:
    """One pass; ``probed`` binds each command to CPUs and probes them (see spawn)."""
    children, reports = [], []
    start = time.perf_counter()
    for i, argv in enumerate(cmds):
        report = WORKDIR / f"report-{i}.json"
        cli = [PYTHON, "-m", "typicality_lab", *argv]
        cpus = bound_cpus(argv) if probed else None
        child = spawn(cli, report, WORKDIR / f"stderr-{i}.txt", env, cpus)
        children.append(child)
        reports.append(report)
    wall = time.perf_counter() - start
    for i, (argv, child, report) in enumerate(zip(cmds, children, reports)):
        ledger.record(i, argv, child.status, report, tag)
    return PassResult(
        wall_s=wall,
        peak_rss_mb=max(c.rss_mb for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        scaled_wall_s=sum(c.wall_s * c.speed for c in children),
        scaled_cpu_s=sum(c.cpu_s * c.speed for c in children),
    )


def traced_command(argv, index: int, tag: str, env: dict):
    """Run one command through the tracing harness; returns (child, report, spans, stderr)."""
    trace_dir = WORKDIR / "trace"
    trace_dir.mkdir(exist_ok=True)
    spans = trace_dir / f"{tag}-cmd{index}.json"
    report = trace_dir / f"{tag}-cmd{index}.report"
    stderr = trace_dir / f"{tag}-cmd{index}.stderr"
    harness = [PYTHON, "-X", "importtime", str(HARNESS), str(spans), str(report), *argv]
    child = spawn(harness, WORKDIR / "harness.out", stderr, env)
    return child, report, spans, stderr


def _load_trace(path: Path) -> dict:
    try:
        trace = json.loads(path.read_text())
    except (OSError, ValueError):
        return {"spans": [], "counts": {}}
    if not _inside_src(trace["module_file"]):
        raise BenchmarkError(f"traced run imported {trace['module_file']}, not {SRC}")
    return trace


def import_times(stderr: Path) -> tuple[float, float]:
    """Seconds spent importing typicality_lab and, within it, scipy (from -X importtime).

    Lines are printed when an import completes, children before parents,
    so walking them backwards visits each parent before its children.
    """
    entries = []
    for line in stderr.read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    package_us = scipy_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if depth == 0 and name.split(".")[0] == "typicality_lab":
            package_us += cumulative
        if is_scipy and not in_scipy:
            scipy_us += cumulative
        stack.append((depth, in_scipy or is_scipy))
    return package_us / 1e6, scipy_us / 1e6


def traced_pass(cmds, ledger: Ledger, env: dict, tag: str, imports: list) -> tuple[float, dict]:
    """One pass through the tracing harness; returns its wall time and layer totals."""
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(cmds):
        results.append(traced_command(argv, i, tag, env))
    wall = time.perf_counter() - start
    traces, report_bytes = [], 0
    for i, (argv, (child, report, spans, stderr)) in enumerate(zip(cmds, results)):
        report_bytes += ledger.record(i, argv, child.status, report, tag).report_bytes
        traces.append(_load_trace(spans))
        imports.append(import_times(stderr))
    return wall, pass_layers(traces, cmds, report_bytes)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def pass_layers(traces: list[dict], cmds, report_bytes: int) -> dict:
    """Per-layer totals of one traced pass, from its spans and counts."""
    dur, own, calls, counts = Counter(), Counter(), Counter(), Counter()
    for trace in traces:
        child_ns = defaultdict(int)
        for _, parent, _, start, end in trace["spans"]:
            child_ns[parent] += end - start
        for span_id, _, name, start, end in trace["spans"]:
            dur[name] += end - start
            own[name] += end - start - child_ns[span_id]
            calls[name] += 1
        counts.update(trace["counts"])
    s = {name: ns / 1e9 for name, ns in dur.items()}
    self_s = {name: ns / 1e9 for name, ns in own.items()}
    get = lambda table, name: table.get(name, 0.0)  # noqa: E731
    trials = sum(workloads.trials_requested(argv) for argv in cmds)
    return {
        "cli.main_self_s": get(self_s, "cli.main"),
        "cli.report_bytes": report_bytes,
        "linalg.operator_dist_s": get(s, "linalg.operator_dist"),
        "linalg.operator_dist_calls": calls["linalg.operator_dist"],
        "worlds.sample_s": get(s, "worlds.sample_world"),
        "worlds.sample_calls": calls["worlds.sample_world"],
        "worlds.sample_symbols_per_s": _rate(
            counts["worlds.sample_symbols"], get(s, "worlds.sample_world")
        ),
        "worlds.condition_s": get(s, "worlds.condition_seq"),
        "worlds.condition_calls": calls["worlds.condition_seq"],
        "worlds.condition_symbols_scanned": counts["worlds.condition_symbols_scanned"],
        "worlds.index_bytes": max(t["counts"].get("worlds.index_bytes", 0) for t in traces),
        "worlds.sampled_per_trial": _rate(counts["worlds.sample_symbols"], trials),
        "worlds.to_json_s": get(s, "worlds.to_json"),
        "worlds.from_json_s": get(s, "worlds.from_json"),
        "worlds.world_file_bytes": counts["worlds.world_file_bytes"],
        "chsh.run_self_s": get(self_s, "chsh.run_chsh"),
        "ghz.run_self_s": get(self_s, "ghz.run_ghz"),
        "battery.s": get(s, "battery.run_battery"),
        "battery.tests": counts["battery.tests"],
        "battery.blocks_tested": counts["battery.blocks_tested"],
        "spaces.constructed": calls["spaces.FiniteProbabilitySpace"],
        "spaces.self_s": sum(v for k, v in self_s.items() if k.startswith("spaces.")),
        "chsh.lhv_sweep_s": get(s, "chsh.lhv_sweep"),
        "chsh.sweep_spaces_per_s": _rate(counts["chsh.sweep_spaces"], get(s, "chsh.lhv_sweep")),
        "chsh.lhv_averages_calls": calls["chsh.lhv_chsh_averages"],
        "chsh.lhv_simulate_self_s": get(self_s, "chsh.lhv_chsh_simulate"),
        "ghz.lhv_s": get(s, "ghz.lhv_ghz_enumerate") + get(s, "ghz.lhv_ghz_feasibility"),
    }


def thread_invariance(cmds, ledger: Ledger, env: dict) -> None:
    """Replay bulk-10m's chsh in process with threads=1; its bytes must match threads=2."""
    index = workloads.THREAD_INVARIANCE_COMMAND
    argv = list(cmds[index])
    argv[argv.index("--threads") + 1] = "1"
    child, report, _, _ = traced_command(argv, index, "threads1", env)
    ledger.record(index, argv, child.status, report, "threads1")


def thread_speedup(seed: int, env: dict) -> float:
    out = WORKDIR / "speedup.json"
    probe = [PYTHON, str(HARNESS), str(out), "--speedup", str(seed)]
    child = spawn(probe, WORKDIR / "harness.out", WORKDIR / "speedup.err", env)
    if child.status != 0:
        raise BenchmarkError("thread speedup probe failed: see " + str(WORKDIR / "speedup.err"))
    return json.loads(out.read_text())["speedup"]


# -- runs ----------------------------------------------------------------


def _more(done: int, minimum: int, started: float, cycles: list[float], seconds: float) -> bool:
    """Start another cycle while its expected end stays within ``seconds``."""
    if done < minimum:
        return True
    return time.perf_counter() - started + statistics.mean(cycles) <= seconds


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; a tail percentile needs at least 11 samples"
    rank = n - 11
    return f"p{100 * (rank + 1) / n:.0f}={sorted(values)[rank]:.4f} n={n}"


def measure_end_to_end(cmds, ledger: Ledger, env: dict, seconds: float) -> tuple[dict, list[str]]:
    """Alternate one set-up sample and one pass until ``seconds`` are used.

    Every command and set-up sample is probed (see spawn), and the times
    reported are scaled by the probe: wall and CPU seconds at the speed
    where one probe loop takes PROBE_S.
    """
    setups, passes, cycles = [], [], []
    started = time.perf_counter()
    setup_argv = [PYTHON, "-c", _SETUP]
    while _more(len(passes), MIN_PASSES, started, cycles, seconds):
        begin = time.perf_counter()
        setup = spawn(
            setup_argv, WORKDIR / "setup.out", WORKDIR / "setup.err", env, bound_cpus(setup_argv)
        )
        setups.append(setup)
        passes.append(untraced_pass(cmds, ledger, env, f"pass{len(passes)}", probed=True))
        cycles.append(time.perf_counter() - begin)
    if any(s.status != 0 for s in setups):
        raise BenchmarkError("set-up import failed: see " + str(WORKDIR / "setup.err"))
    walls = [p.scaled_wall_s for p in passes]
    wall = statistics.median(walls)
    raw_walls = [p.wall_s for p in passes]
    trials = sum(workloads.trials_requested(argv) for argv in cmds)
    metrics = {
        "wall_s": wall,
        "trials_per_s": trials / wall,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "cpu_s": statistics.median(p.scaled_cpu_s for p in passes),
        "setup_s": statistics.median(s.wall_s * s.speed for s in setups),
    }
    notes = [
        f"wall_s median={wall:.4f} {tail(walls)} passes=" + ",".join(f"{w:.3f}" for w in walls),
        f"unscaled wall_s median={statistics.median(raw_walls):.4f} passes="
        + ",".join(f"{w:.3f}" for w in raw_walls),
        f"unscaled cpu_s median={statistics.median(p.cpu_s for p in passes):.4f} "
        f"setup_s median={statistics.median(s.wall_s for s in setups):.4f}",
        f"trials_per_pass={trials}",
    ]
    return metrics, notes


def measure_layers(cmds, ledger: Ledger, env: dict, seconds: float, seed: int):
    """Pair an untraced and a traced pass, in alternating order, until ``seconds`` are used.

    Per-layer values are medians over the traced passes.
    """
    untraced, traced, cycles, imports = [], [], [], []
    started = time.perf_counter()
    while _more(len(traced), 1, started, cycles, seconds):
        begin = time.perf_counter()
        steps = [
            lambda: untraced.append(untraced_pass(cmds, ledger, env, f"pass{len(untraced)}")),
            lambda: traced.append(traced_pass(cmds, ledger, env, f"traced{len(traced)}", imports)),
        ]
        for step in steps[:: 1 if len(cycles) % 2 == 0 else -1]:  # alternate which goes first
            step()
        cycles.append(time.perf_counter() - begin)
    metrics = {
        name: statistics.median(layers[name] for _, layers in traced) for name in traced[0][1]
    }
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_scipy_s"] = statistics.median(i[1] for i in imports)
    metrics["worlds.sample_thread_speedup"] = thread_speedup(seed, env)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(wall for wall, _ in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    notes = [
        f"traced passes={len(traced)} traced wall median={traced_wall:.4f} "
        f"untraced wall median={untraced_wall:.4f}",
        f"spans: {WORKDIR / 'trace'}/<pass>-cmd<i>.json",
    ]
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict):
    ledger = Ledger(inputs=workloads.write_inputs(seed, WORKDIR))
    cmds = workloads.commands(name, seed, WORKDIR)
    if trace:
        metrics, notes = measure_layers(cmds, ledger, env, seconds, seed)
    else:
        metrics, notes = measure_end_to_end(cmds, ledger, env, seconds)
    if name == "bulk-10m":
        thread_invariance(cmds, ledger, env)
    if trace:
        metrics["battery.rejections"] = sum(ledger.rejections.values())
    for index, (digest, size, argv) in sorted(ledger.reference.items()):
        notes.append(f"report {' '.join(argv)} sha256={digest} bytes={size}")
    rejections = sum(ledger.rejections.values())
    notes.append(
        f"error_rate {ledger.failed / ledger.attempted:.6f} "
        f"({ledger.failed}/{ledger.attempted} invocations) battery_rejections {rejections}"
    )
    notes.extend(ledger.errors)
    return ledger, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    env = child_env()
    try:
        info = probe_environment(env)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("env " + json.dumps(info, sort_keys=True))
    print(f"loop closed, 1 client, seed {args.seed}, seconds {args.seconds:g}")

    if args.workload == "all":
        runs = [(w, t) for t in (0, 1) for w in workloads.WORKLOADS]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    try:
        for name, trace in runs:
            ledger, values, notes = run_workload(name, args.seed, args.seconds, trace, env)
            units = PER_LAYER if trace else END_TO_END
            print(f"== workload {name} trace {trace}")
            for note in notes:
                print(note)
            for metric, unit in units.items():
                print(f"{metric} {values[metric]!r} {unit}")
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update(
                {prefix + m: {"value": values[m], "unit": u} for m, u in units.items()}
            )
            attempted += ledger.attempted
            failed += ledger.failed
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
