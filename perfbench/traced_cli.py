"""Run one typicality-lab command in process, with spans around each layer's public functions.

Usage:
    python traced_cli.py SPANS_OUT REPORT_OUT ARGV...   trace one CLI command
    python traced_cli.py SPANS_OUT --speedup SEED       time a 10M draw at threads 1 and 2

The package is imported first, so that ``-X importtime`` charges every
module it needs to it.  Spans are recorded where each consuming module
binds a public function (``chsh.sample_world``, ``cli.sample_world``,
``battery.run_battery``, ...), so ``src/`` is not edited.  Each span is
``[id, parent, name, start_ns, end_ns]``; parent 0 is the process.  Counts
are taken from the same calls' arguments and results.  Everything is kept
in memory and written to SPANS_OUT as one JSON object when the command ends.
The report the command prints goes to REPORT_OUT, byte for byte.
"""

import sys
import time

_IMPORT_START = time.perf_counter_ns()
import typicality_lab.cli as cli  # noqa: E402

_IMPORT_END = time.perf_counter_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

from typicality_lab import battery, chsh, ghz, spaces, worlds  # noqa: E402

SPEEDUP_TRIALS = 10_000_000
SPEEDUP_REPEATS = 2


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [0]
        self._next_id = 1

    def record(self, name, start_ns, end_ns, parent=0):
        self.spans.append((self._next_id, parent, name, start_ns, end_ns))
        self._next_id += 1

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``name`` may be a function of the call's arguments."""

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                self.spans.append((span_id, parent, label, start, end))
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return functools.update_wrapper(traced, fn)


# -- counters, each called with (counts, result, *call arguments) ---------


def _count_sample(counts, world, fps, length, *rest, **kwargs):
    counts["worlds.sample_symbols"] += length
    counts["worlds.index_bytes"] += world.indices.nbytes


def _count_condition(counts, cell, world, event):
    counts["worlds.condition_symbols_scanned"] += len(world)
    counts["worlds.index_bytes"] += cell.indices.nbytes


def _count_from_json(counts, world, *args):
    counts["worlds.index_bytes"] += world.indices.nbytes


def _count_to_json(counts, text, world):
    counts["worlds.world_file_bytes"] += len(text)


def _count_battery(counts, result, *args, **kwargs):
    counts["battery.tests"] += len(result.tests)
    counts["battery.blocks_tested"] += sum(t.n_blocks for t in result.tests)


def _count_sweep(counts, result, *args):
    counts["chsh.sweep_spaces"] += result.num_random + result.num_vertices


def _distribution_span(module):
    def name(method="analytic"):
        return "linalg.operator_dist" if method == "linear_algebra" else f"{module}.distribution"

    return name


def _wrap_classmethod(tracer, cls, attr, name, count=None):
    fn = cls.__dict__[attr].__func__
    setattr(cls, attr, classmethod(tracer.wrap(name, fn, count)))


def install(tracer):
    """Replace each public function, as its consumers bind it, by a traced one."""
    sample = tracer.wrap("worlds.sample_world", worlds.sample_world, _count_sample)
    condition = tracer.wrap("worlds.condition_seq", worlds.condition_seq, _count_condition)
    for module in (cli, chsh, ghz):
        module.sample_world = sample
    for module in (chsh, ghz):
        module.condition_seq = condition
    worlds.WorldPrefix.to_json = tracer.wrap(
        "worlds.to_json", worlds.WorldPrefix.to_json, _count_to_json
    )
    _wrap_classmethod(
        tracer, worlds.WorldPrefix, "from_json", "worlds.from_json", _count_from_json
    )

    fps_cls = spaces.FiniteProbabilitySpace
    fps_cls.__init__ = tracer.wrap("spaces.FiniteProbabilitySpace", fps_cls.__init__)
    fps_cls.condition = tracer.wrap("spaces.condition", fps_cls.condition)
    _wrap_classmethod(tracer, fps_cls, "from_json", "spaces.from_json")
    for attr in ("product", "uniform", "point_mass"):
        setattr(chsh, attr, tracer.wrap(f"spaces.{attr}", getattr(spaces, attr)))

    battery.run_battery = tracer.wrap("battery.run_battery", battery.run_battery, _count_battery)
    chsh.chsh_distribution = tracer.wrap(_distribution_span("chsh"), chsh.chsh_distribution)
    ghz.ghz_distribution = tracer.wrap(_distribution_span("ghz"), ghz.ghz_distribution)
    chsh.run_chsh = tracer.wrap("chsh.run_chsh", chsh.run_chsh)
    chsh.lhv_sweep = tracer.wrap("chsh.lhv_sweep", chsh.lhv_sweep, _count_sweep)
    chsh.lhv_chsh_averages = tracer.wrap("chsh.lhv_chsh_averages", chsh.lhv_chsh_averages)
    chsh.lhv_chsh_simulate = tracer.wrap("chsh.lhv_chsh_simulate", chsh.lhv_chsh_simulate)
    ghz.run_ghz = tracer.wrap("ghz.run_ghz", ghz.run_ghz)
    ghz.lhv_ghz_enumerate = tracer.wrap("ghz.lhv_ghz_enumerate", ghz.lhv_ghz_enumerate)
    ghz.lhv_ghz_feasibility = tracer.wrap("ghz.lhv_ghz_feasibility", ghz.lhv_ghz_feasibility)


def trace_command(argv, report_path):
    tracer = Tracer()
    tracer.record("cli.import", _IMPORT_START, _IMPORT_END)
    install(tracer)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = tracer.wrap("cli.main", cli.main)(argv)
    with open(report_path, "wb") as handle:
        handle.write(buffer.getvalue().encode("utf-8"))
    return {
        "argv": argv,
        "exit": status,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }


def thread_speedup(seed):
    """Wall time of the same 10M-symbol draw at threads 1 and 2 (best of a few)."""
    fps = chsh.chsh_distribution("analytic")
    best = {1: float("inf"), 2: float("inf")}
    for _ in range(SPEEDUP_REPEATS):
        for threads in best:
            start = time.perf_counter()
            worlds.sample_world(fps, SPEEDUP_TRIALS, seed, threads=threads)
            best[threads] = min(best[threads], time.perf_counter() - start)
    return {"threads_1_s": best[1], "threads_2_s": best[2], "speedup": best[1] / best[2]}


def main(args):
    if len(args) >= 2 and args[1] == "--speedup":
        result = thread_speedup(int(args[2]))
    else:
        result = trace_command(args[2:], args[1])
    result["module_file"] = cli.__file__
    with open(args[0], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
