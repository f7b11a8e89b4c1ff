"""qkdsim benchmark: one workload per process, closed loop, no threads.

    python3 perfbench/run.py --workload honest_bulk --seed 1 --seconds 33 --trace 0

Runs from the root of a source checkout and imports qkdsim from its
``src/`` directory; it exits with code 2, printing no result, when that
source is missing.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced.  With ``--trace 1``
one cycle of the workload runs untraced and then traced, and the metrics
are the per-layer ones from the trace (see tracer.py and README.md).
``setup_s`` is the median wall time of five fresh processes started with
``--setup-only``, which import, generate inputs, run the warm-up and exit.

The host's speed drifts by tens of percent over seconds to minutes, so the
end-to-end times are given at a reference host speed: each operation is
followed by a fixed pure-Python probe (``probe``), and each time is scaled
by ``REFERENCE_PROBE_S`` over the median probe time of its cycle.  A change
to qkdsim cannot change the probe, so the scaled times still move with the
program and no longer with the host.  ``setup_s`` is plain wall time.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
PROBE_ROUNDS = 12_000
REFERENCE_PROBE_S = 0.0050  # the probe's median time on the reference host (README.md)

END_TO_END_UNITS = {"setup_s": "s", "photons_per_s": "1/s", "session_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, then exit (times setup_s)")
    return parser.parse_args(argv)


def import_program():
    """Import qkdsim from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qkdsim" / "__init__.py").is_file():
        print(f"no qkdsim source under {src}; run from a qkdsim checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import qkdsim

    if Path(qkdsim.__file__).resolve().parent != src / "qkdsim":
        print(f"imported qkdsim from {qkdsim.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def op_seeds(workload, seed):
    """The workload's input stream: one session seed per operation, forever."""
    source = random.Random(f"{workload.name}:{seed}")
    while True:
        yield [source.getrandbits(63) for _ in workload.cycle]


def set_up(workload, seed):
    """Input generation plus the warm-up operations; returns the seed stream."""
    seeds = op_seeds(workload, seed)
    warm = random.Random(f"warmup:{seed}")
    for op in workload.warmup:
        op.run(warm.getrandbits(63))
    return seeds


class Outcome:
    """Attempts, failures and check verdicts of one run."""

    def __init__(self, checks):
        self.checks = checks
        self.tally = checks.RateTally()
        self.attempted = 0
        self.failed = 0
        self.errors = []  # operations that raised
        self.wrong = []  # outputs that failed a check

    def run(self, op, seed, call=None):
        """Run and check one operation; returns its wall time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(op.run, seed) if call else op.run(seed)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            self.failed += 1
            self.errors.append(f"{op.label} seed={seed}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        try:
            op.check(output, self.tally)
        except Exception as exc:  # a malformed output is a wrong answer, not a crash
            self.wrong.append(f"{op.label} seed={seed}: {type(exc).__name__}: {exc}")
        del output  # dropped before the next operation starts
        return elapsed

    def correct(self):
        """Judge the pooled rates; True when no output failed a check."""
        try:
            self.tally.check()
        except self.checks.CheckFailed as exc:
            self.wrong.append(f"pooled over the run: {exc}")
        for line in (self.errors + ["check failed: " + w for w in self.wrong])[:20]:
            print(line, file=sys.stderr)
        return not self.wrong


def probe():
    """Fixed interpreter work that does not touch qkdsim; returns its wall time."""
    start = time.perf_counter()
    state, total, drawn = 12345, 0, []
    for _ in range(PROBE_ROUNDS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        drawn.append(state & 3)
        total += drawn[-1] if state & 4 else len(drawn) & 1
    return time.perf_counter() - start


def measure(workload, seeds, seconds, outcome):
    """Whole cycles until ``seconds`` have passed; end-to-end metrics.

    A probe follows every operation, and each cycle's times are scaled by
    ``REFERENCE_PROBE_S`` over the median of that cycle's probes.  The
    returned ``unscaled`` values are the same metrics in plain wall time.
    """
    op_s, cycle_rates, raw_op_s, raw_rates = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        times, probes, photons = [], [], 0
        for op, seed in zip(workload.cycle, next(seeds)):
            elapsed = outcome.run(op, seed)
            probes.append(probe())
            if elapsed is not None:
                times.append(elapsed)
                photons += op.photons
        if not times:
            continue
        scale = REFERENCE_PROBE_S / statistics.median(probes)
        op_s.extend(t * scale for t in times)
        cycle_rates.append(photons / (sum(times) * scale))
        raw_op_s.extend(times)
        raw_rates.append(photons / sum(times))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not op_s:
        return {"photons_per_s": 0.0, "session_ms_p50": 0.0, "peak_rss_mb": rss}, {}
    values = {
        "photons_per_s": statistics.median(cycle_rates),
        "session_ms_p50": statistics.median(op_s) * 1e3,
        "peak_rss_mb": rss,
    }
    unscaled = {
        "photons_per_s": statistics.median(raw_rates),
        "session_ms_p50": statistics.median(raw_op_s) * 1e3,
    }
    return values, unscaled


def trace(workload, seeds, outcome, dump_path):
    """One cycle untraced, then the same cycle traced; per-layer metrics."""
    import tracer as tracing

    cycle_seeds = next(seeds)
    untraced = 0.0
    for op, seed in zip(workload.cycle, cycle_seeds):
        untraced += outcome.run(op, seed) or 0.0
    tracer = tracing.Tracer()

    def traced(index):
        def call(fn, seed):
            tracer.install()
            try:
                return tracer.root(index, fn, seed)
            finally:
                tracer.uninstall()

        return call

    for index, (op, seed) in enumerate(zip(workload.cycle, cycle_seeds)):
        outcome.run(op, seed, traced(index))
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    tracer.dump(dump_path)
    return metrics


def time_setup(argv):
    """Median wall time of fresh processes that only set up: setup_s.

    Not scaled by the probe: start-up is mostly loading and importing,
    whose time does not follow the interpreter speed the probe measures.
    The wait has no timeout: with one, ``subprocess`` polls in steps of up
    to 50 ms, which rounds every set-up time to those steps.
    """
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seeds = set_up(workload, args.seed)
    if args.setup_only:
        return 0

    outcome = Outcome(checks)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    if args.trace:
        values = trace(workload, seeds, outcome, RESULTS / f"{stem}-spans.jsonl")
        units, unscaled = {}, {}
    else:
        values, unscaled = measure(workload, seeds, args.seconds, outcome)
        values["setup_s"] = time_setup(argv)
        units = END_TO_END_UNITS
    result = {
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": units.get(name) or unit_of(name)} for name, v in values.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps({**result, "unscaled": unscaled}) + "\n")
    print(line)
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "harness.report_bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
