"""Run one workload of the gcwords benchmark and print its metrics as JSON.

    python3 bench/run.py --workload class-census --seed 1 --seconds 20 --trace 0

The run imports gcwords from the src/ directory next to bench/ and runs
whole rounds of the workload until the next round would end after --seconds.
Each round runs on a fresh set-up (gcwords imported afresh, inputs drawn).
A round's time is split into segments of SEGMENT_S, and wall_ref
measures each segment in units of a fixed reference task timed at its ends,
so that the machine's changing speed cancels out.  More set-ups are timed
between a round's operations, at most every SETUP_INTERVAL_S, and the
median over the run is reported.  Every round's answers are checked against bench/reference.py.
With --trace 1 each round is followed by a traced round and by probes, and
the metrics are the per-layer ones.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it records the
run's seed, interpreter and machine.  Details and spans go to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc as collector
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

# Shortest time between two timed set-ups.  The machine's speed swings by
# up to a quarter within a second or two, so set-ups are spread over the
# whole run instead of being timed in a few bunches.
SETUP_INTERVAL_S = 0.5

# Length of a segment of a round's time.  The reference task is timed at
# each end of a segment, and the round's time in reference tasks sums each
# segment over the reference time at its ends.  The machine's speed swings
# by a third over seconds to minutes, and the reference task's time follows
# it: over 24 rounds of word-profile whose wall time ranged 3.6-5.9 s, the
# rounds measured 11,240-12,030 reference tasks.
SEGMENT_S = 0.05
REFERENCE_REPEATS = 3

# Per-layer metrics, reported on every workload (0 where a workload does not
# reach the layer).  cli.output is derived: the cli.main span minus the
# separate words.enumerate pass.
LAYERS = (
    "words.enumerate",
    "cli.output",
    "gc.poset_of_delta",
    "word_poset.count_linear_extensions",
    "word_poset.enumerate_classes",
    "word_poset.poset_of_word",
    "gc.classify_gc",
    "indices.full_profile",
    "indices.chains",
    "wiring.chains_from_wires",
    "indices.contract",
)
# Layers timed by probes after the traced round, outside its wall time.
PROBES = {"words.enumerate", "indices.chains", "wiring.chains_from_wires", "indices.contract"}


class MissingProgram(Exception):
    pass


def forget_gcwords() -> dict:
    """Drop gcwords from the import cache; returns the dropped modules."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if name.partition(".")[0] == "gcwords"}


def setup(workload, seed: int):
    """Import gcwords afresh and draw the workload's inputs; returns the
    seconds this took, the package and the inputs."""
    forget_gcwords()
    start = perf_counter()
    g = importlib.import_module("gcwords")
    importlib.import_module("gcwords.cli")
    inputs = workload.make_inputs(g, random.Random(seed))
    seconds = perf_counter() - start
    if SRC not in Path(g.__file__).resolve().parents:
        raise MissingProgram(f"imported gcwords from {g.__file__}, not from {SRC}")
    return seconds, g, inputs


@contextlib.contextmanager
def no_ticks():
    """Holds SIGALRM back within the block; a tick due meanwhile comes after."""
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


def reference_task_s() -> float:
    """Seconds of a fixed task from the benchmark's own reference code (four
    seeded random words at rank 6, wired and keyed), the median of
    REFERENCE_REPEATS timings with the cyclic collector off.  Its time
    follows the machine's speed of the moment and nothing of the program."""
    times = []
    collector.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            rng = random.Random(0)
            for _ in range(4):
                letters = reference.random_w0_word(6, rng)
                reference.wire_indices(letters, 6)
                reference.class_key(letters, 6)
            times.append(perf_counter() - start)
    finally:
        collector.enable()
    return statistics.median(times)


@dataclass
class Timing:
    """A round's segments and the reference task's time at each of their
    ends (one more than there are segments)."""

    segments: list[float]
    references: list[float]

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def wall_ref(self) -> float:
        """The round's time in reference tasks: each segment divided by the
        mean reference time at its two ends."""
        ends = zip(self.references, self.references[1:])
        return sum(2 * seconds / (before + after) for seconds, (before, after) in zip(self.segments, ends))


class RoundClock:
    """Splits a round's time into segments and times the reference task at
    the end of each.  A ticking round (the untraced ones) ends a segment on
    SIGALRM every SEGMENT_S, inside the program's calls too; otherwise the
    round's `between()` ends one once it is SEGMENT_S long.  `between()`
    also times a set-up when SETUP_INTERVAL_S has passed since the last, and
    then gives the round its own modules back.  The time of set-ups and of
    the work within `aside()` is left out of the segments."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples: list[float] = []
        self.last = perf_counter()
        self.ticking = False

    def time_setup(self):
        collector.collect()
        seconds, g, inputs = setup(self.workload, self.seed)
        self.samples.append(seconds)
        self.last = perf_counter()
        return g, inputs

    def start(self, ticking: bool = False):
        self.timing = Timing([], [reference_task_s()])
        self.excluded = 0.0
        self.mark = perf_counter()
        self.ticking = ticking
        if ticking:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)

    def stop(self) -> Timing:
        end = perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.ticking = False
        with no_ticks():
            self.end_segment(end)
        return self.timing

    def end_segment(self, now: float):
        self.timing.segments.append(now - self.mark - self.excluded)
        self.timing.references.append(reference_task_s())
        self.excluded = 0.0
        self.mark = perf_counter()

    def tick(self, signum, frame):
        now = perf_counter()
        if self.ticking:
            with no_ticks():
                self.end_segment(now)

    @contextlib.contextmanager
    def aside(self):
        with no_ticks():
            start = perf_counter()
            try:
                yield
            finally:
                self.excluded += perf_counter() - start

    def __call__(self) -> float:
        start = perf_counter()
        with no_ticks():
            if not self.ticking and start - self.mark >= SEGMENT_S:
                self.end_segment(start)
            if perf_counter() - self.last >= SETUP_INTERVAL_S:
                setup_start = perf_counter()
                round_modules = forget_gcwords()
                try:
                    self.time_setup()
                finally:
                    forget_gcwords()
                    sys.modules.update(round_modules)
                self.excluded += perf_counter() - setup_start
        return perf_counter() - start


def fresh_round(workload, clock: RoundClock, tracer):
    """Run one round on a fresh set-up: no module-level cache of the program
    outlives a round, as in a fresh process.  Returns the package, inputs,
    round and its timing."""
    g, inputs = clock.time_setup()
    collector.collect()
    clock.start(ticking=not tracer.enabled)
    try:
        rnd = workload.run(g, inputs, tracer, clock)
    finally:
        timing = clock.stop()
    return g, inputs, rnd, timing


def layer_metrics(tracers, timings, traced_timings) -> dict:
    rounds = []
    for tracer, timing in zip(tracers, traced_timings):
        totals = tracer.layers()
        section_s = sum(s for name, (s, _) in totals.items() if name not in PROBES)
        if "cli.main" in totals:
            main_s, main_calls = totals.pop("cli.main")
            totals["cli.output"] = (main_s - totals["words.enumerate"][0], main_calls)
        rounds.append((totals, section_s / timing.wall_s))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (statistics.median(t.get(layer, (0.0, 0))[0] for t, _ in rounds), "s")
        metrics[f"{layer}_calls"] = (statistics.median(t.get(layer, (0.0, 0))[1] for t, _ in rounds), "count")
    wall_ref = statistics.median(t.wall_ref for t in timings)
    metrics["wall_s"] = (statistics.median(t.wall_s for t in timings), "s")
    metrics["reference.task_s"] = (statistics.median(r for t in timings for r in t.references), "s")
    metrics["trace.wall_s"] = (statistics.median(t.wall_s for t in traced_timings), "s")
    metrics["trace.overhead"] = (statistics.median(t.wall_ref for t in traced_timings) / wall_ref - 1, "ratio")
    metrics["trace.coverage"] = (statistics.median(share for _, share in rounds), "ratio")
    return metrics


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]()
    if not (SRC / "gcwords" / "__init__.py").is_file():
        raise MissingProgram(f"no gcwords package under {SRC}")
    sys.path.insert(0, str(SRC))
    # The budget applies to the CLI's brute-force routes; the workloads stay
    # within the default, so an inherited override must not change them.
    os.environ.pop("GCWORDS_BUDGET", None)

    clock = RoundClock(workload, args.seed)
    rounds, traced_rounds, tracers = [], [], []
    attempted = failed = 0
    failures, errors = [], []
    begin = perf_counter()
    while True:
        cycle_start = perf_counter()
        for tracer in [workloads.NULL] + ([workloads.Tracer()] if args.trace else []):
            g, inputs, rnd, timing = fresh_round(workload, clock, tracer)
            if tracer.enabled:
                workload.probe(g, inputs, rnd, tracer)
                traced_rounds.append(timing)
                tracers.append(tracer)
            else:
                rounds.append(timing)
            attempted += workload.ops
            failed += rnd.failed
            failures += rnd.failures
            errors += workload.check(g, inputs, rnd)
            del rnd  # the next round's peak memory must not include this one's answers
        cycle = perf_counter() - cycle_start
        if perf_counter() - begin + cycle > args.seconds:
            break

    if args.trace:
        metrics = layer_metrics(tracers, rounds, traced_rounds)
    else:
        metrics = {
            "wall_ref": (statistics.median(t.wall_ref for t in rounds), "ref-tasks"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(clock.samples), "s"),
        }
    return {
        "info": {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "rounds": len(rounds),
            "inputs": workload.describe(inputs),
            "setups_s": clock.samples,
            "walls_s": [t.wall_s for t in rounds],
            "walls_ref": [t.wall_ref for t in rounds],
            "reference_task_s": [statistics.median(t.references) for t in rounds],
            "traced_walls_s": [t.wall_s for t in traced_rounds],
            "failures": failures[:20],
            "errors": errors[:20],
        },
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
        "spans": [
            [name, op, start - begin, end - start, count]
            for tracer in tracers
            for name, op, start, end, count in tracer.spans
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({**out["info"], **out["result"]}, indent=1) + "\n")
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(out["spans"]) + "\n")
    print(json.dumps({"run": out["info"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
