"""The four workloads of the gcwords benchmark.

A workload draws its inputs from a seed (set-up), runs one round of
operations against the program (the timed section), and checks the round's
answers against reference.py.  The same round runs traced when given a
Tracer: every call into a layer gets a span.  `probe` then times a few
single calls per input poset outside the traced section.  A round calls
`between()` before each operation; the runner may end a segment of the
round's time or time a set-up there, and the seconds `between()` returns
are not the program's.  Work of the benchmark's own inside a call into the
program runs within `with between.aside():`, which leaves its time out.

The program arrives as the imported `gcwords` package `g`; nothing here
imports it, so the runner controls and times the import.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from time import perf_counter

import reference


class NullTracer:
    """Calls straight through; used for the untraced rounds."""

    enabled = False

    def call(self, name, op, fn, *args):
        return fn(*args)

    def add(self, name, op, start, end, count=1):
        pass

    def wrapping(self, module, op, layers):
        return contextlib.nullcontext()


class Tracer:
    """Keeps spans (layer, operation, start, end, items) in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int]] = []

    def call(self, name, op, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.spans.append((name, op, start, perf_counter(), 1))
        return result

    def add(self, name, op, start, end, count=1):
        self.spans.append((name, op, start, end, count))

    @contextlib.contextmanager
    def wrapping(self, module, op, layers):
        """Within the block, every call of `module.<attr>` gets a span of
        layer `layers[attr]`; the module's own functions then reach the
        wrapped names too."""
        saved = {attr: getattr(module, attr) for attr in layers}
        for attr, name in layers.items():
            setattr(module, attr, functools.partial(self.call, name, op, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def layers(self) -> dict[str, tuple[float, int]]:
        """Busy seconds and calls summed per layer."""
        totals: dict[str, tuple[float, int]] = {}
        for name, _, start, end, count in self.spans:
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + end - start, calls + count)
        return totals


NULL = NullTracer()


class NoPause:
    """`between` for a round that no runner times."""

    def __call__(self) -> float:
        return 0.0

    def aside(self):
        return contextlib.nullcontext()


no_pause = NoPause()


@dataclass
class Round:
    """Answers of one round and failures (operations that raised, or that
    never ran because an earlier call raised)."""

    answers: object
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def _failure(failures: list[str], op: str, exc: Exception):
    failures.append(f"{op}: {type(exc).__name__}: {exc}")


def _check_profile(n, letters, delta, profile, errors, op):
    """Per-class properties of a profile: the classify_gc delta is the only
    all-zero vector, and each vector's last entry is the top-stage index
    from the benchmark's own wire simulation of a word of the class."""
    if len(profile) != 2 ** (n - 1):
        errors.append(f"{op}: {len(profile)} delta vectors, not {2 ** (n - 1)}")
        return
    zeros = [d for d, vec in profile.items() if not any(vec)]
    if zeros != ([] if delta is None else [delta]):
        errors.append(f"{op}: classify_gc gave {delta}, all-zero vectors at {zeros}")
    ind_a, ind_d = reference.wire_indices(letters, n)
    for d, vec in profile.items():
        if len(vec) != n - 1 or vec[-1] != (ind_a if d[-1] == "A" else ind_d):
            errors.append(f"{op}: vector {d}={vec} ends off the wire index ({ind_a}, {ind_d})")
            return


class GcCount:
    name = "gc-count"

    def __init__(self, top: int = 9):
        self.top = top
        self.ops = top + 1
        self.expected = reference.gc_reference(top)

    def make_inputs(self, g, rng):
        order = list(range(self.top + 1))
        rng.shuffle(order)
        return order

    def describe(self, order):
        return {"ranks": order}

    # gc_direct's two layers, as the names it calls in the gc module.
    LAYERS = {
        "gc_poset_of_delta": "gc.poset_of_delta",
        "count_linear_extensions": "word_poset.count_linear_extensions",
    }

    def run(self, g, order, tracer=NULL, between=no_pause) -> Round:
        answers, failures = {}, []
        for n in order:
            between()
            op = f"gc({n})"
            try:
                rec = g.gc.gc_recurrence(n)
                with tracer.wrapping(g.gc, op, self.LAYERS):
                    answers[n] = (rec, g.gc.gc_direct(n))
            except Exception as exc:
                _failure(failures, op, exc)
        return Round(answers, len(failures), failures)

    def probe(self, g, order, rnd, tracer):
        pass

    def check(self, g, order, rnd) -> list[str]:
        errors = []
        for n, (rec, direct) in sorted(rnd.answers.items()):
            expected = self.expected[n]
            published = reference.GC_PUBLISHED[n] if n < len(reference.GC_PUBLISHED) else expected
            if not rec == direct == expected == published:
                errors.append(f"gc({n}): recurrence {rec}, direct {direct}, expected {expected}")
        return errors


def fresh_copy(P):
    """The same poset with none of the values that WordPoset caches on
    first use, which the round has filled on its own objects."""
    return type(P)(P.columns, P.covers)


def _probe_poset(g, P, op, tracer):
    # One call of each per poset, each on its own fresh copy: the per-call
    # costs that full_profile and classify_gc pay once per chain search or
    # contraction stage, on posets that no earlier call has warmed.
    Q = fresh_copy(P)
    start = perf_counter()
    g.indices.ascending_chain(Q)
    g.indices.descending_chain(Q)
    tracer.add("indices.chains", op, start, perf_counter())
    word = g.word_poset.lexmin_word(fresh_copy(P))
    start = perf_counter()
    g.wiring.chains_from_wires(word)
    tracer.add("wiring.chains_from_wires", op, start, perf_counter())
    Q = fresh_copy(P)
    start = perf_counter()
    g.indices.contract_A(Q)
    g.indices.contract_D(Q)
    tracer.add("indices.contract", op, start, perf_counter())


class ClassCensus:
    name = "class-census"

    def __init__(self, rank: int = 5):
        self.rank = rank
        self.ops = reference.CLASS_COUNTS[rank]

    def make_inputs(self, g, rng):
        return self.rank

    def describe(self, n):
        return {"rank": n, "classes": self.ops}

    def run(self, g, n, tracer=NULL, between=no_pause) -> Round:
        answers, failures = [], []
        try:
            classes = g.word_poset.enumerate_commutation_classes(n)
            while True:
                between()
                op = f"class {len(answers) + len(failures) + 1}"
                P = tracer.call("word_poset.enumerate_classes", op, next, classes, None)
                if P is None:
                    break
                try:
                    delta = tracer.call("gc.classify_gc", op, g.gc.classify_gc, P)
                    profile = tracer.call("indices.full_profile", op, g.indices.full_profile, P)
                    answers.append((P, delta, profile))
                except Exception as exc:
                    _failure(failures, op, exc)
        except Exception as exc:
            _failure(failures, "enumerate_commutation_classes", exc)
        return Round(answers, max(len(failures), self.ops - len(answers)), failures)

    def probe(self, g, n, rnd, tracer):
        for k, (P, _, _) in enumerate(rnd.answers, start=1):
            _probe_poset(g, P, f"class {k}", tracer)

    def check(self, g, n, rnd) -> list[str]:
        answers = rnd.answers
        errors = []
        # The totals hold only when every class was processed.
        if not rnd.failed and len(answers) != self.ops:
            errors.append(f"{len(answers)} classes, OEIS A006245 has {self.ops}")
        gc_classes = [delta for _, delta, _ in answers if delta is not None]
        if not rnd.failed and len(gc_classes) != 2 ** (n - 1):
            errors.append(f"{len(gc_classes)} GC classes, not 2^(n-1) = {2 ** (n - 1)}")
        if len({tuple(sorted(profile.items())) for _, _, profile in answers}) != len(answers):
            errors.append("two classes share a profile")
        for k, (P, delta, profile) in enumerate(answers, start=1):
            op = f"class {k}"
            letters = reference.linear_extension_word(P.columns, P.covers)
            _check_profile(n, letters, delta, profile, errors, op)
            if delta is not None and g.gc.gc_poset_of_delta(delta) != P:
                errors.append(f"{op}: classify_gc gave {delta}, whose GC poset is another class")
        return errors


class WordProfile:
    name = "word-profile"
    # Words whose flip symmetry is checked each round, outside the timed section.
    flip_checks = 8

    def __init__(self, rank: int = 7, count: int = 160):
        self.rank = rank
        self.ops = count

    def make_inputs(self, g, rng):
        letters = [reference.random_w0_word(self.rank, rng) for _ in range(self.ops)]
        return [g.Word(self.rank, word) for word in letters]

    def describe(self, words):
        keys = [reference.class_key(w.letters, self.rank) for w in words]
        return {"rank": self.rank, "words": len(words), "words_of_a_class_seen_before": len(keys) - len(set(keys))}

    def run(self, g, words, tracer=NULL, between=no_pause) -> Round:
        answers, failures = [], []
        for k, w in enumerate(words, start=1):
            between()
            op = f"word {k}"
            try:
                P = tracer.call("word_poset.poset_of_word", op, g.word_poset.poset_of_word, w)
                delta = tracer.call("gc.classify_gc", op, g.gc.classify_gc, P)
                profile = tracer.call("indices.full_profile", op, g.indices.full_profile, P)
                answers.append((w, P, delta, profile))
            except Exception as exc:
                _failure(failures, op, exc)
        return Round(answers, len(failures), failures)

    def probe(self, g, words, rnd, tracer):
        for w, P, _, _ in rnd.answers:
            _probe_poset(g, P, str(w), tracer)

    def check(self, g, words, rnd) -> list[str]:
        answers = rnd.answers
        n = self.rank
        errors = []
        profile_of_key = {}
        for w, P, delta, profile in answers:
            op = f"word {w}"
            _check_profile(n, w.letters, delta, profile, errors, op)
            if delta is not None and g.gc.gc_poset_of_delta(delta) != g.word_poset.canonical_form(P):
                errors.append(f"{op}: classify_gc gave {delta}, whose GC poset is another class")
            key = reference.class_key(w.letters, n)
            profile_of_key.setdefault(key, profile)
            if profile_of_key[key] != profile:
                errors.append(f"{op}: two words of one class have different profiles")
        if len({tuple(sorted(p.items())) for p in profile_of_key.values()}) != len(profile_of_key):
            errors.append("two classes share a profile")
        swap = str.maketrans("AD", "DA")
        for w, _, _, profile in answers[: self.flip_checks]:
            flipped = g.Word(n, tuple(n + 1 - i for i in w.letters))
            mirror = g.indices.full_profile(g.word_poset.poset_of_word(flipped))
            if any(mirror.get(d.translate(swap)) != vec for d, vec in profile.items()):
                errors.append(f"word {w}: profile of the flipped word is not the A/D mirror")
        return errors


class CheckingSink:
    """Stands in for stdout: checks every emitted line, then drops it.
    Lines are checked in batches, each within `between.aside()` and followed
    by `between()`; the time of both is kept so that the traced span can
    leave it out too."""

    batch = 1 << 14

    def __init__(self, n: int, between=no_pause):
        self.n = n
        self.between = between
        self.pending: list[str] = []
        self.partial = ""
        self.previous: tuple[int, ...] = ()
        self.lines = 0
        self.bad = 0
        self.errors: list[str] = []
        self.check_s = 0.0
        self.paused_s = 0.0

    def write(self, text):
        self.pending.append(text)
        if len(self.pending) >= self.batch:
            self.flush()
        return len(text)

    def flush(self):
        with self.between.aside():
            start = perf_counter()
            self.check()
            self.check_s += perf_counter() - start
        self.paused_s += self.between()

    def check(self):
        lines = (self.partial + "".join(self.pending)).split("\n")
        self.pending.clear()
        self.partial = lines.pop()
        for line in lines:
            self.lines += 1
            try:
                letters = tuple(map(int, line.split(",")))
            except ValueError:
                letters = ()
            if letters <= self.previous or not reference.is_w0_word(letters, self.n):
                self.bad += 1
                if len(self.errors) < 10:
                    self.errors.append(f"line {self.lines} {line!r}: not an increasing reduced word of w0")
            self.previous = letters


class WordsW0:
    name = "words-w0"

    def __init__(self, rank: int = 5):
        self.rank = rank
        self.ops = reference.stanley_count(rank)

    def make_inputs(self, g, rng):
        return ["words", "w0", str(self.rank)]

    def describe(self, argv):
        return {"argv": argv, "words": self.ops, "classes": reference.CLASS_COUNTS[self.rank]}

    def run(self, g, argv, tracer=NULL, between=no_pause) -> Round:
        sink = CheckingSink(self.rank, between)
        failures = []
        code = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = g.cli.main(argv)
        except Exception as exc:
            _failure(failures, "cli.main", exc)
        sink.flush()
        end = perf_counter()
        if code not in (None, 0):
            failures.append(f"cli.main: exit code {code}")
        # The span starts later by the sink's checking and pausing time, so
        # that its length is the program's share of the call.
        tracer.add("cli.main", "words w0", start + sink.check_s + sink.paused_s, end, sink.lines)
        failed = max(0, self.ops - sink.lines) if failures else 0
        return Round((code, sink), failed, failures)

    def probe(self, g, argv, rnd, tracer):
        count = 0
        start = perf_counter()
        for _ in g.words.enumerate_reduced_words(g.words.longest_element(self.rank + 1)):
            count += 1
        tracer.add("words.enumerate", "words w0", start, perf_counter(), count)

    def check(self, g, argv, rnd) -> list[str]:
        code, sink = rnd.answers
        errors = []
        if code == 0 and sink.lines != self.ops:
            errors.append(f"{sink.lines} lines, Stanley's formula gives {self.ops}")
        if sink.bad:
            errors.append(f"{sink.bad} lines are not increasing reduced words of w0: {sink.errors}")
        if sink.partial:
            errors.append(f"unterminated last line {sink.partial!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (GcCount, ClassCensus, WordProfile, WordsW0)}
