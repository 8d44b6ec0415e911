"""Fast tests of the benchmark's reference code and answer checks.

    python3 -m pytest bench -q
"""

import functools
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gcwords  # noqa: E402
import gcwords.cli  # noqa: E402
import reference  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402


def test_stanley_count():
    assert [reference.stanley_count(n) for n in (3, 4, 5)] == [16, 768, 292864]


def test_thrall_recurrence_gives_published_table():
    assert reference.gc_reference(8) == list(reference.GC_PUBLISHED)


def test_wire_indices_worked_example():
    assert reference.wire_indices((1, 2, 1, 3, 2, 1), 3) == (3, 0)


@pytest.mark.parametrize("n", [4, 5])
def test_wire_indices_agree_with_program(n):
    rng = random.Random(n)
    for _ in range(20):
        letters = reference.random_w0_word(n, rng)
        P = gcwords.poset_of_word(gcwords.Word(n, letters))
        assert reference.wire_indices(letters, n) == (gcwords.ind_A(P), gcwords.ind_D(P))


def test_random_words_are_reduced_words_of_w0():
    rng = random.Random(0)
    for n in range(1, 8):
        for _ in range(30):
            assert reference.is_w0_word(reference.random_w0_word(n, rng), n)
    drawn = {reference.random_w0_word(3, rng) for _ in range(400)}
    assert len(drawn) == reference.stanley_count(3)


def test_is_w0_word_rejects():
    assert not reference.is_w0_word((1, 2, 1, 3, 2, 2), 3)
    assert not reference.is_w0_word((1, 2, 1, 3, 2), 3)
    assert not reference.is_w0_word((1, 2, 1, 4, 2, 1), 3)


def test_class_key_partitions_like_canonical_form():
    n = 4
    by_key, by_poset = {}, {}
    for w in gcwords.enumerate_reduced_words(gcwords.longest_element(n + 1)):
        key = reference.class_key(w.letters, n)
        poset = gcwords.canonical_form(gcwords.poset_of_word(w))
        assert by_key.setdefault(key, poset) == poset
        assert by_poset.setdefault(poset, key) == key
    assert len(by_key) == reference.CLASS_COUNTS[n]


def test_linear_extension_word_reads_a_word_of_the_class():
    P = gcwords.poset_of_word(gcwords.parse_word("1,3,2,1,3,2"))
    letters = reference.linear_extension_word(P.columns, P.covers)
    assert gcwords.canonical_form(gcwords.poset_of_word(gcwords.Word(3, letters))) == gcwords.canonical_form(P)


SMALL = {
    "gc-count": lambda: workloads.GcCount(top=5),
    "class-census": lambda: workloads.ClassCensus(rank=3),
    "word-profile": lambda: workloads.WordProfile(rank=4, count=12),
    "words-w0": lambda: workloads.WordsW0(rank=3),
}


def run_round(name, tracer=workloads.NULL, between=workloads.no_pause):
    workload = SMALL[name]()
    inputs = workload.make_inputs(gcwords, random.Random(1))
    rnd = workload.run(gcwords, inputs, tracer, between)
    return rnd, workload.check(gcwords, inputs, rnd)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_round_passes(name):
    rnd, errors = run_round(name)
    assert errors == []
    assert rnd.failed == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_passes_and_records_spans(name):
    tracer = workloads.Tracer()
    rnd, errors = run_round(name, tracer)
    assert errors == [] and rnd.failed == 0
    assert tracer.spans


def test_traced_gc_count_spans_come_from_gc_direct(monkeypatch):
    calls = []
    real = gcwords.gc.gc_direct
    monkeypatch.setattr(gcwords.gc, "gc_direct", lambda n: calls.append(n) or real(n))
    tracer = workloads.Tracer()
    run_round("gc-count", tracer)
    assert sorted(calls) == list(range(6))
    layers = tracer.layers()
    assert layers["gc.poset_of_delta"][1] == layers["word_poset.count_linear_extensions"][1] == 2**5 - 1
    assert not isinstance(gcwords.gc.gc_poset_of_delta, functools.partial)


def test_probes_run_on_cold_copies(monkeypatch):
    P = gcwords.poset_of_word(gcwords.parse_word("1,2,1,3,2,1"))
    gcwords.full_profile(P)
    assert set(vars(P)) > {"columns", "covers"}
    first_args = {}
    for function in ("ascending_chain", "contract_A"):
        real = getattr(gcwords.indices, function)
        monkeypatch.setattr(
            gcwords.indices, function,
            lambda Q, real=real, function=function: first_args.setdefault(function, (Q, set(vars(Q)))) and real(Q),
        )
    workloads._probe_poset(gcwords, P, "probe", workloads.Tracer())
    for Q, cached in first_args.values():
        assert Q == P and Q is not P and cached == {"columns", "covers"}
    assert len(first_args) == 2


@pytest.mark.parametrize("name", sorted(SMALL))
def test_set_ups_between_operations_leave_the_round_intact(name, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_INTERVAL_S", 0.0)
    monkeypatch.setattr(runner, "SEGMENT_S", 0.0)
    monkeypatch.setattr(workloads.CheckingSink, "batch", 4)
    modules = {m: sys.modules[m] for m in sys.modules if m.partition(".")[0] == "gcwords"}
    clock = runner.RoundClock(SMALL[name](), 1)
    clock.start()
    rnd, errors = run_round(name, workloads.Tracer(), clock)
    timing = clock.stop()
    assert errors == [] and rnd.failed == 0
    assert len(clock.samples) == len(timing.segments) - 1 >= 2
    assert len(timing.references) == len(timing.segments) + 1
    assert {m: sys.modules[m] for m in modules} == modules


def test_wall_ref_divides_each_segment_by_the_reference_at_its_ends():
    timing = runner.Timing([1.0, 3.0], [1.0, 1.0, 2.0])
    assert timing.wall_s == 4.0
    assert timing.wall_ref == 1.0 + 2.0


def test_segments_leave_out_work_aside(monkeypatch):
    monkeypatch.setattr(runner, "SEGMENT_S", 1e9)
    clock = runner.RoundClock(SMALL["words-w0"](), 1)
    clock.start()
    with clock.aside():
        time.sleep(0.05)
    assert clock.stop().segments[0] < 0.01


def test_ticks_end_segments_inside_calls(monkeypatch):
    monkeypatch.setattr(runner, "SEGMENT_S", 0.002)
    workload = workloads.WordsW0(rank=4)
    clock = runner.RoundClock(workload, 1)
    clock.start(ticking=True)
    rnd = workload.run(gcwords, workload.make_inputs(gcwords, random.Random(1)), workloads.NULL, clock)
    timing = clock.stop()
    assert workload.check(gcwords, None, rnd) == [] and rnd.failed == 0
    # One cli.main call and one flush: every further segment ended on a tick.
    assert len(timing.segments) >= 3 and min(timing.segments) >= 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_inputs_depend_only_on_seed():
    workload = SMALL["word-profile"]()
    first = workload.make_inputs(gcwords, random.Random(7))
    assert first == workload.make_inputs(gcwords, random.Random(7))
    assert first != workload.make_inputs(gcwords, random.Random(8))


def _last_entry_plus_one(profile):
    return {delta: vec[:-1] + (vec[-1] + 1,) for delta, vec in profile.items()}


def _skip_last(words):
    return lambda perm: list(words(perm))[:-1]


def _repeat_first(words):
    def wrong(perm):
        out = list(words(perm))
        return [out[0]] + out
    return wrong


# (workload, module, function, how the function's answer is made wrong)
WRONG = [
    ("gc-count", gcwords.gc, "gc_direct", lambda f: lambda n: f(n) + (n == 4)),
    ("gc-count", gcwords.gc, "gc_recurrence", lambda f: lambda n: f(n) * 2 if n == 5 else f(n)),
    ("class-census", gcwords.indices, "full_profile", lambda f: lambda P: _last_entry_plus_one(f(P))),
    ("class-census", gcwords.gc, "classify_gc", lambda f: lambda P: None),
    ("word-profile", gcwords.indices, "full_profile", lambda f: lambda P: _last_entry_plus_one(f(P))),
    ("words-w0", gcwords.words, "enumerate_reduced_words", _skip_last),
    ("words-w0", gcwords.words, "enumerate_reduced_words", _repeat_first),
]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name, module, function, wrong", WRONG)
def test_wrong_answer_fails_check(name, module, function, wrong, traced, monkeypatch):
    monkeypatch.setattr(module, function, wrong(getattr(module, function)))
    rnd, errors = run_round(name, workloads.Tracer() if traced else workloads.NULL)
    assert rnd.failed == 0
    assert errors


def test_raising_operation_counts_as_failed(monkeypatch):
    real = gcwords.gc.gc_direct

    def broken(n):
        if n == 3:
            raise RuntimeError("broken")
        return real(n)

    monkeypatch.setattr(gcwords.gc, "gc_direct", broken)
    rnd, errors = run_round("gc-count")
    assert rnd.failed == 1 and errors == []


def test_sink_joins_split_writes():
    sink = workloads.CheckingSink(2)
    for part in ("1,2", ",1\n2,", "1,2\n"):
        sink.write(part)
    sink.flush()
    assert (sink.lines, sink.bad, sink.partial) == (2, 0, "")


def test_run_fails_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for source in BENCH.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "gc-count", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
