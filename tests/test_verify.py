import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gcwords.verify import (
    ALL_CHECKS,
    CLASS_COUNTS,
    GC_TABLE,
    Report,
    check_class_poset_equivalence,
    check_contraction_laws,
    check_injectivity_theorem,
    check_mirror_laws,
    check_recurrence_by_delta,
    check_table1,
    check_tits_connectivity,
    count_gc_words_brute,
    count_reduced_words,
    gc_count_by_runs,
    gc_word_by_splices,
    one_ideal_levels,
    projection_key,
    run_checks,
    staircase_word_count,
)
from gcwords.gc import gc_poset_of_delta, gc_recurrence
from gcwords.indices import ind_A
from gcwords import lattice, wiring, word_poset
from gcwords.word_poset import (
    canonical_form,
    count_linear_extensions,
    lexmin_word,
    poset_of_word,
)
from gcwords.words import (
    DomainError,
    apply_2move,
    apply_3move,
    legal_2moves,
    legal_3moves,
    longest_element,
    parse_word,
    perm_of_word,
    standard_word,
)


@pytest.mark.parametrize("n", [2, 3])
def test_tits_connectivity_small(n):
    report = check_tits_connectivity(n)
    assert report.passed and report.counterexample is None


@pytest.mark.parametrize("n", [2, 3])
def test_class_poset_equivalence_small(n):
    assert check_class_poset_equivalence(n).passed


def test_class_poset_equivalence_names_the_stage_a_tree_table_gets_wrong(monkeypatch):
    real = wiring._extended_stage_table

    def off_by_one(table, lower, n):
        # ind_A of the stage on wires 1..4, on the classes of rank 3
        extended = real(table, lower, n)
        if n == 3:
            extended[wiring._at(1, n + 1)] += 1
        return extended

    monkeypatch.setattr(word_poset, "_extended_stage_table", off_by_one)
    report = check_class_poset_equivalence(3)
    assert not report.passed
    assert report.counterexample["stage"] == [1, 4]
    assert perm_of_word(parse_word(report.counterexample["word"])) == longest_element(4)


def test_class_poset_equivalence_needs_the_tree_tables(monkeypatch):
    monkeypatch.setattr(word_poset, "_extended_stage_table", lambda table, lower, n: None)
    report = check_class_poset_equivalence(3)
    assert not report.passed
    assert report.counterexample["reason"] == "class has no stage table from the tree"


def test_class_poset_equivalence_names_both_lexmin_words(monkeypatch):
    # a lexmin route that returns the greatest word of the class
    from gcwords import verify

    monkeypatch.setattr(verify, "lexmin_word",
                        lambda P: max(verify.words_of_class(P), key=lambda w: w.letters))
    report = check_class_poset_equivalence(3)
    assert not report.passed
    counterexample = report.counterexample
    assert counterexample["reason"] == "lexmin word differs from the covers walk"
    word, by_covers = (parse_word(counterexample[key]) for key in ("word", "by_covers"))
    assert by_covers.letters < word.letters
    assert canonical_form(poset_of_word(word)) == canonical_form(poset_of_word(by_covers))


def test_class_poset_equivalence_sums_the_extension_counts(monkeypatch):
    from gcwords import verify

    monkeypatch.setattr(verify, "count_linear_extensions", lambda P: count_linear_extensions(P) + 1)
    report = check_class_poset_equivalence(3)
    assert not report.passed
    assert report.counterexample == {
        "extensions": str(16 + 8), "words": "16",
        "reason": "class extension counts do not sum to the staircase count",
    }


def test_staircase_word_count():
    # the hook-length formula against the count by descents, and the
    # published counts at ranks 5 and 6
    for n in range(7):
        assert staircase_word_count(n) == count_reduced_words(longest_element(n + 1))
    assert staircase_word_count(5) == 292_864
    assert staircase_word_count(6) == 1_100_742_656
    with pytest.raises(DomainError):
        staircase_word_count(-1)


def test_injectivity_small():
    assert check_injectivity_theorem(3).passed


def test_contraction_laws_small():
    assert check_contraction_laws(3).passed


def test_mirror_laws():
    report = check_mirror_laws()
    assert report.passed and report.counterexample is None
    assert report.params == {"n": 5}


def test_mirror_laws_fail_on_routes_blind_to_the_flip(monkeypatch):
    from gcwords import verify

    for name, broken, reason in (
        ("gc_poset_of_delta", lambda delta: poset_of_word(standard_word(len(delta) + 1)),
         "flip of the GC poset is not the GC poset of the flip"),
        ("full_profile", lambda P: {"".join(d): (ind_A(P),) * (P.rank - 1)
                                    for d in product("AD", repeat=P.rank - 1)},
         "profile of the flip differs at the flipped delta"),
        ("classify_gc", lambda P: "A" * (P.rank - 1), "classification of the flip"),
        ("count_linear_extensions_unsplit", lambda P: P._word.letters,
         "count of the flip of the GC poset"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, broken)
            report = check_mirror_laws(3)
        assert not report.passed
        assert report.counterexample["reason"] == reason


def test_recurrence_by_delta():
    report = check_recurrence_by_delta()
    assert report.passed and report.params == {"n": 9}


@pytest.fixture
def summand_cache():
    # a test that patches the walker clears the summand counts the cache
    # remembers, before the fault and after it
    lattice._summand_count.cache_clear()
    yield
    lattice._summand_count.cache_clear()


def _summands(P):
    # the ordinal summands of P's word, cut at the unsplit walk's one-ideal
    # levels, each keyed as the count keys it: the lesser of the summand
    # shifted to start at column 1 and its flip
    letters = P._word.letters
    bounds = [0, *one_ideal_levels(P), P.size]
    summands = []
    for start, end in zip(bounds, bounds[1:]):
        summand = letters[start:end]
        low, high = min(summand) - 1, max(summand) + 1
        summands.append(min(tuple(c - low for c in summand), tuple(high - c for c in summand)))
    return summands


def test_recurrence_by_delta_names_the_delta_a_walker_miscounts(monkeypatch, summand_cache):
    # count_linear_extensions walks each summand through lattice's name
    real = lattice._ideal_levels
    summand = max(_summands(gc_poset_of_delta("DAAD")), key=len)
    assert len(summand) == 4
    miscounted = lattice._word_needs(summand, max(summand))

    def off_by_one(needs):
        # one more way to the full ideal, on the table of one summand
        levels = list(real(needs))
        if needs == miscounted:
            ((key, ways),) = levels[-1].items()
            levels[-1] = {key: ways + 1}
        return iter(levels)

    monkeypatch.setattr(lattice, "_ideal_levels", off_by_one)
    # the first delta in the check's order, rank by rank, whose poset holds it
    first = next(
        delta
        for m in range(1, 6)
        for delta in map("".join, product("AD", repeat=m - 1))
        if summand in _summands(gc_poset_of_delta(delta))
    )
    assert first == "ADD"  # its summand flips to the one of DAA: they share a key
    report = check_recurrence_by_delta(5)
    assert not report.passed
    counterexample = report.counterexample
    assert counterexample["delta"] == first
    assert int(counterexample["counted"]) == int(counterexample["by_runs"]) + 1
    # the unsplit oracle walks the whole table, which the fault misses
    assert counterexample["unsplit"] == counterexample["by_runs"]
    assert counterexample["differs"] == ["counted"]
    P = gc_poset_of_delta(first)
    assert counterexample["word"] == str(lexmin_word(P))
    assert canonical_form(poset_of_word(parse_word(counterexample["word"]))) == P


def test_recurrence_by_delta_names_every_count_that_differs(monkeypatch):
    from gcwords import verify

    monkeypatch.setattr(verify, "count_linear_extensions_unsplit", lambda P: 0)
    report = check_recurrence_by_delta(3)
    assert not report.passed
    assert report.counterexample["delta"] == ""
    assert report.counterexample["differs"] == ["unsplit"]
    monkeypatch.setattr(verify, "gc_count_by_runs", lambda delta: 2)
    report = check_recurrence_by_delta(3)
    assert report.counterexample == {
        "delta": "", "word": "1", "counted": "1", "unsplit": "0", "by_runs": "2",
        "differs": ["counted", "unsplit", "by_runs"],
    }


def test_gc_poset_words_are_the_splices():
    # the one-pass word of gc_poset_of_delta against the splices, rank by rank
    for n in range(1, 11):
        for letters in product("AD", repeat=n - 1):
            delta = "".join(letters)
            assert gc_poset_of_delta(delta)._word.letters == gc_word_by_splices(delta)


def test_recurrence_by_delta_names_a_word_one_shift_off(monkeypatch):
    from gcwords import verify

    def one_shift_off(delta):
        # the one-pass word, each A chain shifted by the A's from it on
        # instead of the A's after it
        shift = delta.count("A")
        letters = [1 + shift]
        for rank, kind in enumerate(delta, 1):
            if kind == "A":
                letters.extend(range(1 + shift, rank + 2 + shift))
                shift -= 1
            else:
                letters.extend(range(rank + 1 + shift, shift, -1))
        return word_poset._canonical_poset_of_word(letters)

    monkeypatch.setattr(verify, "gc_poset_of_delta", one_shift_off)
    report = check_recurrence_by_delta(5)
    assert not report.passed
    assert report.counterexample == {
        "delta": "A",
        "recorded_word": "2,2,3",
        "spliced_word": ",".join(map(str, gc_word_by_splices("A"))),
    }


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=10, max_value=11).flatmap(
        lambda n: st.text("AD", min_size=n - 1, max_size=n - 1)
    )
)
def test_recurrence_by_delta_at_ranks_10_and_11(delta):
    assert count_linear_extensions(gc_poset_of_delta(delta)) == gc_count_by_runs(delta)


def test_gc_count_by_runs_sums_to_the_recurrence():
    # one product per delta, regrouped over the deltas of a rank
    for n in range(1, 12):
        total = sum(gc_count_by_runs("".join(d)) for d in product("AD", repeat=n - 1))
        assert total == gc_recurrence(n)
    with pytest.raises(DomainError):
        gc_count_by_runs("ADX")


def test_table1_small():
    report = check_table1(n_max=4, brute_max=3)
    assert report.passed
    assert report.params == {"n_max": 4, "brute_max": 3}


def test_table1_fails_when_the_gc_word_enumeration_drops_a_word(monkeypatch):
    from gcwords import verify

    enumerate_gc_words = verify.enumerate_gc_words

    def drop_first(n, budget=None):
        words = enumerate_gc_words(n, budget)
        next(words)
        return words

    monkeypatch.setattr(verify, "enumerate_gc_words", drop_first)
    report = check_table1(n_max=4, brute_max=3)
    assert not report.passed
    assert report.counterexample == {"n": 1, "enumerated": "0", "table": "1"}


def test_table1_rejects_unknown_rank():
    with pytest.raises(DomainError):
        check_table1(n_max=9)


def test_brute_counts():
    assert [count_gc_words_brute(n) for n in (1, 2, 3, 4)] == [1, 2, 6, 40]


def check_same_partition(words):
    """projection_key and the canonical word poset split the words into the
    same blocks; returns the number of blocks."""
    form_of_key, key_of_form = {}, {}
    for w in words:
        key, form = projection_key(w), canonical_form(poset_of_word(w))
        assert form_of_key.setdefault(key, form) == form, str(w)
        assert key_of_form.setdefault(form, key) == key, str(w)
    return len(form_of_key)


def test_projection_key_partition_rank_4(words_of_rank):
    assert check_same_partition(words_of_rank(4)) == CLASS_COUNTS[4]


def braid_walk(w, rng, steps):
    for _ in range(steps):
        moves = [(apply_2move, p) for p in legal_2moves(w)]
        moves += [(apply_3move, p) for p in legal_3moves(w)]
        move, pos = rng.choice(moves)
        w = move(w, pos)
    return w


@settings(deadline=None, max_examples=30)
@given(n=st.sampled_from([5, 6]), seed=st.integers(min_value=0, max_value=2**32))
def test_projection_key_partition_sampled(n, seed):
    # short braid walks from one word: most stay in its class (2-moves
    # only), the rest cross into neighbouring classes
    rng = random.Random(seed)
    base = braid_walk(standard_word(n), rng, 60)
    sample = [base] + [braid_walk(base, rng, rng.randint(1, 6)) for _ in range(16)]
    check_same_partition(sample)


def test_reference_constants():
    assert GC_TABLE == (1, 1, 2, 6, 40, 916, 102176, 68464624, 317175051664)
    assert CLASS_COUNTS[4] == 62


def test_report_json_shape():
    report = check_tits_connectivity(2)
    payload = json.loads(report.json_line())
    assert payload["check"] == "tits_connectivity"
    assert payload["params"] == {"n": 2}
    assert payload["pass"] is True
    assert "elapsed_ms" in payload
    assert "counterexample" not in payload


def test_report_payload_byte_stable():
    first = check_class_poset_equivalence(3).json_line(include_elapsed=False)
    second = check_class_poset_equivalence(3).json_line(include_elapsed=False)
    assert first == second


def test_failing_report_carries_counterexample():
    bad = Report("demo", {"n": 2}, False, 0.1, {"unreached": "1,2,1"})
    payload = json.loads(bad.json_line())
    assert payload["pass"] is False
    assert payload["counterexample"] == {"unreached": "1,2,1"}


def test_run_checks_selection():
    reports = run_checks(["tits_connectivity"], scale=2)
    assert [r.check for r in reports] == ["tits_connectivity"]
    with pytest.raises(DomainError, match="unknown check"):
        run_checks(["nope"])
    assert set(ALL_CHECKS) == {
        "tits_connectivity",
        "class_poset_equivalence",
        "injectivity_theorem",
        "contraction_laws",
        "mirror_laws",
        "recurrence_by_delta",
        "table1",
    }
