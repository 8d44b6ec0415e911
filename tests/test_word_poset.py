import copy
import hashlib
import pickle
import random
from collections import deque
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gcwords import word_poset
from gcwords.cli import main
from gcwords.gc import classify_gc, gc_direct, gc_poset_of_delta
from gcwords.indices import full_profile
from gcwords.lattice import (
    _SUMMANDS,
    _ideal_fields,
    _ideal_levels,
    _ordinal_cuts,
    _summand_count,
)
from gcwords.verify import (
    _classes_by_3moves,
    _covers_from_below,
    _down_masks,
    _poset_needs,
    _poset_of_word_by_definition,
    braid_triples,
    count_linear_extensions_unsplit,
    count_reduced_words,
    ideals,
    is_ideal,
    less,
    lexmin_word_by_covers,
    linear_extensions,
    one_ideal_levels,
    projection_key,
    words_of_class,
)
from gcwords.word_poset import (
    WordPoset,
    _canonical_poset_of_word,
    _class_words,
    _extension,
    _word_needs,
    canonical_form,
    count_commutation_classes,
    count_linear_extensions,
    enumerate_commutation_classes,
    is_isomorphic,
    lexmin_word,
    poset_of_word,
    render_dot,
    word_of_extension,
)
from gcwords.words import (
    DomainError,
    Word,
    apply_2move,
    enumerate_reduced_words,
    is_reduced,
    legal_2moves,
    parse_word,
    standard_word,
)

from test_indices import random_extension, random_w0_word
from test_words import random_braid_walk

STANDARD3 = parse_word("1,2,1,3,2,1")
OTHER3 = parse_word("1,3,2,1,3,2")


def test_poset_of_standard3():
    P = poset_of_word(STANDARD3)
    assert P.covers == ((1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6))
    assert P.columns == (1, 2, 1, 3, 2, 1)


def test_poset_of_other3():
    # the six Hasse edges of the second worked example
    P = poset_of_word(OTHER3)
    assert P.covers == ((1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6))


def test_poset_singleton():
    P = poset_of_word(parse_word("1"))
    assert P.size == 1 and P.covers == ()


def test_poset_rejects_non_reduced():
    with pytest.raises(DomainError, match="not reduced"):
        poset_of_word(parse_word("1,1"))


def test_poset_of_word_matches_definition_on_all_small_words():
    # every reduced word of every permutation of S_1..S_5, not only of w0
    words = [
        w
        for m in range(1, 6)
        for p in permutations(range(1, m + 1))
        for w in enumerate_reduced_words(p)
    ]
    assert len(words) == 3137
    for w in words:
        assert poset_of_word(w) == _poset_of_word_by_definition(w)


def _poset_or_error(route, w):
    try:
        return route(w)
    except DomainError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(
    rank=st.integers(min_value=1, max_value=6),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=16),
)
def test_poset_of_word_matches_definition_on_letter_sequences(rank, picks):
    # reduced or not: the same poset, or the same DomainError.  Most long
    # sequences are not reduced, so their longest reduced prefix is tried too.
    letters = tuple(1 + pick % rank for pick in picks)
    reduced = max(k for k in range(len(letters) + 1) if is_reduced(Word(rank, letters[:k])))
    for w in (Word(rank, letters), Word(rank, letters[:reduced])):
        assert _poset_or_error(poset_of_word, w) == _poset_or_error(
            _poset_of_word_by_definition, w
        )


def test_canonical_poset_of_word_is_the_canonical_form(classes_of_rank):
    for n in (1, 2, 3, 4, 5):
        for P in classes_of_rank(n):
            w = lexmin_word(P)
            assert _canonical_poset_of_word(w.letters) == canonical_form(poset_of_word(w))
    for n in range(1, 9):
        for kinds in product("AD", repeat=n - 1):
            P = gc_poset_of_delta("".join(kinds))
            w = lexmin_word(P)
            assert _canonical_poset_of_word(w.letters) == canonical_form(poset_of_word(w)) == P


def test_canonical_form_and_column_chains_read_the_word(monkeypatch):
    # both read the word a poset keeps: no linear extension is walked
    import gcwords.word_poset as word_poset

    def refused(*args, **kwargs):
        raise AssertionError("walked a linear extension")

    monkeypatch.setattr(word_poset, "_extension", refused)
    posets = [P for n in (1, 2, 3, 4) for P in enumerate_commutation_classes(n)]
    posets += [
        gc_poset_of_delta("".join(kinds))
        for n in range(1, 7)
        for kinds in product("AD", repeat=n - 1)
    ]
    for P in posets:
        assert canonical_form(P) == P
        # a canonical poset numbers each column bottom to top, column by column
        labels = iter(range(1, P.size + 1))
        assert P.column_chains == {
            c: tuple(next(labels) for _ in range(P.columns.count(c)))
            for c in sorted(set(P.columns))
        }


def test_columns_that_are_not_chains_rejected():
    # column 1 holds the incomparable elements 1 and 3: no word's poset,
    # and no table for the ideal walker
    P = WordPoset((1, 2, 1), ((1, 2), (3, 2)))
    with pytest.raises(DomainError, match="not reduced"):
        P.column_chains
    with pytest.raises(DomainError, match="column 1 is not a chain"):
        list(ideals(P))


def test_invalid_covers_rejected():
    with pytest.raises(DomainError):
        WordPoset((1, 3), ((1, 2),))  # non-adjacent columns
    with pytest.raises(DomainError):
        WordPoset((1, 2), ((1, 3),))  # label out of range


def test_repeated_cover_rejected():
    # a repeat would make the poset unequal to itself without it
    with pytest.raises(DomainError, match=r"^cover \(1,2\) repeated$"):
        WordPoset((1, 2, 1), ((1, 2), (2, 3), (1, 2)))


def test_recorded_posets_pass_the_public_checks(classes_of_rank, words_of_rank):
    # the recorded constructor skips WordPoset's checks; a copy through the
    # public constructor runs them, and the copy's lexmin word, checked to
    # have the copy as its poset, reads the same column chains
    posets = [P for n in range(1, 6) for P in classes_of_rank(n)]
    posets += [
        gc_poset_of_delta("".join(kinds))
        for n in range(1, 9)
        for kinds in product("AD", repeat=n - 1)
    ]
    posets += [poset_of_word(w) for w in words_of_rank(4)]
    assert len(posets) == 1 + 2 + 8 + 62 + 908 + 255 + 768
    for P in posets:
        Q = WordPoset(P.columns, P.covers)
        assert Q == P
        assert Q.column_chains == P.column_chains


def test_cycle_rejected():
    P = WordPoset((1, 2, 1), ((1, 2), (2, 3), (3, 2)))
    with pytest.raises(DomainError, match="cycle"):
        lexmin_word(P)


def test_order_oracle_rejects_a_cycle():
    # the down-sets are closed over the covers alone, so a cycle puts an
    # element below itself
    P = WordPoset((1, 2, 1), ((1, 2), (2, 3), (3, 2)))
    with pytest.raises(DomainError, match="cycle"):
        _down_masks(P)


def test_canonical_form_identifies_classes():
    a = canonical_form(poset_of_word(STANDARD3))
    b = canonical_form(poset_of_word(parse_word("1,2,3,1,2,1")))
    c = canonical_form(poset_of_word(OTHER3))
    assert a == b
    assert a != c
    assert canonical_form(a) == a  # idempotent
    assert is_isomorphic(poset_of_word(STANDARD3), poset_of_word(parse_word("1,2,3,1,2,1")))
    assert not is_isomorphic(poset_of_word(STANDARD3), poset_of_word(OTHER3))


def test_two_move_closure_matches_canonical(words_of_rank):
    # words are 2-move connected iff their posets are isomorphic
    for n in (2, 3):
        for start in words_of_rank(n):
            seen = {start}
            queue = deque([start])
            while queue:
                w = queue.popleft()
                for p in legal_2moves(w):
                    v = apply_2move(w, p)
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            key = canonical_form(poset_of_word(start))
            same = {
                w
                for w in words_of_rank(n)
                if canonical_form(poset_of_word(w)) == key
            }
            assert seen == same


def test_linear_extension_counts():
    assert count_linear_extensions(poset_of_word(STANDARD3)) == 2
    assert count_linear_extensions(poset_of_word(OTHER3)) == 4
    chain = WordPoset((1, 2, 3, 4, 5), tuple((i, i + 1) for i in range(1, 5)))
    assert count_linear_extensions(chain) == 1


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=7),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
    start=st.integers(min_value=0, max_value=10**6),
    stop=st.integers(min_value=0, max_value=10**6),
)
def test_extension_count_splits_at_the_one_ideal_levels(n, choices, start, stop):
    # a random word of w0 and a factor of it, a reduced word whose letters
    # need not start at 1: the cuts read off the word are the unsplit
    # walk's one-ideal levels, and the product over the summands is its count
    w = random_braid_walk(standard_word(n), choices)
    start, stop = sorted((start % (len(w) + 1), stop % (len(w) + 1)))
    for letters in (w.letters, w.letters[start:stop]):
        P = poset_of_word(Word(n, letters))
        assert _ordinal_cuts(letters) == one_ideal_levels(P)
        counted = count_linear_extensions(P)
        assert counted == count_linear_extensions_unsplit(P)
        if n <= 4:
            assert counted == sum(1 for _ in linear_extensions(P))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=7),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
    start=st.integers(min_value=0, max_value=10**6),
    stop=st.integers(min_value=0, max_value=10**6),
)
def test_a_word_and_its_flip_share_their_summand_counts(n, choices, start, stop):
    # the flip c -> n+1-c keeps which letters differ by one, so a word and
    # its flip have one order on their positions and one count, and the
    # count keys their summands alike: counting the flip right after the
    # word walks no summand
    w = random_braid_walk(standard_word(n), choices)
    start, stop = sorted((start % (len(w) + 1), stop % (len(w) + 1)))
    for letters in (w.letters, w.letters[start:stop]):
        P = poset_of_word(Word(n, letters))
        F = poset_of_word(Word(n, tuple(n + 1 - c for c in letters)))
        counted = count_linear_extensions(P)
        misses = _summand_count.cache_info().misses
        assert count_linear_extensions(F) == counted
        assert _summand_count.cache_info().misses == misses
        assert counted == count_linear_extensions_unsplit(F)


def test_summand_cache_holds_at_most_its_fixed_size(classes_of_rank):
    # the classes of ranks 1-5 have more distinct summands than the cache
    # holds, so it fills and then evicts
    _summand_count.cache_clear()
    for n in range(1, 6):
        for P in classes_of_rank(n):
            count_linear_extensions(P)
            assert _summand_count.cache_info().currsize <= _SUMMANDS
    info = _summand_count.cache_info()
    assert info.maxsize == _SUMMANDS == info.currsize


def test_long_columns_widen_the_packed_key():
    # a count of 70 needs a 7-bit field: one column chain of 70 elements...
    levels = list(_ideal_levels([([0] * 70, [0] * 70)]))
    assert [len(level) for level in levels] == [1] * 71
    assert levels[-1] == {70: 1}
    # ...and a zigzag chain whose two columns hold 70 and 69 elements; it
    # is the poset of no reduced word, so only the covers' table counts it
    size = 139
    chain = WordPoset((1, 2) * 69 + (1,), tuple((i, i + 1) for i in range(1, size)))
    for level in _ideal_levels(_poset_needs(chain)):
        pass
    assert level == {(70 << 7) + 69: 1}
    with pytest.raises(DomainError, match="not reduced"):
        count_linear_extensions(chain)
    assert [len(I) for I in ideals(chain)] == list(range(size + 1))
    assert list(ideals(chain))[-1] == frozenset(range(1, size + 1))


def walker_levels_are_the_oracle_ideals(P, needs):
    # the walker's levels on the table needs of P, decoded to per-column
    # counts, against the breadth-first search over bitmask ideals of the
    # ideal oracle, as sets per size
    width, shifts = _ideal_fields(needs)
    mask = (1 << width) - 1
    walked = [{tuple(key >> shift & mask for shift in shifts) for key in level}
              for level in _ideal_levels(needs)]
    columns = sorted(set(P.columns))
    found = [set() for _ in range(P.size + 1)]
    for I in ideals(P):
        found[len(I)].add(tuple(sum(P.columns[k - 1] == c for k in I) for c in columns))
    return walked == found


def test_walker_levels_are_the_oracle_ideals(classes_of_rank):
    for n in range(1, 8):
        for letters in product("AD", repeat=n - 1):
            P = gc_poset_of_delta("".join(letters))
            assert walker_levels_are_the_oracle_ideals(P, _word_needs(P._word.letters, n))
    for n in range(1, 5):
        for P in classes_of_rank(n):
            assert walker_levels_are_the_oracle_ideals(P, _word_needs(P._word.letters, n))
    # the zigzag chain of test_long_columns_widen_the_packed_key, walked on
    # the covers' table
    chain = WordPoset((1, 2) * 69 + (1,), tuple((i, i + 1) for i in range(1, 139)))
    assert walker_levels_are_the_oracle_ideals(chain, _poset_needs(chain))


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=5, max_value=7),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
)
def test_walker_levels_are_the_oracle_ideals_on_random_words(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    assert walker_levels_are_the_oracle_ideals(poset_of_word(w), _word_needs(w.letters, n))


def test_walker_rejects_malformed_need_tables():
    # each column has one row of needs per neighbour, as long as the
    # column; the first column has no left neighbour, the last no right one
    for needs, column, reason in (
        ([([0], [0]), ([0, 1], [0]), ([0], [0])], 1, "differ in length"),
        ([([1], [0]), ([0], [0])], 0, "left of it"),
        ([([0], [0]), ([0], [0]), ([1], [1])], 2, "right of it"),
    ):
        with pytest.raises(DomainError, match=rf"column {column} .*{reason}$"):
            next(_ideal_levels(needs))


def test_linear_extensions_stream_matches_count(classes_of_rank):
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            exts = list(linear_extensions(P))
            assert len(exts) == count_linear_extensions(P)
            assert len(set(exts)) == len(exts)


def test_extension_count_sums_to_word_count(classes_of_rank):
    from gcwords.words import longest_element

    for n in (3, 4, 5):
        total = sum(count_linear_extensions(P) for P in classes_of_rank(n))
        assert total == count_reduced_words(longest_element(n + 1))


def test_words_of_class_golden():
    got = sorted(str(w) for w in words_of_class(poset_of_word(STANDARD3)))
    assert got == ["1,2,1,3,2,1", "1,2,3,1,2,1"]


def test_words_of_class_properties():
    P = poset_of_word(OTHER3)
    ws = list(words_of_class(P))
    assert len(ws) == count_linear_extensions(P)
    for w in ws:
        assert is_isomorphic(poset_of_word(w), P)


def test_words_of_class_is_two_move_closure(words_of_rank):
    for n in (2, 3):
        for start in words_of_rank(n):
            P = poset_of_word(start)
            closure = {start}
            queue = deque([start])
            while queue:
                w = queue.popleft()
                for p in legal_2moves(w):
                    v = apply_2move(w, p)
                    if v not in closure:
                        closure.add(v)
                        queue.append(v)
            assert set(words_of_class(P)) == closure


def test_lexmin_word(classes_of_rank):
    assert str(lexmin_word(poset_of_word(parse_word("2,1,2")))) == "2,1,2"
    assert str(lexmin_word(poset_of_word(STANDARD3))) == "1,2,1,3,2,1"
    # least under 2-moves, for every class at small rank
    for n in (2, 3):
        for P in enumerate_commutation_classes(n):
            assert lexmin_word(P) == min(words_of_class(P), key=lambda w: w.letters)
    # the greedy walk against the heap walk over the covers, for every class
    # of ranks 1-5, read off the class word (its lexmin word already) and
    # off the greatest word of the class
    for n in range(1, 6):
        for P in classes_of_rank(n):
            greatest = word_of_extension(P, _extension(P, lambda k: (-P.columns[k - 1], k)))
            assert lexmin_word(P) == lexmin_word(poset_of_word(greatest)) == lexmin_word_by_covers(P)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=2**32))
def test_lexmin_word_is_one_word_per_class(n, seed):
    # the posets of a random word, its canonical poset, a cold copy and the
    # canonical poset of a second word of the class each read their lexmin
    # word off a different word or walk: all of them are the oracle's
    rng = random.Random(seed)
    P = poset_of_word(random_w0_word(n, rng))
    second = word_of_extension(P, random_extension(P, rng))
    expected = lexmin_word_by_covers(P)
    for Q in (P, canonical_form(P), WordPoset(P.columns, P.covers),
              _canonical_poset_of_word(second.letters)):
        assert lexmin_word(Q) == expected


def test_ideals_unique_per_counts(classes_of_rank):
    # per-column sizes determine an ideal; cross-check against the
    # brute-force enumeration of downward-closed subsets, in the walker's
    # order: by size, then by per-column counts
    for n in (1, 2, 3, 4):
        for P in classes_of_rank(n):
            by_dp = list(ideals(P))

            def counts(ideal):
                return tuple(
                    sum(1 for k in ideal if P.columns[k - 1] == col)
                    for col in sorted(P.column_chains)
                )

            elements = list(range(1, P.size + 1))
            brute = [
                frozenset(sub)
                for r in range(P.size + 1)
                for sub in combinations(elements, r)
                if is_ideal(P, frozenset(sub))
            ]
            brute.sort(key=lambda ideal: (len(ideal), counts(ideal)))
            assert by_dp == brute
            assert len({counts(ideal) for ideal in by_dp}) == len(by_dp)
            assert len(by_dp) <= prod(
                len(chain) + 1 for chain in P.column_chains.values()
            )


def test_extension_walker_is_the_least_extension(classes_of_rank):
    # the heap walk against brute force: for every class at ranks 1-4 and
    # every ideal of it, the least of all linear extensions under each key
    for n in (1, 2, 3, 4):
        for P in classes_of_rank(n):
            extensions = list(linear_extensions(P))
            keys = [lambda k: k, lambda k, P=P: (P.columns[k - 1], k)]
            keys += [lambda k, I=I: (k not in I, k) for I in ideals(P)]
            for key in keys:
                least = min(extensions, key=lambda e: [key(k) for k in e])
                assert _extension(P, key) == least


def test_column_chains_are_chains(classes_of_rank):
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            for chain in P.column_chains.values():
                for a, b in zip(chain, chain[1:]):
                    assert less(P, a, b)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 62)])
def test_class_counts(n, count, classes_of_rank):
    assert len(classes_of_rank(n)) == count


def test_classes_are_canonical_and_distinct(classes_of_rank):
    # the splice enumeration meets each class once: the 3-move search agrees
    for n in (1, 2, 3, 4, 5):
        reps = classes_of_rank(n)
        assert len(set(reps)) == len(reps)
        for P in reps:
            assert canonical_form(P) == P
        assert set(reps) == _classes_by_3moves(n)


def test_count_commutation_classes_oeis():
    # OEIS A006245, shifted by one
    counts = [count_commutation_classes(n) for n in range(1, 7)]
    assert counts == [1, 2, 8, 62, 908, 24698]
    for n in (0, -1):
        with pytest.raises(DomainError, match="rank must be positive"):
            count_commutation_classes(n)
        with pytest.raises(DomainError, match="rank must be positive"):
            next(enumerate_commutation_classes(n))


def test_class_words_rank6_are_distinct_classes():
    keys = {projection_key(Word(6, letters)) for letters, _ in _class_words(6, staged=False)}
    assert len(keys) == 24698


# sha256 of the letters of every rank-5 class word, comma-separated, one
# word a line, in the order the class tree yields them
CLASS_TREE_RANK5_SHA256 = "0de362fe24b1dd0f02d54dc3da115b1c45fcc7f6c87193034f13fce67bd190c8"


def test_class_tree_order_is_pinned():
    # the walker's key order, ideals in level order and each ideal's
    # successors by ascending column, fixes the order of the class tree
    digest = hashlib.sha256()
    for letters, _ in _class_words(5, staged=False):
        digest.update((",".join(map(str, letters)) + "\n").encode())
    assert digest.hexdigest() == CLASS_TREE_RANK5_SHA256


def test_class_tree_words_are_lexmin():
    # the lemma on _class_words: the greedy walk over the tree word's own
    # table keeps it, at ranks 1-6, and the covers walk reads it, at 1-5
    for n in range(1, 7):
        for letters, _ in _class_words(n, staged=False):
            P = _canonical_poset_of_word(letters)
            assert lexmin_word(P).letters == letters
            if n <= 5:
                assert lexmin_word_by_covers(P).letters == letters


def test_classes_command_builds_no_poset_table_or_lexmin_walk(monkeypatch, capsys):
    calls = []
    for name in ("_canonical_poset_of_word", "_extended_stage_table", "lexmin_word"):
        original = getattr(word_poset, name)
        monkeypatch.setattr(
            word_poset, name, lambda *args, f=original: calls.append(f.__name__) or f(*args)
        )
    assert main(["classes", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 908
    assert calls == []


def test_braid_triples_match_word_level_3moves(words_of_rank):
    # every class-level triple realizes a 3-move and vice versa
    from gcwords.words import legal_3moves

    for n in (2, 3):
        for P in enumerate_commutation_classes(n):
            has_triple = bool(braid_triples(P, _down_masks(P)))
            has_move = any(legal_3moves(w) for w in words_of_class(P))
            assert has_triple == has_move


def test_render_dot_deterministic():
    P = poset_of_word(STANDARD3)
    text = render_dot(P)
    assert text == render_dot(poset_of_word(STANDARD3))
    assert 'n4 [label="4", pos="3,' in text
    assert "n5 -> n6;" in text
    assert "style=dotted" not in text


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=5),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=20),
)
def test_canonical_form_idempotent_on_random_classes(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    P = canonical_form(poset_of_word(w))
    assert canonical_form(P) == P


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=6),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
)
def test_word_needs_walk_the_poset_ideals(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    from_word = list(_ideal_levels(_word_needs(w.letters, n)))
    from_poset = list(_ideal_levels(_poset_needs(poset_of_word(w))))
    assert from_word == from_poset


def test_word_needs_are_the_poset_needs(words_of_rank, classes_of_rank):
    # the word's counts of c-1 and c+1 before each occurrence of c are the
    # elements of each neighbour column below it, read off the order
    for n in range(1, 5):
        for w in words_of_rank(n):
            assert _word_needs(w.letters, n) == _poset_needs(poset_of_word(w))
    for P in classes_of_rank(5):
        assert _word_needs(P._word.letters, 5) == _poset_needs(P)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=5, max_value=7),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
)
def test_word_needs_are_the_poset_needs_on_random_words(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    assert _word_needs(w.letters, n) == _poset_needs(poset_of_word(w))


# sha256 over every level's items, in order, of the walks on the word tables
# of every GC poset of ranks 1-8 and then every class of ranks 1-5, recorded
# from the walker when its table listed (column, count) pairs per element
WALKER_LEVELS_SHA256 = "caeac9563021cc01b82f38605111c610782b366ae80c92331d7eed17198c7d22"


def test_walker_levels_are_pinned(classes_of_rank):
    # the levels, their keys and the keys' order do not depend on the
    # table's layout
    digest = hashlib.sha256()
    posets = [gc_poset_of_delta("".join(kinds)) for n in range(1, 9)
              for kinds in product("AD", repeat=n - 1)]
    posets += [P for n in range(1, 6) for P in classes_of_rank(n)]
    for P in posets:
        for level in _ideal_levels(_word_needs(P._word.letters, P.rank)):
            digest.update(repr(list(level.items())).encode())
    assert digest.hexdigest() == WALKER_LEVELS_SHA256


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=6, max_value=9),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=80),
)
def test_poset_of_word_matches_definition_at_high_rank(n, choices):
    # the cover rule holds on reduced words only: check it on words of w0
    # well past the letter sequences above
    w = random_braid_walk(standard_word(n), choices)
    assert poset_of_word(w) == _poset_of_word_by_definition(w)


@st.composite
def random_dags(draw):
    # a random order on 1..size: edges go up a random permutation of labels
    size = draw(st.integers(min_value=0, max_value=12))
    order = draw(st.permutations(range(1, size + 1)))
    edges = [
        (order[i], order[j])
        for i, j in combinations(range(size), 2)
        if draw(st.booleans())
    ]
    return size, edges


@settings(deadline=None, max_examples=150)
@given(random_dags())
def test_covers_from_below_is_the_transitive_reduction(dag):
    size, edges = dag
    less = set(edges)
    while True:
        longer = {(x, z) for x, y in less for w, z in less if y == w}
        if longer <= less:
            break
        less |= longer
    below = [0] * size
    for x, y in less:
        below[y - 1] |= 1 << (x - 1)
    brute = {
        (x, y)
        for x, y in less
        if not any((x, z) in less and (z, y) in less for z in range(1, size + 1))
    }
    covers = _covers_from_below(below)
    assert len(covers) == len(brute) and set(covers) == brute


def assert_lazy_covers_are_the_definition(make):
    # make() builds a fresh recorded poset, its covers unread: read on first
    # use, they are the covers of the definition oracle relabeled by its
    # labels, and the poset compares, hashes and prints as the public
    # poset of those covers, both before and after that read
    P = make()
    assert "covers" not in vars(P)
    w, labels = P._word, P._labels
    oracle = _poset_of_word_by_definition(w)
    Q = WordPoset(P.columns, tuple((labels[x - 1], labels[y - 1]) for x, y in oracle.covers))
    for probe in (lambda P: P == Q, lambda P: hash(P) == hash(Q), lambda P: repr(P) == repr(Q)):
        P = make()
        assert "covers" not in vars(P) and probe(P) and vars(P)["covers"] == Q.covers
    P = make()
    assert P.covers == Q.covers
    R = WordPoset(P.columns, P.covers)
    assert P == R and hash(P) == hash(R) and repr(P) == repr(R)


@pytest.mark.parametrize("n", range(1, 10))
def test_lazy_covers_of_gc_posets_are_the_definition(n):
    for kinds in product("AD", repeat=n - 1):
        assert_lazy_covers_are_the_definition(lambda: gc_poset_of_delta("".join(kinds)))


@pytest.mark.parametrize("n", range(1, 6))
def test_lazy_covers_of_classes_are_the_definition(classes_of_rank, n):
    for P in classes_of_rank(n):
        letters = P._word.letters
        assert_lazy_covers_are_the_definition(lambda: _canonical_poset_of_word(letters))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=7),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
)
def test_lazy_covers_of_canonical_forms_are_the_definition(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    assert_lazy_covers_are_the_definition(lambda: canonical_form(poset_of_word(w)))


def pickled(P):
    return pickle.loads(pickle.dumps(P))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickled])
def test_copies_of_an_unread_recorded_poset_read_the_same_covers(duplicate):
    # a copy of an unread poset holds its word and reads the same covers
    # on first use; a poset that holds neither, as a copy is before its
    # state is restored, has no covers, and neither has the class
    for make in (
        lambda: gc_poset_of_delta("ADDA"),
        lambda: list(enumerate_commutation_classes(4))[17],
        lambda: canonical_form(poset_of_word(STANDARD3)),
    ):
        P, C = make(), duplicate(make())
        assert "covers" not in vars(C) and set(vars(C)) == set(vars(P))
        assert C == P and C.covers == P.covers and hash(C) == hash(P)
    assert not hasattr(object.__new__(WordPoset), "covers") and not hasattr(WordPoset, "covers")


def assert_lazy_columns_and_labels_are_the_eager_rule(letters):
    # a canonical poset of the word's class records the word alone; read
    # on first use, its columns list each letter c as often as the word
    # does, ascending, and the j-th occurrence of c is the j-th element of
    # column c.  It compares, hashes and prints as the public poset of the
    # definition oracle's covers so labeled, and so does a copy of it unread
    rank = max(letters, default=0)
    columns = tuple(c for c in range(1, rank + 1) for _ in range(letters.count(c)))
    labels = tuple(columns.index(c) + letters[:r].count(c) + 1 for r, c in enumerate(letters))
    oracle = _poset_of_word_by_definition(Word(rank, letters))
    Q = WordPoset(columns, tuple((labels[x - 1], labels[y - 1]) for x, y in oracle.covers))
    for probe in (lambda P: P == Q, lambda P: hash(P) == hash(Q), lambda P: repr(P) == repr(Q)):
        P = _canonical_poset_of_word(letters)
        assert set(vars(P)) == {"_word"} and probe(P)
        assert vars(P)["columns"] == columns and vars(P)["_labels"] == labels
    for duplicate in (copy.copy, copy.deepcopy, pickled):
        C = duplicate(_canonical_poset_of_word(letters))
        assert set(vars(C)) == {"_word"}
        assert C.columns == columns and C._labels == labels and C == Q and hash(C) == hash(Q)
    P = _canonical_poset_of_word(letters)
    assert P._labels == labels and "columns" not in vars(P) and P.columns == columns


@pytest.mark.parametrize("n", range(1, 10))
def test_lazy_columns_and_labels_of_gc_posets_are_the_eager_rule(n):
    for kinds in product("AD", repeat=n - 1):
        letters = gc_poset_of_delta("".join(kinds))._word.letters
        assert_lazy_columns_and_labels_are_the_eager_rule(letters)


@pytest.mark.parametrize("n", range(1, 6))
def test_lazy_columns_and_labels_of_classes_are_the_eager_rule(classes_of_rank, n):
    for P in classes_of_rank(n):
        assert_lazy_columns_and_labels_are_the_eager_rule(P._word.letters)


def test_counting_and_the_class_census_build_no_covers(monkeypatch):
    built, calls = [], []
    recorded, covers = word_poset._recorded_poset, word_poset._word_covers
    monkeypatch.setattr(
        word_poset, "_recorded_poset", lambda *args: built.append(recorded(*args)) or built[-1]
    )
    monkeypatch.setattr(word_poset, "_word_covers", lambda *args: calls.append(args) or covers(*args))
    assert [gc_direct(n) for n in range(8)] == [1, 1, 2, 6, 40, 916, 102176, 68464624]
    for P in enumerate_commutation_classes(4):
        classify_gc(P)
        full_profile(P)
        count_linear_extensions(P)
    assert len(built) == 2**7 - 1 + 62
    assert calls == []
    # nor columns or labels, which a canonical poset builds on first read
    assert not any(vars(P).keys() & {"covers", "columns", "_labels"} for P in built)
