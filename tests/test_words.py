import tracemalloc
from collections import deque
from dataclasses import replace
from itertools import islice, permutations, product, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

import gcwords.words
from gcwords.words import (
    DomainError,
    Word,
    apply_2move,
    apply_3move,
    enumerate_reduced_words,
    inversion_count,
    is_reduced,
    legal_2moves,
    legal_3moves,
    longest_element,
    parse_perm,
    parse_word,
    perm_of_word,
    standard_word,
    word,
)
from gcwords.verify import count_reduced_words, is_reduced_by_length


def test_perm_of_word_convention():
    # the documented convention: s_1 s_2 s_1 sorts to 3,2,1
    assert perm_of_word(word([1, 2, 1])) == (3, 2, 1)


def test_perm_of_word_empty():
    assert perm_of_word(Word(3, ())) == (1, 2, 3, 4)


def test_perm_of_word_longest():
    assert perm_of_word(word([1, 3, 2, 1, 3, 2])) == longest_element(4)


def test_letters_out_of_range():
    with pytest.raises(DomainError):
        Word(2, (1, 3))
    with pytest.raises(DomainError):
        Word(2, (0,))


@pytest.mark.parametrize(
    "text, message",
    [
        ("-2", "letter -2 at position 1 is not positive"),
        ("0,0", "letter 0 at position 1 is not positive"),
        ("2,1,0", "letter 0 at position 3 is not positive"),
    ],
)
def test_inferred_rank_names_the_first_nonpositive_letter(text, message):
    # the rank is inferred only from valid letters, so the message names
    # the bad letter and not a rank the text never gave
    with pytest.raises(DomainError, match=message):
        parse_word(text)


@pytest.mark.parametrize(
    "p,count",
    [((1, 2, 3), 0), ((3, 2, 1), 3), ((4, 3, 2, 1), 6), ((2, 4, 1, 3), 3)],
)
def test_inversion_count(p, count):
    assert inversion_count(p) == count


def test_is_reduced():
    assert is_reduced(word([1, 2, 1]))
    assert not is_reduced(word([1, 1]))
    assert is_reduced(word([1, 3, 2, 1, 3, 2]))


def test_is_reduced_matches_the_length_oracle_on_every_short_word():
    # the one-pass scan against the inversion count, on every letter
    # sequence of rank <= 4 and length <= 8
    words = [
        Word(rank, letters)
        for rank in range(5)
        for length in range(9)
        for letters in product(range(1, rank + 1), repeat=length)
    ]
    assert len(words) == 97743
    verdicts = [is_reduced(w) for w in words]
    assert verdicts == [is_reduced_by_length(w) for w in words]
    assert sum(verdicts) == 1601


@pytest.mark.parametrize(
    "n,expected",
    [(1, (1,)), (2, (1, 2, 1)), (3, (1, 2, 1, 3, 2, 1))],
)
def test_standard_word(n, expected):
    w = standard_word(n)
    assert w.letters == expected
    assert is_reduced(w)
    assert perm_of_word(w) == longest_element(n + 1)


def test_moves():
    assert apply_2move(word([1, 3, 2]), 1).letters == (3, 1, 2)
    assert apply_3move(word([1, 2, 1]), 1).letters == (2, 1, 2)
    with pytest.raises(DomainError, match="position 1"):
        apply_2move(word([1, 2, 1]), 1)
    with pytest.raises(DomainError):
        apply_3move(word([1, 3, 1]), 1)
    with pytest.raises(DomainError):
        apply_2move(word([1, 3]), 2)


def test_enumerate_reduced_words_lex():
    found = [w.letters for w in enumerate_reduced_words(longest_element(3))]
    assert found == [(1, 2, 1), (2, 1, 2)]


def test_enumerate_reduced_words_counts():
    # Stanley's counts |R(w0)| for ranks 1..5
    for n, count in zip(range(1, 6), (1, 2, 16, 768, 292864)):
        w0 = longest_element(n + 1)
        assert sum(1 for _ in enumerate_reduced_words(w0)) == count
        assert count_reduced_words(w0) == count
    assert sum(1 for _ in enumerate_reduced_words((1, 2, 3, 4))) == 1


@pytest.mark.parametrize("p", [(), (1,)])
def test_enumerate_trivial_permutations(p):
    assert list(enumerate_reduced_words(p)) == [Word(0, ())]


def check_word_stream(p, ws):
    """Each word is a reduced word of p with rank len(p)-1, strictly after
    the one before it in lexicographic order; returns how many there were."""
    length, rank = inversion_count(p), max(len(p) - 1, 0)
    target = p or (1,)  # a rank-0 word evaluates in S_1
    previous = None
    count = 0
    for w in ws:
        assert w.rank == rank
        assert len(w) == length and perm_of_word(w) == target
        assert previous is None or previous < w.letters
        previous = w.letters
        count += 1
    return count


@pytest.mark.parametrize("m", range(7))
def test_enumeration_is_every_reduced_word_in_order(m):
    for p in permutations(range(1, m + 1)):
        assert check_word_stream(p, enumerate_reduced_words(p)) == count_reduced_words(p)


@pytest.mark.parametrize("tail", [0, 1, 2, 3])
def test_enumeration_at_every_cut_over_depth(tail, monkeypatch):
    # The default tails are as long as every word of S_4, so the depth-first
    # loop runs on none of them; shorter tails make it run on every
    # permutation of S_1..S_5 with longer words, descents at the edge
    # letters 1 and m-1 included, to the end of the word when tail is 0.
    # The stream must not change.
    perms = [p for m in range(1, 6) for p in permutations(range(1, m + 1))]
    default = {p: _stream(p) for p in perms}
    monkeypatch.setattr(gcwords.words, "_TAIL", tail)
    for p in perms:
        assert check_word_stream(p, enumerate_reduced_words(p)) == count_reduced_words(p)
        assert _stream(p) == default[p]


def test_enumerated_words_equal_checked_words():
    # The loop builds its words unchecked, each with its text already made;
    # they must not differ from words built by the checked constructor.
    for m in range(6):
        for p in permutations(range(1, m + 1)):
            for w in enumerate_reduced_words(p):
                plain = Word(w.rank, w.letters)
                assert (w, hash(w), repr(w), str(w)) == (plain, hash(plain), repr(plain), str(plain))
                moved = replace(w, letters=w.letters[::-1])
                assert str(moved) == ",".join(map(str, w.letters[::-1]))


def _stream(p):
    return [(w.rank, w.letters, str(w)) for w in enumerate_reduced_words(p)]


def test_interleaved_enumerations_do_not_share_state():
    # Each call keeps its own table of tails: two streams of the same
    # permutation and one of another, advanced in turn, each give what they
    # give alone, and nothing is left behind in the module.
    def module_state():
        # containers by value, so a module-level cache filled in place shows
        return {
            name: list(value.items()) if isinstance(value, dict) else
            list(value) if isinstance(value, (list, set)) else value
            for name, value in vars(gcwords.words).items()
            if not name.startswith("__")
        }

    before = module_state()
    w0, other = longest_element(5), (3, 5, 1, 4, 2)
    alone = [_stream(w0), _stream(w0), _stream(other)]
    streams = [enumerate_reduced_words(w0), enumerate_reduced_words(w0),
               enumerate_reduced_words(other)]
    together = [[], [], []]
    for step in zip_longest(*streams):
        for seen, w in zip(together, step):
            if w is not None:
                seen.append((w.rank, w.letters, str(w)))
    assert together == alone
    assert module_state() == before


def _traced_peak(ws):
    tracemalloc.start()
    try:
        deque(ws, maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n, take, bound",
    # measured peaks: 47-122 KiB for the whole rank-4 stream, 22-32 KiB for
    # the first 2,000 words at rank 9, depending on what ran before.  A table
    # of whole words holds 680 KiB at rank 4 and cannot start at rank 9.
    [(4, None, 192 * 1024), (9, 2000, 80 * 1024)],
)
def test_enumeration_memory_stays_bounded(n, take, bound):
    assert _traced_peak(islice(enumerate_reduced_words(longest_element(n + 1)), take)) < bound


@settings(deadline=None, max_examples=40)
@given(p=st.permutations(range(1, 8)))
def test_enumeration_prefix_in_s7(p):
    p = tuple(p)
    check_word_stream(p, islice(enumerate_reduced_words(p), 500))


def test_enumeration_is_sorted_and_reduced(words_of_rank):
    for n in (2, 3, 4):
        ws = words_of_rank(n)
        letter_seqs = [w.letters for w in ws]
        assert letter_seqs == sorted(letter_seqs)
        assert len(set(letter_seqs)) == len(ws)
        assert all(len(w) == n * (n + 1) // 2 for w in ws)


def test_letter_flip_involution(words_of_rank):
    # i -> n+1-i conjugates by w0, so it maps the reduced words of w0 onto
    # themselves
    for n in (2, 3, 4):
        ws = set(words_of_rank(n))
        assert {Word(n, tuple(n + 1 - i for i in w.letters)) for w in ws} == ws


def test_parsing_roundtrip():
    w = parse_word("1,2,1,3,2,1")
    assert str(w) == "1,2,1,3,2,1"
    assert w.rank == 3
    assert parse_perm("[4,3,2,1]") == (4, 3, 2, 1)
    with pytest.raises(DomainError):
        parse_perm("[1,1,2]")
    with pytest.raises(DomainError):
        parse_word("")


def random_braid_walk(w, choices):
    for pick in choices:
        moves = [("2", p) for p in legal_2moves(w)] + [
            ("3", p) for p in legal_3moves(w)
        ]
        if not moves:
            break
        kind, pos = moves[pick % len(moves)]
        w = apply_2move(w, pos) if kind == "2" else apply_3move(w, pos)
    return w


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=5),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=25),
)
def test_braid_moves_preserve_permutation_and_reducedness(n, choices):
    w = random_braid_walk(standard_word(n), choices)
    assert is_reduced(w)
    assert perm_of_word(w) == longest_element(n + 1)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(min_value=5, max_value=9),
    choices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
    edit=st.sampled_from(["none", "insert", "repeat"]),
    where=st.integers(min_value=0, max_value=10**6),
    letter=st.integers(min_value=0, max_value=10**6),
    cut=st.integers(min_value=0, max_value=10**6),
)
def test_is_reduced_matches_the_length_oracle_near_w0(n, choices, edit, where, letter, cut):
    # a word of w0, as is or with one letter inserted or repeated, and a
    # prefix of it: the scan and the inversion count agree on all of them
    letters = list(random_braid_walk(standard_word(n), choices).letters)
    if edit == "insert":
        letters.insert(where % (len(letters) + 1), 1 + letter % n)
    elif edit == "repeat":
        pos = where % len(letters)
        letters.insert(pos, letters[pos])
    w = Word(n, tuple(letters))
    assert is_reduced(w) == is_reduced_by_length(w) == (edit == "none")
    prefix = Word(n, w.letters[: cut % (len(letters) + 1)])
    assert is_reduced(prefix) == is_reduced_by_length(prefix)
