from itertools import combinations

import pytest

from gcwords.verify import poset_of_wiring
from gcwords.wiring import _crossings, chains_from_wires, render_ascii, render_dot, wires
from gcwords.word_poset import poset_of_word
from gcwords.words import DomainError, Word, parse_word


def test_rows_are_letters():
    # the word is the diagram: row j crosses in the column of letter j
    w = parse_word("1,2,1,3,2,1")
    picture = render_ascii(w).splitlines()
    assert [line.index("X") for line in picture] == [2 * c - 1 for c in w.letters]


def _end_point(w, j):
    # follow wire j down its crossings: at a crossing in column c the wire
    # moves from position c to c+1 or from c+1 to c
    position = j
    for row in wires(w)[j - 1]:
        col = w.letters[row - 1]
        assert position in (col, col + 1), (j, row)
        position = col + 1 if position == col else col
    return position


def test_wire_one_endpoint():
    assert _end_point(parse_word("1,2,1,3,2,1"), 1) == 4


def test_single_crossing():
    w = parse_word("1")
    assert wires(w) == ((1,), (1,))
    assert (_end_point(w, 1), _end_point(w, 2)) == (2, 1)


def test_longest_element_wire_properties(words_of_rank):
    # wire j ends at n+2-j; every wire has n crossings; wires pairwise cross
    # exactly once
    for n in (2, 3, 4):
        for w in words_of_rank(n):
            traces = wires(w)
            for j in range(1, n + 2):
                assert _end_point(w, j) == n + 2 - j
                assert len(traces[j - 1]) == n
            for u, v in combinations(range(n + 1), 2):
                shared = set(traces[u]) & set(traces[v])
                assert len(shared) == 1


def test_chains_from_wires_golden():
    assert chains_from_wires(parse_word("1,2,1,3,2,1")) == ((1, 2, 4), (4, 5, 6))
    assert chains_from_wires(parse_word("1,3,2,1,3,2")) == ((1, 3, 5), (2, 3, 4))
    assert chains_from_wires(parse_word("1")) == ((1,), (1,))


def test_chains_from_wires_are_wires_1_and_n_plus_1(words_of_rank):
    for n in (1, 2, 3, 4):
        for w in words_of_rank(n):
            traces = wires(w)
            assert chains_from_wires(w) == (traces[0], traces[n])


def test_crossing_table_holds_every_wire(words_of_rank):
    # row u of the table, sorted, is the trace of wire u
    for n in (1, 2, 3, 4):
        for w in words_of_rank(n):
            rows, traces = _crossings(w), wires(w)
            for u in range(1, n + 2):
                assert sorted(rows[u][v] for v in range(1, n + 2) if v != u) == list(traces[u - 1])


def test_chains_share_one_row(words_of_rank):
    for w in words_of_rank(3):
        a_rows, d_rows = chains_from_wires(w)
        assert len(set(a_rows) & set(d_rows)) == 1


def test_chains_rows_unique_subsequences(words_of_rank):
    # no other increasing row set spells 1..n or n..1
    for n in (2, 3):
        target_up = tuple(range(1, n + 1))
        target_down = tuple(range(n, 0, -1))
        for w in words_of_rank(n):
            ups = [
                rows
                for rows in combinations(range(1, len(w.letters) + 1), n)
                if tuple(w.letters[r - 1] for r in rows) == target_up
            ]
            downs = [
                rows
                for rows in combinations(range(1, len(w.letters) + 1), n)
                if tuple(w.letters[r - 1] for r in rows) == target_down
            ]
            assert (ups, downs) == ([chains_from_wires(w)[0]], [chains_from_wires(w)[1]])


def test_chains_require_longest_element():
    with pytest.raises(DomainError):
        chains_from_wires(parse_word("1,2"))
    with pytest.raises(DomainError):
        chains_from_wires(Word(2, (1, 1)))
    # non-reduced words: of the length of w0, and longer ones evaluating to w0
    for letters in ((1, 1, 2), (2, 1, 1), (1, 2, 3, 3, 2, 1), (1, 1, 1, 2, 1)):
        w = Word(max(letters), letters)
        with pytest.raises(DomainError, match="not a reduced word of the longest element"):
            chains_from_wires(w)


def test_poset_of_wiring_matches_word_poset(words_of_rank):
    for n in (1, 2, 3):
        for w in words_of_rank(n):
            assert poset_of_wiring(w) == poset_of_word(w)


def test_render_ascii():
    assert render_ascii(parse_word("1")) == " X\n"
    picture = render_ascii(parse_word("1,2,1"))
    assert picture.count("X") == 3
    assert picture == render_ascii(parse_word("1,2,1"))


def test_render_dot():
    text = render_dot(parse_word("1,2,1"))
    assert text == render_dot(parse_word("1,2,1"))
    assert "subgraph row2" in text
    assert 'c2 [pos="2,-2!"]' in text


def test_bad_crossing_column():
    # the word is the diagram: a crossing column outside 1..n is a letter
    # out of range, refused by the word itself
    with pytest.raises(DomainError, match="letter 3 at position 1 out of range 1..2"):
        Word(2, (3,))
