from itertools import groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from gcwords.gc import (
    BudgetExceeded,
    classify_gc,
    default_budget,
    gc_direct,
    gc_poset_of_delta,
    gc_recurrence,
    gc_table,
    parse_partition,
    thrall_g,
)
from gcwords.indices import extend_A, extend_D, ind_A, ind_D
from gcwords.lattice import _ordinal_cuts
from gcwords.verify import (
    enumerate_gc_words,
    less,
    one_ideal_levels,
    shifted_poset,
    strict_partitions,
    syt_count_oracle,
)
from gcwords.word_poset import (
    WordPoset,
    count_linear_extensions,
    is_isomorphic,
    poset_of_word,
)
from gcwords.words import DomainError, is_reduced, parse_word

GC_TABLE = (1, 1, 2, 6, 40, 916, 102176, 68464624, 317175051664)


def test_classify_golden():
    assert classify_gc(poset_of_word(parse_word("1,2,1,3,2,1"))) == "DD"
    assert classify_gc(poset_of_word(parse_word("1,3,2,1,3,2"))) is None
    assert classify_gc(poset_of_word(parse_word("2,1,2"))) == "A"
    assert classify_gc(poset_of_word(parse_word("1,2,1"))) == "D"
    assert classify_gc(poset_of_word(parse_word("1"))) == ""


def test_gc_poset_of_delta_golden():
    assert is_isomorphic(
        gc_poset_of_delta("DD"), poset_of_word(parse_word("1,2,1,3,2,1"))
    )
    assert gc_poset_of_delta("").size == 1


@pytest.mark.parametrize("length", range(0, 6))
def test_classify_inverts_construction(length):
    for bits in product("AD", repeat=length):
        delta = "".join(bits)
        assert classify_gc(gc_poset_of_delta(delta)) == delta


def test_zero_vector_characterizes_gc(classes_of_rank):
    from gcwords.indices import full_profile

    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            delta = classify_gc(P)
            zeros = [
                d for d, vec in full_profile(P).items() if set(vec) == {0} or vec == ()
            ]
            if delta is None:
                assert zeros == []
            else:
                assert zeros == [delta]


@pytest.mark.parametrize("text", ["-3", "-1", "abc", "2.5", ""])
def test_default_budget_rejects_all_but_nonnegative_integers(monkeypatch, text):
    monkeypatch.setenv("GCWORDS_BUDGET", text)
    with pytest.raises(DomainError, match="^GCWORDS_BUDGET must be a nonnegative integer"):
        default_budget()


def test_default_budget_reads_the_environment(monkeypatch):
    monkeypatch.delenv("GCWORDS_BUDGET", raising=False)
    assert default_budget() == 5
    monkeypatch.setenv("GCWORDS_BUDGET", "0")
    assert default_budget() == 0


@pytest.mark.parametrize(
    "mu,count",
    [((3, 2, 1), 2), ((4, 3), 5), ((4, 3, 2, 1), 12), ((2, 1), 1), ((3, 2), 2)],
)
def test_thrall_golden(mu, count):
    assert thrall_g(mu) == count


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_thrall_single_row(n):
    assert thrall_g((n,)) == 1


def test_thrall_rejects_non_strict():
    with pytest.raises(DomainError):
        thrall_g((3, 3, 1))
    with pytest.raises(DomainError):
        thrall_g((0,))
    with pytest.raises(DomainError):
        parse_partition("2,3")


def test_shifted_poset_shape():
    Q = shifted_poset((3, 2, 1))
    assert Q.size == 6
    assert syt_count_oracle((3, 2, 1)) == 2
    assert syt_count_oracle((1,)) == 1
    assert syt_count_oracle((4, 3, 2, 1)) == 12


def test_formula_matches_oracle_small():
    for total in range(1, 10):
        for mu in strict_partitions(total):
            assert thrall_g(mu) == syt_count_oracle(mu), mu


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=11), st.randoms())
def test_formula_matches_oracle_random(total, rng):
    candidates = list(strict_partitions(total))
    mu = rng.choice(candidates)
    assert thrall_g(mu) == syt_count_oracle(mu)


def test_strict_partitions_of_six():
    assert list(strict_partitions(6)) == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_recurrence_golden():
    assert [gc_recurrence(n) for n in range(9)] == list(GC_TABLE)


def test_recurrence_terms_for_n4():
    # 40 = 12 + 12 + 10 + 6, largest strip first
    terms = [
        thrall_g(tuple(range(4, 4 - i, -1))) * gc_recurrence(4 - i)
        for i in range(4, 0, -1)
    ]
    assert terms == [12, 12, 10, 6]
    assert sum(terms) == gc_recurrence(4) == 40


def test_direct_golden_small():
    assert [gc_direct(n) for n in range(6)] == [1, 1, 2, 6, 40, 916]


def test_gc_direct_builds_and_counts_each_gc_poset(monkeypatch):
    # gc_direct reaches both layers through the gc module's names, once per
    # delta: the benchmark times each layer by wrapping those names
    import gcwords.gc as gc

    calls = {"gc_poset_of_delta": 0, "count_linear_extensions": 0}
    for name in calls:
        def counted(*args, _fn=getattr(gc, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(gc, name, counted)
    assert gc.gc_direct(6) == GC_TABLE[6]
    assert calls == {"gc_poset_of_delta": 32, "count_linear_extensions": 32}


def test_gc_direct_reads_each_gc_poset_off_its_word(monkeypatch):
    # every GC poset keeps the word it was spliced from, so counting reads
    # its needs off that word: no extension walk
    import gcwords.indices as indices
    import gcwords.word_poset as word_poset

    def refused(*args):
        raise AssertionError("gc_direct walked the poset instead of its word")

    monkeypatch.setattr(word_poset, "_extension", refused)
    monkeypatch.setattr(indices, "_extension", refused)
    assert gc_direct(7) == GC_TABLE[7]


def test_direct_equals_recurrence(classes_of_rank):
    for n in range(7):
        assert gc_direct(n) == gc_recurrence(n)


def test_gc_class_count(classes_of_rank):
    for n in (2, 3, 4):
        gc_classes = [P for P in classes_of_rank(n) if classify_gc(P) is not None]
        assert len(gc_classes) == 2 ** (n - 1)


def test_enumerate_gc_words():
    assert sorted(str(w) for w in enumerate_gc_words(2)) == ["1,2,1", "2,1,2"]
    assert [str(w) for w in enumerate_gc_words(1)] == ["1"]
    words3 = list(enumerate_gc_words(3))
    assert len(words3) == 6
    assert len(set(words3)) == 6
    for w in words3:
        assert is_reduced(w) and classify_gc(poset_of_word(w)) is not None


def test_enumerate_gc_words_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_gc_words(6))
    assert sum(1 for _ in enumerate_gc_words(6, budget=6)) == 102176


def _split(n):
    # the GC word count at rank n >= 2 split by which index vanishes at the
    # top rank, i.e. by the last letter of delta: (A, D)
    totals = {"A": 0, "D": 0}
    for letters in product("AD", repeat=n - 1):
        totals[letters[-1]] += count_linear_extensions(gc_poset_of_delta("".join(letters)))
    return totals["A"], totals["D"]


def test_gc_split():
    assert _split(2) == (1, 1)
    assert _split(3) == (3, 3)
    for n in range(2, 7):
        a, d = _split(n)
        assert a == d
        assert a + d == gc_recurrence(n)


def test_split_recurrence():
    # the one-sided recurrence, with ranks 0 and 1 contributing (0, 0) and
    # (1, 1): the rank-1 class has both indices zero, the empty rank none
    def split(n):
        if n == 0:
            return (0, 0)
        if n == 1:
            return (1, 1)
        return _split(n)

    for n in range(2, 7):
        a_n, d_n = split(n)
        assert a_n == sum(
            thrall_g(tuple(range(n, n - i, -1))) * split(n - i)[1]
            for i in range(1, n + 1)
        )
        assert d_n == sum(
            thrall_g(tuple(range(n, n - i, -1))) * split(n - i)[0]
            for i in range(1, n + 1)
        )


def test_gc_table_row():
    rows = gc_table(5)
    assert rows[5] == {
        "n": 5,
        "gc_recurrence": 916,
        "gc_direct": 916,
        "classes_gc": 16,
        "classes_total": 908,
    }
    over = gc_table(6, class_budget=5)
    assert over[6]["classes_total"] is None
    assert over[6]["gc_direct"] == 102176


def _build_stages(delta):
    stages = [WordPoset((1,), ())]
    for letter in delta:
        P = stages[-1]
        full = frozenset(range(1, P.size + 1))
        stages.append(extend_A(P, full) if letter == "A" else extend_D(P, full))
    return stages


def test_stagewise_chain_attachment():
    # the four ways the next chain hangs onto the previous top elements,
    # keyed by the last two letters
    for n in range(2, 7):
        for bits in product("AD", repeat=n - 1):
            delta = "".join(bits)
            stages = _build_stages(delta)
            for k in range(1, n):
                Pk, Pk1 = stages[k - 1], stages[k]
                s = Pk.size
                new = range(s + 1, Pk1.size + 1)
                assert {(x, y) for x, y in Pk1.covers if x <= s and y <= s} == set(
                    Pk.covers
                )
                assert {(s + i, s + i + 1) for i in range(1, len(new))} <= set(
                    Pk1.covers
                )
                cross = {(x, y) for x, y in Pk1.covers if (x <= s) != (y <= s)}
                # the largest element of each column, columns 1..k
                tops = tuple(chain[-1] for _, chain in sorted(Pk.column_chains.items()))
                here, prev = delta[k - 1], delta[k - 2] if k >= 2 else None
                if prev is None:
                    expected = {(1, s + 1)}
                elif here == "A" and prev == "A":
                    expected = {(tops[i - 1], s + i) for i in range(1, k + 1)}
                elif here == "A" and prev == "D":
                    expected = {(tops[0], s + 1)}
                elif here == "D" and prev == "A":
                    expected = {(tops[k - 1], s + 1)}
                else:
                    expected = {(tops[i - 1], s + k + 1 - i) for i in range(1, k + 1)}
                assert cross == expected, (delta, k)


def _plain_isomorphic(P, Q) -> bool:
    # backtracking poset isomorphism ignoring columns; fine at these sizes
    if P.size != Q.size:
        return False

    def signature(R, k):
        elements = range(1, R.size + 1)
        return (
            sum(less(R, j, k) for j in elements),
            sum(less(R, k, j) for j in elements),
            sum(y == k for _, y in R.covers),
            sum(x == k for x, _ in R.covers),
        )

    p_sigs = {k: signature(P, k) for k in range(1, P.size + 1)}
    q_by_sig = {}
    for k in range(1, Q.size + 1):
        q_by_sig.setdefault(signature(Q, k), []).append(k)
    # by the number of elements below
    order = sorted(range(1, P.size + 1), key=lambda k: p_sigs[k][0])
    assignment = {}
    used = set()

    def backtrack(idx):
        if idx == len(order):
            return True
        x = order[idx]
        for y in q_by_sig.get(p_sigs[x], []):
            if y in used:
                continue
            ok = all(
                less(P, prev, x) == less(Q, assignment[prev], y)
                and less(P, x, prev) == less(Q, y, assignment[prev])
                for prev in assignment
            )
            if ok:
                assignment[x] = y
                used.add(y)
                if backtrack(idx + 1):
                    return True
                used.remove(y)
                del assignment[x]
        return False

    return backtrack(0)


def test_staircase_strip_decomposition():
    # a trailing A-run of length i puts a shifted staircase strip on top of
    # the smaller poset, and everything below it; the strip hangs with its
    # long chain uppermost, i.e. it is the order reversal of the shifted
    # diagram poset (same extension count)
    for n in range(2, 7):
        for bits in product("AD", repeat=n - 1):
            delta = "".join(bits)
            run = 0
            for ch in reversed(delta):
                if ch != "A":
                    break
                run += 1
            if run == 0:
                continue
            stages = _build_stages(delta)
            P = stages[-1]
            bottom = stages[n - 1 - run]
            top = list(range(bottom.size + 1, P.size + 1))
            for t in top:
                for b in range(1, bottom.size + 1):
                    assert less(P, b, t)
            relabel = {t: j for j, t in enumerate(top, start=1)}
            cols = tuple(P.columns[t - 1] for t in top)
            shift = min(cols) - 1
            T = WordPoset(
                tuple(c - shift for c in cols),
                tuple(
                    (relabel[x], relabel[y])
                    for x, y in P.covers
                    if x in relabel and y in relabel
                ),
            )
            mu = tuple(range(n, n - run, -1))
            reversed_strip = WordPoset(T.columns, tuple((y, x) for x, y in T.covers))
            assert _plain_isomorphic(reversed_strip, shifted_poset(mu)), (delta, mu)
            assert count_linear_extensions(T) == thrall_g(mu)
            assert count_linear_extensions(P) == count_linear_extensions(
                bottom
            ) * count_linear_extensions(T)


def test_gc_posets_split_at_their_runs():
    # the recurrence's product law as each GC poset's shape, rank <= 9: the
    # word cuts at the end of each run's strip, n + (n-1) + ... + (n-L+1)
    # elements for a run of length L at rank n, top run last; inside a
    # strip, where the dual of the shifted diagram of (n, ..., n-L+1) does
    shapes = {}
    for n in range(1, 10):
        for letters in product("AD", repeat=n - 1):
            delta = "".join(letters)
            P = gc_poset_of_delta(delta)
            mus, rank = [], n
            for _, run in groupby(reversed(delta)):
                length = len(list(run))
                mus.append(tuple(range(rank, rank - length, -1)))
                rank -= length
            mus.append((1,))
            mus.reverse()
            cuts, start = [], 0
            for mu in mus:
                if mu not in shapes:
                    size = sum(mu)
                    shapes[mu] = sorted(size - k for k in one_ideal_levels(shifted_poset(mu)))
                cuts += [start + k for k in shapes[mu]]
                start += sum(mu)
                cuts.append(start)  # the strip's end
            assert start == P.size
            assert _ordinal_cuts(P._word.letters) == one_ideal_levels(P) == cuts[:-1]


def test_ind_of_construction_matches_last_letter():
    for bits in product("AD", repeat=3):
        delta = "".join(bits)
        P = gc_poset_of_delta(delta)
        if delta[-1] == "A":
            assert ind_A(P) == 0 and ind_D(P) != 0
        else:
            assert ind_D(P) == 0 and ind_A(P) != 0
