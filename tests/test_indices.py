import inspect
import random
from collections import Counter
from itertools import combinations, islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from gcwords import gc, indices, wiring, word_poset
from gcwords.gc import classify_gc
from gcwords.indices import (
    ascending_chain,
    contract_A,
    contract_A_with_map,
    contract_D,
    contract_D_with_map,
    contraction_ideal_A,
    contraction_ideal_D,
    delta_index,
    descending_chain,
    extend_A,
    extend_D,
    full_profile,
    ind_A,
    ind_D,
    validate_delta,
)
from gcwords.word_poset import (
    WordPoset,
    _canonical_poset_of_word,
    canonical_form,
    enumerate_commutation_classes,
    is_isomorphic,
    lexmin_word,
    poset_of_word,
    word_of_extension,
)
from gcwords.verify import (
    _down_masks,
    _flipped,
    _indices,
    _stage,
    _unique_chain,
    ideals,
    is_ideal,
    less,
    suffix_tree_profile,
)
from gcwords.words import DomainError, Word, _splice, longest_element, parse_word, standard_word

P_STANDARD = poset_of_word(parse_word("1,2,1,3,2,1"))
P_OTHER = poset_of_word(parse_word("1,3,2,1,3,2"))
W15 = parse_word("4,3,4,2,3,4,1,2,5,4,3,2,1,4,5")


def test_chains_golden():
    assert descending_chain(P_STANDARD) == (4, 5, 6)
    assert ascending_chain(P_STANDARD) == (1, 2, 4)
    assert descending_chain(P_OTHER) == (2, 3, 4)
    assert ascending_chain(P_OTHER) == (1, 3, 5)
    single = poset_of_word(parse_word("1"))
    assert descending_chain(single) == ascending_chain(single) == (1,)


def test_chain_columns(classes_of_rank):
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            D = descending_chain(P)
            A = ascending_chain(P)
            assert tuple(P.columns[d - 1] for d in D) == tuple(range(n, 0, -1))
            assert tuple(P.columns[a - 1] for a in A) == tuple(range(1, n + 1))
            assert len(set(A) & set(D)) == 1


def test_chains_reject_foreign_posets():
    with pytest.raises(DomainError):
        descending_chain(WordPoset((1, 2), ((1, 2),)))


def random_w0_word(n, rng):
    """A reduced word of the longest element of S_{n+1}, peeling a randomly
    chosen left descent off the remaining permutation at each step."""
    p = list(longest_element(n + 1))
    letters = []
    while True:
        where = {value: index for index, value in enumerate(p)}
        descents = [i for i in range(1, n + 1) if where[i] > where[i + 1]]
        if not descents:
            return Word(n, tuple(letters))
        i = rng.choice(descents)
        letters.append(i)
        p[where[i]], p[where[i + 1]] = i + 1, i


def sampled_words(n, count, seed):
    rng = random.Random(seed)
    return [random_w0_word(n, rng) for _ in range(count)]


def test_chains_agree_with_wiring_rows(words_of_rank):
    # the production chains are wiring rows mapped back to elements; the
    # column-chain search of the verify oracle knows nothing of wires
    samples = [w for n in (2, 3, 4) for w in words_of_rank(n)]
    samples += sampled_words(5, 300, seed=5) + sampled_words(6, 150, seed=6)
    for w in samples:
        P = poset_of_word(w)
        assert ascending_chain(P) == _unique_chain(P, "A")
        assert descending_chain(P) == _unique_chain(P, "D")


def test_indices_match_the_column_count_oracle(words_of_rank):
    # the crossing-table count against the paper's definition: the later
    # rows that repeat the letter of a chain row
    for n in range(1, 5):
        for w in words_of_rank(n):
            P = poset_of_word(w)
            stage = _stage(w)
            assert (ind_A(P), ind_D(P)) == (stage["A"][1], stage["D"][1])


def test_ind_golden():
    assert (ind_A(P_STANDARD), ind_D(P_STANDARD)) == (3, 0)
    assert (ind_A(P_OTHER), ind_D(P_OTHER)) == (2, 2)
    assert ind_A(poset_of_word(parse_word("2,1,2"))) == 0
    assert ind_A(poset_of_word(parse_word("1,2,1"))) == 1
    assert (ind_A(poset_of_word(W15)), ind_D(poset_of_word(W15))) == (2, 2)


def test_contraction_ideals():
    assert contraction_ideal_D(P_STANDARD) == frozenset({1, 2, 3})
    assert contraction_ideal_A(poset_of_word(parse_word("2,1,2"))) == frozenset({1})
    assert contraction_ideal_D(poset_of_word(parse_word("1"))) == frozenset()


def test_contract_golden():
    assert is_isomorphic(contract_D(P_STANDARD), poset_of_word(parse_word("1,2,1")))
    assert is_isomorphic(
        contract_A(poset_of_word(parse_word("2,1,2"))), poset_of_word(parse_word("1"))
    )


def _relabeled(columns, covers):
    return canonical_form(WordPoset(tuple(columns), tuple(covers)))


def test_contract_15_letter_figures():
    # both 10-element contractions of the 15-letter word, frozen as diagrams
    P = poset_of_word(W15)
    expected_cd = _relabeled(
        # elements 1..8, 14, 15 of the original, in that order
        (4, 3, 4, 2, 3, 4, 1, 2, 3, 4),
        [
            (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10),
            (2, 4), (4, 7), (3, 5), (5, 8), (6, 9),
        ],
    )
    assert contract_D(P) == expected_cd
    expected_ca = _relabeled(
        # elements 1..6, 9, 10, 12, 13 of the original, in that order
        (3, 2, 3, 1, 2, 3, 4, 3, 2, 1),
        [
            (1, 2), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
            (2, 4), (4, 5),
        ],
    )
    assert contract_A(P) == expected_ca


def test_contract_severs_relations_through_the_chain():
    # elements related only through the removed chain become incomparable;
    # restricting the order of P would keep a spurious relation here
    P = poset_of_word(parse_word("3,2,1,2,3,4,3,2,3,1"))
    Q, relabel = contract_A_with_map(P)
    x, y = relabel[2], relabel[7]
    assert not less(Q, x, y) and not less(Q, y, x)


def test_extend_golden():
    chain121 = poset_of_word(parse_word("1,2,1"))
    full = frozenset(range(1, 4))
    assert is_isomorphic(extend_D(chain121, full), P_STANDARD)
    singleton = poset_of_word(parse_word("1"))
    assert is_isomorphic(
        extend_A(singleton, frozenset({1})), poset_of_word(parse_word("2,1,2"))
    )


def test_extend_rejects_non_ideal(classes_of_rank):
    P = P_STANDARD
    with pytest.raises(DomainError, match="not an ideal"):
        extend_D(P, frozenset({2}))  # misses 1 below it
    for n in (1, 2, 3):
        for P in classes_of_rank(n):
            for r in range(P.size + 1):
                for subset in map(frozenset, combinations(range(1, P.size + 1), r)):
                    if not is_ideal(P, subset):
                        with pytest.raises(DomainError, match="not an ideal"):
                            extend_D(P, subset)


def test_extend_rejects_non_w0_poset():
    P = poset_of_word(parse_word("1,3"))
    for extend in (extend_D, extend_A):
        with pytest.raises(DomainError):
            extend(P, frozenset())


@pytest.mark.parametrize("text", ["1,2", "2,1", "1,3,2,1,3", "3,2,1,2,3"])
def test_full_profile_rejects_non_w0_words(text):
    # reduced words of other permutations; the first stage is the w0 check
    P = poset_of_word(parse_word(text))
    for profile in (full_profile, suffix_tree_profile):
        with pytest.raises(DomainError, match="not a reduced word of the longest element"):
            profile(P)


def test_hand_built_non_word_poset_rejected():
    # right size, every column a chain and every column used, yet the
    # poset of no word: each word-level route must refuse it rather than
    # answer for the word it reads off
    assert (2, 4) in P_STANDARD.covers
    Q = WordPoset(P_STANDARD.columns, tuple(c for c in P_STANDARD.covers if c != (2, 4)))
    for call in (
        lambda: extend_D(Q, frozenset()),
        lambda: extend_A(Q, frozenset()),
        lambda: full_profile(Q),
        lambda: ind_A(Q),
        lambda: classify_gc(Q),
        lambda: canonical_form(Q),
        lambda: word_poset.count_linear_extensions(Q),
        lambda: Q.column_chains,
    ):
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(DomainError, match="not the word poset"):
                call()


def test_contraction_inverts_extension(classes_of_rank):
    # every class at ranks 1-4, every ideal, both kinds
    for n in (1, 2, 3, 4):
        for P in classes_of_rank(n):
            for ideal in ideals(P):
                for extend, contract, contraction_ideal in (
                    (extend_D, contract_D, contraction_ideal_D),
                    (extend_A, contract_A, contraction_ideal_A),
                ):
                    E = extend(P, ideal)
                    assert canonical_form(contract(E)) == P
                    assert len(contraction_ideal(E)) == len(ideal)


def test_extension_inverts_contraction(classes_of_rank):
    for n in (1, 2, 3, 4):
        for P in classes_of_rank(n):
            Q, m = contract_D_with_map(P)
            ideal = frozenset(m[k] for k in contraction_ideal_D(P))
            assert is_isomorphic(extend_D(Q, ideal), P)
            Q, m = contract_A_with_map(P)
            ideal = frozenset(m[k] for k in contraction_ideal_A(P))
            assert is_isomorphic(extend_A(Q, ideal), P)


def test_chains_restrict_to_contraction_chains(classes_of_rank):
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            Q, m = contract_D_with_map(P)
            restricted = tuple(m[a] for a in ascending_chain(P) if a in m)
            assert restricted == ascending_chain(Q)
            Q, m = contract_A_with_map(P)
            restricted = tuple(m[d] for d in descending_chain(P) if d in m)
            assert restricted == descending_chain(Q)


def test_delta_index_examples():
    assert delta_index(poset_of_word(W15), "AAAA") == (1, 2, 3, 2)
    assert delta_index(P_STANDARD, "DD") == (0, 0)
    assert delta_index(poset_of_word(parse_word("1")), "") == ()


def test_delta_index_validation():
    with pytest.raises(DomainError):
        delta_index(P_STANDARD, "D")
    with pytest.raises(DomainError):
        delta_index(P_STANDARD, "DX")
    with pytest.raises(DomainError):
        validate_delta("AB")


def test_full_profile_shapes():
    prof = full_profile(P_STANDARD)
    assert set(prof) == {"AA", "AD", "DA", "DD"}
    assert prof["DD"] == (0, 0)
    assert prof["AA"] == delta_index(P_STANDARD, "AA")
    # ranks 1 and 2 gather zero and one position: a bare itemgetter would
    # fail on none and return a bare int on one
    assert full_profile(poset_of_word(parse_word("1"))) == {"": ()}
    for text, profile in (("1,2,1", {"A": (1,), "D": (0,)}), ("2,1,2", {"A": (0,), "D": (1,)})):
        got = full_profile(poset_of_word(parse_word(text)))
        assert list(got.items()) == list(profile.items())
        assert all(type(vector) is tuple for vector in got.values())
    with pytest.raises(DomainError, match="rank >= 1"):
        full_profile(poset_of_word(Word(0, ())))


def assert_stage_table_matches_single_stages(rows):
    # the running sums against the pair test of each stage on its own
    width = len(rows)
    table = wiring._stage_table(rows)
    assert len(table) == 2 * width * width
    for lo in range(1, width):
        for hi in range(lo + 1, width):
            at = wiring._at(width, lo, hi)
            assert tuple(table[at : at + 2]) == _indices(rows, lo, hi), (lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stage_table_matches_single_stages_on_every_class(classes_of_rank, n):
    for P in classes_of_rank(n):
        assert_stage_table_matches_single_stages(P._crossing_table)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=6, max_value=8), seed=st.integers(min_value=0, max_value=2**32))
@example(n=8, seed=0)
@example(n=8, seed=1)
@example(n=8, seed=2)
def test_stage_table_matches_single_stages_on_random_words(n, seed):
    assert_stage_table_matches_single_stages(wiring._crossings(random_w0_word(n, random.Random(seed))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_class_tree_seeds_the_stage_table_of_the_class_word(n):
    # fresh posets, every class to rank 5 and the first 2,000 of rank 7:
    # the enumeration seeds the stage table and builds no crossing table
    for P in islice(enumerate_commutation_classes(n), 2000):
        assert "_stage_table" in vars(P) and "_crossing_table" not in vars(P)
        assert vars(P)["_stage_table"] == wiring._stage_table(wiring._crossings(P._word))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32),
       cut=st.floats(min_value=0, max_value=1))
def test_extended_stage_table_is_the_table_of_the_splice(n, seed, cut):
    # a D-extension over the prefix ideal of any word of the rank below
    v = random_w0_word(n - 1, random.Random(seed)).letters
    k = round(cut * len(v))
    table = wiring._stage_table(wiring._crossings(Word(n - 1, v)))
    spliced = Word(n, _splice(v[:k], v[k:], n - 1, "D"))
    assert wiring._extended_stage_table(table, v[:k], n) == wiring._stage_table(wiring._crossings(spliced))


@pytest.mark.parametrize("n", range(2, 9))
def test_delta_positions_are_the_stages_of_three_or_more_wires(n):
    # both entries of every stage of three or more wires are an entry of
    # some delta's vector and no other entry is: the half of "a profile
    # determines its stage table" that a check of injectivity down the
    # class tree relies on
    positions = {p for letters in product("AD", repeat=n - 1)
                 for p in indices._delta_positions(n, "".join(letters))}
    assert positions == {wiring._at(n + 2, lo, hi) + entry
                         for lo in range(1, n) for hi in range(lo + 2, n + 2) for entry in (0, 1)}


def test_profile_plan_is_built_once_per_rank():
    indices._profile_plan.cache_clear()
    profiles = [[full_profile(poset_of_word(random_w0_word(n, random.Random(seed))))
                 for seed in range(5)] for n in (4, 5)]
    info = indices._profile_plan.cache_info()
    assert (info.misses, info.hits) == (2, 8)
    # every profile of a rank shares its key strings with the plan
    for first, *later in profiles:
        for profile in later:
            assert all(a is b for a, b in zip(first, profile))


def test_full_profile_matches_delta_index(classes_of_rank):
    for P in classes_of_rank(3):
        prof = full_profile(P)
        for bits in product("AD", repeat=2):
            delta = "".join(bits)
            assert prof[delta] == delta_index(P, delta)


def test_collision_pair():
    Pi = poset_of_word(parse_word("3,2,1,2,3,4,3,2,3,1"))
    Pj = poset_of_word(parse_word("1,3,2,1,4,3,4,2,3,1"))
    for d1, d2 in product("AD", repeat=2):
        delta = d1 + d2 + "A"
        assert delta_index(Pi, delta) == delta_index(Pj, delta)
    assert (ind_D(Pi), ind_D(Pj)) == (1, 2)
    assert full_profile(Pi) != full_profile(Pj)
    assert not is_isomorphic(Pi, Pj)


def test_profiles_constant_on_classes_and_distinct(words_of_rank):
    for n in (2, 3):
        seen = {}
        for w in words_of_rank(n):
            P = poset_of_word(w)
            key = canonical_form(P)
            prof = tuple(sorted(full_profile(P).items()))
            assert seen.setdefault(key, prof) == prof
        profiles = list(seen.values())
        assert len(set(profiles)) == len(profiles)


def test_column_flip_swaps_indices(classes_of_rank):
    # the letter flip i -> n+1-i exchanges wires 1 and n+1, hence the two
    # chains and the two indices; flipping twice gives the class back
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            F = poset_of_word(_flipped(lexmin_word(P)))
            assert ind_A(F) == ind_D(P)
            assert ind_D(F) == ind_A(P)
            assert canonical_form(poset_of_word(_flipped(lexmin_word(F)))) == P


def test_rank_zero_routes_raise_one_domain_error():
    # the empty poset, the class of the empty word, has no chain to
    # contract and no delta
    empty = WordPoset((), ())
    for what, call in (
        ("a delta-index", lambda: delta_index(empty, "")),
        ("a contraction", lambda: contract_D(empty)),
        ("a contraction", lambda: contract_A(empty)),
        ("a contraction", lambda: contract_D_with_map(empty)),
        ("a contraction", lambda: contract_A_with_map(empty)),
        ("a delta-profile", lambda: full_profile(empty)),
        ("a classification", lambda: classify_gc(empty)),
    ):
        with pytest.raises(DomainError, match=f"^{what} needs rank >= 1$"):
            call()


def test_at_most_one_zero_index(classes_of_rank):
    for n in (2, 3, 4):
        for P in classes_of_rank(n):
            assert not (ind_A(P) == 0 and ind_D(P) == 0)


def stagewise_delta_index(P, delta):
    # compose the public single-stage calls, last letter of delta first
    out = []
    for k in range(len(delta), 0, -1):
        kind = delta[k - 1]
        out.append(ind_A(P) if kind == "A" else ind_D(P))
        if k > 1:
            P = contract_A(P) if kind == "A" else contract_D(P)
    return tuple(reversed(out))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=2**32))
def test_full_profile_and_classify_match_single_stage_calls(n, seed):
    P = poset_of_word(random_w0_word(n, random.Random(seed)))
    profile = full_profile(P)
    deltas = ["".join(letters) for letters in product("AD", repeat=n - 1)]
    assert sorted(profile) == deltas
    for delta in deltas:
        assert profile[delta] == stagewise_delta_index(P, delta)
    zero = [delta for delta in deltas if not any(profile[delta])]
    assert len(zero) <= 1
    assert classify_gc(P) == (zero[0] if zero else None)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=2**32))
def test_full_profile_matches_the_suffix_tree_oracle(n, seed):
    P = poset_of_word(random_w0_word(n, random.Random(seed)))
    profile = full_profile(P)
    assert list(profile.items()) == list(suffix_tree_profile(P).items())
    for delta, vector in profile.items():
        assert delta_index(P, delta) == vector


def random_extension(P, rng):
    """A linear extension of P, adding a randomly chosen minimal element of
    the rest at each step."""
    down = _down_masks(P)
    order = []
    while len(order) < P.size:
        ready = [
            k
            for k in range(1, P.size + 1)
            if k not in order
            and all(j in order for j in range(1, P.size + 1) if down[k - 1] >> (j - 1) & 1)
        ]
        order.append(rng.choice(ready))
    return tuple(order)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=2, max_value=7), seed=st.integers(min_value=0, max_value=2**32))
def test_word_walks_read_any_word_of_the_class(n, seed):
    # P keeps the word of its canonical labels and Q another word of the
    # class; the stage table of each word must give the same answers
    rng = random.Random(seed)
    P = canonical_form(poset_of_word(random_w0_word(n, rng)))
    Q = poset_of_word(word_of_extension(P, random_extension(P, rng)))
    delta = "".join(rng.choice("AD") for _ in range(n - 1))
    for route in (full_profile, classify_gc, ind_A, ind_D, lambda R: delta_index(R, delta)):
        assert route(Q) == route(P)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the extension walker, of poset_of_word, of the
    crossing table, of the stage table, of its extension by the class tree
    and of the contraction, under every name the package reaches them by."""
    counter = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name, real in (
        ("_extension", word_poset._extension),
        ("poset_of_word", word_poset.poset_of_word),
        ("_crossings", wiring._crossings),
        ("_stage_table", wiring._stage_table),
        ("_extended_stage_table", wiring._extended_stage_table),
        ("_contract", indices._contract),
    ):
        wrapper = counting(name, real)
        for module in (word_poset, wiring, indices, gc):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return counter


# a poset built from a word reads that word: no walk of its covers, no
# second poset, one crossing table and one stage table, no contracted word
WORD_TRACE = Counter(_extension=0, poset_of_word=0, _crossings=1, _stage_table=1,
                     _contract=0)
# a copy walks its covers once for its lexmin word, checked against a
# second poset
ONE_TRACE = Counter(_extension=1, poset_of_word=1, _crossings=1, _stage_table=1,
                    _contract=0)


def copy_of(P):
    return WordPoset(P.columns, P.covers)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_profile_stages_each_poset_once(calls, seed):
    n = 5
    P = poset_of_word(random_w0_word(n, random.Random(seed)))
    full_profile(P)
    assert calls == WORD_TRACE


@pytest.mark.parametrize("delta", ["AAAA", "ADDA", "DDDD"])
def test_delta_index_builds_one_poset(calls, delta):
    n = 5
    delta_index(poset_of_word(random_w0_word(n, random.Random(4))), delta)
    assert calls == WORD_TRACE


def test_public_calls_share_one_entry_check(calls):
    # a poset built from a word needs no entry check; a copy checks its
    # lexmin word once and caches it, so later calls skip the check.  Each
    # poset builds one crossing table, which the chains read, and one stage
    # table, which the five index routes read, full_profile twice included.
    P = poset_of_word(random_w0_word(5, random.Random(5)))
    for Q, checks, tables in ((P, 0, 1), (copy_of(P), 1, 2)):
        classify_gc(Q)
        full_profile(Q)
        full_profile(Q)
        delta_index(Q, "ADDA")
        ind_A(Q)
        ind_D(Q)
        ascending_chain(Q)
        assert calls["_extension"] == calls["poset_of_word"] == checks
        assert calls["_crossings"] == calls["_stage_table"] == tables


@pytest.mark.parametrize("contract", [contract_A_with_map, contract_D_with_map],
                         ids=["A", "D"])
def test_contractions_skip_the_check_on_word_posets(calls, contract):
    # the recorded word proves P a word poset: the contraction applies the
    # letter rule to that word, with no lexmin word and no second poset
    contract(poset_of_word(standard_word(5)))
    assert calls == Counter(_extension=0, poset_of_word=0, _crossings=1, _stage_table=0,
                            _contract=1)


def test_contractions_of_a_copy_read_its_one_crossing_table(calls):
    # a copy reads its lexmin word, checked once against a second poset;
    # both contractions and the profile then read that word and share the
    # copy's one crossing table
    P = copy_of(poset_of_word(random_w0_word(5, random.Random(7))))
    contract_A(P)
    contract_D(P)
    full_profile(P)
    assert calls == Counter(_extension=1, poset_of_word=1, _crossings=1, _stage_table=1,
                            _contract=2)


def test_class_posets_read_the_tables_the_tree_seeded(calls):
    # classifying and profiling every rank-4 class builds no crossing or
    # stage table; the tree extends one table per class of ranks 1..4, each
    # parent's once for all its children
    for P in enumerate_commutation_classes(4):
        classify_gc(P)
        full_profile(P)
    assert calls["_crossings"] == calls["_stage_table"] == 0
    assert calls["_extended_stage_table"] == 1 + 2 + 8 + 62


@pytest.mark.parametrize("n", [1, 4, 6])
def test_count_commutation_classes_builds_no_table(calls, n):
    assert word_poset.count_commutation_classes(n) == {1: 1, 4: 62, 6: 24698}[n]
    assert calls["_extended_stage_table"] == calls["_crossings"] == calls["_stage_table"] == 0


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_classify_gc_stages_each_poset_once(calls, seed):
    n = 5
    w = standard_word(n) if seed is None else random_w0_word(n, random.Random(seed))
    classify_gc(poset_of_word(w))
    assert calls == WORD_TRACE


@pytest.mark.parametrize(
    "route",
    [full_profile, classify_gc, lambda P: delta_index(P, "ADDA")],
    ids=["full_profile", "classify_gc", "delta_index"],
)
@pytest.mark.parametrize("build", [poset_of_word, lambda w: _canonical_poset_of_word(w.letters)],
                         ids=["poset_of_word", "canonical"])
def test_copies_check_their_lexmin_word_once(calls, route, build):
    P = build(random_w0_word(5, random.Random(6)))
    route(P)
    assert calls == WORD_TRACE
    calls.clear()
    route(copy_of(P))
    assert calls == ONE_TRACE


@pytest.mark.parametrize("kind", ["A", "D"])
@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=2, max_value=7), seed=st.integers(min_value=0, max_value=2**32))
def test_contractions_apply_the_letter_rule_on_any_word_of_the_class(kind, n, seed):
    # the posets of two words of one class, the canonical poset and a copy
    # contract to one canonical poset, each kept element to the same new
    # element; a kept element moves down a column exactly when (it lies in
    # the contraction ideal) == (kind is A)
    contract, ideal_of, chain_of = {
        "A": (contract_A_with_map, contraction_ideal_A, ascending_chain),
        "D": (contract_D_with_map, contraction_ideal_D, descending_chain),
    }[kind]
    rng = random.Random(seed)
    w = random_w0_word(n, rng)
    P = poset_of_word(w)
    extension = random_extension(P, rng)
    canonical = _canonical_poset_of_word(w.letters)
    # element r of each poset is element same[r-1] of P
    for R, same in (
        (P, range(1, P.size + 1)),
        (poset_of_word(word_of_extension(P, extension)), extension),
        (canonical, [canonical._labels.index(k) + 1 for k in range(1, P.size + 1)]),
        (copy_of(P), range(1, P.size + 1)),
    ):
        Q, m = contract(R)
        if R is P:
            expected_Q, expected_m = Q, m
            assert Q == canonical_form(Q)
        assert Q == expected_Q
        assert list(m) == sorted(m)
        assert set(m) == set(range(1, R.size + 1)) - set(chain_of(R))
        assert {same[r - 1]: new for r, new in m.items()} == expected_m
        ideal = ideal_of(R)
        for k, new in m.items():
            assert Q.columns[new - 1] == R.columns[k - 1] - ((k in ideal) == (kind == "A"))


def test_recorded_posets_answer_without_walking_their_covers(monkeypatch):
    # a poset built from a word answers every route below off that word, so
    # none of them walks its covers for a linear extension
    def refused(*args, **kwargs):
        raise AssertionError("walked the covers of a poset built from a word")

    monkeypatch.setattr(word_poset, "_extension", refused)
    monkeypatch.setattr(indices, "_extension", refused)
    rng = random.Random(11)
    recorded = [poset_of_word(random_w0_word(n, rng)) for n in range(1, 7)]
    recorded += enumerate_commutation_classes(4)
    recorded += [gc.gc_poset_of_delta("".join(d))
                 for n in range(1, 7) for d in product("AD", repeat=n - 1)]
    for P in recorded:
        classify_gc(P)
        full_profile(P)
        for delta in product("AD", repeat=P.rank - 1):
            delta_index(P, "".join(delta))
        for route in (ind_A, ind_D, ascending_chain, descending_chain,
                      contraction_ideal_A, contraction_ideal_D, contract_A, contract_D,
                      contract_A_with_map, contract_D_with_map,
                      word_poset.count_linear_extensions, canonical_form,
                      lexmin_word, word_poset.render_dot):
            route(P)


def route_answers(P):
    """Every public route on P, in a form that compares literally: dict
    order, contracted columns and covers, and the relabeling in order."""
    n = P.rank
    answers = {
        "classify_gc": classify_gc(P),
        "full_profile": list(full_profile(P).items()),
        "delta_index": [delta_index(P, "".join(d)) for d in product("AD", repeat=n - 1)],
        "ind": (ind_A(P), ind_D(P)),
        "chains": (ascending_chain(P), descending_chain(P)),
        "ideals": (contraction_ideal_A(P), contraction_ideal_D(P)),
        "count_linear_extensions": word_poset.count_linear_extensions(P),
    }
    for kind, contract in (("A", contract_A_with_map), ("D", contract_D_with_map)):
        Q, m = contract(P)
        answers["contract_" + kind] = (Q.columns, Q.covers, list(m.items()))
    if n <= 3:
        answers["extend"] = [
            (E.columns, E.covers)
            for ideal in ideals(P)
            for E in (extend_A(P, ideal), extend_D(P, ideal))
        ]
    return answers


def assert_routes_match_a_cold_copy(P):
    cold = copy_of(P)
    assert vars(cold) == {"columns": P.columns, "covers": P.covers}
    assert P == cold and hash(P) == hash(cold) and repr(P) == repr(cold)
    assert route_answers(P) == route_answers(cold)


def test_word_poset_signature_is_columns_and_covers():
    assert list(inspect.signature(WordPoset).parameters) == ["columns", "covers"]
    assert repr(poset_of_word(standard_word(2))) == (
        "WordPoset(columns=(1, 2, 1), covers=((1, 2), (2, 3)))")


def test_recorded_posets_compare_and_hash_by_columns_and_covers():
    # two recorded posets of one class, read off different words, and a
    # public copy are one poset: equality and hashing ignore the reading
    rng = random.Random(9)
    w = random_w0_word(5, rng)
    walked = _canonical_poset_of_word(w.letters)
    v = next(v for v in iter(lambda: word_of_extension(walked, random_extension(walked, rng)), None)
             if v != w)
    P, Q = (_canonical_poset_of_word(u.letters) for u in (w, v))
    copy = copy_of(walked)
    assert P._word != Q._word
    assert hash(P) == hash(copy) == hash(Q)
    assert P == copy == Q
    assert len({P, Q, copy}) == 1
    assert repr(P) == repr(Q) == repr(copy)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recorded_classes_answer_as_cold_copies(classes_of_rank, n):
    for P in classes_of_rank(n):
        assert_routes_match_a_cold_copy(P)


@pytest.mark.parametrize("n", range(1, 8))
def test_recorded_gc_posets_answer_as_cold_copies(n):
    for letters in product("AD", repeat=n - 1):
        assert_routes_match_a_cold_copy(gc.gc_poset_of_delta("".join(letters)))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=2**32))
def test_recorded_words_answer_as_cold_copies(n, seed):
    w = random_w0_word(n, random.Random(seed))
    assert_routes_match_a_cold_copy(poset_of_word(w))
    assert_routes_match_a_cold_copy(_canonical_poset_of_word(w.letters))
