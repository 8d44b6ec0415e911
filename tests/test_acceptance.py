"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The heavyweight item is criterion 2 (all 292,864 reduced
words at rank 5), which stays within its five-minute budget.
"""

from itertools import product

from gcwords.gc import classify_gc, gc_direct, gc_recurrence, thrall_g
from gcwords.indices import delta_index, ind_A, ind_D
from gcwords.verify import (
    GC_TABLE,
    check_class_poset_equivalence,
    check_contraction_laws,
    check_injectivity_theorem,
    check_table1,
    check_tits_connectivity,
    count_gc_words_brute,
    strict_partitions,
    syt_count_oracle,
)
from gcwords.word_poset import poset_of_word
from gcwords.words import parse_word


def report(line):
    print(f"\n{line}")


def test_criterion_1_table_reproduction():
    # gc(0..8) by both routes, exact
    expected = (1, 1, 2, 6, 40, 916, 102176, 68464624, 317175051664)
    recurrence = tuple(gc_recurrence(n) for n in range(9))
    direct = tuple(gc_direct(n) for n in range(9))
    assert recurrence == expected
    assert direct == expected
    report("PASS criterion 1: gc(0..8) recurrence and direct routes match the table")


def test_criterion_2_brute_force_gc_count():
    # classify every reduced word of the longest element, n <= 5
    for n in range(1, 6):
        assert count_gc_words_brute(n) == GC_TABLE[n], n
    report("PASS criterion 2: word-by-word filter gives gc(n) for n <= 5 "
           "(916 of 292,864 words at n = 5)")


def test_criterion_3_and_4_class_counts(classes_of_rank):
    expected_total = {2: 2, 3: 8, 4: 62, 5: 908}
    expected_gc = {2: 2, 3: 4, 4: 8, 5: 16}
    for n in range(2, 6):
        classes = classes_of_rank(n)
        assert len(classes) == expected_total[n], n
        gc_count = sum(1 for P in classes if classify_gc(P) is not None)
        assert gc_count == expected_gc[n] == 2 ** (n - 1), n
    report("PASS criterion 3: 2, 8, 62, 908 commutation classes for n = 2..5")
    report("PASS criterion 4: exactly 2^(n-1) GC classes for n = 2..5")


def test_criterion_5_injectivity():
    for n in (2, 3, 4):
        result = check_injectivity_theorem(n)
        assert result.passed, result.counterexample
    # the known collision pair, replayed verbatim
    Pi = poset_of_word(parse_word("3,2,1,2,3,4,3,2,3,1"))
    Pj = poset_of_word(parse_word("1,3,2,1,4,3,4,2,3,1"))
    for d1, d2 in product("AD", repeat=2):
        assert delta_index(Pi, d1 + d2 + "A") == delta_index(Pj, d1 + d2 + "A")
    assert ind_D(Pi) == 1 and ind_D(Pj) == 2
    report("PASS criterion 5: profiles separate all classes for n <= 4; "
           "collision pair reproduces ind_D 1 vs 2")


def test_criterion_6_formula_vs_oracle():
    assert thrall_g((3, 2, 1)) == 2
    assert thrall_g((4, 3)) == 5
    assert thrall_g((4, 3, 2, 1)) == 12
    checked = 0
    for total in range(1, 13):
        for mu in strict_partitions(total):
            assert thrall_g(mu) == syt_count_oracle(mu), mu
            checked += 1
    report(f"PASS criterion 6: product formula equals the linear-extension "
           f"oracle for all {checked} strict partitions of size <= 12")


def test_criterion_7_structural_laws(classes_of_rank):
    from itertools import combinations

    from gcwords.verify import ideals, is_ideal, less

    for n in (2, 3, 4):
        assert check_contraction_laws(n).passed
        assert check_tits_connectivity(n).passed
        assert check_class_poset_equivalence(n).passed
        for P in classes_of_rank(n):
            for chain in P.column_chains.values():
                for a, b in zip(chain, chain[1:]):
                    assert less(P, a, b)
            by_counts = {}
            for ideal in ideals(P):
                counts = tuple(
                    sum(1 for k in ideal if P.columns[k - 1] == col)
                    for col in sorted(P.column_chains)
                )
                assert counts not in by_counts
                by_counts[counts] = ideal
            if n <= 3:
                brute = {
                    frozenset(sub)
                    for r in range(P.size + 1)
                    for sub in combinations(range(1, P.size + 1), r)
                    if is_ideal(P, frozenset(sub))
                }
                assert set(by_counts.values()) == brute
    report("PASS criterion 7: extension/contraction roundtrips, chain "
           "restriction, |A meet D| = 1, chain columns, ideal-by-counts "
           "uniqueness and Tits connectivity, exhaustive for n <= 4")


def test_criterion_8_worked_examples():
    Pi = poset_of_word(parse_word("1,2,1,3,2,1"))
    Pj = poset_of_word(parse_word("1,3,2,1,3,2"))
    assert (ind_D(Pi), ind_A(Pi)) == (0, 3)
    assert (ind_D(Pj), ind_A(Pj)) == (2, 2)
    P15 = poset_of_word(parse_word("4,3,4,2,3,4,1,2,5,4,3,2,1,4,5"))
    assert delta_index(P15, "AAAA") == (1, 2, 3, 2)
    terms = [
        thrall_g(tuple(range(4, 4 - i, -1))) * gc_recurrence(4 - i)
        for i in range(4, 0, -1)
    ]
    assert terms == [12, 12, 10, 6] and sum(terms) == 40
    report("PASS criterion 8: worked index examples, the 15-letter "
           "delta-index and the 12+12+10+6 = 40 breakdown hold verbatim")


def test_table1_check_runs_full_scale():
    result = check_table1(n_max=8, brute_max=0)
    assert result.passed
    report("PASS: verify.check_table1 at n_max = 8 (counting routes only)")
