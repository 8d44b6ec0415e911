"""Ascending/descending chains, indices, contractions and extensions.

Every word poset of the longest element contains a unique chain reading the
letters n..1 column-wise (the descending chain) and a unique chain reading
1..n (the ascending chain); they share exactly one element.  Each public
function reads one word of the poset's class, its `_word` (see
`word_poset`), and then works on letters alone.  The chains, ideals and
contractions read the crossing table of that word, cached beside it, and
the indices, profiles and classification the stage table cached beside
that.  The chains are the rows where wires 1 and n+1 cross.  A contraction
drops a chain's rows and shifts one side down a column, which deletes wire
1 (A) or wire n+1 (D).  It returns the canonical poset of the contracted
class, so every word of the class gives the same result.  Deletions
commute, so the stage after a A- and d D-contractions is the
sub-arrangement on wires a+1..n+1-d.  Its indices are read off the word's
crossing table, with no contracted word: a crossing of wires i and j lies
above the chain of wire lo (resp. hi) exactly when that wire crosses both
before they cross each other.  One table holds the indices of every
stage, filled by running sums (`wiring._stage_table`): a stage's ind_A is
that of the stage without its top wire plus one test per inner wire, and
its ind_D likewise from the stage without its bottom wire, O(n^3) tests in
all.  The poset builds it once, or inherits it from the class tree of
`enumerate_commutation_classes` with no crossing table at all
(`wiring._extended_stage_table`), and all five index routes read it: ind_A
and ind_D the top stage, delta_index the stages that `_delta_positions`
names, full_profile every delta's vector through a plan of those positions
built once per rank, and classify_gc the greedy walk.
The `verify` oracles count the indices by definition instead, as the later
rows repeating a chain row's letter, in words contracted along the suffix
tree of the deltas, and one stage at a time by testing every pair of its
wires.

An extension, the inverse of a contraction up to isomorphism, splices a
fresh chain into a word that lists the chosen ideal first and shifts one
side up.  The one extension walker of `word_poset` reads that word off the
poset, and the new poset is labeled along it: the ideal in label order,
then the new chain, then the rest in label order.  Iterating contractions
along a letter sequence delta over {A, D} yields the delta-index vector.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable

from .word_poset import WordPoset, _canonical_poset_of_word, _extension, poset_of_word
from .wiring import _at, _chain_rows
from .words import DomainError, Word, _splice, longest_element, perm_of_word


def _ideal_rows(letters: tuple[int, ...], rows: tuple[int, ...]) -> list[int]:
    # the rows before the chain row of their column
    chain_row = {letters[r - 1]: r for r in rows}
    return [r for r, c in enumerate(letters, start=1) if r < chain_row[c]]


def _contract(w: Word, rows: tuple[int, ...], kind: str) -> tuple[Word, list[int]]:
    """Drop the chain rows of w and shift a row's letter down a column when
    (it lies in the ideal below the chain) == (kind is A).  Returns the
    contracted word and the rows of w it keeps, in order."""
    # Restricting the order of the poset would be wrong: two kept elements
    # may be related only through the removed chain, and such relations do
    # not survive (the wires are spliced past the removed crossings).
    ideal, chain = set(_ideal_rows(w.letters, rows)), set(rows)
    kept, letters = [], []
    for r, c in enumerate(w.letters, start=1):
        if r not in chain:
            kept.append(r)
            letters.append(c - 1 if (r in ideal) == (kind == "A") else c)
    contracted = Word(w.rank - 1, tuple(letters))
    if perm_of_word(contracted) != longest_element(w.rank):
        raise RuntimeError(
            f"internal error: contraction of {w} gave {contracted}, "
            f"not a word of the longest element"
        )
    return contracted, kept


def _ranked(w: Word, what: str) -> Word:
    # the one guard of the routes that contract or need a delta: rank 0 has
    # no chain to remove
    if w.rank < 1:
        raise DomainError(f"{what} needs rank >= 1")
    return w


def _chain(P: WordPoset, kind: str) -> tuple[int, ...]:
    w, labels = P._word, P._labels
    return tuple(labels[r - 1] for r in _chain_rows(w, P._crossing_table)[kind == "D"])


def descending_chain(P: WordPoset) -> tuple[int, ...]:
    """The unique chain d_1 < ... < d_n with d_i in column n+1-i.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> descending_chain(poset_of_word(standard_word(3)))
    (4, 5, 6)
    """
    return _chain(P, "D")


def ascending_chain(P: WordPoset) -> tuple[int, ...]:
    """The unique chain a_1 < ... < a_n with a_i in column i.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> ascending_chain(poset_of_word(standard_word(3)))
    (1, 2, 4)
    """
    return _chain(P, "A")


def ind_D(P: WordPoset) -> int:
    """Number of elements above the descending chain, column-wise."""
    n = P._word.rank
    return P._stage_table[_at(1, n + 1) + 1]


def ind_A(P: WordPoset) -> int:
    """Number of elements above the ascending chain, column-wise."""
    n = P._word.rank
    return P._stage_table[_at(1, n + 1)]


def _contraction_ideal(P: WordPoset, kind: str) -> frozenset:
    w, labels = P._word, P._labels
    rows = _chain_rows(w, P._crossing_table)[kind == "D"]
    return frozenset(labels[r - 1] for r in _ideal_rows(w.letters, rows))


def contraction_ideal_D(P: WordPoset) -> frozenset:
    """Elements below the descending chain within its columns."""
    return _contraction_ideal(P, "D")


def contraction_ideal_A(P: WordPoset) -> frozenset:
    """Elements below the ascending chain within its columns."""
    return _contraction_ideal(P, "A")


def _contract_with_map(P: WordPoset, kind: str) -> tuple[WordPoset, dict[int, int]]:
    # the letter rule on P's own word, then the canonical poset of the result
    w, labels = _ranked(P._word, "a contraction"), P._labels
    contracted, kept = _contract(w, _chain_rows(w, P._crossing_table)[kind == "D"], kind)
    Q = _canonical_poset_of_word(contracted.letters)
    return Q, dict(sorted(zip((labels[r - 1] for r in kept), Q._labels)))


def contract_D_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """contract_D plus the old-to-new relabeling, keyed in old-label order."""
    return _contract_with_map(P, "D")


def contract_A_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """contract_A plus the old-to-new relabeling, keyed in old-label order."""
    return _contract_with_map(P, "A")


def contract_D(P: WordPoset) -> WordPoset:
    """Remove the descending chain; columns left of it stay, the part above
    shifts one column left.  Returns the canonical poset of the contracted
    class, one rank lower."""
    return contract_D_with_map(P)[0]


def contract_A(P: WordPoset) -> WordPoset:
    """Remove the ascending chain; the part below it shifts one column left,
    the rest stays.  Returns the canonical poset of the contracted class,
    one rank lower."""
    return contract_A_with_map(P)[0]


def _extend(P: WordPoset, ideal: frozenset, kind: str) -> WordPoset:
    if not ideal <= frozenset(range(1, P.size + 1)):
        raise DomainError(f"{set(ideal)} is not a subset of the ground set")
    n = P.rank
    P._crossing_table  # raises unless P is a word poset of the longest element
    # the linear extension listing the ideal first, each part in label order;
    # its prefix is the ideal exactly when the ideal is downward closed
    extension = _extension(P, key=lambda k: (k not in ideal, k))
    if frozenset(extension[: len(ideal)]) != ideal:
        raise DomainError("subset is not an ideal of the poset")
    letters = tuple(P.columns[k - 1] for k in extension)
    lower, upper = letters[: len(ideal)], letters[len(ideal) :]
    return poset_of_word(Word(n + 1, _splice(lower, upper, n, kind)))


def extend_D(P: WordPoset, ideal: frozenset) -> WordPoset:
    """Insert a fresh descending chain over the given ideal: the ideal keeps
    its columns, everything else moves one column right.  Inverts the
    D-contraction: extend_D(contract_D(P), I_D(P)) is isomorphic to P.
    P must be a word poset of the longest element.  The result is labeled
    along the spliced word: the ideal, then the new chain, then the rest,
    each part of P taken in label order."""
    return _extend(P, ideal, "D")


def extend_A(P: WordPoset, ideal: frozenset) -> WordPoset:
    """Insert a fresh ascending chain over the given ideal: the ideal moves
    one column right, everything else keeps its columns.  Domain and labels
    as for extend_D."""
    return _extend(P, ideal, "A")


def validate_delta(delta: str) -> str:
    for ch in delta:
        if ch not in "AD":
            raise DomainError(f"delta letter {ch!r} not in {{A, D}}")
    return delta


def delta_index(P: WordPoset, delta: str) -> tuple[int, ...]:
    """The index vector (I_1, ..., I_{n-1}): I_k is the delta_k-index after
    contracting P along delta_{k+1}, ..., delta_{n-1}, right to left.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> delta_index(poset_of_word(standard_word(3)), "DD")
    (0, 0)
    """
    validate_delta(delta)
    w = _ranked(P._word, "a delta-index")
    n = w.rank
    if len(delta) != n - 1:
        raise DomainError(f"delta must have length {n - 1}, got {len(delta)}")
    table = P._stage_table
    return tuple(table[p] for p in _delta_positions(n, delta))


def _delta_positions(n: int, delta: str) -> list[int]:
    """Where a stage table of rank n keeps each entry of the delta-index
    vector: entry k is the delta_k index of the stage on wires a+1..n+1-d
    that the suffix delta_{k+1}, ..., delta_{n-1}, with a A's and d D's,
    reaches."""
    positions, a, d = [0] * len(delta), 0, 0
    for k in range(len(delta) - 1, -1, -1):
        kind = delta[k]
        positions[k] = _at(a + 1, n + 1 - d) + (kind == "D")
        a, d = (a + 1, d) if kind == "A" else (a, d + 1)
    return positions


def full_profile(P: WordPoset) -> dict[str, tuple[int, ...]]:
    """All 2^(n-1) delta-indices, keyed by delta in the order of
    product("AD").  A suffix of delta with a A's and d D's reaches the stage
    on wires a+1..n+1-d, so the vectors are gathered from one table of the
    indices of the n(n-1)/2 stages, through a plan shared by every profile
    of the rank."""
    n = _ranked(P._word, "a delta-profile").rank
    table = P._stage_table
    return {delta: gather(table) for delta, gather in _profile_plan(n)}


# a plan of rank 8 holds 28 KiB and one of rank 12 about 0.6 MiB, about
# twice a profile of its rank
@lru_cache(maxsize=8)
def _profile_plan(n: int) -> tuple[tuple[str, Callable[[list[int]], tuple[int, ...]]], ...]:
    """Per delta of rank n, in the order of product("AD"), the gather of its
    vector from a stage table at its _delta_positions."""
    deltas = ("".join(letters) for letters in product("AD", repeat=n - 1))
    return tuple((delta, _gather(_delta_positions(n, delta))) for delta in deltas)


def _gather(positions: list[int]) -> Callable[[list[int]], tuple[int, ...]]:
    # itemgetter of one position returns the bare entry, and of none fails
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda table: tuple(table[p] for p in positions)


def format_index_vector(vec: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in vec)
