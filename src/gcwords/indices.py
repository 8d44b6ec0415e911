"""Ascending/descending chains, indices, contractions and extensions.

Every word poset of the longest element contains a unique chain reading the
letters n..1 column-wise (the descending chain) and a unique chain reading
1..n (the ascending chain); they share exactly one element.  Each public
function reads the poset's one checked word, its lexmin word once the poset
is checked to be that word's poset (cached on the poset, so one check per
poset), and then works on letters alone: the chains are the rows where
wires 1 and n+1 cross, a chain's index counts the later rows that repeat
the letter of a chain row, and a contraction drops the chain's rows and
shifts one side down a column.  The direct search of the column chains is
the oracle in `verify`.

A contraction deletes one pseudoline of the wiring diagram, wire 1 for A
and wire n+1 for D, and deletions commute: contracting by D then A gives
the same word as by A then D.  So the stage reached after a A- and d
D-contractions does not depend on their order, and the full profile reads
a triangle of n(n-1)/2 stages where the suffix tree of the 2^(n-1) deltas
has 2^(n-1) - 1; that tree is the profile oracle in `verify`.

An extension, the inverse of a contraction up to isomorphism, splices a
fresh chain into a word that lists the chosen ideal first and shifts one
side up.  The one extension walker of `word_poset` reads that word off the
poset, and the new poset is labeled along it: the ideal in label order,
then the new chain, then the rest in label order.  Iterating contractions
along a letter sequence delta over {A, D} yields the delta-index vector.
"""

from __future__ import annotations

from .word_poset import WordPoset, _extension, poset_of_word
from .wiring import chains_from_wires
from .words import DomainError, Word, _splice, longest_element, perm_of_word


def _stage(w: Word) -> dict[str, tuple[tuple[int, ...], int]]:
    """Per kind "A", "D": the chain's rows in w and its index, the number of
    later rows that repeat the letter of a chain row.  Raises unless w is a
    reduced word of the longest element."""
    letters = w.letters
    return {
        kind: (rows, sum(letters[r:].count(letters[r - 1]) for r in rows))
        for kind, rows in zip("AD", chains_from_wires(w))
    }


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
    ideal = set(_ideal_rows(w.letters, rows))
    kept, letters = [], []
    for r, c in enumerate(w.letters, start=1):
        if r not in rows:
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


def _lexmin_stage(P: WordPoset) -> tuple[tuple[int, ...], Word, dict]:
    """The lexmin extension of P, its checked word and that word's stage."""
    w = P._checked_word
    return P._lexmin, w, _stage(w)


def _chain(P: WordPoset, kind: str) -> tuple[int, ...]:
    extension, _, stage = _lexmin_stage(P)
    return tuple(extension[r - 1] for r in stage[kind][0])


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
    return _lexmin_stage(P)[2]["D"][1]


def ind_A(P: WordPoset) -> int:
    """Number of elements above the ascending chain, column-wise."""
    return _lexmin_stage(P)[2]["A"][1]


def _contraction_ideal(P: WordPoset, kind: str) -> frozenset:
    extension, w, stage = _lexmin_stage(P)
    return frozenset(extension[r - 1] for r in _ideal_rows(w.letters, stage[kind][0]))


def contraction_ideal_D(P: WordPoset) -> frozenset:
    """Elements below the descending chain within its columns."""
    return _contraction_ideal(P, "D")


def contraction_ideal_A(P: WordPoset) -> frozenset:
    """Elements below the ascending chain within its columns."""
    return _contraction_ideal(P, "A")


def _contract_with_map(P: WordPoset, kind: str) -> tuple[WordPoset, dict[int, int]]:
    extension, w, stage = _lexmin_stage(P)
    contracted, kept = _contract(_ranked(w, "a contraction"), stage[kind][0], kind)
    relabel = {extension[r - 1]: new for new, r in enumerate(kept, start=1)}
    return poset_of_word(contracted), relabel


def contract_D_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """D-contraction plus the old-to-new element relabeling."""
    return _contract_with_map(P, "D")


def contract_A_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """A-contraction plus the old-to-new element relabeling."""
    return _contract_with_map(P, "A")


def contract_D(P: WordPoset) -> WordPoset:
    """Remove the descending chain; columns left of it stay, the part above
    shifts one column left.  Drops the rank by one."""
    return contract_D_with_map(P)[0]


def contract_A(P: WordPoset) -> WordPoset:
    """Remove the ascending chain; the part below it shifts one column left,
    the rest stays.  Drops the rank by one."""
    return contract_A_with_map(P)[0]


def _extend(P: WordPoset, ideal: frozenset, kind: str) -> WordPoset:
    if not ideal <= frozenset(range(1, P.size + 1)):
        raise DomainError(f"{set(ideal)} is not a subset of the ground set")
    w = P._checked_word
    n = w.rank
    if perm_of_word(w) != longest_element(n + 1):
        raise DomainError(f"{w} is not a reduced word of the longest element")
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
    w = _ranked(P._checked_word, "a delta-index")
    n = w.rank
    if len(delta) != n - 1:
        raise DomainError(f"delta must have length {n - 1}, got {len(delta)}")
    out = [0] * (n - 1)
    for k in range(n - 1, 0, -1):
        kind = delta[k - 1]
        rows, out[k - 1] = _stage(w)[kind]
        if k > 1:
            w = _contract(w, rows, kind)[0]
    return tuple(out)


def full_profile(P: WordPoset) -> dict[str, tuple[int, ...]]:
    """All 2^(n-1) delta-indices, keyed by delta in the order of
    product("AD").  Contractions commute, so the stage reached along a
    suffix of delta depends only on its a A's and d D's: the profile reads
    a triangle of n(n-1)/2 stages, one per (a, d) with a + d <= n-2, and
    builds each vector by putting one entry in front of the vector of its
    suffix."""
    return _word_profile(P._checked_word)


def _word_profile(w: Word) -> dict[str, tuple[int, ...]]:
    # full_profile of the class of w; any word of the class gives the same
    n = _ranked(w, "a delta-profile").rank
    # triangle[a, d]: (ind_A, ind_D) after a A- and d D-contractions.
    # level[a] is the word of stage (a, s - a), contracted once from a
    # neighbour: (a, d) by A from (a-1, d), (0, d) by D from (0, d-1).
    triangle: dict[tuple[int, int], tuple[int, int]] = {}
    level = [w]
    for s in range(n - 1):
        stages = [_stage(v) for v in level]
        for a, stage in enumerate(stages):
            triangle[a, s - a] = (stage["A"][1], stage["D"][1])
        if s < n - 2:
            level = [_contract(level[0], stages[0]["D"][0], "D")[0]] + [
                _contract(v, stage["A"][0], "A")[0] for v, stage in zip(level, stages)
            ]
    # vectors[suffix]: the entries of a delta ending in suffix, one per
    # letter of the suffix; each level puts one letter and its entry in front
    vectors: dict[str, tuple[int, ...]] = {"": ()}
    for m in range(n - 1):
        longer = {}
        for kind in "AD":
            for suffix, vector in vectors.items():
                a = suffix.count("A")
                longer[kind + suffix] = (triangle[a, m - a][kind == "D"],) + vector
        vectors = longer
    return vectors


def format_index_vector(vec: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in vec)
