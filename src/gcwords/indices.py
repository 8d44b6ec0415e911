"""Ascending/descending chains, indices, contractions and extensions.

Every word poset of the longest element contains a unique chain reading the
letters n..1 column-wise (the descending chain) and a unique chain reading
1..n (the ascending chain); they share exactly one element.  Both chains are
located together, once per poset, by two routes: direct column search and
the wiring diagram of the lexmin word of the class; a mismatch means an
internal bug and raises immediately.

Both chain operations are word edits.  A contraction drops a chain's
letters from a word of the class and shifts one side down a column, giving
a word poset one rank lower.  An extension, its inverse up to isomorphism,
splices a fresh chain into a word that lists the chosen ideal first and
shifts one side up; it labels the new poset along that word: the ideal in
label order, then the new chain, then the rest in label order.  Iterating
contractions along a letter sequence delta over {A, D} yields the
delta-index vector; the walks over several stages hand each stage's chains
and lexmin extension on to its indices and contractions, so no stage poset
is searched twice.
"""

from __future__ import annotations

from itertools import product

from .word_poset import (
    WordPoset,
    _greedy_extension,
    canonical_form,
    is_ideal,
    lexmin_extension,
    poset_of_word,
    word_of_extension,
)
from .wiring import chains_from_wires
from .words import DomainError, Word, longest_element, perm_of_word


def _w0_rank(P: WordPoset) -> int:
    """Rank n with P expected in the family of the longest element of
    S_{n+1}: every column 1..n used and n(n+1)/2 elements in total.  (The
    per-column sizes are not invariant: 3-moves trade letters between
    columns.)  Full membership is certified by the chain search plus the
    wiring cross-check."""
    n = P.rank
    if P.size != n * (n + 1) // 2:
        raise DomainError(
            f"poset has {P.size} elements, not {n * (n + 1) // 2}: "
            f"not a longest-element word poset"
        )
    for col in range(1, n + 1):
        if col not in P.column_chains:
            raise DomainError(f"column {col} is empty")
    return n


def _unique_chain(P: WordPoset, which: str, wanted: range) -> tuple[int, ...]:
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(idx: int):
        if len(found) >= 2:
            return
        if idx == len(wanted):
            found.append(tuple(prefix))
            return
        for cand in P.column_chains[wanted[idx]]:
            if prefix and not P.less(prefix[-1], cand):
                continue
            prefix.append(cand)
            rec(idx + 1)
            prefix.pop()

    rec(0)
    if not found:
        raise DomainError(f"no {which}-chain: poset not a longest-element word poset")
    if len(found) > 1:
        raise DomainError(f"{which}-chain not unique: {found[0]} and {found[1]}")
    return found[0]


def _stage(P: WordPoset) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
    """What one contraction stage needs of P: its lexmin extension and its
    chains {"A": ascending, "D": descending}, each found by the unique-chain
    search and cross-checked against the wiring diagram of the extension's
    word."""
    n = _w0_rank(P)
    chains = {
        "A": _unique_chain(P, "A", range(1, n + 1)),
        "D": _unique_chain(P, "D", range(n, 0, -1)),
    }
    # independent derivation: the crossing rows of wires 1 and n+1 are
    # positions in the extension, which maps them back to elements
    extension = lexmin_extension(P)
    wire_rows = dict(zip("AD", chains_from_wires(word_of_extension(P, extension))))
    for which, chain in chains.items():
        wire = tuple(extension[r - 1] for r in wire_rows[which])
        if chain != wire:
            raise RuntimeError(
                f"internal error: {which}-chain search gave {chain} "
                f"but the wiring diagram gave {wire}"
            )
    return extension, chains


def descending_chain(P: WordPoset) -> tuple[int, ...]:
    """The unique chain d_1 < ... < d_n with d_i in column n+1-i.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> descending_chain(poset_of_word(standard_word(3)))
    (4, 5, 6)
    """
    return _stage(P)[1]["D"]


def ascending_chain(P: WordPoset) -> tuple[int, ...]:
    """The unique chain a_1 < ... < a_n with a_i in column i.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> ascending_chain(poset_of_word(standard_word(3)))
    (1, 2, 4)
    """
    return _stage(P)[1]["A"]


def _index_of_chain(P: WordPoset, chain: tuple[int, ...]) -> int:
    # elements strictly above a chain element within its column
    return sum(
        len(P.column_chains[P.columns[c - 1]]) - P.column_rank(c) for c in chain
    )


def ind_D(P: WordPoset) -> int:
    """Number of elements above the descending chain, column-wise."""
    return _index_of_chain(P, descending_chain(P))


def ind_A(P: WordPoset) -> int:
    """Number of elements above the ascending chain, column-wise."""
    return _index_of_chain(P, ascending_chain(P))


def _ideal_below_chain(P: WordPoset, chain: tuple[int, ...]) -> frozenset:
    members: set[int] = set()
    for c in chain:
        col_chain = P.column_chains[P.columns[c - 1]]
        members.update(col_chain[: col_chain.index(c)])
    ideal = frozenset(members)
    if not is_ideal(P, ideal):
        raise RuntimeError(f"internal error: the ideal below {chain} is not downward closed")
    return ideal


def contraction_ideal_D(P: WordPoset) -> frozenset:
    """Elements below the descending chain within its columns."""
    return _ideal_below_chain(P, descending_chain(P))


def contraction_ideal_A(P: WordPoset) -> frozenset:
    """Elements below the ascending chain within its columns."""
    return _ideal_below_chain(P, ascending_chain(P))


def _contract(
    P: WordPoset, extension: tuple[int, ...], chain: tuple[int, ...], kind: str
) -> tuple[WordPoset, dict[int, int]]:
    # Work on a word of the class: drop the chain's rows and shift the
    # letters on one side.  Restricting the order of P itself would be wrong:
    # two kept elements may be related only through the removed chain, and
    # such relations do not survive (the wires are spliced past the removed
    # crossings).
    ideal = _ideal_below_chain(P, chain)
    shift_ideal = kind == "A"
    removed = set(chain)
    relabel: dict[int, int] = {}
    new_letters = []
    for elem in extension:
        if elem in removed:
            continue
        letter = P.columns[elem - 1]
        shifted = letter - 1 if (elem in ideal) == shift_ideal else letter
        new_letters.append(shifted)
        relabel[elem] = len(new_letters)
    contracted = Word(P.rank - 1, tuple(new_letters))
    if perm_of_word(contracted) != longest_element(P.rank):
        raise RuntimeError(
            f"internal error: contraction of {word_of_extension(P, extension)} "
            f"gave {contracted}, not a word of the longest element"
        )
    return poset_of_word(contracted), relabel


def contract_D_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """D-contraction plus the old-to-new element relabeling."""
    extension, chains = _stage(P)
    return _contract(P, extension, chains["D"], "D")


def contract_A_with_map(P: WordPoset) -> tuple[WordPoset, dict[int, int]]:
    """A-contraction plus the old-to-new element relabeling."""
    extension, chains = _stage(P)
    return _contract(P, extension, chains["A"], "A")


def contract_D(P: WordPoset) -> WordPoset:
    """Remove the descending chain; columns left of it stay, the part above
    shifts one column left.  Drops the rank by one."""
    return contract_D_with_map(P)[0]


def contract_A(P: WordPoset) -> WordPoset:
    """Remove the ascending chain; the part below it shifts one column left,
    the rest stays.  Drops the rank by one."""
    return contract_A_with_map(P)[0]


def _splice(
    lower: tuple[int, ...], upper: tuple[int, ...], rank: int, kind: str
) -> tuple[int, ...]:
    # The inverse of _contract's letter rule: put a fresh chain between the
    # two parts of a rank-`rank` word and shift one side up a column.  The
    # result is a word of the longest element one rank up, since
    # c_D shift(v) = v c_D and shift(u) c_A = c_A u.
    if kind == "D":
        return lower + tuple(range(rank + 1, 0, -1)) + tuple(x + 1 for x in upper)
    return tuple(x + 1 for x in lower) + tuple(range(1, rank + 2)) + upper


def _extend(P: WordPoset, ideal: frozenset, kind: str) -> WordPoset:
    if not ideal <= frozenset(range(1, P.size + 1)):
        raise DomainError(f"{set(ideal)} is not a subset of the ground set")
    if not is_ideal(P, ideal):
        raise DomainError(f"{sorted(ideal)} is not an ideal")
    n = _w0_rank(P)
    # a linear extension listing the ideal first, each part in label order
    mask = sum(1 << (k - 1) for k in ideal)
    inside = _greedy_extension(P, mask, 0, key=lambda k: k)
    outside = _greedy_extension(P, ((1 << P.size) - 1) & ~mask, mask, key=lambda k: k)
    lower = tuple(P.columns[k - 1] for k in inside)
    upper = tuple(P.columns[k - 1] for k in outside)
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
    n = _w0_rank(P)
    if len(delta) != n - 1:
        raise DomainError(f"delta must have length {n - 1}, got {len(delta)}")
    out = [0] * (n - 1)
    Q = P
    for k in range(n - 1, 0, -1):
        kind = delta[k - 1]
        extension, chains = _stage(Q)
        out[k - 1] = _index_of_chain(Q, chains[kind])
        if k > 1:
            Q = _contract(Q, extension, chains[kind], kind)[0]
    return tuple(out)


def full_profile(P: WordPoset) -> dict[str, tuple[int, ...]]:
    """All 2^(n-1) delta-indices, sharing each intermediate contraction
    across the deltas whose suffixes agree."""
    n = _w0_rank(P)
    if n < 1:
        raise DomainError("a delta-profile needs rank >= 1")
    if n == 1:
        return {"": ()}
    pairs: dict[str, tuple[int, int]] = {}

    def descend(Q: WordPoset, suffix: str):
        extension, chains = _stage(Q)
        pairs[suffix] = tuple(_index_of_chain(Q, chains[kind]) for kind in "AD")
        if len(suffix) < n - 2:
            for kind in "AD":
                descend(_contract(Q, extension, chains[kind], kind)[0], kind + suffix)

    descend(P, "")
    profile = {}
    for letters in product("AD", repeat=n - 1):
        delta = "".join(letters)
        profile[delta] = tuple(
            pairs[delta[k:]][0 if delta[k - 1] == "A" else 1]
            for k in range(1, n)
        )
    return profile


def column_flip(P: WordPoset) -> WordPoset:
    """Relabel column i as rank+1-i.  Exchanges the ascending and descending
    chains, hence the two indices."""
    n = P.rank
    return canonical_form(
        WordPoset(tuple(n + 1 - col for col in P.columns), P.covers)
    )


def format_index_vector(vec: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in vec)
