"""Brute-force oracle suite: re-derive the headline facts at desk scale.

Every check enumerates a small instance exhaustively, compares against an
independent route, and returns a machine-readable report; a failing report
always carries words in the exact comma format so it can be replayed from
the command line.  The verdict payload is deterministic; elapsed_ms is the
only field that varies between runs.

The slow independent routes live here, off the production modules: the
strict order `less` by down-set masks, closed over the covers alone, and
the ideal test `is_ideal`, the count of reduced words by descents and in
closed form by the hook-length formula, the lexmin word by a heap walk
over the covers, the stream of all linear extensions (and with it the
words of a class and the GC words), the count of linear extensions by one
walk over a word's whole table, with no cut into ordinal summands, and
its one-ideal levels, the ideals by a breadth-first search over bitmasks,
apart from the production walker, the word poset from its
definition and from the wires of a word's diagram, the shifted-diagram
poset behind the tableau-count oracle, the word of one GC class by its
splices, rank by rank, and its count by the recurrence's product over the
runs of its delta, the column-chain search, the indices by their
column-count definition, the suffix-tree profile built from them, the pair
test of one stage's wires that checks the stage table and the tables the
class tree extends, and the 3-move class search.  Of the package's modules
only the CLI imports this one, and only when its verify command runs.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from math import factorial, prod
from typing import Callable, Iterator

from .gc import (
    BudgetExceeded,
    classify_gc,
    default_budget,
    gc_direct,
    gc_poset_of_delta,
    gc_recurrence,
    thrall_g,
    validate_strict,
)
from .indices import (
    _contract,
    _ranked,
    ascending_chain,
    contract_A_with_map,
    contract_D_with_map,
    contraction_ideal_A,
    contraction_ideal_D,
    delta_index,
    descending_chain,
    extend_A,
    extend_D,
    full_profile,
    ind_D,
    validate_delta,
)
from .lattice import _ideal_levels, _word_needs
from .wiring import _at, _crossings, chains_from_wires, wires
from .word_poset import (
    WordPoset,
    _extension,
    canonical_form,
    count_commutation_classes,
    count_linear_extensions,
    enumerate_commutation_classes,
    is_isomorphic,
    lexmin_word,
    poset_of_word,
    word_of_extension,
)
from .words import (
    DomainError,
    Perm,
    Word,
    _splice,
    apply_2move,
    apply_3move,
    enumerate_reduced_words,
    inversion_count,
    is_permutation,
    legal_2moves,
    legal_3moves,
    longest_element,
    parse_word,
    perm_of_word,
    standard_word,
)

# Reference values the checks recompute from scratch: gc(n) for n = 0..8,
# and the commutation-class counts of the longest element of S_{n+1}
# (OEIS A006245, shifted by one).
GC_TABLE = (1, 1, 2, 6, 40, 916, 102176, 68464624, 317175051664)
CLASS_COUNTS = {1: 1, 2: 2, 3: 8, 4: 62, 5: 908, 6: 24698, 7: 1232944}

INJECTIVITY_PAIR = ("3,2,1,2,3,4,3,2,3,1", "1,3,2,1,4,3,4,2,3,1")


@dataclass(frozen=True)
class Report:
    check: str
    params: dict
    passed: bool
    elapsed_ms: float
    counterexample: dict | None = None

    def as_dict(self, include_elapsed: bool = True) -> dict:
        out = {"check": self.check, "params": self.params, "pass": self.passed}
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out

    def json_line(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.as_dict(include_elapsed), sort_keys=True)


def _run(check: str, params: dict, body: Callable) -> Report:
    start = time.perf_counter()
    passed, counterexample = body()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return Report(check, params, passed, elapsed_ms, counterexample)


def _all_words(n: int) -> list[Word]:
    return list(enumerate_reduced_words(longest_element(n + 1)))


def _left_descents(p: Perm) -> Iterator[int]:
    # i is a left descent iff i+1 precedes i in one-line notation, i.e. the
    # word may start with the letter i.
    position = {value: index for index, value in enumerate(p)}
    for i in range(1, len(p)):
        if position[i] > position[i + 1]:
            yield i


def _swap_values(p: Perm, i: int) -> Perm:
    q = list(p)
    a, b = q.index(i), q.index(i + 1)
    q[a], q[b] = q[b], q[a]
    return tuple(q)


@lru_cache(maxsize=None)
def _count_reduced_words(p: Perm) -> int:
    descents = list(_left_descents(p))
    if not descents:
        return 1
    return sum(_count_reduced_words(_swap_values(p, i)) for i in descents)


def count_reduced_words(p: Perm) -> int:
    """|R(p)| without materializing the words: the word-count oracle of
    `enumerate_reduced_words`.

    >>> count_reduced_words((4, 3, 2, 1))
    16
    """
    if not is_permutation(p):
        raise DomainError(f"{p} is not a permutation")
    return _count_reduced_words(p)


def staircase_word_count(n: int) -> int:
    """The number of reduced words of the longest element at rank n, in
    closed form: they biject with the standard tableaux of the staircase
    shape (n, n-1, ..., 1) (Stanley), which the hook-length formula counts
    as N!/prod (2k-1)^(n-k+1) over k = 1..n, with N = n(n+1)/2.  Shares
    nothing with the ideal walker or the count by descents.

    >>> staircase_word_count(3), staircase_word_count(5)
    (16, 292864)
    """
    if n < 0:
        raise DomainError(f"rank must be nonnegative, got {n}")
    return factorial(n * (n + 1) // 2) // prod((2 * k - 1) ** (n - k + 1) for k in range(1, n + 1))


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def _covers_from_below(below: list[int]) -> list[tuple[int, int]]:
    """Covers of the order given by strict-downset bitmasks."""
    covers = []
    for y, mask in enumerate(below, start=1):
        # x is covered by y unless it lies below something else below y
        inner = 0
        for m in _bits(mask):
            inner |= below[m - 1]
        covers.extend((x, y) for x in _bits(mask & ~inner))
    return covers


def _down_masks(P: WordPoset) -> tuple[int, ...]:
    """down[k-1] has bit j-1 set iff j < k in the poset: the order oracle,
    one int per element, closed over the covers alone until no mask grows.
    Raises if the covers hold a cycle, which puts an element below itself."""
    down = [0] * P.size
    grown = True
    while grown:
        grown = False
        for x, y in P.covers:
            mask = down[y - 1] | down[x - 1] | 1 << (x - 1)
            if mask != down[y - 1]:
                down[y - 1], grown = mask, True
    if any(mask >> k & 1 for k, mask in enumerate(down)):
        raise DomainError("covering relation contains a cycle")
    return tuple(down)


def less(P: WordPoset, x: int, y: int) -> bool:
    """Strict order: x < y in P."""
    return bool(_down_masks(P)[y - 1] >> (x - 1) & 1)


def is_ideal(P: WordPoset, members: frozenset) -> bool:
    """Whether members is closed downward in P."""
    return all(x in members for x, y in P.covers if y in members)


def linear_extensions(P: WordPoset) -> Iterator[tuple[int, ...]]:
    """All linear extensions, in lexicographic order on element labels."""
    size = P.size
    down = _down_masks(P)
    full = (1 << size) - 1
    prefix: list[int] = []

    def rec(placed: int) -> Iterator[tuple[int, ...]]:
        if placed == full:
            yield tuple(prefix)
            return
        for k in range(1, size + 1):
            bit = 1 << (k - 1)
            if placed & bit or (down[k - 1] & ~placed):
                continue
            prefix.append(k)
            yield from rec(placed | bit)
            prefix.pop()

    return rec(0)


def words_of_class(P: WordPoset) -> Iterator[Word]:
    """Every word of the commutation class of P, once each (the extensions
    biject with the words)."""
    for extension in linear_extensions(P):
        yield word_of_extension(P, extension)


def lexmin_word_by_covers(P: WordPoset) -> Word:
    """The lexmin oracle: the heap walk over the covers (`_extension`) that
    always places the least column among the elements whose lower covers
    are placed, apart from `lexmin_word`'s greedy walk over the table of
    the poset's word."""
    return word_of_extension(P, _extension(P, key=lambda k: (P.columns[k - 1], k)))


def enumerate_gc_words(n: int, budget: int | None = None) -> Iterator[Word]:
    """All GC-type reduced words, emitted class by class through the linear
    extensions of the 2^(n-1) canonical posets (never by filtering).

    Refuses n beyond the brute-force budget; pass budget=n to override.
    """
    if budget is None:
        budget = default_budget()
    if n > budget:
        raise BudgetExceeded(
            f"enumerating gc words at rank {n} exceeds the budget {budget}"
        )
    if n < 1:
        raise DomainError("rank must be positive")
    for letters in product("AD", repeat=n - 1):
        yield from words_of_class(gc_poset_of_delta("".join(letters)))


def _order_chains(P: WordPoset) -> list[list[int]]:
    """The column chains, bottom to top, read off the order alone: each
    column's elements by the size of their down-sets, not along a word;
    raises unless each column is a chain."""
    down = _down_masks(P)
    groups: dict[int, list[int]] = {}
    for k in sorted(range(1, P.size + 1), key=lambda k: down[k - 1].bit_count()):
        groups.setdefault(P.columns[k - 1], []).append(k)
    for col, chain in groups.items():
        for a, b in zip(chain, chain[1:]):
            if not down[b - 1] >> (a - 1) & 1:
                raise DomainError(f"column {col} is not a chain: {a} and {b} incomparable")
    return [groups[col] for col in sorted(groups)]


def _poset_needs(P: WordPoset) -> list[tuple[list[int], list[int]]]:
    """The ideal walker's table read off the order: per column chain, the
    rows (left, right) giving, for each element, how many elements of the
    chains left and right of its own lie below it.  Each column being a
    chain, that is the greatest height there among the elements below it.
    Serves posets that are no word's poset too."""
    chains = _order_chains(P)
    down = _down_masks(P)

    def row(chain, ci):
        if not 0 <= ci < len(chains):
            return [0] * len(chain)
        return [sum(down[k - 1] >> (x - 1) & 1 for x in chains[ci]) for k in chain]

    return [(row(chain, ci - 1), row(chain, ci + 1)) for ci, chain in enumerate(chains)]


def _unsplit_levels(P: WordPoset) -> Iterator[dict[int, int]]:
    # the walker's levels over the whole table of the poset's word
    return _ideal_levels(_word_needs(P._reading[0].letters, P.rank))


def count_linear_extensions_unsplit(P: WordPoset) -> int:
    """The count oracle: the walker over the whole table of the poset's
    word, with no cut into ordinal summands and no cache, apart from
    `count_linear_extensions`'s product over the summands."""
    for level in _unsplit_levels(P):
        pass  # the last level holds the full ideal alone
    (total,) = level.values()
    return total


def one_ideal_levels(P: WordPoset) -> list[int]:
    """The sizes 0 < k < P.size of the unsplit walk's levels that hold one
    ideal: where P is an ordinal sum of that ideal and the rest.  The
    oracle of the cuts the count reads off the word."""
    return [k for k, level in enumerate(_unsplit_levels(P)) if 0 < k < P.size and len(level) == 1]


def ideals(P: WordPoset) -> Iterator[frozenset]:
    """All order ideals, smallest first, and within a size in the order of
    their per-column counts, columns ascending.  The ideal oracle, apart
    from the production walker: a breadth-first search over bitmask ideals
    that adds an element once its down-set is placed.  Raises unless each
    column is a chain, as then the counts name each ideal once."""
    chains = _order_chains(P)
    down = _down_masks(P)
    level = {0}
    while level:
        found = [frozenset(_bits(mask)) for mask in level]
        yield from sorted(found, key=lambda I: tuple(len(I.intersection(c)) for c in chains))
        level = {
            mask | 1 << k
            for mask in level
            for k, below in enumerate(down)
            if not mask >> k & 1 and not below & ~mask
        }


def poset_of_wiring(w: Word) -> WordPoset:
    """Order the crossings of the diagram of w by downward paths: a crossing
    precedes every later crossing on either of its wires, transitively.  For
    a reduced word this is the word poset (elements = rows)."""
    below = [0] * len(w.letters)
    steps = sorted((b, a) for rows in wires(w) for a, b in zip(rows, rows[1:]))
    # by later row first: a crossing's down-set is complete before it is used
    for row, above in steps:
        below[row - 1] |= below[above - 1] | (1 << (above - 1))
    return WordPoset(w.letters, tuple(_covers_from_below(below)))


def shifted_poset(mu) -> WordPoset:
    """The poset of the shifted diagram of mu under componentwise order,
    with cell (i, j) in column j-i+1 (the diagonals, so covering moves are
    one column apart and each diagonal is a chain)."""
    mu = validate_strict(mu)
    cells = [
        (i, j)
        for i in range(1, len(mu) + 1)
        for j in range(i, mu[i - 1] + i)
    ]
    label = {cell: k for k, cell in enumerate(cells, start=1)}
    columns = tuple(j - i + 1 for i, j in cells)
    covers = []
    for (i, j), k in label.items():
        if (i, j + 1) in label:
            covers.append((k, label[(i, j + 1)]))
        if (i + 1, j) in label:
            covers.append((k, label[(i + 1, j)]))
    return WordPoset(columns, tuple(covers))


def syt_count_oracle(mu) -> int:
    """Shifted tableau count by linear-extension enumeration of the diagram
    poset; independent of the product formula.

    >>> syt_count_oracle((4, 3, 2, 1))
    12
    """
    return count_linear_extensions(shifted_poset(mu))


def strict_partitions(total: int) -> Iterator[tuple[int, ...]]:
    """All strict partitions of total, largest part first, lexicographically
    decreasing."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part - 1, prefix + (part,))

    if total < 0:
        raise DomainError("total must be nonnegative")
    yield from rec(total, total, ())


def check_tits_connectivity(n: int = 4) -> Report:
    """The graph of all reduced words of the longest element under both braid
    moves is connected."""

    def body():
        words = _all_words(n)
        index = {w: i for i, w in enumerate(words)}
        seen = {0}
        queue = deque([0])
        while queue:
            w = words[queue.popleft()]
            neighbors = [apply_2move(w, p) for p in legal_2moves(w)]
            neighbors += [apply_3move(w, p) for p in legal_3moves(w)]
            for v in neighbors:
                j = index[v]
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) == len(words):
            return True, None
        missing = next(words[i] for i in range(len(words)) if i not in seen)
        return False, {"unreached": str(missing), "reached": len(seen)}

    return _run("tits_connectivity", {"n": n}, body)


def is_reduced_by_length(w: Word) -> bool:
    """The reducedness oracle, straight from the definition: the word is as
    long as its permutation's inversion count, the Coxeter length.  O(m^2)
    in the permutation's size, against the one pass of `is_reduced`.

    >>> is_reduced_by_length(parse_word("1,2,1")), is_reduced_by_length(parse_word("1,1"))
    (True, False)
    """
    return len(w.letters) == inversion_count(perm_of_word(w))


def _poset_of_word_by_definition(w: Word) -> WordPoset:
    """The word poset oracle, straight from the definition: each position's
    down-set is the union over every earlier position whose letter differs
    by one, and the covers are the transitive reduction.  O(l^2)."""
    if not is_reduced_by_length(w):
        raise DomainError(f"word {w} is not reduced")
    letters = w.letters
    below = [0] * len(letters)
    for k, target in enumerate(letters):
        for j in range(k):
            if abs(letters[j] - target) == 1:
                below[k] |= below[j] | (1 << j)
    return WordPoset(tuple(letters), tuple(_covers_from_below(below)))


def _two_move_components(words: list[Word]) -> dict[Word, int]:
    index = {w: i for i, w in enumerate(words)}
    component = {}
    next_id = 0
    for start in words:
        if start in component:
            continue
        component[start] = next_id
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for p in legal_2moves(w):
                v = apply_2move(w, p)
                if v not in component:
                    component[v] = next_id
                    queue.append(v)
        next_id += 1
    if len(component) != len(index):
        raise RuntimeError("internal error: 2-moves left the set of reduced words")
    return component


def braid_triples(P: WordPoset, down: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Triples x < y < z with equal end columns, adjacent middle column and
    open interval (x, z) = {y}: exactly the sites where some word of the
    class admits a 3-move with these three positions adjacent.  `down` is
    _down_masks(P)."""
    lower: list[list[int]] = [[] for _ in range(P.size)]
    upper: list[list[int]] = [[] for _ in range(P.size)]
    for x, y in P.covers:
        lower[y - 1].append(x)
        upper[x - 1].append(y)
    triples = []
    for y in range(1, P.size + 1):
        for x in lower[y - 1]:
            for z in upper[y - 1]:
                if P.columns[z - 1] != P.columns[x - 1]:
                    continue
                # y is the only element strictly between x and z when no
                # other element below z has x below it
                if all(m == y or not down[m - 1] >> (x - 1) & 1 for m in _bits(down[z - 1])):
                    triples.append((x, y, z))
    triples.sort()
    return triples


def extension_through_triple(
    P: WordPoset, triple: tuple[int, int, int], down: tuple[int, ...]
) -> tuple[int, ...]:
    """A linear extension placing the triple consecutively; `down` is
    _down_masks(P)."""
    x, y, z = triple
    # the elements below z other than x and y, then the triple, then the rest
    head = down[z - 1] & ~((1 << (x - 1)) | (1 << (y - 1)))
    return _extension(
        P, key=lambda k: (0 if head >> (k - 1) & 1 else 1 if k in triple else 2, k)
    )


def class_3move_neighbors(P: WordPoset) -> list[WordPoset]:
    """Canonical posets of the classes one 3-move away, in triple order."""
    neighbors = []
    down = _down_masks(P)
    for triple in braid_triples(P, down):
        extension = extension_through_triple(P, triple, down)
        w = word_of_extension(P, extension)
        moved = apply_3move(w, extension.index(triple[0]) + 1)
        neighbors.append(canonical_form(poset_of_word(moved)))
    return neighbors


def _classes_by_3moves(n: int) -> set[WordPoset]:
    """The class oracle: the canonical posets of all commutation classes, by
    breadth-first search over 3-move neighbors from the standard word."""
    start = canonical_form(poset_of_word(standard_word(n)))
    seen = {start}
    queue = deque([start])
    while queue:
        for neighbor in class_3move_neighbors(queue.popleft()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def check_class_poset_equivalence(n: int = 4) -> Report:
    """Every word's poset equals the one built from the definition,
    partitioning the words by 2-move reachability agrees with partitioning
    by canonical word-poset form, the class count matches the reference
    sequence and the count of `count_commutation_classes`, and the splice
    enumeration yields each class once: its set of canonical posets is that
    of the 2-move components and that of the 3-move search.  The stage table
    each class inherits down the class tree equals, on every stage (lo, hi),
    the pair test on the crossings of the class's lexmin word, another word
    than the one it was spliced from.  That lexmin word, read off the
    class word and off the greatest word of the class, is the one the
    covers walk reads, and the classes' extension counts sum to the number
    of words, `staircase_word_count`."""

    def body():
        words = _all_words(n)
        component = _two_move_components(words)
        comp_to_key: dict[int, object] = {}
        key_to_comp: dict[object, int] = {}
        for w in words:
            P = poset_of_word(w)
            if P != _poset_of_word_by_definition(w):
                return False, {"word": str(w), "reason": "poset differs from the definition"}
            key = canonical_form(P)
            comp = component[w]
            if comp_to_key.setdefault(comp, key) != key:
                return False, {"word": str(w), "reason": "class splits posets"}
            if key_to_comp.setdefault(key, comp) != comp:
                return False, {"word": str(w), "reason": "poset spans classes"}
        classes = len(comp_to_key)
        expected = CLASS_COUNTS.get(n)
        if expected is not None and classes != expected:
            return False, {"classes": classes, "expected": expected}
        enumerated: set[WordPoset] = set()
        width = n + 2
        extensions = 0
        for P in enumerate_commutation_classes(n):
            w = lexmin_word(P)
            if P in enumerated:
                return False, {"word": str(w), "reason": "class enumerated twice"}
            enumerated.add(P)
            # a class word is its lexmin word at every rank checked so far,
            # so the walk reads the greatest word of the class too
            by_covers = lexmin_word_by_covers(P)
            greatest = word_of_extension(P, _extension(P, key=lambda k: (-P.columns[k - 1], k)))
            for read in (w, lexmin_word(poset_of_word(greatest))):
                if read != by_covers:
                    return False, {"word": str(read), "by_covers": str(by_covers),
                                   "reason": "lexmin word differs from the covers walk"}
            extensions += count_linear_extensions(P)
            table = vars(P).get("_stage_table")
            if table is None:
                return False, {"word": str(w), "reason": "class has no stage table from the tree"}
            rows = _crossings(w)
            for lo in range(1, width):
                for hi in range(lo + 1, width):
                    at = _at(width, lo, hi)
                    if tuple(table[at : at + 2]) != _indices(rows, lo, hi):
                        return False, {"word": str(w), "stage": [lo, hi],
                                       "reason": "tree's stage table differs from the pair test"}
        counted = count_commutation_classes(n)
        if counted != len(enumerated):
            return False, {"classes": len(enumerated), "counted": counted}
        if extensions != staircase_word_count(n):
            return False, {"extensions": str(extensions), "words": str(staircase_word_count(n)),
                           "reason": "class extension counts do not sum to the staircase count"}
        for route, found in (
            ("2-move components", set(key_to_comp)),
            ("3-move search", _classes_by_3moves(n)),
        ):
            if found != enumerated:
                odd = min((lexmin_word(P) for P in found ^ enumerated), key=lambda w: w.letters)
                return False, {
                    "word": str(odd),
                    "reason": f"enumerated classes differ from the {route}",
                }
        return True, None

    return _run("class_poset_equivalence", {"n": n}, body)


def check_injectivity_theorem(n: int = 4) -> Report:
    """Full delta-profiles are constant on each commutation class and differ
    between classes; the known rank-4 collision pair behaves as stated
    (equal single-delta indices ending in A, different D-indices)."""

    def body():
        by_class: dict[object, tuple] = {}
        witness: dict[object, Word] = {}
        for w in _all_words(n):
            P = poset_of_word(w)
            key = canonical_form(P)
            prof = tuple(sorted(full_profile(P).items()))
            if key in by_class:
                if by_class[key] != prof:
                    return False, {"word": str(w), "reason": "profile not constant"}
            else:
                by_class[key] = prof
                witness[key] = w
        profiles: dict[tuple, Word] = {}
        for key, prof in by_class.items():
            if prof in profiles:
                return False, {
                    "words": [str(profiles[prof]), str(witness[key])],
                    "reason": "distinct classes share a profile",
                }
            profiles[prof] = witness[key]
        if n == 4:
            wi, wj = (parse_word(s) for s in INJECTIVITY_PAIR)
            Pi, Pj = poset_of_word(wi), poset_of_word(wj)
            for d1, d2 in product("AD", repeat=2):
                delta = d1 + d2 + "A"
                if delta_index(Pi, delta) != delta_index(Pj, delta):
                    return False, {"delta": delta, "reason": "pair should collide"}
            if (ind_D(Pi), ind_D(Pj)) != (1, 2):
                return False, {"reason": "pair D-indices", "got": [ind_D(Pi), ind_D(Pj)]}
        return True, None

    return _run("injectivity_theorem", {"n": n}, body)


def _unique_chain(P: WordPoset, which: str) -> tuple[int, ...]:
    """The chain oracle: search the column chains of P directly for the
    unique chain reading 1..n (which="A") or n..1 (which="D")."""
    n = P.rank
    wanted = range(1, n + 1) if which == "A" else range(n, 0, -1)
    down = _down_masks(P)
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(idx: int):
        if len(found) >= 2:
            return
        if idx == len(wanted):
            found.append(tuple(prefix))
            return
        for cand in P.column_chains.get(wanted[idx], ()):
            if prefix and not down[cand - 1] >> (prefix[-1] - 1) & 1:
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


def _stage(w: Word) -> dict[str, tuple[tuple[int, ...], int]]:
    """Per kind "A", "D": the chain's rows in w and its index, the number of
    later rows that repeat the letter of a chain row.  Raises unless w is a
    reduced word of the longest element."""
    letters = w.letters
    return {
        kind: (rows, sum(letters[r:].count(letters[r - 1]) for r in rows))
        for kind, rows in zip("AD", chains_from_wires(w))
    }


def _indices(rows: list[list[int]], lo: int, hi: int) -> tuple[int, int]:
    """The pair-test oracle of one entry of the stage table: (ind_A, ind_D)
    of the stage on wires lo..hi of the crossing table rows, as the
    crossings of two other wires that wire lo (for A) or wire hi (for D)
    has crossed both of before they cross, testing every pair of the
    stage's wires instead of summing one stage into the next."""
    a = d = 0
    low, high = rows[lo], rows[hi]
    for i in range(lo, hi):
        row_i = rows[i]
        for j in range(i + 1, hi + 1):
            # a pair holding lo (hi) fails the A (D) test: low[j] (high[i]) is r
            r = row_i[j]
            a += low[i] < r and low[j] < r
            d += high[i] < r and high[j] < r
    return a, d


def suffix_tree_profile(P: WordPoset) -> dict[str, tuple[int, ...]]:
    """The profile oracle: one stage per node of the suffix tree of the
    deltas, 2^(n-1) - 1 of them, each contracted from its parent along the
    suffix's letters.  Unlike full_profile it does not rely on contractions
    commuting, and it reads the lexmin word, another word of the class
    than the one the production routes read."""
    P._reading  # the entry check of a poset that keeps no word
    w = _ranked(lexmin_word(P), "a delta-profile")
    n = w.rank
    pairs: dict[str, tuple[int, int]] = {}

    def descend(v: Word, suffix: str):
        stage = _stage(v)
        pairs[suffix] = (stage["A"][1], stage["D"][1])
        if len(suffix) < n - 2:
            for kind in "AD":
                descend(_contract(v, stage[kind][0], kind)[0], kind + suffix)

    descend(w, "")
    profile = {}
    for letters in product("AD", repeat=n - 1):
        delta = "".join(letters)
        profile[delta] = tuple(
            pairs[delta[k:]][0 if delta[k - 1] == "A" else 1]
            for k in range(1, n)
        )
    return profile


def _contracted(w: Word, kind: str) -> Word:
    return _contract(w, _stage(w)[kind][0], kind)[0]


def check_contraction_laws(n: int = 4) -> Report:
    """Per commutation class: the chains read off a word are the unique
    chains found by searching the column chains, they share exactly one
    element, the elements below each chain form an ideal, removing a chain
    and re-extending over its ideal reproduces the class, and the chains
    restrict to the chains of the contraction.  From rank 2, contracting
    the class word by D then A gives the same word as by A then D, the law
    behind the index triangle; the full profile, read off the word the
    class was spliced from, equals the suffix-tree oracle on the lexmin
    word and the profile of a copy of the poset that keeps no word, dict
    order included."""
    def body():
        for P in enumerate_commutation_classes(n):
            rep = str(lexmin_word(P))
            profile = list(full_profile(P).items())
            if profile != list(suffix_tree_profile(P).items()):
                return False, {"word": rep, "reason": "profile differs from the suffix tree"}
            if profile != list(full_profile(WordPoset(P.columns, P.covers)).items()):
                return False, {"word": rep, "reason": "profile differs from a copy's"}
            if n >= 2:
                w = lexmin_word(P)
                d_then_a = _contracted(_contracted(w, "D"), "A")
                a_then_d = _contracted(_contracted(w, "A"), "D")
                if d_then_a != a_then_d:
                    return False, {"word": rep, "reason": "C_A(C_D(w)) != C_D(C_A(w))"}
            A = ascending_chain(P)
            D = descending_chain(P)
            if (A, D) != (_unique_chain(P, "A"), _unique_chain(P, "D")):
                return False, {"word": rep, "reason": "chains differ from the column search"}
            if len(set(A) & set(D)) != 1:
                return False, {"word": rep, "reason": "|A intersect D| != 1"}
            if not (is_ideal(P, contraction_ideal_A(P)) and is_ideal(P, contraction_ideal_D(P))):
                return False, {"word": rep, "reason": "a contraction ideal is not an ideal"}
            Q, m = contract_D_with_map(P)
            ideal = frozenset(m[k] for k in contraction_ideal_D(P))
            if not is_isomorphic(extend_D(Q, ideal), P):
                return False, {"word": rep, "reason": "E_D(C_D(P), I_D(P)) != P"}
            if n >= 2 and tuple(m[a] for a in A if a in m) != ascending_chain(Q):
                return False, {"word": rep, "reason": "A(P) restricted != A(C_D(P))"}
            Q, m = contract_A_with_map(P)
            ideal = frozenset(m[k] for k in contraction_ideal_A(P))
            if not is_isomorphic(extend_A(Q, ideal), P):
                return False, {"word": rep, "reason": "E_A(C_A(P), I_A(P)) != P"}
            if n >= 2 and tuple(m[d] for d in D if d in m) != descending_chain(Q):
                return False, {"word": rep, "reason": "D(P) restricted != D(C_A(P))"}
        return True, None

    return _run("contraction_laws", {"n": n}, body)


def _flipped(w: Word) -> Word:
    # the letter flip c -> n+1-c
    return Word(w.rank, tuple(w.rank + 1 - c for c in w.letters))


_FLIP_DELTA = str.maketrans("AD", "DA")


def _flipped_delta(delta: str | None) -> str | None:
    # A and D swapped; None, no GC delta, stays None
    return None if delta is None else delta.translate(_FLIP_DELTA)


def check_mirror_laws(n: int = 5) -> Report:
    """The letter flip c -> n+1-c (conjugation by w0, the diagram
    automorphism of type A_n) maps commutation classes to classes and swaps
    wires 1 and n+1, hence the ascending and descending chains.  So the
    flip of the GC poset of delta is the GC poset of flip(delta), the delta
    with A and D swapped, checked for every delta at ranks 2..8; and
    on every class of rank 1..n, the profile of the flipped class at
    flip(delta) is the class's profile at delta and its classification is
    the flipped one.  The flipped class is read through the flipped word, a
    second word of its class for the profile route."""

    def body():
        for m in range(2, 9):
            for letters in product("AD", repeat=m - 1):
                delta = "".join(letters)
                flipped = _flipped(lexmin_word(gc_poset_of_delta(delta)))
                if canonical_form(poset_of_word(flipped)) != gc_poset_of_delta(
                    _flipped_delta(delta)
                ):
                    return False, {"delta": delta, "word": str(flipped),
                                   "reason": "flip of the GC poset is not the GC poset of the flip"}
        for m in range(1, n + 1):
            for P in enumerate_commutation_classes(m):
                w = lexmin_word(P)
                F = poset_of_word(_flipped(w))
                profile, mirrored = full_profile(P), full_profile(F)
                for delta, vector in profile.items():
                    if mirrored[_flipped_delta(delta)] != vector:
                        return False, {"word": str(w), "delta": delta,
                                       "reason": "profile of the flip differs at the flipped delta"}
                if classify_gc(F) != _flipped_delta(classify_gc(P)):
                    return False, {"word": str(w), "reason": "classification of the flip"}
        return True, None

    return _run("mirror_laws", {"n": n}, body)


def projection_key(w: Word) -> tuple[tuple[int, ...], ...]:
    """The restrictions of w to each letter pair {i, i+1}.

    By the projection lemma for trace monoids (Cartier-Foata), two words
    are commutation-equivalent exactly when their keys are equal, so this
    identifies a commutation class without building its poset.

    >>> projection_key(Word(3, (1, 3, 2))) == projection_key(Word(3, (3, 1, 2)))
    True
    """
    letters = w.letters
    return tuple(
        tuple(x for x in letters if x == i or x == i + 1) for i in range(1, w.rank)
    )


def count_gc_words_brute(n: int) -> int:
    """Filter every reduced word of the longest element through the
    classifier, once per commutation class (memoized on projection_key).
    The slow oracle for gc(n); the production route never enumerates
    words."""
    verdicts: dict[object, bool] = {}
    hits = 0
    for w in enumerate_reduced_words(longest_element(n + 1)):
        key = projection_key(w)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = classify_gc(poset_of_word(w)) is not None
            verdicts[key] = verdict
        if verdict:
            hits += 1
    return hits


def gc_word_by_splices(delta: str) -> tuple[int, ...]:
    """The letters of the GC poset of delta by the splices themselves:
    from the one-letter word, splice a chain over the whole word for each
    letter of delta (`words._splice`), rank by rank.  The oracle of the
    one-pass word of `gc_poset_of_delta`.

    >>> gc_word_by_splices("AD")
    (2, 1, 2, 3, 2, 1)
    """
    letters: tuple[int, ...] = (1,)
    for rank, kind in enumerate(validate_delta(delta), 1):
        letters = _splice(letters, (), rank, kind)
    return letters


def gc_count_by_runs(delta: str) -> int:
    """The per-delta oracle of the recurrence: the number of words of the
    GC class of delta, one shifted tableau count per run of delta, top run
    first.  For delta of rank n (length n-1) whose last run has length L,
    e(P_delta) = g(n, n-1, ..., n-L+1) * e(P_delta'), where delta' is delta
    without that run, of rank n-L, e counts linear extensions and g is
    `thrall_g`; e = 1 at rank 1.  Summed over delta, the products regroup
    into `gc_recurrence`.

    >>> gc_count_by_runs("DD"), gc_count_by_runs("AD"), gc_count_by_runs("ADDD")
    (2, 1, 110)
    """
    n = len(validate_delta(delta)) + 1
    count = 1
    for _, run in groupby(reversed(delta)):
        length = len(list(run))
        count *= thrall_g(range(n, n - length, -1))
        n -= length
    return count


def check_recurrence_by_delta(n: int = 9) -> Report:
    """For every delta of rank 1..n, the linear extensions of the GC poset
    of delta number `gc_count_by_runs(delta)`, counted both by
    `count_linear_extensions`, the product over the poset's ordinal
    summands, and by the unsplit walk: the paper's recurrence holds as a
    product law on each GC poset, not only as a sum over the rank.  These
    are the counts `gc_direct` sums.  The word each GC poset records is
    checked first against `gc_word_by_splices(delta)`.  A counterexample
    carries the three counts and names under "differs" each count that no
    other count equals."""

    def body():
        for m in range(1, n + 1):
            for letters in product("AD", repeat=m - 1):
                delta = "".join(letters)
                P = gc_poset_of_delta(delta)
                recorded, spliced = P._reading[0].letters, gc_word_by_splices(delta)
                if recorded != spliced:
                    return False, {
                        "delta": delta,
                        "recorded_word": ",".join(map(str, recorded)),
                        "spliced_word": ",".join(map(str, spliced)),
                    }
                counts = {
                    "counted": count_linear_extensions(P),
                    "unsplit": count_linear_extensions_unsplit(P),
                    "by_runs": gc_count_by_runs(delta),
                }
                values = list(counts.values())
                if len(set(values)) > 1:
                    return False, {
                        "delta": delta,
                        "word": str(lexmin_word(P)),
                        **{name: str(count) for name, count in counts.items()},
                        "differs": [name for name, count in counts.items()
                                    if values.count(count) == 1],
                    }
        return True, None

    return _run("recurrence_by_delta", {"n": n}, body)


def check_table1(n_max: int = 8, brute_max: int = 5) -> Report:
    """gc(n) by recurrence and by direct linear-extension sums equals the
    reference table; additionally, up to brute_max, so do the word-by-word
    filter and the count of words enumerated through the linear extensions
    of the canonical GC posets."""
    if n_max >= len(GC_TABLE):
        raise DomainError(f"no reference values beyond n = {len(GC_TABLE) - 1}")

    def body():
        for n in range(n_max + 1):
            rec, direct = gc_recurrence(n), gc_direct(n)
            if not rec == direct == GC_TABLE[n]:
                return False, {
                    "n": n,
                    "recurrence": str(rec),
                    "direct": str(direct),
                    "table": str(GC_TABLE[n]),
                }
            if 1 <= n <= brute_max:
                brute = count_gc_words_brute(n)
                if brute != GC_TABLE[n]:
                    return False, {"n": n, "brute": str(brute), "table": str(GC_TABLE[n])}
                enumerated = sum(1 for _ in enumerate_gc_words(n, budget=n))
                if enumerated != GC_TABLE[n]:
                    return False, {
                        "n": n,
                        "enumerated": str(enumerated),
                        "table": str(GC_TABLE[n]),
                    }
        return True, None

    return _run("table1", {"n_max": n_max, "brute_max": brute_max}, body)


ALL_CHECKS: dict[str, Callable[..., Report]] = {
    "tits_connectivity": check_tits_connectivity,
    "class_poset_equivalence": check_class_poset_equivalence,
    "injectivity_theorem": check_injectivity_theorem,
    "contraction_laws": check_contraction_laws,
    "mirror_laws": check_mirror_laws,
    "recurrence_by_delta": check_recurrence_by_delta,
    "table1": check_table1,
}


def run_checks(names: list[str] | None = None, scale: int | None = None) -> list[Report]:
    """Run the named checks (all by default), overriding each one's scale
    parameter when given.  The scale of table1 is the largest n of the
    table; every other check takes a rank from 1 up to the larger of the
    brute-force budget and the rank it runs by default, since each
    enumerates all words, classes or GC posets of that rank."""
    selected = names or list(ALL_CHECKS)
    for name in selected:
        if name not in ALL_CHECKS:
            raise DomainError(
                f"unknown check {name!r}; available: {', '.join(sorted(ALL_CHECKS))}"
            )
        least = 0 if name == "table1" else 1
        if scale is not None and scale < least:
            raise DomainError(f"{name} needs a scale of at least {least}, not {scale}")
        if scale is None or name == "table1":
            continue
        default = inspect.signature(ALL_CHECKS[name]).parameters["n"].default
        if scale > max(default_budget(), default):
            raise BudgetExceeded(
                f"{name} at rank {scale} exceeds the budget {default_budget()} and "
                f"its default rank {default}; set GCWORDS_BUDGET to raise it"
            )
    reports = []
    for name in selected:
        check = ALL_CHECKS[name]
        if scale is None:
            reports.append(check())
        elif name == "table1":
            reports.append(check(n_max=scale))
        else:
            reports.append(check(n=scale))
    return reports
