"""Word posets: a finite poset on {1..l} with a column function.

The poset of a reduced word relates two positions when their letters differ
by one; linear extensions of the poset read back exactly the words of the
commutation class.  Elements in one column always form a chain, which makes
three things cheap.  A word's poset takes O(l) steps on a reduced word:
for position k with letter c, let a, b and p be the latest c-1, c+1 and c
before k; the covers of k are a and b, less the lower of the two when p
lies above it.  The canonical relabeling (by column, then height in the
column) is forced, and it is read off the letters of any word of the
class: the j-th occurrence of c.  And an ideal is fixed by its per-column
counts, which one int packs, one field per column.  One walker of the
ideal lattice on such keys, `lattice._ideal_levels`, serves counting linear
extensions, by ordinal summands cut off the word, and enumerating and
counting commutation classes by word splices.  It reads a word's table
(`lattice._word_needs`), one pass over the letters: per column c, two rows
counting the occurrences of c-1 and of c+1 before each occurrence of c,
the only columns an element needs.  The lexmin word is one greedy walk
over the same table.  The splices form a
class tree: each class of rank n is spliced from one class of rank n-1,
and inherits its stage table, extended by the stages of the new wire.
Each class's word in the tree is its lexmin word (the lemma on
`_class_words`), so `gcwords classes` prints the tree's words as they are.

Every poset reads its letters through one word of its class, `_word`, and
its elements through `_labels`, the element at each position of that word.
A poset built from a word (by `poset_of_word`, or as the canonical poset
of a class word, both through `_recorded_poset`) keeps that word, builds
its covers off it on first read and skips the checks of the public
constructor, which cannot fail on it.  `poset_of_word` records the columns
and labels too; a canonical poset records its word alone, and builds its
columns (its letters, sorted) and labels (the j-th occurrence of c) on
first read, which counting, classifying and profiling never do.  Any other
poset, a copy of one of those included, walks its covers once
(`_extension`) for its lexmin word, and is checked to be that word's
poset.  The column chains, the canonical form, the extension count and
the lexmin word read the word, and take the rank from it.  The chain,
ideal and contraction routes read the crossing table cached beside it,
and the index, profile and classification routes the one stage table
cached beside that: their answers are the same on every word of the
class.  A class poset of `enumerate_commutation_classes` comes with the
stage table its class tree extended, so it builds a crossing table only
when a chain, ideal or contraction route reads one.

The strict order and its down-set masks, the ideal test, the stream of all
linear extensions and the ideals by a breadth-first search over bitmasks
serve only the oracles, and live in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import not_
from typing import Iterator, Sequence

from .lattice import _extension_count, _ideal_fields, _ideal_levels, _word_needs
from .wiring import _crossings, _extended_stage_table, _stage_table
from .words import DomainError, Word, is_reduced, standard_word


class _BuiltOnFirstRead:
    # WordPoset.columns and .covers: a value an instance holds wins over this
    # non-data descriptor; a poset that records its word and not the value
    # builds it off the word on first read and keeps it.  Only a canonical
    # poset records no columns, and they list its letters, sorted.
    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, P, owner=None):
        if P is None or "_word" not in P.__dict__:
            raise AttributeError(self.name)  # on the class too: no default
        letters = P._word.letters
        if self.name == "columns":
            value = tuple(sorted(letters))
        else:
            value = tuple(sorted(_word_covers(letters, (0, *P._labels))))
        P.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class WordPoset:
    """Poset on elements 1..size; columns[k-1] is the column of element k.

    covers is the sorted tuple of covering pairs (x, y) with x covered by y.
    Every covering pair joins adjacent columns.  A poset built from a word
    builds its covers on first read, and a canonical poset its columns too,
    so they still set ==, hash and repr.
    """

    columns: tuple[int, ...] = _BuiltOnFirstRead()
    covers: tuple[tuple[int, int], ...] = _BuiltOnFirstRead()

    def __post_init__(self):
        object.__setattr__(self, "covers", tuple(sorted(self.covers)))
        size = len(self.columns)
        for col in self.columns:
            if col < 1:
                raise DomainError(f"column {col} must be positive")
        previous = None
        for x, y in self.covers:
            if not (1 <= x <= size and 1 <= y <= size) or x == y:
                raise DomainError(f"cover ({x},{y}) outside ground set 1..{size}")
            if (x, y) == previous:
                raise DomainError(f"cover ({x},{y}) repeated")
            previous = x, y
            if abs(self.columns[x - 1] - self.columns[y - 1]) != 1:
                raise DomainError(
                    f"cover ({x},{y}) joins non-adjacent columns "
                    f"{self.columns[x - 1]},{self.columns[y - 1]}"
                )

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def rank(self) -> int:
        # A recorded word is at the poset's rank.  The walk for _word of a
        # poset that records none reads the rank, so that one scans columns.
        w = self.__dict__.get("_word")
        return max(self.columns, default=0) if w is None else w.rank

    @cached_property
    def _word(self) -> Word:
        """A word of this poset's class, at the poset's rank.
        _recorded_poset, which builds every poset from a word, sets it to
        that word, a word of the poset by construction.  Any other poset, a
        copy included, walks its covers once, least column first, for its
        lexmin word, checked to have this poset as its poset: the covers,
        relabeled by position in that extension, must be the covers of
        poset_of_word.  The walk also sets _labels.  A failed check raises
        and is not cached."""
        extension = _extension(self, key=lambda k: (self.columns[k - 1], k))
        w = word_of_extension(self, extension)
        row = {k: r for r, k in enumerate(extension, start=1)}
        if tuple(sorted((row[x], row[y]) for x, y in self.covers)) != poset_of_word(w).covers:
            raise DomainError(f"poset is not the word poset of its word {w}")
        self.__dict__["_labels"] = extension
        return w

    @cached_property
    def _labels(self) -> Sequence[int]:
        """The element at each position of _word: element labels[r-1] sits
        at row r.  poset_of_word records them, and the walk of a poset that
        records no word sets them.  A canonical poset builds them on first
        read: its elements are its word's positions sorted by letter, and
        sorting is stable, so the j-th occurrence of c is the j-th element
        of column c."""
        letters = self._word.letters
        if "_labels" in self.__dict__:  # set by the walk for _word
            return self.__dict__["_labels"]
        labels = [0] * len(letters)
        for k, r in enumerate(sorted(range(len(letters)), key=letters.__getitem__), start=1):
            labels[r] = k
        return tuple(labels)

    @cached_property
    def _crossing_table(self) -> list[list[int]]:
        """The crossing table of _word (`wiring._crossings`),
        which the chain, ideal, contraction and extension routes read.
        Raises, uncached, unless that word is a reduced word of the
        longest element."""
        return _crossings(self._word)

    @cached_property
    def _stage_table(self) -> list[int]:
        """The stage table of the crossing table (`wiring._stage_table`),
        which the index, delta-index, profile and classification routes
        read.  Raises, uncached, as _crossing_table does.
        enumerate_commutation_classes seeds it from the class tree."""
        return _stage_table(self._crossing_table)

    @cached_property
    def column_chains(self) -> dict[int, tuple[int, ...]]:
        """Elements of each column, bottom to top: the j-th occurrence of c
        in the poset's word is the j-th element of column c."""
        chains: dict[int, list[int]] = {}
        for c, k in zip(self._word.letters, self._labels):
            chains.setdefault(c, []).append(k)
        return {c: tuple(chains[c]) for c in sorted(chains)}


def _word_covers(letters: Sequence[int], label: Sequence[int]) -> list[tuple[int, int]]:
    # Covers of the word poset of a reduced word, naming position k (from 1)
    # label[k].  For position k with letter c, let a, b and p be the latest
    # c-1, c+1 and c before k (0 for none).  The occurrences of one letter
    # form a chain, so everything below k lies below a or b, and those two
    # are its covers, less the lower of the two when p lies above it: a lies
    # below b only through an occurrence of c between them, and p does not
    # follow both, or only commuting letters would part p from k.
    last = [0] * (max(letters, default=0) + 2)
    covers = []
    for k, c in enumerate(letters, start=1):
        a, b, p = last[c - 1], last[c + 1], last[c]
        if a and not b > a < p:
            covers.append((label[a], label[k]))
        if b and not a > b < p:
            covers.append((label[b], label[k]))
        last[c] = k
    return covers


def _recorded_poset(
    w: Word, columns: tuple[int, ...] | None = None, labels: Sequence[int] | None = None
) -> WordPoset:
    # The one place a poset is built from a word: the word poset of the
    # reduced word w, with the given columns and the element at each
    # position of w, or, when neither is given, the canonical poset of w.
    # It records w as its word, and leaves its covers, and a canonical
    # poset its columns and labels, to their first read (_BuiltOnFirstRead,
    # WordPoset._labels).  Valid by construction, so it skips the checks of
    # WordPoset(columns, covers).
    P = object.__new__(WordPoset)
    fields = P.__dict__
    fields["_word"] = w
    if columns is not None:
        fields["columns"] = columns
        fields["_labels"] = labels
    return P


def poset_of_word(w: Word) -> WordPoset:
    """The word poset of a reduced word: position j precedes position k when
    j < k and the letters at j, k differ by one.

    >>> poset_of_word(standard_word(2)).covers
    ((1, 2), (2, 3))
    """
    if not is_reduced(w):
        raise DomainError(f"word {w} is not reduced")
    letters = w.letters
    # recorded at the poset's rank, as the lexmin word is: the routes that
    # read it check that it is a word of the longest element of that rank
    rank = max(letters, default=0)
    if w.rank != rank:
        w = Word(rank, letters)
    P = _recorded_poset(w, tuple(letters), range(1, len(letters) + 1))
    # read now while bench/test_bench.py::test_probes_run_on_cold_copies pins
    P.covers  # "covers" in vars(P); its mend (ROADMAP 1a) deletes this line
    return P


def _canonical_poset_of_word(letters: Sequence[int]) -> WordPoset:
    # canonical_form(poset_of_word(w)) for a reduced word w: it records the
    # word alone, and builds its columns and labels off it on first read
    return _recorded_poset(Word._unchecked(max(letters, default=0), tuple(letters), None))


def canonical_form(P: WordPoset) -> WordPoset:
    """Relabel elements by (column, height in column); isomorphic word posets
    and only those get identical canonical forms, since any isomorphism must
    send the k-th element of a column chain to the k-th element of the same
    column chain.
    """
    return _canonical_poset_of_word(P._word.letters)


def is_isomorphic(P: WordPoset, Q: WordPoset) -> bool:
    """Column-preserving poset isomorphism, decided via canonical forms."""
    return canonical_form(P) == canonical_form(Q)


def count_linear_extensions(P: WordPoset) -> int:
    """Exact number of linear extensions: the product over the ordinal
    summands of the poset's word of the ways to reach each one's full ideal
    (`lattice._extension_count`), each distinct summand walked once.

    >>> count_linear_extensions(poset_of_word(standard_word(3)))
    2
    """
    return _extension_count(P._word.letters)


def _extension(P: WordPoset, key) -> tuple[int, ...]:
    """The linear extension that repeatedly takes the key-least element
    whose lower covers are all placed: for a key that separates elements,
    the least extension under key, compared element by element."""
    waiting = [0] * P.size
    ups: list[list[int]] = [[] for _ in range(P.size)]
    for x, y in P.covers:
        waiting[y - 1] += 1
        ups[x - 1].append(y)
    ready = [(key(k), k) for k in range(1, P.size + 1) if not waiting[k - 1]]
    heapify(ready)
    order = []
    while ready:
        k = heappop(ready)[1]
        order.append(k)
        for up in ups[k - 1]:
            waiting[up - 1] -= 1
            if not waiting[up - 1]:
                heappush(ready, (key(up), up))
    if len(order) != P.size:
        raise DomainError("covering relation contains a cycle")
    return tuple(order)


def lexmin_word(P: WordPoset) -> Word:
    """Least word of the commutation class, in the letter order: the greedy
    walk over the poset's word's table that always adds to the least column
    c whose next element, at height h, columns c-1 and c+1 allow.

    >>> str(lexmin_word(poset_of_word(standard_word(3))))
    '1,2,1,3,2,1'
    """
    w = P._word
    needs = _word_needs(w.letters, w.rank)
    held = [0] * (w.rank + 2)
    letters, c = [], 1
    for _ in w.letters:
        # adding to c changed what c-1..c+1 read only: no column below c-1 opened
        for c in range(max(c - 1, 1), w.rank + 1):
            left, right = needs[c - 1]
            h = held[c]
            if h < len(left) and held[c - 1] >= left[h] and held[c + 1] >= right[h]:
                break
        held[c] += 1
        letters.append(c)
    return Word._unchecked(w.rank, tuple(letters), None)


def word_of_extension(P: WordPoset, extension: Sequence[int]) -> Word:
    """Read off column labels along a linear extension."""
    return Word(P.rank, tuple(P.columns[k - 1] for k in extension))


def _class_words(n: int, staged: bool) -> Iterator[tuple[tuple[int, ...], list[int] | None]]:
    # The class tree: one letter word per commutation class at rank n, with
    # its stage table when staged and None otherwise.  Every rank-n class
    # is the D-extension of one rank-(n-1) class Q over one ideal of Q, and
    # each such pair gives a different class, so splicing a fresh descending
    # chain into each word of the rank below, over each ideal of its poset,
    # meets every class once: the ideal's letters, the first counts[c-1]
    # occurrences of each letter c in word order, then the chain n..1, then
    # the other letters raised a column.  Each parent tells, for each of
    # its positions, the ideal fields that hold it (its column's field in
    # the walker's key above its height), so an ideal takes one pass to
    # pick its letters.  Stage tables are laid out by top wire, so a
    # child's is its parent's followed by the stages of the new wire
    # (`wiring._extended_stage_table`): each table is built once, from the
    # one above it, and the tree holds one word and table per rank.
    #
    # Each tree word is its class's lexmin word, the greedy walk that always
    # takes the least free column, by induction from () and this lemma: if v
    # is lexmin and I an ideal with complement F, the splice is lexmin.  v on
    # I is greedy on I: what is free in I is free in v.  v on F is greedy on
    # F: were x taken while y in F, of a smaller column, is free in F, a
    # minimal unplaced z below y lies in I and is free in v, so col y < col x
    # < col z, and a path from z up to y meets column x at an unplaced
    # element, so above x, putting x below y.  In the splice the chain and
    # upper lie above the chain's top, of column n, so the walk takes lower
    # first; then the chain, as an upper element of column c lies above the
    # chain's c-1, so is free only once the chain is past it; then upper, in
    # F's order.
    if n == 0:
        # one wire: no stage
        yield (), ([] if staged else None)
        return
    chain = tuple(range(n, 0, -1))
    for v, table in _class_words(n - 1, staged):
        needs = _word_needs(v, n - 1)
        width, shifts = _ideal_fields(needs)
        mask = (1 << width) - 1
        # per position: its column's field in a key, and the height below
        # which that field's count must reach for the ideal to hold it
        fields, seen = [], [0] * (n + 1)
        for c in v:
            shift = shifts[c - 1]
            fields.append((mask << shift, seen[c] << shift))
            seen[c] += 1
        raised = [c + 1 for c in v]
        for level in _ideal_levels(needs):
            for key in level:
                inside = [key & field > height for field, height in fields]
                yield (
                    (*compress(v, inside), *chain, *compress(raised, map(not_, inside))),
                    _extended_stage_table(table, compress(v, inside), n) if staged else None,
                )


def enumerate_commutation_classes(n: int) -> Iterator[WordPoset]:
    """One canonical word poset per commutation class of the longest element,
    each once.  The classes are built by word splices: each class of rank n
    extends one class of rank n-1 by a descending chain over one of its
    order ideals.  Each poset records its class's lexmin word, its word in
    the class tree, and comes with its stage table, extended from its
    parent's, so the index, profile and classification routes build no
    crossing or stage table for it.  Holds O(n) words and stage tables at
    a time and never materializes the words of a class.

    >>> sum(1 for _ in enumerate_commutation_classes(3))
    8
    """
    if n < 1:
        raise DomainError(f"rank must be positive, got {n}")
    for letters, table in _class_words(n, staged=True):
        # canonical_form of the class, recorded at its known rank
        P = _recorded_poset(Word._unchecked(n, letters, None))
        # the cached_property's value: the table of the word P records
        P.__dict__["_stage_table"] = table
        yield P


def count_commutation_classes(n: int) -> int:
    """The number of commutation classes of the longest element at rank n
    (OEIS A006245), without building a class: the rank-n classes biject
    with the pairs (rank-(n-1) class, order ideal of it), so this sums the
    ideal counts of the classes one rank down.

    >>> count_commutation_classes(4)
    62
    """
    if n < 1:
        raise DomainError(f"rank must be positive, got {n}")
    return sum(
        len(level)
        for v, _ in _class_words(n - 1, staged=False)
        for level in _ideal_levels(_word_needs(v, n - 1))
    )


def render_dot(P: WordPoset) -> str:
    """Hasse diagram in DOT.  Node k is pinned at x = column; y grows with
    the longest chain below, so `neato -n` reproduces the usual picture.
    Output is byte-stable for equal posets."""
    row = {k: r for r, k in enumerate(P._labels)}
    height = [1] * P.size
    for x, y in sorted(P.covers, key=lambda cover: row[cover[1]]):
        height[y - 1] = max(height[y - 1], height[x - 1] + 1)
    lines = ["digraph wordposet {", "  rankdir=BT;", "  node [shape=circle];"]
    for k in range(1, P.size + 1):
        lines.append(
            f'  n{k} [label="{k}", pos="{P.columns[k - 1]},{height[k - 1]}!"];'
        )
    for x, y in P.covers:
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
