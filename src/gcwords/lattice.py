"""The ideal lattice of a poset whose columns are chains, walked one level
per ideal size: the one walker behind counting linear extensions and the
class tree of `word_poset`, and the count of linear extensions itself, by
ordinal summands.

An order ideal meets each column chain in a prefix, so its per-column
counts determine it, and one int packs them, one field per column
(`_ideal_fields`).  The walker reads a table of needs, not a poset: two
rows of counts per column, left and right, where the element at height h+1
of column c is addable once columns c-1 and c+1 hold left[h] and right[h]
elements.  A word's table (`_word_needs`) is one pass over its letters.
Covers join adjacent columns, so the two rows name every need an element
has; the first column has no left neighbour and the last no right one, and
the walker checks that their rows there are zero.  Each ideal carries its
frontier, the bit set of its addable columns; adding an element to column
c changes only what columns c-1, c and c+1 read, so a successor's frontier
is its parent's with those three bits retested and the rest copied.

Where a level of the lattice holds one ideal, the poset is the ordinal sum
of that ideal and the rest, and its linear extensions are the products of
theirs (Stanley, Enumerative Combinatorics I, 3.5).  So the count cuts a
word's poset at every such level (`_ordinal_cuts`, one pass over the
letters) and walks each summand of two or more elements once, up to
shift and flip: a GC poset splits at every run of its delta, many GC
posets share a summand, and the flip c -> m+1-c (conjugation by w0) of a
summand has the same order on its positions, so the same count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .words import DomainError


def _ideal_fields(
    needs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> tuple[int, list[int]]:
    # The packed key's layout: one field per column, wide enough for the
    # longest column, column 0 the most significant, so that int order is
    # the lexicographic order of the per-column counts.  Returns the field
    # width and each column's shift.
    width = max((len(left) for left, _ in needs), default=0).bit_length()
    return width, [width * ci for ci in reversed(range(len(needs)))]


# A frontier, the bit set of an ideal's addable columns (bit ci for column
# ci), -> those columns, ascending.  Filled on first use: the walks meet
# few distinct sets (89 after gc(0..9) and every class of rank 6), far
# fewer than the 2^n of a table per rank.  An entry depends on its bits
# alone, so every walk shares the map.
_FRONTIER_COLUMNS: dict[int, tuple[int, ...]] = {}


def _ideal_levels(
    needs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> Iterator[dict[int, int]]:
    """The lattice of order ideals, one level per ideal size, smallest
    first.  A level maps each ideal to the number of ways to build it one
    element at a time (its linear extensions), the ideals in the order they
    are first reached: each ideal's successors by ascending column.  An
    ideal meets each column chain in a prefix, so its per-column counts
    determine it; its key packs them into one int, laid out by
    `_ideal_fields`.

    needs[ci] is a pair of rows (left, right), each as long as column ci:
    the element at height h+1 of column ci is addable once column ci-1
    holds at least left[h] elements and column ci+1 at least right[h] (0
    for no need).  Column 0 has no left neighbour and the last column no
    right one, so a table with rows of unequal length, a nonzero left need
    in column 0 or a nonzero right need in the last column raises
    DomainError.

    Each ideal carries its frontier, the bit set of its addable columns.
    Adding an element to column ci changes the count of ci alone, which
    only the needs of columns ci-1, ci and ci+1 read.  So a successor's
    frontier is its parent's with those three bits retested, and the rest
    copied, instead of every column tested at every ideal."""
    width, shifts = _ideal_fields(needs)
    mask = (1 << width) - 1
    full = mask + 1  # more than any count
    last = len(needs) - 1
    # per column: its frontier bit, its field's shift, and the shifts of its
    # left and right neighbours' fields, each with its row of needs, then
    # full, as no element is left
    tests = []
    start = 0  # the frontier of the empty ideal, where every count is 0
    for ci, (left, right) in enumerate(needs):
        if len(left) != len(right):
            raise DomainError(f"the need rows of column {ci} differ in length")
        if ci == 0 and any(left):
            raise DomainError("column 0 needs a column left of it")
        if ci == last and any(right):
            raise DomainError(f"column {ci} needs a column right of it")
        left = [*left, full]
        right = [*right, full]
        tests.append(
            (1 << ci, shifts[ci], shifts[ci - 1] if ci else 0, left,
             shifts[ci + 1] if ci < last else 0, right)
        )
        if not left[0] and not right[0]:
            start |= 1 << ci
    # per column: the step that adds its next element, the mask that clears
    # its bit and its neighbours', and their tests
    steps = [1 << shift for shift in shifts]
    clears = [~(7 << ci >> 1) for ci in range(len(needs))]
    retests = [tests[max(ci - 1, 0) : ci + 2] for ci in range(len(needs))]
    columns_of = _FRONTIER_COLUMNS
    # the frontiers of the ideals of this level and the next
    level, fronts = {0: 1}, {0: start}
    pop = fronts.pop
    while level:
        yield level
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, ways in level.items():
            bits = pop(key)
            columns = columns_of.get(bits)
            if columns is None:
                columns = tuple(ci for ci in range(bits.bit_length()) if bits >> ci & 1)
                columns_of[bits] = columns
            for ci in columns:
                succ = key + steps[ci]
                seen = get(succ)
                if seen is None:
                    nxt[succ] = ways
                    b = bits & clears[ci]
                    for bit, shift, lshift, left, rshift, right in retests[ci]:
                        h = succ >> shift & mask
                        if succ >> lshift & mask >= left[h] and succ >> rshift & mask >= right[h]:
                            b |= bit
                    fronts[succ] = b
                else:
                    nxt[succ] = seen + ways
        level = nxt


def _word_needs(letters: Sequence[int], rank: int) -> list[tuple[list[int], list[int]]]:
    # The walker's table of a reduced word with letters in 1..rank, a column
    # the word does not use left empty: per column c, the rows (left, right)
    # count the occurrences of c-1 and c+1 before each occurrence of c.
    needs = [([], []) for _ in range(rank)]
    seen = [0] * (rank + 2)
    for c in letters:
        left, right = needs[c - 1]
        left.append(seen[c - 1])
        right.append(seen[c + 1])
        seen[c] += 1
    return needs


def _ordinal_cuts(letters: Sequence[int]) -> list[int]:
    # The sizes 0 < k < l of the levels holding one ideal in the lattice of
    # the word poset of a reduced word of length l, ascending: there the
    # poset is the ordinal sum of its first k positions and the rest.  The
    # word is a linear extension, so its prefixes are ideals, and the
    # prefix of size k is the only ideal of its size exactly when every
    # later position lies above all of it.  A position's down-set mask is
    # its own bit or the masks of the latest c-1, c and c+1 before it; the
    # run of low ones of a mask counts the prefix below it, so a cut lies
    # before k when that run is at least k at k and at every later position.
    below = [0] * (max(letters, default=0) + 2)
    runs = []
    for k, c in enumerate(letters):
        mask = 1 << k | below[c - 1] | below[c] | below[c + 1]
        below[c] = mask
        runs.append((~mask & mask + 1).bit_length() - 1)
    cuts, least = [], len(letters)
    for k in range(len(letters) - 1, 0, -1):
        if runs[k] < least:
            least = runs[k]
        if least >= k:
            cuts.append(k)
    cuts.reverse()
    return cuts


# The number of distinct summands the count remembers, up to shift and
# flip.  gc(0..9) meets 28 and gc(0..12) 55, so every GC summand of the
# tables stays; other posets evict the least recently counted.
_SUMMANDS = 256


@lru_cache(maxsize=_SUMMANDS)
def _summand_count(letters: tuple[int, ...]) -> int:
    # the linear extensions of the word poset of one ordinal summand, its
    # letters shifted to start at column 1: the ways to the full ideal
    for level in _ideal_levels(_word_needs(letters, max(letters))):
        pass  # the last level holds the full ideal alone
    (total,) = level.values()
    return total


def _extension_count(letters: Sequence[int]) -> int:
    # the linear extensions of the word poset of a reduced word: the product
    # over its ordinal summands, a one-letter summand counting 1 unwalked.
    # A summand is an interval of the ordinal sum, so its order is the word
    # poset of its own letters.  The flip c -> high - c keeps which letters
    # differ by one, so it keeps that order on the positions, and a summand
    # and its flip share one key, the lesser of the two shifted to start at 1.
    total, start = 1, 0
    for end in (*_ordinal_cuts(letters), len(letters)):
        if end - start > 1:
            summand = letters[start:end]
            low, high = min(summand) - 1, max(summand) + 1
            up = tuple(c - low for c in summand)
            down = tuple(high - c for c in summand)
            total *= _summand_count(min(up, down))
        start = end
    return total
