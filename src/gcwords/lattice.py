"""The ideal lattice of a poset whose columns are chains, walked one level
per ideal size: the one walker behind counting linear extensions and the
class tree of `word_poset`.

An order ideal meets each column chain in a prefix, so its per-column
counts determine it, and one int packs them, one field per column
(`_ideal_fields`).  The walker reads a table of needs, not a poset: the
element at each height of each column is addable once its neighbour columns
hold enough elements.  Covers join adjacent columns, so every need names a
neighbour column, and the walker checks that it does.  Each ideal carries
its frontier, the bit set of its addable columns; adding an element to
column c changes only what columns c-1, c and c+1 read, so a successor's
frontier is its parent's with those three bits retested and the rest
copied.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .words import DomainError


def _ideal_fields(needs: Sequence[Sequence]) -> tuple[int, list[int]]:
    # The packed key's layout: one field per column, wide enough for the
    # longest column, column 0 the most significant, so that int order is
    # the lexicographic order of the per-column counts.  Returns the field
    # width and each column's shift.
    width = max(map(len, needs), default=0).bit_length()
    return width, [width * ci for ci in reversed(range(len(needs)))]


def _ideal_counts(needs: Sequence[Sequence]) -> Callable[[int], tuple[int, ...]]:
    # the decoder of the walker's keys on this table: key -> per-column counts
    width, shifts = _ideal_fields(needs)
    mask = (1 << width) - 1
    return lambda key: tuple(key >> shift & mask for shift in shifts)


# A frontier, the bit set of an ideal's addable columns (bit ci for column
# ci), -> those columns, ascending.  Filled on first use: the walks meet
# few distinct sets (89 after gc(0..9) and every class of rank 6), far
# fewer than the 2^n of a table per rank.  An entry depends on its bits
# alone, so every walk shares the map.
_FRONTIER_COLUMNS: dict[int, tuple[int, ...]] = {}


def _ideal_levels(
    needs: Sequence[Sequence[Sequence[tuple[int, int]]]],
) -> Iterator[dict[int, int]]:
    """The lattice of order ideals, one level per ideal size, smallest
    first.  A level maps each ideal to the number of ways to build it one
    element at a time (its linear extensions), the ideals in the order they
    are first reached: each ideal's successors by ascending column.  An
    ideal meets each column chain in a prefix, so its per-column counts
    determine it; its key packs them into one int, laid out by
    `_ideal_fields`.

    needs[ci][h] lists pairs (cj, m): the element at height h+1 of column
    ci is addable once column cj holds at least m elements.  len(needs[ci])
    is the length of column ci.  Every need names a neighbour column, cj =
    ci-1 or ci+1, as covers join adjacent columns; a table with any other
    need raises DomainError.

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
    # left and right neighbours' fields, each with the least count it must
    # hold for element h+1 to be addable, per count h (0 for no need), then
    # full, as no element is left
    tests = []
    start = 0  # the frontier of the empty ideal, where every count is 0
    for ci, rows in enumerate(needs):
        left = [0] * len(rows)
        right = left + [full]
        left.append(full)
        for h, row in enumerate(rows):
            for cj, m in row:
                if cj == ci - 1 and ci:
                    if m > left[h]:
                        left[h] = m
                elif cj == ci + 1 and ci < last:
                    if m > right[h]:
                        right[h] = m
                else:
                    raise DomainError(f"a need of column {ci} names column {cj}, not a neighbour")
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
