"""Wiring diagrams: one crossing per row, wires traced by simulation.

A word is its own wiring diagram, so every function here takes the `Word`.
Rows are numbered 1..l from the top.  Row j carries the single crossing of
the diagram in column i_j, swapping the wires at positions i_j, i_j+1.  For
a reduced word of the longest element, wire j ends at point n+2-j and any
two wires cross exactly once.  One pass records the row of each crossing
in a table, the production trace behind the chains and the indices: the
crossings met by wire 1 (resp. wire n+1) read the letters 1..n (resp.
n..1) and locate the ascending (resp. descending) chain of the word poset,
and running sums over that table fill the stage table, the indices of
every sub-arrangement on consecutive wires, from which every index,
delta-index vector, profile and classification is read.
The order on crossings by paths along the wires, which rebuilds the whole
word poset from a diagram, is an oracle in `verify`.
"""

from __future__ import annotations

from typing import Iterable

from .words import DomainError, Word


def wires(w: Word) -> tuple[tuple[int, ...], ...]:
    """wires[j-1] lists the rows where wire j crosses, top to bottom."""
    arrangement = list(range(1, w.rank + 2))
    met: list[list[int]] = [[] for _ in range(w.rank + 1)]
    for row, col in enumerate(w.letters, start=1):
        u, v = arrangement[col - 1], arrangement[col]
        met[u - 1].append(row)
        met[v - 1].append(row)
        arrangement[col - 1], arrangement[col] = v, u
    return tuple(tuple(rows) for rows in met)


def _crossings(w: Word) -> list[list[int]]:
    """rows[u][v] is the row where wires u != v in 1..n+1 cross, and
    rows[u][u] is 0.  Raises unless w is a reduced word of the longest
    element: n(n+1)/2 rows and no two wires crossing twice."""
    n = w.rank
    rows = [[0] * (n + 2) for _ in range(n + 2)]
    arrangement = list(range(1, n + 2))
    if len(w.letters) == n * (n + 1) // 2:
        for row, col in enumerate(w.letters, start=1):
            u, v = arrangement[col - 1], arrangement[col]
            if rows[u][v]:
                break
            rows[u][v] = rows[v][u] = row
            arrangement[col - 1], arrangement[col] = v, u
        else:
            return rows
    raise DomainError(f"{w} is not a reduced word of the longest element")


def _at(lo: int, hi: int) -> int:
    # where the stage on wires lo..hi keeps ind_A, ind_D following it.  The
    # stages are grouped by top wire hi, each group lo = 1..hi-1 ascending,
    # so a table on wires 1..m is a prefix of every table on more wires
    return (hi - 1) * (hi - 2) + 2 * (lo - 1)


def _stage_table(rows: list[list[int]]) -> list[int]:
    """(ind_A, ind_D) of the stage on wires lo..hi of the crossing table
    rows, for every stage, flat at _at(lo, hi), with 0 for the stages of
    fewer than three wires: n(n+1) entries at rank n, the 2(hi-1) entries of
    top wire hi after those of hi-1.  A stage's ind_A (ind_D) counts the
    crossings of two other wires that wire lo (hi) has crossed both of
    before they cross.  Adding wire hi to the stage on wires lo..hi-1 adds
    to ind_A each crossing of hi with an inner wire i that comes after wire
    lo has crossed both; adding wire lo to the stage on wires lo+1..hi adds
    to ind_D each crossing of lo with an inner wire i that comes after wire
    hi has crossed both.  So each stage costs one test per inner wire,
    O(n^3) for the table."""
    width = len(rows)
    table = [0] * _at(1, width)
    for hi in range(3, width):
        high, d = rows[hi], 0
        # the stage on wires lo..hi-1 sits `left` before the one on lo..hi,
        # and the one on lo+1..hi two after it
        at, left = _at(hi - 1, hi), 2 * (hi - 2)
        for lo in range(hi - 2, 0, -1):
            at -= 2
            # of the crossings of wires lo, hi and i in pairs, at rows x,
            # low[i] and high[i], the last counts for ind_A if it is that of
            # i with hi, for ind_D if it is that of i with lo
            low, a = rows[lo], 0
            x = low[hi]
            for i in range(lo + 1, hi):
                l, h = low[i], high[i]
                if l < h:
                    a += x < h
                else:
                    d += x < l
            table[at] = table[at - left] + a
            table[at + 1] = d
    return table


def _extended_stage_table(table: list[int], lower: Iterable[int], n: int) -> list[int]:
    """The stage table of the D-extension of a word of rank n-1 over one of
    its order ideals, from the word's stage table and the ideal's letters
    lower, in word order.  The extension runs lower on wires 1..n, then
    the new wire n+1 across all of them, then the rest of the word, so its
    stages on wires 1..n are the word's, and its table is the word's
    followed by the new diagonal, the 2n entries of the stages with top
    wire n+1.  Let c(lo) count the wires above lo that lo crosses in
    lower: wire lo crosses wire n+1 after those and before the rest.  So
    adding wire n+1 to the stage on wires lo..n adds c(lo) to ind_A, and
    adding wire lo to the stage on wires lo+1..n+1 adds to ind_D the
    n - lo - c(lo) wires above lo that it crosses after n+1.  O(|lower| + n)
    and one concatenation; the word's table is left as it is, since its
    other extensions read it too."""
    arrangement = list(range(n + 1))  # arrangement[c]: the wire at column c
    crossed = [0] * (n + 1)
    for c in lower:
        # the wire at column c is the lower of the two: they have not crossed
        u = arrangement[c]
        crossed[u] += 1
        arrangement[c], arrangement[c + 1] = arrangement[c + 1], u
    # the word's diagonal, the stages on wires lo..n, starts at top
    top, diagonal, d = _at(1, n), [0] * (2 * n), 0
    for lo in range(n - 1, 0, -1):
        at = 2 * (lo - 1)
        d += n - lo - crossed[lo]
        diagonal[at] = table[top + at] + crossed[lo]
        diagonal[at + 1] = d
    return table + diagonal


def chains_from_wires(w: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows of the crossings on wire 1 and on wire n+1.

    The two row sets locate the ascending and descending chains of the word
    poset (elements = positions).  Only defined on reduced words of the
    longest element.  Both are read off the crossing table: wire 1 crosses
    every other wire once, and so does wire n+1.

    >>> chains_from_wires(Word(3, (1, 2, 1, 3, 2, 1)))
    ((1, 2, 4), (4, 5, 6))
    """
    return _chain_rows(w, _crossings(w))


def _chain_rows(w: Word, rows: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # chains_from_wires on the crossing table rows of w
    n = w.rank
    a_rows, d_rows = sorted(rows[1][2:]), sorted(rows[n + 1][1 : n + 1])
    spelled = [w.letters[r - 1] for r in a_rows + d_rows]
    if spelled != [*range(1, n + 1), *range(n, 0, -1)]:
        raise RuntimeError(f"internal error: wires 1 and {n + 1} of {w} misread as {spelled}")
    return tuple(a_rows), tuple(d_rows)


def render_ascii(w: Word) -> str:
    """The diagram of w, one text line per row: '|' for wires running
    straight, 'X' between the two positions being swapped."""
    lines = []
    for col in w.letters:
        chars = ["|" if k % 2 == 0 else " " for k in range(2 * w.rank + 1)]
        chars[2 * col - 2] = " "
        chars[2 * col - 1] = "X"
        chars[2 * col] = " "
        lines.append("".join(chars).rstrip())
    return "\n".join(lines) + "\n"


def render_dot(w: Word) -> str:
    """The diagram of w: crossings on a (row, column) grid, one subgraph per
    row, with edges joining consecutive crossings along each wire."""
    lines = ["digraph wiring {", "  node [shape=point];"]
    for row, col in enumerate(w.letters, start=1):
        lines.append(f"  subgraph row{row} {{ c{row} [pos=\"{col},{-row}!\"]; }}")
    edges = set()
    for rows in wires(w):
        edges.update(zip(rows, rows[1:]))
    for a, b in sorted(edges):
        lines.append(f"  c{a} -> c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
