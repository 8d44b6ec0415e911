"""Independent reference computations for the benchmark's answer checks.

Nothing here imports gcwords: every value the benchmark compares the
program's answers with is either published (the paper's gc table, OEIS
A006245) or recomputed here by a different route than the program uses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, prod

# gc(n) for n = 0..8 as published in the paper's table.
GC_PUBLISHED = (1, 1, 2, 6, 40, 916, 102176, 68464624, 317175051664)

# Commutation classes of reduced words of w0 in S_{n+1} (OEIS A006245).
CLASS_COUNTS = {1: 1, 2: 2, 3: 8, 4: 62, 5: 908, 6: 24698}


def w0(n: int) -> tuple[int, ...]:
    """The longest element of S_{n+1} in one-line notation."""
    return tuple(range(n + 1, 0, -1))


def perm_of_letters(letters, n: int) -> tuple[int, ...]:
    """One-line notation of s_{i_1} ... s_{i_l} acting on positions.

    >>> perm_of_letters((1, 2, 1), 2)
    (3, 2, 1)
    """
    p = list(range(1, n + 2))
    for i in letters:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def is_w0_word(letters, n: int) -> bool:
    """True iff letters is a reduced word of w0 in S_{n+1}: a word of
    length l(w0) = n(n+1)/2 that multiplies to w0 has no shorter expression.

    >>> is_w0_word((1, 2, 1), 2), is_w0_word((1, 2, 2), 2)
    (True, False)
    """
    return (
        len(letters) == n * (n + 1) // 2
        and all(1 <= i <= n for i in letters)
        and perm_of_letters(letters, n) == w0(n)
    )


def stanley_count(n: int) -> int:
    """Number of reduced words of w0 in S_{n+1}: Stanley's formula, the
    number of standard Young tableaux of the staircase (n, n-1, ..., 1),
    by the hook-length formula.

    >>> [stanley_count(n) for n in range(1, 6)]
    [1, 2, 16, 768, 292864]
    """
    shape = list(range(n, 0, -1))
    hooks = []
    for i, row in enumerate(shape):
        for j in range(row):
            leg = sum(1 for below in shape[i + 1 :] if below > j)
            hooks.append(row - j - 1 + leg + 1)
    return factorial(sum(shape)) // prod(hooks)


def thrall(mu) -> int:
    """Standard Young tableaux of shifted strict shape mu, by Thrall's
    product formula |mu|!/prod(mu_i!) * prod_{i<j} (mu_i-mu_j)/(mu_i+mu_j).

    >>> thrall((3, 2, 1)), thrall((4, 3))
    (2, 5)
    """
    value = Fraction(factorial(sum(mu)), prod(factorial(part) for part in mu))
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            value *= Fraction(mu[i] - mu[j], mu[i] + mu[j])
    if value.denominator != 1:
        raise ArithmeticError(f"shifted tableau count of {mu} is not an integer")
    return value.numerator


def gc_reference(top: int) -> list[int]:
    """gc(0..top) by the paper's recurrence
    gc(n) = sum_{i=1..n} g^(n, n-1, ..., n-i+1) gc(n-i), gc(0) = gc(1) = 1.

    >>> gc_reference(5)
    [1, 1, 2, 6, 40, 916]
    """
    gc = [1, 1]
    for n in range(2, top + 1):
        gc.append(
            sum(thrall(tuple(range(n, n - i, -1))) * gc[n - i] for i in range(1, n + 1))
        )
    return gc[: top + 1]


def random_w0_word(n: int, rng: random.Random) -> tuple[int, ...]:
    """A reduced word of w0 in S_{n+1}, built by repeatedly peeling a
    uniformly chosen left descent i (i+1 stands before i) off the remaining
    permutation.  Not uniform over words."""
    p = list(w0(n))
    letters = []
    while True:
        where = {value: index for index, value in enumerate(p)}
        descents = [i for i in range(1, n + 1) if where[i] > where[i + 1]]
        if not descents:
            return tuple(letters)
        i = rng.choice(descents)
        letters.append(i)
        a, b = where[i], where[i + 1]
        p[a], p[b] = p[b], p[a]


def wire_indices(letters, n: int) -> tuple[int, int]:
    """(ind_A, ind_D) of the class of a reduced word of w0, from a wire
    simulation: the wire entering at position 1 (resp. n+1) crosses once in
    each column, and an index counts the later crossings in the column of
    each crossing on that wire.

    >>> wire_indices((1, 2, 1, 3, 2, 1), 3)
    (3, 0)
    """
    later = [0] * len(letters)
    seen = [0] * (n + 2)
    for row in range(len(letters) - 1, -1, -1):
        later[row] = seen[letters[row]]
        seen[letters[row]] += 1
    indices = []
    for position in (1, n + 1):
        total = 0
        for row, i in enumerate(letters):
            if position in (i, i + 1):
                position = 2 * i + 1 - position
                total += later[row]
        indices.append(total)
    return indices[0], indices[1]


def class_key(letters, n: int) -> tuple[tuple[int, ...], ...]:
    """A commutation-class key: the restrictions of the word to each pair of
    non-commuting letters {i, i+1} (projection lemma for trace monoids).

    >>> class_key((1, 3, 2), 3) == class_key((3, 1, 2), 3)
    True
    """
    return tuple(
        tuple(letter for letter in letters if letter in (i, i + 1)) for i in range(1, n)
    )


def linear_extension_word(columns, covers) -> tuple[int, ...]:
    """A word of the class of a word poset: the columns read along the
    smallest-label-first topological order of its covering relation."""
    size = len(columns)
    ups = [[] for _ in range(size + 1)]
    indegree = [0] * (size + 1)
    for x, y in covers:
        ups[x].append(y)
        indegree[y] += 1
    ready = [k for k in range(1, size + 1) if indegree[k] == 0]
    order = []
    while ready:
        ready.sort(reverse=True)
        k = ready.pop()
        order.append(k)
        for y in ups[k]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    if len(order) != size:
        raise ValueError("covering relation has a cycle")
    return tuple(columns[k - 1] for k in order)
