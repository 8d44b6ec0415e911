"""Gelfand-Cetlin type classification and exact counting.

A word poset of the longest element is GC-type when some letter sequence
delta drives every stage index to zero; for rank >= 2 at most one of the two
stage indices vanishes, so a greedy scan classifies and the GC classes
biject with the 2^(n-1) sequences.  The number gc(n) of GC-type reduced
words is computed two independent ways: a recurrence weighted by shifted
standard Young tableau counts, and a direct sum of linear-extension counts
over the 2^(n-1) canonical posets.  All arithmetic is exact integers.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from math import factorial, prod

from .indices import _ranked, validate_delta
from .wiring import _at
from .word_poset import (
    WordPoset,
    _canonical_poset_of_word,
    count_linear_extensions,
    enumerate_commutation_classes,
)
from .words import DomainError


class BudgetExceeded(DomainError):
    """A brute-force route was asked to run beyond its configured budget."""


def default_budget() -> int:
    """Largest rank brute-force routes accept by default (env GCWORDS_BUDGET)."""
    text = os.environ.get("GCWORDS_BUDGET", "5")
    try:
        budget = int(text)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise DomainError(f"GCWORDS_BUDGET must be a nonnegative integer, not {text!r}")


def classify_gc(P: WordPoset) -> str | None:
    """The unique delta with an all-zero index vector, or None.  Rank 0
    has no delta and raises, as delta_index does.

    Greedy from the top rank: at each stage at most one of the two indices
    is zero (the top elements would otherwise have to form two opposite
    chains), so take it and contract, or fail.

    >>> from .words import standard_word
    >>> from .word_poset import poset_of_word
    >>> classify_gc(poset_of_word(standard_word(3)))
    'DD'
    """
    w = _ranked(P._word, "a classification")
    # the stage is wires lo..hi
    table = P._stage_table
    letters = []
    lo, hi = 1, w.rank + 1
    while hi - lo > 1:
        at = _at(lo, hi)
        a, d = table[at], table[at + 1]
        if a == 0 and d == 0:
            raise RuntimeError("internal error: both indices vanish above rank 1")
        if a and d:
            return None
        letters.append("A" if a == 0 else "D")
        lo, hi = (lo + 1, hi) if a == 0 else (lo, hi - 1)
    return "".join(reversed(letters))


def gc_poset_of_delta(delta: str) -> WordPoset:
    """The canonical GC-type word poset classified by delta.  Its word
    starts from the one-letter word and splices in a chain over the whole
    word, one letter of delta at a time (an extension over the full ideal):
    at rank r a D appends r+1, ..., 1, and an A shifts the word up a column
    and appends 1, ..., r+1.  So the word is those chains in order, each
    shifted up by the number of A's after it, and is written in one pass.
    An all-D delta gives the standard word.

    >>> classify_gc(gc_poset_of_delta("AD"))
    'AD'
    >>> from .word_poset import lexmin_word
    >>> str(lexmin_word(gc_poset_of_delta("DD")))
    '1,2,1,3,2,1'
    """
    validate_delta(delta)
    shift = delta.count("A")
    letters = [1 + shift]
    for rank, kind in enumerate(delta, 1):
        if kind == "A":
            shift -= 1
            letters.extend(range(1 + shift, rank + 2 + shift))
        else:
            letters.extend(range(rank + 1 + shift, shift, -1))
    return _canonical_poset_of_word(letters)


def validate_strict(mu) -> tuple[int, ...]:
    mu = tuple(mu)
    if not mu or any(part < 1 for part in mu):
        raise DomainError(f"parts must be positive: {mu}")
    if any(a <= b for a, b in zip(mu, mu[1:])):
        raise DomainError(f"partition {mu} is not strictly decreasing")
    return mu


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "4,3,1" into a validated strict partition."""
    try:
        parts = tuple(int(p) for p in text.strip().split(","))
    except ValueError:
        raise DomainError(f"malformed partition string {text!r}") from None
    return validate_strict(parts)


def thrall_g(mu) -> int:
    """Number of standard Young tableaux of shifted shape mu, by the product
    formula |mu|!/(mu_1!...mu_t!) * prod_{i<j} (mu_i-mu_j)/(mu_i+mu_j),
    evaluated as one exact division.

    >>> thrall_g((3, 2, 1))
    2
    >>> thrall_g((4, 3))
    5
    """
    mu = validate_strict(mu)
    t = len(mu)
    numerator = factorial(sum(mu)) * prod(
        mu[i] - mu[j] for i in range(t) for j in range(i + 1, t)
    )
    denominator = prod(factorial(part) for part in mu) * prod(
        mu[i] + mu[j] for i in range(t) for j in range(i + 1, t)
    )
    count, remainder = divmod(numerator, denominator)
    if remainder:
        raise RuntimeError(f"internal error: product formula not integral at {mu}")
    return count


@lru_cache(maxsize=None)
def gc_recurrence(n: int) -> int:
    """gc(n) by the recurrence over the length of the staircase strip added
    on top: gc(0) = gc(1) = 1 and

        gc(n) = sum_{i=1..n} g^(n, n-1, ..., n-i+1) * gc(n-i).

    >>> gc_recurrence(4)
    40
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n <= 1:
        return 1
    return sum(
        thrall_g(tuple(range(n, n - i, -1))) * gc_recurrence(n - i)
        for i in range(1, n + 1)
    )


def gc_direct(n: int) -> int:
    """gc(n) as the sum of linear-extension counts of the 2^(n-1) canonical
    GC posets; must agree with gc_recurrence.

    >>> gc_direct(5)
    916
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        return 1  # the empty word is the single word of the identity
    return sum(
        count_linear_extensions(gc_poset_of_delta("".join(letters)))
        for letters in product("AD", repeat=n - 1)
    )


def gc_table(n_max: int, class_budget: int | None = None) -> list[dict]:
    """Rows {n, gc_recurrence, gc_direct, classes_gc, classes_total} for
    0 <= n <= n_max.  The class columns come from enumerating commutation
    classes and classifying each, so they are filled only up to the budget.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if class_budget is None:
        class_budget = default_budget()
    rows = []
    for n in range(n_max + 1):
        row = {
            "n": n,
            "gc_recurrence": gc_recurrence(n),
            "gc_direct": gc_direct(n),
            "classes_gc": None,
            "classes_total": None,
        }
        if n == 0:
            row["classes_gc"] = 1
            row["classes_total"] = 1
        elif n <= class_budget:
            total = 0
            gc_count = 0
            for P in enumerate_commutation_classes(n):
                total += 1
                if classify_gc(P) is not None:
                    gc_count += 1
            row["classes_gc"] = gc_count
            row["classes_total"] = total
        rows.append(row)
    return rows
