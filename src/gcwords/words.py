"""Words in the simple transpositions s_1..s_n and permutation arithmetic.

A word is a finite sequence of letters in [n]; it evaluates to a permutation
of {1..n+1}.  Permutations are plain tuples in one-line notation with values
1..m.  The product convention is fixed once and used everywhere:

    perm_of_word((i_1, ..., i_l)) = s_{i_1} * s_{i_2} * ... * s_{i_l}

where s_i is the transposition (i, i+1) and (u*v)(x) = u(v(x)).  Equivalently,
the product is built by left-multiplying value swaps, so

    >>> perm_of_word(Word(2, (1, 2, 1)))
    (3, 2, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


class DomainError(ValueError):
    """Input violates a documented precondition."""


Perm = tuple[int, ...]


@dataclass(frozen=True)
class Word:
    """A sequence of letters drawn from 1..rank.

    Words of the longest element of S_{rank+1} have length rank*(rank+1)/2,
    but arbitrary letter sequences are allowed here.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise DomainError(f"rank must be nonnegative, got {self.rank}")
        for pos, letter in enumerate(self.letters, start=1):
            if not 1 <= letter <= self.rank:
                raise DomainError(
                    f"letter {letter} at position {pos} out of range 1..{self.rank}"
                )

    @classmethod
    def _unchecked(cls, rank: int, letters: tuple[int, ...], text: str | None) -> Word:
        # For callers whose letters lie in 1..rank by construction: skips
        # the range check and keeps `text`, the comma format of `letters`,
        # as the word's str().
        w = object.__new__(cls)
        fields = w.__dict__
        fields["rank"] = rank
        fields["letters"] = letters
        fields["_text"] = text
        return w

    def __str__(self) -> str:
        text = self.__dict__.get("_text")
        return ",".join(map(str, self.letters)) if text is None else text

    def __len__(self) -> int:
        return len(self.letters)


def word(letters: Sequence[int], rank: int | None = None) -> Word:
    """Build a Word, inferring the rank from the largest letter if absent."""
    letters = tuple(letters)
    if rank is None:
        if not letters:
            raise DomainError("cannot infer the rank of an empty word")
        for pos, letter in enumerate(letters, start=1):
            if letter < 1:
                raise DomainError(f"letter {letter} at position {pos} is not positive")
        rank = max(letters)
    return Word(rank, letters)


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse the comma format, e.g. "1,2,1" -> Word(2, (1, 2, 1))."""
    text = text.strip()
    if not text:
        raise DomainError("empty word string")
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"malformed word string {text!r}") from None
    return word(letters, rank)


def longest_element(m: int) -> Perm:
    """The order-reversing permutation m, m-1, ..., 1 of S_m."""
    return tuple(range(m, 0, -1))


def is_permutation(seq: Sequence[int]) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def parse_perm(text: str) -> Perm:
    """Parse bracketed one-line notation, e.g. "[4,3,2,1]"."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DomainError(f"permutation must be bracketed one-line notation: {text!r}")
    try:
        p = tuple(int(part) for part in text[1:-1].split(","))
    except ValueError:
        raise DomainError(f"malformed permutation string {text!r}") from None
    if not is_permutation(p):
        raise DomainError(f"{text} is not a permutation of 1..{len(p)}")
    return p


def perm_of_word(w: Word) -> Perm:
    """Evaluate the product s_{i_1} ... s_{i_l} on {1..rank+1}.

    >>> perm_of_word(word([1, 3, 2, 1, 3, 2]))
    (4, 3, 2, 1)
    >>> perm_of_word(Word(3, ()))
    (1, 2, 3, 4)
    """
    p = list(range(1, w.rank + 2))
    for letter in w.letters:
        p[letter - 1], p[letter] = p[letter], p[letter - 1]
    return tuple(p)


def inversion_count(p: Perm) -> int:
    """Number of pairs i < j with p(i) > p(j), i.e. the Coxeter length.

    >>> inversion_count((4, 3, 2, 1))
    6
    """
    m = len(p)
    return sum(1 for i in range(m) for j in range(i + 1, m) if p[i] > p[j])


def is_reduced(w: Word) -> bool:
    """True iff no shorter word evaluates to the same permutation.

    One pass over the letters, building the product as perm_of_word does:
    right-multiplying p by s_c adds one to the length exactly when
    p(c) < p(c+1), and a word is reduced when every letter does.

    >>> is_reduced(word([1, 2, 1]))
    True
    >>> is_reduced(word([1, 1]))
    False
    """
    p = list(range(1, w.rank + 2))
    for letter in w.letters:
        x, y = p[letter - 1], p[letter]
        if x > y:
            return False
        p[letter - 1], p[letter] = y, x
    return True


def standard_word(n: int) -> Word:
    """The word (1, 2,1, 3,2,1, ..., n,n-1,...,1) of the longest element.

    >>> str(standard_word(3))
    '1,2,1,3,2,1'
    """
    if n < 1:
        raise DomainError(f"rank must be positive, got {n}")
    letters = []
    for k in range(1, n + 1):
        letters.extend(range(k, 0, -1))
    return Word(n, tuple(letters))


def apply_2move(w: Word, pos: int) -> Word:
    """Swap the commuting letters at 1-based positions pos, pos+1.

    >>> str(apply_2move(word([1, 3, 2]), 1))
    '3,1,2'
    """
    if not 1 <= pos <= len(w.letters) - 1:
        raise DomainError(f"2-move position {pos} out of range")
    a, b = w.letters[pos - 1], w.letters[pos]
    if abs(a - b) <= 1:
        raise DomainError(f"letters {a},{b} at position {pos} do not commute")
    letters = list(w.letters)
    letters[pos - 1], letters[pos] = b, a
    return Word(w.rank, tuple(letters))


def apply_3move(w: Word, pos: int) -> Word:
    """Rewrite i,j,i -> j,i,j at 1-based positions pos..pos+2.

    >>> str(apply_3move(word([1, 2, 1]), 1))
    '2,1,2'
    """
    if not 1 <= pos <= len(w.letters) - 2:
        raise DomainError(f"3-move position {pos} out of range")
    a, b, c = w.letters[pos - 1 : pos + 2]
    if a != c or abs(a - b) != 1:
        raise DomainError(f"letters {a},{b},{c} at position {pos} admit no 3-move")
    letters = list(w.letters)
    letters[pos - 1 : pos + 2] = (b, a, b)
    return Word(w.rank, tuple(letters))


def _splice(
    lower: tuple[int, ...], upper: tuple[int, ...], rank: int, kind: str
) -> tuple[int, ...]:
    # The inverse of the contraction letter rule (indices._contract): put a
    # fresh chain between the two parts of a rank-`rank` word and shift one
    # side up a column.  The result is a word of the longest element one
    # rank up, since c_D shift(v) = v c_D and shift(u) c_A = c_A u.
    if kind == "D":
        return lower + tuple(range(rank + 1, 0, -1)) + tuple(x + 1 for x in upper)
    return tuple(x + 1 for x in lower) + tuple(range(1, rank + 2)) + upper


def legal_2moves(w: Word) -> list[int]:
    """Positions where a 2-move applies, scanned left to right."""
    return [
        pos
        for pos in range(1, len(w.letters))
        if abs(w.letters[pos - 1] - w.letters[pos]) > 1
    ]


def legal_3moves(w: Word) -> list[int]:
    """Positions where a 3-move applies, scanned left to right."""
    return [
        pos
        for pos in range(1, len(w.letters) - 1)
        if w.letters[pos - 1] == w.letters[pos + 1]
        and abs(w.letters[pos - 1] - w.letters[pos]) == 1
    ]


# Tails of at most this many letters come from enumerate_reduced_words'
# per-call table instead of the depth-first loop.  Measured on the 292,864
# words of w0 at rank 5 (Python 3.11, 2 vCPUs; the median over 5 processes
# of the best of 5 runs each; table memory as the tracemalloc peak of the
# whole stream, in a fresh process):
#   0 (no table)  0.70 s      5 KiB
#   4             0.22 s     67 KiB
#   5             0.19 s    196 KiB
#   6             0.17 s    535 KiB
#   7             0.15 s  1,383 KiB
#   8             0.14 s  3,390 KiB
# Past 6 each letter saves under a tenth of the time and costs two to three
# times the memory; at 8 the peak RSS of the benchmark's words-w0 rose by
# about a fifth.
_TAIL = 6


def enumerate_reduced_words(p: Perm) -> Iterator[Word]:
    """Every reduced word of p exactly once, in lexicographic order.

    Peels the first letter: the word may start with i exactly when s_i * p is
    shorter, and the tail is any reduced word of s_i * p.  One depth-first
    loop does the peeling in place: pos[v] is the place of value v, so i is
    a left descent when pos[i] > pos[i + 1], and peeling s_i swaps the two
    entries (swapped back on backtracking).  Each depth d keeps two ints
    with bit i for letter i: descents[d], its left descents, and todo[d],
    the ones not yet tried.  The lowest bit of todo[d] goes next, so the
    words come in order.  Peeling s_i makes i an ascent and changes no
    descent but i-1 and i+1, so the next depth's set is this one with bits
    i-1..i+1 cleared and only i-1 and i+1 tested again.  Next to the letter
    buffer, prefix[d] is the text of the first d letters, each followed by a
    comma.

    The loop stops _TAIL letters short of a word.  The tails after a prefix
    depend only on the permutation that remains, which is the position
    array, and the last levels meet the same few short permutations over
    and over.  So a table local to the call, filled on first use, maps a
    position array to the (letters, text) tails of its permutation in
    lexicographic order, each built from the entries one letter shorter.
    Each word is then one tuple and one string concatenation.  The table
    holds only tails of at most _TAIL letters, so its size is bounded by
    the short permutations of S_{rank+1}, however long the stream runs, and
    it goes with the generator: calls share nothing.

    >>> [str(w) for w in enumerate_reduced_words((3, 2, 1))]
    ['1,2,1', '2,1,2']
    """
    if not is_permutation(p):
        raise DomainError(f"{p} is not a permutation")
    rank = max(len(p) - 1, 0)
    length = inversion_count(p)
    # pos[0] = 0 and the sentinel pos[m + 1] = m make 0 and m no descents,
    # so the retests after a peel need no bounds check
    pos = [0] * (len(p) + 2)
    for place, value in enumerate(p):
        pos[value] = place
    pos[-1] = len(p)
    letters_up = range(1, len(p))
    keep = [0] + [~(7 << (i - 1)) for i in letters_up]  # clears bits i-1..i+1
    names = [str(i) for i in range(len(p))]
    with_comma = [name + "," for name in names]
    unchecked = Word._unchecked
    table: dict[tuple[int, ...], list[tuple[tuple[int, ...], str]]] = {}

    def tails(key: tuple[int, ...]) -> list[tuple[tuple[int, ...], str]]:
        # A tail's text has no leading comma: it goes after a prefix that
        # ends in one, or in none when the tail is empty.  The identity's
        # one empty tail ends the recursion.
        found = table.get(key)
        if found is None:
            found = []
            at = list(key)
            for i in letters_up:
                if at[i] > at[i + 1]:
                    at[i], at[i + 1] = at[i + 1], at[i]
                    head, comma = (i,), with_comma[i]
                    found.extend(
                        (head + rest, comma + text if text else names[i])
                        for rest, text in tails(tuple(at))
                    )
                    at[i], at[i + 1] = at[i + 1], at[i]
            if not found:
                found.append(((), ""))
            table[key] = found
        return found

    stop = length - _TAIL  # the depth at which a prefix takes table tails
    if stop <= 0:  # each word is one tail, even the identity's empty word
        for rest, text in tails(tuple(pos)):
            yield unchecked(rank, rest, text)
        return
    # the letter just before a table tail: an empty tail takes no comma
    cut = with_comma if _TAIL else names
    letters = [0] * stop
    prefix = [""] * stop
    last = stop - 1
    descents = [0] * stop  # every left descent at each depth
    todo = [0] * stop  # the ones not yet tried there
    for i in letters_up:
        if pos[i] > pos[i + 1]:
            descents[0] |= 1 << i
    todo[0] = descents[0]
    depth = 0
    while True:
        bits = todo[depth]
        if bits:
            low = bits & -bits
            todo[depth] = bits ^ low
            i = low.bit_length() - 1
            letters[depth] = i
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
            if depth == last:
                head = tuple(letters)
                text = prefix[depth] + cut[i]
                for rest, tail in tails(tuple(pos)):
                    yield unchecked(rank, head + rest, text + tail)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
            else:
                prefix[depth + 1] = prefix[depth] + with_comma[i]
                bits = descents[depth] & keep[i]
                if pos[i - 1] > pos[i]:
                    bits |= low >> 1
                if pos[i + 1] > pos[i + 2]:
                    bits |= low << 1
                depth += 1
                descents[depth] = todo[depth] = bits
        elif depth:
            depth -= 1
            i = letters[depth]
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        else:
            return
