"""Permutations in one-line notation.

A permutation of length n is a tuple of the integers 1..n, 1-based in both
positions and values: ``p[i - 1]`` is the image of ``i``.  Functions below
accept any integer sequence but always return tuples.  Values coming from
outside (CLI, files) should go through :func:`parse_permutation`, which
rejects non-bijective words; the arithmetic helpers trust their input.

The empty permutation ``()`` is allowed as an identity edge case only; the
statistics (``lis_length``, ``ulam_distance``) require length >= 1.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Sequence

Perm = tuple[int, ...]


def is_permutation_word(word: Sequence[int]) -> bool:
    """True iff word contains each of 1..len(word) exactly once."""
    return sorted(word) == list(range(1, len(word) + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def parse_permutation(text: str) -> Perm:
    """Parse comma-separated one-line notation, e.g. ``"3,1,4,2"``.

    >>> parse_permutation("3,1,4,2")
    (3, 1, 4, 2)
    """
    tokens = [tok.strip() for tok in text.split(",")]
    word = []
    for tok in tokens:
        if not tok.removeprefix("-").isdecimal():
            raise ValueError(f"invalid permutation entry {tok!r} in {text!r}")
        word.append(int(tok))
    if not is_permutation_word(word):
        raise ValueError(f"not a permutation of 1..{len(word)}: {text!r}")
    return tuple(word)


def format_permutation(p: Sequence[int]) -> str:
    return ",".join(str(v) for v in p)


def lis_length(p: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence.

    Patience method: ``tails[i]`` holds the smallest possible last value of
    an increasing subsequence of length i+1, so each element is placed with
    one binary search and the whole scan is O(n log n).

    >>> lis_length((3, 1, 4, 2))
    2
    """
    if not p:
        raise ValueError("lis_length requires a nonempty permutation")
    tails: list[int] = []
    for x in p:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def lds_length(p: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence."""
    return lis_length(tuple(reversed(p)))


def inverse(p: Sequence[int]) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def reverse(p: Sequence[int]) -> Perm:
    return tuple(reversed(p))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Composition (p o q)(i) = p(q(i)); q is applied first."""
    if len(p) != len(q):
        raise ValueError(f"cannot compose lengths {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


def is_involution(p: Sequence[int]) -> bool:
    return all(p[v - 1] == i + 1 for i, v in enumerate(p))


def ulam_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Minimum number of remove-one-element-and-reinsert moves taking p to q.

    Against the identity this is exactly n - lis_length(p).  The general
    pair is reduced to that case by relabeling with q^(-1); the relabeling
    formula is verified against a breadth-first search over the move graph
    in the test suite rather than assumed.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    if not p:
        raise ValueError("ulam_distance requires nonempty permutations")
    return len(p) - lis_length(compose(inverse(q), p))


def contains_pattern(p: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of p is order-isomorphic to pattern.

    Exhaustive over index subsets; meant for short patterns (length <= 4)
    on short permutations, not as a general-purpose avoidance test.
    """
    pat = tuple(pattern)
    if not is_permutation_word(pat):
        raise ValueError(f"pattern is not a permutation word: {pat!r}")
    r = len(pat)
    if r == 0:
        return True
    if r > len(p):
        return False
    rel = [(i, j, pat[i] < pat[j]) for i in range(r) for j in range(i + 1, r)]
    for idx in combinations(range(len(p)), r):
        if all((p[idx[i]] < p[idx[j]]) == lt for i, j, lt in rel):
            return True
    return False


def is_skew_merged(p: Sequence[int]) -> bool:
    """True iff p is a merge of an increasing and a decreasing sequence.

    Equivalent to avoiding both 2143 and 3412, i.e. to
    ``not contains_pattern(p, (2,1,4,3)) and not contains_pattern(p, (3,4,1,2))``;
    both forbidden patterns are checked in a single sweep over 4-subsets.
    """
    for a, b, c, d in combinations(p, 4):
        if (b < a < d < c) or (c < d < a < b):
            return False
    return True
