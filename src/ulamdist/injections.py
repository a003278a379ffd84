"""Constructive injections between tableau classes and their lift to
permutation pairs.

``hook_inject`` realizes an injection from pairs of hooks with first-row
lengths (k, l) into pairs with first-row lengths (k + 1, l - 1).  For
l = k + 2 the map is built recursively on the hook size n, anchored in
explicit tables for n = 3 and n = 4, and preserves the pair type: the type
of a hook records whether its largest entry ends the first column (DOWN)
or the first row (RIGHT).  For l > k + 2 injectivity is all that matters
downstream, so those maps are realized by deterministic rank arithmetic
(:func:`_rank_rows`) over the lexicographic order of hooks.
``hook_preimage`` undoes the map on first rows, case by case, and returns
None off its image, so a checker proves injectivity by round trips
instead of remembering every pair.

``protected_inject`` transports the hook map to tableaux with a fixed
protected area: the surpluses are pulled off, renumbered into a pair of
hooks, mapped, renumbered back, and reattached, never touching the
protected area.  ``protected_preimage`` runs the same pipeline with
``hook_preimage`` in place of the hook map, so protected pairs round-trip
too.

``lift`` turns any injection on single tableaux (standing for involutions)
into an injection on permutation pairs via row insertion, provided the
tableau class is shape-rigid, i.e. the shape of a member is determined by
its size and first-row length; hooks and two-row tableaux both qualify.
It has no inverse here: undoing it would row-insert both images, so a
checker remembers every lift pair instead.

Every map takes only the pair it maps, ``f(t1, t2)``.  The size, both
first-row lengths and the protected area are read off the tableaux, so a
map checks only that its pair lies in its domain, and never its images.
"""

from __future__ import annotations

from itertools import filterfalse
from math import comb
from typing import Callable, Optional, Sequence

from .paths import flip_inject, path_to_tableau, tableau_to_path
from .permutations import Perm
from .tableaux import (
    ProtectedDecomposition,
    Tableau,
    attach_surplus,
    check_tableau,
    hook_from_first_row,
    is_hook,
    protected_decompose,
    rsk,
    rsk_inverse,
)

Row = tuple[int, ...]
Rows = tuple[Row, ...]

# Anchor tables for hook sizes 3 and 4, keyed by (n, first row of T1,
# first row of T2).  These are fixed data, not derived: the recursion for
# n >= 5 bottoms out here, and every entry maps a pair to a pair of the
# same type.
HOOK_BASE_TABLE: dict[tuple[int, Row, Row], tuple[Row, Row]] = {
    (3, (1,), (1, 2, 3)): ((1, 2), (1, 3)),
    (4, (1,), (1, 2, 3)): ((1, 2), (1, 3)),
    (4, (1,), (1, 2, 4)): ((1, 2), (1, 4)),
    (4, (1,), (1, 3, 4)): ((1, 3), (1, 4)),
    (4, (1,), (1, 2, 3, 4)): ((1, 2), (1, 2, 4)),
    (4, (1, 2), (1, 2, 3, 4)): ((1, 2, 3), (1, 2, 4)),
    (4, (1, 4), (1, 2, 3, 4)): ((1, 2, 4), (1, 3, 4)),
    (4, (1, 3), (1, 2, 3, 4)): ((1, 2, 3), (1, 3, 4)),
}


def _comb_rank(sub: Sequence[int], m: int) -> int:
    """Lexicographic rank of an increasing subset of range(m)."""
    rank = 0
    prev = -1
    r = len(sub)
    for t, c in enumerate(sub):
        for v in range(prev + 1, c):
            rank += comb(m - 1 - v, r - 1 - t)
        prev = c
    return rank


def _comb_unrank(rank: int, m: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`_comb_rank`."""
    sub = []
    v = 0
    for t in range(r):
        while True:
            block = comb(m - 1 - v, r - 1 - t)
            if rank < block:
                break
            rank -= block
            v += 1
        sub.append(v)
        v += 1
    return tuple(sub)


def _hook_rank(n: int, row: Row) -> int:
    """Rank of a hook with the given first row among first-row sets of its
    length, lexicographically."""
    return _comb_rank(tuple(v - 2 for v in row[1:]), n - 1)


def _hook_unrank(n: int, k: int, rank: int) -> Row:
    return (1,) + tuple(v + 2 for v in _comb_unrank(rank, n - 1, k - 1))


def _rank_rows(n: int, row1: Row, row2: Row, k: int, l: int) -> Optional[tuple[Row, Row]]:
    """The rows of lengths (k, l) at the pair's mixed-radix rank: the ranks
    i, j of row1, row2 give i * C(n-1, len(row2)-1) + j, whose divmod by
    C(n-1, l-1) ranks them; None when the quotient ranks no row of length k.
    The map moves lengths one step closer, its preimage moves them back.
    Injective, and never None from the map, because binomials are
    log-concave: C(n-1, k-2) C(n-1, l) <= C(n-1, k-1) C(n-1, l-1)."""
    i, j = divmod(
        _hook_rank(n, row1) * comb(n - 1, len(row2) - 1) + _hook_rank(n, row2),
        comb(n - 1, l - 1),
    )
    if i >= comb(n - 1, k - 1):
        return None
    return _hook_unrank(n, k, i), _hook_unrank(n, l, j)


def _inject_rows(n: int, row1: Row, row2: Row) -> tuple[Row, Row]:
    """Core recursion on first-row entry tuples; sizes and gap already
    validated by the caller."""
    if n <= 4:
        return HOOK_BASE_TABLE[(n, row1, row2)]
    if len(row2) > len(row1) + 2:
        return _rank_rows(n, row1, row2, len(row1) + 1, len(row2) - 1)
    right1 = row1[-1] == n
    right2 = row2[-1] == n
    if not right1 and right2:
        # Largest entry moves from column end to row end in the first hook
        # and the other way in the second; swapping the results restores
        # the original pair type.
        return (row2[:-1], row1 + (n,))
    if not right1 and not right2:
        return _inject_rows(n - 1, row1, row2)
    if right1 and not right2:
        u1, u2 = _inject_rows(n - 1, row1[:-1], row2)
        return (u1 + (n,), u2)
    u1, u2 = _inject_rows(n - 1, row1[:-1], row2[:-1])
    return (u1 + (n,), u2 + (n,))


# The anchor tables inverted: (n, first row of U1, first row of U2) to the
# first rows of the pair mapped there.
_HOOK_BASE_PREIMAGE: dict[tuple[int, Row, Row], tuple[Row, Row]] = {
    (n, *image): (row1, row2) for (n, row1, row2), image in HOOK_BASE_TABLE.items()
}


def _preimage_rows(n: int, u1: Row, u2: Row) -> Optional[tuple[Row, Row]]:
    """:func:`_inject_rows` undone, case by case; both rows start at 1 and
    u1 is no longer than u2."""
    if n <= 4:
        return _HOOK_BASE_PREIMAGE.get((n, u1, u2))
    if len(u2) > len(u1):
        k, l = len(u1) - 1, len(u2) + 1
        return _rank_rows(n, u1, u2, k, l) if k >= 1 and l <= n else None
    # A gap of 2 maps to equal lengths, and whether each image row ends in n
    # names the case of _inject_rows that made it.
    right1 = u1[-1] == n
    right2 = u2[-1] == n
    if not right1 and right2:
        return (u2[:-1], u1 + (n,))
    if not right1 and not right2:
        return _preimage_rows(n - 1, u1, u2)
    back = _preimage_rows(n - 1, u1[:-1], u2[:-1] if right2 else u2)
    if back is None:
        return None
    return (back[0] + (n,), back[1] + (n,) if right2 else back[1])


def hook_preimage(n: int, row1: Row, row2: Row) -> Optional[tuple[Row, Row]]:
    """The first rows of the pair of hooks of size n that the hook map sends
    to the pair with first rows (row1, row2), or None if no pair is sent
    there.  The exact inverse of the map on the first rows of hooks; no
    ``Tableau`` is built.  An empty row, a row not starting at 1, a row
    longer than n or a first row longer than the second gives None; other
    malformed rows give None, ValueError or a pair that does not map back.
    """
    if row1[:1] != (1,) or row2[:1] != (1,) or not len(row1) <= len(row2) <= n:
        return None
    return _preimage_rows(n, row1, row2)


def _size(rows1: tuple[Row, ...], rows2: tuple[Row, ...]) -> int:
    """The common size of a pair, given the rows of each member."""
    n1, n2 = sum(map(len, rows1)), sum(map(len, rows2))
    if n1 != n2:
        raise ValueError(f"t1 and t2 differ in size: {n1} vs {n2}")
    return n1


def hook_inject(t1: Tableau, t2: Tableau) -> tuple[Tableau, Tableau]:
    """Map a pair of hooks of size n with first-row lengths (k, l),
    l >= k + 2, injectively to a pair with first-row lengths (k + 1, l - 1).

    For l = k + 2 the construction recurses on n and preserves the pair
    type; for larger gaps it falls back to rank arithmetic and only
    injectivity is guaranteed.
    """
    rows1, rows2 = t1.rows, t2.rows
    n = _size(rows1, rows2)
    k, l = len(rows1[0]), len(rows2[0])
    if l < k + 2:
        raise ValueError(f"first rows of lengths {k} and {l} are less than 2 apart")
    for t, name in ((t1, "t1"), (t2, "t2")):
        if not is_hook(t):
            raise ValueError(f"{name} is not a hook: {t}")
    r1, r2 = _inject_rows(n, rows1[0], rows2[0])
    return hook_from_first_row(n, r1), hook_from_first_row(n, r2)


# ---------------------------------------------------------------------------
# Tableaux with a fixed protected area


def _through_hooks(
    decs: tuple[ProtectedDecomposition, ProtectedDecomposition],
    hook_map: Callable[[int, Row, Row], Optional[tuple[Row, Row]]],
) -> Optional[tuple[Tableau, Tableau]]:
    """The pipeline both protected maps share, on two decompositions whose
    surpluses have one size, n - m.  Each surplus, with the corner 1 (which
    every surplus entry exceeds), is renumbered order-isomorphically to
    1..(n - m + 1), its eastern part becoming the first row of a hook of
    that size; ``hook_map`` maps the two rows, and each new row is
    renumbered back with its own tableau's entries and reattached to the
    untouched protected area.  None where ``hook_map`` gives None."""
    surpluses = [sorted(dec.eastern + dec.southern) for dec in decs]
    rows = [(1, *[surplus.index(v) + 2 for v in dec.eastern])
            for dec, surplus in zip(decs, surpluses)]
    mapped = hook_map(len(surpluses[0]) + 1, rows[0], rows[1])
    if mapped is None:
        return None
    out = []
    for dec, surplus, jrow in zip(decs, surpluses, mapped):
        eastern = tuple(surplus[v - 2] for v in jrow[1:])
        southern = tuple(filterfalse(set(eastern).__contains__, surplus))
        out.append(attach_surplus(dec.protected_rows, eastern, southern))
    return out[0], out[1]


def protected_inject(t1: Tableau, t2: Tableau) -> tuple[Tableau, Tableau]:
    """Map a pair of (l, m)-protected tableaux of size n with first-row
    lengths (k - 1, k + 1) to a pair with first-row length k, same (l, m);
    (l, m) is read off t1.

    The protected areas are never touched: the surpluses of each input are
    rebuilt into a hook (1 at the corner), renumbered order-isomorphically
    to 1..(n - m + 1), passed through the hook map, renumbered back using
    that input's own surplus entries, and reattached.
    """
    _size(t1.rows, t2.rows)
    k1, k2 = len(t1.rows[0]), len(t2.rows[0])
    if k2 != k1 + 2:
        raise ValueError(f"first rows of lengths {k1} and {k2} are not 2 apart")
    decs = (protected_decompose(t1), protected_decompose(t2))
    l, m = decs[0].l, decs[0].m
    for t, name, dec in zip((t1, t2), ("t1", "t2"), decs):
        if not dec.is_protected(l, m):
            raise ValueError(f"{name} is not ({l}, {m})-protected: {t}")
    return _through_hooks(decs, _inject_rows)


def protected_preimage(u1: Tableau, u2: Tableau) -> Optional[tuple[Rows, Rows]]:
    """The rows of the pair that :func:`protected_inject` sends to (u1, u2),
    or None if no pair of (l, m)-protected tableaux is sent there.  The map
    keeps each protected area and surplus entry set, so
    :func:`hook_preimage` undoes it on the surpluses alone, at size
    n - m + 1.  Off the image, any pair of nonempty rows of integers gives
    None or a pair that does not map back, never an error."""
    if not (u1.rows and u2.rows and all(u1.rows) and all(u2.rows)):
        return None
    decs = (protected_decompose(u1), protected_decompose(u2))
    (_, e1, s1), (_, e2, s2) = decs
    if len(e1) + len(s1) != len(e2) + len(s2):  # both surpluses renumber into one hook size
        return None
    back = _through_hooks(decs, hook_preimage)
    return None if back is None else (back[0].rows, back[1].rows)


# ---------------------------------------------------------------------------
# Two-row tableaux via lattice paths


def two_row_inject(t1: Tableau, t2: Tableau) -> tuple[Tableau, Tableau]:
    """Injection on pairs of two-row tableaux with first-row lengths
    (k, k + 2), induced by :func:`~ulamdist.paths.flip_inject`."""
    r, s = flip_inject(tableau_to_path(t1), tableau_to_path(t2))
    return path_to_tableau(r), path_to_tableau(s)


# ---------------------------------------------------------------------------
# From tableau pairs to permutation pairs


def lift(
    inj: Callable[[Tableau, Tableau], tuple[Tableau, Tableau]],
    p1: Perm,
    p2: Perm,
    check: Callable[[tuple[Row, ...]], None] = check_tableau,
) -> tuple[Perm, Perm]:
    """Turn an injection on single tableaux into one on permutation pairs.

    With rsk(p_i) = (P_i, Q_i), the result is the pair of permutations
    whose tableau pairs are inj(P1, P2) and inj(Q1, Q2).  That only defines
    permutations when the four images are standard and each image pair
    shares a shape, which holds for shape-rigid classes (hooks, two-row
    tableaux); a violation raises ValueError instead of guessing.  ``check``
    validates the rows of each image, P pair then Q pair, before any shapes
    are compared; a caller lifting many pairs passes one memoised validator.
    """
    p_tab1, q_tab1 = rsk(p1)
    p_tab2, q_tab2 = rsk(p2)
    img_p = inj(p_tab1, p_tab2)
    img_q = inj(q_tab1, q_tab2)
    for t in (*img_p, *img_q):
        check(t.rows)
    for left, right in (img_p, img_q):
        if left.shape != right.shape:
            raise ValueError(
                "shape rigidity violated: image components have shapes "
                f"{left.shape} and {right.shape}"
            )
    return rsk_inverse(*img_p), rsk_inverse(*img_q)
