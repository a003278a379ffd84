"""Sub-diagonal lattice paths and the tail-exchange injection.

A path is a string over ``E`` (east, +x) and ``N`` (north, +y) starting at
the origin and never rising above the diagonal x = y.  L(n, k) denotes the
paths with n steps of which k are east, so the endpoint is (k, n - k); the
diagonal constraint forces n - k <= k.  Two-row standard tableaux of size n
with first row of length k biject with L(n, k) by reading the first-row
entries as east-step positions.

Validation happens where paths enter: the public constructor
``LatticePath(steps)`` and :func:`parse_path` run :func:`check_path`, and
the flip check of :mod:`ulamdist.census` runs it on every distinct image
path of a block.  The builders here (:func:`tableau_to_path`, which
:func:`lattice_paths` maps over two-row tableaux, and :func:`flip_inject`)
build sub-diagonal paths by construction, through ``_path``, the unchecked
builder of the frozen-value core :class:`~ulamdist.tableaux._Value` that
``LatticePath`` shares with ``Tableau``; :func:`flip_preimage` checks the
candidates of the flip's tail exchange, which need not be paths.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterator, Optional

from .tableaux import Tableau, _tableau, _Value, standard_tableaux

# Height above the diagonal gained by each step.
_RISE = {"E": 1, "N": -1}


def check_path(steps: str) -> None:
    """Raise ValueError unless steps is a nonempty string over E and N that
    never rises above the diagonal; the earliest offending step is named."""
    if not steps:
        raise ValueError("path must have at least one step")
    rest = steps.lstrip("EN")
    prefix = steps[: len(steps) - len(rest)]
    # Heights move by one from 0, so the path first leaves the region at -1.
    if -1 in accumulate(map(_RISE.__getitem__, prefix)):
        i = list(accumulate(map(_RISE.__getitem__, prefix))).index(-1) + 1
        raise ValueError(f"path rises above the diagonal after step {i}: {steps!r}")
    if rest:
        raise ValueError(f"invalid step {rest[0]!r} in {steps!r}")


class LatticePath(_Value):
    """A sub-diagonal lattice path.  A :class:`~ulamdist.tableaux._Value` on
    ``steps``, like :class:`~ulamdist.tableaux.Tableau`; public construction
    runs :func:`check_path`."""

    __slots__ = ()
    _field = "steps"
    steps: str = _Value._value

    def __init__(self, steps: str):
        _Value.__init__(self, steps)

    def __post_init__(self):
        check_path(self.steps)

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def east(self) -> int:
        return self.steps.count("E")

    def __str__(self) -> str:
        return self.steps


# Builds a LatticePath from steps known to be valid, skipping the check.
_path = LatticePath._unchecked


def parse_path(text: str) -> LatticePath:
    return LatticePath(text.strip())


def lattice_paths(n: int, k: int) -> Iterator[LatticePath]:
    """All paths in L(n, k), in lexicographic order (E before N), read off
    the tableaux of shape (k, n - k); empty if n - k > k or k > n."""
    if k > n or n - k > k or n < 1:
        return iter(())
    return map(tableau_to_path, standard_tableaux((k, n - k) if k < n else (k,)))


def tableau_to_path(t: Tableau) -> LatticePath:
    """Step i is east iff i lies in the first row of t (at most two rows)."""
    if len(t.rows) > 2:
        raise ValueError(f"tableau has more than two rows: {t}")
    first = set(t.rows[0])
    return _path("".join("E" if i in first else "N" for i in range(1, t.n + 1)))


def path_to_tableau(path: LatticePath) -> Tableau:
    """East-step positions become row one, north-step positions row two."""
    row1 = tuple(i for i, ch in enumerate(path.steps, start=1) if ch == "E")
    row2 = tuple(i for i, ch in enumerate(path.steps, start=1) if ch == "N")
    return _tableau((row1,) if not row2 else (row1, row2))


def _last_crossing(a: str, b: str) -> Optional[int]:
    """Largest t with (east steps of b[:t]) - (east steps of a[:t]) == 1.

    Translating a by (1, -1) puts its t-step point at (1 + e_a(t), t - 1 -
    e_a(t)), which coincides with b's t-step point exactly when e_b(t) -
    e_a(t) == 1; both paths reach any shared point after the same number of
    steps, so "last common point" and "largest such t" agree.
    """
    # ord("N") - ord("E") == 9, so the running byte difference is 9 times
    # e_b(t) - e_a(t).
    diffs = list(accumulate(map(sub, a.encode(), b.encode())))
    if 9 not in diffs:
        return None
    return len(diffs) - diffs[::-1].index(9)


def _exchange_tails(a: str, b: str) -> Optional[tuple[LatticePath, LatticePath]]:
    """a and b with their tails after :func:`_last_crossing` exchanged,
    built unchecked; None if there is no crossing."""
    t = _last_crossing(a, b)
    return None if t is None else (_path(a[:t] + b[t:]), _path(b[:t] + a[t:]))


def flip_inject(p: LatticePath, q: LatticePath) -> tuple[LatticePath, LatticePath]:
    """Exchange the tails of p and q after their last meeting point.

    p is translated by (1, -1); since q starts northwest and ends southeast
    of the translate, the two must meet.  Cutting both at the last common
    point X and swapping the tails yields two paths with endpoint
    (k + 1, n - k - 1), both still weakly below the diagonal; the map is
    injective because X is recoverable from the output.
    """
    a, b = p.steps, q.steps
    if len(a) != len(b):
        raise ValueError(f"paths differ in length: {len(a)} vs {len(b)}")
    if b.count("E") != a.count("E") + 2:
        raise ValueError("second path must take exactly two more east steps: "
                         f"{a.count('E')} vs {b.count('E')}")
    swapped = _exchange_tails(a, b)
    assert swapped is not None, "translated paths always share a point"
    return swapped


def flip_preimage(
    r: LatticePath, s: LatticePath
) -> Optional[tuple[LatticePath, LatticePath]]:
    """Undo :func:`flip_inject`; None when (r, s) is not in its image.

    The flip's own tail exchange undoes it.  Its cut point t is the last
    common point of the translated r and s: the last step count where
    D = (east steps of s) - (east steps of r) is 1.  If there is none, or
    the exchange produces a string that crosses the diagonal, the pair has
    no preimage.  Otherwise the exchanged pair (p, q) is one, so the flip is
    not re-applied to check it: up to t the east-step difference of q and p
    is D itself, and after t it is 2 - D, which is never 1 since D is never
    1 there (and ends at 2, since r and s take equally many east steps).
    So t is also the last crossing of (p, q), the flip cuts there, and
    exchanging the tails again restores (r, s).
    """
    a, b = r.steps, s.steps
    if len(a) != len(b):
        raise ValueError(f"paths differ in length: {len(a)} vs {len(b)}")
    if a.count("E") != b.count("E"):
        raise ValueError(f"paths differ in east steps: {a.count('E')} vs {b.count('E')}")
    back = _exchange_tails(a, b)
    if back is None:
        return None
    try:
        for path in back:
            check_path(path.steps)
    except ValueError:
        return None
    return back
