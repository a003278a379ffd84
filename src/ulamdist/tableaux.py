"""Standard Young tableaux and the row-insertion correspondence.

A tableau is stored row-major as a tuple of tuples of entries.  Shapes are
plain tuples of row lengths.  :class:`Tableau` and
:class:`~ulamdist.paths.LatticePath` share one frozen-value core,
:class:`_Value`, with its one unchecked builder.

Validation happens where tableaux enter: the public constructor
``Tableau(rows)`` and :func:`parse_tableau` run :func:`check_tableau`, the
injection checks of :mod:`ulamdist.census` run it on every distinct image a
map under test returns within a block, and :func:`ulamdist.injections.lift`
validates its images through the validator it is given: the census gives
it one memoised check per run.  The builders here
(:func:`rsk`, :func:`hook_from_first_row`, :func:`standard_tableaux`,
:func:`attach_surplus`) produce standard tableaux by construction, so they
trust their input and build through ``_tableau``, the core's unchecked
builder, the way the arithmetic helpers of :mod:`ulamdist.permutations`
trust theirs.  :func:`hook_tableaux`, the paths and the census's tableau
classes are all read off :func:`standard_tableaux`, one shape at a time.

The text form used by the CLI writes rows separated by ``/`` with entries
comma-separated, e.g. ``"1,3/2"``.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import chain, filterfalse
from operator import ge, lt
from typing import Iterator, NamedTuple, Sequence

from .permutations import Perm

Shape = tuple[int, ...]


def is_partition(rows: Sequence[int]) -> bool:
    """True iff rows is a weakly decreasing sequence of positive integers."""
    return all(map(ge, rows, rows[1:])) and (not rows or rows[-1] >= 1)


def check_tableau(rows: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless rows form a standard Young tableau: nonempty
    rows of weakly decreasing length, filled with 1..n exactly once, strictly
    increasing along every row and down every column."""
    shape = tuple(map(len, rows))
    if not shape or 0 in shape:
        raise ValueError("tableau must have nonempty rows")
    if any(map(lt, shape, shape[1:])):
        raise ValueError(f"row lengths {shape} do not weakly decrease")
    n = sum(shape)
    if sorted(chain.from_iterable(rows)) != list(range(1, n + 1)):
        raise ValueError(f"entries are not exactly 1..{n}: {rows}")
    for row in rows:
        if any(map(ge, row, row[1:])):
            raise ValueError(f"row {row} is not strictly increasing")
    for upper, lower in zip(rows, rows[1:]):
        if any(map(ge, upper, lower)):
            c = list(map(ge, upper, lower)).index(True)
            raise ValueError(f"column {c + 1} is not strictly increasing")


class _Value:
    """An immutable value on one field: the slot ``_value``, which each
    subclass binds under its ``_field`` name and takes by that keyword in
    its ``__init__``, so the repr ``Cls(field=...)`` rebuilds it.  Equal
    only to the same class with an equal field, hashed as
    ``hash((field,))``.  Construction validates through
    ``self.__post_init__``; :meth:`_unchecked`, the one unchecked builder,
    skips it, and copies and pickles rebuild through it, as a frozen
    dataclass restores its fields without validating them."""

    __slots__ = ("_value",)
    _field: str

    def __init__(self, value):
        _set_value(self, value)
        self.__post_init__()

    @classmethod
    def _unchecked(cls, value):
        self = object.__new__(cls)
        _set_value(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._value == other._value
        return NotImplemented

    def __hash__(self):
        return hash((self._value,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self._field}={self._value!r})"

    def __reduce__(self):
        return self._unchecked, (self._value,)


_set_value = _Value._value.__set__


class Tableau(_Value):
    """A standard Young tableau: strictly increasing rows and columns filled
    with 1..n exactly once, row lengths weakly decreasing.  A :class:`_Value`
    on ``rows``; public construction runs :func:`check_tableau`."""

    __slots__ = ()
    _field = "rows"
    rows: tuple[tuple[int, ...], ...] = _Value._value

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        _Value.__init__(self, rows)

    def __post_init__(self):
        check_tableau(self.rows)

    @property
    def n(self) -> int:
        return sum(map(len, self.rows))

    @property
    def shape(self) -> Shape:
        return tuple(map(len, self.rows))

    def __str__(self) -> str:
        return format_tableau(self)


# Builds a Tableau from rows known to be standard, skipping the check.
_tableau = Tableau._unchecked


def parse_tableau(text: str) -> Tableau:
    """Parse the ``"1,3/2"`` text form."""
    rows = []
    for row_text in text.split("/"):
        row = []
        for tok in row_text.split(","):
            tok = tok.strip()
            if not tok.isdigit():
                raise ValueError(f"invalid tableau entry {tok!r} in {text!r}")
            row.append(int(tok))
        rows.append(tuple(row))
    return Tableau(tuple(rows))


def format_tableau(t: Tableau) -> str:
    return "/".join(",".join(str(v) for v in row) for row in t.rows)


# ---------------------------------------------------------------------------
# Row insertion and its inverse


def rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert p, returning the insertion and recording tableaux (P, Q).

    Both have the same shape and the first row of P has length
    ``lis_length(p)``.
    """
    if not p:
        raise ValueError("rsk requires a nonempty permutation")
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for step, x in enumerate(p, start=1):
        r = 0
        while r < len(prows):
            row = prows[r]
            i = bisect_left(row, x)
            if i == len(row):
                row.append(x)
                qrows[r].append(step)
                break
            x, row[i] = row[i], x
            r += 1
        else:
            prows.append([x])
            qrows.append([step])
    return _tableau(tuple(map(tuple, prows))), _tableau(tuple(map(tuple, qrows)))


def rsk_inverse(p_tab: Tableau, q_tab: Tableau) -> Perm:
    """Recover the permutation mapped to (P, Q); inverse of :func:`rsk`.

    Swapping the arguments yields the inverse permutation.
    """
    shape = p_tab.shape
    if shape != q_tab.shape:
        raise ValueError(f"shape mismatch: {shape} vs {q_tab.shape}")
    prows = [list(row) for row in p_tab.rows]
    # row_of[v] is the row of label v in Q; row 0 is the default.
    row_of = [0] * (sum(shape) + 1)
    for r, row in enumerate(q_tab.rows[1:], start=1):
        for v in row:
            row_of[v] = r
    word = []
    for r in row_of[:0:-1]:
        x = prows[r].pop()
        while r:  # x bumps the largest smaller entry of each row above
            r -= 1
            row = prows[r]
            i = bisect_left(row, x) - 1
            x, row[i] = row[i], x
        word.append(x)
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# Hooks


class HookType(Enum):
    """Where the largest entry of a hook sits: end of the first column
    (DOWN) or end of the first row (RIGHT)."""

    DOWN = "down"
    RIGHT = "right"


def is_hook(t: Tableau) -> bool:
    """Whether t has a :func:`hook_shape`; rows weakly decrease, so the second decides."""
    rows = t.rows
    return len(rows) == 1 or len(rows[1]) == 1


def hook_type(t: Tableau) -> HookType:
    if not is_hook(t):
        raise ValueError(f"not a hook: {t}")
    rows = t.rows
    n = len(rows[0]) + len(rows) - 1  # one row and one column
    if n < 2:
        raise ValueError("hook type is undefined for a single box")
    return HookType.RIGHT if rows[0][-1] == n else HookType.DOWN


def hook_from_first_row(n: int, first_row: Sequence[int]) -> Tableau:
    """Build the hook of size n whose first row is the given entry set;
    the remaining entries fill the first column in increasing order."""
    row = tuple(first_row)
    column = filterfalse(set(row).__contains__, range(1, n + 1))
    return _tableau((row,) + tuple(zip(column)))


def hook_tableaux(n: int, k: int | None = None) -> Iterator[Tableau]:
    """All hooks of size n, optionally restricted to first-row length k, in
    ascending k: those of shape (k, 1^(n - k)) that :func:`standard_tableaux`
    lists, in lexicographic order of the first-row entry set."""
    ks = range(1, n + 1) if k is None else [k]
    return chain.from_iterable(standard_tableaux((kk,) + (1,) * (n - kk))
                               for kk in ks if 1 <= kk <= n)


# ---------------------------------------------------------------------------
# Shape rules and generation.  A rule tests a shape by its first-row length k,
# first-column length d and size n; by Schensted's theorem, a permutation's
# insertion shape has first row its LIS and first column its LDS.


def hook_shape(k: int, d: int, n: int) -> bool:
    """One row and one column: every cell lies in the first row or column."""
    return k + d == n + 1


def two_row_shape(k: int, d: int, n: int) -> bool:
    """At most two rows."""
    return d <= 2


def hook_plus_box_shape(k: int, d: int, n: int) -> bool:
    """One cell off the first row and column, at (2, 2): shape (k, 2, 1^j)."""
    return k + d == n


def partitions(n: int) -> Iterator[Shape]:
    """All partitions of n as weakly decreasing tuples, in reverse
    lexicographic order: ``(n,)`` first, ``(1,) * n`` last, ``()`` alone
    for n = 0.  Protected enumeration, and so the order of its witnesses,
    follows this order.

    Iterative (Zoghbi and Stojmenovic's ZS1): each step lowers the last
    part above 1 by one and refills what it frees, together with the
    trailing 1s, greedily with parts no larger than the lowered one.
    """
    if n < 1:
        if n == 0:
            yield ()
        return
    parts = [1] * n
    parts[0] = n
    length, last_big = 1, 0  # parts in use; index of the last part above 1
    while True:
        yield tuple(parts[:length])
        if length == n:
            return
        r = parts[last_big]
        if r == 2:
            parts[last_big] = 1
            length += 1
            last_big -= 1
            continue
        r -= 1
        free = length - last_big  # one off the lowered part, plus the 1s
        parts[last_big] = r
        while free >= r:
            last_big += 1
            parts[last_big] = r
            free -= r
        length = last_big + 1
        if free:
            length += 1
            if free > 1:
                last_big += 1
                parts[last_big] = free


def standard_tableaux(shape: Sequence[int]) -> Iterator[Tableau]:
    """All standard Young tableaux of a nonempty shape, by backtracking."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    if not shape:
        raise ValueError("tableau must have nonempty rows")
    n = sum(shape)
    grid = [[0] * r for r in shape]
    fill = [0] * len(shape)

    def rec(v: int) -> Iterator[Tableau]:
        if v > n:
            yield _tableau(tuple(map(tuple, grid)))
            return
        for r in range(len(shape)):
            c = fill[r]
            if c < shape[r] and (r == 0 or fill[r - 1] > c):
                grid[r][c] = v
                fill[r] += 1
                yield from rec(v + 1)
                fill[r] -= 1

    yield from rec(1)


# ---------------------------------------------------------------------------
# Protected area and surplus


class ProtectedDecomposition(NamedTuple):
    """Split of a tableau into a residual core (the protected area) plus the
    entries removed from the end of the first row (eastern surplus) and the
    bottom of the first column (southern surplus).

    The core keeps the original entries, so it is stored as plain rows: it
    has tableau shape and ordering but its entry set is generally not
    1..m."""

    protected_rows: tuple[tuple[int, ...], ...]
    eastern: tuple[int, ...]
    southern: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.protected_rows[0])

    @property
    def m(self) -> int:
        return sum(map(len, self.protected_rows))

    @property
    def c(self) -> int:
        """Last first-row entry of the protected area."""
        return self.protected_rows[0][-1]

    @property
    def d(self) -> int:
        """Last first-column entry of the protected area."""
        return self.protected_rows[-1][0]

    def is_protected(self, l: int, m: int) -> bool:
        """Whether the tableau is (l, m)-protected, as :func:`is_lm_protected` states."""
        bound = max(self.c, self.d)
        return self.l == l and self.m == m and all(v > bound for v in self.eastern + self.southern)


def protected_decompose(t: Tableau) -> ProtectedDecomposition:
    """Remove as many boxes as possible from the first row and first column
    while the rest stays a Ferrers diagram.

    A first-row box is removable iff it has no box below it, so the first
    row keeps max(second row length, 1) cells; a first-column box is
    removable iff it has no box to its right, so rows of length one peel
    off the bottom.  The two removals cannot enable each other, hence a
    single greedy pass from the outer ends is maximal and the result is
    unique.
    """
    rows = t.rows
    second = len(rows[1]) if len(rows) > 1 else 0
    keep = max(second, 1)
    eastern = rows[0][keep:]
    j = len(rows)
    while j > 1 and len(rows[j - 1]) == 1:
        j -= 1
    southern = tuple(chain.from_iterable(rows[j:]))
    core = (rows[0][:keep],) + rows[1:j]
    return ProtectedDecomposition(core, eastern, southern)


def attach_surplus(
    protected_rows: tuple[tuple[int, ...], ...],
    eastern: Sequence[int],
    southern: Sequence[int],
) -> Tableau:
    """Inverse of :func:`protected_decompose`: extend the first row by the
    eastern entries and the first column by the southern entries."""
    rows = (
        (protected_rows[0] + tuple(eastern),)
        + protected_rows[1:]
        + tuple(zip(southern))
    )
    return _tableau(rows)


def is_lm_protected(t: Tableau, l: int, m: int) -> bool:
    """True iff the protected area of t has m cells with l in its first row
    and every surplus entry exceeds every entry in the protected area's
    first row and first column (vacuously true for empty surpluses)."""
    return protected_decompose(t).is_protected(l, m)
