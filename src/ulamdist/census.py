"""Exhaustive censuses of permutation and tableau classes.

Each class label names a family indexed by size n whose members carry a
statistic k: the longest-increasing-subsequence length for permutation
classes, the first-row length for tableau classes.  ``sequence`` counts
members by k, ``check_log_concavity`` tests the resulting triangle row,
and the ``verify_*`` functions drive the exhaustive confirmations of the
closed-form counts and of the injections.  The labels and every fact
about them live in one table, ``_CLASSES``.

Enumeration is capped per label; the ``ULAM_BUDGET`` environment variable
raises or lowers the caps (a bare integer applies to every label, or a
comma-separated list like ``all_permutations=13,involutions=12``).
Permutation sweeps count S_n over patience-sorting states in one serial
pass.  ``jobs`` is accepted and validated but starts no process: a split of
the first entries cannot divide the memo's distinct states, so two forked
workers gained at most 1.17x (u at 17, on 2 CPUs) and lost at u 12, taking
0.057 s against 0.036 s serially.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from functools import cache, partial
from math import comb, factorial, floor, lgamma, log, log10, prod
from operator import add, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import injections, paths, permutations, tableaux
from .permutations import Perm
from .tableaux import Tableau


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


class _Class(NamedTuple):
    """Everything the census knows about one class label.

    The members of size n are ``base(n)`` (with no base, the standard
    tableaux of the shapes of n the rule admits) where ``passes`` holds: the
    rule ``shapes(k, d, n)`` on the first row k and column d of the insertion
    shape (a permutation's LIS and LDS), then the filter ``member(x)``, each
    if any (``_check_class`` binds protected's (l, m) into its filter);
    ``contains`` tests a candidate, such as an injection's image, against the
    same rules.  ``_sweep_counts`` counts a swept class over S_n by
    patience-sorting states, pruned by the rule, which holds on every prefix
    of a permutation it keeps; the module docstring says why ``jobs`` does
    not split it.  ``per_k(n, k)`` and ``total(n)`` are closed
    forms.  Every callable looks its helpers up when called, so patching or
    rebinding a module-level name reaches it.
    """

    alias: Optional[str]
    cap: int
    base: Optional[Callable[[int], Iterator]]
    member: Optional[Callable[[object], bool]] = None
    perms: bool = True
    swept: bool = False
    shapes: Optional[Callable[[int, int, int], bool]] = None
    per_k: Optional[Callable[[int, int], int]] = None
    total: Optional[Callable[[int], int]] = None

    def members(self, n: int) -> Iterator:
        if self.base is not None:
            return (x for x in self.base(n) if self.passes(n, x))
        # Generated shape by shape, so the rule holds; only the filter is left.
        made = _shaped_tableaux(self.shapes, n)
        return made if self.member is None else (t for t in made if self.member(t))

    def passes(self, n: int, x) -> bool:
        """Whether a candidate of size n passes the row's shape rule, then its filter."""
        if self.shapes is not None:
            d = permutations.lds_length(x) if self.perms else len(x.rows)
            if not self.shapes(self.stat(x), d, n):
                return False
        return self.member is None or self.member(x)

    def stat(self, x) -> int:
        """LIS length of a permutation, first-row length of a tableau."""
        return permutations.lis_length(x) if self.perms else len(x.rows[0])

    def contains(self, n: int, k: int, x) -> bool:
        """Whether x is a member of size n with statistic k.  A tableau is
        validated first, so a malformed one raises ValueError."""
        if not self.perms:
            tableaux.check_tableau(x.rows)
        return (len(x) if self.perms else x.n) == n and self.passes(n, x) and self.stat(x) == k


_CLASSES: dict[str, _Class] = {
    # every permutation of 1..n
    "all_permutations": _Class("u", 12, lambda n: _permutations_of(n, n), swept=True),
    # p with p o p = id
    "involutions": _Class("i", 13, lambda n: involutions(n)),
    # hook tableaux of size n
    "hooks": _Class(
        "h", 16, lambda n: tableaux.hook_tableaux(n), perms=False,
        shapes=lambda k, d, n: tableaux.hook_shape(k, d, n), per_k=lambda n, k: _hook_count(n, k),
    ),
    # (l, m)-protected tableaux; _check_class binds (l, m) into the filter
    "protected": _Class("p", 11, None, perms=False),
    # involutions avoiding 321
    "two_row_involutions": _Class(
        "a", 13, lambda n: involutions(n), lambda p: permutations.lds_length(p) <= 2,
        per_k=lambda n, k: _two_row_count(n, k),
    ),
    # permutations avoiding 321
    "avoid321_permutations": _Class(
        "b", 12, lambda n: _permutations_of(n, n), swept=True,
        shapes=lambda k, d, n: tableaux.two_row_shape(k, d, n),
        per_k=lambda n, k: _two_row_count(n, k) ** 2,
    ),
    # permutations whose insertion shape is a hook
    "hook_pair_permutations": _Class(
        "m", 12, lambda n: _permutations_of(n, n), swept=True,
        shapes=lambda k, d, n: tableaux.hook_shape(k, d, n),
        per_k=lambda n, k: _hook_count(n, k) ** 2,
    ),
    # involutions avoiding 2143 and 3412
    "skew_merged_involutions": _Class(
        None, 12, lambda n: involutions(n), lambda p: permutations.is_skew_merged(p),
        per_k=lambda n, k: _hook_count(n, k), total=lambda n: 2 ** (n - 1),
    ),
    # tableaux with at most two rows
    "two_row_tableaux": _Class(
        None, 16, None, perms=False, shapes=lambda k, d, n: tableaux.two_row_shape(k, d, n)),
    # (2, 4)-protected tableaux of the hook-plus-box shapes
    "protected24_tableaux": _Class(
        None, 16, None, lambda t: tableaux.is_lm_protected(t, 2, 4), perms=False,
        shapes=lambda k, d, n: tableaux.hook_plus_box_shape(k, d, n),
        total=lambda n: (n - 3) * 2 ** (n - 3) if n >= 4 else 0,
    ),
    # tableaux shaped like a hook plus a (2, 2) box
    "hook_plus_box_tableaux": _Class(
        None, 16, None, perms=False, shapes=lambda k, d, n: tableaux.hook_plus_box_shape(k, d, n),
        total=lambda n: (n - 4) * 2 ** (n - 2) + 2 if n >= 4 else 0,
    ),
}


def resolve_label(label: str) -> str:
    for canonical, row in _CLASSES.items():
        if label in (canonical, row.alias):
            return canonical
    raise ValueError(f"unknown class label {label!r}")


def enumeration_cap(label: str) -> int:
    """Configured cap for a class, honoring ULAM_BUDGET."""
    canonical = resolve_label(label)
    raw = os.environ.get("ULAM_BUDGET", "").strip()
    if not raw:
        return _CLASSES[canonical].cap
    if "=" not in raw:
        return _parse_cap(raw, f"ULAM_BUDGET={raw!r}")
    cap = _CLASSES[canonical].cap
    for part in raw.split(","):
        name, _, value = part.partition("=")
        try:
            name = resolve_label(name.strip())
        except ValueError as exc:
            raise ValueError(f"cannot parse ULAM_BUDGET entry {part!r}: {exc}") from None
        parsed = _parse_cap(value, f"ULAM_BUDGET entry {part!r}")
        if name == canonical:
            cap = parsed
    return cap


def _parse_cap(text: str, source: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise ValueError(f"cannot parse {source}") from None
    if cap < 1:
        raise ValueError(f"ULAM_BUDGET caps must be >= 1, got {cap}")
    return cap


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _scientific(digits: float) -> str:
    """The number 10^digits as ``<mantissa>e<exponent>``."""
    exponent = floor(digits)
    return f"{10 ** (digits - exponent):.2f}e{exponent}"


def _factorial_text(n: int) -> str:
    """``n! = <value>``, written approximately once it has over 20 digits
    (Python refuses to print an int of over 4300 digits: n! from n = 1559)."""
    if n <= 20:
        return f"{n}! = {factorial(n)}"
    return f"{n}! ~ {_scientific(lgamma(n + 1) / log(10))}"


# Largest n whose refused injection states its pair count.  Summing the
# closed forms takes about 40 ms at n = 1000 and grows faster than n^2.
_PAIRS_N_MAX = 1000


def _check_budget(label: str, n: int, pairs: Optional[Callable[[], int]] = None) -> None:
    """Refuse n above the label's cap; the caller checks n.  The refusal
    states the size of the work refused: n! for a class swept over S_n, and
    ``pairs()``, the domain of an injection, when given and n <= _PAIRS_N_MAX."""
    limit = enumeration_cap(label)
    if n > limit:
        size = ""
        if _CLASSES[label].swept:
            size = f" ({_factorial_text(n)} permutations)"
        elif pairs is not None and n <= _PAIRS_N_MAX:
            count = pairs()
            text = str(count) if count < 10 ** 20 else f"~ {_scientific(log10(count))}"
            size = f" ({text} pairs)"
        raise BudgetError(
            f"enumeration of {label!r} at n={n} exceeds the cap {limit}{size}; "
            f"set ULAM_BUDGET to raise it"
        )


def _check_class(canonical: str, n: int, lm: Optional[tuple[int, int]]) -> _Class:
    """Check n (for every class enumeration), then lm, then the budget: a bad
    lm is named before a refusal.  Returns the row, protected's bound to lm."""
    _check_n(n)
    if canonical == "protected":
        if lm is None:
            raise ValueError("class 'protected' requires the lm parameter")
        l, m = lm
        if not 1 <= l <= m <= n:
            raise ValueError(f"lm must satisfy 1 <= l <= m <= n={n}, got {l},{m}")
    elif lm is not None:
        raise ValueError(f"class {canonical!r} takes no lm parameter")
    _check_budget(canonical, n)
    row = _CLASSES[canonical]
    return row if lm is None else row._replace(member=lambda t: tableaux.is_lm_protected(t, *lm))


# ---------------------------------------------------------------------------
# Generators


def involutions(n: int) -> Iterator[Perm]:
    """All involutions of length n."""
    word = [0] * (n + 1)

    def rec(i: int) -> Iterator[Perm]:
        while i <= n and word[i]:
            i += 1
        if i > n:
            yield tuple(word[1:])
            return
        word[i] = i
        yield from rec(i + 1)
        word[i] = 0
        for j in range(i + 1, n + 1):
            if not word[j]:
                word[i], word[j] = j, i
                yield from rec(i + 1)
                word[i] = word[j] = 0

    yield from rec(1)


def _permutations_of(n: int, m: int) -> Iterator[Perm]:
    """The m-entry prefixes of S_n in lexicographic order; S_n itself at m = n."""
    return itertools.permutations(range(1, n + 1), m)


def _shaped_tableaux(shapes: Optional[Callable], n: int) -> Iterator[Tableau]:
    """The standard tableaux of each shape of n that ``shapes`` admits (every
    shape, without a rule), in the order of ``tableaux.partitions``."""
    for shape in tableaux.partitions(n):
        if shapes is None or shapes(shape[0], len(shape), n):
            yield from tableaux.standard_tableaux(shape)


def enumerate_class(
    label: str,
    n: int,
    *,
    lm: Optional[tuple[int, int]] = None,
) -> Iterator[Perm] | Iterator[Tableau]:
    """Yield every member of a class exactly once."""
    return _check_class(resolve_label(label), n, lm).members(n)


# ---------------------------------------------------------------------------
# Sequences


class ClassSequence(NamedTuple):
    """One triangle row: counts by statistic k for a class at fixed n.

    ``counts`` runs in ascending k over every k from the least to the
    greatest present, zeros kept so that internal gaps stay visible; it is
    empty for an empty class.
    """

    label: str
    n: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _make_sequence(label: str, n: int, raw: Counter) -> ClassSequence:
    ks = range(min(raw), max(raw) + 1) if raw else ()
    return ClassSequence(label, n, {k: raw.get(k, 0) for k in ks})


def _gap_children(gaps: tuple[int, ...]) -> dict[int, tuple[tuple[int, ...], int]]:
    """``gaps[i]`` values left lie between increasing tails i - 1 and i, the
    last gap above every tail.  A value replaces the tail bounding its gap,
    so the larger values of its gap move up one; in the last gap it opens a
    tail.  Leading empty gaps are dropped: nothing enters them again."""
    children, top = {}, len(gaps) - 1
    for i, (g, above) in enumerate(zip(gaps, (*gaps[1:], 0))):
        for below in range(g):
            child = (*gaps[:i], below, g - 1 - below + above, *gaps[i + 2:])
            while child and not child[0]:
                child = child[1:]
            children[len(children)] = child, int(i == top)
    return children


def _pair_children(rule: Callable, n: int, state: tuple) -> dict[int, tuple[tuple, int]]:
    """t increasing and s decreasing tails; for the values x left, in
    increasing order, a[x] increasing tails below x and d[x] decreasing
    tails above it.  Placing v raises a[x] for every larger x with a[x] =
    a[v], d[x] for every smaller x with d[x] = d[v], t when a[v] = t and s
    when d[v] = s.  Placements whose state the rule rejects are left out."""
    t, s, a, d = state
    children = {}
    for j, (av, dv) in enumerate(zip(a, d)):
        up, down = t + (av == t), s + (dv == s)
        if rule(up, down, n - len(a) + 1):
            children[j] = (up, down, (*a[:j], *[x + (x == av) for x in a[j + 1:]]),
                           (*[x + (x == dv) for x in d[:j]], *d[j + 1:])), up - t
    return children


def _sweep_counts(label: str, n: int) -> Counter:
    """Count a swept class over S_n.

    A prefix's completions depend only on its patience-sorting state, so a
    recursion memoised for this call counts them once per state, by the
    increasing tails they open: the LIS is the number of tails at the end.
    ``children(state)`` maps the rank of each value left to the state after
    placing it and the tails it opens.  A row with a shape rule also tracks
    the decreasing tails, as many as the LDS, and its rule prunes every
    state.  The first entries are the one-entry prefixes
    ``_permutations_of(n, 1)``.
    """
    rule = _CLASSES[label].shapes
    children, root = ((_gap_children, (n,)) if rule is None else
                      (partial(_pair_children, cache(rule), n), (0, 0, (0,) * n, (0,) * n)))
    memo: dict[tuple, dict[int, int]] = {}

    def tally(kids: Iterable[tuple[tuple, int]], left: int) -> dict[int, int]:
        """Orderings of what is left after each (state, tails opened) in
        ``kids``, placed when ``left`` values were left, by tails opened."""
        hist: dict[int, int] = {}
        for child, opened in kids:
            if child not in memo:
                memo[child] = tally(children(child).values(), left - 1) if left > 1 else {0: 1}
            for k, c in memo[child].items():
                hist[k + opened] = hist.get(k + opened, 0) + c
        return hist

    kids = children(root)
    return Counter(tally([kids[v - 1] for (v,) in _permutations_of(n, 1) if v - 1 in kids], n))


def sequence(
    label: str,
    n: int,
    *,
    lm: Optional[tuple[int, int]] = None,
    jobs: Optional[int] = None,
) -> ClassSequence:
    """Count class members by statistic k via exhaustive enumeration.

    ``jobs`` is validated and nothing more: no class takes one below 1, and
    only a class swept over S_n takes one above 1.  The module docstring
    says why every class is counted serially.
    """
    canonical = resolve_label(label)
    row = _check_class(canonical, n, lm)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs is not None and jobs > 1 and not row.swept:
        swept = ", ".join(name for name, r in _CLASSES.items() if r.swept)
        raise ValueError(f"jobs > 1 needs a class swept over S_n ({swept}), not {canonical!r}")
    if not row.swept:
        counts = Counter(map(row.stat, row.members(n)))
    else:
        counts = _sweep_counts(canonical, n)
    return _make_sequence(canonical, n, counts)


def sequence_csv(seq: ClassSequence) -> str:
    """Triangle CSV with header ``n,k,count``, rows ascending in k."""
    lines = ["n,k,count"] + [f"{seq.n},{k},{c}" for k, c in seq.counts.items()]
    return "\n".join(lines) + "\n"


def sequence_json(seq: ClassSequence) -> dict:
    return {
        "class": seq.label,
        "n": seq.n,
        "counts": {str(k): v for k, v in seq.counts.items()},
    }


# ---------------------------------------------------------------------------
# Shape-wise counting shortcut


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux of a shape (1 for the empty shape), by
    the hook-length formula in Frobenius's form:
    f = n! * prod_{i<j} (h_i - h_j) / prod_i h_i!, where h_i = shape_i + l - i
    are the hook lengths of the first column of an l-row shape."""
    if not tableaux.is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    # Conjugation keeps f, so take the orientation with fewer rows.  The
    # conjugate's row j, the number of rows longer than j: count the rows
    # ending at each column, then sum those counts from the right.
    if shape and len(shape) > shape[0]:
        ends = [0] * shape[0]
        for r in shape:
            ends[r - 1] += 1
        shape = list(itertools.accumulate(reversed(ends)))[::-1]
    hooks = list(map(add, shape, range(len(shape) - 1, -1, -1)))
    count, rem = divmod(
        factorial(sum(shape)) * prod(itertools.starmap(sub, itertools.combinations(hooks, 2))),
        prod(map(factorial, hooks)),
    )
    assert rem == 0
    return count


def _shape_class(label: str) -> tuple[str, int]:
    """Canonical label and shape weight of a permutation row with neither a
    shape rule nor a filter: 2 for a row swept over S_n, whose permutations
    row-insert to two tableaux of one shape, else 1 (involutions, one)."""
    canonical = resolve_label(label)
    row = _CLASSES[canonical]
    if not row.perms or row.shapes is not None or row.member is not None:
        raise ValueError(f"--method shapes is not available for {label!r}")
    return canonical, 2 if row.swept else 1


def counts_by_shape(label: str, n: int) -> ClassSequence:
    """A triangle row computed without enumeration, for the classes that are
    a weighted sum over all shapes of n.

    Row insertion pairs each permutation with two equal-shape tableaux, and
    each involution with one, and sends the statistic to the first-row
    length.  So the count at k is the sum of (f^shape)^e over the shapes
    with first row k: e = 2 for all permutations, 1 for involutions.  Used
    as a cross-checked accelerator; exhaustive enumeration stays the
    reference.
    """
    canonical, weight = _shape_class(label)
    _check_n(n)
    counts: Counter = Counter()
    for shape in tableaux.partitions(n):
        counts[shape[0]] += count_standard_tableaux(shape) ** weight
    return _make_sequence(canonical, n, counts)


# ---------------------------------------------------------------------------
# Closed forms


def _hook_count(n: int, k: int) -> int:
    """Hook tableaux of size n with first row k: C(n - 1, k - 1)."""
    return comb(n - 1, k - 1) if 1 <= k <= n else 0


def _two_row_count(n: int, k: int) -> int:
    """Standard tableaux of shape (k, n - k): C(n, k)(2k - n + 1)/(k + 1)."""
    if not (n + 1) // 2 <= k <= n:
        return 0
    count, rem = divmod(comb(n, k) * (2 * k - n + 1), k + 1)
    assert rem == 0
    return count


def closed_form(label: str, n: int, k: Optional[int] = None) -> int:
    """Exact closed-form count for the classes that have one.

    Per-k forms need k; the totals (skew_merged_involutions without k,
    protected24_tableaux, hook_plus_box_tableaux) reject it.  A k outside
    the class support yields 0.
    """
    canonical = resolve_label(label)
    _check_n(n)
    row = _CLASSES[canonical]
    if k is None and row.total is not None:
        return row.total(n)
    if k is not None and row.per_k is not None:
        return row.per_k(n, k)
    if row.per_k is not None:
        raise ValueError(f"{canonical} closed form needs k")
    if row.total is not None:
        raise ValueError(f"{canonical} has a total closed form only")
    raise ValueError(f"no closed form for class {canonical!r}")


# ---------------------------------------------------------------------------
# Log-concavity


class LogConcavityReport(NamedTuple):
    label: str
    n: int
    witnesses: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {
            "class": self.label,
            "n": self.n,
            "holds": self.holds,
            "witnesses": list(self.witnesses),
        }


def check_log_concavity(seq: ClassSequence) -> LogConcavityReport:
    """Check c[k-1] * c[k+1] <= c[k]^2 at every interior k of the support.

    Leading and trailing zeros fall outside ``counts`` by construction;
    zeros inside the support are genuine violations and show up as
    witnesses.
    """
    c = seq.counts
    witnesses = tuple(k for k in list(c)[1:-1] if c[k - 1] * c[k + 1] > c[k] ** 2)
    return LogConcavityReport(seq.label, seq.n, witnesses)


def verify_conjecture(n_max: int, jobs: Optional[int] = None) -> list[LogConcavityReport]:
    """Log-concavity of the all-permutations triangle rows for n <= n_max,
    from exhaustive enumeration.  Budget-capped; sizes beyond the cap are
    refused rather than extrapolated."""
    _check_n(n_max)
    _check_budget("all_permutations", n_max)
    return [
        check_log_concavity(sequence("all_permutations", n, jobs=jobs))
        for n in range(1, n_max + 1)
    ]


# ---------------------------------------------------------------------------
# Injection verification

# The kinds ``verify_injection`` checks, in the order the CLI lists them.
_INJECTION_KINDS = ("hook", "protected", "flip", "lift")

# The lift kind's classes, in run order: witness prefix, permutation class, and
# tableau injection, named so each run looks up the current ``injections`` map.
_LIFT_CLASSES = {
    "hook": ("hook-class ", "hook_pair_permutations", "hook_inject"),
    "two_row": ("two-row-class ", "avoid321_permutations", "two_row_inject"),
}


class InjectionReport(NamedTuple):
    kind: str
    n: int
    k: Optional[int]
    domain_size: int
    injective: bool
    codomain_ok: bool
    type_preserved: Optional[bool]
    preimage_identity: Optional[bool]
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.codomain_ok
            and self.type_preserved is not False
            and self.preimage_identity is not False
        )

    def to_json(self) -> dict:
        data = self._asdict()
        witnesses = data.pop("witnesses")
        return {**data, "ok": self.ok, "witnesses": list(witnesses)}


def _fails(fn: Callable, *args) -> bool:
    """Whether ``fn(*args)`` is false or raises ValueError."""
    try:
        return not fn(*args)
    except ValueError:
        return True


def _check_injection(
    blocks: Iterable[tuple[int, list, list]],
    f: Callable,
    in_codomain: Callable,
    check: Optional[tuple[str, Callable]] = None,
    inverse: Optional[Callable] = None,
) -> tuple[int, bool, bool, bool, list[str]]:
    """Apply ``f(a, b)`` to every pair of every ``(k, lefts, rights)``
    block and check each image pair (u, v), in this order; the map reads
    all it needs off the pair, and k names the block's codomain.  A check
    fails when its predicate is false or raises ValueError (a validator
    rejecting a malformed image, or a check handed an image it cannot read).

    0. ``f`` itself: a ValueError it raises (a lift whose image tableaux
       are not standard or differ in shape) counts as a codomain failure,
       and the pair's other checks are skipped;
    1. ``in_codomain(k, u)`` and, if that holds, ``in_codomain(k, v)``;
       each predicate is a pure function of k and the image, so its
       verdict is computed once per distinct image of a block;
    2. the optional named check ``(name, holds)``: ``holds(a, b, u, v)``;
    3. no earlier pair of the same block has the same image.

    ``inverse(a, b, u, v)``, if given, is a silent predicate: whether a
    deterministic left inverse g gives g(u, v) == (a, b), compared on what
    fixes each member (a tableau's rows, a hook's first row).  If it holds
    on every pair of a block, the block's (distinct) pairs have distinct
    images, so step 3 is skipped and nothing is kept per pair.  When the
    named check is that inverse, its verdict serves both.  A block where
    the inverse fails on some pair is checked again with step 3, and only
    that second pass reports.

    Each failure is recorded once, as a witness tagged "codomain" (steps 0
    and 1), "check" (step 2) or "collision" (step 3); the three verdicts
    are read off the tags at the end.

    Returns the number of pairs, whether the map was injective, whether
    the images lay in the codomain, whether the named check held, and the
    witnesses, each formatted only when a check fails.  The earlier pair of
    a collision is shown as a tuple of its members' text forms: a
    permutation (a tuple) as itself, a tableau or a path by ``str``.
    """
    name, holds = check if check is not None else ("", None)

    def run(lefts: list, rights: list, outside: Callable, seen: Optional[dict]):
        """One pass over a block: its failures as (check, witness) pairs.
        With ``seen`` None the inverse stands in for the collision check,
        and the pass gives up (None) at the first pair where it fails."""
        failures: list[tuple[str, str]] = []
        for a in lefts:
            for b in rights:
                try:
                    u, v = f(a, b)
                except ValueError as exc:
                    failures.append(("codomain", f"codomain: ({a}, {b}) -> error: {exc}"))
                    continue
                if outside(u) or outside(v):
                    failures.append(("codomain", f"codomain: ({a}, {b}) -> ({u}, {v})"))
                held = holds is None or not _fails(holds, a, b, u, v)
                if not held:
                    failures.append(("check", f"{name}: ({a}, {b}) -> ({u}, {v})"))
                if seen is None:
                    if not (held if inverse is holds else not _fails(inverse, a, b, u, v)):
                        return None
                    continue
                pair = (a, b)
                earlier = seen.setdefault((u, v), pair)
                if earlier is not pair:
                    shown = tuple(x if isinstance(x, tuple) else str(x) for x in earlier)
                    failures.append(("collision", f"collision: {shown} and ({a}, {b})"))
        return failures

    domain = 0
    failures: list[tuple[str, str]] = []
    for k, lefts, rights in blocks:
        domain += len(lefts) * len(rights)
        # The codomain depends on k, so a memo never outlives its block.
        outside = cache(partial(_fails, in_codomain, k))
        block = run(lefts, rights, outside, None) if inverse is not None else None
        failures += run(lefts, rights, outside, {}) if block is None else block
    tags = {tag for tag, _ in failures}
    return (domain, "collision" not in tags, "codomain" not in tags, "check" not in tags,
            [witness for _, witness in failures])


def verify_injection(
    kind: str,
    n: int,
    *,
    k: Optional[int] = None,
    lm: Optional[tuple[int, int]] = None,
    lift_classes: tuple[str, ...] = tuple(_LIFT_CLASSES),
) -> InjectionReport:
    """Enumerate an injection's full domain and check it lands injectively
    in the declared codomain; counterexamples are reported verbatim.

    Every kind sends pairs with statistics (j - 1, j + 1) to pairs with
    statistic j and is checked one block per middle statistic j over its
    whole range lo < j < n (lo is (n + 1) // 2 for flip, else 1), whether
    or not a class has members at j; hook and flip name a block by
    k = j - 1, protected and lift by j.  Each map is
    called on the pair alone and reads n, the statistics and the
    protected area off it; j serves only the codomain check.  A class
    injection's codomain is read from the class table: a member of size n
    with statistic j (``_Class.contains``).  Flip's is the paths of n steps
    with j east steps.  The maps build their images unchecked, so every
    distinct image of a block is validated once, and a malformed image is
    a codomain failure.  Hook, flip and protected prove each block
    injective by a left inverse, ``injections.hook_preimage`` on first rows,
    the preimage check's ``paths.flip_preimage`` and
    ``injections.protected_preimage`` on rows, so they keep nothing per
    pair; only lift remembers every pair's image.

    Before any enumeration, every kind checks in this order: the kind; that
    each of lift_classes is a key of ``_LIFT_CLASSES``; that lm is given for
    the protected kind only; that n >= 1; that an explicit k lies in the kind's
    range; for the protected kind, the range of lm; last, the budget of
    every class enumerated, where a refused hook or flip states its number
    of pairs."""
    if kind not in _INJECTION_KINDS:
        raise ValueError(f"unknown injection kind {kind!r}")
    for name in lift_classes:
        if name not in _LIFT_CLASSES:
            raise ValueError(f"unknown lift class {name!r}")
    if kind != "protected" and lm is not None:
        raise ValueError(f"injection kind {kind!r} takes no lm parameter")
    if kind == "protected" and lm is None:
        raise ValueError("protected verification requires lm")
    _check_n(n)
    lo = (n + 1) // 2 if kind == "flip" else 1
    shift = int(kind in ("protected", "lift"))
    if k is not None and not lo + shift <= k <= n - 2 + shift:
        raise ValueError(f"{kind} injection at n={n} needs {lo + shift} <= k <= "
                         f"{n - 2 + shift}, got k={k}")
    es = range(lo, n - 1) if k is None else (k - shift,)

    def sides(label: str, count: Callable[[int, int], int], build: Callable):
        """Check the budget of ``label``, whose refusal counts the pairs by
        ``count(n, e)``; side e is then the members ``build(n, e)``, built once."""
        _check_budget(label, n, lambda: sum(count(n, e) * count(n, e + 2) for e in es))
        return cache(lambda e: list(build(n, e)))

    def into(row: _Class, f: Callable, members: Iterable):
        """Side, map and codomain of f into ``row``: side e is the members with
        statistic e, grouped in enumeration order on first use."""

        @cache
        def by_stat() -> dict[int, list]:
            groups: dict[int, list] = {}
            for x in members:
                groups.setdefault(row.stat(x), []).append(x)
            return groups

        return lambda e: by_stat().get(e, []), f, partial(row.contains, n)

    inverse = None
    if kind == "hook":
        ht, back = tableaux.hook_type, injections.hook_preimage
        typed = cache(ht)  # each input member once; each image afresh

        def round_trips(t1, t2, u1, u2):
            # A hook is fixed by its size and first row.
            return back(n, u1.rows[0], u2.rows[0]) == (t1.rows[0], t2.rows[0])

        runs = {"": (
            sides("hooks", _hook_count, tableaux.hook_tableaux),
            injections.hook_inject, partial(_CLASSES["hooks"].contains, n),
            ("type", lambda t1, t2, u1, u2: (ht(u1), ht(u2)) == (typed(t1), typed(t2))),
        )}
        inverse = round_trips
    elif kind == "flip":

        def in_paths(j, r):
            paths.check_path(r.steps)
            return r.n == n and r.east == j

        def preimage(p, q, r, s):
            back = paths.flip_preimage(r, s)
            return back is not None and (back[0].steps, back[1].steps) == (p.steps, q.steps)

        runs = {"": (sides("two_row_tableaux", _two_row_count, paths.lattice_paths),
                     paths.flip_inject, in_paths, ("preimage", preimage))}
        inverse = preimage
    elif kind == "protected":
        back = injections.protected_preimage

        def round_trips(t1, t2, u1, u2):
            return back(u1, u2) == (t1.rows, t2.rows)

        row = _check_class("protected", n, lm)
        runs = {"": into(row, injections.protected_inject, row.members(n))}
        inverse = round_trips
    else:
        # Each shape-rigid class at size n with its tableau injection, every
        # witness labelled with its class.  lift validates each distinct
        # image tableau once per run, before inverting row insertion.
        check = cache(injections.check_tableau)
        runs = {
            prefix: into(_CLASSES[label], partial(injections.lift, getattr(injections, inj),
                                                  check=check), enumerate_class(label, n))
            for name, (prefix, label, inj) in _LIFT_CLASSES.items() if name in lift_classes
        }
    # Every check has passed: only now does enumeration start.
    parts = [(prefix, _check_injection(((e + 1, side(e), side(e + 2)) for e in es), *args,
                                       inverse=inverse))
             for prefix, (side, *args) in runs.items()]
    check_ok = all(result[3] for _, result in parts)
    return InjectionReport(
        kind, n, k,
        sum(result[0] for _, result in parts),
        all(result[1] for _, result in parts),
        all(result[2] for _, result in parts),
        check_ok if kind == "hook" else None,
        check_ok if kind == "flip" else None,
        tuple(prefix + w for prefix, result in parts for w in result[4]),
    )


# ---------------------------------------------------------------------------
# Closed forms versus brute force


class FormulaReport(NamedTuple):
    name: str
    n_max: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "formula": self.name,
            "n_max": self.n_max,
            "ok": self.ok,
            "mismatches": list(self.mismatches),
        }


# Families of closed forms: (report name, largest n, entries), each entry
# (closed-form label, enumerated label, total's name or None).  For every
# n up to the family's largest, the closed-form label's per-k form, where
# it has one, meets the enumerated count at each 1 <= k <= n, and its total
# form meets the enumerated total when the entry names it.
_PROTECTED24_MAX = 14
_FORMULA_FAMILIES = (
    ("hooks_binomial", 15, (("hooks", "hooks", None),)),
    ("two_row_tableaux_count", 14, (("two_row_involutions", "two_row_tableaux", None),)),
    ("avoid321_involutions_count", 12,
     (("two_row_involutions", "two_row_involutions", None),)),
    ("skew_merged_binomial", 11,
     (("skew_merged_involutions", "skew_merged_involutions", "skew_merged"),)),
    ("protected24_and_hook_plus_box", _PROTECTED24_MAX,
     (("protected24_tableaux", "protected24_tableaux", "protected24"),
      ("hook_plus_box_tableaux", "hook_plus_box_tableaux", "hook_plus_box"))),
    ("hook_pair_squares", 12, (("hook_pair_permutations", "hook_pair_permutations", None),)),
)


def verify_formulas(n_max: int) -> list[FormulaReport]:
    """Exact closed forms against exhaustive enumeration, each family up to
    min(n_max, its own cap); each class is enumerated once per n.

    One family, protected24_ratio, checks a bound rather than a closed form:
    for 5 <= n <= min(n_max, 14) the enumerated totals p_n of (2, 4)-protected
    tableaux and b_n of hook-plus-box tableaux must satisfy
    1/2 < p_n/b_n < (n-3)/(2(n-4)), compared exactly in integers."""
    _check_n(n_max)
    counted = cache(sequence)
    reports = []
    for name, largest, entries in _FORMULA_FAMILIES:
        top = min(n_max, largest)
        bad = []
        for n in range(1, top + 1):
            for label, count_label, total_name in entries:
                seq, row = counted(count_label, n), _CLASSES[label]
                checks = []
                if row.per_k is not None:
                    checks += [
                        (f"{label} n={n} k={k}", row.per_k(n, k), seq.counts.get(k, 0))
                        for k in range(1, n + 1)
                    ]
                if total_name is not None:
                    checks.append((f"{total_name} total n={n}", row.total(n), seq.total))
                bad += [f"{what}: formula {expect} vs count {got}"
                        for what, expect, got in checks if expect != got]
        reports.append(FormulaReport(name, top, tuple(bad)))

    top = min(n_max, _PROTECTED24_MAX)
    bad = []
    for n in range(5, top + 1):
        p_n = counted("protected24_tableaux", n).total
        b_n = counted("hook_plus_box_tableaux", n).total
        # 1/2 < p/b < (n-3)/(2(n-4)) on the enumerated totals, compared exactly
        # by cross-multiplication.  The closed forms give 2p - b = 2^(n-2) - 2
        # and (n-3)b - 2(n-4)p = 2(n-3), so both sides are strict for n >= 5.
        if not (2 * p_n > b_n and 2 * (n - 4) * p_n < (n - 3) * b_n):
            bad.append(
                f"ratio n={n}: p={p_n} b={b_n} outside (1/2, {n - 3}/{2 * (n - 4)})"
            )
    reports.append(FormulaReport("protected24_ratio", top, tuple(bad)))

    return reports
