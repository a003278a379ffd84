"""The unchecked builders against the validators.

Tableaux and paths built inside the library skip the check that the public
constructors run, because every builder produces valid objects by
construction.  These exhaustive runs are the oracle for that claim: each
output must pass ``check_tableau`` or ``check_path``.
"""

import copy
import itertools
import pickle

import pytest

from ulamdist.census import enumerate_class
from ulamdist.injections import hook_inject, protected_inject
from ulamdist.paths import (
    LatticePath,
    _last_crossing,
    _path,
    check_path,
    flip_inject,
    lattice_paths,
    path_to_tableau,
    tableau_to_path,
)
from ulamdist.tableaux import (
    Tableau,
    _tableau,
    check_tableau,
    hook_tableaux,
    partitions,
    protected_decompose,
    rsk,
    standard_tableaux,
)


@pytest.mark.parametrize("cls, build, field, value, other, bad", [
    (Tableau, _tableau, "rows", ((1, 3), (2,)), ((1, 2), (3,)), ((2, 1),)),
    (LatticePath, _path, "steps", "EEN", "ENE", "NE"),
], ids=["Tableau", "LatticePath"])
def test_values_compare_hash_and_show_by_their_field(cls, build, field, value, other, bad,
                                                     monkeypatch):
    x = cls(value)
    assert x == cls(value) == build(value) and x != cls(other)
    # Equal only to the same class: never to the field or a tuple of it.
    assert x != value and x != (value,) and not isinstance(x, tuple)
    assert hash(x) == hash(build(value)) == hash((value,))
    assert repr(x) == f"{cls.__name__}({field}={value!r})"
    # The repr is a keyword construction that rebuilds an equal value.
    assert eval(repr(x), {cls.__name__: cls}) == cls(**{field: value}) == x
    with pytest.raises(ValueError):
        cls(**{field: bad})
    for attempt in (lambda: setattr(x, field, other), lambda: setattr(x, "extra", 1),
                    lambda: delattr(x, field)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(x, field) == value
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x
    # Public construction validates through self.__post_init__, which a
    # tracer may replace on the class; the unchecked builder skips it.
    checked = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: (checked.append(self), post_init(self)))
    assert cls(value) == x and checked == [x]
    build(bad)
    assert checked == [x]
    with pytest.raises(ValueError):
        cls(bad)


def test_a_tableau_built_from_lists_stores_tuples():
    rows = ((1, 2), (3,))
    t = Tableau([list(row) for row in rows])
    assert t.rows == rows and t == Tableau(rows) and hash(t) == hash(Tableau(rows))
    column, row = Tableau([[1], [2], [3]]), Tableau([[1, 2, 3]])
    assert hook_inject(column, row) == hook_inject(Tableau(((1,), (2,), (3,))),
                                                    Tableau(((1, 2, 3),)))
    assert protected_decompose(t) == protected_decompose(Tableau(rows))


def test_rsk_tableaux_are_standard():
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            p_tab, q_tab = rsk(p)
            check_tableau(p_tab.rows)
            check_tableau(q_tab.rows)


def test_standard_tableaux_are_standard():
    for n in range(1, 9):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                check_tableau(t.rows)
                assert t.shape == shape


def test_standard_tableaux_refuse_the_empty_shape():
    # A Tableau has nonempty rows, so no builder makes one of shape ().
    with pytest.raises(ValueError, match="^tableau must have nonempty rows$"):
        list(standard_tableaux(()))


def test_hook_tableaux_are_standard():
    for n in range(1, 11):
        for t in hook_tableaux(n):
            check_tableau(t.rows)


def test_lattice_paths_and_their_tableaux_are_valid():
    for n in range(1, 13):
        for k in range((n + 1) // 2, n + 1):
            for path in lattice_paths(n, k):
                check_path(path.steps)
                t = path_to_tableau(path)
                check_tableau(t.rows)
                check_path(tableau_to_path(t).steps)


def test_flip_images_are_paths():
    for n in range(3, 11):
        for k in range((n + 1) // 2, n - 1):
            for p in lattice_paths(n, k):
                for q in lattice_paths(n, k + 2):
                    r, s = flip_inject(p, q)
                    check_path(r.steps)
                    check_path(s.steps)


def test_protected_images_are_standard():
    for n in range(4, 9):
        by_k = {}
        for t in enumerate_class("protected", n, lm=(2, 4)):
            by_k.setdefault(len(t.rows[0]), []).append(t)
        for k in sorted(by_k):
            for t1 in by_k.get(k - 1, []):
                for t2 in by_k.get(k + 1, []):
                    for u in protected_inject(t1, t2):
                        check_tableau(u.rows)


def _last_crossing_by_steps(a, b):
    # The step-by-step definition: the largest t with e_b(t) - e_a(t) == 1.
    diff, last = 0, None
    for t in range(1, len(a) + 1):
        diff += (b[t - 1] == "E") - (a[t - 1] == "E")
        if diff == 1:
            last = t
    return last


def test_last_crossing_matches_the_step_by_step_definition():
    for n in range(1, 10):
        every = [
            p.steps for k in range((n + 1) // 2, n + 1) for p in lattice_paths(n, k)
        ]
        for a in every:
            for b in every:
                assert _last_crossing(a, b) == _last_crossing_by_steps(a, b)


@pytest.mark.parametrize(
    "rows, message",
    [
        ((), "tableau must have nonempty rows"),
        (((1, 2), ()), "tableau must have nonempty rows"),
        (((1,), (2, 3)), "row lengths (1, 2) do not weakly decrease"),
        (((1, 2), (2,)), "entries are not exactly 1..3: ((1, 2), (2,))"),
        (((2, 1), (3,)), "row (2, 1) is not strictly increasing"),
        (((1, 3), (2,), (4, 5)), "row lengths (2, 1, 2) do not weakly decrease"),
        (((1, 2, 5), (3, 4), (6,)), None),
        (((1, 4, 5), (2, 3)), "column 2 is not strictly increasing"),
        (((3, 4), (1, 2)), "column 1 is not strictly increasing"),
    ],
)
def test_check_tableau_names_the_first_fault(rows, message):
    if message is None:
        check_tableau(rows)
    else:
        with pytest.raises(ValueError) as exc:
            check_tableau(rows)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "steps, message",
    [
        ("", "path must have at least one step"),
        ("N", "path rises above the diagonal after step 1: 'N'"),
        ("ENEN", None),
        ("ENNE", "path rises above the diagonal after step 3: 'ENNE'"),
        ("ENNX", "path rises above the diagonal after step 3: 'ENNX'"),
        ("ENXN", "invalid step 'X' in 'ENXN'"),
        ("XN", "invalid step 'X' in 'XN'"),
        ("EEe", "invalid step 'e' in 'EEe'"),
    ],
)
def test_check_path_names_the_first_fault(steps, message):
    if message is None:
        check_path(steps)
    else:
        with pytest.raises(ValueError) as exc:
            check_path(steps)
        assert str(exc.value) == message
