import gc
import itertools
import json
import math
import os
import random
import re
import tracemalloc
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Optional

import pytest

from ulamdist import census, injections, paths, tableaux
from ulamdist.census import (
    BudgetError,
    ClassSequence,
    check_log_concavity,
    closed_form,
    count_standard_tableaux,
    counts_by_shape,
    enumerate_class,
    enumeration_cap,
    involutions,
    sequence,
    sequence_csv,
    sequence_json,
    verify_conjecture,
    verify_formulas,
    verify_injection,
)
from ulamdist.permutations import is_involution, lds_length, lis_length
from ulamdist.tableaux import rsk

INVOLUTION_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232}


class TestEnumerate:
    def test_all_permutations(self):
        members = list(enumerate_class("all_permutations", 3))
        assert len(members) == 6
        assert len(set(members)) == 6

    @pytest.mark.parametrize("n,expect", sorted(INVOLUTION_COUNTS.items()))
    def test_involutions(self, n, expect):
        members = list(involutions(n))
        assert len(members) == len(set(members)) == expect
        assert all(is_involution(p) for p in members)

    def test_skew_merged_involutions_total(self):
        assert sum(1 for _ in enumerate_class("skew_merged_involutions", 4)) == 8

    def test_alias_resolution(self):
        assert census.resolve_label("u") == "all_permutations"
        with pytest.raises(ValueError):
            census.resolve_label("nope")

    def test_protected_requires_lm(self):
        with pytest.raises(ValueError):
            list(enumerate_class("protected", 5))
        with pytest.raises(ValueError):
            list(enumerate_class("hooks", 5, lm=(1, 1)))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            list(enumerate_class("all_permutations", 0))


class TestBudget:
    def test_default_cap_refuses(self):
        with pytest.raises(BudgetError):
            sequence("all_permutations", 13)

    def test_env_single_integer(self, monkeypatch):
        monkeypatch.setenv("ULAM_BUDGET", "5")
        assert enumeration_cap("u") == 5
        with pytest.raises(BudgetError):
            sequence("all_permutations", 6)

    def test_env_per_label(self, monkeypatch):
        monkeypatch.setenv("ULAM_BUDGET", "u=5, hooks=20")
        assert enumeration_cap("all_permutations") == 5
        assert enumeration_cap("hooks") == 20
        assert enumeration_cap("involutions") == 13

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("ULAM_BUDGET", "many")
        with pytest.raises(ValueError):
            enumeration_cap("u")

    @pytest.mark.parametrize("raw, cap", [("0", 0), ("-1", -1), ("u=5, involutions=0", 0)])
    def test_env_cap_below_one_rejected(self, monkeypatch, raw, cap):
        monkeypatch.setenv("ULAM_BUDGET", raw)
        with pytest.raises(ValueError, match=f"ULAM_BUDGET caps must be >= 1, got {cap}$"):
            enumeration_cap("u")

    @pytest.mark.parametrize("raw, part, name", [
        ("all_permutation=13", "all_permutation=13", "all_permutation"),
        ("13,u=5", "13", "13"),
        ("u=5,", "", ""),
    ])
    def test_env_bad_label_names_the_entry(self, monkeypatch, raw, part, name):
        # A typo in a list is the variable's fault, reported like a bad value.
        monkeypatch.setenv("ULAM_BUDGET", raw)
        message = f"cannot parse ULAM_BUDGET entry {part!r}: unknown class label {name!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumeration_cap("u")

    def test_verifiers_refuse_beyond_budget(self, monkeypatch):
        monkeypatch.setenv("ULAM_BUDGET", "4")
        with pytest.raises(BudgetError):
            verify_injection("hook", 5)
        with pytest.raises(BudgetError):
            verify_injection("flip", 5)
        with pytest.raises(BudgetError):
            verify_conjecture(5)


class TestSequences:
    def test_u3(self):
        assert sequence("u", 3).counts == {1: 1, 2: 4, 3: 1}

    def test_u4(self):
        assert sequence("u", 4).counts == {1: 1, 2: 13, 3: 9, 4: 1}

    def test_h4(self):
        assert sequence("h", 4).counts == {1: 1, 2: 3, 3: 3, 4: 1}

    def test_totals(self):
        import math

        for n in range(1, 7):
            assert sequence("u", n).total == math.factorial(n)
            assert sequence("i", n).total == INVOLUTION_COUNTS[n]
            assert sequence("skew_merged_involutions", n).total == 2 ** (n - 1)

    def test_parallel_matches_serial(self):
        for label in ("u", "b", "m"):
            serial = sequence(label, 6)
            parallel = sequence(label, 6, jobs=2)
            assert serial == parallel
            # Any jobs above 1, even above n, gives the serial counts.
            for jobs in (3, 10):
                assert sequence(label, 7, jobs=jobs) == sequence(label, 7)
        # At n = 9 the shape rule prunes states below every first entry.
        for label in ("b", "m"):
            assert sequence(label, 9, jobs=2) == sequence(label, 9)

    def test_without_fork_jobs_runs_serially(self, monkeypatch):
        # No jobs value starts a process: with fork and pipe made to raise,
        # every swept row still equals its serial count.
        serial = {label: sequence(label, 7) for label in ("u", "b", "m")}

        def refused(*args):
            raise AssertionError("sequence started a process")

        monkeypatch.setattr(os, "fork", refused, raising=False)
        monkeypatch.setattr(os, "pipe", refused)
        for label, seq in serial.items():
            for jobs in (1, 2, 3, 10):
                assert sequence(label, 7, jobs=jobs) == seq

    def test_protected_sequence(self):
        seq = sequence("protected", 6, lm=(2, 4))
        assert seq.total == closed_form("protected24_tableaux", 6)

    def test_two_row_classes_agree(self):
        # 321-avoiding involutions and two-row tableaux count the same triangle
        for n in range(1, 9):
            assert (
                sequence("two_row_involutions", n).counts
                == sequence("two_row_tableaux", n).counts
            )


@pytest.mark.parametrize("label", sorted(census._CLASSES))
def test_every_row_of_the_class_table_against_enumeration(label):
    row = census._CLASSES[label]
    assert census.resolve_label(label) == label
    if row.alias is not None:
        assert census.resolve_label(row.alias) == label
    for n in range(1, min(7, row.cap) + 1):
        lm = (min(2, n), min(4, n)) if label == "protected" else None
        members = list(enumerate_class(label, n, lm=lm))
        stats = Counter(
            len(x.rows[0]) if isinstance(x, tableaux.Tableau) else lis_length(x)
            for x in members
        )
        seq = sequence(label, n, lm=lm)
        support = range(min(stats), max(stats) + 1) if stats else ()
        assert seq.counts == {k: stats[k] for k in support}
        if row.swept:
            assert sequence(label, n, jobs=2) == seq
        if row.per_k is not None:
            assert [closed_form(label, n, k) for k in range(n + 2)] == [stats[k] for k in range(n + 2)]
        if row.total is not None:
            assert closed_form(label, n) == len(members)
        if label in ("all_permutations", "involutions"):
            assert census.counts_by_shape(label, n) == seq


# Each shape family by its own definition, on the row lengths of a shape.
_SHAPE_FAMILIES = {
    "hook": lambda shape: all(r == 1 for r in shape[1:]),
    "two rows": lambda shape: len(shape) <= 2,
    "hook plus box": lambda shape: shape[1:2] == (2,) and all(r == 1 for r in shape[2:]),
}
_FAMILY_OF_ROW = {
    "hooks": "hook", "hook_pair_permutations": "hook",
    "avoid321_permutations": "two rows", "two_row_tableaux": "two rows",
    "protected24_tableaux": "hook plus box", "hook_plus_box_tableaux": "hook plus box",
}


def _all_standard_tableaux(n):
    return [t for shape in tableaux.partitions(n) for t in tableaux.standard_tableaux(shape)]


@pytest.mark.parametrize("label", sorted(_FAMILY_OF_ROW))
def test_each_shape_rule_keeps_exactly_its_shape_family(label):
    # Every row with a shape rule, against the candidates of its base whose
    # insertion shape (rsk's P for a permutation) the family's own
    # definition admits, then the row's filter, if any.
    row = census._CLASSES[label]
    assert {name for name, r in census._CLASSES.items() if r.shapes is not None} == set(_FAMILY_OF_ROW)
    family = _SHAPE_FAMILIES[_FAMILY_OF_ROW[label]]
    for n in range(1, min(row.cap, 8) + 1):
        if row.perms:
            candidates = [(p, rsk(p)[0].shape) for p in itertools.permutations(range(1, n + 1))]
        else:
            candidates = [(t, t.shape) for t in _all_standard_tableaux(n)]
        expect = [x for x, shape in candidates
                  if family(shape) and (row.member is None or row.member(x))]
        members = list(enumerate_class(label, n))
        if row.base is None:
            # Generated tableaux come shape by shape, in partition order.
            assert members == expect
        else:
            assert Counter(members) == Counter(expect)


def test_the_hook_test_is_the_hook_rule():
    for n in range(1, 9):
        for t in _all_standard_tableaux(n):
            assert tableaux.is_hook(t) == tableaux.hook_shape(len(t.rows[0]), len(t.rows), t.n)


def test_protected_enumerates_every_shape_in_partition_order():
    # So does every row without a base: its shape family, then its filter.
    for n in range(1, 8):
        for lm in ((1, 1), (2, 4), (2, 3)):
            if lm[1] <= n:
                expect = [t for t in _all_standard_tableaux(n) if tableaux.is_lm_protected(t, *lm)]
                assert list(enumerate_class("protected", n, lm=lm)) == expect
        for label in ("hooks", "two_row_tableaux", "protected24_tableaux",
                      "hook_plus_box_tableaux"):
            row, family = census._CLASSES[label], _SHAPE_FAMILIES[_FAMILY_OF_ROW[label]]
            expect = [t for t in _all_standard_tableaux(n)
                      if family(t.shape) and (row.member is None or row.member(t))]
            assert list(enumerate_class(label, n)) == expect


@pytest.mark.parametrize("label", sorted(census._CLASSES))
def test_shape_sums_serve_all_permutations_and_involutions_only(label):
    # Row insertion gives a permutation two tableaux of one shape and an
    # involution one; every other row has a shape rule or a filter.
    weights = {"all_permutations": 2, "involutions": 1}
    for name in filter(None, (label, census._CLASSES[label].alias)):
        if label in weights:
            assert census._shape_class(name) == (label, weights[label])
        else:
            with pytest.raises(ValueError, match=f"^--method shapes is not available for {name!r}$"):
                counts_by_shape(name, 5)
    if label in weights:
        assert counts_by_shape(label, 5).total == {2: 120, 1: 26}[weights[label]]


SWEEP_LABELS = ["all_permutations", "avoid321_permutations", "hook_pair_permutations"]
# States each swept class expands at n = 9, the root included.
STATES_AT_9 = [("all_permutations", 511), ("avoid321_permutations", 1699),
               ("hook_pair_permutations", 3589)]


@lru_cache(maxsize=None)
def _lis_lds_by_first(n, first):
    """(lis, lds) of every permutation of 1..n starting with first, the slow way."""
    rest = [v for v in range(1, n + 1) if v != first]
    return [
        (lis_length(p), lds_length(p))
        for p in ((first,) + q for q in itertools.permutations(rest))
    ]


def _brute_sweep(label, n, first):
    counts = Counter()
    for head in range(1, n + 1) if first is None else (first,):
        for k, d in _lis_lds_by_first(n, head):
            if label == "avoid321_permutations" and d > 2:
                continue
            if label == "hook_pair_permutations" and k + d != n + 1:
                continue
            counts[k] += 1
    return dict(counts)


def _sweep_share(label, n, firsts):
    """``_sweep_counts`` over the permutations with first entry in
    ``firsts``: the sweep reads its first entries off
    ``_permutations_of(n, 1)``, which is narrowed for the call."""
    permutations_of = census._permutations_of
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "_permutations_of",
                      lambda n, m: (p for p in permutations_of(n, m) if p[0] in firsts))
        return census._sweep_counts(label, n)


def _share(n, first):
    """The first entries that ``_brute_sweep`` counts for ``first``."""
    return range(1, n + 1) if first is None else (first,)


def _closed_row(label, n):
    """A swept row without its zeros, from the shape sum (u) or the squared
    closed form (b, m)."""
    if label == "all_permutations":
        return {k: c for k, c in counts_by_shape(label, n).counts.items() if c}
    count = census._two_row_count if label == "avoid321_permutations" else census._hook_count
    return {k: count(n, k) ** 2 for k in range(1, n + 1) if count(n, k)}


def _record_expansions(monkeypatch):
    """Patch the sweep's transitions to record each state they expand."""
    expanded = []
    for name in ("_gap_children", "_pair_children"):
        children = getattr(census, name)

        def recorded(*args, children=children):
            expanded.append(args[-1])
            return children(*args)

        monkeypatch.setattr(census, name, recorded)
    return expanded


class TestSweepOracle:
    """The sweep loop against lis_length/lds_length over every permutation."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_serial_and_each_first_entry(self, label, n):
        for first in (None, *range(1, n + 1)):
            assert dict(_sweep_share(label, n, _share(n, first))) == _brute_sweep(label, n, first)

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_any_enumeration_order(self, label, monkeypatch):
        # The first entries are read off _permutations_of(n, 1), so shuffled
        # ones must give the same counts.
        permutations_of = census._permutations_of

        def shuffled(n, m):
            prefixes = list(permutations_of(n, m))
            random.Random(n).shuffle(prefixes)
            return iter(prefixes)

        monkeypatch.setattr(census, "_permutations_of", shuffled)
        for n in range(1, 9):
            for first in (None, *range(1, n + 1)):
                assert dict(_sweep_share(label, n, _share(n, first))) == _brute_sweep(label, n, first)

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_tables_shared_across_many_prefixes(self, label, monkeypatch):
        # At n = 9 each first entry leads 8! permutations through one memo,
        # which expands each state once, and fewer states than the 8!/4!
        # prefixes of five entries alone.
        expanded = _record_expansions(monkeypatch)
        for first in (1, 5, 9):
            expanded.clear()
            assert dict(_sweep_share(label, 9, (first,))) == _brute_sweep(label, 9, first)
            assert len(expanded) == len(set(expanded)) < math.perm(8, 4)

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_reads_every_prefix_exactly_once(self, label, monkeypatch):
        # The sweep reads the n one-entry prefixes, and no longer one.
        read = []
        permutations_of = census._permutations_of

        def recorded(n, m):
            for p in permutations_of(n, m):
                read.append(p)
                yield p

        monkeypatch.setattr(census, "_permutations_of", recorded)
        sequence(label, 8)
        assert read == [(v,) for v in range(1, 9)]

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_expands_each_state_once(self, label, monkeypatch):
        # Every row to n = 12 equals the shape sum (u) or the squared closed
        # form (b, m).  u's memo holds 2^n states: 2^n - 1 expanded and the
        # empty one.
        expanded = _record_expansions(monkeypatch)
        for n in range(1, 13):
            expanded.clear()
            assert dict(census._sweep_counts(label, n)) == _closed_row(label, n)
            assert len(expanded) == len(set(expanded))
            if label == "all_permutations":
                assert len(expanded) == 2 ** n - 1

    @pytest.mark.parametrize("label, states", STATES_AT_9)
    def test_no_memo_outlives_its_call(self, label, states, monkeypatch):
        # u expands gap counts, 2^9 - 1 of them; b and m expand states of
        # increasing and decreasing tails together, only those their rule
        # admits.  A second call expands every state again, however often
        # the class was swept before.
        expanded = _record_expansions(monkeypatch)
        first = census._sweep_counts(label, 9)
        once = len(expanded)
        expanded.clear()
        assert census._sweep_counts(label, 9) == first
        assert dict(first) == _closed_row(label, 9)
        assert len(expanded) == once == states

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_worker_shares_build_tables_once(self, label, monkeypatch):
        # Two shares of first entries, as two workers would sweep them, sum
        # to the serial counts.  Each share's memo serves all its first
        # entries, so it expands fewer states than their one-entry shares:
        # the states shares have in common are why a split does not pay.
        expanded = _record_expansions(monkeypatch)
        serial = census._sweep_counts(label, 9)
        halves = Counter()
        for share in (range(1, 10, 2), range(2, 10, 2)):
            expanded.clear()
            halves += _sweep_share(label, 9, share)
            together = len(expanded)
            expanded.clear()
            for first in share:
                _sweep_share(label, 9, (first,))
            assert together < len(expanded)
        assert halves == serial
        assert dict(serial) == _brute_sweep(label, 9, None)



class TestSweepPastTheCap:
    """The memo through ``sequence`` past the sizes the brute force reaches."""

    def test_u_equals_the_shape_sum(self, monkeypatch):
        monkeypatch.setenv("ULAM_BUDGET", "14")
        for n in range(1, 15):
            assert sequence("u", n) == counts_by_shape("u", n)

    @pytest.mark.parametrize("label", SWEEP_LABELS)
    def test_jobs_equal_serial(self, label):
        serial = sequence(label, 10)
        assert sequence(label, 10, jobs=2) == sequence(label, 10, jobs=3) == serial
        assert {k: c for k, c in serial.counts.items() if c} == _closed_row(label, 10)


class TestShapeCounts:
    def test_matches_enumeration(self):
        for n in range(1, 8):
            assert counts_by_shape("u", n).counts == sequence("u", n).counts
            assert counts_by_shape("i", n).counts == sequence("i", n).counts

    def test_count_standard_tableaux(self):
        assert count_standard_tableaux((2, 2)) == 2
        assert count_standard_tableaux((3, 2)) == 5
        assert count_standard_tableaux((1, 1, 1)) == 1

    def test_count_standard_tableaux_of_the_empty_shape(self):
        assert count_standard_tableaux(()) == 1

    def test_count_standard_tableaux_obeys_the_branching_rule(self):
        # f^lambda is the sum of f over the shapes with one corner removed.
        @lru_cache(maxsize=None)
        def branching(shape):
            if not shape:
                return 1
            total = 0
            for i, r in enumerate(shape):
                if i + 1 == len(shape) or shape[i + 1] < r:
                    smaller = shape[:i] + (r - 1,) + shape[i + 1:]
                    total += branching(tuple(x for x in smaller if x))
            return total

        for n in range(1, 21):
            for shape in tableaux.partitions(n):
                assert count_standard_tableaux(shape) == branching(shape)

    def test_count_standard_tableaux_rejects_a_non_partition(self):
        for bad in [(2, 3), (2, 0), (0,), (-1,)]:
            with pytest.raises(ValueError, match="not a partition"):
                count_standard_tableaux(bad)

    def test_reaches_beyond_the_enumeration_cap(self):
        seq = counts_by_shape("u", 15)
        import math

        assert seq.total == math.factorial(15)


class TestClosedForms:
    def test_hooks(self):
        assert closed_form("h", 4, 2) == 3
        assert closed_form("h", 4, 0) == 0
        assert closed_form("h", 4, 5) == 0

    def test_two_row(self):
        assert closed_form("a", 6, 3) == 5
        assert closed_form("a", 6, 2) == 0

    def test_totals(self):
        assert closed_form("protected24_tableaux", 5) == 8
        assert closed_form("hook_plus_box_tableaux", 5) == 10
        assert closed_form("skew_merged_involutions", 6) == 32

    def test_squares(self):
        assert closed_form("m", 5, 2) == closed_form("h", 5, 2) ** 2
        assert closed_form("b", 6, 4) == closed_form("a", 6, 4) ** 2

    def test_per_k_required_where_defined(self):
        with pytest.raises(ValueError):
            closed_form("h", 4)
        with pytest.raises(ValueError):
            closed_form("protected24_tableaux", 5, 2)

    def test_no_closed_form(self):
        with pytest.raises(ValueError):
            closed_form("u", 4, 2)


class TestLogConcavity:
    def test_u4_holds(self):
        report = check_log_concavity(sequence("u", 4))
        assert report.holds and report.witnesses == ()

    def test_constant_sequence_holds(self):
        seq = ClassSequence("x", 3, {1: 2, 2: 2, 3: 2})
        assert check_log_concavity(seq).holds

    def test_violation_reported(self):
        seq = ClassSequence("x", 3, {1: 1, 2: 1, 3: 5})
        report = check_log_concavity(seq)
        assert not report.holds
        assert report.witnesses == (2,)

    def test_internal_zero_is_a_witness(self):
        seq = ClassSequence("x", 3, {1: 1, 2: 0, 3: 1})
        assert check_log_concavity(seq).witnesses == (2,)

    def test_empty_class_holds(self):
        assert check_log_concavity(ClassSequence("x", 3, {})).holds

    def test_verify_conjecture_small(self):
        reports = verify_conjecture(4)
        assert len(reports) == 4
        assert all(r.holds for r in reports)

    def test_report_json_schema(self):
        report = check_log_concavity(sequence("u", 3))
        data = report.to_json()
        assert set(data) == {"class", "n", "holds", "witnesses"}
        json.dumps(data)


class TestVerifyInjection:
    def test_hook_n5_k1(self):
        report = verify_injection("hook", 5, k=1)
        assert report.domain_size == 6  # 1 x binom(4, 2)
        assert report.ok and report.type_preserved

    def test_flip_n7(self):
        report = verify_injection("flip", 7)
        assert report.ok and report.preimage_identity

    def test_protected_needs_lm(self):
        with pytest.raises(ValueError):
            verify_injection("protected", 6)

    def test_protected_small(self):
        assert verify_injection("protected", 6, lm=(2, 4)).ok

    def test_lift_small(self):
        assert verify_injection("lift", 5).ok

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_injection("magic", 5)

    def test_unknown_kind_is_named_before_a_stray_lm(self):
        with pytest.raises(ValueError, match="^unknown injection kind 'magic'$"):
            verify_injection("magic", 5, lm=(1, 1))

    def test_report_json_round_trips(self):
        data = verify_injection("hook", 5).to_json()
        assert data["ok"] is True
        json.dumps(data)

    def test_collisions_are_counted_within_each_k(self, monkeypatch):
        # One image pair for every k: the maps for different k are separate
        # injections, so only the 5 + 15 + 5 repeats inside each k collide.
        u = tableaux.hook_from_first_row(5, (1, 2))
        monkeypatch.setattr(injections, "hook_inject", lambda t1, t2: (u, u))
        report = verify_injection("hook", 5)
        assert report.domain_size == 6 + 16 + 6
        assert sum(w.startswith("collision: ") for w in report.witnesses) == 25

    def test_flip_map_leaving_the_codomain_fails_the_preimage_check(self, monkeypatch):
        # flip_preimage cannot read an image pair with unequal east counts;
        # that is a failed check, not a crash.
        monkeypatch.setattr(paths, "flip_inject", lambda p, q: (p, q))
        report = verify_injection("flip", 7)
        assert not report.ok
        assert report.codomain_ok is False and report.preimage_identity is False
        assert report.witnesses[:2] == (
            "codomain: (EEEENNN, EEEEEEN) -> (EEEENNN, EEEEEEN)",
            "preimage: (EEEENNN, EEEEEEN) -> (EEEENNN, EEEEEEN)",
        )

    def test_hook_map_leaving_the_hooks_fails_the_type_check(self, monkeypatch):
        square = tableaux.Tableau(((1, 2), (3, 4), (5,)))
        monkeypatch.setattr(injections, "hook_inject", lambda t1, t2: (square, square))
        report = verify_injection("hook", 5, k=1)
        assert not report.ok
        assert report.codomain_ok is False and report.type_preserved is False
        assert report.witnesses[:2] == (
            "codomain: (1/2/3/4/5, 1,2,3/4/5) -> (1,2/3,4/5, 1,2/3,4/5)",
            "type: (1/2/3/4/5, 1,2,3/4/5) -> (1,2/3,4/5, 1,2/3,4/5)",
        )


def _constant_hook_inject(t1, t2):
    u = tableaux.hook_from_first_row(t1.n, range(1, len(t1.rows[0]) + 2))
    return u, u


def _hook_inject_swapped_at_2(t1, t2):
    u1, u2 = _HOOK_INJECT(t1, t2)
    return (u2, u1) if len(t1.rows[0]) == 2 else (u1, u2)


def _protected_inject_grown(t1, t2):
    # True images with n + 1 appended as a last row: still (l, m)-protected
    # tableaux with first row k, but of size n + 1.
    return tuple(
        tableaux._tableau(u.rows + ((t1.n + 1,),)) for u in _PROTECTED_INJECT(t1, t2)
    )


def _two_row_inject_grown(t1, t2):
    # True images with n + 1 appended to the second row: two-row tableaux
    # of size n + 1, which lift to 321-avoiding permutations of n + 1.
    return tuple(
        tableaux._tableau((u.rows[0], u.rows[1] + (t1.n + 1,))) for u in _TWO_ROW_INJECT(t1, t2)
    )


_HOOK_INJECT = injections.hook_inject
_PROTECTED_INJECT = injections.protected_inject
_TWO_ROW_INJECT = injections.two_row_inject

# Broken maps and the exact report each gives: every flag, the number of
# witnesses and the first three of them, verbatim and in order.
BROKEN_MAPS = {
    "hook-identity": (
        "hook_inject", lambda t1, t2: (t1, t2), ("hook", 5), {}, 28,
        {"kind": "hook", "n": 5, "k": None, "domain_size": 28, "injective": True,
         "codomain_ok": False, "type_preserved": True, "preimage_identity": None,
         "ok": False, "witnesses": [
             "codomain: (1/2/3/4/5, 1,2,3/4/5) -> (1/2/3/4/5, 1,2,3/4/5)",
             "codomain: (1/2/3/4/5, 1,2,4/3/5) -> (1/2/3/4/5, 1,2,4/3/5)",
             "codomain: (1/2/3/4/5, 1,2,5/3/4) -> (1/2/3/4/5, 1,2,5/3/4)"]},
    ),
    "hook-constant": (
        "hook_inject", _constant_hook_inject, ("hook", 5), {}, 47,
        {"kind": "hook", "n": 5, "k": None, "domain_size": 28, "injective": False,
         "codomain_ok": True, "type_preserved": False, "preimage_identity": None,
         "ok": False, "witnesses": [
             "collision: ('1/2/3/4/5', '1,2,3/4/5') and (1/2/3/4/5, 1,2,4/3/5)",
             "type: (1/2/3/4/5, 1,2,5/3/4) -> (1,2/3/4/5, 1,2/3/4/5)",
             "collision: ('1/2/3/4/5', '1,2,3/4/5') and (1/2/3/4/5, 1,2,5/3/4)"]},
    ),
    "hook-swapped-at-k2": (
        "hook_inject", _hook_inject_swapped_at_2, ("hook", 6), {}, 28,
        {"kind": "hook", "n": 6, "k": None, "domain_size": 120, "injective": True,
         "codomain_ok": True, "type_preserved": False, "preimage_identity": None,
         "ok": False, "witnesses": [
             "type: (1,2/3/4/5/6, 1,2,3,6/4/5) -> (1,2,6/3/4/5, 1,2,3/4/5/6)",
             "type: (1,2/3/4/5/6, 1,2,4,6/3/5) -> (1,2,6/3/4/5, 1,2,4/3/5/6)",
             "type: (1,2/3/4/5/6, 1,2,5,6/3/4) -> (1,2,6/3/4/5, 1,2,5/3/4/6)"]},
    ),
    "protected-identity": (
        "protected_inject", lambda t1, t2: (t1, t2), ("protected", 7),
        {"lm": (2, 4)}, 384,
        {"kind": "protected", "n": 7, "k": None, "domain_size": 384, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": None,
         "ok": False, "witnesses": [
             "codomain: (1,2/3,4/5/6/7, 1,2,4,5/3,6/7) -> (1,2/3,4/5/6/7, 1,2,4,5/3,6/7)",
             "codomain: (1,2/3,4/5/6/7, 1,2,4,5/3,7/6) -> (1,2/3,4/5/6/7, 1,2,4,5/3,7/6)",
             "codomain: (1,2/3,4/5/6/7, 1,2,4,6/3,5/7) -> (1,2/3,4/5/6/7, 1,2,4,6/3,5/7)"]},
    ),
    "two-row-first": (
        "two_row_inject", lambda t1, t2: (t1, t1), ("lift", 5), {}, 25,
        {"kind": "lift", "n": 5, "k": None, "domain_size": 353, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": None,
         "ok": False, "witnesses": [
             "two-row-class codomain: ((1, 3, 2, 5, 4), (1, 2, 3, 4, 5)) -> "
             "((1, 3, 2, 5, 4), (1, 3, 2, 5, 4))",
             "two-row-class codomain: ((1, 3, 5, 2, 4), (1, 2, 3, 4, 5)) -> "
             "((1, 3, 2, 5, 4), (1, 4, 5, 2, 3))",
             "two-row-class codomain: ((1, 4, 2, 5, 3), (1, 2, 3, 4, 5)) -> "
             "((1, 4, 5, 2, 3), (1, 3, 2, 5, 4))"]},
    ),
    "lift-hook-constant": (
        "hook_inject", _constant_hook_inject, ("lift", 4), {}, 16,
        {"kind": "lift", "n": 4, "k": None, "domain_size": 22, "injective": False,
         "codomain_ok": True, "type_preserved": None, "preimage_identity": None,
         "ok": False, "witnesses": [
             "hook-class collision: ((4, 3, 2, 1), (1, 2, 4, 3)) and "
             "((4, 3, 2, 1), (1, 3, 2, 4))",
             "hook-class collision: ((4, 3, 2, 1), (1, 2, 4, 3)) and "
             "((4, 3, 2, 1), (1, 3, 4, 2))",
             "hook-class collision: ((4, 3, 2, 1), (1, 2, 4, 3)) and "
             "((4, 3, 2, 1), (1, 4, 2, 3))"]},
    ),
    # Images one size too large: the codomain checks the size of every image.
    "protected-grown": (
        "protected_inject", _protected_inject_grown, ("protected", 7), {"lm": (2, 4)}, 384,
        {"kind": "protected", "n": 7, "k": None, "domain_size": 384, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": None,
         "ok": False, "witnesses": [
             "codomain: (1,2/3,4/5/6/7, 1,2,4,5/3,6/7) -> "
             "(1,2,5/3,4/6/7/8, 1,2,5/3,6/4/7/8)",
             "codomain: (1,2/3,4/5/6/7, 1,2,4,5/3,7/6) -> "
             "(1,2,5/3,4/6/7/8, 1,2,5/3,7/4/6/8)",
             "codomain: (1,2/3,4/5/6/7, 1,2,4,6/3,5/7) -> "
             "(1,2,5/3,4/6/7/8, 1,2,6/3,5/4/7/8)"]},
    ),
    "two-row-grown": (
        "two_row_inject", _two_row_inject_grown, ("lift", 6), {}, 706,
        {"kind": "lift", "n": 6, "k": None, "domain_size": 5906, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": None,
         "ok": False, "witnesses": [
             "two-row-class codomain: ((2, 1, 4, 3, 6, 5), (1, 2, 3, 4, 6, 5)) -> "
             "((2, 3, 6, 1, 7, 4, 5), (2, 3, 6, 1, 7, 4, 5))",
             "two-row-class codomain: ((2, 1, 4, 3, 6, 5), (1, 2, 3, 5, 4, 6)) -> "
             "((2, 4, 5, 7, 1, 3, 6), (2, 4, 5, 7, 1, 3, 6))",
             "two-row-class codomain: ((2, 1, 4, 3, 6, 5), (1, 2, 3, 5, 6, 4)) -> "
             "((2, 4, 5, 7, 1, 3, 6), (2, 3, 6, 1, 7, 4, 5))"]},
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_MAPS))
def test_broken_map_report_is_pinned(case, monkeypatch):
    attr, broken, args, kwargs, n_witnesses, expect = BROKEN_MAPS[case]
    monkeypatch.setattr(injections, attr, broken)
    data = verify_injection(*args, **kwargs).to_json()
    assert len(data["witnesses"]) == n_witnesses
    assert {**data, "witnesses": data["witnesses"][:3]} == expect


def _flip_swapped(p, q):
    r, s = _FLIP_INJECT(p, q)
    return s, r


def _flip_first_twice_after_n(p, q):
    # (r, r) collides whenever p ends in N; the true images otherwise.
    r, s = _FLIP_INJECT(p, q)
    return (r, r) if p.steps.endswith("N") else (r, s)


def _flip_constant(p, q):
    # The true image of (E^(n-2) NN, E^n): inside the codomain of the top
    # block only.
    n = p.n
    return _FLIP_INJECT(paths._path("E" * (n - 2) + "NN"), paths._path("E" * n))


# Broken flip maps (paths.flip_inject patched) and the exact report each
# gives at n = 7 and 8: every flag, the number of witnesses and the first
# three of them, verbatim and in order.
BROKEN_FLIPS = {
    ("identity", 7): (
        lambda p, q: (p, q), 196,
        {"kind": "flip", "n": 7, "k": None, "domain_size": 98, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "codomain: (EEEENNN, EEEEEEN) -> (EEEENNN, EEEEEEN)",
             "preimage: (EEEENNN, EEEEEEN) -> (EEEENNN, EEEEEEN)",
             "codomain: (EEEENNN, EEEEENE) -> (EEEENNN, EEEEENE)"]},
    ),
    ("identity", 8): (
        lambda p, q: (p, q), 992,
        {"kind": "flip", "n": 8, "k": None, "domain_size": 496, "injective": True,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "codomain: (EEEENNNN, EEEEEENN) -> (EEEENNNN, EEEEEENN)",
             "preimage: (EEEENNNN, EEEEEENN) -> (EEEENNNN, EEEEEENN)",
             "codomain: (EEEENNNN, EEEEENEN) -> (EEEENNNN, EEEEENEN)"]},
    ),
    ("constant", 7): (
        _flip_constant, 277,
        {"kind": "flip", "n": 7, "k": None, "domain_size": 98, "injective": False,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "codomain: (EEEENNN, EEEEEEN) -> (EEEEENE, EEEEEEN)",
             "preimage: (EEEENNN, EEEEEEN) -> (EEEEENE, EEEEEEN)",
             "codomain: (EEEENNN, EEEEENE) -> (EEEEENE, EEEEEEN)"]},
    ),
    ("constant", 8): (
        _flip_constant, 1464,
        {"kind": "flip", "n": 8, "k": None, "domain_size": 496, "injective": False,
         "codomain_ok": False, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "codomain: (EEEENNNN, EEEEEENN) -> (EEEEEENE, EEEEEEEN)",
             "preimage: (EEEENNNN, EEEEEENN) -> (EEEEEENE, EEEEEEEN)",
             "codomain: (EEEENNNN, EEEEENEN) -> (EEEEEENE, EEEEEEEN)"]},
    ),
    ("swapped", 7): (
        _flip_swapped, 98,
        {"kind": "flip", "n": 7, "k": None, "domain_size": 98, "injective": True,
         "codomain_ok": True, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "preimage: (EEEENNN, EEEEEEN) -> (EEEEENN, EEEENEN)",
             "preimage: (EEEENNN, EEEEENE) -> (EEEEENN, EEEENNE)",
             "preimage: (EEEENNN, EEEENEE) -> (EEEENEN, EEEENNE)"]},
    ),
    ("swapped", 8): (
        _flip_swapped, 496,
        {"kind": "flip", "n": 8, "k": None, "domain_size": 496, "injective": True,
         "codomain_ok": True, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "preimage: (EEEENNNN, EEEEEENN) -> (EEEEENNN, EEEENENN)",
             "preimage: (EEEENNNN, EEEEENEN) -> (EEEEENNN, EEEENNEN)",
             "preimage: (EEEENNNN, EEEEENNE) -> (EEEEENNN, EEEENNNE)"]},
    ),
    ("first-twice", 7): (
        _flip_first_twice_after_n, 100,
        {"kind": "flip", "n": 7, "k": None, "domain_size": 98, "injective": False,
         "codomain_ok": True, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "preimage: (EEEENNN, EEEEEEN) -> (EEEENEN, EEEENEN)",
             "preimage: (EEEENNN, EEEEENE) -> (EEEENNE, EEEENNE)",
             "preimage: (EEEENNN, EEEENEE) -> (EEEENNE, EEEENNE)"]},
    ),
    ("first-twice", 8): (
        _flip_first_twice_after_n, 716,
        {"kind": "flip", "n": 8, "k": None, "domain_size": 496, "injective": False,
         "codomain_ok": True, "type_preserved": None, "preimage_identity": False,
         "ok": False, "witnesses": [
             "preimage: (EEEENNNN, EEEEEENN) -> (EEEENENN, EEEENENN)",
             "preimage: (EEEENNNN, EEEEENEN) -> (EEEENNEN, EEEENNEN)",
             "preimage: (EEEENNNN, EEEEENNE) -> (EEEENNNE, EEEENNNE)"]},
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FLIPS), ids="{0[0]}-{0[1]}".format)
def test_broken_flip_report_is_pinned(case, monkeypatch):
    broken, n_witnesses, expect = BROKEN_FLIPS[case]
    monkeypatch.setattr(paths, "flip_inject", broken)
    data = verify_injection("flip", case[1]).to_json()
    assert len(data["witnesses"]) == n_witnesses
    assert {**data, "witnesses": data["witnesses"][:3]} == expect


_FIXED_HOOK = tableaux.hook_from_first_row(6, (1, 2, 3))


def test_hook_map_with_one_image_for_every_k_is_checked_per_k(monkeypatch):
    # (1,2,3/4/5/6) has first row k + 1 only for k = 2, so only the 50 pairs
    # of that block lie in the codomain: 10 + 50 + 10 codomain witnesses
    # come from k = 1, 3, 4, beside the 116 collisions and 92 type failures.
    monkeypatch.setattr(injections, "hook_inject", lambda t1, t2: (_FIXED_HOOK, _FIXED_HOOK))
    data = verify_injection("hook", 6).to_json()
    assert len(data["witnesses"]) == 278
    assert Counter(w.split(":")[0] for w in data["witnesses"]) == {
        "codomain": 70, "collision": 116, "type": 92,
    }
    assert {**data, "witnesses": data["witnesses"][:3]} == {
        "kind": "hook", "n": 6, "k": None, "domain_size": 120, "injective": False,
        "codomain_ok": False, "type_preserved": False, "preimage_identity": None,
        "ok": False, "witnesses": [
            "codomain: (1/2/3/4/5/6, 1,2,3/4/5/6) -> (1,2,3/4/5/6, 1,2,3/4/5/6)",
            "codomain: (1/2/3/4/5/6, 1,2,4/3/5/6) -> (1,2,3/4/5/6, 1,2,3/4/5/6)",
            "collision: ('1/2/3/4/5/6', '1,2,3/4/5/6') and (1/2/3/4/5/6, 1,2,4/3/5/6)"]}


class TestVerifyFormulas:
    def test_small(self):
        reports = verify_formulas(6)
        assert all(r.ok for r in reports)
        names = {r.name for r in reports}
        assert "hooks_binomial" in names
        ratio = next(r for r in reports if r.name == "protected24_ratio")
        assert ratio.ok and ratio.n_max == 6

    def test_ratio_rejects_a_predicate_that_keeps_every_tableau(self, monkeypatch):
        # If every hook-plus-box tableau counted as (2, 4)-protected, then
        # p_n = b_n and the ratio 1 lies above (n-3)/(2(n-4)) for n >= 5.
        monkeypatch.setattr(tableaux, "is_lm_protected", lambda t, l, m: True)
        reports = {r.name: r for r in verify_formulas(6)}
        assert not reports["protected24_and_hook_plus_box"].ok
        ratio = reports["protected24_ratio"]
        assert [m.split(":")[0] for m in ratio.mismatches] == ["ratio n=5", "ratio n=6"]

    def test_report_is_pinned(self):
        assert [r.to_json() for r in verify_formulas(10)] == [
            {"formula": name, "n_max": n_max, "ok": True, "mismatches": []}
            for name, n_max in [
                ("hooks_binomial", 10), ("two_row_tableaux_count", 10),
                ("avoid321_involutions_count", 10), ("skew_merged_binomial", 10),
                ("protected24_and_hook_plus_box", 10), ("hook_pair_squares", 10),
                ("protected24_ratio", 10),
            ]
        ]

    def test_mismatches_of_a_predicate_that_keeps_every_tableau_are_pinned(self, monkeypatch):
        monkeypatch.setattr(tableaux, "is_lm_protected", lambda t, l, m: True)
        reports = {r.name: r for r in verify_formulas(7)}
        assert [name for name, r in reports.items() if not r.ok] == [
            "protected24_and_hook_plus_box", "protected24_ratio",
        ]
        assert reports["protected24_and_hook_plus_box"].mismatches == (
            "protected24 total n=5: formula 8 vs count 10",
            "protected24 total n=6: formula 24 vs count 34",
            "protected24 total n=7: formula 64 vs count 98",
        )
        assert reports["protected24_ratio"].mismatches == (
            "ratio n=5: p=10 b=10 outside (1/2, 2/2)",
            "ratio n=6: p=34 b=34 outside (1/2, 3/4)",
            "ratio n=7: p=98 b=98 outside (1/2, 4/6)",
        )

    def test_mismatches_of_a_hook_enumeration_missing_a_tableau_are_pinned(self, monkeypatch):
        # The hooks row drops its one-row hook, the first it lists.
        row = census._CLASSES["hooks"]._replace(member=lambda t: len(t.rows) > 1)
        monkeypatch.setitem(census._CLASSES, "hooks", row)
        reports = {r.name: r for r in verify_formulas(7)}
        assert [name for name, r in reports.items() if not r.ok] == ["hooks_binomial"]
        assert reports["hooks_binomial"].mismatches == tuple(
            f"hooks n={n} k={n}: formula 1 vs count 0" for n in range(1, 8)
        )


class TestSerialization:
    def test_csv(self):
        assert sequence_csv(sequence("u", 4)) == (
            "n,k,count\n4,1,1\n4,2,13\n4,3,9\n4,4,1\n"
        )

    def test_csv_round_trip(self):
        seq = sequence("u", 4)
        lines = sequence_csv(seq).strip().splitlines()
        assert lines[0] == "n,k,count"
        parsed = {}
        for line in lines[1:]:
            n, k, count = (int(x) for x in line.split(","))
            assert n == 4
            parsed[k] = count
        assert parsed == seq.counts

    def test_json_round_trip(self):
        seq = sequence("u", 4)
        data = json.loads(json.dumps(sequence_json(seq)))
        assert data["class"] == "all_permutations"
        assert {int(k): v for k, v in data["counts"].items()} == seq.counts


def _swap_last_two_of_first_row(t):
    row = t.rows[0]
    return tableaux._tableau((row[:-2] + (row[-1], row[-2]),) + t.rows[1:])


def _hook_inject_unsorted(t1, t2):
    # A hook-shaped image whose first row (1, x, y) runs (1, y, x).
    u1, u2 = _HOOK_INJECT(t1, t2)
    return _swap_last_two_of_first_row(u1), u2


# (2, 4)-protected in every respect but standardness: 7 sits above 6.
_UNSTANDARD_PROTECTED = tableaux._tableau(((1, 2, 5), (3, 4), (7,), (6,)))

_FLIP_INJECT = paths.flip_inject


def _flip_inject_above_diagonal(p, q):
    # Same east count, but the first step goes north.
    r, s = _FLIP_INJECT(p, q)
    return paths._path("N" + r.steps.replace("N", "", 1)), s


# Maps that return malformed images, built unchecked, and the run that
# meets them: each image passes every codomain predicate except the
# validator's.
MALFORMED_IMAGES = {
    "hook": (injections, "hook_inject", _hook_inject_unsorted, ("hook", 5), {"k": 2}),
    "protected": (
        injections, "protected_inject",
        lambda t1, t2: (_UNSTANDARD_PROTECTED, _UNSTANDARD_PROTECTED),
        ("protected", 7), {"k": 3, "lm": (2, 4)},
    ),
    "flip": (paths, "flip_inject", _flip_inject_above_diagonal, ("flip", 7), {}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IMAGES))
def test_malformed_images_fail_the_codomain_check(case, monkeypatch):
    module, attr, broken, args, kwargs = MALFORMED_IMAGES[case]
    monkeypatch.setattr(module, attr, broken)
    report = verify_injection(*args, **kwargs)
    assert report.codomain_ok is False and report.ok is False
    assert report.witnesses[0].startswith("codomain: (")


def test_malformed_images_pass_every_predicate_but_the_validator():
    t1 = tableaux.hook_from_first_row(5, (1, 2))
    t2 = tableaux.hook_from_first_row(5, (1, 2, 3, 4))
    u = _hook_inject_unsorted(t1, t2)[0]
    assert u.rows == ((1, 3, 2), (4,), (5,))
    assert tableaux.is_hook(u) and u.n == 5 and len(u.rows[0]) == 3
    assert tableaux.is_lm_protected(_UNSTANDARD_PROTECTED, 2, 4)
    with pytest.raises(ValueError):
        tableaux.check_tableau(u.rows)
    with pytest.raises(ValueError):
        tableaux.check_tableau(_UNSTANDARD_PROTECTED.rows)


def test_lift_with_a_malformed_image_is_a_codomain_witness(monkeypatch):
    # lift raises on a non-standard image; the report counts that pair as
    # outside the codomain and skips its collision check.
    monkeypatch.setattr(
        injections, "two_row_inject",
        lambda t1, t2: (_swap_last_two_of_first_row(t1), _swap_last_two_of_first_row(t2)),
    )
    report = verify_injection("lift", 5, lift_classes=("two_row",))
    assert report.domain_size == len(report.witnesses) == 25
    assert report.codomain_ok is False and report.injective and not report.ok
    assert report.witnesses[0] == (
        "two-row-class codomain: ((1, 3, 2, 5, 4), (1, 2, 3, 4, 5)) -> "
        "error: row (1, 4, 2) is not strictly increasing"
    )


def _lift_image_rows(n):
    """The rows of every image tableau that the lift of hook_inject and
    two_row_inject meets at size n, computed pair by pair."""
    images = set()
    for label, inj in (("hook_pair_permutations", injections.hook_inject),
                       ("avoid321_permutations", injections.two_row_inject)):
        by_k: dict = {}
        for p in enumerate_class(label, n):
            by_k.setdefault(lis_length(p), []).append(p)
        for j in by_k:
            for p1, p2 in itertools.product(by_k.get(j - 1, []), by_k.get(j + 1, [])):
                (p_tab1, q_tab1), (p_tab2, q_tab2) = tableaux.rsk(p1), tableaux.rsk(p2)
                for u in (*inj(p_tab1, p_tab2), *inj(q_tab1, q_tab2)):
                    images.add(u.rows)
    return images


def test_lift_validates_each_distinct_image_once_per_run(monkeypatch):
    # Validating all four images of every pair would make 4 x 353 calls.
    calls = []
    check = tableaux.check_tableau
    monkeypatch.setattr(injections, "check_tableau", lambda rows: (calls.append(rows), check(rows)))
    report = verify_injection("lift", 5)
    assert report.ok and report.domain_size == 353
    assert len(calls) == len(set(calls)) < report.domain_size
    assert set(calls) == _lift_image_rows(5)
    # The record of validated images does not outlive the run.
    first = len(calls)
    verify_injection("lift", 5)
    assert calls[first:] == calls[:first]


@pytest.mark.parametrize(
    "kind, label, lo", [("hook", "hooks", 1), ("flip", "two_row_tableaux", None)]
)
def test_refused_injection_states_its_enumerated_domain_size(kind, label, lo, monkeypatch):
    for n in range(2, 11):
        low = (n + 1) // 2 if lo is None else lo
        for k in [None] + list(range(low, n - 1)):
            size = verify_injection(kind, n, k=k).domain_size
            monkeypatch.setenv("ULAM_BUDGET", f"{label}={n - 1}")
            with pytest.raises(BudgetError, match=rf"cap {n - 1} \({size} pairs\); "):
                verify_injection(kind, n, k=k)
            monkeypatch.delenv("ULAM_BUDGET")


def test_lift_refuses_either_class_before_lifting_any_pair(monkeypatch):
    # The hook class is checked first; a refusal of the two-row class must
    # still come before any of the hook class's pairs is lifted.
    calls = 0
    lift = injections.lift

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return lift(*args, **kwargs)

    monkeypatch.setattr(injections, "lift", counted)
    for label in ("hook_pair_permutations", "avoid321_permutations"):
        monkeypatch.setenv("ULAM_BUDGET", f"{label}=4")
        with pytest.raises(BudgetError, match=f"^enumeration of {label!r} at n=5 exceeds"):
            verify_injection("lift", 5)
        assert calls == 0
    monkeypatch.delenv("ULAM_BUDGET")
    assert verify_injection("lift", 5).domain_size == 353 and calls == 353


def test_lift_refuses_an_unknown_class_before_lifting_any_pair(monkeypatch):
    # A class is named whole: a misspelt name, or a bare string read letter
    # by letter, is refused before n is checked and before any enumeration.
    calls = Counter()

    def counted(real):
        def call(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(census, "enumerate_class", counted(census.enumerate_class))
    monkeypatch.setattr(injections, "lift", counted(injections.lift))
    for classes, unknown in ((("hooks",), "hooks"), ("hook", "h")):
        for n in (0, 5):
            with pytest.raises(ValueError, match=f"^unknown lift class {unknown!r}$"):
                verify_injection("lift", n, lift_classes=classes)
    assert not calls
    report = verify_injection("lift", 5, lift_classes=())
    assert report.ok and report.domain_size == 0 and not calls


class TestVerifyInjectionRanges:
    @pytest.mark.parametrize(
        "kind, n, k, lo, hi",
        [("hook", 5, 0, 1, 3), ("hook", 5, 4, 1, 3), ("flip", 5, 2, 3, 3),
         ("flip", 5, 4, 3, 3), ("lift", 5, 1, 2, 4), ("lift", 5, 5, 2, 4)],
    )
    def test_k_outside_the_range_is_refused(self, kind, n, k, lo, hi):
        with pytest.raises(ValueError, match=f"needs {lo} <= k <= {hi}, got k={k}"):
            verify_injection(kind, n, k=k)

    @pytest.mark.parametrize("k", [1, 6])
    def test_protected_k_outside_the_range_is_refused(self, k):
        with pytest.raises(ValueError, match=f"needs 2 <= k <= 5, got k={k}"):
            verify_injection("protected", 6, k=k, lm=(2, 4))

    def test_every_k_in_range_is_accepted(self):
        for n in range(3, 8):
            for k in range(1, n - 1):
                assert verify_injection("hook", n, k=k).ok
            for k in range((n + 1) // 2, n - 1):
                assert verify_injection("flip", n, k=k).ok
            for k in range(2, n):
                assert verify_injection("protected", n, k=k, lm=(1, 1)).ok

    @pytest.mark.parametrize("lm", [(4, 2), (0, 0), (0, 3), (2, 7)])
    def test_lm_outside_the_range_is_refused(self, lm):
        with pytest.raises(ValueError, match="1 <= l <= m <= n=6"):
            verify_injection("protected", 6, lm=lm)
        with pytest.raises(ValueError, match="1 <= l <= m <= n=6"):
            sequence("protected", 6, lm=lm)

    @pytest.mark.parametrize(
        "label, lm, message",
        [("protected", (4, 2), "lm must satisfy 1 <= l <= m <= n=6, got 4,2"),
         ("protected", None, "class 'protected' requires the lm parameter"),
         ("all_permutations", (1, 1), "class 'all_permutations' takes no lm parameter")],
    )
    def test_a_bad_lm_is_named_before_the_budget_refusal(self, monkeypatch, label, lm, message):
        monkeypatch.setenv("ULAM_BUDGET", f"{label}=5")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sequence(label, 6, lm=lm)
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_class(label, 6, lm=lm)
        if label == "protected" and lm is not None:
            with pytest.raises(ValueError, match=f"^{message}$"):
                verify_injection("protected", 6, lm=lm)

    def test_empty_domain_without_k_is_a_valid_report(self):
        report = verify_injection("hook", 2)
        assert report.domain_size == 0 and report.ok


@pytest.mark.parametrize(
    "kind, module, name, k, built",
    [("hook", tableaux, "hook_tableaux", 1, 1 + 105),
     ("flip", paths, "lattice_paths", 14, 104 + 1)],
    ids=["hook", "flip"],
)
def test_explicit_k_builds_only_its_two_sides(kind, module, name, k, built, monkeypatch):
    # The whole class at n = 16 is 32,768 hooks or 12,870 paths.
    items = 0
    build = getattr(module, name)

    def counted(*args):
        nonlocal items
        for x in build(*args):
            items += 1
            yield x

    monkeypatch.setattr(module, name, counted)
    report = verify_injection(kind, 16, k=k)
    assert report.ok and report.domain_size == built - 1
    assert items == built


# Every broken map above, as (module, name, map, kind, n, keyword arguments).
PER_K_BROKEN = {
    **{case: (injections, attr, broken, *args, kwargs)
       for case, (attr, broken, args, kwargs, _, _) in BROKEN_MAPS.items()},
    **{f"flip-{name}-{n}": (paths, "flip_inject", broken, "flip", n, {})
       for (name, n), (broken, _, _) in BROKEN_FLIPS.items()},
}

# The k range of each kind at n: hook and flip name a block by its smaller
# statistic, protected and lift by its middle one.
K_RANGE = {
    "hook": lambda n: range(1, n - 1),
    "flip": lambda n: range((n + 1) // 2, n - 1),
    "protected": lambda n: range(2, n),
    "lift": lambda n: range(2, n),
}


@pytest.mark.parametrize("case", sorted(PER_K_BROKEN))
def test_explicit_k_witnesses_are_that_block_of_the_full_run(case, monkeypatch):
    # Each broken lift map breaks one class only, so the full run's
    # witnesses, class by class, are also in k order.
    module, attr, broken, kind, n, kwargs = PER_K_BROKEN[case]
    monkeypatch.setattr(module, attr, broken)
    full = verify_injection(kind, n, **kwargs)
    per_k = [verify_injection(kind, n, k=k, **kwargs) for k in K_RANGE[kind](n)]
    assert sum(r.domain_size for r in per_k) == full.domain_size
    assert tuple(w for r in per_k for w in r.witnesses) == full.witnesses
    assert not full.ok and full.witnesses


@pytest.mark.parametrize("kind, n, kwargs, stats", [
    ("hook", 6, {}, range(2, 6)),
    ("flip", 8, {}, range(5, 8)),
    ("protected", 7, {"lm": (2, 4)}, range(2, 7)),
    ("protected", 7, {"lm": (3, 5)}, range(2, 7)),
    ("lift", 5, {}, range(2, 5)),
], ids=["hook", "flip", "protected-2-4", "protected-3-5", "lift"])
def test_every_kind_checks_the_blocks_of_its_whole_k_range(kind, n, kwargs, stats, monkeypatch):
    # Every block's statistic j, per kernel call (one per lift class), with
    # or without members on either side: protected with lm (3, 5) at n = 7
    # has none, and the lift classes have none at some statistics.
    received = []
    kernel = census._check_injection

    def recorded(blocks, *args, **kw):
        received.append([])

        def each():
            for block in blocks:
                received[-1].append(block[0])
                yield block

        return kernel(each(), *args, **kw)

    monkeypatch.setattr(census, "_check_injection", recorded)
    calls = 2 if kind == "lift" else 1
    verify_injection(kind, n, **kwargs)
    assert received == [list(stats)] * calls
    shift = kind in ("protected", "lift")
    for k in K_RANGE[kind](n):
        received.clear()
        verify_injection(kind, n, k=k, **kwargs)
        assert received == [[k + 1 - shift]] * calls


def test_hook_validator_runs_once_per_distinct_image_per_block(monkeypatch):
    calls = Counter()
    check_tableau = tableaux.check_tableau

    def counted(rows):
        calls[rows] += 1
        check_tableau(rows)

    monkeypatch.setattr(tableaux, "check_tableau", counted)
    report = verify_injection("hook", 7)
    assert report.ok
    # Images of block k have first row k + 1, so no two blocks share one.
    images = {
        u
        for k in range(1, 6)
        for t1 in tableaux.hook_tableaux(7, k)
        for t2 in tableaux.hook_tableaux(7, k + 2)
        for u in _HOOK_INJECT(t1, t2)
    }
    assert calls == Counter(u.rows for u in images)
    assert sum(calls.values()) == len(images) == 62 < 2 * report.domain_size == 990


@pytest.mark.parametrize("kind, n, module, builder, calls", [
    ("hook", 9, tableaux, "standard_tableaux", len(range(1, 10))),
    ("flip", 11, paths, "lattice_paths", len(range(6, 12))),
])
def test_hook_and_flip_build_each_statistic_once(kind, n, module, builder, calls, monkeypatch):
    # Without k, the members with statistic e serve two blocks: as the left
    # side of block e and the right side of block e - 2.  Hook calls the
    # tableau builder once per e, on the shape (e, 1^(n - e)), flip the path
    # builder.
    count = 0
    build = getattr(module, builder)

    def counted(*args):
        nonlocal count
        count += 1
        return build(*args)

    monkeypatch.setattr(module, builder, counted)
    assert verify_injection(kind, n).ok
    assert count == calls


def test_protected_decomposes_each_tableau_once_per_use(monkeypatch):
    # 764 standard tableaux filtered, two inputs and two images for each
    # of the 2,800 pairs (the map, then its inverse), and 140 distinct
    # images checked: the map reuses its own decompositions for the
    # protectedness test.
    calls = 0
    decompose = tableaux.protected_decompose

    def counted(t):
        nonlocal calls
        calls += 1
        return decompose(t)

    monkeypatch.setattr(tableaux, "protected_decompose", counted)
    monkeypatch.setattr(injections, "protected_decompose", counted)
    report = verify_injection("protected", 8, lm=(2, 4))
    assert report.ok and report.domain_size == 2800
    assert calls == 764 + 4 * 2800 + 140 == 12104


def test_flip_keeps_no_memory_per_pair():
    # The preimage check proves each block injective, so no seen-dict keeps
    # the 22,924 pairs at n = 11; one that did peaked at about 6 MB.
    tracemalloc.start()
    try:
        report = verify_injection("flip", 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.domain_size == 22924
    assert peak < 1_000_000


def test_passing_hook_check_maps_each_pair_once(monkeypatch):
    # The inverse proves every block injective in one pass; a second pass
    # with the pair memory would map every pair again.
    calls = 0

    def counted(t1, t2):
        nonlocal calls
        calls += 1
        return _HOOK_INJECT(t1, t2)

    monkeypatch.setattr(injections, "hook_inject", counted)
    report = verify_injection("hook", 8)
    assert report.ok and calls == report.domain_size == 2002


def test_hook_types_each_input_once_and_each_image_per_pair(monkeypatch):
    # The 2^7 input hooks at n = 8 are typed once each, and the two images
    # of each of the 2,002 pairs once per pair.
    calls = 0
    hook_type = tableaux.hook_type

    def counted(t):
        nonlocal calls
        calls += 1
        return hook_type(t)

    monkeypatch.setattr(tableaux, "hook_type", counted)
    report = verify_injection("hook", 8)
    assert report.ok and report.domain_size == 2002
    assert calls == 2 ** 7 + 2 * 2002


def _check_peak(kind, n, **kwargs):
    # A full collection empties the interpreter's free lists, so the peak
    # does not depend on the tests run before.
    gc.collect()
    tracemalloc.start()
    try:
        assert verify_injection(kind, n, **kwargs).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hook_keeps_no_memory_per_pair():
    # The domain grows fourfold from n = 9 to 10 (8,008 to 31,824 pairs),
    # the hooks held as its sides twofold.  A pair memory peaks at 3.9 MB
    # and 12.1 MB.
    peak9, peak10 = _check_peak("hook", 9), _check_peak("hook", 10)
    assert peak9 < 1_000_000
    assert peak10 < 2 * peak9


def test_protected_keeps_no_memory_per_pair():
    # The round trip proves each block injective.  The domain grows about
    # sixfold from n = 9 to 10 (17,280 to 97,020 pairs); a pair memory
    # peaks at 6.9 MB and 43 MB.
    peak9 = _check_peak("protected", 9, lm=(2, 4))
    peak10 = _check_peak("protected", 10, lm=(2, 4))
    assert peak9 < 1_500_000
    assert peak10 < 2 * peak9


# ---------------------------------------------------------------------------
# The injection kernel against the loop it replaced


# The kernel as it stood before it memoised codomain verdicts and let an
# inverse check stand in for the seen-dict: every pair's images validated,
# every pair's image kept.  Kept verbatim as the oracle.
def _reference_check_injection(
    blocks: Iterable[tuple[int, list, list]],
    f: Callable,
    in_codomain: Callable,
    check: Optional[tuple[str, Callable]] = None,
    prefix: str = "",
    quote: Callable = str,
) -> tuple[int, bool, bool, bool, list[str]]:
    """Apply ``f(k, a, b)`` to every pair of every ``(k, lefts, rights)``
    block and check each image pair (u, v), in this order:

    0. ``f`` itself: a ValueError it raises (a lift whose image tableaux
       are not standard or differ in shape) counts as a codomain failure,
       and the pair's other checks are skipped;
    1. ``in_codomain(k, u)`` and ``in_codomain(k, v)``, where a ValueError
       (the validator rejecting a malformed image) counts as a failure;
    2. the optional named check ``(name, holds)``: ``holds(a, b, u, v)``,
       where a ValueError counts as a failure too (a map that leaves the
       codomain can hand the check an image it cannot read);
    3. no earlier pair of the same block has the same image.

    Returns the number of pairs, whether the map was injective, whether
    the images lay in the codomain, whether the named check held, and the
    witnesses, each formatted only when a check fails.  The earlier pair of
    a collision is shown as ``(quote(a), quote(b))``.
    """
    name, holds = check if check is not None else ("", None)
    domain = 0
    injective = codomain_ok = check_ok = True
    witnesses: list[str] = []
    for k, lefts, rights in blocks:
        seen: dict = {}
        for a in lefts:
            for b in rights:
                domain += 1
                try:
                    u, v = f(k, a, b)
                except ValueError as exc:
                    codomain_ok = False
                    witnesses.append(f"{prefix}codomain: ({a}, {b}) -> error: {exc}")
                    continue
                try:
                    inside = in_codomain(k, u) and in_codomain(k, v)
                except ValueError:
                    inside = False
                if not inside:
                    codomain_ok = False
                    witnesses.append(f"{prefix}codomain: ({a}, {b}) -> ({u}, {v})")
                if holds is not None:
                    try:
                        held = holds(a, b, u, v)
                    except ValueError:
                        held = False
                    if not held:
                        check_ok = False
                        witnesses.append(f"{name}: ({a}, {b}) -> ({u}, {v})")
                key = (u, v)
                earlier = seen.get(key)
                if earlier is None:
                    seen[key] = (a, b)
                else:
                    injective = False
                    shown = (quote(earlier[0]), quote(earlier[1]))
                    witnesses.append(f"{prefix}collision: {shown} and ({a}, {b})")
    return domain, injective, codomain_ok, check_ok, witnesses


def _reports_by_kernel_and_reference(monkeypatch, *args, **kwargs):
    new = verify_injection(*args, **kwargs).to_json()
    with monkeypatch.context() as m:
        # The kernel derives a collision's text form from the member: a
        # permutation (a tuple) as itself, anything else by str.
        m.setattr(
            census, "_check_injection",
            lambda blocks, f, *a, inverse=False, **kw: _reference_check_injection(
                blocks, lambda k, x, y: f(x, y), *a, **kw,
                quote=lambda x: x if isinstance(x, tuple) else str(x),
            ),
        )
        old = verify_injection(*args, **kwargs).to_json()
    return new, old


def _every_k(lo, hi):
    return [None] + list(range(lo, hi + 1))


# (kind, n, keyword arguments, ks): every k in range and the whole domain.
ORACLE_RUNS = (
    [("hook", n, {}, _every_k(1, n - 2)) for n in range(1, 10)]
    + [("flip", n, {}, _every_k((n + 1) // 2, n - 2)) for n in range(1, 12)]
    + [("protected", n, {"lm": lm}, _every_k(2, n - 1))
       for n in range(1, 8) for lm in [(1, 1), (2, 4), (2, 3), (3, 5)] if lm[1] <= n]
    + [("protected", n, {"lm": (2, 4)}, [None]) for n in (8, 9)]
    + [("lift", n, {"lift_classes": classes}, _every_k(2, n - 1))
       for n in range(1, 7)
       for classes in [("hook", "two_row"), ("hook",), ("two_row",), ()]]
)


@pytest.mark.parametrize(
    "kind, n, kwargs, ks", ORACLE_RUNS,
    ids=[f"{kind}-{n}-{'-'.join(map(str, kw.get('lm', kw.get('lift_classes', ()))))}"
         for kind, n, kw, _ in ORACLE_RUNS],
)
def test_kernel_reports_match_the_reference_loop(kind, n, kwargs, ks, monkeypatch):
    for k in ks:
        new, old = _reports_by_kernel_and_reference(monkeypatch, kind, n, k=k, **kwargs)
        assert new == old, (kind, n, k)


# Every broken or malformed map above, as (module, name, map, args, kwargs).
ORACLE_BROKEN = {
    **{f"map-{case}": (injections, attr, broken, args, kwargs)
       for case, (attr, broken, args, kwargs, _, _) in BROKEN_MAPS.items()},
    **{f"flip-{name}-{n}": (paths, "flip_inject", broken, ("flip", n), {})
       for (name, n), (broken, _, _) in BROKEN_FLIPS.items()},
    **{f"flip-{name}-5": (paths, "flip_inject", BROKEN_FLIPS[name, 7][0], ("flip", 5), {})
       for name, _ in BROKEN_FLIPS},
    "hook-fixed": (
        injections, "hook_inject", lambda t1, t2: (_FIXED_HOOK, _FIXED_HOOK),
        ("hook", 6), {},
    ),
    **{f"malformed-{case}": entry for case, entry in MALFORMED_IMAGES.items()},
}


@pytest.mark.parametrize("case", sorted(ORACLE_BROKEN))
def test_broken_map_reports_match_the_reference_loop(case, monkeypatch):
    module, attr, broken, args, kwargs = ORACLE_BROKEN[case]
    monkeypatch.setattr(module, attr, broken)
    new, old = _reports_by_kernel_and_reference(monkeypatch, *args, **kwargs)
    assert not new["ok"]
    assert new == old
