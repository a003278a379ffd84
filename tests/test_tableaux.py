import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ulamdist.permutations import inverse, is_involution, lis_length
from ulamdist.tableaux import (
    HookType,
    Tableau,
    attach_surplus,
    format_tableau,
    hook_from_first_row,
    hook_tableaux,
    hook_type,
    is_hook,
    is_lm_protected,
    is_partition,
    parse_tableau,
    partitions,
    protected_decompose,
    rsk,
    rsk_inverse,
    standard_tableaux,
)

perms = lambda n: itertools.permutations(range(1, n + 1))


class TestTableauValidation:
    def test_valid(self):
        t = Tableau(((1, 3), (2, 4)))
        assert t.n == 4
        assert t.shape == (2, 2)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (3, 4, 5)),  # shape not a partition
            ((2, 1), (3,)),  # row not increasing
            ((1, 2), (1, 3)),  # duplicate entry
            ((1, 2), (4, 3)),  # entries not 1..n / row decreasing
            ((3, 4), (1, 2)),  # column not increasing
            ((1, 2, 3), ()),  # empty row
        ],
    )
    def test_invalid(self, rows):
        with pytest.raises(ValueError):
            Tableau(rows)

    def test_parse_format_round_trip(self):
        text = "1,3,6/2,5/4"
        assert format_tableau(parse_tableau(text)) == text

    @pytest.mark.parametrize("bad", ["1,x/2", "", "1,2/", "2/1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_tableau(bad)

    def test_partition_check(self):
        assert is_partition((3, 2, 2))
        assert not is_partition((2, 3))
        assert not is_partition((2, 0))

    @given(
        st.one_of(
            st.lists(st.integers(-3, 6), max_size=8),
            st.lists(st.integers(-2, 6), max_size=8).map(lambda r: sorted(r, reverse=True)),
        )
    )
    @example([])
    @example([0])
    @example([-1])
    @example([1, 2])
    @example([3, 3, 0])
    def test_partition_check_matches_the_comprehension(self, rows):
        expected = all(r >= 1 for r in rows) and all(a >= b for a, b in zip(rows, rows[1:]))
        assert is_partition(rows) is expected
        assert is_partition(tuple(rows)) is expected


class TestRsk:
    def test_identity_gives_single_row(self):
        p_tab, q_tab = rsk((1, 2, 3))
        assert p_tab.rows == ((1, 2, 3),) == q_tab.rows

    def test_decreasing_gives_single_column(self):
        p_tab, q_tab = rsk((3, 2, 1))
        assert p_tab.rows == ((1,), (2,), (3,)) == q_tab.rows

    def test_hand_run_example(self):
        p_tab, q_tab = rsk((2, 1, 3))
        assert p_tab.rows == ((1, 3), (2,))
        assert q_tab.rows == ((1, 3), (2,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rsk(())

    def test_first_row_is_lis(self):
        for n in range(1, 7):
            for p in perms(n):
                assert len(rsk(p)[0].rows[0]) == lis_length(p)

    def test_round_trip(self):
        for n in range(1, 9):
            for p in perms(n):
                assert rsk_inverse(*rsk(p)) == p

    def test_inverse_swaps_the_pair(self):
        for n in range(1, 7):
            for p in perms(n):
                p_tab, q_tab = rsk(p)
                assert rsk(inverse(p)) == (q_tab, p_tab)

    def test_involution_iff_equal_tableaux(self):
        for n in range(1, 7):
            for p in perms(n):
                p_tab, q_tab = rsk(p)
                assert is_involution(p) == (p_tab == q_tab)

    def test_inverse_direction_round_trip(self):
        # every same-shape pair comes from exactly one permutation
        for n in range(1, 7):
            for shape in partitions(n):
                tabs = list(standard_tableaux(shape))
                for p_tab, q_tab in itertools.product(tabs, repeat=2):
                    assert rsk(rsk_inverse(p_tab, q_tab)) == (p_tab, q_tab)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError) as exc:
            rsk_inverse(Tableau(((1, 2),)), Tableau(((1,), (2,))))
        assert str(exc.value) == "shape mismatch: (2,) vs (1, 1)"


class TestHooks:
    def test_is_hook(self):
        assert is_hook(parse_tableau("1/2/3"))
        assert is_hook(parse_tableau("1,2,3"))
        assert is_hook(parse_tableau("1,3/2/4"))
        assert not is_hook(Tableau(((1, 3), (2, 4))))

    def test_hook_type(self):
        assert hook_type(parse_tableau("1/2/3")) is HookType.DOWN
        assert hook_type(parse_tableau("1,2,3")) is HookType.RIGHT

    def test_hook_type_errors(self):
        with pytest.raises(ValueError) as exc:
            hook_type(Tableau(((1, 3), (2, 4))))
        assert str(exc.value) == "not a hook: 1,3/2,4"
        with pytest.raises(ValueError) as exc:
            hook_type(Tableau(((1,),)))
        assert str(exc.value) == "hook type is undefined for a single box"

    def test_generation_counts_are_binomial(self):
        from math import comb

        for n in range(1, 9):
            for k in range(1, n + 1):
                assert sum(1 for _ in hook_tableaux(n, k)) == comb(n - 1, k - 1)
            # Out of range, k = 0 included, yields nothing rather than raising.
            assert list(hook_tableaux(n, 0)) == list(hook_tableaux(n, n + 1)) == []

    def test_from_first_row(self):
        t = hook_from_first_row(5, (1, 3, 4))
        assert t.rows == ((1, 3, 4), (2,), (5,))

    def test_from_first_row_fills_the_sorted_complement(self):
        for n in range(1, 11):
            for size in range(1, n + 1):
                for row in itertools.combinations(range(1, n + 1), size):
                    column = sorted(set(range(1, n + 1)) - set(row))
                    t = hook_from_first_row(n, row)
                    assert t.rows == (row,) + tuple((v,) for v in column)


def _partitions_reference(remaining, largest):
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, largest), 0, -1):
        for rest in _partitions_reference(remaining - first, first):
            yield (first,) + rest


def _euler_partition_counts(n_max):
    """p(0..n_max) from Euler's pentagonal number recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= n:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= n:
                    total += sign * p[n - g]
            j += 1
        p.append(total)
    return p


class TestGeneration:
    def test_partition_counts(self):
        assert sum(1 for _ in partitions(5)) == 7
        assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_partitions_match_the_recursive_reference_in_order(self):
        for n in range(31):
            assert list(partitions(n)) == list(_partitions_reference(n, n))

    def test_partition_counts_match_euler(self):
        p = _euler_partition_counts(60)
        assert p[40] == 37_338 and p[60] == 966_467
        for n in [*range(41), 50, 60]:
            assert sum(1 for _ in partitions(n)) == p[n]

    def test_standard_tableaux_counts(self):
        assert sum(1 for _ in standard_tableaux((2, 2))) == 2
        assert sum(1 for _ in standard_tableaux((3, 2))) == 5

    def test_standard_tableaux_reject_a_non_partition(self):
        with pytest.raises(ValueError) as exc:
            next(standard_tableaux((1, 2)))
        assert str(exc.value) == "not a partition: (1, 2)"

    def test_total_matches_involutions(self):
        # tableaux of size n are counted by involutions of length n
        for n, expect in [(4, 10), (5, 26), (6, 76)]:
            assert sum(1 for s in partitions(n) for _ in standard_tableaux(s)) == expect


class TestProtectedDecomposition:
    def test_hook_keeps_only_the_corner(self):
        dec = protected_decompose(parse_tableau("1,3,5/2/4"))
        assert dec.protected_rows == ((1,),)
        assert dec.l == dec.m == 1
        assert dec.eastern == (3, 5)
        assert dec.southern == (2, 4)

    def test_square_has_no_surplus(self):
        dec = protected_decompose(Tableau(((1, 3), (2, 4))))
        assert dec.eastern == dec.southern == ()
        assert dec.m == 4

    def test_single_box(self):
        dec = protected_decompose(Tableau(((1,),)))
        assert dec.m == 1 and dec.eastern == () and dec.southern == ()

    def test_worked_pair_size_15(self):
        left = parse_tableau("1,3,6,9/2,4,7,15/5,8/10,13/11/12/14")
        dec = protected_decompose(left)
        assert (dec.l, dec.m) == (4, 12)
        assert dec.eastern == ()
        assert dec.southern == (11, 12, 14)
        assert (dec.c, dec.d) == (9, 10)

        right = parse_tableau("1,2,3,4,11,14/5,6,8,12/7,10,13,15/9")
        dec = protected_decompose(right)
        assert (dec.l, dec.m) == (4, 12)
        assert dec.eastern == (11, 14)
        assert dec.southern == (9,)
        assert (dec.c, dec.d) == (4, 7)

    def test_round_trip_all_small_tableaux(self):
        for n in range(1, 9):
            for t in itertools.chain.from_iterable(map(standard_tableaux, partitions(n))):
                dec = protected_decompose(t)
                assert attach_surplus(dec.protected_rows, dec.eastern, dec.southern) == t


class TestLmProtected:
    def test_worked_pair_is_4_12_protected(self):
        left = parse_tableau("1,3,6,9/2,4,7,15/5,8/10,13/11/12/14")
        right = parse_tableau("1,2,3,4,11,14/5,6,8,12/7,10,13,15/9")
        assert is_lm_protected(left, 4, 12)
        assert is_lm_protected(right, 4, 12)
        assert not is_lm_protected(left, 4, 11)

    def test_small_hook(self):
        assert is_lm_protected(parse_tableau("1,3/2"), 1, 1)

    def test_first_three_in_one_row_fails(self):
        t = Tableau(((1, 2, 3), (4, 5), (6,), (7,)))
        assert not is_lm_protected(t, 2, 4)

    def test_24_protected_iff_first_three_spread(self):
        # on hook-plus-corner-box shapes, the surplus condition says exactly
        # that 1, 2, 3 are neither all in the first row nor all in the column
        for n in range(4, 9):
            shapes = [
                (k, 2) + (1,) * (n - k - 2) for k in range(2, n - 1)
            ]
            for shape in shapes:
                for t in standard_tableaux(shape):
                    row = t.rows[0]
                    col = tuple(r[0] for r in t.rows)
                    spread = not (
                        set((1, 2, 3)) <= set(row) or set((1, 2, 3)) <= set(col)
                    )
                    assert is_lm_protected(t, 2, 4) == spread
