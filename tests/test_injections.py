import hashlib
import itertools

import pytest

from ulamdist.census import enumerate_class
from ulamdist.injections import (
    HOOK_BASE_TABLE,
    _comb_rank,
    _comb_unrank,
    _hook_rows,
    _rank_rows,
    hook_inject,
    hook_preimage,
    lift,
    protected_inject,
    protected_preimage,
    two_row_inject,
)
from ulamdist.permutations import lis_length
from ulamdist.tableaux import (
    Tableau,
    _tableau,
    hook_tableaux,
    hook_type,
    is_lm_protected,
    parse_tableau,
    protected_decompose,
    rsk,
)


def pair_type(t1, t2):
    return hook_type(t1), hook_type(t2)


BASE_CASES = [
    (3, 1, 3, "1/2/3", "1,2,3", "1,2/3", "1,3/2"),
    (4, 1, 3, "1/2/3/4", "1,2,3/4", "1,2/3/4", "1,3/2/4"),
    (4, 1, 3, "1/2/3/4", "1,2,4/3", "1,2/3/4", "1,4/2/3"),
    (4, 1, 3, "1/2/3/4", "1,3,4/2", "1,3/2/4", "1,4/2/3"),
    (4, 1, 4, "1/2/3/4", "1,2,3,4", "1,2/3/4", "1,2,4/3"),
    (4, 2, 4, "1,2/3/4", "1,2,3,4", "1,2,3/4", "1,2,4/3"),
    (4, 2, 4, "1,4/2/3", "1,2,3,4", "1,2,4/3", "1,3,4/2"),
    (4, 2, 4, "1,3/2/4", "1,2,3,4", "1,2,3/4", "1,3,4/2"),
]

WORKED_N5 = [
    (5, 2, 4, "1,2/3/4/5", "1,2,4,5/3", "1,2,4/3/5", "1,2,5/3/4"),
    (5, 3, 5, "1,2,5/3/4", "1,2,3,4,5", "1,2,3,5/4", "1,2,4,5/3"),
]


class TestHookInjectBaseTables:
    @pytest.mark.parametrize("n,k,l,t1,t2,u1,u2", BASE_CASES)
    def test_base_mappings(self, n, k, l, t1, t2, u1, u2):
        out = hook_inject(parse_tableau(t1), parse_tableau(t2))
        assert out == (parse_tableau(u1), parse_tableau(u2))

    def test_base_table_is_total_on_sizes_3_and_4(self):
        # every admissible pair at n = 3, 4 has an entry, and entries
        # preserve the pair type
        expected_keys = set()
        for n in (3, 4):
            for k in range(1, n - 1):
                for l in range(k + 2, n + 1):
                    for a in hook_tableaux(n, k):
                        for b in hook_tableaux(n, l):
                            expected_keys.add((n, a.rows[0], b.rows[0]))
        assert expected_keys == set(HOOK_BASE_TABLE)

    @pytest.mark.parametrize("n,k,l,t1,t2,u1,u2", BASE_CASES)
    def test_base_mappings_preserve_type(self, n, k, l, t1, t2, u1, u2):
        before = pair_type(parse_tableau(t1), parse_tableau(t2))
        after = pair_type(parse_tableau(u1), parse_tableau(u2))
        assert before == after


class TestHookInjectRecursion:
    @pytest.mark.parametrize("n,k,l,t1,t2,u1,u2", WORKED_N5)
    def test_worked_examples_size_5(self, n, k, l, t1, t2, u1, u2):
        out = hook_inject(parse_tableau(t1), parse_tableau(t2))
        assert out == (parse_tableau(u1), parse_tableau(u2))

    def test_exhaustive_small(self):
        for n in range(3, 9):
            for k in range(1, n - 1):
                images = {}
                for t1 in hook_tableaux(n, k):
                    for t2 in hook_tableaux(n, k + 2):
                        u1, u2 = hook_inject(t1, t2)
                        assert u1.n == u2.n == n
                        assert len(u1.rows[0]) == len(u2.rows[0]) == k + 1
                        assert pair_type(u1, u2) == pair_type(t1, t2)
                        assert (u1, u2) not in images
                        images[(u1, u2)] = (t1, t2)

    def test_gap_greater_than_two_is_injective(self):
        for n in range(5, 8):
            for k in range(1, n - 1):
                for l in range(k + 3, n + 1):
                    images = set()
                    domain = 0
                    for t1 in hook_tableaux(n, k):
                        for t2 in hook_tableaux(n, l):
                            u1, u2 = hook_inject(t1, t2)
                            assert len(u1.rows[0]) == k + 1
                            assert len(u2.rows[0]) == l - 1
                            images.add((u1, u2))
                            domain += 1
                    assert len(images) == domain

    def test_map_values_are_pinned_for_sizes_5_to_10(self):
        # Every admissible pair of first rows, r1 outer, rows ordered by
        # length and then lexicographically, against the recorded digest.
        digest, pairs = hashlib.sha256(), 0
        for n in range(5, 11):
            for r1, r2 in itertools.product(hook_rows(n), repeat=2):
                if len(r2) >= len(r1) + 2:
                    digest.update(repr((n, r1, r2, _hook_rows(n, r1, r2, 1))).encode())
                    pairs += 1
        assert pairs == 82_377
        assert digest.hexdigest() == (
            "525f0664ca832264510b8e6d59287e095fae800a28795b5cc3d2c545837f716a")

    def test_domain_errors(self):
        col5 = parse_tableau("1/2/3/4/5")
        square = Tableau(((1, 3), (2, 4)))
        with pytest.raises(ValueError):
            hook_inject(col5, parse_tableau("1,2/3/4/5"))  # gap too small
        with pytest.raises(ValueError):
            hook_inject(square, parse_tableau("1,2,3,4"))  # not a hook
        with pytest.raises(ValueError):
            hook_inject(parse_tableau("1/2/3"), parse_tableau("1,2,3,4"))

    @pytest.mark.parametrize("t1, t2, message", [
        ("1,3/2,4", "1,2,3,4", "t1 is not a hook: 1,3/2,4"),
        ("1/2/3/4/5", "1,2,3/4,5", "t2 is not a hook: 1,2,3/4,5"),
        ("1/2/3/4", "1,2,3,4/5", "t1 and t2 differ in size: 4 vs 5"),
        ("1,2/3/4/5", "1,2,3/4/5", "first rows of lengths 2 and 3 are less than 2 apart"),
        ("1,2,3/4/5", "1/2/3/4/5", "first rows of lengths 3 and 1 are less than 2 apart"),
    ], ids=["not-a-hook", "t2-not-a-hook", "sizes", "gap-1", "gap-minus-2"])
    def test_domain_error_messages(self, t1, t2, message):
        with pytest.raises(ValueError) as exc:
            hook_inject(parse_tableau(t1), parse_tableau(t2))
        assert str(exc.value) == message


class TestRankInjection:
    def test_rank_rows_inject_hook_pairs_exhaustively(self):
        # Every gap of at least 3 is mapped by rank arithmetic alone.
        for n in range(4, 11):
            rows = {
                k: [(1,) + tuple(c) for c in itertools.combinations(range(2, n + 1), k - 1)]
                for k in range(1, n + 1)
            }
            for k in range(1, n + 1):
                for l in range(k + 3, n + 1):
                    images = {_rank_rows(n, r1, r2, k + 1, l - 1)
                              for r1 in rows[k] for r2 in rows[l]}
                    assert len(images) == len(rows[k]) * len(rows[l])
                    assert {r1 for r1, _ in images} <= set(rows[k + 1])
                    assert {r2 for _, r2 in images} <= set(rows[l - 1])

    def test_comb_rank_matches_lexicographic_order(self):
        for m in range(1, 8):
            for r in range(0, m + 1):
                subs = list(itertools.combinations(range(m), r))
                for rank, sub in enumerate(subs):
                    assert _comb_rank(sub, m) == rank
                    assert _comb_unrank(rank, m, r) == sub


def hook_rows(n):
    """The first row of every hook of size n."""
    return [(1,) + c for r in range(n) for c in itertools.combinations(range(2, n + 1), r)]


class TestHookPreimage:
    def test_round_trips_every_pair(self):
        for n in range(1, 10):
            pairs = 0
            for r1, r2 in itertools.product(hook_rows(n), repeat=2):
                if len(r2) >= len(r1) + 2:
                    assert hook_preimage(n, *_hook_rows(n, r1, r2, 1)) == (r1, r2)
                    pairs += 1
        assert pairs == 14_893

    def test_exact_on_first_rows(self):
        # None exactly off the image, and every preimage maps back.
        for n in range(1, 9):
            rows = hook_rows(n)
            images = {
                _hook_rows(n, r1, r2, 1)
                for r1, r2 in itertools.product(rows, repeat=2)
                if len(r2) >= len(r1) + 2
            }
            for u in itertools.product(rows, repeat=2):
                back = hook_preimage(n, *u)
                assert (back is not None) == (u in images), (n, u)
                if back is not None:
                    assert _hook_rows(n, *back, 1) == u

    @pytest.mark.parametrize("n", range(1, 10))
    def test_garbage_gives_none_or_value_error(self, n):
        # Rows that are no image's: empty, not starting at 1, longer than n,
        # in the wrong length order; and the pairs a map that returns its
        # input hands the check, whose second row may be all of 1..n.
        valid = hook_rows(n)
        bad = [(), (2,), (0, 1), (2, 3), tuple(range(1, n + 2)), tuple(range(2, n + 3))]
        wrong_order = [(r1, r2) for r1, r2 in itertools.product(valid, repeat=2)
                       if len(r1) > len(r2)]
        cases = [*itertools.product(bad, valid + bad), *itertools.product(valid, bad),
                 *wrong_order]
        for u in cases:
            try:
                assert hook_preimage(n, *u) is None, (n, u)
            except ValueError:
                pass
        for r1, r2 in itertools.product(valid, repeat=2):
            if len(r2) >= len(r1) + 2:
                try:
                    hook_preimage(n, r1, r2)
                except ValueError:
                    pass


class TestProtectedInject:
    def test_worked_example_size_15(self):
        t1 = parse_tableau("1,3,6,9/2,4,7,15/5,8/10,13/11/12/14")
        t2 = parse_tableau("1,2,3,4,11,14/5,6,8,12/7,10,13,15/9")
        u1, u2 = protected_inject(t1, t2)
        assert u1 == parse_tableau("1,3,6,9,12/2,4,7,15/5,8/10,13/11/14")
        assert u2 == parse_tableau("1,2,3,4,14/5,6,8,12/7,10,13,15/9/11")

    def test_degenerates_to_hook_inject_on_hooks(self):
        for n in range(4, 7):
            for k in range(2, n - 1):
                for t1 in hook_tableaux(n, k - 1):
                    for t2 in hook_tableaux(n, k + 1):
                        assert protected_inject(t1, t2) == hook_inject(t1, t2)

    def test_protected_areas_untouched(self):
        for n in range(5, 9):
            by_k = {}
            for t in enumerate_class("protected", n, lm=(2, 4)):
                by_k.setdefault(len(t.rows[0]), []).append(t)
            for k in sorted(by_k):
                for t1 in by_k.get(k - 1, []):
                    for t2 in by_k.get(k + 1, []):
                        u1, u2 = protected_inject(t1, t2)
                        for before, after in ((t1, u1), (t2, u2)):
                            assert (
                                protected_decompose(before).protected_rows
                                == protected_decompose(after).protected_rows
                            )

    def test_exhaustive_24_protected(self):
        for n in range(5, 9):
            by_k = {}
            for t in enumerate_class("protected", n, lm=(2, 4)):
                by_k.setdefault(len(t.rows[0]), []).append(t)
            for k in sorted(by_k):
                images = set()
                domain = 0
                for t1 in by_k.get(k - 1, []):
                    for t2 in by_k.get(k + 1, []):
                        u1, u2 = protected_inject(t1, t2)
                        assert is_lm_protected(u1, 2, 4) and is_lm_protected(u2, 2, 4)
                        assert len(u1.rows[0]) == len(u2.rows[0]) == k
                        images.add((u1, u2))
                        domain += 1
                assert len(images) == domain

    def test_mismatched_inputs_rejected(self):
        t1 = parse_tableau("1,3/2")  # (1, 1)-protected
        t2 = parse_tableau("1,2,3,4")
        with pytest.raises(ValueError):
            protected_inject(parse_tableau("1,2/3,4"), parse_tableau("1,2,3,4"))
        with pytest.raises(ValueError):
            protected_inject(t1, t2)  # size mismatch

    @pytest.mark.parametrize("t1, t2, message", [
        ("1/2/3", "1,2,3,4", "t1 and t2 differ in size: 3 vs 4"),
        ("1,2/3/4", "1,2,3/4", "first rows of lengths 2 and 3 are not 2 apart"),
        ("1/2/3/4/5", "1,2,3,4/5", "first rows of lengths 1 and 4 are not 2 apart"),
        # Mixed protected areas: t1's is (1, 1), t2's is (2, 4).
        ("1/2/3/4/5", "1,2,5/3,4", "t2 is not (1, 1)-protected: 1,2,5/3,4"),
        # t1's area is (2, 4), but its eastern 3 lies below the 4 of its area.
        ("1,2,3/4,5", "1,2,3,4,5", "t1 is not (2, 4)-protected: 1,2,3/4,5"),
    ], ids=["sizes", "gap-1", "gap-3", "mixed-areas", "t1-unprotected"])
    def test_domain_error_messages(self, t1, t2, message):
        with pytest.raises(ValueError) as exc:
            protected_inject(parse_tableau(t1), parse_tableau(t2))
        assert str(exc.value) == message

    def test_11_protected_are_exactly_the_hooks(self):
        from ulamdist.tableaux import is_hook, partitions, standard_tableaux

        for n in range(1, 7):
            for t in itertools.chain.from_iterable(map(standard_tableaux, partitions(n))):
                assert is_lm_protected(t, 1, 1) == is_hook(t)

    def test_exhaustive_at_stated_sizes(self):
        from ulamdist.census import verify_injection

        assert verify_injection("protected", 9, lm=(2, 4)).ok
        assert verify_injection("protected", 10, lm=(1, 1)).ok


def protected_by_k(n, lm):
    """The (l, m)-protected tableaux of size n, by first-row length; none
    below size m."""
    by_k = {}
    for t in enumerate_class("protected", n, lm=lm) if lm[1] <= n else ():
        by_k.setdefault(len(t.rows[0]), []).append(t)
    return by_k


def maps_back(back, u1, u2):
    """Whether the pair with rows ``back`` is sent to (u1, u2)."""
    try:
        images = protected_inject(_tableau(back[0]), _tableau(back[1]))
    except ValueError:
        return False
    return (images[0].rows, images[1].rows) == (u1.rows, u2.rows)


class TestProtectedPreimage:
    # Each lm that the kernel's oracle runs check; (2, 3) and (3, 5) have
    # no members, since a protected area's first row is as long as its
    # second.
    LMS = {(1, 1): 10_660, (2, 4): 20_500, (2, 3): 0, (3, 5): 0}

    @pytest.mark.parametrize("lm", sorted(LMS))
    def test_round_trips_every_pair(self, lm):
        pairs = 0
        for n in range(1, 10):
            by_k = protected_by_k(n, lm)
            for k in by_k:
                for t1, t2 in itertools.product(by_k[k], by_k.get(k + 2, [])):
                    u1, u2 = protected_inject(t1, t2)
                    assert protected_preimage(u1, u2) == (t1.rows, t2.rows)
                    pairs += 1
        assert pairs == self.LMS[lm]

    @pytest.mark.parametrize("lm", [(1, 1), (2, 4)])
    def test_exact_on_the_codomain(self, lm):
        # None exactly off the image among pairs with equal first rows, and
        # every preimage maps back.
        for n in range(1, 10):
            by_k = protected_by_k(n, lm)
            for k, side in by_k.items():
                images = {
                    tuple(u.rows for u in protected_inject(t1, t2))
                    for t1, t2 in itertools.product(by_k.get(k - 1, []), by_k.get(k + 1, []))
                }
                for u1, u2 in itertools.product(side, repeat=2):
                    back = protected_preimage(u1, u2)
                    assert (back is not None) == ((u1.rows, u2.rows) in images), (u1, u2)
                    assert back is None or maps_back(back, u1, u2)

    def test_inputs_handed_back_do_not_map_back(self):
        # The pairs that a map returning its input hands the check.
        for n in range(1, 10):
            by_k = protected_by_k(n, (2, 4))
            for k in by_k:
                for t1, t2 in itertools.product(by_k[k], by_k.get(k + 2, [])):
                    back = protected_preimage(t1, t2)
                    assert back is None or not maps_back(back, t1, t2)

    @pytest.mark.parametrize("rows1, rows2", [
        ((), ((1, 2), (3, 4))),
        (((1, 2), (3, 4)), ((),)),
        (((1, 2), (), (3,)), ((1, 2), (3, 4))),
        # Sizes 5 and 6, and hooks of sizes 5 and 4.
        (((1, 2, 5), (3, 4)), ((1, 2, 5), (3, 4), (6,))),
        (((1, 2, 3), (4,), (5,)), ((1, 2, 3, 4),)),
        # Eastern surplus not increasing, or repeated.
        (((1, 2, 6, 5), (3, 4)), ((1, 2, 5, 6), (3, 4))),
        (((1, 2, 5, 5), (3, 4)), ((1, 2, 5, 6), (3, 4))),
        # A surplus entry shared by both surpluses, or below the area.
        (((1, 2, 5), (3, 4), (5,)), ((1, 2, 6), (3, 4), (5,))),
        (((1, 2, 0), (3, 4), (7,)), ((1, 2, 5), (3, 4), (6,))),
        # Protected in every respect but standardness: 7 sits above 6.
        (((1, 2, 5), (3, 4), (7,), (6,)), ((1, 2, 5), (3, 4), (7,), (6,))),
        # Areas of different l.
        (((1, 2, 5), (3, 4), (6,)), ((1, 4, 6), (2,), (3,), (5,))),
    ], ids=["empty", "empty-row", "empty-middle-row", "sizes", "hook-sizes", "unsorted",
            "repeated", "shared", "below-area", "unstandard", "mixed-l"])
    def test_malformed_rows_give_none_or_do_not_map_back(self, rows1, rows2):
        u1, u2 = _tableau(rows1), _tableau(rows2)
        back = protected_preimage(u1, u2)
        assert back is None or not maps_back(back, u1, u2)


class TestLift:
    def test_equal_involutions_map_to_equal_words(self):
        # with p1 = p2 an involution, both tableau pairs coincide, so any
        # injection gives w1 = w2; the identity injection shows it plainly
        ident = lambda t1, t2: (t1, t2)
        for p in [(1, 4, 3, 2, 5), (2, 1, 3), (3, 2, 1)]:
            p_tab, q_tab = rsk(p)
            assert p_tab == q_tab
            w1, w2 = lift(ident, p, p)
            assert w1 == w2 == p

    def test_hook_class_small(self):
        n, k = 5, 3
        members = {}
        for p in enumerate_class("hook_pair_permutations", n):
            members.setdefault(lis_length(p), []).append(p)
        images = set()
        domain = 0
        for p1 in members[k - 1]:
            for p2 in members[k + 1]:
                w1, w2 = lift(hook_inject, p1, p2)
                assert lis_length(w1) == lis_length(w2) == k
                images.add((w1, w2))
                domain += 1
        assert len(images) == domain

    def test_two_row_class_small(self):
        n = 6
        members = {}
        for p in enumerate_class("avoid321_permutations", n):
            members.setdefault(lis_length(p), []).append(p)
        for k in range(4, 6):
            images = set()
            domain = 0
            for p1 in members.get(k - 1, []):
                for p2 in members.get(k + 1, []):
                    w1, w2 = lift(two_row_inject, p1, p2)
                    assert lis_length(w1) == lis_length(w2) == k
                    images.add((w1, w2))
                    domain += 1
            assert len(images) == domain

    def test_shape_rigidity_violation_reported(self):
        def bad_inj(t1, t2):
            return Tableau(((1, 2, 3),)), Tableau(((1, 3), (2,)))

        with pytest.raises(ValueError) as exc:
            lift(bad_inj, (1, 2, 3), (1, 2, 3))
        assert str(exc.value) == (
            "shape rigidity violated: image components have shapes (3,) and (2, 1)"
        )

    def test_non_standard_image_rejected(self):
        # Equal shapes, so only the validator stands between this image
        # and rsk_inverse.
        def bad_inj(t1, t2):
            u = _tableau(((2, 1, 3),))
            return u, u

        with pytest.raises(ValueError) as exc:
            lift(bad_inj, (1, 2, 3), (1, 2, 3))
        assert str(exc.value) == "row (2, 1, 3) is not strictly increasing"

    @pytest.mark.parametrize("p_images, q_images, message", [
        # Every image is validated before any pair's shapes are compared.
        ((((1, 2, 3),), ((1, 3), (2,))), (((1, 2, 3),), ((1, 3, 2),)),
         "row (1, 3, 2) is not strictly increasing"),
        ((((1, 2, 3),), ((1, 2, 3),)), (((1, 2), (3,)), ((1, 2, 3),)),
         "shape rigidity violated: image components have shapes (2, 1) and (3,)"),
        ((((1, 3), (2,)), ((1, 2, 3),)), (((1, 2), (3,)), ((1,), (2,), (3,))),
         "shape rigidity violated: image components have shapes (2, 1) and (3,)"),
    ], ids=["q-non-standard", "q-shapes", "p-shapes-first"])
    def test_image_errors_come_in_order(self, p_images, q_images, message):
        # The map returns the given images for the P pair, then for the Q pair.
        outs = iter([p_images, q_images])

        def bad_inj(t1, t2):
            return tuple(_tableau(rows) for rows in next(outs))

        with pytest.raises(ValueError) as exc:
            lift(bad_inj, (1, 2, 3), (1, 2, 3))
        assert str(exc.value) == message

    def test_check_is_handed_every_image_before_any_shape_comparison(self):
        # The P images differ in shape, yet all four reach the validator,
        # the P pair then the Q pair, before lift names the mismatch.
        images = [(((1, 2, 3),), ((1, 3), (2,))), (((1, 2), (3,)), ((1, 2), (3,)))]
        outs = iter(images)

        def bad_inj(t1, t2):
            return tuple(_tableau(rows) for rows in next(outs))

        handed = []
        with pytest.raises(ValueError, match="^shape rigidity violated"):
            lift(bad_inj, (1, 2, 3), (1, 2, 3), check=handed.append)
        assert handed == [rows for pair in images for rows in pair]

    def test_check_sees_the_images_it_lifts(self):
        p1, p2 = (4, 3, 2, 1, 5), (2, 1, 3, 4, 5)
        handed = []
        assert lift(hook_inject, p1, p2, check=handed.append) == lift(hook_inject, p1, p2)
        (pt1, qt1), (pt2, qt2) = rsk(p1), rsk(p2)
        assert handed == [t.rows for t in (*hook_inject(pt1, pt2), *hook_inject(qt1, qt2))]
