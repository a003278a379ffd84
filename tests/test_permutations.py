import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulamdist.permutations import (
    compose,
    contains_pattern,
    format_permutation,
    identity,
    inverse,
    is_involution,
    is_permutation_word,
    is_skew_merged,
    lds_length,
    lis_length,
    parse_permutation,
    reverse,
    ulam_distance,
)


def brute_lis(p):
    """Independent oracle: scan every subsequence."""
    best = 0
    for r in range(1, len(p) + 1):
        for sub in itertools.combinations(p, r):
            if all(a < b for a, b in zip(sub, sub[1:])):
                best = max(best, r)
    return best


def bfs_move_distances(start):
    """Independent oracle: breadth-first search over single-element moves."""
    n = len(start)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        base = list(p)
        for i in range(n):
            rest = base[:i] + base[i + 1 :]
            x = base[i]
            for j in range(n):
                if j == i:
                    continue
                q = tuple(rest[:j] + [x] + rest[j:])
                if q not in dist:
                    dist[q] = dist[p] + 1
                    queue.append(q)
    return dist


perms = lambda n: itertools.permutations(range(1, n + 1))


class TestParsing:
    def test_round_trip(self):
        assert parse_permutation("3,1,4,2") == (3, 1, 4, 2)
        assert format_permutation((3, 1, 4, 2)) == "3,1,4,2"

    @pytest.mark.parametrize("bad", ["3,1,3", "0,1", "2,3", "a,b", "", "1,,2"])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    def test_word_check(self):
        assert is_permutation_word(())
        assert is_permutation_word((2, 1, 3))
        assert not is_permutation_word((2, 2, 1))
        assert not is_permutation_word((0, 1))


class TestLis:
    def test_identity(self):
        assert lis_length((1, 2, 3, 4)) == 4

    def test_small(self):
        assert lis_length((3, 1, 4, 2)) == brute_lis((3, 1, 4, 2)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lis_length(())

    def test_against_brute_force(self):
        for n in range(1, 7):
            for p in perms(n):
                assert lis_length(p) == brute_lis(p)

    def test_near_full_row_shape(self):
        # any permutation whose insertion tableau has shape (6, 1)
        from ulamdist.tableaux import rsk, rsk_inverse, Tableau

        t = Tableau(((1, 3, 4, 5, 6, 7), (2,)))
        p = rsk_inverse(t, t)
        assert lis_length(p) == brute_lis(p) == 6
        assert rsk(p)[0].shape == (6, 1)

    def test_lds_is_lis_of_reverse(self):
        for p in perms(5):
            assert lds_length(p) == lis_length(reverse(p)) == brute_lis(
                tuple(-v for v in p)
            )


class TestUlamDistance:
    def test_zero_to_self(self):
        assert ulam_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_examples(self):
        assert ulam_distance((3, 2, 1), (1, 2, 3)) == 2
        assert ulam_distance((2, 1, 3, 4), identity(4)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ulam_distance((1, 2), (1, 2, 3))

    def test_empty_pair_is_rejected(self):
        with pytest.raises(ValueError, match="requires nonempty permutations"):
            ulam_distance((), ())

    def test_identity_case_equals_bfs(self):
        for n in range(1, 6):
            dist = bfs_move_distances(identity(n))
            for p in perms(n):
                assert ulam_distance(p, identity(n)) == dist[p]
                assert ulam_distance(p, identity(n)) == n - lis_length(p)

    def test_general_pair_equals_bfs(self):
        # the relabeling extension, against BFS from every target
        for q in perms(4):
            dist = bfs_move_distances(q)
            for p in perms(4):
                assert ulam_distance(p, q) == dist[p]


class TestBasicOps:
    def test_inverse(self):
        assert inverse((2, 3, 1)) == (3, 1, 2)
        assert inverse(()) == ()

    def test_reverse(self):
        assert reverse((3, 1, 4, 2)) == (2, 4, 1, 3)

    def test_involution_examples(self):
        assert is_involution((2, 1, 4, 3))
        assert not is_involution((2, 3, 1))

    def test_involution_iff_self_inverse(self):
        for n in range(0, 6):
            for p in perms(n):
                assert is_involution(p) == (inverse(p) == p)

    def test_compose_inverse_is_identity(self):
        for p in perms(5):
            assert compose(p, inverse(p)) == identity(5)

    def test_compose_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="cannot compose lengths 2 and 3"):
            compose((2, 1), (1, 2, 3))


class TestPatterns:
    def test_examples(self):
        assert not contains_pattern((1, 2, 3), (2, 1))
        assert contains_pattern((2, 1, 4, 3), (2, 1, 4, 3))
        assert contains_pattern((5, 3, 1, 6, 4, 2), (3, 1, 4, 2))

    def test_longer_pattern_never_contained(self):
        assert not contains_pattern((2, 1), (2, 1, 3))

    def test_empty_pattern_always_contained(self):
        assert contains_pattern((2, 1), ()) and contains_pattern((), ())

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_pattern((1, 2, 3), (1, 1))

    @given(st.permutations(list(range(1, 8))))
    def test_monotone_under_pattern_deletion(self, p):
        # deleting one point of a contained pattern keeps it contained
        p = tuple(p)
        pat = (3, 1, 4, 2)
        if not contains_pattern(p, pat):
            return
        for drop in range(4):
            sub = [v for i, v in enumerate(pat) if i != drop]
            smaller = tuple(sorted(sub).index(v) + 1 for v in sub)
            assert contains_pattern(p, smaller)


class TestSkewMerged:
    def test_examples(self):
        assert is_skew_merged((1, 2, 3, 4))
        assert not is_skew_merged((2, 1, 4, 3))
        assert not is_skew_merged((3, 4, 1, 2))

    def test_matches_double_pattern_avoidance(self):
        for n in range(1, 7):
            for p in perms(n):
                expect = not contains_pattern(p, (2, 1, 4, 3)) and not contains_pattern(
                    p, (3, 4, 1, 2)
                )
                assert is_skew_merged(p) == expect
