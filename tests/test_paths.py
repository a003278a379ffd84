import itertools
from typing import Iterator

import pytest

from ulamdist.census import closed_form
from ulamdist.paths import (
    LatticePath,
    _path,
    flip_inject,
    flip_preimage,
    lattice_paths,
    parse_path,
    path_to_tableau,
    tableau_to_path,
)
from ulamdist.tableaux import Tableau, parse_tableau


class TestLatticePath:
    def test_valid(self):
        p = LatticePath("EENENNE")
        assert (p.east, p.n - p.east) == (4, 3)
        assert p.n == 7

    @pytest.mark.parametrize("bad", ["N", "ENN", "EX", ""])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            LatticePath(bad)

    def test_parse(self):
        assert parse_path(" EEN ").steps == "EEN"

    def test_generation_counts_match_closed_form(self):
        for n in range(1, 13):
            for k in range((n + 1) // 2, n + 1):
                count = sum(1 for _ in lattice_paths(n, k))
                assert count == closed_form("two_row_involutions", n, k)

    def test_generation_empty_below_diagonal_bound(self):
        assert list(lattice_paths(4, 1)) == []

    def test_generation_matches_the_step_recursion_in_order(self):
        # Flip reports its witnesses in this order.
        for n in range(1, 15):
            for k in range(-1, n + 2):
                assert list(lattice_paths(n, k)) == list(_lattice_paths_reference(n, k))


def _lattice_paths_reference(n: int, k: int) -> Iterator[LatticePath]:
    """All paths in L(n, k); empty if n - k > k or k > n."""
    if k > n or n - k > k or n < 1:
        return

    def rec(prefix: list[str], east: int, north: int) -> Iterator[LatticePath]:
        if east + north == n:
            yield _path("".join(prefix))
            return
        if east < k:
            prefix.append("E")
            yield from rec(prefix, east + 1, north)
            prefix.pop()
        if north < n - k and north < east:
            prefix.append("N")
            yield from rec(prefix, east, north + 1)
            prefix.pop()

    yield from rec([], 0, 0)


class TestPathTableauBijection:
    def test_single_row_is_all_east(self):
        t = Tableau(((1, 2, 3, 4),))
        assert tableau_to_path(t).steps == "EEEE"

    def test_worked_example(self):
        t = parse_tableau("1,3,4,5,6,7/2")
        assert tableau_to_path(t).steps == "ENEEEEE"
        assert path_to_tableau(parse_path("ENEEEEE")) == t

    def test_three_rows_rejected(self):
        with pytest.raises(ValueError):
            tableau_to_path(parse_tableau("1/2/3"))

    def test_round_trip_exhaustive(self):
        for n in range(1, 11):
            for k in range((n + 1) // 2, n + 1):
                for p in lattice_paths(n, k):
                    t = path_to_tableau(p)
                    assert len(t.rows) <= 2
                    assert tableau_to_path(t) == p


class TestFlipInject:
    def test_worked_example_n7(self):
        p = parse_path("EENENNE")
        q = parse_path("ENEEEEE")
        r, s = flip_inject(p, q)
        assert (r.steps, s.steps) == ("EENENEE", "ENEEENE")
        assert (r.east, r.n - r.east) == (s.east, s.n - s.east) == (5, 2)

    def test_smallest_case_n4(self):
        r, s = flip_inject(parse_path("ENEN"), parse_path("EEEE"))
        assert (r.steps, s.steps) == ("ENEE", "EEEN")

    def test_mismatch_rejected(self):
        for p, q, message in [
            ("EN", "EEE", "paths differ in length: 2 vs 3"),
            ("EEN", "EEE", "second path must take exactly two more east steps: 2 vs 3"),
            ("EEEE", "ENEN", "second path must take exactly two more east steps: 4 vs 2"),
        ]:
            with pytest.raises(ValueError) as exc:
                flip_inject(parse_path(p), parse_path(q))
            assert str(exc.value) == message

    def test_codomain_exhaustive(self):
        for n in range(3, 10):
            for k in range((n + 1) // 2, n - 1):
                for p in lattice_paths(n, k):
                    for q in lattice_paths(n, k + 2):
                        r, s = flip_inject(p, q)
                        assert r.east == s.east == k + 1

    def test_injective_exhaustive(self):
        for n in range(3, 10):
            for k in range((n + 1) // 2, n - 1):
                images = set()
                domain = 0
                for p in lattice_paths(n, k):
                    for q in lattice_paths(n, k + 2):
                        images.add(flip_inject(p, q))
                        domain += 1
                assert len(images) == domain


class TestFlipPreimage:
    @pytest.mark.parametrize("r, s, message", [
        ("EEN", "EENE", "paths differ in length: 3 vs 4"),
        ("EENE", "EEEE", "paths differ in east steps: 3 vs 4"),
    ], ids=["length", "east"])
    def test_mismatch_message(self, r, s, message):
        with pytest.raises(ValueError) as exc:
            flip_preimage(parse_path(r), parse_path(s))
        assert str(exc.value) == message

    def test_worked_example_back(self):
        r = parse_path("EENENEE")
        s = parse_path("ENEEENE")
        assert flip_preimage(r, s) == (parse_path("EENENNE"), parse_path("ENEEEEE"))

    def test_all_east_pair_has_none(self):
        p = parse_path("EEEE")
        assert flip_preimage(p, p) is None

    def test_identity_on_image_exhaustive(self):
        for n in range(3, 10):
            for k in range((n + 1) // 2, n - 1):
                for p in lattice_paths(n, k):
                    for q in lattice_paths(n, k + 2):
                        assert flip_preimage(*flip_inject(p, q)) == (p, q)

    def test_non_image_pairs_rejected(self):
        # pairs whose un-flip leaves the class come back as None; flip_preimage
        # does not re-apply the flip, so this is the evidence that it rejects
        # every pair off the image
        for n in range(3, 11):
            for k in range((n + 1) // 2, n - 1):
                image = set()
                for p in lattice_paths(n, k):
                    for q in lattice_paths(n, k + 2):
                        image.add(flip_inject(p, q))
                for r in lattice_paths(n, k + 1):
                    for s in lattice_paths(n, k + 1):
                        pre = flip_preimage(r, s)
                        if (r, s) in image:
                            assert pre is not None
                        else:
                            assert pre is None
