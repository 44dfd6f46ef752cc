from math import gcd

import pytest

from helpers import enumerated_disk_rotations, noncrossing_matchings, tight_count_by_paths
from legknot.convex import (
    DiskChordDiagram,
    TorusDividingSet,
    disk_rotation_set,
    tight_count,
    torus_tb,
    twist_from_dividing,
)
from legknot.errors import Unsupported, ZeroIntersection
from legknot.lattice import IntegralVector, farey_det, neg_cf, parse_slope


def S(text):
    return parse_slope(text)


class TestTwist:
    def test_examples(self):
        assert twist_from_dividing(IntegralVector(1, 1), TorusDividingSet(S("0"), 1)) == -1
        assert twist_from_dividing(IntegralVector(3, 2), TorusDividingSet(S("-1"), 1)) == -5

    def test_parallel_class(self):
        d = TorusDividingSet(S("0"), 3)
        with pytest.raises(ZeroIntersection):
            twist_from_dividing(IntegralVector(1, 0), d)

    def test_never_positive(self):
        slopes = [S("0"), S("inf"), S("-1"), S("2/3"), S("-5/7")]
        classes = [
            IntegralVector(x, y)
            for x in range(-4, 5)
            for y in range(-4, 5)
            if gcd(abs(x), abs(y)) == 1
        ]
        for s in slopes:
            for n in (1, 2, 3):
                d = TorusDividingSet(s, n)
                for c in classes:
                    if farey_det(c, s.vector()):
                        assert twist_from_dividing(c, d) <= 0

    def test_primitive_required(self):
        with pytest.raises(Unsupported):
            twist_from_dividing(IntegralVector(2, 4), TorusDividingSet(S("0"), 1))


class TestTorusTb:
    def test_examples(self):
        assert torus_tb(3, 2, TorusDividingSet(S("-1"), 1)) == 1
        assert torus_tb(3, 2, TorusDividingSet(S("-1"), 2)) == -4
        # dividing slope q/p makes the intersection term vanish
        assert torus_tb(-7, 3, TorusDividingSet(S("-3/7"), 4)) == -21

    def test_slope_minus_one_gives_peak(self):
        for p in range(3, 14):
            for q in range(2, p):
                if gcd(p, q) != 1:
                    continue
                assert torus_tb(p, q, TorusDividingSet(S("-1"), 1)) == p * q - p - q


class TestDiskDiagrams:
    def test_catalan_counts(self):
        for m, catalan in ((1, 1), (2, 2), (3, 5), (4, 14), (5, 42)):
            assert sum(1 for _ in noncrossing_matchings(m)) == catalan

    def test_crossing_matching_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            DiskChordDiagram(2, ((0, 2), (1, 3)))
        # chords that do not pair up the points 0..2m-1
        for m, matching in ((2, ((0, 3),)), (2, ((0, 1), (1, 2))), (1, ((0, 2),))):
            with pytest.raises(ValueError, match="pair the points"):
                DiskChordDiagram(m, matching)

    def test_region_counts(self):
        nested = DiskChordDiagram(2, ((0, 3), (1, 2)))
        assert nested.region_counts() == (2, 1)
        assert DiskChordDiagram(2, ((0, 3), (1, 2)), root_positive=False).rotation() == -1

    def test_rotation_sets(self):
        assert disk_rotation_set(1) == {0}
        assert disk_rotation_set(2) == {-1, 1}
        assert disk_rotation_set(3) == {-2, 0, 2}

    def test_closed_form_and_symmetry(self):
        for m in range(1, 10):
            got = disk_rotation_set(m)
            assert got == enumerated_disk_rotations(m)
            assert got == {-r for r in got}
            assert len(got) == m

    def test_no_chords_refused(self):
        with pytest.raises(Unsupported):
            disk_rotation_set(0)


class TestTightCount:
    def test_examples(self):
        assert tight_count(2, 1) == 2
        assert tight_count(5, 3) == 3
        assert tight_count(3, 1) == 3

    def test_integer_slopes(self):
        for n in range(2, 12):
            assert tight_count(n, 1) == n

    def test_at_least_one(self):
        for p in range(2, 16):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    assert tight_count(p, q) >= 1

    def test_against_the_term_product(self):
        # |(r0 + 1) ... (r_{k-1} + 1) r_k| over every term of the fraction
        pairs = [(p, q) for p in range(2, 120) for q in range(1, p)]
        pairs += [(p, p - d) for p in (10**4, 10**5 + 1) for d in range(1, 33)]
        for p, q in pairs:
            if gcd(p, q) == 1:
                cf = neg_cf(p, q)
                product = -cf[-1]
                for r in cf[:-1]:
                    product *= -r - 1
                assert tight_count(p, q) == product, (p, q)

    def test_against_path_enumerator(self):
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    assert tight_count(p, q) == tight_count_by_paths(p, q)


class TestBypassStep:
    def test_bad_dividing_set(self):
        with pytest.raises(Unsupported):
            TorusDividingSet(S("0"), 0)
