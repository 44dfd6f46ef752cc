from fractions import Fraction
from math import gcd

import pytest

from legknot.errors import DegenerateEdge, InvalidFraction, InvalidSlope, NotAnEdge
from legknot.lattice import (
    INF,
    ONE,
    ZERO,
    IntegralVector,
    MONODROMY_MATRIX,
    Slope,
    farey_depth,
    farey_det,
    farey_parents,
    is_farey_edge,
    mediant,
    monodromy_apply,
    monodromy_vec,
    neg_cf,
    parse_slope,
    reduce_slope,
    slope_in_range,
    slope_of_vector,
    triangle_completions,
)


def S(text):
    return parse_slope(text)


class TestReduceAndRender:
    def test_gcd_reduction(self):
        assert reduce_slope(2, 4) == S("1/2")

    def test_canonical_infinity(self):
        assert reduce_slope(-3, 0) == INF

    def test_sign_normalization(self):
        assert reduce_slope(6, -4) == S("-3/2")

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidSlope):
            reduce_slope(0, 0)

    def test_noncanonical_constructor_rejected(self):
        with pytest.raises(InvalidSlope):
            Slope(2, 4)
        with pytest.raises(InvalidSlope):
            Slope(3, 0)

    def test_render_parse_round_trip(self):
        for num in range(-12, 13):
            for den in range(0, 13):
                if (num, den) == (0, 0):
                    continue
                s = reduce_slope(num, den)
                assert parse_slope(str(s)) == s


class TestFareyGraph:
    def test_det_examples(self):
        assert farey_det(IntegralVector(1, 0), IntegralVector(0, 1)) == 1
        assert farey_det(IntegralVector(3, 2), IntegralVector(1, 1)) == 1
        assert farey_det(IntegralVector(1, 1), IntegralVector(1, 1)) == 0

    def test_edge_examples(self):
        assert is_farey_edge(ZERO, INF)
        assert is_farey_edge(S("1/2"), S("2/3"))
        assert not is_farey_edge(S("1/3"), S("2/3"))

    def test_equal_slopes_degenerate(self):
        with pytest.raises(DegenerateEdge):
            is_farey_edge(ONE, ONE)

    def test_mediant_examples(self):
        assert mediant(ZERO, INF) == ONE
        assert mediant(ONE, INF) == S("2")
        assert mediant(ZERO, ONE) == S("1/2")

    def test_mediant_requires_edge(self):
        with pytest.raises(NotAnEdge):
            mediant(S("1/3"), S("2/3"))

    def test_completion_examples(self):
        assert triangle_completions(ONE, INF) == (S("2"), ZERO)
        assert triangle_completions(ZERO, INF) == (ONE, S("-1"))

    def test_completions_by_exhaustive_scan(self):
        # brute-force oracle: completions of an edge are exactly the
        # low-complexity slopes adjacent to both endpoints
        universe = [INF] + [
            reduce_slope(n, d)
            for d in range(1, 9)
            for n in range(-10, 11)
            if gcd(abs(n), d) == 1
        ]
        cases = [(S("1/2"), S("1/3")), (ZERO, S("-1")), (S("2/5"), S("1/2"))]
        for s, t in cases:
            found = {
                u for u in universe if u not in (s, t)
                and is_farey_edge(s, u) and is_farey_edge(t, u)
            }
            assert set(triangle_completions(s, t)) == found
        # frozen value for the 1/2, 1/3 edge: mediant 2/5 and vertex 0
        assert set(triangle_completions(S("1/2"), S("1/3"))) == {S("2/5"), ZERO}

    def test_completions_are_edges_and_contain_mediant(self):
        edges = []
        for d1 in range(1, 7):
            for n1 in range(-8, 9):
                if gcd(abs(n1), d1) != 1:
                    continue
                s = reduce_slope(n1, d1)
                for t in (INF, ZERO, ONE, S("1/2"), S("-2"), S("3/2")):
                    if s != t and is_farey_edge(s, t):
                        edges.append((s, t))
        assert len(edges) > 40
        for s, t in edges:
            completions = triangle_completions(s, t)
            for u in completions:
                assert is_farey_edge(s, u) and is_farey_edge(t, u)
            assert mediant(s, t) in completions


class TestNegCF:
    def test_examples(self):
        assert neg_cf(2, 1) == [-2]
        assert neg_cf(5, 3) == [-2, -3]
        assert neg_cf(7, 3) == [-3, -2, -2]

    def test_rejects_bad_windows(self):
        for p, q in ((3, 3), (2, 3), (4, 2), (5, 0)):
            with pytest.raises(InvalidFraction):
                neg_cf(p, q)

    @staticmethod
    def reconstruct(cf):
        value = Fraction(cf[-1])
        for r in reversed(cf[:-1]):
            value = r - Fraction(1) / value
        return value

    def test_reconstruction_small(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                cf = neg_cf(p, q)
                assert all(r <= -2 for r in cf)
                assert self.reconstruct(cf) == Fraction(-p, q)


class TestMonodromy:
    def test_matrix(self):
        (a, b), (c, d) = MONODROMY_MATRIX
        assert a * d - b * c == 1

    def test_quoted_values(self):
        assert monodromy_apply(INF) == ONE
        assert monodromy_apply(ZERO) == S("1/2")
        assert monodromy_apply(S("1/2")) == S("3/5")

    def test_inverse(self):
        for text in ("0", "inf", "1", "-7/3", "5/8", "-1"):
            s = S(text)
            for k in range(-4, 5):
                assert monodromy_apply(monodromy_apply(s, k), -k) == s

    def test_preserves_edges(self):
        pairs = [(ZERO, INF), (ONE, INF), (S("1/2"), S("2/3")), (S("-1"), ZERO)]
        for s, t in pairs:
            for k in (-3, -1, 1, 2):
                assert is_farey_edge(monodromy_apply(s, k), monodromy_apply(t, k))

    def test_attraction_into_window(self):
        # iterating from any positive slope lands in (1/2, 1) quickly
        for text in ("1/5", "7", "1", "1000", "2/3"):
            s = S(text)
            for _ in range(4):
                s = monodromy_apply(s)
            assert S("1/2") < s < ONE


class TestSlopeInRange:
    def test_plain_interval(self):
        assert slope_in_range(S("-5/2"), S("-2"), S("-3"))

    def test_wraparound(self):
        assert slope_in_range(S("2"), S("-1/2"), ONE)
        assert not slope_in_range(ZERO, S("-1/2"), ONE)

    def test_infinity_cases(self):
        assert slope_in_range(INF, S("-1/2"), ONE)
        assert not slope_in_range(INF, S("-2"), S("-3"))
        assert slope_in_range(S("5"), INF, S("2"))  # [2, inf]
        assert not slope_in_range(S("-9"), INF, S("2"))
        assert slope_in_range(S("-9"), S("2"), INF)  # [inf, 2] wraps below

    def test_degenerate(self):
        with pytest.raises(DegenerateEdge):
            slope_in_range(ZERO, ONE, ONE)


class TestParentsAndDepth:
    def test_parents(self):
        assert farey_parents(S("5/3")) == (S("3/2"), S("2"))
        assert farey_parents(S("3")) == (S("2"), INF)
        assert farey_parents(S("1/3")) == (ZERO, S("1/2"))
        assert farey_parents(ONE) == (ZERO, INF)

    def test_parents_are_neighbors(self):
        for n in range(1, 12):
            for d in range(1, 12):
                if gcd(n, d) != 1:
                    continue
                s = reduce_slope(n, d)
                left, right = farey_parents(s)
                assert left < s < right or right == INF
                assert is_farey_edge(s, left) and is_farey_edge(s, right)

    def test_depth(self):
        assert farey_depth(ZERO) == farey_depth(INF) == farey_depth(ONE) == 0
        assert farey_depth(S("2")) == farey_depth(S("1/2")) == 1
        assert farey_depth(S("5/3")) == 3
        assert farey_depth(S("-1/2")) == 1

    def test_vectors(self):
        assert slope_of_vector(IntegralVector(2, 1)) == S("1/2")
        assert S("1/2").vector() == IntegralVector(2, 1)
        assert INF.vector() == IntegralVector(0, 1)
