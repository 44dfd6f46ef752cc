import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    _step,
    edge_completions,
    farey_triangles_to_depth,
    neg_cf_value,
    stepwise_monodromy,
)
from legknot.errors import DegenerateEdge, InvalidFraction, InvalidSlope, NotAnEdge
from legknot.lattice import (
    INF,
    ONE,
    ZERO,
    IntegralVector,
    Slope,
    apply_matrix,
    farey_depth,
    farey_det,
    farey_parents,
    is_farey_edge,
    mediant,
    monodromy_matrix,
    neg_cf,
    neg_cf_blocks,
    parse_slope,
    reduce_slope,
    slope_of_vector,
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


class TestOrder:
    def test_order_matches_fractions_with_inf_last(self):
        finite = {s for tri in farey_triangles_to_depth(4) for s in tri if not s.is_inf}
        slopes = [*finite, *(reduce_slope(-s.num, s.den) for s in finite), ZERO, INF]
        assert len(slopes) > 30

        def key(s):
            return (1, 0) if s.is_inf else (0, Fraction(s.num, s.den))

        for a in slopes:
            for b in slopes:
                ka, kb = key(a), key(b)
                assert (a < b, a <= b, a > b, a >= b, a == b) == (
                    ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb), (a, b)


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
            assert edge_completions(s, t) == found
        # frozen value for the 1/2, 1/3 edge: mediant 2/5 and vertex 0
        assert edge_completions(S("1/2"), S("1/3")) == {S("2/5"), ZERO}

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
            completions = edge_completions(s, t)
            for u in completions:
                assert is_farey_edge(s, u) and is_farey_edge(t, u)
            assert len(completions) == 2 and not completions & {s, t}


class TestNegCF:
    def test_examples(self):
        assert neg_cf(2, 1) == [-2]
        assert neg_cf(5, 3) == [-2, -3]
        assert neg_cf(7, 3) == [-3, -2, -2]

    def test_rejects_bad_windows(self):
        for p, q in ((3, 3), (2, 3), (4, 2), (5, 0)):
            with pytest.raises(InvalidFraction):
                neg_cf(p, q)

    def test_reconstruction_small(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                cf = neg_cf(p, q)
                assert all(r <= -2 for r in cf)
                assert neg_cf_value(cf) == Fraction(-p, q)

    def test_reconstruction_near_one(self):
        # p/(p - d) with small d has about p/d terms, mostly runs of -2
        rng = random.Random(20000611)
        for p in (10, 100, 1000, 10**4, 10**5, 10**6):
            for d in range(1, 33) if p < 10**5 else rng.sample(range(1, 33), 4) + [1]:
                if not 0 < d < p or gcd(p, d) != 1:
                    continue
                cf = neg_cf(p, p - d)
                assert all(r <= -2 for r in cf)
                assert neg_cf_value(cf) == Fraction(-p, p - d), (p, d)

    def test_blocks_expand_to_the_terms(self):
        assert neg_cf_blocks(7, 3) == [(-3, 1), (-2, 2)]
        assert neg_cf_blocks(5, 3) == [(-2, 1), (-2, 0), (-3, 1)]
        assert neg_cf_blocks(10**9 + 1, 10**9) == [(-2, 1), (-2, 10**9 - 1)]
        for p in range(2, 80):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    blocks = neg_cf_blocks(p, q)
                    assert [r for r, run in blocks for _ in range(run)] == neg_cf(p, q)
                    assert len(blocks) <= 2 * p.bit_length()


class TestMonodromy:
    def test_matrix(self):
        assert monodromy_matrix(1) == ((2, 1), (1, 1))

    def test_quoted_values(self):
        # the stepwise oracle here, and test_powers_against_repeated_products
        # ties monodromy_matrix to it
        assert _step(INF, 1) == ONE
        assert _step(ZERO, 1) == S("1/2")
        assert _step(S("1/2"), 1) == S("3/5")

    def test_inverse(self):
        for text in ("0", "inf", "1", "-7/3", "5/8", "-1"):
            s = S(text)
            for k in range(-4, 5):
                assert _step(_step(s, k), -k) == s
                there = apply_matrix(monodromy_matrix(k), s.vector())
                assert slope_of_vector(apply_matrix(monodromy_matrix(-k), there)) == s

    def test_powers_against_repeated_products(self):
        vectors = [IntegralVector(1, 0), IntegralVector(0, 1), IntegralVector(3, -7),
                   IntegralVector(-5, 8)]
        for k in range(-60, 61):
            for v in vectors:
                assert apply_matrix(monodromy_matrix(k), v) == stepwise_monodromy(v, k), (v, k)

    def test_large_powers_invert(self):
        (a, b), (c, d) = monodromy_matrix(10**4)
        (e, f), (g, h) = monodromy_matrix(-(10**4))
        assert (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h) == (1, 0, 0, 1)
        assert a * d - b * c == 1 and a.bit_length() > 10**4  # F(20001) > 2^13884
        v = IntegralVector(7, -3)
        there = apply_matrix(monodromy_matrix(10**4), v)
        assert apply_matrix(monodromy_matrix(-(10**4)), there) == v

    def test_preserves_edges(self):
        pairs = [(ZERO, INF), (ONE, INF), (S("1/2"), S("2/3")), (S("-1"), ZERO)]
        for s, t in pairs:
            for k in (-3, -1, 1, 2):
                assert is_farey_edge(_step(s, k), _step(t, k))

    def test_attraction_into_window(self):
        # iterating from any positive slope lands in (1/2, 1) quickly
        for text in ("1/5", "7", "1", "1000", "2/3"):
            s = S(text)
            for _ in range(4):
                s = _step(s, 1)
            assert S("1/2") < s < ONE


class TestParentsAndDepth:
    def test_parents(self):
        assert farey_parents(S("5/3")) == (S("3/2"), S("2"))
        assert farey_parents(S("3")) == (S("2"), INF)
        assert farey_parents(S("1/3")) == (ZERO, S("1/2"))
        assert farey_parents(ONE) == (ZERO, INF)
        for base in (ZERO, INF, S("-1/2")):
            with pytest.raises(InvalidSlope):
                farey_parents(base)

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
