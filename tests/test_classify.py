from math import gcd

import pytest

from helpers import range_pairs
from legknot.classify import (
    BoundsReport,
    LegendrianClass,
    MountainRange,
    Peak,
    Sign,
    Verdict,
    bounds_report,
    common_destabilization,
    decide_isotopy,
    euler_char,
    figure_eight,
    max_tb,
    mountain_range,
    parse_knot,
    peak_rotations,
    peaks,
    realizable,
    stabilize_class,
    torus,
    unknot,
)
from legknot.errors import InvalidKnot, NotAdjacent, Unrealizable, Unsupported


def coprime_pairs(limit, negative=False):
    for p in range(2, limit + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield (-p, q) if negative else (p, q)


class TestKnotTypes:
    def test_canonicalization(self):
        assert torus(2, 3) == torus(3, 2)
        assert torus(3, -2) == torus(-3, 2)
        assert torus(-2, 3) == torus(-3, 2)
        assert torus(-3, -2) == torus(3, 2)

    def test_rejections(self):
        with pytest.raises(InvalidKnot):
            torus(5, 1)  # the unknot, by name
        with pytest.raises(InvalidKnot):
            torus(4, 2)
        with pytest.raises(InvalidKnot):
            torus(0, 3)
        for q in range(2, 6):  # |p| = q >= 2 shares the factor q
            for p in (q, -q):
                with pytest.raises(InvalidKnot, match="not coprime"):
                    torus(p, q)
        for p in (1, -1):
            with pytest.raises(InvalidKnot, match="is the unknot"):
                torus(p, 1)

    def test_parse_round_trip(self):
        for text in ("unknot", "fig8", "torus:-7,3", "torus:5,2"):
            assert str(parse_knot(text)) == text
        with pytest.raises(InvalidKnot):
            parse_knot("granny")


class TestEulerAndPeaks:
    def test_euler_char(self):
        assert euler_char(torus(3, 2)) == -1
        assert euler_char(unknot()) == 1
        assert euler_char(figure_eight()) == -1
        assert euler_char(torus(-7, 3)) == -11

    def test_max_tb(self):
        assert max_tb(torus(3, 2)) == 1
        assert max_tb(torus(-7, 3)) == -21
        assert max_tb(figure_eight()) == -3
        assert max_tb(unknot()) == -1

    def test_peak_rotations(self):
        assert peak_rotations(torus(-7, 3)) == [-4, -2, 2, 4]
        assert peak_rotations(torus(-3, 2)) == [-1, 1]
        assert peak_rotations(torus(5, 2)) == [0]
        assert peak_rotations(figure_eight()) == [0]

    def test_peak_set_matches_realizability(self):
        types = [unknot(), figure_eight(), torus(5, 2), torus(-7, 3), torus(-5, 2)]
        for k in types:
            top = max_tb(k)
            realized = [r for r in range(-40, 41) if realizable(k, top, r)]
            assert realized == peak_rotations(k)
            assert not any(realizable(k, top + 1, r) for r in range(-40, 41))

    def test_figure_caption_cross_check(self):
        # negative-torus caption data: r = q(n2 - n1) - e over n1 + n2 = m - 1
        # where |p| = mq + e; together with its mirror this is the peak set
        for p, q in coprime_pairs(11, negative=True):
            m, e = divmod(-p, q)
            caption = {q * (n2 - (m - 1 - n2)) - e for n2 in range(m)}
            assert sorted(caption | {-r for r in caption}) == peak_rotations(torus(p, q))


class TestRealizability:
    def test_examples(self):
        assert realizable(torus(-7, 3), -22, 3)
        assert not realizable(figure_eight(), -4, 0)
        assert realizable(unknot(), -3, 2)
        assert not realizable(unknot(), -3, 4)

    def test_cone_closure_and_symmetry(self):
        types = [unknot(), figure_eight(), torus(4, 3), torus(-7, 3)]
        for k in types:
            top = max_tb(k)
            for tb in range(top - 6, top + 1):
                for rot in range(-12, 13):
                    if realizable(k, tb, rot):
                        assert realizable(k, tb - 1, rot - 1)
                        assert realizable(k, tb - 1, rot + 1)
                        assert realizable(k, tb, -rot)
                        assert (tb + rot) % 2 == 1
                        assert tb + abs(rot) <= -euler_char(k)


class TestClasses:
    def test_constructor_validates(self):
        LegendrianClass(torus(-7, 3), -22, 3)
        with pytest.raises(Unrealizable):
            LegendrianClass(torus(-7, 3), -21, 0)

    def test_decide_isotopy(self):
        a = LegendrianClass(torus(-7, 3), -22, 3)
        assert decide_isotopy(a, LegendrianClass(torus(-7, 3), -22, 3)) is Verdict.ISOTOPIC
        assert (
            decide_isotopy(
                LegendrianClass(torus(-7, 3), -21, 2),
                LegendrianClass(torus(-7, 3), -21, 4),
            )
            is Verdict.DISTINCT
        )
        assert (
            decide_isotopy(
                LegendrianClass(torus(3, 2), 1, 0), LegendrianClass(unknot(), -1, 0)
            )
            is Verdict.DISTINCT
        )

    def test_stabilize_class(self):
        c = stabilize_class(LegendrianClass(torus(-7, 3), -21, 4), Sign.MINUS)
        assert (c.tb, c.rot) == (-22, 3)
        c2 = stabilize_class(LegendrianClass(unknot(), -1, 0), Sign.PLUS)
        assert (c2.tb, c2.rot) == (-2, 1)
        for start in (LegendrianClass(figure_eight(), -3, 0), c, c2):
            pm = stabilize_class(stabilize_class(start, Sign.PLUS), Sign.MINUS)
            mp = stabilize_class(stabilize_class(start, Sign.MINUS), Sign.PLUS)
            assert pm == mp


class TestMountainRange:
    def test_unknot_depth_two(self):
        r = mountain_range(unknot(), 2)
        assert range_pairs(r) == {(-1, 0), (-2, -1), (-2, 1), (-3, 0), (-3, -2), (-3, 2)}

    def test_fig8_depth_zero(self):
        assert range_pairs(mountain_range(figure_eight(), 0)) == {(-3, 0)}

    def test_negative_torus_contains_valleys(self):
        pairs = range_pairs(mountain_range(torus(-7, 3), 2))
        for point in ((-21, 2), (-21, 4), (-22, 1), (-22, 3), (-22, 5), (-23, 0)):
            assert point in pairs
        assert all(realizable(torus(-7, 3), tb, rot) for tb, rot in pairs)

    def test_construction_refuses_what_it_cannot_list(self):
        # refused before any pair is listed: depth 1413 has 1,000,405 pairs
        for depth in (10**9, 1413, -1):
            with pytest.raises(Unsupported):
                MountainRange(unknot(), depth)

    def test_closed_under_stabilization_within_depth(self):
        pairs = range_pairs(mountain_range(torus(-5, 2), 3))
        top = max_tb(torus(-5, 2))
        for tb, rot in pairs:
            if tb > top - 3:
                assert (tb - 1, rot - 1) in pairs
                assert (tb - 1, rot + 1) in pairs


class TestValleys:
    def test_examples(self):
        k = torus(-7, 3)
        assert common_destabilization(k, Peak(-21, 4), Peak(-21, 2)) == (-22, 3)
        assert common_destabilization(k, Peak(-21, 2), Peak(-21, -2)) == (-23, 0)
        assert common_destabilization(torus(-5, 2), Peak(-10, 3), Peak(-10, 1)) == (-11, 2)

    def test_errors(self):
        k = torus(-7, 3)
        with pytest.raises(NotAdjacent):
            common_destabilization(k, Peak(-21, 4), Peak(-21, 4))
        with pytest.raises(NotAdjacent):
            common_destabilization(k, Peak(-21, 4), Peak(-21, -2))
        with pytest.raises(Unsupported):
            common_destabilization(torus(3, 2), Peak(1, 0), Peak(1, 0))

    def test_against_brute_force_cone_scan(self):
        # oracle: first level where two adjacent peak cones share a point
        def cone(peak, tb):
            depth = peak.tb - tb
            return {peak.rot - depth + 2 * i for i in range(depth + 1)}

        for p in range(3, 12):
            for q in range(2, min(p, 6)):
                if gcd(p, q) != 1:
                    continue
                k = torus(-p, q)
                ps = peaks(k)
                for a, b in zip(ps, ps[1:]):
                    expected = None
                    for tb in range(a.tb, a.tb - 2 * q - 2, -1):
                        shared = cone(a, tb) & cone(b, tb)
                        if shared:
                            assert len(shared) == 1
                            expected = (tb, shared.pop())
                            break
                    assert common_destabilization(k, a, b) == expected


class TestBounds:
    def test_examples(self):
        r = bounds_report(torus(-5, 3))
        assert r == BoundsReport(torus(-5, 3), 7, -13, -15, True)
        r2 = bounds_report(torus(3, 2))
        assert (r2.bennequin, r2.max_tb, r2.strict) == (1, 1, False)
        assert r2.fuchs_tabachnikov is None
        r3 = bounds_report(torus(-4, 3))
        assert r3.fuchs_tabachnikov == -11 and r3.max_tb == -12 and r3.strict

    def test_non_torus_rejected(self):
        with pytest.raises(Unsupported):
            bounds_report(figure_eight())

    def test_even_q_bound_is_attained(self):
        for p in (3, 5, 7, 9):
            r = bounds_report(torus(-p, 2))
            assert r.fuchs_tabachnikov == r.max_tb
            assert not r.strict
