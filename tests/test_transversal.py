from math import gcd

import pytest

from legknot.classify import (
    LegendrianClass,
    Sign,
    Verdict,
    figure_eight,
    peaks,
    stabilize_class,
    torus,
    unknot,
)
from legknot.errors import InvalidCable, Unrealizable
from legknot.transversal import (
    TransversalClass,
    decide_transversal,
    is_realizable_sl,
    iterated_max_sl,
    max_sl,
    parse_cables,
    push_off_sl,
    stable_invariant,
)

def schubert_sl(cables):
    """2g - 1 from Schubert's cable genus g_i = q_i g_{i-1} + (p_i - 1)(q_i - 1)/2."""
    g = 0
    for p, q in cables:
        g = q * g + (p - 1) * (q - 1) // 2
    return 2 * g - 1


IN_SCOPE = [unknot(), figure_eight(), torus(3, 2), torus(5, 2), torus(-3, 2), torus(-7, 3)]


class TestPushOffs:
    def test_examples(self):
        trefoil = LegendrianClass(torus(-3, 2), -6, 1)
        assert push_off_sl(trefoil, Sign.PLUS) == -5
        top_unknot = LegendrianClass(unknot(), -1, 0)
        assert push_off_sl(top_unknot, Sign.PLUS) == -1
        assert push_off_sl(top_unknot, Sign.MINUS) == -1

    def test_difference_is_twice_rotation(self):
        for c in (
            LegendrianClass(torus(-7, 3), -22, 3),
            LegendrianClass(figure_eight(), -5, 2),
        ):
            assert push_off_sl(c, Sign.PLUS) - push_off_sl(c, Sign.MINUS) == 2 * c.rot
            assert push_off_sl(c, Sign.PLUS) % 2 != 0

    def test_push_off_stability(self):
        c = LegendrianClass(torus(-7, 3), -21, 2)
        assert push_off_sl(stabilize_class(c, Sign.PLUS), Sign.PLUS) == push_off_sl(c, Sign.PLUS)
        assert push_off_sl(stabilize_class(c, Sign.MINUS), Sign.MINUS) == push_off_sl(c, Sign.MINUS)


class TestStableInvariant:
    def test_positive_trefoil_peak(self):
        assert stable_invariant(LegendrianClass(torus(3, 2), 1, 0)) == 1

    def test_stabilization_arithmetic(self):
        c = LegendrianClass(figure_eight(), -4, 1)
        assert stable_invariant(stabilize_class(c, Sign.PLUS)) == stable_invariant(c)
        assert stable_invariant(stabilize_class(c, Sign.MINUS)) == stable_invariant(c) - 2


class TestMaxSl:
    def test_examples(self):
        assert max_sl(torus(-7, 3)) == -17
        assert max_sl(figure_eight()) == -3
        assert max_sl(unknot()) == -1
        assert max_sl(torus(3, 2)) == 1

    def test_closed_forms(self):
        for p in range(3, 10):
            for q in range(2, p):
                if gcd(p, q) != 1:
                    continue
                assert max_sl(torus(p, q)) == p * q - p - q
                assert max_sl(torus(-p, q)) == -p * q + p - q

    def test_equals_peak_maximum(self):
        for k in IN_SCOPE:
            assert max_sl(k) == max(pk.tb + pk.rot for pk in peaks(k))


class TestTransversalClasses:
    def test_realizable_set_is_odd_ray(self):
        for k in IN_SCOPE:
            top = max_sl(k)
            for sl in range(top - 9, top + 4):
                assert is_realizable_sl(k, sl) == (sl % 2 != 0 and sl <= top)

    def test_decide(self):
        assert (
            decide_transversal(TransversalClass(torus(3, 2), -1), TransversalClass(torus(3, 2), -1))
            is Verdict.ISOTOPIC
        )
        assert (
            decide_transversal(
                TransversalClass(figure_eight(), -3), TransversalClass(figure_eight(), -5)
            )
            is Verdict.DISTINCT
        )

    def test_unrealizable_rejected(self):
        with pytest.raises(Unrealizable):
            TransversalClass(torus(3, 2), 3)
        with pytest.raises(Unrealizable):
            TransversalClass(unknot(), -2)


class TestIteratedCables:
    def test_single_cables(self):
        assert iterated_max_sl([(3, 2)]) == 1
        assert iterated_max_sl([(-3, 2)]) == -5
        assert iterated_max_sl([(-3, 2)]) == max_sl(torus(-3, 2))

    def test_two_level_cable(self):
        assert iterated_max_sl([(3, 2), (5, 2)]) == 7

    def test_multi_level_cables_match_schubert_genus(self):
        assert iterated_max_sl([(3, 2), (7, 3)]) == 17 == schubert_sl([(3, 2), (7, 3)])
        cables = [(5, 2), (11, 2), (23, 3)]
        assert iterated_max_sl(cables) == 97 == schubert_sl(cables)

    def test_matches_torus_for_all_single_cables(self):
        for p in range(3, 11):
            for q in range(2, p):
                if gcd(p, q) != 1:
                    continue
                assert iterated_max_sl([(p, q)]) == max_sl(torus(p, q))
                assert iterated_max_sl([(-p, q)]) == max_sl(torus(-p, q))

    def test_parse_and_validate(self):
        assert parse_cables("3,2;5,2") == [(3, 2), (5, 2)]
        with pytest.raises(InvalidCable):
            iterated_max_sl([])
        with pytest.raises(InvalidCable):
            iterated_max_sl([(3, 4)])  # q >= |p|
        with pytest.raises(InvalidCable):
            iterated_max_sl([(4, 2)])  # not coprime
        with pytest.raises(InvalidCable):
            parse_cables("3;2")
        with pytest.raises(InvalidCable):
            iterated_max_sl([(3, 2), (-5, 2)])  # negative cables only on their own
        with pytest.raises(InvalidCable):
            iterated_max_sl([(-3, 2), (5, 2)])
