"""Acceptance suite: one test per criterion, exact-match assertions.

Each test prints a PASS line on success (run with -s or -v to see them);
a pytest failure line is the corresponding FAIL marker.
"""

import random
from fractions import Fraction
from math import gcd

from helpers import (
    OVERTWISTED_TRIANGLE,
    RIGHT_TREFOIL_PEAK_WORD,
    STABILIZED_UNKNOT_WORD,
    TIGHT_TRIANGLE,
    TREFOIL_WORD,
    enumerated_disk_rotations,
    farey_triangles_to_depth,
    random_hints,
    random_valid_diagrams,
    range_pairs,
    same_orbit,
    three_colorings,
    tight_count_by_paths,
    transitions,
)
from legknot.bypass import (
    OutcomeKind,
    make_config,
    normalize,
    type_i,
    type_ii,
    type_iii,
)
from legknot.classify import (
    Peak,
    Sign,
    common_destabilization,
    euler_char,
    figure_eight,
    max_tb,
    mountain_range,
    peak_rotations,
    peaks,
    realizable,
    torus,
    unknot,
)
from legknot.convex import disk_rotation_set, tight_count
from legknot.front import invariants, parse_front, stabilize_diagram
from legknot.lattice import neg_cf
from legknot.transversal import is_realizable_sl, iterated_max_sl, max_sl


def report(number, text):
    print("criterion %02d PASS - %s" % (number, text))


def test_criterion_01_front_invariants_reproduce_reference_fronts():
    calibration = invariants(parse_front(RIGHT_TREFOIL_PEAK_WORD))
    assert (calibration.tb, calibration.rot) == (1, 0)
    stabilized = invariants(parse_front(STABILIZED_UNKNOT_WORD))
    assert (stabilized.tb, stabilized.rot) == (-2, -1)
    trefoil_front = parse_front(TREFOIL_WORD)
    trefoil = invariants(trefoil_front)
    assert (trefoil.tb, trefoil.rot) == (-6, 1)
    assert three_colorings(trefoil_front) == 9  # it really is a trefoil
    report(1, "front words give (-2,-1), (-6,1) and calibration (1,0) exactly")


def test_criterion_02_stabilization_algebra_on_random_diagrams():
    rng = random.Random(424242)
    diagrams = random_valid_diagrams(100, seed=31415)
    for d in diagrams:
        base = invariants(d)
        gap, level = random_hints(d, rng)
        plus = stabilize_diagram(d, Sign.PLUS, gap, level)
        minus = stabilize_diagram(d, Sign.MINUS, gap, level)
        for stabilized, delta in ((plus, 1), (minus, -1)):
            got = invariants(stabilized)
            assert got.tb == base.tb - 1
            assert got.rot == base.rot + delta
        pm = invariants(stabilize_diagram(plus, Sign.MINUS, *random_hints(plus, rng)))
        mp = invariants(stabilize_diagram(minus, Sign.PLUS, *random_hints(minus, rng)))
        assert (pm.tb, pm.rot) == (mp.tb, mp.rot) == (base.tb - 2, base.rot)
    report(2, "S+S- = S-S+ and per-move deltas on 100 random diagrams")


def test_criterion_03_torus_peaks():
    for p in range(3, 13):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            assert max_tb(torus(p, q)) == p * q - p - q
            assert max_tb(torus(-p, q)) == -p * q
    assert peak_rotations(torus(-7, 3)) == [-4, -2, 2, 4]
    report(3, "max tb formulas on all coprime pairs up to 12; (-7,3) peaks")


def test_criterion_04_negative_example_valleys():
    k = torus(-7, 3)
    pairs = range_pairs(mountain_range(k, 2))
    for point in ((-22, 3), (-22, -3), (-23, 0)):
        assert point in pairs

    def cone(peak, tb):
        depth = peak.tb - tb
        return {peak.rot - depth + 2 * i for i in range(depth + 1)} if depth >= 0 else set()

    peak_list = peaks(k)
    meets = []
    for a, b in zip(peak_list, peak_list[1:]):
        meet = common_destabilization(k, a, b)
        meets.append(meet)
        # brute-force scan: the first level where both cones share a point
        for tb in range(a.tb, meet[0] - 1, -1):
            shared = cone(a, tb) & cone(b, tb)
            if tb > meet[0]:
                assert not shared
            else:
                assert shared == {meet[1]}
    assert sorted(meets) == [(-23, 0), (-22, -3), (-22, 3)]
    report(4, "valley points of (-7,3) are exactly (-22,+-3) and (-23,0)")


def test_criterion_05_bound_strictness():
    for p in range(4, 12):
        for q in range(3, p, 2):  # odd q >= 3
            if gcd(p, q) != 1:
                continue
            k = torus(-p, q)
            bennequin = -euler_char(k)
            fuchs_tabachnikov = -p * q + p - q
            assert max_tb(k) == -p * q
            assert max_tb(k) < bennequin
            assert max_tb(k) < fuchs_tabachnikov
    for p in range(3, 12):
        for q in range(2, p):
            if gcd(p, q) == 1:
                assert max_tb(torus(p, q)) == -euler_char(torus(p, q))
    report(5, "odd-q negative bounds strictly above max tb; positive bound sharp")


def test_criterion_06_unknot_table():
    family = {}
    for s in range(0, 5):
        for t in range(1, 9 - 2 * s):
            family.setdefault(-2 * s - t, set()).update({t - 1, 1 - t})
    for tb in range(-1, -9, -1):
        realized = {r for r in range(-10, 11) if realizable(unknot(), tb, r)}
        assert realized == family[tb]
    report(6, "unknot realizable pairs match tb=-2s-t, r=+-(t-1) for 2s+t<=8")


def test_criterion_07_figure_eight():
    k = figure_eight()
    assert max_tb(k) == -3
    assert peak_rotations(k) == [0]
    for depth in range(0, 7):
        realized = {r for r in range(-10, 11) if realizable(k, -3 - depth, r)}
        assert realized == set(range(-depth, depth + 1, 2))
    report(7, "fig8 peak (-3, 0) and cone levels {-k,...,k} for k<=6")


def test_criterion_08_transversal_bridge():
    types = [unknot(), figure_eight(), torus(3, 2), torus(5, 3), torus(-3, 2), torus(-7, 3)]
    for k in types:
        top = max(p.tb + p.rot for p in peaks(k))
        assert max_sl(k) == top
        for sl in range(top - 11, top + 5):
            assert is_realizable_sl(k, sl) == (sl % 2 != 0 and sl <= top)
    assert max_sl(unknot()) == -1  # negative odd integers exactly
    assert max_sl(figure_eight()) == -3  # odd integers <= -3
    for p in range(3, 11):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            assert iterated_max_sl([(p, q)]) == max_sl(torus(p, q))
            assert iterated_max_sl([(-p, q)]) == max_sl(torus(-p, q))
    report(8, "sl sets are odd rays below the peak maximum; cables agree")


def test_criterion_09_farey_and_tight_counts():
    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            cf = neg_cf(p, q)
            assert all(r <= -2 for r in cf)
            value = Fraction(cf[-1])
            for r in reversed(cf[:-1]):
                value = r - Fraction(1) / value
            assert value == Fraction(-p, q)
    assert tight_count(2, 1) == 2
    assert tight_count(5, 3) == 3
    for p in range(2, 21):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert tight_count(p, q) == tight_count_by_paths(p, q)
    report(9, "neg-cf reconstruction to p<=200; counts match path oracle to 20")


def test_criterion_10_disk_chord_oracle():
    for m in range(1, 10):
        assert disk_rotation_set(m) == enumerated_disk_rotations(m)
    report(10, "disk rotation sets equal the chord-diagram enumeration for m <= 9")


def test_criterion_11_bypass_engine():
    assert normalize(make_config("III:1,2,inf")).kind is OutcomeKind.STANDARD_TIGHT
    assert normalize(make_config("III:0,1,inf")).kind is OutcomeKind.OVERTWISTED

    def terminal_orbit(slopes):
        if same_orbit(slopes, TIGHT_TRIANGLE):
            return "tight"
        if same_orbit(slopes, OVERTWISTED_TRIANGLE):
            return "overtwisted"
        return None

    triangles = farey_triangles_to_depth(5)
    assert len(triangles) > 90
    for tri in triangles:
        start = type_iii(tri, (1, 1, 1))
        # deterministic normalization terminates with a verdict
        outcome = normalize(start)
        assert outcome.kind in (OutcomeKind.STANDARD_TIGHT, OutcomeKind.OVERTWISTED)
        # exhaustive move orders, flips, collapses and expansions from the
        # helpers' own pieces: all runs reach one terminal orbit
        terminals = set()
        stack, seen = [start.slopes], set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            orbit = terminal_orbit(current) if len(current) == 3 else None
            if orbit is not None:
                terminals.add(orbit)
                continue
            moves = transitions(current)
            assert moves, "non-terminal state %s is stuck" % (current,)
            stack.extend(result for _, result in moves)
            assert len(seen) < 400
        assert len(terminals) == 1
        assert outcome.kind.value.replace("standard-", "") in terminals.pop()

    # every 4- and 5-arc configuration at depth <= 4 destabilizes
    slopes4 = sorted(
        {s for tri in farey_triangles_to_depth(4) for s in tri},
        key=lambda s: (s.is_inf, s),
    )
    edges4 = []
    four_arc = []
    for tri in farey_triangles_to_depth(4):
        for i in range(3):
            for j in range(i + 1, 3):
                if (tri[i], tri[j]) not in edges4:
                    edges4.append((tri[i], tri[j]))
    for s, t in edges4:
        four_arc.append(type_ii((s, t), (2, 2)))
    assert four_arc
    five_arc = [type_i(s, 5, 1) for s in slopes4]
    for tri in farey_triangles_to_depth(4):
        for mults in ((1, 1, 3), (1, 3, 1), (3, 1, 1)):
            five_arc.append(type_iii(tri, mults))
    for config in four_arc + five_arc:
        assert config.arcs() in (4, 5)
        assert normalize(config).kind is OutcomeKind.DESTABILIZES
    report(11, "bypass verdicts, confluence at depth <= 5, destabilizations")
