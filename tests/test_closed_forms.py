"""The O(1) classification against enumerating oracles and replayed witnesses.

`realizable`, `max_sl` and `common_destabilization` answer from one peak
progression without listing the peaks.  Here they are compared with a
scan over every listed peak's cone on a grid of small knot types, with
classes reached by replaying stabilizations from a peak for |p| up to
10^9, and run with the enumerations disabled.  The row count that caps
`mountain_range`, and the `valleys` and `classify` output of the CLI, are
checked against the same cones.
"""

from itertools import groupby
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRID,
    cone_scan_max_sl,
    cone_scan_range,
    cone_scan_realizable,
    cone_scan_valley,
    listed_peaks,
    range_pairs,
)
from legknot import classify, transversal
from legknot.classify import (
    LegendrianClass,
    Peak,
    Sign,
    common_destabilization,
    max_tb,
    mountain_range,
    peak_rotations,
    peaks,
    realizable,
    stabilize_class,
    torus,
    unknot,
)
from legknot.cli import main
from legknot.errors import MAX_ROWS, NotAdjacent, Unsupported
from legknot.transversal import is_realizable_sl, max_sl

def _valley(k, a, b):
    try:
        return common_destabilization(k, a, b)
    except NotAdjacent:
        return None


@pytest.mark.parametrize("k", GRID, ids=str)
def test_against_cone_scan(k):
    top, a = max_tb(k), abs(k.p)
    for tb in range(top - 8, top + 3):
        for rot in range(-a - 6, a + 7):
            assert realizable(k, tb, rot) == cone_scan_realizable(k, tb, rot), (tb, rot)
    assert max_sl(k) == cone_scan_max_sl(k)
    if k.kind != "torus" or k.p > 0:
        with pytest.raises(Unsupported):
            common_destabilization(k, Peak(top, 0), Peak(top, 0))
        return
    listed = listed_peaks(k)
    candidates = listed + [Peak(top, listed[0].rot + 2), Peak(top - 1, listed[0].rot)]
    for x in candidates:
        for y in candidates:
            assert _valley(k, x, y) == cone_scan_valley(k, x, y), (x, y)


@st.composite
def _negative_torus(draw):
    q = draw(st.integers(2, 40))
    a = draw(st.integers(q + 1, 10**9).filter(lambda a: gcd(a, q) == 1))
    return torus(-a, q)


def _replay(start: LegendrianClass, plus: int, minus: int) -> LegendrianClass:
    c = start
    for sign, n in ((Sign.PLUS, plus), (Sign.MINUS, minus)):
        for _ in range(n):
            c = stabilize_class(c, sign)  # each step re-checks realizability
    return c


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(_negative_torus(), st.data())
def test_replayed_witnesses_for_huge_p(k, data):
    a, q = -k.p, k.q
    m, e = divmod(a, q)
    i = data.draw(st.integers(0, m - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    rot = sign * (a - q - 2 * q * i)
    plus, minus = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 30))
    peak = LegendrianClass(k, a * -q, rot)
    c = _replay(peak, plus, minus)
    assert realizable(k, c.tb, c.rot)
    assert not realizable(k, c.tb, c.rot + 1)  # wrong parity
    assert not realizable(k, -a * q + 1, rot)  # above max tb
    assert max_sl(k) == -a * q + a - q
    assert is_realizable_sl(k, max_sl(k)) and not is_realizable_sl(k, max_sl(k) + 2)
    # the peak 2e below a peak of the upper progression is its neighbour;
    # their cones meet after e stabilizations of each
    hi = a - q - 2 * q * i
    lo = -(a - q - 2 * q * (m - 1 - i))
    assert hi - lo == 2 * e
    valley = _replay(LegendrianClass(k, -a * q, hi), 0, e)
    assert valley == _replay(LegendrianClass(k, -a * q, lo), e, 0)
    assert common_destabilization(k, Peak(-a * q, hi), Peak(-a * q, lo)) == (
        valley.tb, valley.rot
    )
    if i + 1 < m:  # two peaks of one progression have a peak between them
        with pytest.raises(NotAdjacent):
            common_destabilization(k, Peak(-a * q, hi), Peak(-a * q, hi - 2 * q))


def test_point_queries_never_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated the peaks")

    monkeypatch.setattr(classify, "peaks", refuse)
    monkeypatch.setattr(classify, "peak_rotations", refuse)
    monkeypatch.setattr(classify, "valley_rows", refuse)
    monkeypatch.setattr(transversal, "peaks", refuse, raising=False)
    k = torus(-1000000001, 3)
    top = -3000000003
    assert realizable(k, top - 2, 999999998)
    assert not realizable(k, top, 0)
    LegendrianClass(k, top, -999999998)
    assert max_sl(k) == top + 999999998
    assert common_destabilization(k, Peak(top, 999999998), Peak(top, 999999994)) == (
        top - 2, 999999996
    )
    with pytest.raises(NotAdjacent):
        common_destabilization(k, Peak(top, 999999998), Peak(top, 999999992))


def test_enumerations_refuse_huge_outputs():
    k = torus(-1000000001, 3)
    with pytest.raises(Unsupported):
        peaks(k)
    with pytest.raises(Unsupported):
        peak_rotations(k)
    with pytest.raises(Unsupported):
        mountain_range(unknot(), 10**9)
    with pytest.raises(Unsupported):  # 1414 * 1415 / 2 = 1,000,405 rows
        mountain_range(unknot(), 1413)
    with pytest.raises(Unsupported):  # 2 * (MAX_ROWS // 2 + 1) peaks
        peak_rotations(torus(-(3 * (MAX_ROWS // 2 + 1) + 1), 3))


@pytest.mark.parametrize("q", range(2, 10))
def test_cli_valleys_and_peaks_against_the_cone_scan(q, capsys):
    """`valleys` and the `classify` peak line of every negative torus knot
    with |p| <= 150, against the cone meets of adjacent listed peaks."""
    for a in (a for a in range(q + 1, 151) if gcd(a, q) == 1):
        k = torus(-a, q)
        listed = listed_peaks(k)
        meets = sorted((cone_scan_valley(k, hi, lo) for hi, lo in zip(listed, listed[1:])),
                       key=lambda p: (-p[0], p[1]))
        assert main(["valleys", "--knot", str(k)]) == 0
        assert capsys.readouterr() == ("".join("%d\t%d\n" % p for p in meets), "")
        assert main(["classify", str(k)]) == 0
        peak_line = capsys.readouterr().out.splitlines()[2]
        assert peak_line == "peak_rotations=" + ",".join(str(p.rot) for p in reversed(listed))


@pytest.mark.parametrize("k", GRID, ids=str)
def test_range_rows_count_the_cones(k):
    for depth in range(7):
        pairs = cone_scan_range(k, depth)
        assert range_pairs(mountain_range(k, depth)) == pairs
        assert classify._range_rows(k, depth) == len(pairs), depth


@pytest.mark.parametrize("q", range(2, 14))
def test_rows_follow_the_cone_scan_past_the_grid(q):
    """Every negative torus knot with |p| <= 150, at depths 0..2q + 1: rows
    whose cones are all apart, joined across one gap size or across both,
    and the second residue interval wrapping past q.  Each row, its count
    and `realizable` across the band are compared with the cones of the
    listed peaks; the top row is the listed peaks."""
    for a in (a for a in range(q + 1, 151) if gcd(a, q) == 1):
        k, depth = torus(-a, q), 2 * q + 1
        top, listed = max_tb(k), listed_peaks(k)
        scan = sorted(cone_scan_range(k, depth), key=lambda p: (-p[0], p[1]))
        expected = [(tb, [rot for _, rot in row]) for tb, row in groupby(scan, itemgetter(0))]
        assert list(mountain_range(k, depth).rows()) == expected, a
        count = 0
        for d, (tb, rots) in enumerate(expected):
            count += len(rots)
            assert classify._range_rows(k, d) == count, (a, d)
            band = range(-a - d - 2, a + d + 3)
            assert [rot for rot in band if realizable(k, tb, rot)] == rots, (a, d)
        assert next(mountain_range(k, 0).rows()) == (top, [p.rot for p in reversed(listed)])
        assert peak_rotations(k) == sorted(p.rot for p in listed), a


def test_range_cap_counts_rows_exactly():
    assert classify._range_rows(unknot(), 1412) == 998_991 <= MAX_ROWS
    assert classify._range_rows(unknot(), 1413) == 1_000_405 > MAX_ROWS
    # the cones of its 66,666 peaks overlap: #peaks * (depth + 1)^2 is 1,066,656
    assert len(range_pairs(mountain_range(torus(-100001, 3), 3))) == 366_669
