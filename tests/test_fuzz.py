"""Property tests for the parsers: outside input ends in a LegknotError.

Inputs mix arbitrary text with near-valid specs built from each parser's
grammar, so that both the rejection paths and the accepted results are
exercised.  Every accepted front is also checked against the definitions
of its invariants and stabilized at a drawn hint, and every integer any
parser accepts is written in ASCII decimal digits with an optional '-'.
Chains of stabilizations from the trefoil fronts are checked against a
full build of each front they reach, and normalize on random Farey
triangles under far monodromy shifts against the helpers' plain walk, with
every triple it reaches a Farey triangle and its verdict the one read off
the representative.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OVERTWISTED_TRIANGLE,
    RIGHT_TREFOIL_PEAK_WORD,
    TIGHT_TRIANGLE,
    TREFOIL_WORD,
    front_state,
    plain_walk,
    same_orbit,
    spans_farey_triangle,
    strand_profile,
    three_colorings,
    tight_by_representative,
    trace_moves,
    traced_invariants,
)
from legknot.bypass import (
    OutcomeKind,
    make_config,
    monodromy_config,
    normalize,
    type_i,
    type_iii,
)
from legknot.classify import Sign, parse_knot
from legknot.errors import LegknotError, NoSuchStrand, decimal
from legknot.front import FrontDiagram, invariants, parse_front, stabilize_diagram
from legknot.lattice import INF, ONE, ZERO, mediant, parse_slope
from legknot.transversal import parse_cables

FUZZ = settings(database=None, derandomize=True, deadline=None)

_ints = st.integers(min_value=-12, max_value=12).map(str)
_junk = st.text(alphabet="0123456789-+/x:,;c .#\nLRXIinf", max_size=12)
_numbers = st.one_of(_ints, _junk, st.sampled_from(
    ["", " ", "1" * 5000, "-0", "+3", "٣", "1_0", "-١٢", "３", "²", " 7 ", "--1"]
))
_DECIMAL = re.compile(r"-?[0-9]+")


def _is_decimal(text):
    return _DECIMAL.fullmatch(text.strip()) is not None


@FUZZ
@given(st.one_of(_numbers, st.text(max_size=8)))
def test_decimal(text):
    try:
        value = decimal(text)
    except ValueError:
        assert not _is_decimal(text) or len(text.strip().lstrip("-")) > 4300
        return
    assert _is_decimal(text) and value == int(text)


@pytest.mark.parametrize("parse, text", [
    (parse_knot, "torus:-٧,٣"),
    (parse_knot, "torus:+7,3"),
    (parse_knot, "torus:-7_0,3"),
    (parse_slope, "١/٢"),
    (parse_slope, "+1"),
    (parse_slope, "1/1_0"),
    (make_config, "III:١,٢,inf"),
    (make_config, "I:infx٣+1c"),
    (parse_front, "L ١\nR ١\n"),
    (parse_front, "L +1\nR 1\n"),
    (parse_cables, "٣,٢"),
    (parse_cables, "3,+2"),
])
def test_integers_outside_the_grammar_rejected(parse, text):
    with pytest.raises(LegknotError):
        parse(text)


@st.composite
def _event_words(draw):
    """Event words within the level bounds, a quarter of them with one line
    replaced by junk, an out-of-range level or nothing."""
    lines, n = [], 0
    while not lines or n and len(lines) < 40:
        kind = draw(st.sampled_from(["L", "R", "X", "X"] if n >= 2 else ["L"]))
        level = draw(st.integers(1, n + 1 if kind == "L" else n - 1))
        n += 2 if kind == "L" else -2 if kind == "R" else 0
        lines.append("%s %d" % (kind, level))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.one_of(
            _junk, st.just(""), st.integers(-1, 2 * len(lines)).map("X %d".__mod__)
        ))
    return "\n".join(lines) + "\n"


_fronts = st.one_of(_event_words(), st.text(max_size=40))
_front_bytes = st.one_of(
    _event_words().map(str.encode),
    st.binary(max_size=40),
    st.tuples(_event_words(), st.binary(max_size=3)).map(lambda t: t[0].encode() + t[1]),
)


# (sign, gap, level) stabilization hints, in and out of range
_hints = st.tuples(st.sampled_from(Sign), st.integers(-1, 12), st.integers(0, 4))


def _check_front(data, hint):
    try:
        d = parse_front(data)
    except LegknotError:
        return
    text = data.decode() if isinstance(data, bytes) else data
    body = [line.split("#", 1)[0].split() for line in text.splitlines()]
    assert all(_is_decimal(words[1]) for words in body if words)
    inv = invariants(d)
    assert inv.tb == inv.writhe - inv.right_cusps
    assert inv.down_cusps + inv.up_cusps == 2 * inv.right_cusps  # as many left cusps
    rev = invariants(d, reverse_orientation=True)
    assert (rev.tb, rev.rot) == (inv.tb, -inv.rot)
    sign, gap, level = hint
    try:
        s = stabilize_diagram(d, sign, gap, level)
    except NoSuchStrand:
        assert not (0 <= gap <= len(d.events) and 1 <= level <= strand_profile(d)[gap])
        return
    got = invariants(s)
    assert len(s.events) == len(d.events) + 2
    assert (got.tb, got.rot) == (inv.tb - 1, inv.rot + sign.value)


@FUZZ
@given(_fronts, _hints)
def test_parse_front_text(text, hint):
    _check_front(text, hint)


@FUZZ
@given(_front_bytes, _hints)
def test_parse_front_bytes(data, hint):
    _check_front(data, hint)


@FUZZ
@given(st.sampled_from([TREFOIL_WORD, RIGHT_TREFOIL_PEAK_WORD]), st.data())
def test_stabilization_chain_matches_full_builds(word, data):
    d = parse_front(word)
    colorings = three_colorings(d)
    for _ in range(data.draw(st.integers(1, 40))):
        profile = strand_profile(d)
        gap = data.draw(st.sampled_from([g for g, n in enumerate(profile) if n]))
        level = data.draw(st.integers(1, profile[gap]))
        d = stabilize_diagram(d, data.draw(st.sampled_from(Sign)), gap, level)
        assert front_state(d) == front_state(FrontDiagram(d.events))
        assert invariants(d) == traced_invariants(d)
        # traced from the spliced event word alone, so a zigzag that changed
        # the knot would change the count
        assert three_colorings(d) == colorings


@st.composite
def _farey_triangles(draw, max_depth=12):
    """A triangle of the tessellation: a base triangle, then up to
    max_depth times one edge kept and the mediant of its ends added."""
    tri = draw(st.sampled_from([(ZERO, ONE, INF), (parse_slope("-1"), ZERO, INF)]))
    for drop in draw(st.lists(st.integers(0, 2), max_size=max_depth)):
        j, k = [tri[i] for i in range(3) if i != drop]
        tri = (j, k, mediant(j, k))
    return tri


@FUZZ
@given(_farey_triangles(), st.integers(-200, 200))
def test_normalize_matches_the_plain_walk(tri, shift):
    c = monodromy_config(type_iii(tri, (1, 1, 1)), shift)
    out = normalize(c)
    end, trace = plain_walk(c)
    assert (out.trace, out.steps) == (trace, len(trace))
    tight = out.kind is OutcomeKind.STANDARD_TIGHT
    assert same_orbit(end, TIGHT_TRIANGLE if tight else OVERTWISTED_TRIANGLE)


@FUZZ
@given(_farey_triangles(), st.integers(-200, 200), st.booleans())
def test_trace_triples_span_farey_triangles(tri, shift, one_class):
    c = monodromy_config(type_i(tri[2], 3, 1) if one_class else type_iii(tri, (1, 1, 1)), shift)
    out = normalize(c)
    for tag, _, after in trace_moves(out.trace):
        assert spans_farey_triangle(after), (tag, after)
    assert (out.kind is OutcomeKind.STANDARD_TIGHT) == tight_by_representative(c.slopes)


_slopes = st.one_of(
    _numbers,
    st.sampled_from(["inf", "0", "1", "2", "1/2", "-1", "1/0", "0/0", "2/4"]),
    st.tuples(_ints, _ints).map("/".join),
)
_classes = st.tuples(_slopes, st.one_of(st.just(""), _numbers.map("x".__add__))).map(
    "".join
)
_configs = st.one_of(
    st.text(max_size=30),
    st.tuples(
        st.sampled_from(["I", "II", "III", "IV", ""]),
        st.lists(_classes, min_size=1, max_size=4).map(",".join),
        st.one_of(st.just(""), _numbers.map(lambda t: "+%sc" % t), _junk),
    ).map(lambda t: "%s:%s%s" % t),
)


def _only_legknot_errors(parse, text):
    try:
        parse(text)
    except LegknotError:
        pass


def _only_decimals_accepted(parse, text, tokens):
    """A parse of text that succeeds read every integer token as ASCII decimal."""
    try:
        parse(text)
    except LegknotError:
        return
    assert all(_is_decimal(t) for t in tokens), text


@FUZZ
@given(_configs)
def test_make_config(spec):
    _only_legknot_errors(make_config, spec)


@FUZZ
@given(st.one_of(
    st.text(max_size=20),
    st.tuples(_numbers, _numbers).map(lambda t: "torus:%s,%s" % t),
    st.sampled_from(["unknot", "fig8", " fig8 ", "torus:", "torus:3", "torus:3,2,1"]),
))
def test_parse_knot(text):
    _only_legknot_errors(parse_knot, text)
    if text.startswith("torus:") and text.count(",") == 1:
        _only_decimals_accepted(parse_knot, text, text[len("torus:"):].split(","))


@FUZZ
@given(st.one_of(st.text(max_size=20), _slopes))
def test_parse_slope(text):
    _only_legknot_errors(parse_slope, text)
    if text.strip() != "inf":
        _only_decimals_accepted(parse_slope, text, text.split("/"))


@FUZZ
@given(st.one_of(
    st.text(max_size=20),
    st.lists(st.tuples(_numbers, _numbers).map(",".join), min_size=1, max_size=3).map(
        ";".join
    ),
))
def test_parse_cables(text):
    _only_legknot_errors(parse_cables, text)
    _only_decimals_accepted(parse_cables, text, re.split("[,;]", text))
