import random

import pytest

from helpers import (
    COLLAPSE,
    HUGE_COUNT_SPECS,
    OVERTWISTED_TRIANGLE,
    TIGHT_TRIANGLE,
    _step,
    farey_triangles_to_depth,
    fixed_side,
    mapped_trace,
    plain_walk,
    same_orbit,
    spans_farey_triangle,
    stepwise_window,
    sum_vertex,
    sum_vertex_flip,
    tight_by_representative,
    trace_moves,
    transitions,
)
from legknot import bypass, cli, lattice
from legknot.bypass import (
    ConfigKind,
    MoveTag,
    NormalizationOutcome,
    OutcomeKind,
    make_config,
    monodromy_config,
    normalize,
    type_i,
    type_ii,
    type_iii,
)
from legknot.errors import (
    NonTermination,
    NotAnEdge,
    NotATriangle,
    ParityError,
    TaxonomyError,
    Unsupported,
)
from legknot.lattice import INF, ONE, ZERO, mediant, parse_slope


def S(text):
    return parse_slope(text)


TIGHT = "III:1,2,inf"
OVERTWISTED = "III:0,1,inf"


class TestConstruction:
    def test_valid_triangle(self):
        c = make_config("III:1x1,2x1,infx1")
        assert c.kind is ConfigKind.III
        assert c == make_config(TIGHT)

    def test_not_a_triangle(self):
        with pytest.raises(NotATriangle):
            make_config("III:1/3,2/3,inf")
        with pytest.raises(NotATriangle):
            make_config("III:1,1,2")  # slopes must be distinct

    def test_parity_rules(self):
        with pytest.raises(ParityError):
            type_iii((S("1"), S("2"), S("inf")), (1, 2, 1))
        with pytest.raises(ParityError):
            type_ii((S("1"), S("inf")), (2, 3))
        with pytest.raises(ParityError):
            type_i(S("inf"), 4, 1)
        with pytest.raises(ParityError):
            type_i(S("inf"), 3, 2)  # arcs + closed must be even
        for spec in ("III:1x0,2x2,infx2", "III:1x-1,2,inf"):  # multiplicities are positive
            with pytest.raises(ParityError):
                make_config(spec)

    def test_taxonomy_rules(self):
        with pytest.raises(TaxonomyError):
            type_i(S("inf"), 3, 0)
        with pytest.raises(NotAnEdge):
            type_ii((S("1/3"), S("2/3")), (2, 2))
        with pytest.raises(NotAnEdge):
            make_config("II:1x2,1x2")  # the two classes must be distinct
        with pytest.raises(TaxonomyError):
            make_config("IV:1,2")
        with pytest.raises(TaxonomyError):
            make_config("I:infx5+xc")  # closed count is not an integer
        with pytest.raises(TaxonomyError):
            make_config("III:1x,2,inf")  # empty multiplicity after 'x'
        with pytest.raises(TaxonomyError):
            make_config("I:1x3+2")  # closed count without its 'c'
        for spec in HUGE_COUNT_SPECS:
            with pytest.raises(TaxonomyError):
                make_config(spec)

    def test_spec_strings(self):
        assert make_config("I:infx5+1c").arcs() == 5
        assert make_config("II:1x2,infx2").arcs() == 4
        assert str(make_config("I:infx5+1c")) == "I:infx5+1c"
        assert str(make_config(TIGHT)) == "III:1x1,2x1,infx1"

    def test_direct_construction_is_sorted(self):
        c = bypass.DividingConfig(ConfigKind.III, (INF, ONE, lattice.Slope(2, 1)), (3, 1, 1))
        assert c == make_config("III:1x1,2x1,infx3")
        assert str(c) == "III:1x1,2x1,infx3"


class TestMonodromyAction:
    def test_quoted_orbit_values(self):
        shifted = monodromy_config(make_config(TIGHT), 1)
        assert {str(s) for s in shifted.slopes} == {"2/3", "3/4", "1"}
        shifted_ot = monodromy_config(make_config(OVERTWISTED), 1)
        assert {str(s) for s in shifted_ot.slopes} == {"1/2", "2/3", "1"}

    def test_inverse(self):
        for spec in (TIGHT, OVERTWISTED, "I:infx5+1c", "II:1x2,infx2"):
            c = make_config(spec)
            for k in (-3, -1, 1, 2):
                assert monodromy_config(monodromy_config(c, k), -k) == c


def _first_moves(monkeypatch):
    """Record every representative normalize moves from."""
    moved, first_move = [], bypass._first_move
    monkeypatch.setattr(bypass, "_first_move", lambda rep: moved.append(rep) or first_move(rep))
    return moved


class TestMoves:
    """The moves normalize takes, against the bypass moves that
    helpers.transitions lists from its own pieces."""

    def test_terminal_states_have_no_moves(self, monkeypatch):
        moved = _first_moves(monkeypatch)
        for spec in (TIGHT, OVERTWISTED):
            for k in (0, 1, -2, 7):
                c = monodromy_config(make_config(spec), k)
                assert transitions(c.slopes) == []
                assert normalize(c).trace == ()
        assert moved == []

    def test_case_one_moves(self):
        c = make_config("III:3,7/2,4")
        tags = {tag for tag, _ in transitions(c.slopes)}
        assert tags == {COLLAPSE, MoveTag.SECOND_KIND.value}
        assert normalize(c).trace[0] == "SecondKind 3,7/2,4->3,4,inf"

    def test_collapse_and_expand(self):
        # the collapse above the fixed slope, then the expansion it allows
        c = make_config("III:3,7/2,4")
        assert (COLLAPSE, (S("3"),)) in transitions(c.slopes)
        assert transitions((S("3"),)) == [(MoveTag.EXPAND_FROM_I.value, (S("2"), S("3"), INF))]
        assert normalize(make_config("I:3x3+1c")).trace[0] == "ExpandFromI 3->2,3,inf"

    def test_gateway_case_three(self):
        c = make_config("III:0,1/2,1")
        step = ("CaseThreeB", (S("1/2"), S("2/3"), ONE))
        assert transitions(c.slopes) == [step]
        assert normalize(c).trace == ("CaseThreeB 0,1/2,1->1/2,2/3,1",)

    def test_straddling_triangles_take_the_gateway_move(self):
        # triangles in [0, inf] with slopes on both sides of the fixed slope
        straddling = [
            tri for tri in farey_triangles_to_depth(10)
            if all(s.num >= 0 for s in tri) and len({fixed_side(s) for s in tri}) == 2
        ]
        assert len(straddling) >= 10
        for tri in straddling:
            out = normalize(type_iii(tri, (1, 1, 1)))
            if same_orbit(tri, OVERTWISTED_TRIANGLE):
                assert out.trace == ()
                continue
            ((tag, _, after),) = trace_moves(out.trace)
            assert tag == "CaseThreeB"
            assert same_orbit([S(t) for t in after], OVERTWISTED_TRIANGLE)

    def test_no_transition_where_none_is_listed(self, monkeypatch):
        # one arc class with extra closed curves takes no bypass before it
        # drops to one closed curve; two arc classes take none at all
        for spec in ("I:1x3+3c", "I:infx3+5c", "I:1/2x3+3c"):
            c = make_config(spec)
            out = normalize(c)
            assert out.trace[0] == "ReduceClosed %dc->1c" % c.closed
            assert out.trace[1:] == normalize(type_i(c.slopes[0], 3, 1)).trace
            assert out.trace[1].startswith("ExpandFromI ")
        moved = _first_moves(monkeypatch)
        out = normalize(make_config("II:1x2,infx2"))
        assert out.kind is OutcomeKind.DESTABILIZES and moved == []

    def test_arc_conservation(self):
        # every bypass, the collapse too, keeps three arcs: one class of
        # three, or a triangle of three classes
        for tri in farey_triangles_to_depth(3):
            for tag, result in transitions(tuple(sorted(tri))):
                assert len(result) == 1 or spans_farey_triangle(map(str, result)), (tri, tag)

    def test_monodromy_equivariance(self):
        # the trace of M^k(c) is the trace of c with every slope mapped by M^k
        starts = [type_iii(tri, (1, 1, 1)) for tri in farey_triangles_to_depth(3)]
        starts += [make_config(spec) for spec in ("I:3x3+1c", "I:2/5x3+3c", "I:infx3+1c")]
        for c in starts:
            trace = normalize(c).trace
            for k in (-2, 1, 3):
                assert normalize(monodromy_config(c, k)).trace == mapped_trace(trace, k), (c, k)

    @pytest.mark.parametrize("k", [150, -150])
    def test_moves_map_back_with_one_matrix(self, monkeypatch, k):
        c = monodromy_config(make_config("III:5/3,7/4,2"), k)
        expected = normalize(c)
        calls = []
        plain = lattice.monodromy_matrix

        def counting(k=1):
            calls.append(k)
            return plain(k)

        monkeypatch.setattr(lattice, "monodromy_matrix", counting)
        monkeypatch.setattr(bypass, "monodromy_matrix", counting)
        assert normalize(c) == expected and expected.steps == 3
        # 15 window tests reach M^-k, then one M^k maps every move back
        assert calls.count(k) == 1 and len(calls) <= 16


class TestNormalize:
    def test_standard_tight(self):
        out = normalize(make_config(TIGHT))
        assert out.kind is OutcomeKind.STANDARD_TIGHT
        assert out.trace == () and out.steps == 0

    def test_overtwisted(self):
        out = normalize(make_config(OVERTWISTED))
        assert out.kind is OutcomeKind.OVERTWISTED
        assert out.trace == ()

    def test_shifted_starts(self):
        assert normalize(monodromy_config(make_config(TIGHT), 3)).kind is OutcomeKind.STANDARD_TIGHT
        assert normalize(monodromy_config(make_config(OVERTWISTED), -2)).kind is OutcomeKind.OVERTWISTED
        # 201 monodromy steps are needed to bring this start back into [0, inf]
        assert normalize(monodromy_config(make_config(TIGHT), -201)).kind is OutcomeKind.STANDARD_TIGHT

    def test_above_staircase_trace(self):
        out = normalize(make_config("III:5/3,7/4,2"))
        assert out.kind is OutcomeKind.STANDARD_TIGHT
        assert out.steps == 3
        assert out.trace[-1].endswith("->1,2,inf")

    def test_below_side_goes_overtwisted(self):
        out = normalize(make_config("III:1/4,2/7,1/3"))
        assert out.kind is OutcomeKind.OVERTWISTED
        assert any("CaseThreeB" in line for line in out.trace)

    def test_one_class_starts(self):
        assert normalize(make_config("I:1x3+1c")).kind is OutcomeKind.STANDARD_TIGHT
        assert normalize(make_config("I:infx3+1c")).kind is OutcomeKind.STANDARD_TIGHT
        assert normalize(make_config("I:0x3+1c")).kind is OutcomeKind.OVERTWISTED
        assert normalize(make_config("I:1/2x3+1c")).kind is OutcomeKind.OVERTWISTED
        # 1/2 = M(0) and 1 = M(inf) walk like 0 and inf, mapped by M
        for spec, image in (("I:0x3+1c", "I:1/2x3+1c"), ("I:infx3+1c", "I:1x3+1c")):
            out, shifted = normalize(make_config(spec)), normalize(make_config(image))
            assert out.steps == shifted.steps == 1
            ((_, result),) = transitions(make_config(spec).slopes)
            walk = sorted(_step(s, 1) for s in result)
            assert shifted.trace[0].endswith("->" + ",".join(map(str, walk)))

    def test_closed_curves_absorbed(self):
        out = normalize(make_config("I:1x3+3c"))
        assert out.kind is OutcomeKind.STANDARD_TIGHT
        assert out.trace[0].startswith("ReduceClosed")

    def test_more_than_three_arcs_destabilizes(self):
        assert normalize(make_config("II:1x2,infx2")).kind is OutcomeKind.DESTABILIZES
        assert normalize(make_config("I:infx5+1c")).kind is OutcomeKind.DESTABILIZES
        assert normalize(make_config("III:1x1,2x1,infx3")).kind is OutcomeKind.DESTABILIZES

    def test_one_arc_unsupported(self):
        with pytest.raises(Unsupported):
            normalize(make_config("I:infx1+1c"))

    def test_step_limit_raises(self):
        with pytest.raises(NonTermination):
            normalize(make_config("III:1/4,2/7,1/3"), step_limit=2)

    def test_step_limit_allows_exactly_that_many_moves(self):
        starts = [make_config(spec) for spec in (
            "III:1,2,inf", "III:0,1,inf", "III:5/3,7/4,2", "III:1/4,2/7,1/3",
            "III:0,1/2,1", "III:-2,-3/2,-1", "I:3x3+1c", "I:3x3+3c",
            "II:1x2,infx2", "I:infx5+1c",
        )]
        rng = random.Random(20000611)
        for tri in rng.sample(farey_triangles_to_depth(8), 40):
            starts.append(monodromy_config(type_iii(tri, (1, 1, 1)), rng.randint(-3, 3)))
        for c in starts:
            steps = normalize(c).steps
            assert normalize(c, steps).steps == steps
            if steps:
                with pytest.raises(NonTermination):
                    normalize(c, steps - 1)

    def test_shifted_start_finds_its_frame_once(self, monkeypatch):
        # a triangle 20 mediants below the edge {1, inf}, above the fixed slope
        low, high = S("1"), S("inf")
        for i in range(20):
            low, high = (low, mediant(low, high)) if i % 2 else (mediant(low, high), high)
        c = type_iii((low, high, mediant(low, high)), (1, 1, 1))
        calls = []

        def counting(fn):
            return lambda *args: calls.append(args) or fn(*args)

        # every monodromy power bypass evaluates goes through one of these
        monkeypatch.setattr(lattice, "monodromy_matrix", counting(lattice.monodromy_matrix))
        monkeypatch.setattr(bypass, "monodromy_matrix", counting(bypass.monodromy_matrix))
        plain = normalize(c)
        unshifted = len(calls)
        for shift in (150, -150, 10**4, -(10**4)):
            start = monodromy_config(c, shift)
            calls.clear()
            out = normalize(start)
            assert out.kind is plain.kind and out.steps == plain.steps
            # doubling and bisecting take about 2 log2 |shift| window tests,
            # one matrix each; a step-by-step search took 3 |shift| calls
            assert len(calls) - unshifted <= 2 * abs(shift).bit_length()

    def test_negative_step_limit_unsupported(self):
        with pytest.raises(Unsupported):
            normalize(make_config(TIGHT), step_limit=-1)

    def test_deterministic_trace(self):
        a = normalize(make_config("III:5/3,7/4,2"))
        b = normalize(make_config("III:5/3,7/4,2"))
        assert a == b == NormalizationOutcome(a.kind, a.trace, a.steps)


def _starts():
    """Triangles to depth 8 on both sides of 0, and one arc class with 1 and
    3 closed curves on the slopes of the triangles to depth 6, under
    shifts cycling through -3..3; then far shifts: 100 triangles to depth
    10 under shifts +-100 and +-150, the same one-class slopes under
    shifts cycling through -20..20, and three starts whose back-maps carry
    a slope across inf, which reorders the sorted slopes of a trace line."""
    starts = [
        monodromy_config(type_iii(tri, (1, 1, 1)), i % 7 - 3)
        for i, tri in enumerate(farey_triangles_to_depth(8))
    ]
    slopes = sorted({s for tri in farey_triangles_to_depth(6) for s in tri})
    starts += [
        monodromy_config(type_i(s, 3, closed), i % 7 - 3)
        for i, s in enumerate(slopes)
        for closed in (1, 3)
    ]
    rng = random.Random(20000611)
    for tri in rng.sample(farey_triangles_to_depth(10), 100):
        starts += [monodromy_config(type_iii(tri, (1, 1, 1)), k) for k in (100, -100, 150, -150)]
    starts += [
        monodromy_config(type_i(s, 3, closed), (2 * i + closed) % 41 - 20)
        for i, s in enumerate(slopes)
        for closed in (1, 3)
    ]
    starts += [make_config(spec) for spec in (
        "III:-8/5,-5/3,-3/2", "III:inf,-3,-4", "III:-377/233,-233/144,-144/89",
    )]
    return starts


class TestMoveCount:
    def test_count_equals_the_plain_walk(self):
        starts = _starts()
        assert len(starts) >= 1000
        assert any(s.num < 0 for c in starts for s in c.slopes)
        for c in starts:
            out = normalize(c)
            end, trace = plain_walk(c)
            assert (out.trace, out.steps) == (trace, len(trace)), c
            tight = out.kind is OutcomeKind.STANDARD_TIGHT
            assert same_orbit(end, TIGHT_TRIANGLE if tight else OVERTWISTED_TRIANGLE), c

    def test_one_window_for_every_shift(self):
        for c in _starts():
            shift, rep = bypass._canonical(c.slopes)
            for k in range(-5, 6):
                assert bypass._canonical(monodromy_config(c, k).slopes) == (shift - k, rep), (c, k)
            # the window of the three sides of the fixed slope
            sides = {fixed_side(s) for s in rep}
            if sides == {1}:
                assert rep[0] >= ONE
            elif sides == {-1}:
                assert rep[-1] <= S("1/2")
            else:
                assert rep[0] == ZERO

    def test_search_finds_the_stepwise_window(self):
        rng = random.Random(20000611)
        triangles = farey_triangles_to_depth(8)
        assert len(triangles) > 700
        starts = [type_iii(tri, (1, 1, 1)) for tri in triangles]
        # one arc class: the slopes to depth 6, and M^k(0), M^k(inf) for
        # k = 1..6, which start at 1/2 = M(0) and 1 = M(inf)
        slopes = {s for tri in farey_triangles_to_depth(6) for s in tri}
        slopes |= {_step(s, k) for s in (ZERO, INF) for k in range(1, 7)}
        assert {S("1/2"), ONE} <= slopes
        starts += [type_i(s, 3, 1) for s in sorted(slopes)]
        for c in starts:
            for k in (0, rng.randint(-300, 300), rng.randint(-12, 15)):
                shifted = monodromy_config(c, k)
                assert bypass._canonical(shifted.slopes) == stepwise_window(shifted.slopes), (c, k)

    def test_flip_tags_by_denominators(self):
        reps = {
            bypass._canonical(monodromy_config(type_iii(tri, (1, 1, 1)), k).slopes)[1]
            for tri in farey_triangles_to_depth(9)
            for k in range(-5, 6)
        }
        flipped = [rep for rep in reps if rep[0] >= ONE or rep[-1] <= S("1/2")]
        assert len(flipped) > 1000
        for rep in flipped:
            tri, tag = sum_vertex_flip(rep)
            assert bypass._flip(rep) == (tag, tuple(sorted(tri))), rep
        tags = {bypass._flip(rep)[0] for rep in flipped}
        assert tags == {MoveTag.FIRST_KIND, MoveTag.SECOND_KIND}

    def test_expand_gives_the_parents(self):
        positive = [tri for tri in farey_triangles_to_depth(9)
                    if all(s > ZERO for s in tri)]
        assert len(positive) > 1000
        for tri in positive:
            assert set(bypass._expand(sum_vertex(tri))) == set(tri), tri

    def test_refused_up_front_over_the_cap(self, monkeypatch):
        moved = _first_moves(monkeypatch)
        with pytest.raises(Unsupported, match="999999999 moves"):
            normalize(make_config("III:0,1/1000000000,1/999999999"))
        with pytest.raises(NonTermination):
            normalize(make_config("III:0,1/1000000000,1/999999999"), step_limit=10)
        with pytest.raises(NonTermination):
            normalize(make_config("III:1/4,2/7,1/3"), step_limit=3)
        assert moved == []

    def test_walk_off_its_count_is_a_bug(self, monkeypatch):
        c = make_config("III:5/3,7/4,2")  # three moves
        for wrong in (2, 4):
            monkeypatch.setattr(bypass, "_move_count", lambda rep: wrong)
            with pytest.raises(NonTermination, match="disagrees"):
                normalize(c)

    def test_cli_refusals_take_no_move(self, monkeypatch, capsys):
        searches, canonical = [], bypass._canonical
        monkeypatch.setattr(bypass, "_canonical", lambda c: searches.append(c) or canonical(c))
        moved = _first_moves(monkeypatch)
        assert cli.main(["bypass-normalize", "III:0,1/1000000000,1/999999999"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "999999999" in captured.err
        assert cli.main(["bypass-normalize", "III:1/4,2/7,1/3", "--step-limit", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        # each refusal searches the window once, for the count, and moves nowhere
        assert len(searches) == 2 and moved == []
        searches.clear()
        assert cli.main(["bypass-normalize", "III:0,1/1000,1/999"]) == 0
        assert "\nsteps=999\n" in capsys.readouterr().out
        # the window is searched once per walk, not once per move
        assert len(searches) <= 2 and len(moved) == 999


def _depth8_starts():
    """The Farey triangles to depth 8, and their slopes as one arc class
    with three arcs and one closed curve, each under shifts 0, 3, -5, 17."""
    triangles = farey_triangles_to_depth(8)
    slopes = sorted({s for tri in triangles for s in tri})
    bases = [type_iii(tri, (1, 1, 1)) for tri in triangles] + [type_i(s, 3, 1) for s in slopes]
    return [monodromy_config(c, k) for c in bases for k in (0, 3, -5, 17)]


class TestTraceTriangles:
    """normalize walks on bare slope triples; the tests check what the
    walk no longer checks at run time."""

    def test_every_trace_triple_spans_a_farey_triangle(self):
        starts = _depth8_starts()
        assert len(starts) > 4000
        for c in starts:
            moves = trace_moves(normalize(c).trace)
            for (_, _, after), (_, before, _) in zip(moves, moves[1:]):
                assert before == after, c
            for tag, _, after in moves:
                assert spans_farey_triangle(after), (c, tag, after)

    def test_verdict_reads_off_the_representative(self):
        # standard-tight exactly when the minimum of the representative is
        # at least 1, one arc class expanded first
        tight = 0
        for c in _depth8_starts():
            kind = normalize(c).kind
            assert (kind is OutcomeKind.STANDARD_TIGHT) == tight_by_representative(c.slopes), c
            tight += kind is OutcomeKind.STANDARD_TIGHT
        assert 1000 < tight < len(_depth8_starts()) - 1000


class TestFindDestabilization:
    """normalize finds the destabilization of every configuration with more
    than three arcs, and of no other."""

    def test_examples(self):
        for spec, line in (
            ("I:infx5+1c", "Destabilizing annulus=inf "
             "(nested bypasses on a one-class configuration with more than three arcs)"),
            ("II:1x2,infx2", "Destabilizing annulus=1 (two-class configurations destabilize)"),
            ("III:1x1,2x1,infx3", "Destabilizing annulus=1 "
             "(three-class configuration with more than three arcs)"),
        ):
            out = normalize(make_config(spec))
            assert out == NormalizationOutcome(OutcomeKind.DESTABILIZES, (line,), 1)

    def test_requires_more_than_three_arcs(self):
        assert normalize(make_config(TIGHT)).kind is not OutcomeKind.DESTABILIZES
