import random

import pytest

from helpers import (
    RIGHT_TREFOIL_PEAK_WORD,
    STABILIZED_UNKNOT_WORD,
    TREFOIL_WORD,
    front_state,
    random_hints,
    random_valid_diagrams,
    strand_profile,
    three_colorings,
    traced_invariants,
)
from legknot.classify import Sign, torus, unknot
from legknot.errors import FrontSyntaxError, MultiComponent, NoSuchStrand
from legknot.front import (
    FrontDiagram,
    FrontEvent,
    FrontInvariants,
    bennequin_compatible,
    invariants,
    parse_front,
    stabilize_diagram,
    writhe,
)


class TestParsing:
    def test_minimal_unknot(self):
        d = parse_front("L 1\nR 1")
        assert len(d.events) == 2

    def test_comments_blanks_and_bytes(self):
        d = parse_front(b"# flying saucer\n\nL 1\n  R 1  # close\n")
        assert len(d.events) == 2

    def test_single_component_tracing(self):
        d = parse_front("L 1\nL 2\nR 1\nR 1")
        assert len(d.events) == 4

    def test_two_components_rejected(self):
        with pytest.raises(MultiComponent):
            parse_front("L 1\nL 2\nR 2\nR 1")

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(FrontSyntaxError):
            parse_front(b"L 1\n\xff\nR 1\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(FrontSyntaxError) as err:
            parse_front("L 1\nQ 2\nR 1")
        assert err.value.line == 2

    def test_error_after_repeated_lines_carries_its_line(self):
        with pytest.raises(FrontSyntaxError) as err:
            parse_front("L 1\n" * 500 + "Q 2\n")
        assert err.value.line == 501

    def test_repeated_bad_line_reports_the_first(self):
        with pytest.raises(FrontSyntaxError) as err:
            parse_front("L 1\nL 1\nX 0\nR 1\nX 0\nR 1\n")
        assert err.value.line == 3

    def test_repeated_blanks_and_comments_skipped(self):
        text = "# c\nL 1\n\n# c\nL 2\n\n  \nR 1\n# c\n  \nR 1\n"
        assert parse_front(text).events == parse_front(STABILIZED_UNKNOT_WORD).events

    def test_events_match_a_parse_per_line(self):
        for d in random_valid_diagrams(60):
            text = "".join("%s %d\n" % (ev.kind, ev.level) for ev in d.events)
            expected = tuple(FrontEvent(kind, int(level))
                             for kind, level in map(str.split, text.splitlines()))
            assert parse_front(text).events == expected

    def test_level_out_of_bounds(self):
        with pytest.raises(FrontSyntaxError):
            parse_front("L 3\nR 1")
        with pytest.raises(FrontSyntaxError):
            parse_front("L 1\nX 2\nR 1")  # crossing level bounded by 1..n-1

    def test_kink_word_is_valid(self):
        inv = invariants(parse_front("L 1\nX 1\nR 1"))
        assert inv.tb == inv.writhe - 1

    @pytest.mark.parametrize("text, message", [
        ("R 1\n", "R level 1 with 0 strands alive"),
        ("X 1\n", "X level 1 with 0 strands alive"),
        ("L 1\nR 1\nR 1\n", "R level 1 with 0 strands alive"),
        ("L 1\nR 1\nX 1\n", "X level 1 with 0 strands alive"),
        ("L 1\nR 2\n", "R level 2 out of range 1..1"),
        ("L 1\nX 2\nR 1\n", "X level 2 out of range 1..1"),
    ])
    def test_two_strand_event_out_of_range_message(self, text, message):
        # strands open and close in pairs, so 0 is the only count below 2
        with pytest.raises(FrontSyntaxError) as err:
            parse_front(text)
        assert str(err.value) == message

    def test_unknown_event_kind(self):
        with pytest.raises(FrontSyntaxError, match="unknown event kind 'Q'"):
            FrontDiagram([FrontEvent("Q", 1)])

    def test_unclosed_diagram(self):
        with pytest.raises(FrontSyntaxError):
            parse_front("L 1\nL 1")
        with pytest.raises(FrontSyntaxError):
            parse_front("")


class TestInvariants:
    def test_trace_oracle_on_reference_fronts(self):
        # (writhe, right cusps, down, up, tb, rot) counted by the walk alone
        expected = {
            RIGHT_TREFOIL_PEAK_WORD: (3, 2, 2, 2, 1, 0),
            STABILIZED_UNKNOT_WORD: (0, 2, 1, 3, -2, -1),
            TREFOIL_WORD: (-3, 3, 4, 2, -6, 1),
        }
        for word, counts in expected.items():
            assert traced_invariants(parse_front(word)) == FrontInvariants(*counts)

    def test_maximal_unknot(self):
        inv = invariants(parse_front("L 1\nR 1"))
        assert (inv.tb, inv.rot) == (-1, 0)

    def test_stabilized_unknot(self):
        inv = invariants(parse_front(STABILIZED_UNKNOT_WORD))
        assert (inv.tb, inv.rot) == (-2, -1)

    def test_right_trefoil_peak(self):
        inv = invariants(parse_front(RIGHT_TREFOIL_PEAK_WORD))
        assert (inv.tb, inv.rot) == (1, 0)
        assert inv.writhe == 3

    def test_left_trefoil(self):
        d = parse_front(TREFOIL_WORD)
        inv = invariants(d)
        assert (inv.tb, inv.rot) == (-6, 1)
        # independent identification: 3 crossings and 9 Fox 3-colorings
        # single out the trefoil among <=3-crossing knots
        assert three_colorings(d) == 9

    def test_writhe_calibration_and_mirror(self):
        assert writhe(parse_front(RIGHT_TREFOIL_PEAK_WORD)) == 3
        mirror = parse_front("L 1\nL 2\nX 2\nX 2\nX 2\nR 1\nR 1")
        assert writhe(mirror) == -3

    def test_orientation_reversal(self):
        for word in (STABILIZED_UNKNOT_WORD, TREFOIL_WORD, RIGHT_TREFOIL_PEAK_WORD):
            d = parse_front(word)
            fwd = invariants(d)
            rev = invariants(d, reverse_orientation=True)
            assert (fwd.tb, fwd.writhe) == (rev.tb, rev.writhe)
            assert fwd.rot == -rev.rot

    def test_structural_identities(self):
        for d in random_valid_diagrams(40):
            inv = invariants(d)
            assert inv == traced_invariants(d)
            assert (inv.tb + inv.rot) % 2 == 1
            assert inv.down_cusps + inv.up_cusps == 2 * inv.right_cusps
            left = sum(1 for e in d.events if e.kind == "L")
            assert left == inv.right_cusps
            assert inv.tb == inv.writhe - inv.right_cusps
            assert 2 * inv.rot == inv.down_cusps - inv.up_cusps


class TestStabilization:
    def test_negative_on_maximal_unknot(self):
        d = stabilize_diagram(parse_front("L 1\nR 1"), Sign.MINUS, 1, 1)
        inv = invariants(d)
        assert (inv.tb, inv.rot) == (-2, -1)

    def test_positive_on_trefoil_peak(self):
        d = stabilize_diagram(parse_front(RIGHT_TREFOIL_PEAK_WORD), Sign.PLUS, 1, 1)
        inv = invariants(d)
        assert (inv.tb, inv.rot) == (0, 1)

    def test_commutation_and_deltas(self):
        rng = random.Random(7)
        for d in random_valid_diagrams(25, seed=99):
            base = invariants(d)
            gap, level = random_hints(d, rng)
            plus = stabilize_diagram(d, Sign.PLUS, gap, level)
            minus = stabilize_diagram(d, Sign.MINUS, gap, level)
            assert invariants(plus).tb == base.tb - 1
            assert invariants(plus).rot == base.rot + 1
            assert invariants(minus).rot == base.rot - 1
            pm = invariants(stabilize_diagram(plus, Sign.MINUS, *random_hints(plus, rng)))
            mp = invariants(stabilize_diagram(minus, Sign.PLUS, *random_hints(minus, rng)))
            assert (pm.tb, pm.rot) == (mp.tb, mp.rot) == (base.tb - 2, base.rot)

    def test_every_hint_and_sign(self):
        for d in random_valid_diagrams(40):
            base = invariants(d)
            for gap, n in enumerate(strand_profile(d)):
                for level in range(1, n + 1):
                    for sign in Sign:
                        s = stabilize_diagram(d, sign, gap, level)
                        assert len(s.events) == len(d.events) + 2
                        inv = invariants(s)
                        assert inv == traced_invariants(s)
                        assert (inv.tb, inv.rot) == (base.tb - 1, base.rot + sign.value)
                        rev = invariants(s, reverse_orientation=True)
                        assert rev.rot == -inv.rot

    def test_splices_without_a_build(self, monkeypatch):
        diagrams = random_valid_diagrams(40)
        builds = []
        build = FrontDiagram._build
        monkeypatch.setattr(FrontDiagram, "_build", lambda self: builds.append(self) or build(self))
        for d in diagrams:
            for gap, n in enumerate(strand_profile(d)):
                for level in range(1, n + 1):
                    for sign in Sign:
                        builds.clear()
                        s = stabilize_diagram(d, sign, gap, level)
                        assert not builds
                        # the full build is the reference for every stored array
                        assert front_state(s) == front_state(FrontDiagram(s.events))

    def test_bad_hints(self):
        d = parse_front("L 1\nR 1")
        with pytest.raises(NoSuchStrand):
            stabilize_diagram(d, Sign.PLUS, 0, 1)  # no strands before first event
        with pytest.raises(NoSuchStrand):
            stabilize_diagram(d, Sign.PLUS, 1, 3)
        with pytest.raises(NoSuchStrand):
            stabilize_diagram(d, Sign.PLUS, 9, 1)


class TestBennequinCheck:
    def test_trefoil_against_its_type(self):
        inv = invariants(parse_front(TREFOIL_WORD))
        assert bennequin_compatible(inv, torus(-3, 2))

    def test_peak_word_cannot_be_an_unknot(self):
        inv = invariants(parse_front(RIGHT_TREFOIL_PEAK_WORD))
        assert not bennequin_compatible(inv, unknot())

    def test_events_render(self):
        assert str(FrontEvent("L", 2)) == "L 2"
        d = FrontDiagram([FrontEvent("L", 1), FrontEvent("R", 1)])
        assert invariants(d).tb == -1
