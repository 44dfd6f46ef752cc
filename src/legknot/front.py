"""Combinatorial front projections and their classical invariants.

A front is encoded as a word of Morse events read left to right, one per
line: ``L i`` opens a cusp whose two new strands take positions i, i+1
(1-based from the top), ``R i`` closes the strands at positions i, i+1
into a right cusp, and ``X i`` crosses the strands at positions i, i+1.
Fronts have no vertical tangencies, so this word determines the diagram;
crossings carry no over/under data because the resolution is forced
(the strand descending from position i to i+1 passes in front).

Invariants come from the projection combinatorics: tb is the writhe
minus the number of right cusps, and the rotation number is half the
downward-minus-upward cusp count for the stored orientation.  The
orientation is the one that traverses the lower branch of the first left
cusp moving rightward; a cusp entered on its upper branch and left on
its lower branch counts as downward.  Crossing signs are the product of
the two strands' horizontal directions, which calibrates the word
[L 1, L 1, X 2, X 2, X 2, R 1, R 1] to writhe +3 (the maximal
right-trefoil front, tb = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classify
from .errors import FrontSyntaxError, MultiComponent, NoSuchStrand

__all__ = [
    "FrontEvent",
    "FrontDiagram",
    "FrontInvariants",
    "parse_front",
    "writhe",
    "invariants",
    "stabilize_diagram",
    "bennequin_compatible",
]

_KINDS = ("L", "R", "X")


@dataclass(frozen=True)
class FrontEvent:
    kind: str  # "L" | "R" | "X"
    level: int  # 1-based strand position

    def __str__(self) -> str:
        return "%s %d" % (self.kind, self.level)


@dataclass
class _Strand:
    """A strand segment from its left cusp to its right cusp."""

    sid: int
    birth: int  # event index of the L event
    passages: list = field(default_factory=list)  # (event index, "over"/"under")
    death: int = -1


class FrontDiagram:
    """A validated single-component front.

    Construction simulates the event word, checks all level bounds,
    requires the strand count to close at zero, traces the knot to verify
    it has exactly one component, and stores the traversal orientation.
    Instances are immutable in use; build new diagrams instead of
    mutating.
    """

    def __init__(self, events):
        self.events = tuple(events)
        self._build()

    def _build(self) -> None:
        strands: list[_Strand] = []
        active: list[_Strand] = []
        left_pairs: dict[int, tuple[int, int]] = {}
        right_pairs: dict[int, tuple[int, int]] = {}
        crossings: list[tuple[int, int, int]] = []  # (event idx, over sid, under sid)

        for idx, ev in enumerate(self.events):
            n = len(active)
            if ev.kind == "L":
                if not 1 <= ev.level <= n + 1:
                    raise FrontSyntaxError(
                        "left cusp level %d out of range 1..%d" % (ev.level, n + 1)
                    )
                up = _Strand(len(strands), idx)
                low = _Strand(len(strands) + 1, idx)
                strands += [up, low]
                active[ev.level - 1:ev.level - 1] = [up, low]
                left_pairs[idx] = (up.sid, low.sid)
            elif ev.kind in ("R", "X"):
                if not 1 <= ev.level <= n - 1:
                    raise FrontSyntaxError(
                        "%s level %d out of range 1..%d" % (ev.kind, ev.level, n - 1)
                    )
                top, bottom = active[ev.level - 1], active[ev.level]
                if ev.kind == "R":
                    top.death = bottom.death = idx
                    right_pairs[idx] = (top.sid, bottom.sid)
                    del active[ev.level - 1:ev.level + 1]
                else:
                    # descending strand (from level i to i+1) is in front
                    top.passages.append((idx, "over"))
                    bottom.passages.append((idx, "under"))
                    crossings.append((idx, top.sid, bottom.sid))
                    active[ev.level - 1], active[ev.level] = bottom, top
            else:
                raise FrontSyntaxError("unknown event kind %r" % ev.kind)

        if active:
            raise FrontSyntaxError(
                "diagram does not close: %d strands remain" % len(active)
            )
        if not strands:
            raise FrontSyntaxError("empty diagram")

        self._strands = strands
        self._left_pairs = left_pairs
        self._right_pairs = right_pairs
        self._crossings = crossings
        self._trace_orientation()

    def _partner(self, pair: tuple[int, int], sid: int) -> int:
        return pair[0] if pair[1] == sid else pair[1]

    def _trace_orientation(self) -> None:
        """Walk the knot once; record each strand's horizontal direction."""
        start = self._left_pairs[min(self._left_pairs)][1]  # lower branch
        direction: dict[int, int] = {}
        sid, d = start, +1
        cycle = []
        while sid not in direction:
            direction[sid] = d
            cycle.append((sid, d))
            s = self._strands[sid]
            if d == +1:
                sid = self._partner(self._right_pairs[s.death], sid)
            else:
                sid = self._partner(self._left_pairs[s.birth], sid)
            d = -d
        if len(direction) != len(self._strands):
            raise MultiComponent(
                "front has more than one component (%d of %d strands traced)"
                % (len(direction), len(self._strands))
            )
        self._direction = direction
        self.traversal_cycle = tuple(cycle)

    # counts -----------------------------------------------------------

    def strand_profile(self) -> list[int]:
        """Strand count after each event prefix (len(events) + 1 entries)."""
        counts = [0]
        for ev in self.events:
            counts.append(counts[-1] + (2 if ev.kind == "L" else -2 if ev.kind == "R" else 0))
        return counts

    def cusp_counts(self, reverse_orientation: bool = False) -> tuple[int, int]:
        """(downward, upward) cusp counts for the stored orientation."""
        sgn = -1 if reverse_orientation else 1
        down = up = 0
        for pairs, entering in ((self._right_pairs, +1), (self._left_pairs, -1)):
            for pair in pairs.values():
                upper = pair[0]
                if sgn * self._direction[upper] == entering:
                    down += 1
                else:
                    up += 1
        return down, up

    def writhe(self) -> int:
        """Sum of crossing signs; independent of the global orientation."""
        return sum(
            self._direction[over] * self._direction[under]
            for _, over, under in self._crossings
        )

    def right_cusps(self) -> int:
        return len(self._right_pairs)


def parse_front(text) -> FrontDiagram:
    """Parse front text: one event per line, '#' comments, blanks ignored."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrontSyntaxError("front is not UTF-8 text (byte %d)" % exc.start) from None
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _KINDS:
            raise FrontSyntaxError("expected 'L i', 'R i' or 'X i', got %r" % raw, lineno)
        try:
            level = int(parts[1])
        except ValueError:
            raise FrontSyntaxError("bad level %r" % parts[1], lineno) from None
        if level < 1:
            raise FrontSyntaxError("level must be positive", lineno)
        events.append(FrontEvent(parts[0], level))
    return FrontDiagram(events)


@dataclass(frozen=True)
class FrontInvariants:
    writhe: int
    right_cusps: int
    down_cusps: int
    up_cusps: int
    tb: int
    rot: int


def writhe(d: FrontDiagram) -> int:
    return d.writhe()


def invariants(d: FrontDiagram, reverse_orientation: bool = False) -> FrontInvariants:
    """Classical invariants of the front.

    tb = writhe - (right cusps) and rot = (down - up)/2.  Reversing the
    orientation negates rot and leaves tb and writhe unchanged; the flag
    exists to check exactly that.
    """
    w = d.writhe()
    rc = d.right_cusps()
    down, up = d.cusp_counts(reverse_orientation)
    return FrontInvariants(w, rc, down, up, w - rc, (down - up) // 2)


def stabilize_diagram(
    d: FrontDiagram, sign: classify.Sign, gap: int, level: int
) -> FrontDiagram:
    """Insert a zigzag on an existing strand; tb drops by 1, rot moves by sign.

    The hint names an insertion point: ``gap`` events come before it and
    ``level`` is a strand position alive there.  Both zigzag patterns are
    tried and the one matching the requested sign is kept.
    """
    if not 0 <= gap <= len(d.events):
        raise NoSuchStrand("gap %d out of range 0..%d" % (gap, len(d.events)))
    n = d.strand_profile()[gap]
    if not 1 <= level <= n:
        raise NoSuchStrand("no strand at level %d (have %d)" % (level, n))
    base = invariants(d)
    head, tail = list(d.events[:gap]), list(d.events[gap:])
    for pattern in (
        [FrontEvent("L", level + 1), FrontEvent("R", level)],
        [FrontEvent("L", level), FrontEvent("R", level + 1)],
    ):
        candidate = FrontDiagram(head + pattern + tail)
        got = invariants(candidate)
        if got.tb == base.tb - 1 and got.rot == base.rot + sign.value:
            return candidate
    raise NoSuchStrand(
        "no zigzag at gap %d level %d realizes sign %s" % (gap, level, sign.name)
    )


def bennequin_compatible(inv: FrontInvariants, knot: classify.KnotType) -> bool:
    """Bennequin test for a declared knot type: tb + |rot| <= -chi."""
    return inv.tb + abs(inv.rot) <= -classify.euler_char(knot)
