"""Combinatorial front projections and their classical invariants.

A front is encoded as a word of Morse events read left to right, one per
line: ``L i`` opens a cusp whose two new strands take positions i, i+1
(1-based from the top), ``R i`` closes the strands at positions i, i+1
into a right cusp, and ``X i`` crosses the strands at positions i, i+1.
Fronts have no vertical tangencies, so this word determines the diagram;
crossings carry no over/under data because the resolution is forced
(the strand descending from position i to i+1 passes in front).

Strands are numbered by their left cusps: the j-th ``L`` event (from 0)
creates strand 2j (upper branch) and strand 2j+1 (lower branch), so a
strand's left-cusp partner is ``s ^ 1``.

Invariants come from the projection combinatorics: tb is the writhe
minus the number of right cusps, and the rotation number is half the
downward-minus-upward cusp count for the stored orientation.  The
orientation is the one that traverses strand 1, the lower branch of the
first left cusp, moving rightward; a cusp entered on its upper branch
and left on its lower branch counts as downward.  Crossing signs are the
product of the two strands' horizontal directions, which calibrates the word
[L 1, L 1, X 2, X 2, X 2, R 1, R 1] to writhe +3 (the maximal
right-trefoil front, tb = 1).

A diagram stores only what these need: the events, each strand's
direction, the writhe and the downward-cusp count.  A stabilization
updates the counts without a walk: its zigzag adds no crossing, and its
two new cusps are both downward exactly when the sign is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify
from .errors import FrontSyntaxError, MultiComponent, NoSuchStrand, decimal

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


class FrontDiagram:
    """A validated single-component front.

    Construction simulates the event word, checks all level bounds,
    requires the strand count to close at zero and traces the knot to
    verify it has exactly one component.  It stores ``events``, each
    strand's direction in the traversal orientation (``_direction``), the
    writhe (``_writhe``) and the downward-cusp count (``_down``).
    Instances are immutable in use; build new diagrams instead of
    mutating.
    """

    def __init__(self, events):
        self.events = tuple(events)
        self._build()

    def _build(self) -> None:
        active: list[int] = []
        right_partner: list[int] = []
        right_uppers: list[int] = []
        crossings: list[tuple[int, int]] = []  # (over, under) in event order

        for ev in self.events:
            n = len(active)
            if ev.kind == "L":
                if not 1 <= ev.level <= n + 1:
                    raise FrontSyntaxError(
                        "left cusp level %d out of range 1..%d" % (ev.level, n + 1)
                    )
                sid = len(right_partner)
                active[ev.level - 1:ev.level - 1] = [sid, sid + 1]
                right_partner += [-1, -1]
            elif ev.kind in ("R", "X"):
                if not 1 <= ev.level <= n - 1:
                    why = "out of range 1..%d" % (n - 1) if n > 1 else "with %d strands alive" % n
                    raise FrontSyntaxError("%s level %d %s" % (ev.kind, ev.level, why))
                top, bottom = active[ev.level - 1], active[ev.level]
                if ev.kind == "R":
                    right_partner[top], right_partner[bottom] = bottom, top
                    right_uppers.append(top)
                    del active[ev.level - 1:ev.level + 1]
                else:
                    # descending strand (from level i to i+1) is in front
                    crossings.append((top, bottom))
                    active[ev.level - 1], active[ev.level] = bottom, top
            else:
                raise FrontSyntaxError("unknown event kind %r" % ev.kind)

        if active:
            raise FrontSyntaxError(
                "diagram does not close: %d strands remain" % len(active)
            )
        if not right_partner:
            raise FrontSyntaxError("empty diagram")

        direction = self._direction = self._trace_orientation(right_partner)
        # a right cusp is downward when its upper strand moves rightward, a
        # left cusp when its upper strand (the even id) moves leftward
        self._down = direction[::2].count(-1) + [direction[u] for u in right_uppers].count(1)
        self._writhe = sum(direction[over] * direction[under] for over, under in crossings)

    def _trace_orientation(self, right_partner: list[int]) -> list[int]:
        """Walk the knot once; return each strand's horizontal direction."""
        direction = [0] * len(right_partner)
        sid, d = 1, +1  # lower branch of the first left cusp, moving rightward
        while not direction[sid]:
            direction[sid] = d
            sid = right_partner[sid] if d == +1 else sid ^ 1
            d = -d
        if 0 in direction:
            raise MultiComponent(
                "front has more than one component (%d of %d strands traced)"
                % (len(direction) - direction.count(0), len(direction))
            )
        return direction


def parse_front(text) -> FrontDiagram:
    """Parse front text: one event per line, '#' comments, blanks ignored."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrontSyntaxError("front is not UTF-8 text (byte %d)" % exc.start) from None
    memo: dict[str, FrontEvent | None] = {}  # fronts repeat a few distinct lines
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw not in memo:
            memo[raw] = _parse_line(raw, lineno)
        if memo[raw] is not None:
            events.append(memo[raw])
    return FrontDiagram(events)


def _parse_line(raw: str, lineno: int) -> FrontEvent | None:
    """The event on one line of front text, or None for a blank or comment line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    parts = line.split()
    if len(parts) != 2 or parts[0] not in _KINDS:
        raise FrontSyntaxError("expected 'L i', 'R i' or 'X i', got %r" % raw, lineno)
    try:
        level = decimal(parts[1])
    except ValueError:
        raise FrontSyntaxError("bad level %r" % parts[1], lineno) from None
    if level < 1:
        raise FrontSyntaxError("level must be positive", lineno)
    return FrontEvent(parts[0], level)


@dataclass(frozen=True)
class FrontInvariants:
    writhe: int
    right_cusps: int
    down_cusps: int
    up_cusps: int
    tb: int
    rot: int


def writhe(d: FrontDiagram) -> int:
    """Sum of crossing signs; independent of the global orientation."""
    return d._writhe


def invariants(d: FrontDiagram, reverse_orientation: bool = False) -> FrontInvariants:
    """Classical invariants of the front, read from its stored counts.

    tb = writhe - (right cusps) and rot = (down - up)/2.  Each strand runs
    from a left cusp to a right cusp, so there are as many cusps as strands
    and half of them are right cusps.  Reversing the orientation swaps down
    and up: it negates rot and leaves tb and writhe unchanged; the flag
    exists to check exactly that.
    """
    cusps = len(d._direction)
    down, up = d._down, cusps - d._down
    if reverse_orientation:
        down, up = up, down
    rc = cusps // 2
    return FrontInvariants(d._writhe, rc, down, up, d._writhe - rc, (down - up) // 2)


def stabilize_diagram(
    d: FrontDiagram, sign: classify.Sign, gap: int, level: int
) -> FrontDiagram:
    """Insert a zigzag on an existing strand; tb drops by 1, rot moves by sign.

    The hint names an insertion point: ``gap`` events come before it and
    ``level`` is a strand position alive there.  [L level+1, R level] moves
    rot by the strand's direction (+1 rightward), [L level, R level+1] by
    its negative; the direction picks the pattern that realizes the sign.
    """
    if not 0 <= gap <= len(d.events):
        raise NoSuchStrand("gap %d out of range 0..%d" % (gap, len(d.events)))
    active: list[int] = []
    sid = 0
    for ev in d.events[:gap]:
        i = ev.level - 1
        if ev.kind == "L":
            active[i:i] = [sid, sid + 1]
            sid += 2
        elif ev.kind == "R":
            del active[i:i + 2]
        else:
            active[i], active[i + 1] = active[i + 1], active[i]
    if not 1 <= level <= len(active):
        raise NoSuchStrand("no strand at level %d (have %d)" % (level, len(active)))
    ds = d._direction[active[level - 1]]
    if ds == sign.value:
        zigzag, dirs = (FrontEvent("L", level + 1), FrontEvent("R", level)), [-ds, ds]
    else:
        zigzag, dirs = (FrontEvent("L", level), FrontEvent("R", level + 1)), [ds, -ds]
    out = object.__new__(FrontDiagram)
    out.events = d.events[:gap] + zigzag + d.events[gap:]
    out._direction = d._direction[:sid] + dirs + d._direction[sid:]
    out._writhe = d._writhe  # a zigzag adds no crossing
    out._down = d._down + 1 + sign.value  # both new cusps are downward exactly for PLUS
    return out


def bennequin_compatible(inv: FrontInvariants, knot: classify.KnotType) -> bool:
    """Bennequin test for a declared knot type: tb + |rot| <= -chi."""
    return inv.tb + abs(inv.rot) <= -classify.euler_char(knot)
