"""Legendrian classification oracle for unknots, torus knots, and
figure-eight knots.

Knots of these types are determined up to Legendrian isotopy by the
classical invariants (tb, rotation), so the classification reduces to
combinatorics: each knot type has a finite set of maximal-tb "peaks";
stabilizing walks down a cone below each peak, and the realizable
(tb, rotation) pairs are exactly the union of these cones.  The peak
data implemented here:

  unknot          tb = -1,         rotation 0
  positive torus  tb = pq - p - q, rotation 0
  negative torus  tb = pq,         rotation +-(|p| - q - 2qk), 0 <= k < floor(|p|/q)
  figure eight    tb = -3,         rotation 0

So every peak set is one progression and its negatives, +-(top - 2ih)
for 0 <= i < count, with (top, count, h) = (|p| - q, floor(|p|/q), q)
for negative torus knots and (0, 1, 1) otherwise; every peak has the
parity of top.  Point queries (realizability, the peak test, adjacency,
maximal self-linking) are O(1) arithmetic on (top, count, h).

For a negative torus knot write |p| = mq + e with 0 < e < q.  The negated
progression starts at -top and the other 2e above it, so the two
interleave: the 2m sorted peaks alternate m gaps of 2e and m - 1 gaps of
2(q - e).  Peaks that are not neighbours span a gap of each kind, at
least 2q, so two distinct peaks are adjacent exactly when they differ by
less than 2q.  Cones 2g apart first meet at depth g, halfway between, so
the valleys are tb = max_tb - e at rotations -top + e + 2qi (0 <= i < m)
and tb = max_tb - (q - e) at -top + q + e + 2qi (0 <= i < m - 1): two
progressions, or one of step q when e = q - e (q = 2).

The peaks are -top + 2i for i = 0 or top (mod h), and a cone widens by one
per depth: at depth d, -top - d + 2i (0 <= i <= top + d) is realizable iff
i mod h lies in [0, d] or [top, top + d] (the residue rule).

The enumerations (peak_rotations, valley_rows, MountainRange) count
their output exactly before building it and raise Unsupported past MAX_ROWS.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import InvalidKnot, NotAdjacent, Unrealizable, Unsupported, decimal

__all__ = [
    "Sign", "Verdict", "KnotType", "LegendrianClass", "Peak", "MountainRange", "BoundsReport",
    "unknot", "torus", "figure_eight", "parse_knot", "euler_char", "max_tb", "peak_rotations",
    "peaks", "realizable", "decide_isotopy", "stabilize_class", "mountain_range",
    "common_destabilization", "bounds_report", "peak_progression", "valley_rows",
]

MAX_ROWS = 10**6  # the most rows an enumeration builds


class Sign(Enum):
    PLUS = 1
    MINUS = -1


class Verdict(Enum):
    ISOTOPIC = "isotopic"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class KnotType:
    """One of the classified knot types: unknot, torus(p, q), fig8.

    Torus knots are stored canonically with |p| > q > 0 and gcd = 1;
    positive knots satisfy p > q > 0 and negative ones p < 0 < q < |p|.
    Use the factory functions below rather than the raw constructor.
    """

    kind: str  # "unknot" | "torus" | "fig8"
    p: int = 0
    q: int = 0

    def __str__(self) -> str:
        if self.kind == "torus":
            return "torus:%d,%d" % (self.p, self.q)
        return self.kind


def unknot() -> KnotType:
    return KnotType("unknot")


def figure_eight() -> KnotType:
    return KnotType("fig8")


def torus(p: int, q: int) -> KnotType:
    """Canonicalized (p, q)-torus knot.

    K(p,q) = K(q,p) = K(-p,-q), so inputs are normalized into the
    |p| > q > 0 window.  q = 1 describes the unknot and is rejected
    rather than silently converted.
    """
    if p == 0 or q == 0:
        raise InvalidKnot("torus knot needs nonzero p and q")
    if q < 0:
        p, q = -p, -q
    if abs(p) < q:
        p, q = q, p
        if q < 0:
            p, q = -p, -q
    if gcd(abs(p), q) != 1:
        raise InvalidKnot("(%d, %d) are not coprime" % (p, q))
    if q == 1:
        raise InvalidKnot("a (p, 1) curve is the unknot; use 'unknot'")
    return KnotType("torus", p, q)


def parse_knot(text: str) -> KnotType:
    """Parse 'unknot', 'torus:p,q', or 'fig8'."""
    text = text.strip()
    if text == "unknot":
        return unknot()
    if text == "fig8":
        return figure_eight()
    if text.startswith("torus:"):
        body = text[len("torus:"):]
        try:
            p_text, q_text = body.split(",")
            return torus(decimal(p_text), decimal(q_text))
        except ValueError as exc:
            raise InvalidKnot("cannot parse torus spec %r" % text) from exc
    raise InvalidKnot("unknown knot spec %r" % text)


def euler_char(k: KnotType) -> int:
    """Euler characteristic of the minimal-genus Seifert surface."""
    if k.kind == "unknot":
        return 1
    if k.kind == "fig8":
        return -1  # genus one, one boundary component
    return abs(k.p) + abs(k.q) - abs(k.p * k.q)


def max_tb(k: KnotType) -> int:
    """Maximal Thurston-Bennequin invariant of the knot type."""
    if k.kind == "unknot":
        return -1
    if k.kind == "fig8":
        return -3
    if k.p > 0:
        return k.p * k.q - k.p - k.q
    return k.p * k.q


def peak_progression(k: KnotType) -> tuple[int, int, int]:
    """(top, count, h): the peak rotations are +-(top - 2ih), 0 <= i < count."""
    if k.kind != "torus" or k.p > 0:
        return 0, 1, 1
    return -k.p - k.q, -k.p // k.q, k.q


def _check_rows(k: KnotType, rows: int) -> None:
    if rows > MAX_ROWS:
        raise Unsupported("%s: up to %d rows, more than the cap of %d" % (k, rows, MAX_ROWS))


def peak_rotations(k: KnotType) -> list[int]:
    """Rotation numbers realized at maximal tb, ascending: the two progressions interleaved."""
    top, count, h = peak_progression(k)
    _check_rows(k, 2 * count)
    rots = [0] * (2 * count)
    rots[::2] = range(-top, 2 * count * h - top, 2 * h)
    rots[1::2] = range(top - 2 * (count - 1) * h, top + 1, 2 * h)
    return rots if top else [0]


@dataclass(frozen=True)
class Peak:
    tb: int
    rot: int


def peaks(k: KnotType) -> tuple[Peak, ...]:
    """All maximal-tb classes, rotation descending."""
    t = max_tb(k)
    return tuple(Peak(t, r) for r in reversed(peak_rotations(k)))


def realizable(k: KnotType, tb: int, rot: int) -> bool:
    """True iff (tb, rot) lies in some peak's stabilization cone: the residue rule."""
    d = max_tb(k) - tb
    top, _, h = peak_progression(k)
    i, odd = divmod(rot + top + d, 2)  # rot = -top - d + 2i
    return d >= 0 and not odd and 0 <= i <= top + d and min(i % h, (i - top) % h) <= d


@dataclass(frozen=True)
class LegendrianClass:
    """A Legendrian isotopy class: knot type plus (tb, rotation).

    These invariants are complete for the knot types in scope, so
    equality of the triple decides Legendrian isotopy.
    """

    knot: KnotType
    tb: int
    rot: int

    def __post_init__(self):
        if not realizable(self.knot, self.tb, self.rot):
            raise Unrealizable(
                "(tb=%d, rot=%d) is not realized by any Legendrian %s"
                % (self.tb, self.rot, self.knot)
            )


def decide_isotopy(a: LegendrianClass, b: LegendrianClass) -> Verdict:
    return Verdict.ISOTOPIC if a == b else Verdict.DISTINCT


def stabilize_class(c: LegendrianClass, sign: Sign) -> LegendrianClass:
    """tb drops by one, rotation moves by the sign; cones are closed."""
    return LegendrianClass(c.knot, c.tb - 1, c.rot + sign.value)


@dataclass(frozen=True)
class MountainRange:
    """All realizable (tb, rot) pairs down to a given depth below the top:
    checked against MAX_ROWS at construction, enumerated only when read."""

    knot: KnotType
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise Unsupported("depth must be non-negative")
        _check_rows(self.knot, _range_rows(self.knot, self.depth))

    def rows(self):
        """(tb, rots) for each depth from the top down, rots ascending: the residue rule."""
        t, (top, _, h) = max_tb(self.knot), peak_progression(self.knot)
        for d in range(self.depth + 1):
            full = range(-top - d, top + d + 1, 2)  # -top - d + 2i for 0 <= i <= top + d
            classes = sorted({c % h for s in (0, top) for c in range(s, s + min(d + 1, h))})
            rots = [0] * sum(len(full[c::h]) for c in classes)
            for j, c in enumerate(classes):
                rots[j::len(classes)] = full[c::h]
            yield t - d, rots


def _range_rows(k: KnotType, depth: int) -> int:
    """The pair count of mountain_range(k, depth) in O(1).  At depth d, a peak 2g above its lower
    neighbour adds min(d + 1, g) rotations; count peaks have g = top % h, the rest h - g."""
    n = depth + 1

    def cone(g: int) -> int:  # sum over d = 0..depth of min(d + 1, g)
        g = min(g, n)
        return g * (2 * n - g + 1) // 2

    top, count, h = peak_progression(k)
    return cone(n) + count * cone(top % h) + (count - 1) * cone(h - top % h)


def mountain_range(k: KnotType, depth: int) -> MountainRange:
    return MountainRange(k, depth)


def valley_rows(k: KnotType) -> list[tuple[int, range]]:
    """The valleys as (tb, rots) rows, tb descending and rots ascending."""
    top, count, q = peak_progression(k)
    _check_rows(k, 2 * count)
    if not top:  # one peak: not a negative torus knot
        return []
    t, e = max_tb(k), top % q
    if 2 * e == q:  # the two progressions share their tb and merge
        return [(t - e, range(e - top, top, q))]
    rows = [(t - e, range(e - top, top, 2 * q)), (t - q + e, range(q + e - top, top, 2 * q))]
    return rows if 2 * e < q else rows[::-1]


def common_destabilization(k: KnotType, a: Peak, b: Peak) -> tuple[int, int]:
    """First class where the cones of two adjacent peaks meet.

    Adjacent peaks differ in rotation by 2g < 2q (see the module
    docstring); their cones meet at depth g, at rotation halfway between.
    """
    if k.kind != "torus" or k.p > 0:
        raise Unsupported("valleys exist only for negative torus knots")
    t = max_tb(k)
    if not all(isinstance(x, Peak) and x.tb == t and realizable(k, t, x.rot) for x in (a, b)):
        raise NotAdjacent("inputs must be peaks of %s" % k)
    if a == b:
        raise NotAdjacent("peaks are equal")
    hi, lo = (a, b) if a.rot > b.rot else (b, a)
    if hi.rot - lo.rot >= 2 * k.q:  # a third peak lies between them
        raise NotAdjacent("peaks %s and %s are not adjacent" % (a, b))
    g = (hi.rot - lo.rot) // 2
    return (t - g, hi.rot - g)


@dataclass(frozen=True)
class BoundsReport:
    """Comparison of max tb against the classical upper bounds.

    ``fuchs_tabachnikov`` is None for positive torus knots, where only
    the Bennequin bound is reported (and is attained).  ``strict`` flags
    that max_tb sits strictly below every reported bound.
    """

    knot: KnotType
    bennequin: int
    fuchs_tabachnikov: int | None
    max_tb: int
    strict: bool


def bounds_report(k: KnotType) -> BoundsReport:
    if k.kind != "torus":
        raise Unsupported("bounds are reported for torus knots only")
    bennequin = -euler_char(k)
    top = max_tb(k)
    if k.p > 0:
        ft = None
    else:
        # Kauffman-polynomial bound: -pq for even q, -pq + p - q for odd q,
        # stated for the (p, -q) convention with p > q > 0.
        a, q = -k.p, k.q
        ft = -a * q if q % 2 == 0 else -a * q + a - q
    bounds = [bennequin] + ([] if ft is None else [ft])
    return BoundsReport(k, bennequin, ft, top, all(top < b for b in bounds))
