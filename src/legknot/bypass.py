"""State machine for dividing-curve configurations on the punctured-torus
fiber of the figure-eight knot complement.

A configuration records the isotopy classes of the dividing set on a
convex fiber: type I is one arc class (odd multiplicity) plus closed
curves, type II is two arc classes of even multiplicities, and type III
is three arc classes spanning a triangle of the Farey tessellation.  The
total arc count is minus the tb of the boundary knot.

Because the fiber returns to itself through the monodromy
M = [[2, 1], [1, 1]], a configuration may be freely replaced by any power
of M applied to its slopes.  Bypass moves then drive a three-arc
configuration toward one of two terminal orbits:

* the orbit of {1, 2, inf} - the unique tight normal form, and
* the orbit of {0, 1, inf} - which supports no tight structure.

Both fixed slopes of M are irrational, so every orbit has exactly one
representative in a canonical window.  M maps [0, inf] onto [1/2, 1] and
[1/2, 1] into itself, so "every slope of M^k(c) lies in [1/2, 1]" is
false up to some power k and true from the next one on.  The
representative is the image at the last power where it is false, which
lies in [0, inf]; doubling and bisecting find that power in O(log k)
window tests for a start k powers away, each of them one matrix of
O(log k) multiplications.  No Farey edge crosses 1/2 or 1 except (0, 1)
and (0, inf), so a triangle leaves [1/2, 1] exactly when its middle slope
leaves (1/2, 1).  One arc class leaves it at 0 or inf: 1/2 = M(0) and
1 = M(inf) step back once more, so the orbits of 0 and inf have one
representative each too.

A triangle is terminal exactly when its representative is {1, 2, inf}
or {0, 1, inf}, and :func:`normalize` takes the move forced on the
representative, mapped back by the inverse power.  Above the fixed slope
the triangle flips toward {1, 2, inf}; below it, flips lead to
{0, 1/2, 1}, which steps into the {0, 1, inf} orbit.  Other bypasses,
such as collapsing a triangle above the fixed slope to one arc class,
reach the same orbit.  A flip replaces the middle slope of the
representative by the difference of the other two, and is of the first
kind exactly when the minimum has the larger denominator.  A one-class
representative other than 0 and inf expands to itself and its two
Stern-Brocot parents, whose vectors sum to its own; that triangle is its
own representative.  Every one of these moves gives a tessellation
triangle, so the walk carries bare slope triples and checks none.
Configurations with more than three arcs always admit a bypass that
produces a boundary-parallel dividing curve, i.e. a destabilization of
the boundary knot; :func:`normalize` reports them as a one-line
``destabilizes`` verdict naming the annulus rather than as state
transitions.

Each flip climbs one Farey level, so the move count is known before the
first move.  With D the largest Farey depth among the slopes of the
representative, a triangle takes D moves, one fewer when its minimum is
at least 1; a one-class configuration takes one move more than the
triangle it expands to; and reducing extra closed curves adds one.

:func:`normalize` places the start in the window once and then walks the
representative itself: every flip and expansion lands on its own
representative, and the gateway move lands on M({0, 1, inf}) =
{1/2, 2/3, 1}, where the walk ends.  Each move keeps two slopes, so the
trace maps only the new one back by the inverse power.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .classify import MAX_ROWS
from .errors import (
    NonTermination,
    NotAnEdge,
    NotATriangle,
    ParityError,
    TaxonomyError,
    Unsupported,
    decimal,
)
from .lattice import (
    INF,
    ONE,
    ZERO,
    Slope,
    apply_matrix,
    farey_depth,
    farey_parents,
    is_farey_edge,
    monodromy_matrix,
    parse_slope,
    slope_of_vector,
)

__all__ = [
    "ConfigKind",
    "DividingConfig",
    "MoveTag",
    "OutcomeKind",
    "NormalizationOutcome",
    "make_config",
    "type_i",
    "type_ii",
    "type_iii",
    "monodromy_config",
    "normalize",
]

_TIGHT_TRIANGLE = (ONE, Slope(2, 1), INF)
_OVERTWISTED_TRIANGLE = (ZERO, ONE, INF)
_HALF = Slope(1, 2)
_GATEWAY_END = (_HALF, Slope(2, 3), ONE)  # M(0, 1, inf), where the gateway move lands


class ConfigKind(Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class DividingConfig:
    """Slopes with arc multiplicities, plus closed curves for type I.

    The constructor sorts the slopes (inf last) and their multiplicities
    with them, so structurally equal configurations compare equal.
    """

    kind: ConfigKind
    slopes: tuple[Slope, ...]
    mults: tuple[int, ...]
    closed: int = 0

    def __post_init__(self):  # frozen, so the sorted fields are set through object
        order = sorted(range(len(self.slopes)), key=self.slopes.__getitem__)
        object.__setattr__(self, "slopes", tuple(self.slopes[i] for i in order))
        object.__setattr__(self, "mults", tuple(self.mults[i] for i in order))

    def arcs(self) -> int:
        return sum(self.mults)

    def __str__(self) -> str:
        if self.kind is ConfigKind.I:
            return "I:%sx%d+%dc" % (self.slopes[0], self.mults[0], self.closed)
        body = ",".join("%sx%d" % (s, m) for s, m in zip(self.slopes, self.mults))
        return "%s:%s" % (self.kind.value, body)


def type_i(slope: Slope, arcs: int, closed: int = 1) -> DividingConfig:
    """One arc class with odd multiplicity, plus closed curves.

    The total curve count (arcs + closed) must be even, so the closed
    multiplicity is odd as well.
    """
    if arcs < 1 or arcs % 2 == 0:
        raise ParityError("type I arc count must be odd and positive, got %d" % arcs)
    if closed < 1:
        raise TaxonomyError("type I carries at least one closed curve")
    if (arcs + closed) % 2 != 0:
        raise ParityError("arc and closed counts must have even total")
    return DividingConfig(ConfigKind.I, (slope,), (arcs,), closed)


def type_ii(slopes, mults) -> DividingConfig:
    if len(slopes) != 2 or len(mults) != 2:
        raise TaxonomyError("type II has exactly two arc classes")
    if slopes[0] == slopes[1]:
        raise NotAnEdge("type II classes must be distinct")
    if not is_farey_edge(slopes[0], slopes[1]):
        raise NotAnEdge(
            "disjoint arc classes %s, %s must span a tessellation edge"
            % (slopes[0], slopes[1])
        )
    if any(m < 2 or m % 2 != 0 for m in mults):
        raise ParityError("type II multiplicities are positive and even")
    return DividingConfig(ConfigKind.II, slopes, mults)


def type_iii(slopes, mults) -> DividingConfig:
    if len(slopes) != 3 or len(mults) != 3:
        raise TaxonomyError("type III has exactly three arc classes")
    if len(set(slopes)) != 3:
        raise NotATriangle("type III slopes must be distinct")
    for i in range(3):
        for j in range(i + 1, 3):
            if not is_farey_edge(slopes[i], slopes[j]):
                raise NotATriangle(
                    "slopes %s do not span a tessellation triangle"
                    % (tuple(str(s) for s in slopes),)
                )
    if any(m < 1 for m in mults):
        raise ParityError("multiplicities are positive")
    if len({m % 2 for m in mults}) != 1:
        raise ParityError("type III multiplicities must share parity")
    return DividingConfig(ConfigKind.III, slopes, mults)


def _count(text: str, what: str) -> int:
    """A multiplicity or closed-curve count written as a decimal integer."""
    try:
        return decimal(text)
    except ValueError as exc:
        raise TaxonomyError("%s %s" % (what, exc)) from None


def _class_spec(part: str) -> tuple[Slope, int]:
    """One arc class 'slope' or 'slopexM'; the multiplicity defaults to 1."""
    slope_text, x, mult_text = part.partition("x")
    return parse_slope(slope_text), _count(mult_text, "multiplicity") if x else 1


def make_config(spec: str) -> DividingConfig:
    """Parse 'III:1,2,inf', 'III:1x1,2x1,infx1', 'II:1x2,infx2', 'I:infx5+1c'."""
    try:
        kind_text, body = spec.strip().split(":", 1)
    except ValueError:
        raise TaxonomyError("config spec needs a 'KIND:' prefix: %r" % spec) from None
    if kind_text == "I":
        closed = 1
        if "+" in body:
            body, closed_text = body.split("+", 1)
            if not closed_text.endswith("c"):
                raise TaxonomyError("closed count must look like '+2c'")
            closed = _count(closed_text[:-1], "closed-curve count")
        return type_i(*_class_spec(body), closed)
    slopes, mults = zip(*(_class_spec(part) for part in body.split(",")))
    if kind_text == "II":
        return type_ii(slopes, mults)
    if kind_text == "III":
        return type_iii(slopes, mults)
    raise TaxonomyError("unknown configuration kind %r" % kind_text)


def monodromy_config(c: DividingConfig, k: int) -> DividingConfig:
    """Apply the k-th monodromy power to every slope; multiplicities persist."""
    if not k:
        return c
    mat = monodromy_matrix(k)
    slopes = tuple(slope_of_vector(apply_matrix(mat, s.vector())) for s in c.slopes)
    return DividingConfig(c.kind, slopes, c.mults, c.closed)


# --- move bookkeeping ----------------------------------------------------


class MoveTag(Enum):
    """The kind of a move of :func:`normalize`, as its trace line names it."""

    FIRST_KIND = "FirstKind"
    SECOND_KIND = "SecondKind"
    CASE_THREE_B = "CaseThreeB"
    EXPAND_FROM_I = "ExpandFromI"


def _canonical(slopes) -> tuple[int, tuple[Slope, ...]]:
    """The power k of the monodromy taking the sorted slopes into the
    canonical window, and the representative: their sorted image under M^k.

    k is the last power at which some slope of the image leaves [1/2, 1],
    a test monotone in k.  One bracket keeps a slope outside at ``out`` and
    none at ``into``: the test at 0 seeds one end, jumps of 1, 3, 7, ...
    find the other, and bisection closes it to out + 1 = into in O(log k).
    """
    vectors = [s.vector() for s in slopes]
    powers = {0: ((1, 0), (0, 1))}

    def inside(k):  # every slope in [1/2, 1], read off the image vectors
        if k not in powers:
            powers[k] = monodromy_matrix(k)
        (a, b), (p, q) = powers[k]
        for v in vectors:
            x, y = a * v.x + b * v.y, p * v.x + q * v.y
            if x < 0:
                x, y = -x, -y
            if x == 0 or not y <= x <= 2 * y:  # the slope y/x
                return False
        return True

    step = -1 if inside(0) else 1  # toward the end that 0 does not seed
    near, far = 0, step
    while inside(far) == (step < 0):
        near, far = far, 2 * far + step
    out, into = sorted((near, far))
    while into - out > 1:
        mid = (out + into) // 2
        if inside(mid):
            into = mid
        else:
            out = mid
    return out, tuple(sorted(slope_of_vector(apply_matrix(powers[out], v)) for v in vectors))


def _flip(rep):
    """Replace the middle slope of a sorted triangle in [0, inf], its
    mediant vertex, by the difference of the other two.

    Returns the tag and the new sorted triple.  The difference lies below
    the old minimum exactly when the minimum has the larger denominator,
    and the minimum then becomes the new mediant vertex: FIRST_KIND.
    Otherwise it lies above the old maximum: SECOND_KIND.
    """
    low, _, high = rep
    new = slope_of_vector(low.vector() - high.vector())
    if low.den > high.den:
        return MoveTag.FIRST_KIND, (new, low, high)
    return MoveTag.SECOND_KIND, (low, high, new)


def _expand(slope: Slope):
    """Sorted triangle produced by the one legal bypass on a one-class
    representative: the slope between its two Stern-Brocot parents."""
    if slope == ZERO:
        return _OVERTWISTED_TRIANGLE
    if slope.is_inf:
        return _TIGHT_TRIANGLE
    left, right = farey_parents(slope)
    return left, slope, right


def _first_move(rep):
    """The move normalize takes from a representative that is not
    terminal, as (tag, the sorted triple it reaches).  The triple is a
    tessellation triangle by construction and is not checked."""
    low, high = rep[0], rep[-1]
    if len(rep) == 1:
        return MoveTag.EXPAND_FROM_I, _expand(low)
    if low >= ONE or high <= _HALF:  # above or below the fixed slope
        return _flip(rep)
    # straddling, so rep is the gateway {0, 1/2, 1}: replace the minimum
    return MoveTag.CASE_THREE_B, _GATEWAY_END


class OutcomeKind(Enum):
    STANDARD_TIGHT = "standard-tight"
    OVERTWISTED = "overtwisted"
    DESTABILIZES = "destabilizes"


# where normalize's walk ends: the two terminal representatives, and
# M(0, 1, inf), which the gateway move reaches
_ENDS = {
    _TIGHT_TRIANGLE: OutcomeKind.STANDARD_TIGHT,
    _OVERTWISTED_TRIANGLE: OutcomeKind.OVERTWISTED,
    _GATEWAY_END: OutcomeKind.OVERTWISTED,
}


@dataclass(frozen=True)
class NormalizationOutcome:
    kind: OutcomeKind
    trace: tuple[str, ...]
    steps: int


# the note on normalize's one trace line for more than three arcs
_DESTABILIZING_NOTES = {
    ConfigKind.I: "nested bypasses on a one-class configuration with more than three arcs",
    ConfigKind.II: "two-class configurations destabilize",
    ConfigKind.III: "three-class configuration with more than three arcs",
}


def _move_count(rep) -> int:
    """Moves from a three-arc configuration with canonical representative
    rep to its terminal form; each flip climbs one Farey level."""
    if len(rep) == 1:  # one arc class expands to its own representative first
        return 1 + _move_count(_expand(rep[0]))
    return max(farey_depth(s) for s in rep) - (rep[0] >= ONE)


def normalize(c: DividingConfig, step_limit: int | None = None) -> NormalizationOutcome:
    """Drive a configuration to its terminal form in at most ``step_limit`` moves.

    Three-arc configurations end in the standard tight orbit {1, 2, inf}
    or the overtwisted orbit {0, 1, inf}; anything with more arcs
    destabilizes in one move.  The moves are deterministic: the one move
    forced on each representative, never a collapse to one arc class.  The
    move count is known before the first move: a limit below it raises
    NonTermination, and a count above classify.MAX_ROWS is Unsupported,
    both before any move is taken.  A walk that disagrees with its count
    raises NonTermination too, which indicates a bug rather than a
    mathematical outcome.  A negative limit is Unsupported.
    """
    if step_limit is not None and step_limit < 0:
        raise Unsupported("step limit must be non-negative, got %d" % step_limit)
    if c.arcs() > 3:  # a bypass gives a boundary-parallel curve: the knot destabilizes
        if step_limit == 0:
            raise NonTermination("no terminal form within 0 steps: destabilizing takes 1")
        line = "Destabilizing annulus=%s (%s)" % (c.slopes[0], _DESTABILIZING_NOTES[c.kind])
        return NormalizationOutcome(OutcomeKind.DESTABILIZES, (line,), 1)
    if c.arcs() != 3:
        raise Unsupported("verdicts are defined for three-arc configurations")

    trace = []
    if c.kind is ConfigKind.I and c.closed > 1:
        # closed-curve pairs are absorbed before the arc analysis
        trace.append("ReduceClosed %dc->1c" % c.closed)
    shift, rep = _canonical(c.slopes)
    count = len(trace) + _move_count(rep)
    if step_limit is not None and step_limit < count:
        raise NonTermination(
            "no terminal form within %d steps: %s takes %d" % (step_limit, c, count)
        )
    if count > MAX_ROWS:
        raise Unsupported("%s takes %d moves, more than the cap of %d" % (c, count, MAX_ROWS))

    back = monodromy_matrix(-shift) if shift else None
    mapped = {}
    before = ",".join(str(s) for s in c.slopes)
    while rep not in _ENDS and len(trace) < count:
        tag, rep = _first_move(rep)
        slopes = rep
        if back is not None:  # a move keeps two slopes, so map back only the new one
            mapped = {s: mapped.get(s) or slope_of_vector(apply_matrix(back, s.vector()))
                      for s in rep}
            slopes = sorted(mapped.values())
        after = ",".join(str(s) for s in slopes)
        trace.append("%s %s->%s" % (tag.value, before, after))
        before = after
    if rep not in _ENDS or len(trace) != count:
        raise NonTermination("the walk from %s disagrees with its count of %d moves" % (c, count))
    return NormalizationOutcome(_ENDS[rep], tuple(trace), count)
