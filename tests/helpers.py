"""Shared independent oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
colorings and the classical invariants of a front come from a walk
traced from the event word, not from the diagram's stored counts;
tight-structure counts from shortest paths in the Farey graph, triangle
enumeration from raw mediant subdivision, realizability from a scan over
every peak's stabilization cone, disk rotation sets from every
non-crossing chord diagram, monodromy powers from repeated matrix
products, the canonical window from a walk of single monodromy steps,
bypass flips from the vertex whose vector is the sum of the other two,
the bypass moves and the normalization walk from those two with a
brute-force search for Stern-Brocot parents, and Farey triangles from
determinants computed here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from legknot.bypass import ConfigKind, MoveTag
from legknot.classify import (
    KnotType,
    MountainRange,
    Peak,
    Sign,
    figure_eight,
    max_tb,
    torus,
    unknot,
)
from legknot.convex import DiskChordDiagram
from legknot.front import FrontDiagram, FrontInvariants, parse_front, stabilize_diagram
from legknot.lattice import (
    INF,
    ONE,
    ZERO,
    IntegralVector,
    Slope,
    mediant,
    parse_slope,
    reduce_slope,
    slope_of_vector,
)


def strand_profile(d: FrontDiagram) -> list[int]:
    """Strand count after each event prefix (len(d.events) + 1 entries)."""
    counts = [0]
    for ev in d.events:
        counts.append(counts[-1] + {"L": 2, "R": -2}.get(ev.kind, 0))
    return counts


def trace_word(d: FrontDiagram) -> tuple[list, FrontInvariants]:
    """Trace the knot from the event word alone, sharing nothing with front.py.

    Strands are numbered by position as the word opens them, right cusps
    pair them up, and at each X the strand descending from position i to
    i + 1 passes over.  The walk runs rightward along strand 1 to its right
    cusp, leftward back along its partner to a left cusp, and so on; one
    component visits all strands.  Each strand's direction is the one the
    walk takes along it, and a cusp is downward when the walk enters it on
    its upper branch.  Returns the crossing passages [(event index, "over"
    or "under")] in walk order and the invariants the walk counts, with
    crossing signs by the right-hand rule on the oriented tangents.
    """
    active, right_partner, right_upper, passages, crossings, sid = [], {}, set(), {}, [], 0
    for k, ev in enumerate(d.events):
        i = ev.level - 1
        if ev.kind == "L":
            active[i:i] = [sid, sid + 1]
            passages[sid], passages[sid + 1] = [], []
            sid += 2
            continue
        top, bottom = active[i], active[i + 1]
        if ev.kind == "R":
            right_partner[top], right_partner[bottom] = bottom, top
            right_upper.add(top)
            del active[i:i + 2]
        else:
            passages[top].append((k, "over"))
            passages[bottom].append((k, "under"))
            crossings.append((top, bottom))
            active[i], active[i + 1] = bottom, top
    stream, heading, strand, rightward, rights, down = [], {}, 1, True, 0, 0
    for _ in range(sid):
        heading[strand] = 1 if rightward else -1
        stream.extend(passages[strand] if rightward else reversed(passages[strand]))
        if rightward:
            rights += 1
            down += strand in right_upper
            strand = right_partner[strand]
        else:
            down += strand % 2 == 0  # a left cusp opens its upper branch first
            strand ^= 1
        rightward = not rightward
    # in the (x, z) plane the over strand runs along (1, -1), the under one
    # along (1, 1), each times its heading; a crossing is positive when the
    # over tangent turns counterclockwise onto the under tangent
    writhe = 0
    for over, under in crossings:
        (ox, oz), (ux, uz) = (heading[over], -heading[over]), (heading[under], heading[under])
        writhe += (ox * uz - oz * ux) // 2
    up = sid - down
    return stream, FrontInvariants(writhe, rights, down, up, writhe - rights, (down - up) // 2)


def traced_invariants(d: FrontDiagram) -> FrontInvariants:
    """The classical invariants of d, counted by the walk of trace_word."""
    return trace_word(d)[1]


def three_colorings(d: FrontDiagram) -> int:
    """Number of Fox 3-colorings of the underlying knot diagram.

    3 means trivially colored only; a 3-crossing diagram with 9 colorings
    is a trefoil.  The arcs and crossing relations come from the passages
    of trace_word.
    """
    stream, _ = trace_word(d)
    under_positions = [i for i, (_, role) in enumerate(stream) if role == "under"]
    if not under_positions:
        return 3
    narcs = len(under_positions)
    arc_of_pos = {}
    for a in range(narcs):
        start, end = under_positions[a - 1], under_positions[a]
        i = (start + 1) % len(stream)
        while True:
            arc_of_pos[i] = a
            if i == end % len(stream):
                break
            i = (i + 1) % len(stream)
    relations = []
    for a, pos in enumerate(under_positions):
        ev = stream[pos][0]
        over_pos = next(
            i for i, (e, role) in enumerate(stream) if e == ev and role == "over"
        )
        relations.append((arc_of_pos[over_pos], a, (a + 1) % narcs))
    count = 0
    for colors in itertools.product(range(3), repeat=narcs):
        if all((2 * colors[o] - colors[i] - colors[j]) % 3 == 0 for o, i, j in relations):
            count += 1
    return count


# the small knot types on which closed forms are compared with cone scans
GRID = [unknot(), figure_eight()] + [
    torus(sign * a, q)
    for a in range(3, 20)
    for q in range(2, a)
    if gcd(a, q) == 1
    for sign in (1, -1)
]


def listed_peaks(k: KnotType) -> list[Peak]:
    """Every peak, rotation descending, listed one by one from the
    negative-torus theorem: rotations +-(|p| - q - 2qk), 0 <= k < floor(|p|/q)."""
    rots = {0}
    if k.kind == "torus" and k.p < 0:
        a, q = -k.p, k.q
        rots = {sign * (a - q - 2 * q * i) for i in range(a // q) for sign in (1, -1)}
    return [Peak(max_tb(k), r) for r in sorted(rots, reverse=True)]


def _cone(peak: Peak, tb: int) -> set[int]:
    """Rotations reached from peak by peak.tb - tb stabilizations."""
    depth = peak.tb - tb
    return {peak.rot - depth + 2 * i for i in range(depth + 1)}


def cone_scan_realizable(k: KnotType, tb: int, rot: int) -> bool:
    """Whether (tb, rot) lies in the stabilization cone of some listed peak."""
    return any(rot in _cone(peak, tb) for peak in listed_peaks(k))


def cone_scan_range(k: KnotType, depth: int) -> set[tuple[int, int]]:
    """Every (tb, rot) within depth of the top, from each listed peak's cone."""
    top = max_tb(k)
    return {
        (tb, rot)
        for peak in listed_peaks(k)
        for tb in range(top - depth, top + 1)
        for rot in _cone(peak, tb)
    }


def range_pairs(r: MountainRange) -> set[tuple[int, int]]:
    """Every (tb, rot) that the rows of a mountain range list."""
    return {(tb, rot) for tb, rots in r.rows() for rot in rots}


def cone_scan_max_sl(k: KnotType) -> int:
    return max(peak.tb + peak.rot for peak in listed_peaks(k))


def cone_scan_valley(k: KnotType, a: Peak, b: Peak):
    """First meeting point of the cones of two peaks that no third listed
    peak separates, or None where common_destabilization must refuse."""
    listed = listed_peaks(k)
    if a == b or a not in listed or b not in listed:
        return None
    if any(min(a.rot, b.rot) < p.rot < max(a.rot, b.rot) for p in listed):
        return None
    tb = a.tb
    while not _cone(a, tb) & _cone(b, tb):
        tb -= 1
    (rot,) = _cone(a, tb) & _cone(b, tb)
    return (tb, rot)


def noncrossing_matchings(m: int):
    """All non-crossing perfect matchings of 2m points (Catalan recursion)."""

    def rec(pts):
        if not pts:
            yield ()
            return
        first = pts[0]
        for j in range(1, len(pts), 2):
            inside, outside = pts[1:j], pts[j + 1:]
            for left in rec(inside):
                for right in rec(outside):
                    yield ((first, pts[j]),) + left + right

    yield from rec(tuple(range(2 * m)))


def enumerated_disk_rotations(m: int) -> set[int]:
    """Rotations of every m-chord disk diagram under both colorings."""
    return {
        DiskChordDiagram(m, matching, root_positive).rotation()
        for matching in noncrossing_matchings(m)
        for root_positive in (True, False)
    }


def _neighbors_in_window(s: Slope, p: int, q: int) -> list[Slope]:
    """Farey neighbors of s among slopes -a/b with -p/q <= -a/b <= -1, b <= q."""
    lo = reduce_slope(-p, q)
    out = []
    for b in range(1, q + 1):
        for a in range(b, p * b // q + 2):
            if gcd(a, b) != 1:
                continue
            t = reduce_slope(-a, b)
            if t == s or t < lo or t > reduce_slope(-1, 1):
                continue
            det = s.den * t.num - s.num * t.den
            if abs(det) == 1:
                out.append(t)
    return out


def edge_completions(s: Slope, t: Slope) -> set[Slope]:
    """The two vertices completing the Farey edge (s, t) into a triangle:
    the mediant and the slope of the difference vector."""
    return {mediant(s, t), slope_of_vector(s.vector() - t.vector())}


def tight_count_by_paths(p: int, q: int) -> int:
    """Independent tight-structure count via decorated Farey paths.

    Takes the unique shortest Farey path from -1 to -p/q, groups its
    edges into maximal runs that pivot around a common tessellation
    vertex, and multiplies (run length + 1) over the runs: signs shuffle
    within a pivoted run, so each run contributes its sign multiset.
    """
    start = reduce_slope(-1, 1)
    goal = reduce_slope(-p, q)
    if start == goal:
        raise ValueError("need p/q > 1")
    # BFS with path counting; uniqueness of the shortest path is asserted.
    dist = {start: 0}
    ways = {start: 1}
    parent = {start: None}
    frontier = [start]
    while frontier and goal not in dist:
        nxt = []
        for v in frontier:
            for w in _neighbors_in_window(v, p, q):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    ways[w] = ways[v]
                    parent[w] = v
                    nxt.append(w)
                elif dist[w] == dist[v] + 1:
                    ways[w] += ways[v]
        frontier = nxt
    assert goal in dist, "no Farey path found for %d/%d" % (p, q)
    assert ways[goal] == 1, "shortest Farey path is not unique for %d/%d" % (p, q)
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    edges = list(zip(path, path[1:]))
    # maximal pivoted runs: consecutive edges sharing a triangle apex
    runs = [1]
    for i in range(1, len(edges)):
        if edge_completions(*edges[i - 1]) & edge_completions(*edges[i]):
            runs[-1] += 1
        else:
            runs.append(1)
    count = 1
    for run in runs:
        count *= run + 1
    return count


def farey_triangles_to_depth(max_depth: int):
    """All tessellation triangles within max_depth mediant subdivisions
    of the two base triangles {0, 1, inf} and {-1, 0, inf}."""
    base = [(ZERO, ONE, INF), (reduce_slope(-1, 1), ZERO, INF)]
    seen = set()
    out = []
    frontier = base
    for _ in range(max_depth + 1):
        nxt = []
        for tri in frontier:
            key = frozenset(tri)
            if key in seen:
                continue
            seen.add(key)
            out.append(tri)
            for i in range(3):
                j, k = [x for x in range(3) if x != i]
                nxt.append((tri[j], tri[k], mediant(tri[j], tri[k])))
        frontier = nxt
    return out


TIGHT_TRIANGLE = (ONE, Slope(2, 1), INF)
OVERTWISTED_TRIANGLE = (ZERO, ONE, INF)


def sum_vertex(tri) -> Slope:
    """The vertex of a tessellation triangle whose canonical vector is the
    sum of the other two."""
    for i, s in enumerate(tri):
        j, k = [x for x in range(3) if x != i]
        if s.vector() == tri[j].vector() + tri[k].vector():
            return s
    raise AssertionError("no vertex of %s is the sum of the other two" % (tri,))


def sum_vertex_flip(tri):
    """Replace the sum vertex by the difference of the other two, kept in
    their order; tag FIRST_KIND when the new sum vertex is the smaller of
    the two kept slopes, SECOND_KIND otherwise."""
    top = sum_vertex(tri)
    j, k = [s for s in tri if s != top]
    new = (j, k, slope_of_vector(j.vector() - k.vector()))
    return new, MoveTag.FIRST_KIND if sum_vertex(new) == min(j, k) else MoveTag.SECOND_KIND


def fixed_side(s: Slope) -> int:
    """+1 when a slope s >= 0 lies above the attracting fixed slope of the
    monodromy, -1 when below.

    The fixed slope is the positive root of x^2 + x - 1, so for s = n/d
    the side is the sign of n^2 + n*d - d^2, which is never zero because
    (2n + d)^2 = 5d^2 has no integer solution with d != 0; inf is 1/0.
    """
    n, d = s.num, s.den
    return 1 if n * n + n * d - d * d > 0 else -1


def same_orbit(slopes, target) -> bool:
    """Whether some power M^k of the monodromy maps target onto slopes.

    A plain step-by-step search with _step, independent of the
    canonical window in legknot.bypass.  Both terminal triangles contain
    inf, and M^k(inf) has a coordinate F_2|k| >= 2^(|k| - 1), so for those
    targets |k| is at most the bit length of the largest coordinate of
    slopes, plus one.
    """
    goal = frozenset(slopes)
    bound = max(max(abs(s.num), s.den) for s in slopes).bit_length() + 1
    for step in (1, -1):
        current = tuple(target)
        for _ in range(bound + 1):
            if frozenset(current) == goal:
                return True
            current = tuple(_step(s, step) for s in current)
    return False


def stepwise_monodromy(v: IntegralVector, k: int) -> IntegralVector:
    """M^k v by |k| products with [[2, 1], [1, 1]], or with its inverse
    [[1, -1], [-1, 2]] for k < 0."""
    (a, b), (c, d) = ((2, 1), (1, 1)) if k >= 0 else ((1, -1), (-1, 2))
    x, y = v.x, v.y
    for _ in range(abs(k)):
        x, y = a * x + b * y, c * x + d * y
    return IntegralVector(x, y)


def _step(s: Slope, k: int) -> Slope:
    return slope_of_vector(stepwise_monodromy(s.vector(), k))


def stepwise_window(slopes):
    """The canonical shift and representative found one monodromy step at
    a time: M until every slope is in [0, inf], then M^-1 while every
    slope lies in [1/2, 1].  For triangles the second test reads the same
    as "the middle slope is strictly between 1/2 and 1", the window walk
    of the library before it searched by doubling."""
    half = Slope(1, 2)
    shift, current = 0, tuple(sorted(slopes))
    while current[0].num < 0:  # inf is 1/0, so this reads "not in [0, inf]"
        current = tuple(sorted(_step(s, 1) for s in current))
        shift += 1
    while half <= current[0] and current[-1] <= ONE:
        current = tuple(sorted(_step(s, -1) for s in current))
        shift -= 1
    return shift, current


def stern_brocot_parents(s: Slope) -> tuple[Slope, Slope]:
    """The two slopes of a finite s = n/d > 0 whose vectors sum to (d, n)
    and span a Farey edge, found by trying every smaller vector."""
    n, d = s.num, s.den
    for a, b in itertools.product(range(n + 1), range(d + 1)):
        if abs(a * d - b * n) == 1:
            return reduce_slope(a, b), reduce_slope(n - a, d - b)
    raise AssertionError("%s has no Stern-Brocot parents" % s)


# one arc class at 0 or inf expands to a terminal triangle
_TERMINAL_EXPANSIONS = {ZERO: OVERTWISTED_TRIANGLE, INF: TIGHT_TRIANGLE}
# the tag of the other bypass above the fixed slope, which normalize never takes
COLLAPSE = "CollapseToI"


def expansion(s: Slope):
    """The triangle one arc class at s expands to: s and its Stern-Brocot
    parents, or a terminal triangle at 0 and inf; not sorted."""
    return _TERMINAL_EXPANSIONS.get(s) or (s, *stern_brocot_parents(s))


def forced_move(rep):
    """The move on a representative that is not terminal, as (tag, result):
    one arc class expands, a triangle on one side of the fixed slope takes
    its sum-vertex flip, and the gateway {0, 1/2, 1} steps to
    M({0, 1, inf}) = {1/2, 2/3, 1}."""
    if len(rep) == 1:
        return MoveTag.EXPAND_FROM_I, expansion(rep[0])
    if len({fixed_side(s) for s in rep}) == 1:
        result, tag = sum_vertex_flip(rep)
        return tag, result
    assert rep == (ZERO, Slope(1, 2), ONE), rep
    return MoveTag.CASE_THREE_B, (Slope(1, 2), Slope(2, 3), ONE)


def transitions(slopes):
    """Every bypass that a three-arc configuration with one closed curve
    and these slopes admits, as (tag text, sorted result slopes) in its own
    frame: none from a terminal representative, the forced move, and above
    the fixed slope also the collapse of the triangle to one arc class at
    its minimum.  stepwise_window places the slopes and
    stepwise_monodromy(-shift) maps each result back."""
    shift, rep = stepwise_window(slopes)
    if rep in (TIGHT_TRIANGLE, OVERTWISTED_TRIANGLE):
        return []
    tag, result = forced_move(rep)
    moves = [(tag.value, result)]
    if len(rep) == 3 and {fixed_side(s) for s in rep} == {1}:
        moves.append((COLLAPSE, rep[:1]))
    return [(tag, tuple(sorted(_step(s, -shift) for s in result))) for tag, result in moves]


def plain_walk(c):
    """Drive a three-arc configuration of type I or III to its terminal
    orbit from this module's own pieces; return the end slopes in c's
    frame and the trace.

    stepwise_window places the start, and every move's result, in the
    window, forced_move moves the representative, and
    stepwise_monodromy(-shift) maps each result back to c's frame.  No
    step goes through legknot.bypass."""
    assert c.arcs() == 3 and c.kind is not ConfigKind.II, c
    trace = []
    if c.kind is ConfigKind.I and c.closed > 1:
        trace.append("ReduceClosed %dc->1c" % c.closed)
    shift, rep = stepwise_window(c.slopes)
    frame = c.slopes
    while rep not in (TIGHT_TRIANGLE, OVERTWISTED_TRIANGLE):
        tag, result = forced_move(rep)
        step, rep = stepwise_window(result)
        shift += step
        after = tuple(sorted(_step(s, -shift) for s in rep))
        trace.append("%s %s->%s" % (
            tag.value, ",".join(map(str, frame)), ",".join(map(str, after))))
        frame = after
    return frame, tuple(trace)


def tight_by_representative(slopes) -> bool:
    """The verdict read off the representative: standard-tight exactly when
    the minimum of the stepwise_window representative is at least 1, where
    one arc class is first expanded and placed again."""
    _, rep = stepwise_window(slopes)
    if len(rep) == 1:
        _, rep = stepwise_window(expansion(rep[0]))
    return rep[0] >= ONE


def trace_moves(trace):
    """The moves of a normalize trace as (tag, before, after), each side a
    tuple of slope texts; the ReduceClosed line is skipped."""
    moves = []
    for line in trace:
        tag, _, body = line.partition(" ")
        if tag != "ReduceClosed":
            before, after = body.split("->")
            moves.append((tag, tuple(before.split(",")), tuple(after.split(","))))
    return moves


def mapped_trace(trace, k):
    """A normalize trace with every slope mapped by M^k and each side sorted
    again; the ReduceClosed line is kept as it is."""
    def image(side):
        return ",".join(map(str, sorted(_step(parse_slope(t), k) for t in side.split(","))))

    out = []
    for line in trace:
        tag, _, body = line.partition(" ")
        if tag != "ReduceClosed":
            line = "%s %s" % (tag, "->".join(map(image, body.split("->"))))
        out.append(line)
    return tuple(out)


def _vector(text):
    """The vector (den, num) of a slope written 'n/d', 'n' or 'inf', read
    here rather than by legknot.lattice."""
    if text == "inf":
        return 0, 1
    num, _, den = text.partition("/")
    return int(den or 1), int(num)


def spans_farey_triangle(texts) -> bool:
    """Whether three slopes, written as in a trace, span a triangle of the
    tessellation: every pair of their vectors has determinant +-1."""
    vectors = [_vector(t) for t in texts]
    return len(vectors) == 3 and all(
        abs(a * d - b * c) == 1 for (a, b), (c, d) in itertools.combinations(vectors, 2))


def neg_cf_value(cf) -> Fraction:
    """r0 - 1/(r1 - 1/(... - 1/rk)), evaluated exactly from the tail."""
    num, den = cf[-1], 1
    for r in reversed(cf[:-1]):
        num, den = r * num - den, num
    return Fraction(num, den)


_SEED_WORDS = (
    "L 1\nR 1\n",
    "L 1\nL 2\nR 1\nR 1\n",
    "L 1\nL 1\nX 2\nX 2\nX 2\nR 1\nR 1\n",
    "L 1\nL 1\nL 1\nX 2\nX 4\nR 3\nX 2\nR 1\nR 1\n",
)


def random_valid_diagrams(count: int, seed: int = 20200615):
    """Deterministic stream of valid single-component diagrams.

    Seeds are the library's reference fronts; each output applies a
    random chain of stabilizations at random valid hints, which preserves
    validity by construction.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = parse_front(rng.choice(_SEED_WORDS))
        for _ in range(rng.randrange(0, 5)):
            profile = strand_profile(d)
            gaps = [g for g, n in enumerate(profile) if n > 0]
            gap = rng.choice(gaps)
            level = rng.randrange(1, profile[gap] + 1)
            sign = rng.choice((Sign.PLUS, Sign.MINUS))
            d = stabilize_diagram(d, sign, gap, level)
        out.append(d)
    return out


def front_state(d: FrontDiagram):
    """Everything a diagram stores, to compare a stabilization with a full build."""
    return vars(d)


def random_hints(d: FrontDiagram, rng: random.Random):
    profile = strand_profile(d)
    gaps = [g for g, n in enumerate(profile) if n > 0]
    gap = rng.choice(gaps)
    return gap, rng.randrange(1, profile[gap] + 1)


TREFOIL_WORD = "L 1\nL 1\nL 1\nX 2\nX 4\nR 3\nX 2\nR 1\nR 1\n"
RIGHT_TREFOIL_PEAK_WORD = "L 1\nL 1\nX 2\nX 2\nX 2\nR 1\nR 1\n"
STABILIZED_UNKNOT_WORD = "L 1\nL 2\nR 1\nR 1\n"
# configuration specs whose counts have more digits than int() converts
HUGE_COUNT_SPECS = ("I:infx1%s1+1c" % ("0" * 4998), "I:infx3+%sc" % ("9" * 5000))
