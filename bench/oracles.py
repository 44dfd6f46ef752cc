"""Independent computations the benchmark checks legknot against.

Nothing in this module imports legknot.  Every value comes either from a
closed form in the source paper and the literature it cites (Seifert's
genus of torus knots, Schubert's cable genus, the peak data of the
Etnyre-Honda classification) or from a direct construction on the Farey
graph, so a fault in the library cannot hide behind the same fault here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class Knot(NamedTuple):
    """A classified knot type in the library's canonical form."""

    kind: str  # "unknot" | "fig8" | "torus"
    p: int = 0
    q: int = 0

    @property
    def spec(self) -> str:
        return "torus:%d,%d" % (self.p, self.q) if self.kind == "torus" else self.kind


UNKNOT = Knot("unknot")
FIG8 = Knot("fig8")


def genus(k: Knot) -> int:
    """Seifert genus: 0, 1, and (|p| - 1)(q - 1)/2 for torus knots."""
    if k.kind == "unknot":
        return 0
    if k.kind == "fig8":
        return 1
    return (abs(k.p) - 1) * (k.q - 1) // 2


def max_tb(k: Knot) -> int:
    """Maximal Thurston-Bennequin invariant, from the Etnyre-Honda classification."""
    if k.kind == "unknot":
        return -1
    if k.kind == "fig8":
        return -3
    return k.p * k.q - k.p - k.q if k.p > 0 else k.p * k.q


def peak_count(k: Knot) -> int:
    """Number of maximal-tb classes: 2 * ceil((|p| - q)/q) for negative torus knots."""
    if k.kind == "torus" and k.p < 0:
        return 2 * ((-k.p - 1) // k.q)
    return 1


def peak_rotation(k: Knot, index: int) -> int:
    """Rotation of the index-th peak, 0 <= index < peak_count(k)."""
    if k.kind != "torus" or k.p > 0:
        return 0
    half = peak_count(k) // 2
    r = -k.p - k.q - 2 * k.q * (index % half)
    return r if index < half else -r


def realizable(k: Knot, tb: int, rot: int) -> bool:
    """(tb, rot) lies in the stabilization cone of some peak.

    Works in O(1): the peak rotations of a negative torus knot form two
    arithmetic progressions, so only the peaks nearest to rot are tried.
    """
    depth = max_tb(k) - tb
    if depth < 0:
        return False
    if k.kind != "torus" or k.p > 0:
        return abs(rot) <= depth and (depth - rot) % 2 == 0
    top = -k.p - k.q  # largest peak rotation
    if (rot - top - depth) % 2:
        return False
    count = peak_count(k) // 2
    for target in (rot, -rot):  # the negative progression is the mirror image
        j = min(max((top - target) // (2 * k.q), 0), count - 1)
        for idx in (j, min(j + 1, count - 1)):
            if abs(target - (top - 2 * k.q * idx)) <= depth:
                return True
    return False


def neg_torus(target: int, q: int) -> Knot:
    """Negative torus knot T(-a, q) with a the first integer >= target coprime to q."""
    a = max(target, q + 1)
    while gcd(a, q) != 1:
        a += 1
    return Knot("torus", -a, q)


def pos_torus(target: int, q: int) -> Knot:
    a = max(target, q + 1)
    while gcd(a, q) != 1:
        a += 1
    return Knot("torus", a, q)


def cable_sl(cables) -> int:
    """2g - 1 of an iterated positive cable, g_i = q_i g_{i-1} + (p_i - 1)(q_i - 1)/2.

    Schubert's cable genus formula; for positive cables the Bennequin
    bound 2g - 1 is the maximal self-linking number.
    """
    g = 0
    for p, q in cables:
        g = q * g + (p - 1) * (q - 1) // 2
    return 2 * g - 1


# --- Farey graph --------------------------------------------------------
#
# A slope is held as its primitive vector (x, y) = (den, num) with x > 0,
# or (0, 1) for inf, the same convention the source paper uses on the fiber.

INF = (0, 1)


def canonical(x: int, y: int) -> tuple[int, int]:
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    g = gcd(x, abs(y))
    return x // g, y // g


def slope_text(v) -> str:
    x, y = v
    if x == 0:
        return "inf"
    return str(y) if x == 1 else "%d/%d" % (y, x)


def parse_slope(text: str) -> tuple[int, int]:
    if text == "inf":
        return INF
    num, _, den = text.partition("/")
    return canonical(int(den) if den else 1, int(num))


def det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def is_triangle(slopes) -> bool:
    """Three slopes pairwise joined by Farey edges (determinant +-1)."""
    a, b, c = slopes
    return all(abs(det(s, t)) == 1 for s, t in ((a, b), (a, c), (b, c)))


def shift(v, k: int) -> tuple[int, int]:
    """Apply M^k with M = [[2, 1], [1, 1]] acting by (x, y) -> (2x + y, x + y)."""
    x, y = v
    for _ in range(abs(k)):
        x, y = (2 * x + y, x + y) if k > 0 else (x - y, 2 * y - x)
    return canonical(x, y)


def farey_triangle(rng, depth: int):
    """A tessellation triangle in [0, inf] whose mediant vertex has Farey depth `depth`.

    A Stern-Brocot descent from the parents 0 and inf: each step replaces
    one parent by their mediant.  The descent turns after runs of 1, 2 and
    3 steps in an order the seed shuffles, so the size of the slopes, and
    with it the cost of normalizing them, depends on the depth and hardly
    on the seed.
    """
    runs, total = [], 0
    while total < depth:
        runs.append(min(1 + len(runs) % 3, depth - total))
        total += runs[-1]
    rng.shuffle(runs)
    left, right = (1, 0), INF
    move_left = rng.random() < 0.5
    for run in runs:
        for _ in range(run):
            mid = (left[0] + right[0], left[1] + right[1])
            if move_left:
                left = mid
            else:
                right = mid
        move_left = not move_left
    return left, right, (left[0] + right[0], left[1] + right[1])


def neg_cf_value(cf) -> Fraction:
    """r0 - 1/(r1 - 1/(... - 1/rk)), evaluated exactly from the tail."""
    num, den = cf[-1], 1
    for r in reversed(cf[:-1]):
        num, den = r * num - den, num
    return Fraction(num, den)


def _left_parent(a: int, b: int) -> tuple[int, int]:
    """Stern-Brocot left parent c/d of a/b > 1: the smallest Farey neighbour, ad - bc = 1."""
    if b == 1:
        return a - 1, 1
    d = pow(a, -1, b)
    return (a * d - 1) // b, d


def _completions(u, v) -> set:
    (a, b), (c, d) = u, v
    return {canonical(b + d, a + c), canonical(b - d, a - c)}


def farey_path_count(p: int, q: int) -> int:
    """Tight structures on a solid torus with boundary slope -p/q, p > q > 0.

    Walks the shortest Farey path from p/q down to 1 (each step goes to the
    left Stern-Brocot parent), groups its edges into runs that pivot about
    a common triangle vertex, and multiplies (run length + 1) over the
    runs: the signs of the bypass layers shuffle within a run (Honda, On
    the classification of tight contact structures I).  Negating every
    slope maps this path to the one from -p/q to -1.
    """
    path = [(p, q)]
    while path[-1] != (1, 1):
        path.append(_left_parent(*path[-1]))
    edges = list(zip(path, path[1:]))
    count, run = 1, 1
    for prev, cur in zip(edges, edges[1:]):
        if _completions(*prev) & _completions(*cur):
            run += 1
        else:
            count *= run + 1
            run = 1
    return count * (run + 1)
