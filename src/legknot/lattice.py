"""Exact slope arithmetic: Farey tessellation, negative continued
fractions, and the punctured-torus monodromy action.

A curve class on the torus is labeled by the slope of a primitive integer
vector: the class of (x, y) has slope y/x in lowest terms, with the
vertical class (0, 1) labeled ``inf``.  Two classes span an edge of the
Farey tessellation exactly when their primitive vectors form an integral
basis of Z^2 (determinant +-1), and the mediant construction labels the
third vertex of each triangle carried by an edge.

The monodromy of interest is the linear map (x, y) -> (2x + y, x + y),
which on slopes reads s -> (1 + s)/(2 + s).  Its attracting fixed slope
is the positive root of s^2 + s - 1; it is irrational and never
materialized.  The matrix M = [[2, 1], [1, 1]] is the square of the
Fibonacci matrix [[1, 1], [1, 0]], so with F the Fibonacci numbers

    M^k = [[F(2k+1), F(2k)], [F(2k), F(2k-1)]],
    M^-k = [[F(2k-1), -F(2k)], [-F(2k), F(2k+1)]],

and one fast-doubling evaluation of the pair (F(2k), F(2k+1)) gives any
power in O(log k) multiplications.  Negative continued fractions are
read off the regular ones in blocks, so they too cost O(log p) steps
before their terms are written out.  Everything in this module is exact
integer arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateEdge, InvalidFraction, InvalidSlope, NotAnEdge, decimal

__all__ = [
    "IntegralVector",
    "Slope",
    "INF",
    "ZERO",
    "ONE",
    "reduce_slope",
    "parse_slope",
    "slope_of_vector",
    "farey_det",
    "is_farey_edge",
    "mediant",
    "neg_cf_blocks",
    "neg_cf",
    "monodromy_matrix",
    "apply_matrix",
    "farey_parents",
    "farey_depth",
]


@dataclass(frozen=True)
class IntegralVector:
    """An integer vector; primitive when it represents a curve class."""

    x: int
    y: int

    def is_primitive(self) -> bool:
        return gcd(abs(self.x), abs(self.y)) == 1

    def __add__(self, other: "IntegralVector") -> "IntegralVector":
        return IntegralVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "IntegralVector") -> "IntegralVector":
        return IntegralVector(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Slope:
    """A reduced extended rational num/den labeling a torus curve class.

    Canonical form: den > 0 with the sign carried by num and
    gcd(|num|, den) = 1, or (num, den) = (1, 0) for the point at
    infinity.  Build values through :func:`reduce_slope`; the constructor
    rejects anything non-canonical.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den == 0:
            if self.num != 1:
                raise InvalidSlope("infinity is canonically 1/0")
        elif self.den < 0 or gcd(abs(self.num), self.den) != 1:
            raise InvalidSlope("slope %r/%r is not reduced" % (self.num, self.den))

    @property
    def is_inf(self) -> bool:
        return self.den == 0

    def vector(self) -> IntegralVector:
        """Canonical primitive vector: (den, num), and (0, 1) for inf."""
        return IntegralVector(self.den, self.num)

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return "%d/%d" % (self.num, self.den)

    # Total order with inf = 1/0 largest: no denominator is negative.
    def __lt__(self, other):
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other):
        return self.num * other.den > other.num * self.den

    def __ge__(self, other):
        return self.num * other.den >= other.num * self.den


INF = Slope(1, 0)
ZERO = Slope(0, 1)
ONE = Slope(1, 1)


def reduce_slope(num: int, den: int) -> Slope:
    """Canonical reduced slope; (k, 0) maps to inf for any k != 0."""
    if num == 0 and den == 0:
        raise InvalidSlope("0/0 is not a slope")
    if den == 0:
        return INF
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    return Slope(num // g, den // g)


def parse_slope(text: str) -> Slope:
    """Parse 'a/b', 'a', or 'inf' back into a canonical slope."""
    text = text.strip()
    if text == "inf":
        return INF
    try:
        if "/" in text:
            num_text, den_text = text.split("/", 1)
            return reduce_slope(decimal(num_text), decimal(den_text))
        return Slope(decimal(text), 1)
    except (ValueError, InvalidSlope) as exc:
        raise InvalidSlope("cannot parse slope %r" % text) from exc


def slope_of_vector(v: IntegralVector) -> Slope:
    """Slope y/x of a nonzero integer vector."""
    return reduce_slope(v.y, v.x)


def farey_det(u: IntegralVector, v: IntegralVector) -> int:
    """Determinant u.x*v.y - u.y*v.x of two integer vectors.

    Its absolute value on primitive vectors is half the geometric
    intersection number of the corresponding curve classes with one
    dividing-curve pair.
    """
    return u.x * v.y - u.y * v.x


def is_farey_edge(s: Slope, t: Slope) -> bool:
    """True iff the primitive vectors of s and t form an integral basis."""
    if s == t:
        raise DegenerateEdge("equal slopes %s do not span an edge" % s)
    return abs(farey_det(s.vector(), t.vector())) == 1


def mediant(s: Slope, t: Slope) -> Slope:
    """Component-wise sum of the canonical primitive representatives.

    For a Farey edge the sum of the two basis vectors is itself
    primitive, so no reduction step is actually needed.
    """
    if not is_farey_edge(s, t):
        raise NotAnEdge("%s and %s are not joined in the tessellation" % (s, t))
    return slope_of_vector(s.vector() + t.vector())


def _regular_cf(p: int, q: int) -> list[int]:
    """Partial quotients [a0; a1, ..., an] of p/q >= 0 by one Euclid pass."""
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    return out


def neg_cf_blocks(p: int, q: int) -> list[tuple[int, int]]:
    """Negative continued fraction of -p/q as runs (entry, count).

    For coprime p > q > 0 with p/q = [a0; a1, ..., an], the entries of
    -p/q = r0 - 1/(r1 - 1/(... - 1/rk)), all <= -2, run

        -(a0 + 1), (a1 - 1) x -2, -(a2 + 2), (a3 - 1) x -2, ...

    and when n is even the last entry is one higher: -(an + 1), or -a0
    when n = 0.  There are n + 1 runs, O(log p) of them.
    """
    if not (p > q > 0):
        raise InvalidFraction("need p > q > 0, got p=%r q=%r" % (p, q))
    if gcd(p, q) != 1:
        raise InvalidFraction("p=%r and q=%r are not coprime" % (p, q))
    quotients = _regular_cf(p, q)
    blocks = [(-2, a - 1) if i % 2 else (-a - (2 if i else 1), 1)
              for i, a in enumerate(quotients)]
    if len(quotients) % 2:  # n even
        blocks[-1] = (blocks[-1][0] + 1, 1)
    return blocks


def neg_cf(p: int, q: int) -> list[int]:
    """Negative continued fraction (r0, ..., rk) of -p/q for coprime
    p > q > 0: every ri <= -2 and r0 - 1/(r1 - 1/(... - 1/rk)) = -p/q."""
    return [r for r, run in neg_cf_blocks(p, q) for _ in range(run)]


def monodromy_matrix(k: int = 1) -> tuple[tuple[int, int], tuple[int, int]]:
    """The k-th power of the monodromy matrix, from the pair
    (F(2|k|), F(2|k|+1)) by fast doubling: O(log k) multiplications."""
    f, g = 0, 1
    for bit in bin(2 * abs(k))[2:]:
        f, g = f * (2 * g - f), f * f + g * g  # (F(n), F(n+1)) -> (F(2n), F(2n+1))
        if bit == "1":
            f, g = g, f + g
    return ((g, f), (f, g - f)) if k >= 0 else ((g - f, -f), (-f, g))


def apply_matrix(
    mat: tuple[tuple[int, int], tuple[int, int]], v: IntegralVector
) -> IntegralVector:
    """The integer matrix mat applied to the column vector v."""
    (a, b), (c, d) = mat
    return IntegralVector(a * v.x + b * v.y, c * v.x + d * v.y)


def farey_parents(s: Slope) -> tuple[Slope, Slope]:
    """Stern-Brocot parents (left, right) of a positive slope.

    Every Farey neighbor of s lies in the closed arc between the two
    parents, so the left parent is the smallest neighbor and the right
    parent the largest.  Defined for finite s > 0; the base vertices
    0 and inf have no parents.
    """
    if s.is_inf or s.num <= 0:
        raise InvalidSlope("parents are defined for finite positive slopes, not %s" % s)
    m, n = s.num, s.den
    if n == 1:
        return Slope(m - 1, 1), INF
    b = pow(m, -1, n)
    a = (m * b - 1) // n
    return reduce_slope(a, b), reduce_slope(m - a, n - b)


def farey_depth(s: Slope) -> int:
    """Number of mediant steps from the base vertices 0, +-1, inf."""
    if s.is_inf or s.num == 0:
        return 0
    return sum(_regular_cf(abs(s.num), s.den)) - 1
