"""Combinatorial consequences of convex-surface theory.

Three separate pieces of machinery live here:

* Twist and tb from dividing-set intersections on a torus.  A dividing
  set of 2n parallel curves of slope s meets a transverse curve class c
  in 2n|det| points, giving twist -n|det| and, for a (p, q) curve on the
  standard torus, tb = pq - n|det|.

* Rotation numbers from dividing sets on a disk.  A disk whose boundary
  has tb = -m carries m disjoint boundary-to-boundary chords; the regions
  between them are 2-colored, and the rotation number is the signed
  region count chi(S+) - chi(S-).  Over all non-crossing chord diagrams
  and both colorings these are exactly {m-1, m-3, ..., 1-m}.

* Tight-structure counts on solid tori.  With (r0, ..., rk) the negative
  continued fraction of -p/q, the number of tight structures with two
  dividing curves of boundary slope -p/q is
  |(r0 + 1) ... (r_{k-1} + 1) (r_k)|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Unsupported, ZeroIntersection
from .lattice import IntegralVector, Slope, farey_det, neg_cf_blocks

__all__ = [
    "TorusDividingSet",
    "DiskChordDiagram",
    "twist_from_dividing",
    "torus_tb",
    "disk_rotation_set",
    "tight_count",
]


@dataclass(frozen=True)
class TorusDividingSet:
    """2n parallel essential curves of a common slope on a torus."""

    slope: Slope
    pairs: int  # n; the dividing set has 2n curves

    def __post_init__(self):
        if self.pairs < 1:
            raise Unsupported("a dividing set has at least one curve pair")


def twist_from_dividing(curve: IntegralVector, d: TorusDividingSet) -> int:
    """Twist of a curve on the torus: minus half its dividing-set count.

    The curve class must be primitive.  A class parallel to the dividing
    slope meets it zero times, and that degenerate case raises.
    """
    if not curve.is_primitive():
        raise Unsupported("curve class %r is not primitive" % (curve,))
    det = farey_det(curve, d.slope.vector())
    if det == 0:
        raise ZeroIntersection(
            "curve class is parallel to the dividing slope %s" % d.slope
        )
    return -d.pairs * abs(det)


def torus_tb(p: int, q: int, d: TorusDividingSet) -> int:
    """tb of a (p, q) curve on a standard torus with the given dividing set.

    The Seifert framing differs from the torus framing by pq, so
    tb = pq - (half the intersection count with the dividing set).
    """
    det = farey_det(IntegralVector(p, q), d.slope.vector())
    return p * q - d.pairs * abs(det)


@dataclass(frozen=True)
class DiskChordDiagram:
    """m disjoint chords on a disk with alternating region signs.

    ``matching`` pairs up the boundary points 0..2m-1 without crossings;
    ``root_positive`` fixes the sign of the region touching the boundary
    arc between points 2m-1 and 0.  Signs alternate across every chord,
    so one bit determines the whole coloring.
    """

    m: int
    matching: tuple[tuple[int, int], ...]
    root_positive: bool = True

    def __post_init__(self):
        seen = sorted(pt for pair in self.matching for pt in pair)
        if len(self.matching) != self.m or seen != list(range(2 * self.m)):
            raise ValueError("matching must pair the points 0..2m-1")
        for a, b in self.matching:
            for c, d in self.matching:
                if a < c < b < d:
                    raise ValueError("chords (%d,%d) and (%d,%d) cross" % (a, b, c, d))

    def region_counts(self) -> tuple[int, int]:
        """(positive, negative) region counts for the stored coloring."""
        plus, minus = (1, 0) if self.root_positive else (0, 1)
        for a, b in self.matching:
            depth = sum(1 for c, d in self.matching if c < a and b < d)
            inner_positive = self.root_positive ^ (depth % 2 == 0)
            if inner_positive:
                plus += 1
            else:
                minus += 1
        return plus, minus

    def rotation(self) -> int:
        """chi(S+) - chi(S-); every region is a disk, so a signed count."""
        plus, minus = self.region_counts()
        return plus - minus


def disk_rotation_set(m: int) -> set[int]:
    """Rotation numbers of a tb = -m disk boundary: {m-1, m-3, ..., 1-m}.

    The m chords cut the disk into m + 1 disk regions of both colors, so the
    signed count is 2 * (positive regions) - (m + 1), and each of 1 to m
    positive regions occurs (Honda, On the classification of tight contact
    structures I).
    """
    if m < 1:
        raise Unsupported("need at least one chord")
    return set(range(1 - m, m, 2))


def tight_count(p: int, q: int) -> int:
    """Number of tight structures on a solid torus with boundary slope -p/q.

    Product formula over the negative continued fraction: all factors
    |ri + 1| except the last, which contributes |rk|.  A run of -2 entries
    contributes 1, so one factor per run suffices.
    """
    blocks = neg_cf_blocks(p, q)
    count = -blocks[-1][0]
    for r, _ in blocks[:-1]:
        count *= -r - 1
    return count
