#!/usr/bin/env python3
"""Exact slope arithmetic: the Farey tessellation and tight-torus counts.

Curve classes on a torus are extended rationals; classes forming a basis
of the homology lattice span an edge of the Farey tessellation, and each
edge bounds exactly two triangles.  Negative continued fractions with
entries <= -2 drive the count of tight contact structures on a solid
torus with given boundary slope.
"""

from fractions import Fraction

from legknot import is_farey_edge, mediant, neg_cf, parse_slope
from legknot.convex import tight_count
from legknot.lattice import slope_of_vector

s, t = parse_slope("1/2"), parse_slope("1/3")
print("Is (1/2, 1/3) a tessellation edge?", is_farey_edge(s, t))
difference = slope_of_vector(s.vector() - t.vector())
print("Its two completing vertices:", (str(mediant(s, t)), str(difference)))
print("Mediant chain from (0, 1):")
lo, hi = parse_slope("0"), parse_slope("1")
for _ in range(5):
    mid = mediant(lo, hi)
    print("  %s < %s < %s" % (lo, mid, hi))
    lo = mid

print()
print("Negative continued fractions (all entries <= -2) and reconstruction:")
for p, q in ((5, 3), (7, 3), (17, 5)):
    cf = neg_cf(p, q)
    value = Fraction(cf[-1])
    for r in reversed(cf[:-1]):
        value = r - Fraction(1) / value
    print("  -%d/%d = %s  ->  %s" % (p, q, cf, value))

print()
print("Tight contact structures on a solid torus, boundary slope -p/q:")
for p, q in ((2, 1), (3, 1), (5, 3), (7, 3), (8, 5), (20, 13)):
    print("  slope -%d/%-2d : %d tight structure(s)" % (p, q, tight_count(p, q)))
