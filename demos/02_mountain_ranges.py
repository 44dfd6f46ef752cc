#!/usr/bin/env python3
"""Mountain ranges: the full landscape of Legendrian invariants.

For unknots, torus knots, and figure-eight knots the pair (tb, rot) is a
complete Legendrian invariant, so the classification is a picture: peaks
at maximal tb, and stabilization cones spreading below them.  Negative
torus knots are the interesting case, with several peaks whose cones
merge at "valleys".
"""

from pathlib import Path

from legknot import mountain_range, parse_knot, peak_rotations, max_tb, realizable
from legknot.classify import common_destabilization, peaks
from legknot.cli import render_range


def ascii_range(knot_text, depth):
    knot = parse_knot(knot_text)
    r = mountain_range(knot, depth)
    top = max_tb(knot)
    rots = sorted({rot for _, row in r.rows() for rot in row})
    print("%s   (max tb = %d, peak rotations %s)"
          % (knot, top, peak_rotations(knot)))
    header = "tb\\rot " + "".join("%4d" % rot for rot in rots)
    print(header)
    for tb in range(top, top - depth - 1, -1):
        row = "".join("   *" if realizable(knot, tb, rot) else "    " for rot in rots)
        print("%6d %s" % (tb, row))
    print()


ascii_range("unknot", 3)
ascii_range("fig8", 3)
ascii_range("torus:5,2", 3)
ascii_range("torus:-7,3", 3)

knot = parse_knot("torus:-7,3")
peak_list = peaks(knot)
print("Valleys of torus:-7,3 (first meets of adjacent peak cones):")
for a, b in zip(peak_list, peak_list[1:]):
    print("  peaks rot=%d and rot=%d meet at %s"
          % (a.rot, b.rot, common_destabilization(knot, a, b)))

out = Path(__file__).with_name("negative_torus_range.svg")
out.write_text(render_range(mountain_range(knot, 2), "svg"))
print()
print("SVG plot written to", out.name)
