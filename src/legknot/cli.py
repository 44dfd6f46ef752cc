"""Command-line surface over the library.

Subcommands expose one computation each with line-oriented, byte-stable
output.  Exit codes: 0 success, 1 invalid input, 2 valid query whose
mathematical answer is negative (predicates only), 3 internal step limit
exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import bypass, classify, convex, front, lattice, transversal
from .errors import LegknotError, NonTermination

__all__ = ["main", "render_range"]


def render_range(r: classify.MountainRange, format: str = "tsv") -> str:
    """Render a mountain range as TSV lines or a static SVG plot."""
    pairs = sorted(r.pairs, key=lambda p: (-p[0], p[1]))
    if format == "tsv":
        return "".join("%d\t%d\n" % p for p in pairs)
    if format == "svg":
        return _render_svg(r, pairs)
    raise LegknotError("unknown range format %r" % format)


def _render_svg(r: classify.MountainRange, pairs) -> str:
    step = 24
    pad = 30
    rots = [p[1] for p in pairs]
    tbs = [p[0] for p in pairs]
    rmin, rmax = min(rots), max(rots)
    tmax = max(tbs)
    width = pad * 2 + (rmax - rmin) * step
    height = pad * 2 + r.depth * step

    def xy(tb, rot):
        return pad + (rot - rmin) * step, pad + (tmax - tb) * step

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (width, height),
        "<title>Legendrian mountain range of %s</title>" % r.knot,
        "<defs>",
        '<marker id="arrow" viewBox="0 0 6 6" refX="5" refY="3" markerWidth="5" '
        'markerHeight="5" orient="auto"><path d="M0,0 L6,3 L0,6 z"/></marker>',
        "</defs>",
    ]
    pair_set = r.pairs
    for tb, rot in pairs:  # stabilization arrows to the two children
        for child_rot in (rot - 1, rot + 1):
            if (tb - 1, child_rot) in pair_set:
                x1, y1 = xy(tb, rot)
                x2, y2 = xy(tb - 1, child_rot)
                out.append(
                    '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="gray" '
                    'stroke-width="1" marker-end="url(#arrow)"/>' % (x1, y1, x2, y2)
                )
    for tb, rot in pairs:
        x, y = xy(tb, rot)
        out.append('<circle cx="%d" cy="%d" r="4"/>' % (x, y))
        out.append(
            '<text x="%d" y="%d" font-size="9" text-anchor="middle">(%d,%d)</text>'
            % (x, y - 8, tb, rot)
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legknot",
        description="Classical invariants and classification of Legendrian "
        "and transversal unknots, torus knots, and figure-eight knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants",
        help="tb, rotation and writhe of a front diagram "
        "(front-projection formulas tb = w - #right cusps, r = (D - U)/2)",
    )
    p.add_argument("front", help="path to a front file, or - for stdin")
    p.add_argument(
        "--knot",
        help="declared knot type; rejects the diagram if the Bennequin "
        "inequality tb + |r| <= -chi fails for that type",
    )

    p = sub.add_parser(
        "classify",
        help="peak data and realizability for a knot type (classification "
        "of Legendrian knots by knot type, tb and rotation number)",
    )
    p.add_argument("knot")
    p.add_argument("tb", nargs="?", type=int)
    p.add_argument("rot", nargs="?", type=int)

    p = sub.add_parser(
        "isotopic",
        help="decide Legendrian isotopy of two classes (the classical "
        "invariants form a complete set for these knot types)",
    )
    for name in ("knot1", "tb1", "rot1", "knot2", "tb2", "rot2"):
        p.add_argument(name, type=int if name[0] in "tr" else str)

    p = sub.add_parser(
        "range",
        help="mountain range of realizable (tb, rotation) pairs "
        "(peak theorems for maximal tb plus stabilization cones)",
    )
    p.add_argument("--knot", required=True)
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--format", choices=("tsv", "svg"), default="tsv")

    p = sub.add_parser(
        "valleys",
        help="first meeting points of adjacent peak cones of a negative "
        "torus knot (valley lemma via |p| = mq + e)",
    )
    p.add_argument("--knot", required=True)

    p = sub.add_parser(
        "farey-cf",
        help="negative continued fraction of -p/q with all entries <= -2",
    )
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser(
        "farey-count",
        help="number of tight contact structures on a solid torus with "
        "boundary slope -p/q (continued-fraction product from the "
        "classification of tight structures on solid tori)",
    )
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser(
        "bypass-normalize",
        help="normalize a dividing-curve configuration on the punctured-"
        "torus fiber (standard tight form {1,2,inf} vs overtwisted "
        "{0,1,inf}, or a forced destabilization)",
    )
    p.add_argument("config")
    p.add_argument("--step-limit", type=int, default=None)

    p = sub.add_parser(
        "transversal-max-sl",
        help="maximal self-linking number of a transversal knot "
        "(equals max of tb + r over Legendrian peaks)",
    )
    p.add_argument("knot")

    p = sub.add_parser(
        "transversal-iterated",
        help="maximal self-linking of an iterated torus knot "
        "(braid writhe a_i = q_i a_{i-1} + (q_i - 1) p_i, sl = a_n - q_1...q_n)",
    )
    p.add_argument("cables", help="cabling list 'p1,q1;p2,q2;...'")

    p = sub.add_parser(
        "bounds",
        help="compare max tb of a torus knot against the Bennequin and "
        "Kauffman-polynomial (Fuchs-Tabachnikov) upper bounds",
    )
    p.add_argument("knot")

    return parser


def _read_front(path: str) -> front.FrontDiagram:
    if path == "-":
        return front.parse_front(sys.stdin.read())
    with open(path, "rb") as handle:
        return front.parse_front(handle.read())


def _run(args) -> int:
    out = sys.stdout

    if args.command == "invariants":
        inv = front.invariants(_read_front(args.front))
        out.write(
            "tb=%d\nrot=%d\nwrithe=%d\nright_cusps=%d\n"
            % (inv.tb, inv.rot, inv.writhe, inv.right_cusps)
        )
        if args.knot is not None:
            knot = classify.parse_knot(args.knot)
            if not front.bennequin_compatible(inv, knot):
                out.write("bennequin=violated\n")
                return 2
            out.write("bennequin=ok\n")
        return 0

    if args.command == "classify":
        knot = classify.parse_knot(args.knot)
        out.write("knot=%s\n" % knot)
        out.write("max_tb=%d\n" % classify.max_tb(knot))
        rots = ",".join(str(r) for r in sorted(classify.peak_rotations(knot)))
        out.write("peak_rotations=%s\n" % rots)
        if args.tb is None:
            return 0
        if args.rot is None:
            raise LegknotError("classify needs both tb and rot (or neither)")
        ok = classify.realizable(knot, args.tb, args.rot)
        out.write("realizable=%s\n" % ("true" if ok else "false"))
        return 0 if ok else 2

    if args.command == "isotopic":
        a = classify.LegendrianClass(classify.parse_knot(args.knot1), args.tb1, args.rot1)
        b = classify.LegendrianClass(classify.parse_knot(args.knot2), args.tb2, args.rot2)
        verdict = classify.decide_isotopy(a, b)
        out.write("%s\n" % verdict.value)
        return 0 if verdict is classify.Verdict.ISOTOPIC else 2

    if args.command == "range":
        knot = classify.parse_knot(args.knot)
        r = classify.mountain_range(knot, args.depth)
        out.write(render_range(r, args.format))
        return 0

    if args.command == "valleys":
        knot = classify.parse_knot(args.knot)
        peak_list = classify.peaks(knot)
        meets = [
            classify.common_destabilization(knot, peak_list[i], peak_list[i + 1])
            for i in range(len(peak_list) - 1)
        ]
        for tb, rot in sorted(meets, key=lambda p: (-p[0], p[1])):
            out.write("%d\t%d\n" % (tb, rot))
        return 0

    if args.command == "farey-cf":
        out.write(" ".join(str(r) for r in lattice.neg_cf(args.p, args.q)) + "\n")
        return 0

    if args.command == "farey-count":
        out.write("%d\n" % convex.tight_count(args.p, args.q))
        return 0

    if args.command == "bypass-normalize":
        config = bypass.make_config(args.config)
        outcome = bypass.normalize(config, args.step_limit)
        out.write("outcome=%s\n" % outcome.kind.value)
        out.write("steps=%d\n" % outcome.steps)
        for line in outcome.trace:
            out.write(line + "\n")
        return 0

    if args.command == "transversal-max-sl":
        out.write("%d\n" % transversal.max_sl(classify.parse_knot(args.knot)))
        return 0

    if args.command == "transversal-iterated":
        cables = transversal.parse_cables(args.cables)
        out.write("%d\n" % transversal.iterated_max_sl(cables))
        return 0

    if args.command == "bounds":
        report = classify.bounds_report(classify.parse_knot(args.knot))
        out.write("bennequin=%d\n" % report.bennequin)
        if report.fuchs_tabachnikov is not None:
            out.write("fuchs_tabachnikov=%d\n" % report.fuchs_tabachnikov)
        out.write("max_tb=%d\n" % report.max_tb)
        out.write("strict=%s\n" % ("true" if report.strict else "false"))
        return 0

    raise LegknotError("unknown command %r" % args.command)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except NonTermination as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (LegknotError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
