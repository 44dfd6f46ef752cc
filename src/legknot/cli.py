"""Command-line surface over the library.

Subcommands expose one computation each with line-oriented, byte-stable
output.  Exit codes: 0 success, 1 invalid input, 2 valid query whose
mathematical answer is negative (predicates only), 3 a step limit below
the exact move count.  A usage error is invalid input too (exit 1).  Each
subparser names a handler, which makes every refusal first (MountainRange
constructor; peak count of ``classify``, after its tb/rot check, and of
``valleys``; term count of ``farey-cf``; move count and step limit of
``bypass-normalize``), then returns its exit code and text chunks: one per
tb row for ``range`` and ``valleys`` (per 4,096 values of a longer row, as
in the ``classify`` peak line), one per line for ``bypass-normalize``,
else one.  ``main`` writes them as they come, so exits 1 and 3 leave stdout
empty; an error mid-stream leaves the partial stdout, one ``error:`` line
and exit 1 (3 for NonTermination); and a reader that closes stdout early
ends the run quietly, with the handler's exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import bypass, classify, convex, front, lattice, transversal
from .errors import LegknotError, NonTermination, Unsupported, decimal

__all__ = ["main", "render_range"]
_CHUNK = 2**12  # the most values that one chunk formats


def render_range(r: classify.MountainRange, format: str = "tsv") -> str:
    """Render a mountain range as TSV lines or a static SVG plot."""
    return "".join(_range_chunks(r, format))


def _range_chunks(r: classify.MountainRange, format: str):
    """One chunk per tb row; the SVG adds a head, a second pass over the rows and a tail."""
    if format not in ("tsv", "svg"):
        raise LegknotError("unknown range format %r" % format)
    if format == "tsv":
        yield from _int_chunks(("%d\t%%d\n" % tb, rots) for tb, rots in r.rows())
        return
    step, pad = 24, 30
    top = classify.peak_progression(r.knot)[0]
    rmin, rmax = -top - r.depth, top + r.depth  # the bottom row's ends
    ys = range(pad, pad + r.depth * step + 1, step)  # each row's y, top down
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">\n'
        "<title>Legendrian mountain range of %s</title>\n<defs>\n"
        '<marker id="arrow" viewBox="0 0 6 6" refX="5" refY="3" markerWidth="5" '
        'markerHeight="5" orient="auto"><path d="M0,0 L6,3 L0,6 z"/></marker>\n</defs>\n'
        % (pad * 2 + (rmax - rmin) * step, ys[-1] + pad, r.knot)
    )
    # arrows: a class above the bottom row has both children (tb - 1, rot -+ 1)
    for y, (_, rots) in zip(ys[:-1], r.rows()):
        yield "".join([
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="gray" stroke-width="1" '
            'marker-end="url(#arrow)"/>\n' % (x, y, x2, y + step)
            for x in (pad + (rot - rmin) * step for rot in rots)
            for x2 in (x - step, x + step)
        ])
    for y, (tb, rots) in zip(ys, r.rows()):
        yield "".join([
            '<circle cx="%d" cy="%d" r="4"/>\n<text x="%d" y="%d" font-size="9" '
            'text-anchor="middle">(%d,%d)</text>\n' % (x, y, x, y - 8, tb, rot)
            for rot in rots for x in [pad + (rot - rmin) * step]
        ])
    yield "</svg>\n"


def _int_chunks(rows):
    """fmt % v for each v of each (fmt, values) row, in chunks of at most _CHUNK values."""
    for fmt, values in rows:
        for i in range(0, len(values), _CHUNK):
            part = values[i:i + _CHUNK]
            yield fmt * len(part) % tuple(part)


def _read_front(path: str) -> front.FrontDiagram:
    if path == "-":
        return front.parse_front(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return front.parse_front(handle.read())


def _invariants(args):
    inv = front.invariants(_read_front(args.front))
    text = "tb=%d\nrot=%d\nwrithe=%d\nright_cusps=%d\n" % (
        inv.tb, inv.rot, inv.writhe, inv.right_cusps
    )
    if args.knot is None:
        return 0, [text]
    ok = front.bennequin_compatible(inv, classify.parse_knot(args.knot))
    return (0 if ok else 2), [text + "bennequin=%s\n" % ("ok" if ok else "violated")]


def _classify(args):
    knot = classify.parse_knot(args.knot)
    if args.tb is not None and args.rot is None:
        raise LegknotError("classify needs both tb and rot (or neither)")
    peaks = _int_chunks([(",%d", classify.peak_rotations(knot))])  # never empty
    head = "knot=%s\nmax_tb=%d\npeak_rotations=%s" % (knot, classify.max_tb(knot), next(peaks)[1:])
    ok = args.tb is None or classify.realizable(knot, args.tb, args.rot)
    tail = "" if args.tb is None else "realizable=%s\n" % ("true" if ok else "false")
    return (0 if ok else 2), itertools.chain([head], peaks, ["\n" + tail])


def _isotopic(args):
    a = classify.LegendrianClass(classify.parse_knot(args.knot1), args.tb1, args.rot1)
    b = classify.LegendrianClass(classify.parse_knot(args.knot2), args.tb2, args.rot2)
    verdict = classify.decide_isotopy(a, b)
    return (0 if verdict is classify.Verdict.ISOTOPIC else 2), [verdict.value + "\n"]


def _farey_cf(args):
    blocks = lattice.neg_cf_blocks(args.p, args.q)
    terms = sum(run for _, run in blocks)
    if terms > classify.MAX_ROWS:
        raise Unsupported("-%d/%d has %d continued-fraction terms, more than the cap of %d"
                          % (args.p, args.q, terms, classify.MAX_ROWS))
    return 0, ["".join(("%d " % r) * run for r, run in blocks)[:-1] + "\n"]


def _bypass_normalize(args):
    outcome = bypass.normalize(bypass.make_config(args.config), args.step_limit)
    head = "outcome=%s" % outcome.kind.value, "steps=%d" % outcome.steps
    return 0, (line + "\n" for lines in (head, outcome.trace) for line in lines)


def _bounds(args):
    report = classify.bounds_report(classify.parse_knot(args.knot))
    text = "bennequin=%d\n" % report.bennequin
    if report.fuchs_tabachnikov is not None:
        text += "fuchs_tabachnikov=%d\n" % report.fuchs_tabachnikov
    return 0, [text + "max_tb=%d\nstrict=%s\n" % (
        report.max_tb, "true" if report.strict else "false"
    )]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a LegknotError, so that it exits 1."""

    def error(self, message):
        raise LegknotError("%s: %s" % (self.prog, message))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(run=_invariants)

    p = sub.add_parser(
        "classify",
        help="peak data and realizability for a knot type (classification "
        "of Legendrian knots by knot type, tb and rotation number)",
    )
    p.add_argument("knot")
    p.add_argument("tb", nargs="?", type=decimal)
    p.add_argument("rot", nargs="?", type=decimal)
    p.set_defaults(run=_classify)

    p = sub.add_parser(
        "isotopic",
        help="decide Legendrian isotopy of two classes (the classical "
        "invariants form a complete set for these knot types)",
    )
    for name in ("knot1", "tb1", "rot1", "knot2", "tb2", "rot2"):
        p.add_argument(name, type=decimal if name[0] in "tr" else str)
    p.set_defaults(run=_isotopic)

    p = sub.add_parser(
        "range",
        help="mountain range of realizable (tb, rotation) pairs "
        "(peak theorems for maximal tb plus stabilization cones)",
    )
    p.add_argument("--knot", required=True)
    p.add_argument("--depth", required=True, type=decimal)
    p.add_argument("--format", choices=("tsv", "svg"), default="tsv")
    p.set_defaults(run=lambda a: (0, _range_chunks(
        classify.mountain_range(classify.parse_knot(a.knot), a.depth), a.format
    )))

    p = sub.add_parser(
        "valleys",
        help="first meeting points of adjacent peak cones of a negative "
        "torus knot (valley lemma via |p| = mq + e)",
    )
    p.add_argument("--knot", required=True)
    p.set_defaults(run=lambda a: (0, _int_chunks(
        ("%d\t%%d\n" % tb, rots) for tb, rots in classify.valley_rows(classify.parse_knot(a.knot))
    )))

    p = sub.add_parser(
        "farey-cf",
        help="negative continued fraction of -p/q with all entries <= -2",
    )
    p.add_argument("p", type=decimal)
    p.add_argument("q", type=decimal)
    p.set_defaults(run=_farey_cf)

    p = sub.add_parser(
        "farey-count",
        help="number of tight contact structures on a solid torus with "
        "boundary slope -p/q (continued-fraction product from the "
        "classification of tight structures on solid tori)",
    )
    p.add_argument("p", type=decimal)
    p.add_argument("q", type=decimal)
    p.set_defaults(run=lambda a: (0, ["%d\n" % convex.tight_count(a.p, a.q)]))

    p = sub.add_parser(
        "bypass-normalize",
        help="normalize a dividing-curve configuration on the punctured-"
        "torus fiber (standard tight form {1,2,inf} vs overtwisted "
        "{0,1,inf}, or a forced destabilization)",
    )
    p.add_argument("config")
    p.add_argument("--step-limit", type=decimal, default=None)
    p.set_defaults(run=_bypass_normalize)

    p = sub.add_parser(
        "transversal-max-sl",
        help="maximal self-linking number of a transversal knot "
        "(equals max of tb + r over Legendrian peaks)",
    )
    p.add_argument("knot")
    p.set_defaults(run=lambda a: (0, ["%d\n" % transversal.max_sl(classify.parse_knot(a.knot))]))

    p = sub.add_parser(
        "transversal-iterated",
        help="maximal self-linking of an iterated torus knot "
        "(braid writhe a_i = q_i a_{i-1} + (q_i - 1) p_i, sl = a_n - q_1...q_n)",
    )
    p.add_argument("cables", help="cabling list 'p1,q1;p2,q2;...'")
    p.set_defaults(run=lambda a: (
        0, ["%d\n" % transversal.iterated_max_sl(transversal.parse_cables(a.cables))]
    ))

    p = sub.add_parser(
        "bounds",
        help="compare max tb of a torus knot against the Bennequin and "
        "Kauffman-polynomial (Fuchs-Tabachnikov) upper bounds",
    )
    p.add_argument("knot")
    p.set_defaults(run=_bounds)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, chunks = args.run(args)
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # inside the try, so that a closed pipe is caught here too
    except BrokenPipeError:  # the reader closed stdout: stop, and flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except NonTermination as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (LegknotError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
