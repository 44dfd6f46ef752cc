"""The three benchmark workloads: inputs, operations and their checks.

Each workload is a generator of rounds.  A round always holds the same
operation classes in the same numbers, so every run attempts whole rounds
and the share of failed operations does not depend on the seed or on the
run length.  The seed only picks the inputs inside each slot of a round:
sizes follow fixed ladders and the seed jitters them, which keeps the cost
of a round steady from seed to seed.

An operation is one call of a public entry point: ``legknot.cli.main``
with stdout captured where a subcommand exists, the library function
otherwise.  Its check compares the output with the independent values in
:mod:`oracles` or with properties the method must have, never with saved
output.  Checks run outside the timed call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

from legknot import bypass, cli, convex, front
from legknot.classify import Sign

import oracles as o
from oracles import FIG8, UNKNOT, Knot


class CheckFailed(Exception):
    """A program output that contradicts an independent check."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None  # the known fault this operation reproduces


@dataclass
class CliResult:
    rc: int
    out: str


@dataclass
class Env:
    """Where a run writes its front files, and whether rounds are tiny."""

    workdir: Path
    tiny: bool = False
    files: int = 0

    def write_front(self, text: str) -> str:
        path = self.workdir / ("front%d.txt" % (self.files % 64))
        self.files += 1
        path.write_text(text)
        return str(path)


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue())


def cli_op(kind, argv, check, fault=None) -> Op:
    return Op(kind, lambda: run_cli(argv), check, fault)


def ensure(cond, message, *args) -> None:
    if not cond:
        raise CheckFailed(message % args if args else message)


def fields(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.splitlines())


def rows(out: str) -> list:
    return [tuple(int(x) for x in line.split("\t")) for line in out.splitlines()]


def ladder(lo: float, hi: float, n: int, i: int) -> float:
    """i-th of n log-spaced sizes from lo to hi."""
    return lo * (hi / lo) ** (i / max(n - 1, 1))


def jitter(rng, x: float, spread: float = 0.03) -> int:
    return max(1, round(x * rng.uniform(1 - spread, 1 + spread)))


# --- fronts ---------------------------------------------------------------

SNAPSHOT_EVERY = 25
CHAIN_STRIDES = (1, 2, 4)  # chain i advances on every stride-th step of a round
WIDE_READS = 12  # per round; the largest reads, so they set op_p99_ms


def seed_front(n: int) -> tuple[str, Knot]:
    """Front text and type: L1 R1 for n = 1, else L1 L1 X2^n R1 R1, the (n, 2) torus knot."""
    if n == 1:
        return "L 1\nR 1\n", UNKNOT
    return "L 1\nL 1\n" + "X 2\n" * n + "R 1\nR 1\n", Knot("torus", n, 2)


def front_text(events) -> str:
    return "".join("%s %d\n" % (ev.kind, ev.level) for ev in events)


@dataclass
class Chain:
    """A front grown by stabilizations, with the tally of their signs."""

    knot: Knot
    diagram: object
    tb: int
    rot: int = 0
    steps: int = 0


def new_chain(rng) -> Chain:
    text, knot = seed_front(rng.choice((1, 3, 5, 7, 9, 11, 13, 15)))
    # The seed's tb is the maximal tb of its type, pq - p - q (or -1).
    return Chain(knot, front.parse_front(text), o.max_tb(knot))


def grow_op(chain: Chain, rng) -> Op:
    profile = [0]
    for ev in chain.diagram.events:
        profile.append(profile[-1] + {"L": 2, "R": -2}.get(ev.kind, 0))
    gap = rng.choice([g for g, n in enumerate(profile) if n])
    level = rng.randint(1, profile[gap])
    sign = rng.choice((Sign.PLUS, Sign.MINUS))
    tb, rot = chain.tb - 1, chain.rot + sign.value
    size = len(chain.diagram.events) + 2
    source = chain.diagram

    def check(d):
        ensure(len(d.events) == size, "stabilization added %d events", len(d.events) - size + 2)
        inv = front.invariants(d)
        ensure((inv.tb, inv.rot) == (tb, rot), "grown front has (tb, rot)=(%d, %d), tally says (%d, %d)",
               inv.tb, inv.rot, tb, rot)
        rev = front.invariants(d, reverse_orientation=True)
        ensure((rev.tb, rev.rot) == (tb, -rot), "reversed orientation gives (%d, %d)", rev.tb, rev.rot)
        ensure(o.realizable(chain.knot, tb, rot), "(%d, %d) not realizable for %s", tb, rot, chain.knot.spec)
        chain.diagram, chain.tb, chain.rot = d, tb, rot
        chain.steps += 1

    return Op("grow", lambda: front.stabilize_diagram(source, sign, gap, level), check)


def read_op(env: Env, knot: Knot, text: str, tb: int, rot: int) -> Op:
    path = env.write_front(text)
    right_cusps = sum(1 for line in text.splitlines() if line.startswith("R"))

    def check(res):
        f = fields(res.out)
        ensure(res.rc == 0, "invariants exited %d", res.rc)
        ensure((int(f["tb"]), int(f["rot"])) == (tb, rot), "read (tb, rot)=(%s, %s), expected (%d, %d)",
               f["tb"], f["rot"], tb, rot)
        ensure(int(f["right_cusps"]) == right_cusps, "right_cusps=%s", f["right_cusps"])
        ensure(int(f["writhe"]) == tb + right_cusps, "writhe=%s", f["writhe"])
        ensure(f["bennequin"] == "ok", "bennequin=%s", f["bennequin"])
        ensure(o.realizable(knot, tb, rot), "(%d, %d) not realizable for %s", tb, rot, knot.spec)

    return cli_op("invariants", ["invariants", path, "--knot", knot.spec], check)


def fronts(rng, env: Env):
    """Grow three chains of stabilized fronts and read serialized snapshots.

    The chains advance 500, 250 and 125 times per round, so the longest
    reaches about 10^3 events, and every 25th stage of each is read back:
    reads of 10 to 10^3 events.  The wide reads are (n, 2) torus fronts of
    about 2 * 10^3 events.
    """
    steps = 12 if env.tiny else 500
    every = 2 if env.tiny else SNAPSHOT_EVERY
    wide = [jitter(rng, 21 if env.tiny else 1995) | 1 for _ in range(WIDE_READS)]
    chains = [new_chain(rng) for _ in CHAIN_STRIDES]
    for step in range(steps):
        for chain, stride in zip(chains, CHAIN_STRIDES):
            if step % stride == 0:
                yield grow_op(chain, rng)
                if chain.steps % every == 0:
                    yield read_op(env, chain.knot, front_text(chain.diagram.events), chain.tb, chain.rot)
        if step % (steps // WIDE_READS) == 0 and wide:
            text, knot = seed_front(wide.pop())
            yield read_op(env, knot, text, o.max_tb(knot), 0)


# --- knots ----------------------------------------------------------------

KNOWN_CABLE = [(3, 2), (5, 2)]  # two-level cable; 2g - 1 = 7


def knot_slots(rng, n: int, top: int) -> list:
    """unknot, fig8, two positive torus knots, then n - 4 negative torus
    knots with |p| log-spaced from 5 to top and q cycling through 2..5."""
    out = [UNKNOT, FIG8, o.pos_torus(jitter(rng, 7), 2), o.pos_torus(jitter(rng, 40), 3)]
    for i in range(n - 4):
        out.append(o.neg_torus(jitter(rng, ladder(5, top, n - 4, i)), 2 + i % 4))
    return out


def realizable_pair(rng, k: Knot) -> tuple[int, int]:
    """A peak stabilized n+ times positively and n- times negatively."""
    r = o.peak_rotation(k, rng.randrange(o.peak_count(k)))
    up, down = rng.randint(0, 6), rng.randint(0, 6)
    return o.max_tb(k) - up - down, r + up - down


def unrealizable_pair(rng, k: Knot) -> tuple[int, int]:
    if rng.random() < 0.5:  # above the maximal tb
        return o.max_tb(k) + rng.randint(1, 3), o.peak_rotation(k, 0)
    tb, rot = realizable_pair(rng, k)  # tb + rot of the wrong parity
    return tb, rot + 1


def classify_group(rng, k: Knot) -> list:
    """A query, its mirror (rot -> -rot) and one stabilization of it."""
    tb, rot = realizable_pair(rng, k) if rng.random() < 0.5 else unrealizable_pair(rng, k)
    sign = rng.choice((1, -1))
    verdicts = {}
    bound = 2 * o.genus(k) - 1

    def op(role, t, r):
        def check(res):
            f = fields(res.out)
            expected = o.realizable(k, t, r)
            ensure(res.rc == (0 if expected else 2), "classify exited %d", res.rc)
            ensure(f["knot"] == k.spec, "knot=%s", f["knot"])
            ensure(int(f["max_tb"]) == o.max_tb(k), "max_tb=%s, expected %d", f["max_tb"], o.max_tb(k))
            ensure(len(f["peak_rotations"].split(",")) == o.peak_count(k), "wrong number of peaks")
            got = f["realizable"] == "true"
            ensure(got == expected, "%s (%d, %d) reported realizable=%s", k.spec, t, r, f["realizable"])
            if got:
                ensure((t + r) % 2 == 1 and t + abs(r) <= bound, "(%d, %d) breaks parity or Bennequin", t, r)
            if role == "mirror":
                ensure(got == verdicts["base"], "realizability not symmetric in rot at (%d, %d)", t, r)
            if role == "stabilized" and verdicts["base"]:
                ensure(got, "(%d, %d) is a stabilization of a realizable pair", t, r)
            verdicts[role] = got

        return cli_op("classify", ["classify", k.spec, str(t), str(r)], check)

    return [op("base", tb, rot), op("mirror", tb, -rot), op("stabilized", tb - 1, rot + sign)]


def isotopic_op(rng, k: Knot) -> Op:
    tb, rot = realizable_pair(rng, k)
    tb2, rot2 = rng.choice(((tb, rot), (tb, -rot), (tb - 1, rot + rng.choice((1, -1)))))
    same = (tb, rot) == (tb2, rot2)

    def check(res):
        ensure(res.rc == (0 if same else 2), "isotopic exited %d", res.rc)
        ensure(res.out == ("isotopic\n" if same else "distinct\n"), "verdict %r", res.out)

    return cli_op("isotopic", ["isotopic", k.spec, str(tb), str(rot), k.spec, str(tb2), str(rot2)], check)


def max_sl_op(k: Knot) -> Op:
    bound = 2 * o.genus(k) - 1

    def check(res):
        sl = int(res.out)
        ensure(res.rc == 0 and sl % 2 == 1 and sl <= bound, "max sl %d for %s, 2g-1=%d", sl, k.spec, bound)
        if k.kind == "unknot" or k.p > 0:  # positive knots attain the Bennequin bound
            ensure(sl == bound, "max sl %d for %s, expected %d", sl, k.spec, bound)

    return cli_op("transversal-max-sl", ["transversal-max-sl", k.spec], check)


def bounds_op(k: Knot) -> Op:
    def check(res):
        f = fields(res.out)
        top, bennequin = int(f["max_tb"]), int(f["bennequin"])
        ensure(res.rc == 0 and top == o.max_tb(k), "max_tb=%d for %s", top, k.spec)
        ensure(bennequin == 2 * o.genus(k) - 1, "bennequin=%d for %s", bennequin, k.spec)
        ensure(("fuchs_tabachnikov" in f) == (k.p < 0), "fuchs_tabachnikov reported for %s", k.spec)
        bounds = [bennequin] + ([int(f["fuchs_tabachnikov"])] if k.p < 0 else [])
        ensure(all(top <= b for b in bounds), "max_tb above a bound for %s", k.spec)
        ensure(f["strict"] == ("true" if all(top < b for b in bounds) else "false"), "strict=%s", f["strict"])

    return cli_op("bounds", ["bounds", k.spec], check)


def iterated_op(cables, fault=None) -> Op:
    expected = o.cable_sl(cables)
    spec = ";".join("%d,%d" % c for c in cables)

    def check(res):
        ensure(res.rc == 0 and int(res.out) == expected, "iterated %s gave %s, 2g-1=%d",
               spec, res.out.strip(), expected)

    return cli_op("transversal-iterated", ["transversal-iterated", spec], check, fault)


def range_op(k: Knot, depth: int) -> Op:
    top = o.max_tb(k)

    def check(res):
        got = rows(res.out)
        pairs = set(got)
        ensure(res.rc == 0 and len(pairs) == len(got), "range has duplicate rows")
        ensure(got == sorted(got, key=lambda p: (-p[0], p[1])), "range rows out of order")
        ensure(all(top - depth <= tb <= top and o.realizable(k, tb, r) for tb, r in got),
               "range row outside the realizable band")
        ensure(sum(1 for tb, _ in got if tb == top) == o.peak_count(k), "range misses peaks")
        for tb, r in got:
            if tb > top - depth:
                ensure({(tb - 1, r - 1), (tb - 1, r + 1)} <= pairs, "range not closed under stabilization")

    return cli_op("range", ["range", "--knot", k.spec, "--depth", str(depth)], check)


def valleys_op(k: Knot) -> Op:
    def check(res):
        got = rows(res.out)
        ensure(res.rc == 0 and len(got) == o.peak_count(k) - 1, "%d valleys for %d peaks",
               len(got), o.peak_count(k))
        ensure(got == sorted(got, key=lambda p: (-p[0], p[1])), "valleys out of order")
        for tb, r in got:
            ensure(o.realizable(k, tb, r), "valley (%d, %d) not realizable", tb, r)
            ensure(not o.realizable(k, tb + 2, r), "(%d, %d) is not the first meeting point", tb, r)

    return cli_op("valleys", ["valleys", "--knot", k.spec], check)


def knots(rng, env: Env):
    """Point queries and enumerations over unknot, fig8 and torus knots.

    Negative torus knots have |p| log-spaced up to 10^4 for point queries;
    range stays below |p| = 10^3 and valleys below |p|/q = 100, because
    both enumerations grow with |p|/q (valleys quadratically).
    """
    tiny = env.tiny
    top = 60 if tiny else 10_000
    units = [classify_group(rng, k) for k in knot_slots(rng, 6 if tiny else 20, top)]
    units += [[isotopic_op(rng, k)] for k in knot_slots(rng, 5 if tiny else 10, top)]
    units += [[max_sl_op(k)] for k in knot_slots(rng, 5 if tiny else 10, top)]
    units += [[bounds_op(k)] for k in knot_slots(rng, 6 if tiny else 12, top)[2:]]
    n = 3 if tiny else 10
    units += [[iterated_op([o.pos_torus(jitter(rng, ladder(3, top, n, i)), 2 + i % 4)[1:]])]
              for i in range(n)]
    units.append([iterated_op(KNOWN_CABLE, fault="cable-recursion")])
    n = 2 if tiny else 6
    units += [[range_op(o.neg_torus(jitter(rng, ladder(10, 40 if tiny else 1000, n, i)), 2 + i % 4), 1 + i % 4)]
              for i in range(n)]
    sizes = (10, 30) if tiny else (10, 60, 300, 300, 300, 300)  # four at the top set op_p99_ms
    units += [[valleys_op(o.neg_torus(jitter(rng, a), 3 if i != 1 else 2))] for i, a in enumerate(sizes)]
    rng.shuffle(units)
    for unit in units:
        yield from unit


# --- fiber ----------------------------------------------------------------

# (Farey depth, monodromy power k) of the type III normalizations in a round.
NORMALIZE_SLOTS = ((1, 150), (2, -150), (3, 0), (5, 100), (8, 0), (10, -100), (15, 0), (20, 40),
                   (30, -30), (40, -25), (50, 10), (80, 5), (80, -5), (2, 3), (4, -3), (6, 1))
TINY_NORMALIZE_SLOTS = ((1, 10), (2, -10), (4, 0), (6, 3))
TIGHT_TRIANGLE = ((1, 1), (1, 2), o.INF)  # slopes 1, 2, inf
MALFORMED_CONFIGS = ("I:infx5+xc", "III:1x,2,inf")


def config_spec(kind: str, slopes, mults=None, closed=None) -> str:
    parts = [o.slope_text(s) for s in slopes]
    if mults:
        parts = ["%sx%d" % (part, m) for part, m in zip(parts, mults)]
    return "%s:%s%s" % (kind, ",".join(parts), "+%dc" % closed if closed else "")


def check_trace(lines) -> None:
    """Every triple in a normalize trace is a Farey triangle."""
    for line in lines:
        tag, _, body = line.partition(" ")
        if tag in ("ReduceClosed", "Destabilizing"):
            continue
        for side in body.split("->"):
            slopes = [o.parse_slope(s) for s in side.split(",")]
            ensure(len(slopes) == 1 or o.is_triangle(slopes), "trace triple %s is not a Farey triangle", side)


def normalize_op(kind: str, spec: str, base_spec: str | None, expected: str | None = None,
                 fault: str | None = None) -> Op:
    """bypass-normalize on spec, the monodromy image of base_spec.

    The outcome must equal that of the unshifted configuration (or the
    given expected outcome), since a monodromy shift is an isotopy of the
    fiber.
    """

    def check(res):
        ensure(res.rc == 0, "bypass-normalize %s exited %d", spec, res.rc)
        lines = res.out.splitlines()
        outcome, steps = lines[0].partition("=")[2], int(lines[1].partition("=")[2])
        ensure(len(lines) == steps + 2, "trace has %d lines for %d steps", len(lines) - 2, steps)
        check_trace(lines[2:])
        want = expected or bypass.normalize(bypass.make_config(base_spec)).kind.value
        ensure(outcome == want, "%s normalized to %s, unshifted %s", spec, outcome, want)

    return cli_op(kind, ["bypass-normalize", spec], check, fault)


def malformed_op(spec: str) -> Op:
    def check(res):
        ensure(res.rc == 1, "malformed config %r exited %d", spec, res.rc)

    return cli_op("bypass-malformed", ["bypass-normalize", spec], check, "config-parser")


def farey_pair(rng, p_target: float) -> tuple[int, int]:
    """p near p_target and q = p - d just below p, so -p/q has a long continued fraction."""
    p = max(3, jitter(rng, p_target))
    d = rng.randint(28, 32) if p >= 10_000 else rng.randint(1, 1 + p // 500)
    while gcd(p, p - d) != 1:
        d += 1
    return p, p - d


def farey_cf_op(p: int, q: int) -> Op:
    def check(res):
        cf = [int(x) for x in res.out.split()]
        ensure(res.rc == 0 and all(r <= -2 for r in cf), "entry above -2 in farey-cf %d %d", p, q)
        ensure(o.neg_cf_value(cf) == o.Fraction(-p, q), "farey-cf %d %d does not evaluate to -p/q", p, q)

    return cli_op("farey-cf", ["farey-cf", str(p), str(q)], check)


def farey_count_op(p: int, q: int) -> Op:
    def check(res):
        want = o.farey_path_count(p, q)
        ensure(res.rc == 0 and int(res.out) == want, "farey-count %d %d = %s, Farey paths give %d",
               p, q, res.out.strip(), want)

    return cli_op("farey-count", ["farey-count", str(p), str(q)], check)


def disk_op(m: int) -> Op:
    def check(got):
        ensure(got == set(range(1 - m, m, 2)), "disk_rotation_set(%d) = %s", m, sorted(got))

    return Op("disk_rotation_set", lambda: convex.disk_rotation_set(m), check)


def fiber(rng, env: Env):
    """Bypass normalization on the figure-eight fiber and solid-torus arithmetic."""
    tiny = env.tiny
    ops = []
    for depth, k in TINY_NORMALIZE_SLOTS if tiny else NORMALIZE_SLOTS:
        k = round(k * rng.uniform(0.97, 1.03))
        base = o.farey_triangle(rng, depth)
        shifted = [o.shift(v, k) for v in base]
        ops.append(normalize_op("normalize-III", config_spec("III", shifted), config_spec("III", base)))
    for i in range(4 if tiny else 8):  # one arc class: three arcs, plus one or three closed curves
        s, k, closed = o.farey_triangle(rng, rng.randint(0, 20))[2], rng.randint(-20, 20), 3 if i % 4 == 3 else 1
        ops.append(normalize_op("normalize-I", config_spec("I", [o.shift(s, k)], [3], closed),
                                config_spec("I", [s], [3], closed)))
    for i in range(3 if tiny else 8):  # more than three arcs always destabilize
        k = rng.randint(-20, 20)
        tri = [o.shift(v, k) for v in o.farey_triangle(rng, rng.randint(0, 20))]
        spec = (config_spec("I", tri[2:], [5], 1), config_spec("III", tri, [3, 1, 1]),
                config_spec("II", tri[:2], [2, 2]))[i % 3]
        ops.append(normalize_op("normalize-arcs", spec, None, expected="destabilizes"))
    ops.append(normalize_op("normalize-III", config_spec("III", [o.shift(v, -201) for v in TIGHT_TRIANGLE]),
                            None, expected="standard-tight", fault="shift-cap"))
    ops += [malformed_op(spec) for spec in MALFORMED_CONFIGS]
    n, top = (3, 1000) if tiny else (12, 10 ** 6)
    for i in range(n):
        ops.append(farey_cf_op(*farey_pair(rng, ladder(10, top, n, i))))
        ops.append(farey_count_op(*farey_pair(rng, ladder(10, top, n, i))))
    ops += [disk_op(m) for m in range(1, 6 if tiny else 10)]
    rng.shuffle(ops)
    yield from ops


WORKLOADS = {"fronts": fronts, "knots": knots, "fiber": fiber}
