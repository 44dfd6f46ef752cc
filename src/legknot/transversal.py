"""Transversal invariants via push-offs and the stable Bennequin invariant.

A Legendrian class maps to transversal classes through its push-offs,
with self-linking tb + r (positive) and tb - r (negative).  The quantity
s = tb + r is unchanged by positive stabilization, and for the knot types
in scope stable simplicity and transversal simplicity coincide, so the
realizable self-linking numbers are exactly the odd integers at or below
the maximum of tb + r over the Legendrian peaks.  Iterated-cable maxima
are the braid writhe of the cable minus its strand count:
a_i = q_i a_{i-1} + (q_i - 1) p_i with a_0 = 0, and sl = a_n - q_1 ... q_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .classify import KnotType, LegendrianClass, Sign, Verdict, max_tb, peak_progression
from .errors import InvalidCable, Unrealizable, decimal

__all__ = [
    "TransversalClass",
    "push_off_sl",
    "stable_invariant",
    "max_sl",
    "is_realizable_sl",
    "decide_transversal",
    "parse_cables",
    "iterated_max_sl",
]


def push_off_sl(c: LegendrianClass, sign: Sign) -> int:
    """Self-linking number of the transversal push-off: tb +- r."""
    return c.tb + sign.value * c.rot


def stable_invariant(c: LegendrianClass) -> int:
    """tb + r, unchanged by positive stabilization."""
    return c.tb + c.rot


def max_sl(k: KnotType) -> int:
    """Largest self-linking number of a transversal knot of this type.

    Equals the maximum of tb + r over the Legendrian peaks, max tb plus
    the largest peak rotation; the closed forms are -1 (unknot), pq - p - q (positive torus),
    pq + |p| - |q| (negative torus), and -3 (figure eight).
    """
    return max_tb(k) + peak_progression(k)[0]


def is_realizable_sl(k: KnotType, sl: int) -> bool:
    return sl % 2 != 0 and sl <= max_sl(k)


@dataclass(frozen=True)
class TransversalClass:
    """A transversal isotopy class: knot type plus self-linking number."""

    knot: KnotType
    sl: int

    def __post_init__(self):
        if not is_realizable_sl(self.knot, self.sl):
            raise Unrealizable(
                "sl=%d is not realized by any transversal %s" % (self.sl, self.knot)
            )


def decide_transversal(a: TransversalClass, b: TransversalClass) -> Verdict:
    return Verdict.ISOTOPIC if a == b else Verdict.DISTINCT


def parse_cables(text: str) -> list[tuple[int, int]]:
    """Parse a cabling list 'p1,q1;p2,q2;...'."""
    out = []
    for chunk in text.strip().split(";"):
        try:
            p_text, q_text = chunk.split(",")
            out.append((decimal(p_text), decimal(q_text)))
        except ValueError as exc:
            raise InvalidCable("cannot parse cable %r" % chunk) from exc
    return out


def iterated_max_sl(cables: list[tuple[int, int]]) -> int:
    """Maximal self-linking of an iterated cable of the unknot.

    The cabling convention is 0 < q_i < |p_i| with gcd(|p_i|, q_i) = 1:
    level i has q_i strands around the previous level and Seifert-framed
    slope p_i / q_i.  Cabling the braid closure of the previous level
    gives the writhe a_i = q_i a_{i-1} + (q_i - 1) p_i, and the maximum is
    a_n - q_1 ... q_n.  For positive cables this is 2g - 1, with Schubert's
    genus g_i = q_i g_{i-1} + (p_i - 1)(q_i - 1) / 2.  A single cable
    reduces to the torus-knot value pq - p - q for either sign; negative
    cables inside a longer list are refused.
    """
    if not cables:
        raise InvalidCable("cabling list is empty")
    a = 0
    b = 1
    for p, q in cables:
        if p == 0 or not 0 < q < abs(p):
            raise InvalidCable("cable (%d, %d) violates 0 < q < |p|" % (p, q))
        if gcd(abs(p), q) != 1:
            raise InvalidCable("cable (%d, %d) is not coprime" % (p, q))
        if p < 0 and len(cables) > 1:
            raise InvalidCable("negative cable (%d, %d) is supported only on its own" % (p, q))
        a = q * a + (q - 1) * p
        b *= q
    return a - b
