"""legknot: classical invariants and classification of Legendrian and
transversal knots from combinatorial front diagrams.

The library computes Thurston-Bennequin and rotation numbers from front
projections, decides Legendrian and transversal isotopy for unknots,
torus knots, and figure-eight knots, and implements the Farey-
tessellation and bypass-move machinery behind those decisions: exact
slope arithmetic, negative continued fractions, tight solid-torus
counts, disk rotation sets, and the normalization state machine on the
punctured-torus fiber.
"""

from .classify import (
    KnotType,
    LegendrianClass,
    MountainRange,
    Peak,
    Sign,
    Verdict,
    decide_isotopy,
    euler_char,
    figure_eight,
    max_tb,
    mountain_range,
    parse_knot,
    peak_rotations,
    realizable,
    stabilize_class,
    torus,
    unknot,
)
from .front import FrontDiagram, invariants, parse_front, stabilize_diagram, writhe
from .lattice import (
    INF,
    IntegralVector,
    Slope,
    farey_det,
    is_farey_edge,
    mediant,
    neg_cf,
    parse_slope,
    reduce_slope,
)
from .transversal import TransversalClass, decide_transversal, max_sl, push_off_sl

__version__ = "0.1.0"

__all__ = [
    "KnotType",
    "LegendrianClass",
    "MountainRange",
    "Peak",
    "Sign",
    "Verdict",
    "decide_isotopy",
    "euler_char",
    "figure_eight",
    "max_tb",
    "mountain_range",
    "parse_knot",
    "peak_rotations",
    "realizable",
    "stabilize_class",
    "torus",
    "unknot",
    "FrontDiagram",
    "invariants",
    "parse_front",
    "stabilize_diagram",
    "writhe",
    "INF",
    "IntegralVector",
    "Slope",
    "farey_det",
    "is_farey_edge",
    "mediant",
    "neg_cf",
    "parse_slope",
    "reduce_slope",
    "TransversalClass",
    "decide_transversal",
    "max_sl",
    "push_off_sl",
    "__version__",
]
