"""Exception types, and the integer grammar, shared across the library."""


def decimal(text: str) -> int:
    """The integer grammar of every parser: ASCII digits with an optional '-'
    and spaces around.  int() alone also takes '+', '_' and non-ASCII digits."""
    if not (text.isdigit() and text.isascii()):  # plain digits need no more checks
        digits = text.strip().removeprefix("-")
        if not (digits.isdigit() and digits.isascii()):
            raise ValueError("must be a decimal integer, got %r" % text)
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError("has too many digits") from None


class LegknotError(Exception):
    """Base class for all errors raised by this library."""


class InvalidSlope(LegknotError):
    """Slope input that does not describe an extended rational."""


class DegenerateEdge(LegknotError):
    """Two equal slopes where a Farey edge or interval was expected."""


class NotAnEdge(LegknotError):
    """Slope pair whose primitive vectors do not form an integral basis."""


class InvalidFraction(LegknotError):
    """Input outside the p > q > 0 coprime window of the continued fraction."""


class InvalidKnot(LegknotError):
    """Unparseable or non-canonicalizable knot type specification."""


class FrontSyntaxError(LegknotError):
    """Malformed front diagram text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class MultiComponent(LegknotError):
    """Front diagram traces out more than one closed component."""


class NoSuchStrand(LegknotError):
    """Stabilization hint does not point at an existing strand segment."""


class Unrealizable(LegknotError):
    """Invariant values outside the realizable set of the knot type."""


class NotAdjacent(LegknotError):
    """Peaks that are equal or not adjacent in the rotation ordering."""


class Unsupported(LegknotError):
    """Valid object outside the stated scope of the operation."""


class ZeroIntersection(LegknotError):
    """Curve class parallel to the dividing set (twist would be zero)."""


class InvalidCable(LegknotError):
    """Cabling data violating the 0 < q_i < |p_i| coprime convention."""


class NotATriangle(LegknotError):
    """Slope triple that is not a triangle of the Farey tessellation."""


class ParityError(LegknotError):
    """Multiplicities violating a parity constraint of the taxonomy."""


class TaxonomyError(LegknotError):
    """Dividing-curve data outside the three admissible configuration types."""


class NonTermination(LegknotError):
    """Step limit below a normalization's move count, or a walk off that count (a bug)."""
