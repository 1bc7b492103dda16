"""Shared error types.  Structural failures (the geometry refusing to exist as
requested) are kept distinct from plain verification mismatches so the CLI can
map them to different exit codes."""


class DworkError(Exception):
    """Base class for structural failures."""


class KernelInvariant(DworkError):
    """Kernel arithmetic broke one of its own invariants, e.g. a monomial
    degree past the packed field width, or operands from two rings."""


class UnsplitDenominator(DworkError):
    """A rational function's denominator is not c * x^a * F^k, a constant
    times a monomial times a power of the ring's known factor: the one form
    the kernel reduces."""


class OmegaInconsistent(DworkError):
    """The pairing recursion produced data violating its defining identity."""


class EliminationStuck(DworkError):
    """A dependent-slot equation was not linear in exactly one unknown."""


class NoSuchField(DworkError):
    """No tangent vector field realizes the requested connection value."""


class LinearInconsistent(DworkError):
    """A linear system has no solution; carries the offending row index."""

    def __init__(self, row, detail=""):
        self.row = row
        super().__init__(f"inconsistent linear system at row {row}" +
                         (f": {detail}" if detail else ""))


class Sl2Violation(DworkError):
    """One of the three defining bracket relations of an sl2 triple failed."""


class ZeroScalar(DworkError):
    """A multiplicative group parameter was zero; the element does not exist."""


class ActionShapeViolation(DworkError):
    """A group action left the frame matrix outside its normal form."""
