"""Exception hierarchy shared by every boxflow module."""


class BoxflowError(Exception):
    """Base class for all boxflow failures."""


class DimensionError(BoxflowError):
    """Matrix or vector dimensions do not match."""


class ExponentError(BoxflowError):
    """An operation would create an illegal exponent (fractional power
    of a non-distinguished variable, or a negative power outside t)."""


class DeterminantError(BoxflowError):
    """A matrix declared unimodular has symbolic determinant != 1.

    The offending determinant is kept on the exception so callers can
    report it.
    """

    def __init__(self, det_text):
        super().__init__(f"determinant is not identically 1: {det_text}")
        self.det_text = det_text


class DivergentLimitError(BoxflowError):
    """A t -> infinity limit was requested for a positive t-degree."""


class DomainError(BoxflowError):
    """Numeric evaluation outside the allowed domain (t <= 0 with a
    fractional or negative t-exponent, unbound variable, ...)."""


class NilpotencyError(BoxflowError):
    """A matrix expected to be nilpotent is not.

    ``failed`` holds (stack index, message) for every failing matrix, in
    stack order; the index of a single matrix is ().
    """

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class CuspExcursionError(BoxflowError):
    """A sample's Siegel sum needs more rows of lattice vectors than the
    row cap allows (``homspace.ROW_CAP``): its lattice is too deep in the
    cusp for the radius, or the radius is too large."""


class PrecisionError(BoxflowError):
    """Too many grid samples lie beyond what float64 and double-double
    arithmetic can certify: their reduced-basis error bound exceeds the
    tolerance, and exact reduction of that many samples is over the
    exact tier's cost budget.  The budget caps cost, not precision: every
    sample the exact tier takes is exact."""

    def __init__(self, message, flagged=0, total=0):
        super().__init__(message)
        self.flagged = flagged
        self.total = total

    def __reduce__(self):
        # keep the counts when a worker process hands the error back
        return type(self), (str(self), self.flagged, self.total)


class CatalogError(BoxflowError):
    """Unknown map name or malformed catalog file."""


class ParseError(BoxflowError):
    """Malformed polynomial / config text."""
