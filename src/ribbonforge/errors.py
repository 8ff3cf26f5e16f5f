"""Exception hierarchy.

Every error carries an ``exit_code`` used by the command-line front end:
2 for malformed input or unsatisfiable requests, 3 for violated internal
invariants (things that should be impossible if the theory holds).
"""


class RibbonError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParseError(RibbonError):
    """Malformed .arp or PD text."""


class EmptyLabelError(RibbonError):
    """An arrow label is the empty string."""


class LabelCountError(RibbonError):
    """Some label does not appear on exactly two arrows."""


class UnknownLabel(RibbonError):
    """An operation referenced an edge label that is not present."""


class UnknownVertex(RibbonError):
    """An operation referenced a curve index that is not present, or a
    vertex step named a curve that is not isolated."""


class NotConnected(RibbonError):
    """A connected presentation was required."""


class NotABouquet(RibbonError):
    """A one-vertex presentation was required."""


class StrandCountError(RibbonError):
    """A PD strand label does not appear exactly twice."""


class SizeBoundExceeded(RibbonError):
    """An exhaustive search was asked to exceed its configured edge bound."""


class InternalInvariantViolation(RibbonError):
    """A checked identity failed; indicates a bug, not bad input."""

    exit_code = 3


class OrientabilityViolation(InternalInvariantViolation):
    """A state graph built from a diagram came out non-orientable."""
