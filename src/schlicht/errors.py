"""Exception types shared across the package.

Every error raised by library code derives from SchlichtError, so callers
(including the CLI) can distinguish domain failures from programming bugs.
"""


class SchlichtError(Exception):
    """Base class for all library errors."""


class ValidationError(SchlichtError):
    """Bad input rather than a failed computation; the CLI exits 2.
    Non-finite input, such as a JSON coefficient Infinity, is one."""


class InvalidParameter(ValidationError):
    """A parameter lies outside its documented domain."""


class OrderTooLow(ValidationError):
    """The series does not carry enough coefficients for the request."""


class DivisionBySingularSeries(SchlichtError):
    """Division by a series whose constant term is (numerically) zero."""


class CompositionRequiresVanishingConstant(SchlichtError):
    """Inner series of a composition must vanish at the origin."""


class BranchPointAtOrigin(SchlichtError):
    """Principal power or log of a series whose constant term sits on the
    branch cut (the closed negative real axis, zero included)."""


class NotCaratheodoryNormalized(ValidationError):
    """A Caratheodory-side argument must have constant term 1."""


class InvalidMeasure(ValidationError):
    """Atomic measure fails nonnegativity or total-mass normalization."""


class ConstantDenominatorZero(SchlichtError):
    """A pointwise fraction of series has denominator vanishing at 0."""


class OmittedValueAttained(SchlichtError):
    """The value supposed to be omitted is attained on the probe grid."""


class EvaluationSingularity(SchlichtError):
    """A probe sample landed on (or numerically at) a pole or zero
    denominator."""


class NonFiniteResult(SchlichtError):
    """A computed result overflowed to infinity or NaN; the CLI exits 1.
    TruncatedSeries and MarginReport raise it for their own values."""


class DegenerateAtCenter(SchlichtError):
    """A radius predicate already fails at the innermost test radius."""
