"""Exception hierarchy shared by all bispec modules.

Every domain error derives from BispecError so callers can catch the
library's failures without catching programming errors.
"""


class BispecError(Exception):
    """Base class for all domain errors raised by this package."""


# -- exact-algebra ----------------------------------------------------------

class ZeroDenominator(BispecError):
    """Rational function constructed with a zero denominator."""


class LogObstruction(BispecError):
    """An antiderivative would need a logarithm (nonzero x^-1 coefficient)."""


class InsufficientPrecision(BispecError):
    """A truncated expansion does not carry enough coefficients."""


class ReconstructionFailed(BispecError):
    """No rational function within the degree bounds matches the expansion."""


# -- diffop-core ------------------------------------------------------------

class VariableMismatch(BispecError):
    """Binary operation on operators living in different variables."""


class DivisionByZeroOperator(BispecError):
    """Right division by the zero operator."""


class NotMonic(BispecError):
    """Operation requires a monic (leading coefficient 1) operator."""


class NonRationalGauge(BispecError):
    """The normalizing gauge substitution left a subleading term."""


# -- families-darboux -------------------------------------------------------

class BadIndex(BispecError):
    """Family constructor received an out-of-range parameter index."""


class NotAFactor(BispecError):
    """Darboux division left a nonzero remainder."""


# -- adcond-bispectral ------------------------------------------------------

class UnboundedCoefficient(BispecError):
    """Coefficient grows at infinity; input belongs to the Airy branch."""


class TruncationTooShort(BispecError):
    """Requested check cannot be supported at the carried truncation."""


class NotInDomain(BispecError):
    """Value lies outside the domain of the requested involution."""


class NotCommuting(BispecError):
    """Operands were required to commute but do not."""


class NotRankOrderCase(BispecError):
    """ad-power is not a polynomial in L: rank < order, different branch."""


class NormalizationFailed(BispecError):
    """Reconstructed dual operator violates the leading-term normalization."""


# -- airy-calculus / dixmier-weights ---------------------------------------

class NotAiryShape(BispecError):
    """Operator does not have the generalized Airy shape."""


class ZeroOperand(BispecError):
    """Height/leading-term query on the zero operator."""


class NotIncreasing(BispecError):
    """No coefficient grows at infinity; input belongs to the bounded branch."""


class NotHomogeneous(BispecError):
    """Polynomial is not homogeneous for the given weights."""


# -- cli-frontend -----------------------------------------------------------

class OperatorSyntaxError(BispecError):
    """Malformed operator expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeDerivativeExponent(OperatorSyntaxError):
    """Negative power applied to a subexpression containing d."""
