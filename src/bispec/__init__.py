"""bispec: exact symbolic computation with differential operators over Q
and the classification of prime-order bispectral operators.

The public surface re-exports the main types and operations of each layer:
exact rational arithmetic, the operator ring, the operator families and
Darboux engine, the bounded-coefficient wave machinery, the Airy-adic
calculus, the filtration toolkit, and the parser/classifier front end.
"""

from .errors import (
    BadIndex,
    BispecError,
    DivisionByZeroOperator,
    InsufficientPrecision,
    LogObstruction,
    NegativeDerivativeExponent,
    NonRationalGauge,
    NormalizationFailed,
    NotAFactor,
    NotAiryShape,
    NotCommuting,
    NotHomogeneous,
    NotInDomain,
    NotIncreasing,
    NotMonic,
    NotRankOrderCase,
    OperatorSyntaxError,
    ReconstructionFailed,
    ScalarTooLong,
    TruncationTooShort,
    UnboundedCoefficient,
    VariableMismatch,
    ZeroDenominator,
    ZeroOperand,
)
from .poly import Poly, Scalar
from .rational import (
    LaurentTail,
    RatFunc,
    laurent_expand,
    rat_antiderivative,
    rational_reconstruct,
)
from .diffop import (
    DiffOp,
    ad_condition_min_m,
    commutator,
    dop_mul,
    euler_operator,
    gauge_normalize,
    left_divide,
    right_divide,
)
from .families import (
    BesselSpec,
    bessel_integrality,
    bessel_recover,
    bessel_symbol,
    darboux,
    is_euler_homogeneous,
    make_airy,
    make_bessel,
    make_constcoeff,
    p_form_check,
)
from .weights import (
    associated_polynomial,
    choose_weights,
    normal_form_test,
    principal_part,
    weighted_order,
)
from .bounded import (
    PDO,
    bounded_test,
    build_lambda,
    centralizer_search,
    conjugate_theta,
    fuchs_violation,
    involution_b,
    split_constant_part,
    wave_defect,
    wave_operator,
    wave_residual_zero,
)
from .airy import (
    ObstructionStep,
    ObstructionTrace,
    airy_bispectral_check,
    airy_involution,
    airy_kernel_series,
    airy_shape,
    airy_wave_solve,
    height,
    perturbation_obstruction,
)
from .parser import parse_operator, print_operator
from .classify import Budgets, classify

__version__ = "0.1.0"
