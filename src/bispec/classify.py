"""The end-to-end classification pipeline for prime-order operators.

Branching follows coefficient growth at infinity.  Increasing branch:
the principal part, whose one scan of the coefficient orders decides the
Airy leading form (y^N - lam x)^1, then the perturbation obstruction;
the only bispectral survivors are the generalized Airy operators.  The
Bessel shape is read from the coefficients before the gauge, and again
after it when the gauge changed the operator: first at the origin, then
after translating a single finite pole there.  Bounded branch:
the constant-coefficient shape, then two exact obstructions
(Fuchs' pole-order criterion and a logarithm in the wave coefficients
through the truncation, whose one solve also serves Lambda), then the
ad-condition chain of the first admitted theta; a passing chain with all
constants zero marks a monomial-Darboux-of-Bessel candidate, while a
failing constants check or a non-polynomial ad power routes to the
constant-coefficient Darboux branch.  That verdict needs no centralizer:
the chain says rank < order, and for a prime order the rank divides the
order, so it is 1 (``bispec centralizer`` searches the commuting
operators on request).  A passing chain does not bound the rank either:
the Adler-Moser operator d^2 - (6x^4 - 12x)/(x^3 + 1)^2 passes it with
theta = (x^3 + 1)^2, yet it commutes with an operator of order 5, so its
rank is 1.

A caller's theta has one reader, ``read_theta``: it takes a ``Poly``,
operator text (the CLI's ``--theta``) or a derivative-free ``DiffOp``
with a polynomial coefficient.

Every verdict carries machine-checkable certificates (principal part and
perturbation, ad data, Lambda, Darboux pairs, obstruction traces) that
the other modules can re-verify independently.  Each is written once:
the obstruction trace and the bounded chain by their records'
``certificate`` methods, and every function or operator as its ``str``,
which ``parse_operator`` reads back.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from . import errors as err
from .poly import Poly, poly_text, scalar_text
from .rational import RatFunc
from .diffop import DiffOp, dop_mul, gauge_normalize, left_divide
from .parser import parse_operator
from .families import (
    BesselSpec,
    bessel_integrality,
    bessel_recover,
    is_euler_homogeneous,
    p_form_check,
)
from .weights import principal_part
from .airy import OBSTRUCTION_STEPS, airy_shape, perturbation_obstruction
from .bounded import (
    bounded_test,
    build_lambda,
    fuchs_violation,
    split_constant_part,
    wave_operator,
)
from .diffop import ad_condition_min_m
from .record import Record

VERDICT_AIRY = "Airy(1)"
VERDICT_BESSEL = "Bessel(2)"
VERDICT_CONSTCOEFF = "ConstantCoeff(3)"
VERDICT_MONOMIAL = "MonomialDarbouxCandidate(4)"
VERDICT_POLYNOMIAL = "PolynomialDarbouxCandidate(5)"
VERDICT_OBSTRUCTED = "Obstructed"
VERDICT_INCONCLUSIVE = "Inconclusive"

FAMILY_VERDICTS = (
    VERDICT_AIRY,
    VERDICT_BESSEL,
    VERDICT_CONSTCOEFF,
    VERDICT_MONOMIAL,
    VERDICT_POLYNOMIAL,
)


class Budgets(Record):
    """Search budgets.  On the bounded branch the ad exponent of theta is
    exactly deg theta or does not exist (``diffop.ad_condition_min_m``),
    so a theta is admissible only when deg theta <= ad_budget, and its
    chain stops after deg theta + 1 brackets.  The theta search therefore
    tries the monomials x^1 .. x^min(ad_budget, theta_lmax), and a caller's
    theta only when 1 <= deg theta <= ad_budget: a constant's chain ends
    at once and says nothing.  ``trunc`` is the series truncation
    of the wave operator, which the probe solves once and Lambda reuses.
    Class constants:
    ``theta_lmax`` caps the searched theta degree, which has no
    theoretical bound, and the Airy perturbation walk runs through
    ``obstruction_steps`` steps.  The search stops at the first admitted
    theta."""

    __slots__ = ("ad_budget", "trunc")
    _defaults = {"ad_budget": 8, "trunc": 8}
    theta_lmax = 4
    obstruction_steps = OBSTRUCTION_STEPS
    ad_budget: int
    trunc: int


class ClassificationReport(Record):
    """The outcome of ``classify``; the pipeline fills it in as it runs,
    so unlike the other records it is mutable (and unhashable)."""

    __slots__ = ("input_text", "branch", "verdict", "operator", "certificates",
                 "errors", "trace_sizes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    input_text: str
    branch: str
    verdict: str
    operator: Optional[DiffOp]
    certificates: dict[str, Any]
    errors: list[str]
    trace_sizes: dict[str, int]
    _defaults = {"branch": "", "verdict": VERDICT_INCONCLUSIVE, "operator": None,
                 "certificates": None, "errors": None, "trace_sizes": None}

    def __post_init__(self):
        # each report gets its own containers
        self.certificates = self.certificates or {}
        self.errors = self.errors or []
        self.trace_sizes = self.trace_sizes or {}

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "input": self.input_text,
            "branch": self.branch,
            "verdict": self.verdict,
            "operator": _jsonable(self.operator),
            "certificates": _jsonable(self.certificates),
            "errors": list(self.errors),
            "trace_sizes": dict(self.trace_sizes),
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (DiffOp, Poly, RatFunc)):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return scalar_text(value)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _size_stats(L: DiffOp) -> dict[str, int]:
    terms = 0
    bits = 0
    for c in L.coeffs.values():
        for p in (c.num, c.den):
            for v in p.coeffs:
                terms += 1
                bits = max(bits, v.numerator.bit_length(),
                           v.denominator.bit_length())
    return {"coefficient_terms": terms, "max_coefficient_bits": bits}


def read_theta(theta: Union[Poly, DiffOp, str, None]) -> Optional[Poly]:
    """theta, a polynomial in x, from a ``Poly``, from operator text or
    from a derivative-free ``DiffOp`` with a polynomial coefficient (None
    stays None).  Raises OperatorSyntaxError for malformed text, for a
    theta with d and for one with a denominator."""
    if theta is None or isinstance(theta, Poly):
        return theta
    if isinstance(theta, str):
        theta = parse_operator(theta)
    if not theta.is_function():
        raise err.OperatorSyntaxError("theta must not contain d", 0)
    c = theta.coeff(0)
    if not c.is_polynomial():
        raise err.OperatorSyntaxError("theta must be a polynomial", 0)
    return c.num


def classify(
    L: Union[DiffOp, str],
    *,
    input_text: str = "",
    theta: Union[Poly, DiffOp, str, None] = None,
    P: Optional[DiffOp] = None,
    budgets: Budgets = Budgets(),
) -> ClassificationReport:
    """Classify against the prime-order families; errors from sub-modules
    are embedded in the report rather than raised.  Each stage catches
    only what it can meet on the monic, normalized operator its earlier
    stages hand it.  On the bounded branch the theta search stops at the
    first admitted theta, whose chain end goes on to ``bounded_test``.

    ``L`` may be operator text, which is parsed (OperatorSyntaxError is
    raised for malformed text) and is then the default ``input_text``.
    ``theta`` is read by ``read_theta``: a ``Poly``, operator text or a
    derivative-free ``DiffOp`` with a polynomial coefficient."""
    if isinstance(L, str):
        input_text = input_text or L
        L = parse_operator(L)
    theta = read_theta(theta)
    report = ClassificationReport(input_text=input_text or str(L))
    if L.is_zero() or L.order < 2:
        report.errors.append("order must be at least 2")
        return report
    if not L.is_monic():
        report.errors.append("NotMonic: leading coefficient must be 1")
        return report
    N = L.order
    prime = _is_prime(N)
    if not prime:
        report.certificates["composite_order"] = N

    # the Bessel shape needs no normalization, and its betas should be the
    # input's: test it first, and again only on an operator the gauge
    # changed
    decided = P is None and _bessel_stage(L, report)
    if not decided and not L.coeff(N - 1).is_zero():
        # L is monic of order N >= 2, so the d^(N-1) coefficient of
        # L(d + g') is N g' + V_(N-1) = 0: neither NotMonic nor
        # NonRationalGauge can be raised
        L, gprime = gauge_normalize(L)
        report.certificates["gauge"] = gprime
        decided = P is None and _bessel_stage(L, report)
    report.operator = L
    increasing = any(c.infinity_order() > 0 for c in L.coeffs.values())
    report.branch = "increasing" if increasing else "bounded"
    if increasing:
        _classify_increasing(L, report, budgets)
    elif not decided:
        _classify_bounded(L, report, budgets, theta, P)

    if not prime and report.verdict in FAMILY_VERDICTS:
        report.certificates["composite_note"] = (
            f"order {N} is not prime: family verdicts do not apply; "
            f"certificates indicate {report.verdict}"
        )
        report.verdict = VERDICT_INCONCLUSIVE
    report.trace_sizes = _size_stats(L)
    return report


def _record_bessel(L: DiffOp, certs: dict[str, Any]) -> Optional[BesselSpec]:
    """Record the betas of a Bessel operator L in ``certs``; None when L
    is off that shape or its symbol roots are not all rational."""
    spec = bessel_recover(L)
    if spec is not None:
        certs["bessel_betas"] = list(spec.betas)
        certs["bessel_integrality"] = bessel_integrality(spec)
    return spec


def _bessel_stage(L: DiffOp, report: ClassificationReport) -> bool:
    """Record the Bessel shape of L, or of its translate T = L(x + x0)
    when every finite pole of L sits at one point x0 != 0, and say
    whether it was found.  Bessel operators stay bispectral under
    x -> x + x0, so that pole is the only candidate centre.  A monic
    (x - x0)^k has -k*x0 as its coefficient of x^(k-1), so each
    denominator proposes x0 without a gcd.  The verdict is Bessel(2) when
    the symbol roots are rational; the betas of a translate go into its
    ``translation`` certificate only."""
    certs = report.certificates
    shape = L
    if not is_euler_homogeneous(L):
        centres = {-c.den.coeffs[-2] / c.den.degree
                   for c in L.coeffs.values() if c.den.degree > 0}
        if len(centres) != 1 or 0 in centres:
            return False
        x0, = centres
        shape = L.translate(x0)
        if not is_euler_homogeneous(shape):
            return False
        certs["translation"] = certs = {"x0": x0, "operator": shape}
    elif len(L.coeffs) == 1:
        return False  # d^N: the constant-coefficient verdict wins
    spec = _record_bessel(shape, certs)
    if spec is None:
        report.certificates["note"] = (
            "Euler-homogeneous of Bessel shape but the symbol roots are "
            "not all rational: unresolved over Q")
    else:
        report.verdict = VERDICT_BESSEL
        N = L.order
        certs["bessel_weight_sum_normalized"] = 2 * sum(spec.betas) == N * (N - 1)
    return True


# ---------------------------------------------------------------------------
# increasing branch
# ---------------------------------------------------------------------------

def _classify_increasing(L: DiffOp, report: ClassificationReport, budgets: Budgets):
    # L is monic, normalized and increasing here, so principal_part raises
    # only NotAiryShape: the leading form is not (y^N - lam x)^1, which
    # excludes L (its docstring proves that the orders decide the form)
    try:
        A, V = principal_part(L)
    except err.NotAiryShape as e:
        report.verdict = VERDICT_OBSTRUCTED
        report.certificates["obstruction"] = str(e)
        return
    shape = airy_shape(A)
    report.certificates["principal_part"] = A
    report.certificates["perturbation"] = V
    if not shape.strict:
        report.certificates["airy_shape_note"] = {
            "lam": shape.lam, "a0": shape.a0,
            "note": "equivalent to the -x normalization by dilation/translation",
        }
    if V.is_zero():
        report.verdict = VERDICT_AIRY
        report.certificates["airy_parameters"] = dict(shape.a)
        return
    trace = perturbation_obstruction((A, V), budgets.obstruction_steps)
    report.certificates["obstruction_trace"] = trace.certificate()
    report.verdict = (VERDICT_OBSTRUCTED if trace.obstructed
                      else VERDICT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# bounded branch
# ---------------------------------------------------------------------------

def _classify_bounded(
    L: DiffOp,
    report: ClassificationReport,
    budgets: Budgets,
    theta: Optional[Poly],
    P: Optional[DiffOp],
):
    N = L.order
    # this branch is taken only when no coefficient grows, the one thing
    # the split refuses
    f, V = split_constant_part(L)
    report.certificates["constant_part"] = poly_text(f, "z")

    if V.is_zero():
        report.verdict = VERDICT_CONSTCOEFF
        return

    if P is not None:
        _record_bessel(L, report.certificates)
        _darboux_certificate(L, P, N, report)

    # the exact certificates cost up to about 0.1 s, the theta search up
    # to seconds: every family of the bounded branch is Fuchsian at
    # its finite poles and has a rational wave operator
    irregular = fuchs_violation(L)
    if irregular is not None:
        report.verdict = VERDICT_OBSTRUCTED
        report.certificates["irregular_singularity"] = irregular
        return
    # the wave operator through trunc, solved once: a logarithm decides
    # Obstructed, another error is kept for the note, and a passing chain
    # reads Lambda from the same K
    K = probe = None
    try:
        K = wave_operator(L, f, budgets.trunc)
    except err.LogObstruction as e:
        report.verdict = VERDICT_OBSTRUCTED
        report.certificates["obstruction"] = (
            f"wave recursion needs a logarithmic antiderivative: {e}"
        )
        return
    except err.BispecError as e:
        # kept as text: the exception's traceback holds the probe's frames
        probe = f"{type(e).__name__}: {e}"

    lmax = min(budgets.ad_budget, budgets.theta_lmax)
    if theta is not None:
        candidates = [theta] if 1 <= theta.degree <= budgets.ad_budget else []
    else:
        candidates = [Poly.monomial(l) for l in range(1, lmax + 1)]
    # the exponent is deg theta or none (see ad_condition_min_m); the
    # verdict reads only the first admitted theta, so no later chain is
    # built, and that chain's end ad^m(theta) goes on to bounded_test
    admitted = next(((t, end[1]) for t in candidates
                     if (end := ad_condition_min_m(L, t, t.degree)) is not None),
                    None)
    if admitted is None:
        report.certificates["admissible_thetas"] = []
        report.verdict = VERDICT_INCONCLUSIVE
        if probe is not None:
            report.errors.append(probe)
        # a caller's theta that was not tried says why, whatever the probe
        if probe is None or (theta is not None and not candidates):
            report.certificates["note"] = _no_theta_note(theta, lmax, budgets.ad_budget)
        else:
            report.certificates["note"] = "wave coefficients not recognized rational"
        return

    use, Q = admitted
    report.certificates["admissible_thetas"] = [str(use)]
    # L is monic and use admitted with 1 <= deg use, so NotRankOrderCase
    # is the one error bounded_test can raise here
    try:
        chain = bounded_test(L, f, use, Q)
    except err.NotRankOrderCase:
        report.certificates["ad_theta"] = str(use)
        report.certificates["rank_order_case"] = False
        report.verdict = VERDICT_POLYNOMIAL
        return
    report.certificates["bounded_chain"] = chain.certificate()
    if chain.passes:
        report.verdict = VERDICT_MONOMIAL
        if K is None:
            report.errors.append(probe)
            return
        try:
            lam = build_lambda(K, use)
            report.certificates["lambda"] = lam
            report.certificates["ad_m"] = lam.order
        except err.BispecError as e:
            report.errors.append(f"{type(e).__name__}: {e}")
        return
    if chain.identity_holds and chain.divisibility_ok and chain.q_r_ok:
        # chain consistent except nonzero constants: rank < order forced
        report.certificates["rank_order_case"] = False
        report.verdict = VERDICT_POLYNOMIAL


def _no_theta_note(theta: Optional[Poly], lmax: int, ad_budget: int) -> str:
    """Why the theta search found nothing: the monomials it tried, or why
    the caller's theta was rejected."""
    if theta is None:
        return (f"no admissible theta among monomials up to degree "
                f"{lmax} within ad budget {ad_budget}")
    if theta.degree < 1:
        return f"theta = {theta} not tried: theta must be non-constant"
    if theta.degree > ad_budget:
        return (f"theta = {theta} not tried: its degree {theta.degree} is "
                f"above the ad budget {ad_budget}")
    return (f"theta = {theta} is not admissible: its ad chain does not end "
            f"after deg theta + 1 = {theta.degree + 1} brackets")


def _darboux_certificate(L: DiffOp, P: DiffOp, N: int, report: ClassificationReport):
    """With a user-supplied P, complete L = P Q, reconstruct the base Q P
    and attach the full factorization certificate."""
    try:
        Q, R = left_divide(L, P)
    except err.BispecError as e:
        report.errors.append(f"{type(e).__name__}: {e}")
        return
    if not R.is_zero():
        report.errors.append("NotAFactor: P does not left-divide L")
        return
    base = dop_mul(Q, P)
    cert: dict[str, Any] = {
        "P": P,
        "Q": Q,
        "base": base,
        "p_form_ok": p_form_check(P, N),
    }
    spec = bessel_recover(base)
    if spec is not None:
        cert["base_bessel_betas"] = list(spec.betas)
        cert["base_integrality"] = bessel_integrality(spec)
        cert["monomial"] = True
    report.certificates["darboux"] = cert
