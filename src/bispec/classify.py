"""The end-to-end classification pipeline for prime-order operators.

The pipeline is the tuple ``STAGES``, the one place its order lives.
Each stage reads and extends the run's context; it returns a verdict,
which ends the run, or None, which passes on.  A run that no stage
decides is Inconclusive.  In order:

- ``_bessel``: the Bessel shape, read from the coefficients before the
  gauge (so the betas are the input's), first at the origin and then
  after translating a single finite pole there;
- ``_gauge``: the gauge that removes the d^(N-1) coefficient, and the
  Bessel shape again on an operator it changed (neither Bessel reading
  runs when a Darboux factor P is given);
- ``_increasing``: on an operator whose coefficients grow at infinity,
  one call of the perturbation obstruction, which splits off the
  principal part, whose one scan of the coefficient orders decides the
  Airy leading form (y^N - lam x)^1, reads the Airy shape once and walks
  the perturbation; its trace carries all three.  The only bispectral
  survivors are the generalized Airy operators.  It decides every
  increasing operator, so the stages after it see bounded ones only;
- ``_constant``: the constant-coefficient shape;
- ``_darboux_certificate``: a caller's P, completed to L = P Q;
- ``_fuchs`` and ``_wave_probe``: two exact obstructions, Fuchs'
  pole-order criterion and a logarithm in the wave coefficients through
  the truncation, whose one solve also serves Lambda; the probe's other
  errors go into the report's errors;
- ``_theta_chain``: the ad-condition chain of the first admitted theta;
  a passing chain with all constants zero marks a
  monomial-Darboux-of-Bessel candidate, while a failing constants check
  or a non-polynomial ad power routes to the constant-coefficient
  Darboux branch.  When no theta is admitted it notes why and passes
  on, so a decision stage after the search is one more entry in
  ``STAGES``.

That last verdict needs no centralizer: the chain says rank < order, and
for a prime order the rank divides the order, so it is 1 (``bispec
centralizer`` searches the commuting operators on request).  A passing
chain does not bound the rank either: the Adler-Moser operator
d^2 - (6x^4 - 12x)/(x^3 + 1)^2 passes it with theta = (x^3 + 1)^2, yet it
commutes with an operator of order 5, so its rank is 1.

A caller's theta has one reader, ``read_theta``: it takes a ``Poly``,
operator text (the CLI's ``--theta``) or a derivative-free ``DiffOp``
with a polynomial coefficient.

Every verdict carries machine-checkable certificates (principal part and
perturbation, ad data, Lambda, Darboux pairs, obstruction traces) that
the other modules can re-verify independently.  ``classify`` returns its
report as the dict that ``bispec classify --json`` writes, built once
when the run ends, and its certificates hold values: the obstruction
trace as its record's ``certificate`` dict, the bounded chain as the
dict ``bounded_test`` returns, and every function or operator as itself.
The CLI writes each of those as its ``str``, which ``parse_operator``
reads back.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Optional, Union

from . import errors as err
from .poly import Poly, poly_text
from .diffop import DiffOp, dop_mul, gauge_normalize, left_divide
from .parser import parse_operator
from .families import (
    BesselSpec,
    bessel_integrality,
    bessel_recover,
    is_euler_homogeneous,
    p_form_check,
)
from .airy import OBSTRUCTION_STEPS, perturbation_obstruction
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
                if v:
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
) -> dict[str, Any]:
    """Classify against the prime-order families by running ``STAGES``
    until one returns a verdict; errors from sub-modules are embedded in
    the report rather than raised.  Each stage catches only what it can
    meet on the monic, normalized operator its earlier stages hand it.

    The families overlap, and the first stage whose certificate holds
    names the verdict.  So ``d^2 - 2*x^-2`` reads Bessel(2), though it is
    also ``darboux(d^2, d - x^-1)``, and the Adler-Moser operator
    d^2 - (6x^4 - 12x)/(x^3 + 1)^2 reads MonomialDarbouxCandidate(4)
    under theta = (x^3 + 1)^2, though it is also P d^2 P^-1 for an order-2
    P.  ``_bessel`` leaves d^N (beta = 0, ..., N - 1) to ``_constant``, so
    d^2 reads ConstantCoeff(3).

    The report is the dict that ``bispec classify --json`` writes:
    ``input``, ``branch``, ``verdict``, ``operator`` (the normalized
    ``DiffOp``, None when an input guard refuses L), ``certificates``,
    ``errors`` and ``trace_sizes``; the certificates hold values, not text.

    ``L`` may be operator text, which is parsed (OperatorSyntaxError is
    raised for malformed text) and is then the default ``input_text``.
    ``theta`` is read by ``read_theta``: a ``Poly``, operator text or a
    derivative-free ``DiffOp`` with a polynomial coefficient."""
    if isinstance(L, str):
        input_text = input_text or L
        L = parse_operator(L)
    theta = read_theta(theta)
    input_text = input_text or str(L)
    if L.is_zero() or L.order < 2:
        return _report(input_text, "", VERDICT_INCONCLUSIVE, None, {},
                       ["order must be at least 2"], {})
    if not L.is_monic():
        return _report(input_text, "", VERDICT_INCONCLUSIVE, None, {},
                       ["NotMonic: leading coefficient must be 1"], {})
    N = L.order
    # a Bessel-decided operator is bounded: its coefficients are
    # w (x - x0)^(j - N); only _increasing says otherwise
    run = SimpleNamespace(L=L, N=N, theta=theta, P=P, budgets=budgets, K=None,
                          branch="bounded", certs={}, errors=[])
    prime = _is_prime(N)
    if not prime:
        run.certs["composite_order"] = N
    verdict = next(filter(None, (stage(run) for stage in STAGES)),
                   VERDICT_INCONCLUSIVE)
    if not prime and verdict in FAMILY_VERDICTS:
        run.certs["composite_note"] = (
            f"order {N} is not prime: family verdicts do not apply; "
            f"certificates indicate {verdict}"
        )
        verdict = VERDICT_INCONCLUSIVE
    return _report(input_text, run.branch, verdict, run.L, run.certs, run.errors,
                   _size_stats(run.L))


def _report(*values) -> dict[str, Any]:
    """The report of ``classify``, keyed in the order ``--json`` writes."""
    return dict(zip(("input", "branch", "verdict", "operator", "certificates",
                     "errors", "trace_sizes"), values))


def _record_bessel(L: DiffOp, certs: dict[str, Any]) -> Optional[BesselSpec]:
    """Record the betas of a Bessel operator L in ``certs``; None when L
    is off that shape or its symbol roots are not all rational."""
    spec = bessel_recover(L)
    if spec is not None:
        certs["bessel_betas"] = list(spec.betas)
        certs["bessel_integrality"] = bessel_integrality(spec)
    return spec


def _bessel(run):
    """The Bessel shape of L, or of its translate T = L(x + x0) when every
    finite pole of L sits at one point x0 != 0; skipped when the caller
    gives P.  Bessel operators stay bispectral under x -> x + x0, so that
    pole is the only candidate centre.  A monic (x - x0)^k has -k*x0 as
    its coefficient of x^(k-1), so each denominator proposes x0 without a
    gcd.  The verdict is Bessel(2) when the symbol roots are rational,
    else Inconclusive with a note; the betas of a translate go into its
    ``translation`` certificate only."""
    if run.P is not None:
        return None
    L, certs = run.L, run.certs
    shape = L
    if not is_euler_homogeneous(L):
        centres = {-c.den.coeffs[-2] / c.den.degree
                   for c in L.coeffs.values() if c.den.degree > 0}
        if len(centres) != 1 or 0 in centres:
            return None
        x0, = centres
        shape = L.translate(x0)
        if not is_euler_homogeneous(shape):
            return None
        certs["translation"] = certs = {"x0": x0, "operator": shape}
    elif len(L.coeffs) == 1:
        return None  # d^N: the constant-coefficient verdict wins
    spec = _record_bessel(shape, certs)
    if spec is None:
        run.certs["note"] = (
            "Euler-homogeneous of Bessel shape but the symbol roots are "
            "not all rational: unresolved over Q")
        return VERDICT_INCONCLUSIVE
    certs["bessel_weight_sum_normalized"] = 2 * sum(spec.betas) == run.N * (run.N - 1)
    return VERDICT_BESSEL


def _gauge(run):
    """Remove the d^(N-1) coefficient, and read the Bessel shape of the
    operator again when that changed it.  L is monic of order N >= 2, so
    the d^(N-1) coefficient of L(d + g') is N g' + V_(N-1) = 0: neither
    NotMonic nor NonRationalGauge can be raised."""
    if run.L.coeff(run.N - 1).is_zero():
        return None
    run.L, run.certs["gauge"] = gauge_normalize(run.L)
    return _bessel(run)


def _increasing(run):
    """The increasing branch, decided by one ``perturbation_obstruction``
    call, whose trace carries the split A + V and the shape of A.  L is
    monic and increasing here, so the walk raises only NotAiryShape.
    That comes from ``principal_part`` alone: the leading form is not
    (y^N - lam x)^1, which excludes L (its docstring proves that the
    orders decide the form).  The walk's own refusal of a d^(N-1) term
    cannot fire, since ``_gauge`` removed that term before, so neither A
    nor V has one."""
    L, certs = run.L, run.certs
    if not any(c.infinity_order() > 0 for c in L.coeffs.values()):
        return None
    run.branch = "increasing"
    try:
        trace = perturbation_obstruction(L, run.budgets.obstruction_steps)
    except err.NotAiryShape as e:
        certs["obstruction"] = str(e)
        return VERDICT_OBSTRUCTED
    shape = trace.shape
    certs["principal_part"] = trace.A
    certs["perturbation"] = trace.V
    if not shape.strict:
        certs["airy_shape_note"] = {
            "lam": shape.lam, "a0": shape.a0,
            "note": "equivalent to the -x normalization by dilation/translation",
        }
    if trace.verdict == "clean":
        certs["airy_parameters"] = dict(shape.a)
        return VERDICT_AIRY
    certs["obstruction_trace"] = trace.certificate()
    return VERDICT_OBSTRUCTED if trace.obstructed else VERDICT_INCONCLUSIVE


def _constant(run):
    # no coefficient grows here, the one thing the split refuses
    run.f, V = split_constant_part(run.L)
    run.certs["constant_part"] = poly_text(run.f, "z")
    return VERDICT_CONSTCOEFF if V.is_zero() else None


def _darboux_certificate(run):
    """With a user-supplied P, record the Bessel shape of L, complete
    L = P Q, reconstruct the base Q P and attach the full factorization
    certificate."""
    P = run.P
    if P is None:
        return
    _record_bessel(run.L, run.certs)
    try:
        Q, R = left_divide(run.L, P)
    except err.BispecError as e:
        run.errors.append(err.error_text(e))
        return
    if not R.is_zero():
        run.errors.append("NotAFactor: P does not left-divide L")
        return
    base = dop_mul(Q, P)
    cert = {"P": P, "Q": Q, "base": base, "p_form_ok": p_form_check(P, run.N)}
    spec = bessel_recover(base)
    if spec is not None:
        cert["base_bessel_betas"] = list(spec.betas)
        cert["base_integrality"] = bessel_integrality(spec)
        cert["monomial"] = True
    run.certs["darboux"] = cert


def _fuchs(run):
    # the exact certificates cost up to about 0.1 s, the theta search up
    # to seconds: every family of the bounded branch is Fuchsian at its
    # finite poles and has a rational wave operator
    irregular = fuchs_violation(run.L)
    if irregular is None:
        return None
    run.certs["irregular_singularity"] = irregular
    return VERDICT_OBSTRUCTED


def _wave_probe(run):
    """The wave operator K through trunc, solved once: a logarithm decides
    Obstructed, another error goes into the report's errors, and a passing
    chain reads Lambda from the same K."""
    try:
        run.K = wave_operator(run.L, run.f, run.budgets.trunc)
    except err.LogObstruction as e:
        run.certs["obstruction"] = (
            f"wave recursion needs a logarithmic antiderivative: {e}"
        )
        return VERDICT_OBSTRUCTED
    except err.BispecError as e:
        # kept as text: the exception's traceback holds the probe's frames
        run.errors.append(err.error_text(e))
    return None


def _theta_chain(run):
    """The first admitted theta (the caller's, or a monomial) and its
    chain's verdict; None, with a note, when none is admitted.  The
    exponent is deg theta or none (see ad_condition_min_m), and the
    verdict reads only the first admitted theta, so no later chain is
    built.  ``bounded_test`` takes the admitted chain's end, then Lambda
    comes from the probe's K.  L is monic and theta admitted with
    1 <= deg theta, so NotRankOrderCase is the one error bounded_test can
    raise here."""
    theta, budgets, certs = run.theta, run.budgets, run.certs
    lmax = min(budgets.ad_budget, budgets.theta_lmax)
    if theta is not None:
        candidates = [theta] if 1 <= theta.degree <= budgets.ad_budget else []
    else:
        candidates = [Poly.monomial(l) for l in range(1, lmax + 1)]
    for t in candidates:
        end = ad_condition_min_m(run.L, t, t.degree)
        if end is not None:
            break
    else:
        certs["admissible_thetas"] = []
        # a caller's theta that was not tried says why, whatever the probe
        if run.K is not None or (theta is not None and not candidates):
            certs["note"] = _no_theta_note(theta, lmax, budgets.ad_budget)
        else:
            certs["note"] = "wave coefficients not recognized rational"
        return None
    certs["admissible_thetas"] = [str(t)]
    try:
        chain = bounded_test(run.L, run.f, t, end[1])
    except err.NotRankOrderCase:
        certs["ad_theta"] = str(t)
        certs["rank_order_case"] = False
        return VERDICT_POLYNOMIAL
    certs["bounded_chain"] = chain
    if chain["failures"]:
        # whenever bounded_test returns, only the constants of f can fail
        # (its docstring proves it): rank < order is forced
        certs["rank_order_case"] = False
        return VERDICT_POLYNOMIAL
    if run.K is not None:
        try:
            lam = build_lambda(run.K, t)
            certs["lambda"] = lam
            certs["ad_m"] = lam.order
        except err.BispecError as e:
            run.errors.append(err.error_text(e))
    return VERDICT_MONOMIAL


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


STAGES = (_bessel, _gauge, _increasing, _constant, _darboux_certificate,
          _fuchs, _wave_probe, _theta_chain)
