"""The public refusals that no other test reaches, one case each.

Each case names the error a call raises and its message, so that a check
that stops firing, or starts firing with another reason, shows here.
"""

import json
import re

import pytest

from bispec import (
    BadIndex,
    DiffOp,
    NotAiryShape,
    NotHomogeneous,
    NotInDomain,
    PDO,
    Poly,
    RatFunc,
    ReconstructionFailed,
    TruncationTooShort,
    ZeroOperand,
    airy_involution,
    airy_kernel_series,
    airy_shape,
    build_lambda,
    conjugate_theta,
    make_airy,
    make_constcoeff,
    normal_form_test,
    p_form_check,
    parse_operator,
    wave_operator,
    weighted_order,
)
from bispec.cli import main

P = parse_operator

REFUSALS = {
    "airy_shape-non-monic": (lambda: airy_shape(P("2*d^2 - x")),
                             NotAiryShape, "Airy operator must be monic"),
    "airy_shape-order-1": (lambda: airy_shape(P("d - x")),
                           NotAiryShape, "Airy order must be >= 2"),
    "airy_shape-growing-middle": (lambda: airy_shape(P("d^3 + x*d - x")),
                                  NotAiryShape, "coefficient of d^1 is not constant"),
    "airy_shape-quadratic-potential": (lambda: airy_shape(P("d^2 - x^2")),
                                       NotAiryShape, "order-0 coefficient must be a0 - lam*x"),
    "airy_kernel_series-init-length": (lambda: airy_kernel_series(P("d^2 - x"), [1], 4),
                                       ValueError, "need 2 initial derivatives"),
    "airy_involution-lam-2": (lambda: airy_involution(P("d"), P("d^2 - 2*x")),
                              NotInDomain, "Airy involution requires the -x normalization"),
    "PDO.inverse-lead-2": (lambda: PDO({0: 2}).inverse(3),
                           NotInDomain, "inverse requires 1 + (strictly decaying part)"),
    "wave_operator-non-monic-f": (lambda: wave_operator(P("d^2 - 2*x^-2"), Poly([0, 0, 2]), 4),
                                  ValueError, "f must be monic of the operator's order"),
    "conjugate_theta-trunc-0": (lambda: conjugate_theta(PDO({0: 1}, 0), Poly.x()),
                                TruncationTooShort, "need truncation >= 1"),
    "build_lambda-non-polynomial-theta": (
        lambda: build_lambda(wave_operator(P("d^2 - 2*x^-2"), Poly([0, 0, 1]), 4), Poly.x()),
        ReconstructionFailed, "non-polynomial conjugate coefficients at d^-j, j in (2, 3, 4)"),
    "normal_form_test-off-the-weight-line": (
        lambda: normal_form_test({(0, 1): 1, (1, 0): 1}, (2, 2)),
        NotHomogeneous, "terms do not lie on a single weight line"),
    "weighted_order-zero": (lambda: weighted_order(DiffOp.zero(), (1, 1)),
                            ZeroOperand, "weighted order of the zero operator"),
    "make_airy-order-1": (lambda: make_airy(1), BadIndex, "Airy order must be >= 2"),
    "make_constcoeff-order-0": (lambda: make_constcoeff(0), BadIndex, "order must be >= 1"),
    "Poly.monomial-negative": (lambda: Poly.monomial(-1),
                               ValueError, "monomial degree must be >= 0"),
    "Poly.pow-negative": (lambda: Poly.x() ** -1, ValueError, "negative polynomial power"),
    "Poly.divmod-zero": (lambda: Poly.x().divmod(Poly.zero()),
                         ZeroDivisionError, "polynomial division by zero"),
    "Poly.exact_div-inexact": (lambda: Poly.x().exact_div(Poly([1, 1])),
                               ValueError, "exact_div: division is not exact"),
    "RatFunc.constant_value-of-x": (lambda: RatFunc.x().constant_value(),
                                    ValueError, "not a constant"),
    "RatFunc.laurent_terms-pole-at-minus-1": (
        lambda: RatFunc(Poly([1]), Poly([1, 1])).laurent_terms(),
        ValueError, "not a Laurent polynomial"),
}


@pytest.mark.parametrize("call, error, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal_names_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_p_form_check_refuses_a_leading_coefficient_other_than_one():
    # x^1 * (2 x^-1) = 2 is not 1
    assert p_form_check(P("2*d - x^-1"), 2) is False


def test_airy_wave_of_a_first_order_operator_is_an_error(capsys):
    assert main(["--json", "airy-wave", "d + x"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "errors": ["NotAiryShape: Airy order must be >= 2"]}
