"""Verdicts are invariant under the maps of the Weyl algebra that keep the
families of the paper.

Conjugation by a rational h sends L to h^-1 L h, that is d to d + h'/h;
L and h^-1 L h share the eigenfunctions of L up to the factor h^-1, and a
dual operator acting in z is unchanged.  So a decided verdict must not
move.  The gauge that removes the subleading coefficient undoes the
conjugation, whether or not h' / h has a rational antiderivative.

Dilation x -> a x, d -> d / a, rescaled to a monic L, sends an
eigenfunction psi(x, z) of L to psi(a x, z) and the eigenvalue f(z) to
a^N f(z); the dual operator in z keeps its form, so the verdict stays.
"""

from datetime import timedelta
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispec import DiffOp, Poly, RatFunc, classify, parse_operator

TP = "d^3 - 3*d - 6*x^-2*d + 12*x^-3"

# inputs the classifier decides, one or more per verdict
DECIDED = (
    "d^3 - x",
    "d^5 - x",
    "d^2 - x + x^-2",
    "d^3 + x*d",
    "d^2 - x^4",
    "d^2 + x^2",
    "d^5 + d",
    "d^2 - 2*x^-2",
    "x^-2*(x*d-1/2)*(x*d-1/2)",
    "d^2 - 2*(x+1)^-2",
    "d^2 + x^-1",
    "d^2 + 3*(x+1)^-3",
    "d^2 + 1 - 2*x^-2",
    TP,
)

CONJUGATORS = ("x+1", "x-2", "x^2+1", "(x+1)^2")


@given(st.sampled_from(DECIDED), st.sampled_from(CONJUGATORS))
@example("d^3 - x", "x+1")
@example("d^3 - x", "x^2+1")
@example("d^2 - 2*x^-2", "x+1")
@example("d^2 - 2*x^-2", "x^2+1")
@example(TP, "x+1")
@example(TP, "x^2+1")
@example("d^2 + 1 - 2*x^-2", "x+1")
@example("d^2 + 1 - 2*x^-2", "x^2+1")
@settings(max_examples=12, deadline=timedelta(seconds=5))
def test_conjugation_keeps_the_verdict(text, h):
    verdict = classify(text).verdict
    assert verdict != "Inconclusive"
    conjugate = classify(f"({h})^-1*({text})*({h})")
    assert conjugate.errors == []
    assert conjugate.verdict == verdict


DILATIONS = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-2, 3))


def dilate(L: DiffOp, a: Fraction) -> DiffOp:
    """a^N L(a x, d / a): the coefficient c_j(x) of d^j becomes
    a^(N - j) c_j(a x), so the result stays monic."""

    def at(p: Poly) -> Poly:
        return Poly([c * a ** k for k, c in enumerate(p.coeffs)])

    N = L.order
    return DiffOp(L.var, {j: RatFunc(at(c.num), at(c.den)).scale(a ** (N - j))
                          for j, c in L.coeffs.items()})


def test_dilation_map():
    L = parse_operator("d^3 - 3*d - 6*x^-2*d + 12*x^-3")
    assert dilate(L, Fraction(2)) == parse_operator("d^3 - 12*d - 6*x^-2*d + 12*x^-3")
    assert dilate(parse_operator("d^3 - x"), Fraction(2)) == parse_operator("d^3 - 16*x")


@given(st.sampled_from(DECIDED), st.sampled_from(DILATIONS))
@example("d^3 - x", Fraction(2))
@example("d^2 + 1 - 2*x^-2", Fraction(1, 2))
@example(TP, Fraction(-2, 3))
@settings(max_examples=12, deadline=timedelta(seconds=5))
def test_dilation_keeps_the_verdict(text, a):
    verdict = classify(text).verdict
    assert verdict != "Inconclusive"
    assert classify(dilate(parse_operator(text), a)).verdict == verdict
