"""Verdicts are invariant under the maps of the Weyl algebra that keep the
families of the paper.

Conjugation by a rational h sends L to h^-1 L h, that is d to d + h'/h;
L and h^-1 L h share the eigenfunctions of L up to the factor h^-1, and a
dual operator acting in z is unchanged.  So a decided verdict must not
move.  The gauge that removes the subleading coefficient undoes the
conjugation, whether or not h' / h has a rational antiderivative.
"""

from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispec import classify

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
