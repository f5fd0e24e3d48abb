"""Acceptance suite: one test per criterion, exact arithmetic, zero
tolerance.  Each test prints its pass line once its assertions hold
(visible with pytest -s; the -v test name carries the criterion id)."""

import random
from fractions import Fraction

import pytest

from bispec import (
    BesselSpec,
    DiffOp,
    LogObstruction,
    ObstructionTrace,
    Poly,
    RatFunc,
    ad_condition_min_m,
    airy_bispectral_check,
    airy_kernel_series,
    airy_shape,
    airy_wave_solve,
    associated_polynomial,
    build_lambda,
    choose_weights,
    classify,
    commutator,
    darboux,
    dop_mul,
    make_airy,
    make_bessel,
    normal_form_test,
    parse_operator,
    perturbation_obstruction,
    print_operator,
    split_constant_part,
    wave_operator,
    wave_residual_zero,
)
from bispec.errors import OperatorSyntaxError
from bispec.weights import BiHomPoly, WeightPair
from oracles import bounded_chain, mono_ad_chain, mono_of_diffop, random_diffop

d = DiffOp.d()
x = DiffOp.x()


def xpow(k, c=1):
    return DiffOp.from_function(RatFunc.x_power(k, c))


def ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_weyl_ring_suite():
    """Associativity, distributivity and Jacobi on 200 random draws."""
    rng = random.Random(20240811)
    for _ in range(200):
        a = random_diffop(rng, max_order=4, max_degree=4)
        b = random_diffop(rng, max_order=4, max_degree=4)
        c = random_diffop(rng, max_order=4, max_degree=4)
        assert dop_mul(dop_mul(a, b), c) == dop_mul(a, dop_mul(b, c))
        assert dop_mul(a, b + c) == dop_mul(a, b) + dop_mul(a, c)
        assert dop_mul(a + b, c) == dop_mul(a, c) + dop_mul(b, c)
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac.is_zero()
    ok("01 weyl-ring-suite")


def test_criterion_02_bessel_identity():
    """make_bessel(0, 1, ..., p-1) = d^p exactly for p in {2, 3, 5}."""
    for p in (2, 3, 5):
        assert make_bessel(BesselSpec(tuple(range(p)))) == d ** p
    ok("02 bessel-identity")


def test_criterion_03_darboux_round_trip():
    res = darboux(d * d, d - xpow(-1))
    assert res["Q"] == d + xpow(-1)
    assert res["transformed"] == d * d - xpow(-2, 2)
    assert dop_mul(res["Q"], res["P"]) == d * d
    assert dop_mul(res["P"], res["Q"]) == res["transformed"]
    ok("03 darboux-round-trip")


def test_criterion_04_ad_condition():
    """Minimal ad exponents, cross-checked by the independent
    commutator-chain oracle on the monomial algebra."""
    L1, t1 = d * d, Poly([0, 1])
    L2, t2 = d * d - x, Poly([0, 1])
    L3, t3 = d * d - xpow(-2, 2), Poly([0, 0, 1])

    assert ad_condition_min_m(L1, t1, 5)[0] == 1
    assert ad_condition_min_m(L2, t2, 5) == (2, DiffOp.const(2))
    assert ad_condition_min_m(L3, t3, 6) == (2, L3.scale(8))

    # oracle: chains computed in the independent monomial algebra
    for L, theta, m in ((L1, t1, 1), (L2, t2, 2), (L3, t3, 2)):
        g = mono_of_diffop(DiffOp.from_function(theta))
        chain = mono_ad_chain(mono_of_diffop(L), g, m + 1)
        assert chain[m] != {}
        assert chain[m + 1] == {}
    assert mono_ad_chain(mono_of_diffop(L3),
                         mono_of_diffop(DiffOp.from_function(t3)), 2)[2] \
        == mono_of_diffop(L3.scale(8))
    ok("04 ad-condition")


def test_criterion_05_bounded_chain():
    rep = bounded_chain(d * d - xpow(-2, 2), Poly([0, 0, 1]))
    assert rep["m"] == 2
    assert rep["q"] == [0, 8]
    assert rep["identity_holds"]  # 8 z^2 = 2! (2z)^2
    assert rep["s"] == 1 and rep["s"] * (2 - 1) == 1 == rep["r"]
    assert rep["q_r"] == 8 == rep["q_r_expected"]
    assert rep["failures"] == []
    ok("05 bounded-chain")


def test_criterion_06_lambda_reconstruction():
    L = d * d - xpow(-2, 2)
    lam = build_lambda(wave_operator(L, split_constant_part(L)[0], 8), Poly([0, 0, 1]))
    assert lam.order == 2
    expect = DiffOp("z", {2: RatFunc.one(), 0: RatFunc.x_power(-2, -2)})
    assert lam == expect
    assert lam.coeff(2) == RatFunc.one()
    assert lam.coeff(1).is_zero()
    ok("06 lambda-reconstruction")


def test_criterion_07_airy_bispectrality():
    for A in (make_airy(2), make_airy(3)):
        # the identities hold through total degree 12 - 2 = 10
        assert airy_bispectral_check(A, 12) is True
    s2 = airy_kernel_series(make_airy(2), (1, 0), 7)
    assert s2 == Poly([1, 0, 0, Fraction(1, 6), 0, 0, Fraction(1, 180)])
    s3 = airy_kernel_series(make_airy(3), (1, 0, 0), 5)
    assert s3 == Poly([1, 0, 0, 0, Fraction(1, 24)])
    ok("07 airy-bispectrality")


def test_criterion_08_filtration():
    for p in (2, 3):
        A = make_airy(p)
        w = choose_weights(A)
        assert (w.rho, w.sigma) == (p, 1)
        f = associated_polynomial(A, w)
        assert f.terms == {(0, p): 1, (1, 0): -1}
        nf = normal_form_test(f, w)
        assert nf.yrx == (p, 1, Fraction(1)) and nf.n == 0
    nf = normal_form_test(BiHomPoly({(0, 3): 1, (1, 1): -1}),
                          WeightPair(2, 1, (1, 1)))
    assert nf.nilpotency_excluded
    ok("08 filtration")


def test_criterion_09_perturbation_obstruction():
    t1 = perturbation_obstruction(d * d - x + xpow(-2), 10)
    assert t1.obstructed and len(t1.steps) <= 10
    t2 = perturbation_obstruction(d ** 3 + d - x + dop_mul(xpow(-1), d), 10)
    assert t2.obstructed and len(t2.steps) <= 10

    rng = random.Random(9)
    corpus = []
    for p in (2, 3, 5):
        corpus.append(make_airy(p))
        for _ in range(3):
            corpus.append(make_airy(p, {j: rng.randint(-5, 5)
                                        for j in range(1, p - 1)
                                        if rng.random() < 0.8}))
    corpus.extend(make_airy(2, {}) for _ in range(20 - len(corpus)))
    assert len(corpus) >= 20
    for A in corpus[:20]:
        assert perturbation_obstruction(A).verdict == "clean"

    # K = 1 exactly for the unperturbed operators: a clean trace
    solved = 0
    for L in (make_airy(2), make_airy(3, {1: 5}), d * d - x + xpow(-9)):
        out = airy_wave_solve(L, 3)
        assert isinstance(out, ObstructionTrace)
        if out.verdict == "clean":
            solved += 1
        else:
            assert out.obstructed
    assert solved >= 2
    ok("09 perturbation-obstruction")


def test_criterion_10_wave_recursion():
    L = d * d - xpow(-2, 2)
    f, _ = split_constant_part(L)
    K = wave_operator(L, f, 5)
    assert K.trunc == 5
    assert K.coeff(-1) == RatFunc.x_power(-1, -1)
    for j in range(1, 6):
        assert isinstance(K.coeff(-j), RatFunc)
    assert wave_residual_zero(L, f, K)
    with pytest.raises(LogObstruction):
        wave_operator(d * d + xpow(-1), Poly([0, 0, 1]), 2)
    ok("10 wave-recursion")


def test_criterion_11_end_to_end_classification():
    r = classify(parse_operator("d^3 - x"), input_text="d^3 - x")
    assert r["verdict"] == "Airy(1)"

    r = classify(parse_operator("d^5 + d"), input_text="d^5 + d")
    assert r["verdict"] == "ConstantCoeff(3)"

    text = "x^-2*(x*d-1/2)*(x*d-1/2)"
    r = classify(parse_operator(text), input_text=text)
    assert r["verdict"] == "Bessel(2)"
    assert r["certificates"]["bessel_betas"] == [Fraction(1, 2), Fraction(1, 2)]
    assert r["certificates"]["bessel_integrality"] is True
    # certificate re-verifies: rebuild the operator from the betas
    spec = BesselSpec(tuple(r["certificates"]["bessel_betas"]))
    assert make_bessel(spec) == r["operator"]

    r = classify(parse_operator("d^2 - x + x^-2"), input_text="d^2 - x + x^-2")
    assert r["verdict"] == "Obstructed"
    trace = perturbation_obstruction(r["operator"], 24)
    assert trace.verdict == r["certificates"]["obstruction_trace"]["verdict"]
    assert [(s.j, s.s, s.k, s.alpha) for s in trace.steps] == \
        r["certificates"]["obstruction_trace"]["steps"]

    # the principal-part certificate re-splits the operator
    r = classify(parse_operator("d^3 - x"))
    A, V = r["certificates"]["principal_part"], r["certificates"]["perturbation"]
    assert A + V == r["operator"]
    assert airy_shape(A).N == 3
    ok("11 end-to-end-classification")


def test_criterion_12_parser():
    rng = random.Random(12)
    for _ in range(100):
        L = random_diffop(rng, max_order=4, max_degree=6, min_exponent=-4)
        text = print_operator(L)
        assert parse_operator(text) == L
        assert print_operator(parse_operator(text)) == text
    malformed = ["d^", "x + ", "(d^2", "d^^2", "x^-2*", "y + 1",
                 "1/0", "*x", "3x", "d 2"]
    assert len(malformed) == 10
    for text in malformed:
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text)
        assert exc.value.position >= 0
    ok("12 parser")
