"""The classification pipeline, certificate re-verification, and the CLI."""

import gc
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bispec import (
    BesselSpec,
    Budgets,
    DiffOp,
    NotAiryShape,
    OperatorSyntaxError,
    Poly,
    RatFunc,
    airy_shape,
    associated_polynomial,
    bessel_recover,
    centralizer_search,
    choose_weights,
    classify,
    commutator,
    darboux,
    dop_mul,
    make_airy,
    make_bessel,
    make_constcoeff,
    normal_form_test,
    parse_operator,
    perturbation_obstruction,
    principal_part,
    print_operator,
    right_divide,
)
from bispec.cli import _jsonable, main

d = DiffOp.d()
x = DiffOp.x()


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


def classify_text(text, **kw):
    return classify(parse_operator(text), input_text=text, **kw)


class TestVerdicts:
    def test_airy(self):
        r = classify_text("d^3 - x")
        assert r["verdict"] == "Airy(1)"
        assert r["branch"] == "increasing"
        A, V = r["certificates"]["principal_part"], r["certificates"]["perturbation"]
        assert A + V == r["operator"] and V.is_zero()
        assert airy_shape(A).strict

    def test_constant_coefficient(self):
        r = classify_text("d^5 + d")
        assert r["verdict"] == "ConstantCoeff(3)"
        assert r["branch"] == "bounded"

    def test_bessel(self):
        r = classify_text("x^-2*(x*d-1/2)*(x*d-1/2)")
        assert r["verdict"] == "Bessel(2)"
        assert r["certificates"]["bessel_betas"] == [Fraction(1, 2), Fraction(1, 2)]
        assert r["certificates"]["bessel_integrality"] is True

    def test_obstructed_perturbation(self):
        r = classify_text("d^2 - x + x^-2")
        assert r["verdict"] == "Obstructed"
        assert r["certificates"]["obstruction_trace"]["verdict"] == "obstructed"

    def test_monomial_darboux_with_factor(self):
        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        assert r["verdict"] == "MonomialDarbouxCandidate(4)"
        cert = r["certificates"]["darboux"]
        assert print_operator(cert["Q"]) == "d + x^-1"
        assert print_operator(cert["base"]) == "d^2"
        assert cert["base_bessel_betas"] == [Fraction(0), Fraction(1)]
        assert r["certificates"]["bounded_chain"]["m"] == 2
        assert print_operator(r["certificates"]["lambda"]) == "d^2 - 2*z^-2"

    @pytest.mark.parametrize("factor,error", [
        ("d + 1", "NotAFactor: P does not left-divide L"),
        ("0", "DivisionByZeroOperator: left division by the zero operator"),
    ])
    def test_factor_that_does_not_divide(self, factor, error):
        # the verdict stands on the chain; the failed division is reported
        # and no darboux certificate is attached
        r = classify_text("d^2 - 2*x^-2", P=parse_operator(factor))
        assert r["verdict"] == "MonomialDarbouxCandidate(4)"
        assert r["errors"] == [error]
        assert "darboux" not in r["certificates"]

    def test_polynomial_darboux(self):
        # Darboux transform of d^2 + 1: chain passes except nonzero constant
        r = classify_text("d^2 + 1 - 2*x^-2")
        assert r["verdict"] == "PolynomialDarbouxCandidate(5)"
        assert r["certificates"]["rank_order_case"] is False
        # rank < order 2 leaves rank 1, which the centralizer confirms
        cen = centralizer_search(parse_operator("d^2 + 1 - 2*x^-2"), 3)
        assert cen["orders"] == [0, 2, 3]
        assert cen["rank"] == 1

    def test_passing_chain_does_not_fix_the_rank(self):
        # the Adler-Moser operator L P = P d^2 passes the chain with all
        # constants zero, so it keeps the monomial label; but M = P d^5 P^-1
        # commutes with it, so its rank is gcd(2, 5) = 1, not its order
        L = parse_operator("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2")
        r = classify(L, theta=Poly([1, 0, 0, 1]) ** 2)
        assert r["verdict"] == "MonomialDarbouxCandidate(4)"
        assert r["certificates"]["bounded_chain"]["failures"] == []
        P = parse_operator("d^2 - 3*x^2*(x^3+1)^-1*d + 3*x*(x^3+1)^-1")
        M, rem = right_divide(dop_mul(P, d ** 5), P)
        assert rem.is_zero() and M.order == 5
        assert commutator(L, M).is_zero()

    AM2 = "d^2 - (6*x^4 - 12*x)*(x^3+1)^-2"

    ARCTAN = "d^2 - 2*(x^2+1)^-1"
    NOT_RATIONAL = "ReconstructionFailed: no rational antiderivative within degree bounds"

    @pytest.mark.parametrize("text, theta, note, errors", [
        # the arctan anchor's probe fails too: the note still says why
        # theta was not tried, and the probe's error is kept
        (ARCTAN, Poly([2]), "theta = 2 not tried: theta must be non-constant",
         [NOT_RATIONAL]),
        (AM2, Poly([3]), "theta = 3 not tried: theta must be non-constant", []),
        (AM2, Poly.zero(), "theta = 0 not tried: theta must be non-constant", []),
    ], ids=["arctan-2", "AM2-3", "AM2-0"])
    def test_constant_theta_decides_nothing(self, text, theta, note, errors):
        # ad^1(c) = 0, so a constant's chain ends at once with m = 0: the
        # first two used to give MonomialDarbouxCandidate(4), AM2 with
        # lambda: 1 and ad_m: 0, and theta = 0 a note about 0 brackets
        r = classify(text, theta=theta)
        assert r["verdict"] == "Inconclusive"
        assert r["certificates"]["admissible_thetas"] == []
        assert r["certificates"]["note"] == note
        assert r["errors"] == errors
        assert not {"bounded_chain", "lambda", "ad_m"} & r["certificates"].keys()

    def test_theta_above_the_budget_is_named_when_the_probe_fails(self):
        # the probe's note used to hide why x^2 was not tried
        r = classify(self.ARCTAN, theta=Poly.monomial(2), budgets=Budgets(ad_budget=1))
        assert r["verdict"] == "Inconclusive"
        assert r["certificates"]["note"] == ("theta = x^2 not tried: its degree 2 is "
                                          "above the ad budget 1")
        assert r["errors"] == [self.NOT_RATIONAL]

    def test_lambda_names_the_truncation_cap(self):
        # Lambda of AM2 has order m = 6, so its lift may need degree
        # 2m = 12; at the default trunc 8 the tail at d_z^1 holds too few
        # known terms for more than degree 1, and the error says so
        r = classify("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2", theta=Poly([1, 0, 0, 1]) ** 2)
        assert r["verdict"] == "MonomialDarbouxCandidate(4)"
        assert "lambda" not in r["certificates"]
        assert r["errors"] == ["ReconstructionFailed: Lambda coefficient at d_z^1: the "
                            "Pade degree is capped at 1 by trunc 8; trunc 30 lifts "
                            "the full degree 12"]

    def test_wave_obstruction(self):
        r = classify_text("d^2 + x^-1")
        assert r["verdict"] == "Obstructed"
        assert "obstruction" in r["certificates"]

    def test_nilpotency_excluded(self):
        # f = y(y^2 - x): the growing point (1, 1) breaks the Airy shape
        r = classify_text("d^3 + x*d")
        assert r["verdict"] == "Obstructed"
        assert r["certificates"]["obstruction"] == (
            "growing points [(1, 1)] are not [(1, 0)]")

    def test_wrong_shape_obstructed(self):
        # the (1, 1) forms of d^2 + x^2 and d^2 + 3*x^2 factor over
        # Q(sqrt(-1)) and Q(sqrt(-3)) only; a (1, 1) form is never
        # (y^N - lam x)^1 for N >= 2, whatever field its factors live in
        for text, m in (("d^2 - x^4", 4), ("d^2 - x^2", 2), ("d^2 + x^2", 2),
                        ("d^2 + 3*x^2", 2)):
            r = classify_text(text)
            assert r["verdict"] == "Obstructed", text
            assert r["certificates"]["obstruction"] == (
                f"growing points [({m}, 0)] are not [(1, 0)]"), text

    def test_composite_order_inconclusive(self):
        r = classify_text("d^4 - x")
        assert r["verdict"] == "Inconclusive"
        assert "Airy(1)" in r["certificates"]["composite_note"]

    def test_not_monic(self):
        r = classify_text("2*d^2 - x")
        assert r["verdict"] == "Inconclusive"
        assert any("NotMonic" in e for e in r["errors"])

    def test_gauge_applied(self):
        r = classify_text("d^2 + 2*d - x")
        assert r["verdict"] == "Airy(1)"
        assert r["certificates"]["gauge"] == RatFunc.const(-1)

    def test_bessel_without_weight_normalization(self):
        # sum of betas away from N(N-1)/2: the operator keeps a d^(N-1)
        # term and only the homogeneity route can recognize it
        L = make_bessel(BesselSpec((0, 0)))
        r = classify(L)
        assert r["verdict"] == "Bessel(2)"
        assert r["certificates"]["bessel_weight_sum_normalized"] is False

    def test_operator_text_is_parsed(self):
        # regression: text used to reach print_operator and raise
        # AttributeError: 'str' object has no attribute 'is_zero'
        r = classify("d^2 + x^-1")
        assert r["input"] == "d^2 + x^-1"
        assert r["verdict"] == "Obstructed"
        want = _jsonable(classify(parse_operator("d^2 + x^-1")))
        assert _jsonable(r) == want
        assert classify("d^3-x", input_text="Airy")["input"] == "Airy"
        # theta is read alike from text, an operator and a Poly
        docs = [_jsonable(classify("d^5 + x^-3", theta=t))
                for t in ("x", parse_operator("x"), Poly.x())]
        assert docs[0] == docs[1] == docs[2]
        assert docs[0]["certificates"]["note"] == (
            "theta = x is not admissible: its ad chain does not end after "
            "deg theta + 1 = 2 brackets")

    def test_operator_text_syntax_error(self):
        with pytest.raises(OperatorSyntaxError):
            classify("d^2 + ")
        # a theta with d or with a denominator is refused as the CLI's
        # --theta is, with the same messages
        for theta, message in (("d", "theta must not contain d"),
                               ("x^-1", "theta must be a polynomial")):
            with pytest.raises(OperatorSyntaxError,
                               match=rf"^{message} \(at position 0\)$"):
                classify("d^5 + x^-3", theta=theta)

    def test_large_constant_bessel_shape_decides_quickly(self):
        # the symbol w(w - 1) - 10^20 has no rational root; finding that
        # must not take time growing with sqrt(10^20)
        start = time.perf_counter()
        r = classify("d^2 - 100000000000000000000*x^-2")
        assert time.perf_counter() - start < 1.0
        assert r["verdict"] == "Inconclusive"

    def test_bessel_irrational_roots_unresolved(self):
        # symbol u^2 - 2 has rational coefficients but irrational roots
        L = parse_operator("d^2 + x^-1*d - 2*x^-2")
        r = classify(L)
        assert r["verdict"] == "Inconclusive"
        assert "unresolved over Q" in r["certificates"]["note"]


class TestFamilySweep:
    def test_family_draws_classify_correctly(self):
        rng = random.Random(137)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            kind = rng.choice(["airy", "bessel", "const"])
            if kind == "airy":
                L = make_airy(p, {j: rng.randint(-4, 4)
                                  for j in range(1, p - 1)
                                  if rng.random() < 0.5})
                expect = "Airy(1)"
            elif kind == "const":
                L = make_constcoeff(p, {j: rng.randint(-4, 4)
                                        for j in range(1, p - 1)
                                        if rng.random() < 0.5})
                expect = "ConstantCoeff(3)"
            else:
                betas = tuple(Fraction(rng.randint(-4, 8), rng.choice([1, 2]))
                              for _ in range(p))
                L = make_bessel(BesselSpec(betas))
                if L == d ** p:
                    expect = "ConstantCoeff(3)"
                else:
                    expect = "Bessel(2)"
            r = classify(L)
            assert r["verdict"] == expect, (kind, print_operator(L), r["verdict"])


class TestCertificateReverification:
    def test_principal_part_resplits(self):
        for text in ("d^3 - x", "d^3 - 2*x + 1 + x^-2*d"):
            r = classify_text(text)
            A, V = r["certificates"]["principal_part"], r["certificates"]["perturbation"]
            assert A + V == r["operator"]
            airy_shape(A)  # accepts
            assert principal_part(r["operator"]) == (A, V)

    def test_darboux_remultiplies(self):
        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        cert = r["certificates"]["darboux"]
        assert dop_mul(cert["Q"], cert["P"]) == cert["base"]
        assert dop_mul(cert["P"], cert["Q"]) == r["operator"]

    def test_obstruction_trace_reruns(self):
        r = classify_text("d^2 - x + x^-2")
        trace = perturbation_obstruction(r["operator"], 24)
        got = [(s.j, s.s, s.k, s.alpha) for s in trace.steps]
        assert got == r["certificates"]["obstruction_trace"]["steps"]
        assert trace.verdict == r["certificates"]["obstruction_trace"]["verdict"]

    def test_lambda_reverifies(self):
        from bispec import build_lambda, split_constant_part, wave_operator

        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        L = r["operator"]
        K = wave_operator(L, split_constant_part(L)[0], 8)
        lam = build_lambda(K, Poly([0, 0, 1]))
        assert lam == r["certificates"]["lambda"]
        assert lam.order == r["certificates"]["ad_m"]


AM2 = "d^2 - (6*x^4 - 12*x)*(x^3+1)^-2"


def _bessel_0_1(L):
    # d^2 = x^-2 (xd)(xd - 1)
    return bessel_recover(L).betas == (0, 1)


def _darboux_of_d2(L):
    return darboux(d ** 2, parse_operator("d - x^-1"))["transformed"] == L


def _conjugate_of_d2(L):
    # L P = P d^2, so L = P d^2 P^-1, with ker P = {x, x^3 - 2}
    P = parse_operator("d^2 - 3*x^2*(x^3+1)^-1*d + 3*x*(x^3+1)^-1")
    Q, rem = right_divide(dop_mul(P, d ** 2), P)
    return rem.is_zero() and Q == L


class TestOverlaps:
    """Families overlap; the first stage of ``STAGES`` whose certificate
    holds names the verdict (the ``classify`` docstring)."""

    @pytest.mark.parametrize("text, theta, verdict, named, also", [
        ("d^2", None, "ConstantCoeff(3)",
         lambda c: c == {"constant_part": "z^2"}, _bessel_0_1),
        ("d^2 - 2*x^-2", None, "Bessel(2)",
         lambda c: c["bessel_betas"] == [-1, 2], _darboux_of_d2),
        (AM2, Poly([1, 0, 0, 1]) ** 2, "MonomialDarbouxCandidate(4)",
         lambda c: c["bounded_chain"]["failures"] == [], _conjugate_of_d2),
    ], ids=["d^2", "d^2 - 2*x^-2", "AM2"])
    def test_first_stage_names_the_verdict(self, text, theta, verdict, named, also):
        r = classify(text, theta=theta)
        assert r["verdict"] == verdict and named(r["certificates"])
        assert also(parse_operator(text))


def random_increasing(rng, N):
    """A monic operator of order N without a d^(N-1) term, so that no
    gauge moves it, whose coefficients have orders -2..2 at infinity and
    at least one of which grows; half the draws lean to the Airy shape,
    an order-1 d^0 coefficient."""
    coeffs = {N: RatFunc.one()}
    for j in range(N - 1):
        if rng.random() < 0.5:
            c = sum((RatFunc.x_power(rng.randint(-2, 2), rng.choice([-3, -1, 1, 2]))
                     for _ in range(rng.randint(1, 2))), RatFunc.zero())
            if rng.random() < 0.2:
                c = c * RatFunc(Poly([1]), Poly([1, 0, 1]))  # (x^2 + 1)^-1
            if not c.is_zero():
                coeffs[j] = c
    if rng.random() < 0.5:
        coeffs[0] = RatFunc(Poly([rng.randint(-2, 2), rng.choice([-2, -1, 1, 3])]))
        if rng.random() < 0.7:
            coeffs[0] = coeffs[0] + RatFunc.x_power(-rng.randint(2, 6), rng.choice([-1, 2]))
    if not any(c.infinity_order() > 0 for c in coeffs.values()):
        coeffs[0] = coeffs.get(0, RatFunc.zero()) + RatFunc.x_power(rng.randint(1, 2))
    return DiffOp("x", coeffs)


class TestOneDecider:
    """``principal_part`` alone decides the increasing branch."""

    def test_verdict_follows_the_principal_part(self):
        # the verdict is Airy(1) exactly when principal_part accepts with
        # V = 0, the walk's when it accepts with V != 0, and Obstructed
        # otherwise; principal_part accepts exactly when the filtration
        # lands on (y^N - lam x)^1, so no verdict differs from the
        # filtration's
        seen = {}
        for seed in (1, 2):
            rng = random.Random(seed)
            for _ in range(150):
                N = rng.choice([2, 3, 4, 5])
                r = classify(random_increasing(rng, N))
                assert r["branch"] == "increasing"
                L = r["operator"]
                w = choose_weights(L)
                nf = normal_form_test(associated_polynomial(L, w), w)
                airy_form = nf["n"] == 0 and nf["yrx"] is not None and nf["yrx"][:2] == (N, 1)
                try:
                    A, V = principal_part(L)
                except NotAiryShape:
                    assert not airy_form
                    expect = "Obstructed"
                else:
                    assert airy_form
                    if V.is_zero():
                        expect = "Airy(1)" if N != 4 else "Inconclusive"
                    else:
                        trace = perturbation_obstruction(L, Budgets.obstruction_steps)
                        expect = "Obstructed" if trace.obstructed else "Inconclusive"
                assert r["verdict"] == expect, print_operator(L)
                seen[expect] = seen.get(expect, 0) + 1
        assert seen["Obstructed"] >= 100 and seen["Airy(1)"] >= 20, seen

    def test_answers_without_the_filtration(self, monkeypatch):
        classify_module = sys.modules["bispec.classify"]
        weights = sys.modules["bispec.weights"]

        def refuse(*args):
            raise AssertionError("classify ran the filtration")

        for name in ("choose_weights", "associated_polynomial", "normal_form_test"):
            assert not hasattr(classify_module, name)
            monkeypatch.setattr(weights, name, refuse)
        assert classify("d^3 - x")["verdict"] == "Airy(1)"
        assert classify("d^3 + x*d")["verdict"] == "Obstructed"
        r = classify("d^2 - x + x^-2")
        assert r["verdict"] == "Obstructed"
        assert r["certificates"]["obstruction_trace"]["steps"] == [
            (1, -2, 0, -1), (2, -1, 0, Fraction(1, 2))]


class TestJson:
    def test_shape(self):
        r = classify_text("d^3 - x")
        doc = _jsonable(r)
        assert set(doc) == {"input", "branch", "verdict", "operator",
                            "certificates", "errors", "trace_sizes"}
        json.dumps(doc)  # serializable

    def test_fraction_encoding(self):
        r = classify_text("x^-2*(x*d-1/2)*(x*d-1/2)")
        doc = _jsonable(r)
        assert doc["certificates"]["bessel_betas"] == ["1/2", "1/2"]

    # one input per verdict, a run that ends Inconclusive with an error,
    # and the two input guards
    @pytest.mark.parametrize("text, factor", [
        ("d^2 - x", None), ("d^2 - 2*x^-2", None), ("d^3", None),
        ("d^2 + x^-1", None), ("d^2 + 1 - 2*x^-2", None),
        ("d^2 - 2*x^-2", "d - x^-1"), ("d^2 - 2*(x^2+1)^-1", None),
        ("d", None), ("x*d^2", None),
    ])
    def test_in_process_answer_is_the_written_answer(self, text, factor, capsys):
        argv = ["--json", "classify", text] + (["--p", factor] if factor else [])
        assert main(argv) == 0
        written = json.loads(capsys.readouterr().out)
        P = parse_operator(factor) if factor else None
        r = classify(text, P=P)
        assert list(r) == ["input", "branch", "verdict", "operator",
                           "certificates", "errors", "trace_sizes"]
        assert written == _jsonable(r)
        assert json.dumps(written) == json.dumps(_jsonable(r))  # key order too
        # each answer has its own containers
        again = classify(text, P=P)
        assert again == r
        assert again["certificates"] is not r["certificates"]
        assert again["errors"] is not r["errors"]

    def test_trace_sizes_count_nonzero_scalars(self):
        # 1/1 and (1 - x^21)/x^20 hold 5 nonzero scalars; the 40 zero
        # slots of the dense num/den tuples used to count too (45)
        r = classify_text("d^2 - x + x^-20")
        assert r["trace_sizes"] == {"coefficient_terms": 5, "max_coefficient_bits": 1}


def test_in_process_calls_leave_no_parser_garbage(capsys):
    # a parser built per call left about 440 argparse objects in
    # reference cycles for the garbage collector on every call
    main(["parse", "d*x"])
    gc.collect()
    main(["parse", "d*x"])
    assert gc.collect() < 50
    assert capsys.readouterr().out == "input: d*x\noperator: x*d + 1\n" * 2


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bispec.cli", *args],
        capture_output=True, text=True,
    )


class TestCli:
    def test_note_names_the_callers_theta(self):
        # the note used to name a monomial search that never ran
        out = run_cli("classify", "d^2 + 1 - 2*x^-2", "--theta", "x^2",
                      "--order-budget", "1")
        assert out.returncode == 0
        assert ("note: theta = x^2 not tried: its degree 2 is above the ad "
                "budget 1\n") in out.stdout
        out = run_cli("--json", "classify", "d^2 + 1 - 2*x^-2", "--theta", "x^2 + x")
        assert json.loads(out.stdout)["certificates"]["note"] == (
            "theta = x^2 + x is not admissible: its ad chain does not end "
            "after deg theta + 1 = 3 brackets")

    def test_no_text_line_ends_in_a_space(self, capsys):
        # an empty string used to print as "branch: "; it is written as
        # its JSON text, as --json writes it
        assert main(["classify", "d"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert 'branch: ""' in lines
        assert not [line for line in lines if line.endswith(" ")]

    def test_parse(self):
        out = run_cli("parse", "d*x")
        assert out.returncode == 0
        assert out.stdout.splitlines() == ["input: d*x", "operator: x*d + 1"]

    def test_syntax_error_exit_code(self):
        out = run_cli("parse", "d^^2")
        assert out.returncode == 2

    def test_superscript_digit_is_a_syntax_error(self):
        # used to exit 1 with a ValueError traceback
        out = run_cli("parse", "x^\u00b2")
        assert out.returncode == 2
        assert out.stderr == "syntax error: unexpected character '\u00b2' (at position 2)\n"

    def test_classify_json(self):
        out = run_cli("--json", "classify", "d^3 - x")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "Airy(1)"

    def test_classify_with_factor(self):
        out = run_cli("--json", "classify", "d^2 - 2*x^-2", "--p", "d - x^-1")
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "MonomialDarbouxCandidate(4)"
        assert doc["certificates"]["darboux"]["Q"] == "d + x^-1"

    @pytest.mark.parametrize("factor,error", [
        ("d + 1", "NotAFactor: P does not left-divide L"),
        ("0", "DivisionByZeroOperator: left division by the zero operator"),
    ])
    def test_classify_with_a_factor_that_does_not_divide(self, factor, error):
        out = run_cli("--json", "classify", "d^2 - 2*x^-2", "--p", factor)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "MonomialDarbouxCandidate(4)"
        assert doc["errors"] == [error]
        assert "darboux" not in doc["certificates"]
        out = run_cli("classify", "d^2 - 2*x^-2", "--p", factor)
        assert out.returncode == 0
        assert f'errors: ["{error}"]' in out.stdout.splitlines()

    @pytest.mark.parametrize("expr", ["2*d^2", "(1+x^-1)*d^2"])
    def test_wave_of_non_monic_operator_is_an_error(self, expr):
        # the first used to exit 1 with a ValueError traceback, the second
        # printed the coefficients of a wrong K (residual_zero: false)
        out = run_cli("--json", "wave", expr)
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "errors": ["NotMonic: wave operator needs a monic operator"]}

    def test_wave_with_a_subleading_term_is_an_error(self):
        # used to print "coefficients: {}" and "residual_zero: false"
        error = ("NotInDomain: the d^2 coefficient of L - f(d) is (1)/(x); "
                 "gauge-normalize L first")
        out = run_cli("wave", "d^3 + x^-1*d^2")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [f'errors: ["{error}"]']
        assert json.loads(run_cli("--json", "wave", "d^3 + x^-1*d^2").stdout) == {
            "errors": [error]}

    def test_ad_test_of_non_monic_operator_is_a_chain_error(self):
        # used to report q = [0, 16] and a leading-coefficient failure
        out = run_cli("--json", "ad-test", "2*d^2", "--theta", "x^2")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "theta": "x^2", "m": 2, "ad_power": "32*d^2",
            "chain_error": "NotMonic: bounded test needs a monic operator"}

    def test_ad_test_refuses_non_monic_before_the_split(self):
        # 2*d^2 - x also grows, but NotMonic is reported first
        out = run_cli("--json", "ad-test", "2*d^2 - x", "--theta", "x")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "theta": "x", "m": 2, "ad_power": "4",
            "chain_error": "NotMonic: bounded test needs a monic operator"}

    def test_ad_test_of_a_constant_theta_does_not_pass(self):
        # used to print chain: passes=True
        out = run_cli("ad-test", "d^2 - 2*x^-2", "--theta", "3")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "theta: 3", "m: 0", "ad_power: 3",
            "chain_error: NotCommuting: theta = 3 is constant: it has no ad "
            "exponent m >= 1"]

    def test_airy_wave_of_non_monic_operator_is_an_error(self):
        # used to name NotIncreasing, the bounded-branch error
        out = run_cli("--json", "airy-wave", "2*d^3-x")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "errors": ["NotMonic: weight selection requires a monic operator"]}

    def test_divide(self):
        out = run_cli("divide", "d^2", "d - x^-1")
        assert out.stdout.splitlines() == ["quotient: d + x^-1", "remainder: 0"]

    def test_commutator(self):
        out = run_cli("commutator", "d", "x")
        assert out.stdout == "result: 1\n"

    def test_darboux(self):
        # text used to drop P and base
        out = run_cli("darboux", "d^2", "d - x^-1")
        assert out.stdout.splitlines() == [
            "P: d - x^-1", "Q: d + x^-1", "base: d^2", "transformed: d^2 - 2*x^-2"]

    def test_wave(self):
        out = run_cli("--json", "wave", "d^2 - 2*x^-2", "--trunc", "5")
        doc = json.loads(out.stdout)
        assert doc["coefficients"]["1"] == "(-1)/(x)"
        assert doc["residual_zero"] is True

    def test_wave_prints_f_in_z(self):
        # f used to print in x: "f(z) = x^2"
        out = run_cli("wave", "d^2 - 2*x^-2")
        assert out.stdout.splitlines()[0] == "f: z^2"

    def test_wave_text_ends_with_its_residual_check(self):
        # text mode used to drop the certificate that --json reports
        out = run_cli("wave", "d^2 - 2*x^-2", "--trunc", "5")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "f: z^2", "coefficients:", "  1: (-1)/(x)", "residual_zero: true"]
        out = run_cli("--json", "wave", "d^2 + 1 - 2*x^-2")
        assert json.loads(out.stdout)["f"] == "z^2 + 1"

    def test_constant_part_prints_in_z(self):
        # used to be "x^2 + 1"
        out = run_cli("--json", "classify", "d^2 + 1 - 2*x^-2")
        assert json.loads(out.stdout)["certificates"]["constant_part"] == "z^2 + 1"

    def test_airy_wave(self):
        out = run_cli("--json", "airy-wave", "d^2 - x + x^-2")
        doc = json.loads(out.stdout)
        assert doc["kind"] == "obstruction"
        assert doc["verdict"] == "obstructed"

    def test_airy_wave_text_writes_json_values(self):
        # text used to print "steps: [(1, -2, 0, Fraction(-1, 1)), ...]"
        out = run_cli("airy-wave", "d^2 - x + x^-2")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "kind: obstruction", "verdict: obstructed",
            'steps: [[1, -2, 0, "-1"], [2, -1, 0, "1/2"]]']

    def test_airy_wave_of_a_deep_perturbation_is_its_obstruction(self):
        # V starts at x^-12: K = 1 and "identity": true belong to V = 0
        # alone, and the walk reaches x^-1 after 11 steps
        expr = "d^2 - x - 3/2*(x^2+1)^-6"
        doc = json.loads(run_cli("--json", "airy-wave", expr).stdout)
        assert doc["kind"] == "obstruction" and doc["verdict"] == "obstructed"
        assert [s[1] for s in doc["steps"]] == list(range(-12, 0))
        assert run_cli("airy-wave", "d^3 - x").stdout.splitlines() == [
            "kind: wave", "identity: true", "coefficients: {}"]
        assert json.loads(run_cli("--json", "airy-wave", "d^3 - x").stdout) == {
            "kind": "wave", "identity": True, "coefficients": {}}

    def test_airy_wave_past_the_step_cap_is_inconclusive(self):
        # the walk from x^-30 needs 29 steps; a truncated K used to print
        out = run_cli("airy-wave", "d^2 - x + x^-30")
        assert out.returncode == 0
        assert out.stdout.splitlines()[:2] == ["kind: obstruction", "verdict: inconclusive"]

    def test_airy_wave_takes_no_truncation(self):
        out = run_cli("airy-wave", "d^3 - x", "--trunc", "8")
        assert out.returncode == 2
        assert "unrecognized arguments: --trunc 8" in out.stderr

    @pytest.mark.parametrize("command, trunc", [("wave", "0"), ("classify", "0")])
    def test_trunc_below_one_is_an_input_error(self, command, trunc):
        out = run_cli(command, "d^3 - x", "--trunc", trunc)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"input error: --trunc must be at least 1, got {trunc}\n"

    @pytest.mark.parametrize("command", ["centralizer", "ad-test", "classify"])
    def test_negative_order_budget_is_an_input_error(self, command):
        # centralizer used to print rank 0 with no generators, though the
        # constants always commute with L
        out = run_cli(command, "d^2", "--order-budget", "-1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "input error: --order-budget must be at least 0, got -1\n"

    def test_weights(self):
        # text used to drop yrx and nilpotency_excluded
        out = run_cli("weights", "d^3 - x")
        assert out.stdout.splitlines() == [
            "rho: 3", "sigma: 1", "f: y^3 - x", "case: c", "n: 0", "k: 1", "m: 3",
            "mu: -1", "lam: null", 'yrx: [3, 1, "1"]', "nilpotency_excluded: false",
            "unresolved_over_Q: false"]

    def test_weights_writes_the_whole_normal_form(self):
        # the answer used to keep 3 of the normal form's 9 keys, so an
        # irrational pair of roots and the roots 1 and -1 both read "case: d"
        keys = ["rho", "sigma", "f", "case", "n", "k", "m", "mu", "lam", "yrx",
                "nilpotency_excluded", "unresolved_over_Q"]
        docs = {}
        for expr in ("d^3 - x", "d^2 + x^2", "d^2 - x^2"):
            out = run_cli("--json", "weights", expr)
            assert out.returncode == 0
            docs[expr] = json.loads(out.stdout)
            assert list(docs[expr]) == keys
        airy = docs["d^3 - x"]
        assert (airy["case"], airy["n"], airy["yrx"]) == ("c", 0, [3, 1, "1"])
        assert docs["d^2 + x^2"]["unresolved_over_Q"] is True
        assert (docs["d^2 - x^2"]["lam"], docs["d^2 - x^2"]["mu"]) == ("1", "-1")

    def test_ad_test(self):
        out = run_cli("--json", "ad-test", "d^2 - 2*x^-2", "--theta", "x^2")
        doc = json.loads(out.stdout)
        assert doc["m"] == 2
        # the chain is written once, as classify's bounded_chain
        L = "d^2 + 1 - 2*x^-2"
        chain = json.loads(run_cli("--json", "ad-test", L, "--theta", "x^2").stdout)["chain"]
        out = run_cli("--json", "classify", L, "--theta", "x^2")
        assert chain == json.loads(out.stdout)["certificates"]["bounded_chain"]
        assert chain["failures"] == ["nonzero-constants"]

    def test_centralizer(self):
        out = run_cli("--json", "centralizer", "d^2", "--order-budget", "3")
        doc = json.loads(out.stdout)
        assert doc["rank"] == 1

    def test_domain_error_completes(self):
        out = run_cli("darboux", "d^2 - x", "d - x^-1")
        assert out.returncode == 0
        assert "NotAFactor" in out.stdout
