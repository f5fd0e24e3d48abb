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
    OperatorSyntaxError,
    Poly,
    RatFunc,
    associated_polynomial,
    centralizer_search,
    choose_weights,
    classify,
    commutator,
    dop_mul,
    make_airy,
    make_bessel,
    make_constcoeff,
    parse_operator,
    perturbation_obstruction,
    print_operator,
    right_divide,
)
from bispec.cli import main

d = DiffOp.d()
x = DiffOp.x()


def xpow(k, c=1):
    return DiffOp.from_function(RatFunc.x_power(k, c))


def classify_text(text, **kw):
    return classify(parse_operator(text), input_text=text, **kw)


class TestVerdicts:
    def test_airy(self):
        r = classify_text("d^3 - x")
        assert r.verdict == "Airy(1)"
        assert r.branch == "increasing"
        assert r.certificates["weights"] == {"rho": 3, "sigma": 1,
                                             "support": [1, 0]}
        assert r.certificates["associated_polynomial"] == "y^3 - x"

    def test_constant_coefficient(self):
        r = classify_text("d^5 + d")
        assert r.verdict == "ConstantCoeff(3)"
        assert r.branch == "bounded"

    def test_bessel(self):
        r = classify_text("x^-2*(x*d-1/2)*(x*d-1/2)")
        assert r.verdict == "Bessel(2)"
        assert r.certificates["bessel_betas"] == [Fraction(1, 2), Fraction(1, 2)]
        assert r.certificates["bessel_integrality"] is True

    def test_obstructed_perturbation(self):
        r = classify_text("d^2 - x + x^-2")
        assert r.verdict == "Obstructed"
        assert r.certificates["obstruction_trace"]["verdict"] == "obstructed"

    def test_monomial_darboux_with_factor(self):
        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        assert r.verdict == "MonomialDarbouxCandidate(4)"
        cert = r.certificates["darboux"]
        assert print_operator(cert["Q"]) == "d + x^-1"
        assert print_operator(cert["base"]) == "d^2"
        assert cert["base_bessel_betas"] == [Fraction(0), Fraction(1)]
        assert r.certificates["bounded_chain"]["m"] == 2
        assert print_operator(r.certificates["lambda"]) == "d^2 - 2*z^-2"

    @pytest.mark.parametrize("factor,error", [
        ("d + 1", "NotAFactor: P does not left-divide L"),
        ("0", "DivisionByZeroOperator: left division by the zero operator"),
    ])
    def test_factor_that_does_not_divide(self, factor, error):
        # the verdict stands on the chain; the failed division is reported
        # and no darboux certificate is attached
        r = classify_text("d^2 - 2*x^-2", P=parse_operator(factor))
        assert r.verdict == "MonomialDarbouxCandidate(4)"
        assert r.errors == [error]
        assert "darboux" not in r.certificates

    def test_polynomial_darboux(self):
        # Darboux transform of d^2 + 1: chain passes except nonzero constant
        r = classify_text("d^2 + 1 - 2*x^-2")
        assert r.verdict == "PolynomialDarbouxCandidate(5)"
        assert r.certificates["rank_order_case"] is False
        # rank < order 2 leaves rank 1, which the centralizer confirms
        cen = centralizer_search(parse_operator("d^2 + 1 - 2*x^-2"), 3)
        assert sorted(set(cen.orders)) == [0, 2, 3]
        assert cen.rank == 1

    def test_passing_chain_does_not_fix_the_rank(self):
        # the Adler-Moser operator L P = P d^2 passes the chain with all
        # constants zero, so it keeps the monomial label; but M = P d^5 P^-1
        # commutes with it, so its rank is gcd(2, 5) = 1, not its order
        L = parse_operator("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2")
        r = classify(L, theta=Poly([1, 0, 0, 1]) ** 2)
        assert r.verdict == "MonomialDarbouxCandidate(4)"
        assert r.certificates["bounded_chain"]["failures"] == []
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
        assert r.verdict == "Inconclusive"
        assert r.certificates["admissible_thetas"] == []
        assert r.certificates["note"] == note
        assert r.errors == errors
        assert not {"bounded_chain", "lambda", "ad_m"} & r.certificates.keys()

    def test_theta_above_the_budget_is_named_when_the_probe_fails(self):
        # the probe's note used to hide why x^2 was not tried
        r = classify(self.ARCTAN, theta=Poly.monomial(2), budgets=Budgets(ad_budget=1))
        assert r.verdict == "Inconclusive"
        assert r.certificates["note"] == ("theta = x^2 not tried: its degree 2 is "
                                          "above the ad budget 1")
        assert r.errors == [self.NOT_RATIONAL]

    def test_lambda_names_the_truncation_cap(self):
        # Lambda of AM2 has order m = 6, so its lift may need degree
        # 2m = 12; at the default trunc 8 the tail at d_z^1 holds too few
        # known terms for more than degree 1, and the error says so
        r = classify("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2", theta=Poly([1, 0, 0, 1]) ** 2)
        assert r.verdict == "MonomialDarbouxCandidate(4)"
        assert "lambda" not in r.certificates
        assert r.errors == ["ReconstructionFailed: Lambda coefficient at d_z^1: the "
                            "Pade degree is capped at 1 by trunc 8; trunc 30 lifts "
                            "the full degree 12"]

    def test_wave_obstruction(self):
        r = classify_text("d^2 + x^-1")
        assert r.verdict == "Obstructed"
        assert "obstruction" in r.certificates

    def test_nilpotency_excluded(self):
        # f = y(y^2 - x): leading form forbids nilpotent action
        r = classify_text("d^3 + x*d")
        assert r.verdict == "Obstructed"
        assert "nilpotently" in r.certificates["obstruction"]

    def test_wrong_shape_obstructed(self):
        # the (1, 1) forms of d^2 + x^2 and d^2 + 3*x^2 factor over
        # Q(sqrt(-1)) and Q(sqrt(-3)) only; a (1, 1) form is never
        # (y^N - lam x)^1 for N >= 2, whatever field its factors live in
        for text in ("d^2 - x^4", "d^2 - x^2", "d^2 + x^2", "d^2 + 3*x^2"):
            r = classify_text(text)
            assert r.verdict == "Obstructed", text
            assert r.certificates["obstruction"] == (
                "leading form is not (y^N - lam x)^1: excluded for "
                "increasing coefficients"), text

    def test_composite_order_inconclusive(self):
        r = classify_text("d^4 - x")
        assert r.verdict == "Inconclusive"
        assert "Airy(1)" in r.certificates["composite_note"]

    def test_not_monic(self):
        r = classify_text("2*d^2 - x")
        assert r.verdict == "Inconclusive"
        assert any("NotMonic" in e for e in r.errors)

    def test_gauge_applied(self):
        r = classify_text("d^2 + 2*d - x")
        assert r.verdict == "Airy(1)"
        assert r.certificates["gauge"] == RatFunc.const(-1)

    def test_bessel_without_weight_normalization(self):
        # sum of betas away from N(N-1)/2: the operator keeps a d^(N-1)
        # term and only the homogeneity route can recognize it
        L = make_bessel(BesselSpec((0, 0)))
        r = classify(L)
        assert r.verdict == "Bessel(2)"
        assert r.certificates["bessel_weight_sum_normalized"] is False

    def test_operator_text_is_parsed(self):
        # regression: text used to reach print_operator and raise
        # AttributeError: 'str' object has no attribute 'is_zero'
        r = classify("d^2 + x^-1")
        assert r.input_text == "d^2 + x^-1"
        assert r.verdict == "Obstructed"
        want = classify(parse_operator("d^2 + x^-1")).to_json_dict()
        assert r.to_json_dict() == want
        assert classify("d^3-x", input_text="Airy").input_text == "Airy"

    def test_operator_text_syntax_error(self):
        with pytest.raises(OperatorSyntaxError):
            classify("d^2 + ")

    def test_large_constant_bessel_shape_decides_quickly(self):
        # the symbol w(w - 1) - 10^20 has no rational root; finding that
        # must not take time growing with sqrt(10^20)
        start = time.perf_counter()
        r = classify("d^2 - 100000000000000000000*x^-2")
        assert time.perf_counter() - start < 1.0
        assert r.verdict == "Inconclusive"

    def test_bessel_irrational_roots_unresolved(self):
        # symbol u^2 - 2 has rational coefficients but irrational roots
        L = parse_operator("d^2 + x^-1*d - 2*x^-2")
        r = classify(L)
        assert r.verdict == "Inconclusive"
        assert "unresolved over Q" in r.certificates["note"]


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
            assert r.verdict == expect, (kind, print_operator(L), r.verdict)


class TestCertificateReverification:
    def test_weights_resupport(self):
        r = classify_text("d^3 - x")
        L = r.operator
        w = choose_weights(L)
        assert w.rho == r.certificates["weights"]["rho"]
        assert w.sigma == r.certificates["weights"]["sigma"]
        assert str(associated_polynomial(L, w)) == \
            r.certificates["associated_polynomial"]

    def test_darboux_remultiplies(self):
        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        cert = r.certificates["darboux"]
        assert dop_mul(cert["Q"], cert["P"]) == cert["base"]
        assert dop_mul(cert["P"], cert["Q"]) == r.operator

    def test_obstruction_trace_reruns(self):
        r = classify_text("d^2 - x + x^-2")
        trace = perturbation_obstruction(r.operator, 24)
        got = [(s.j, s.s, s.k, s.alpha) for s in trace.steps]
        assert got == r.certificates["obstruction_trace"]["steps"]
        assert trace.verdict == r.certificates["obstruction_trace"]["verdict"]

    def test_lambda_reverifies(self):
        from bispec import build_lambda, split_constant_part, wave_operator

        r = classify_text("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        L = r.operator
        K = wave_operator(L, split_constant_part(L)[0], 8)
        lam = build_lambda(K, Poly([0, 0, 1]))
        assert lam == r.certificates["lambda"]
        assert lam.order == r.certificates["ad_m"]


class TestJson:
    def test_shape(self):
        r = classify_text("d^3 - x")
        doc = r.to_json_dict()
        assert set(doc) == {"input", "branch", "verdict", "operator",
                            "certificates", "errors", "trace_sizes"}
        json.dumps(doc)  # serializable

    def test_fraction_encoding(self):
        r = classify_text("x^-2*(x*d-1/2)*(x*d-1/2)")
        doc = r.to_json_dict()
        assert doc["certificates"]["bessel_betas"] == ["1/2", "1/2"]


def test_in_process_calls_leave_no_parser_garbage(capsys):
    # a parser built per call left about 440 argparse objects in
    # reference cycles for the garbage collector on every call
    main(["parse", "d*x"])
    gc.collect()
    main(["parse", "d*x"])
    assert gc.collect() < 50
    assert capsys.readouterr().out == "x*d + 1\nx*d + 1\n"


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

    def test_parse(self):
        out = run_cli("parse", "d*x")
        assert out.returncode == 0
        assert out.stdout.strip() == "x*d + 1"

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
        assert out.stdout.endswith(f"  error: {error}\n")

    @pytest.mark.parametrize("expr", ["2*d^2", "(1+x^-1)*d^2"])
    def test_wave_of_non_monic_operator_is_an_error(self, expr):
        # the first used to exit 1 with a ValueError traceback, the second
        # printed the coefficients of a wrong K (residual_zero: false)
        out = run_cli("--json", "wave", expr)
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "errors": ["NotMonic: wave operator needs a monic operator"]}

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
            "minimal m: 0", "ad^m(theta) = 3",
            "chain: NotCommuting: theta = 3 is constant: it has no ad "
            "exponent m >= 1"]

    def test_airy_wave_of_non_monic_operator_is_an_error(self):
        # used to name NotIncreasing, the bounded-branch error
        out = run_cli("--json", "airy-wave", "2*d^3-x")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {
            "errors": ["NotMonic: weight selection requires a monic operator"]}

    def test_divide(self):
        out = run_cli("divide", "d^2", "d - x^-1")
        assert "Q = d + x^-1" in out.stdout
        assert "R = 0" in out.stdout

    def test_commutator(self):
        out = run_cli("commutator", "d", "x")
        assert out.stdout.strip() == "1"

    def test_darboux(self):
        out = run_cli("darboux", "d^2", "d - x^-1")
        assert "transformed = d^2 - 2*x^-2" in out.stdout

    def test_wave(self):
        out = run_cli("--json", "wave", "d^2 - 2*x^-2", "--trunc", "5")
        doc = json.loads(out.stdout)
        assert doc["coefficients"]["1"] == "(-1)/(x)"
        assert doc["residual_zero"] is True

    def test_wave_prints_f_in_z(self):
        # f used to print in x: "f(z) = x^2"
        out = run_cli("wave", "d^2 - 2*x^-2")
        assert out.stdout.splitlines()[0] == "f(z) = z^2"

    def test_wave_text_ends_with_its_residual_check(self):
        # text mode used to drop the certificate that --json reports
        out = run_cli("wave", "d^2 - 2*x^-2", "--trunc", "5")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "f(z) = z^2", "a_1 = (-1)/(x)", "residual zero: True"]
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

    def test_airy_wave_of_a_deep_perturbation_is_its_obstruction(self):
        # V starts at x^-12: K = 1 and "identity": true belong to V = 0
        # alone, and the walk reaches x^-1 after 11 steps
        expr = "d^2 - x - 3/2*(x^2+1)^-6"
        doc = json.loads(run_cli("--json", "airy-wave", expr).stdout)
        assert doc["kind"] == "obstruction" and doc["verdict"] == "obstructed"
        assert [s[1] for s in doc["steps"]] == list(range(-12, 0))
        assert run_cli("airy-wave", "d^3 - x").stdout.splitlines() == ["K = 1"]
        assert json.loads(run_cli("--json", "airy-wave", "d^3 - x").stdout) == {
            "kind": "wave", "identity": True, "coefficients": {}}

    def test_airy_wave_past_the_step_cap_is_inconclusive(self):
        # the walk from x^-30 needs 29 steps; a truncated K used to print
        out = run_cli("airy-wave", "d^2 - x + x^-30")
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "obstruction: inconclusive"

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
        out = run_cli("weights", "d^3 - x")
        assert "(rho, sigma) = (3, 1)" in out.stdout

    def test_ad_test(self):
        out = run_cli("--json", "ad-test", "d^2 - 2*x^-2", "--theta", "x^2")
        doc = json.loads(out.stdout)
        assert doc["m"] == 2

    def test_centralizer(self):
        out = run_cli("--json", "centralizer", "d^2", "--order-budget", "3")
        doc = json.loads(out.stdout)
        assert doc["rank"] == 1

    def test_domain_error_completes(self):
        out = run_cli("darboux", "d^2 - x", "d - x^-1")
        assert out.returncode == 0
        assert "NotAFactor" in out.stdout
