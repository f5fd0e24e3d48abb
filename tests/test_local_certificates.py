"""The exact certificates that decide the bounded branch before the theta
search: the Bessel shape of the operator and of its translate to a single
finite pole, before the gauge and again after it; Fuchs' pole-order
criterion and the wave probe; their soundness on known bispectral
operators."""

import importlib
import json
import pkgutil
import signal
import time
from fractions import Fraction

import bispec

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bispec import (
    Budgets,
    DiffOp,
    NotMonic,
    Poly,
    RatFunc,
    ZeroOperand,
    centralizer_search,
    classify,
    dop_mul,
    fuchs_violation,
    parse_operator,
    print_operator,
)
from bispec.cli import main
from bispec.families import BesselSpec, darboux, make_bessel

# the package exports a function named classify, which hides the module
MODULES = [importlib.import_module(f"bispec.{m}") for m in ("classify", "bounded")]
EVERY_MODULE = [importlib.import_module(f"bispec.{m.name}")
                for m in pkgutil.iter_modules(bispec.__path__)]

F = Fraction

# Only Fuchs' test and the wave probe can say Obstructed in the bounded
# branch, and both run before the theta search; small search budgets keep
# the soundness draws fast without skipping either.
SMALL = Budgets(ad_budget=1)


def pole(k, a):
    """k/(x - a) as an order-0 operator."""
    return RatFunc(Poly([F(k)]), Poly([-F(a), F(1)]))


def factor(k, a):
    """d - k/(x - a)."""
    return DiffOp("x", {1: RatFunc.one(), 0: -pole(k, a)})


def bessel(nu, a):
    """d^2 + nu(1 - nu)(x - a)^-2 = (d + nu/(x - a))(d - nu/(x - a))."""
    c = nu * (1 - nu)
    coeffs = {2: RatFunc.one()}
    if c:
        coeffs[0] = RatFunc(Poly([c]), Poly([-F(a), F(1)]) ** 2)
    return DiffOp("x", coeffs)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)

# P (d^5 - 5 d) P^-1 with P = d^2 - 2*x^-1*d - 1 + 2*x^-2, a Darboux
# transform of a constant-coefficient operator of order 5
ORDER_5 = ("d^5 - 10*x^-2*d^3 + 40*x^-3*d^2 - 5*d - 10*x^-2*d - 80*x^-4*d"
           " + 20*x^-3 + 80*x^-5")


def counted(monkeypatch, name, modules=MODULES):
    """Record the arguments of every call of ``name`` made through the
    given modules (by default classify and bounded)."""
    calls = []
    real = getattr(modules[0], name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestFuchsViolation:
    def test_triple_pole_certificate(self):
        r = classify("d^2 + 3*(x+1)^-3")
        assert r.verdict == "Obstructed"
        assert r.to_json_dict()["certificates"]["irregular_singularity"] == {
            "factor": "x + 1", "coefficient": "d^0", "pole_order": 3, "fuchs_bound": 2}
        assert "admissible_thetas" not in r.certificates

    def test_certificate_reverifies_from_the_printed_operator(self):
        doc = classify("d^2 + 3*(x+1)^-3").to_json_dict()
        L = parse_operator(doc["operator"])
        assert fuchs_violation(L) == doc["certificates"]["irregular_singularity"]

    def test_poles_off_the_rationals(self):
        # the poles sit at +-i: no algebraic number is needed
        assert fuchs_violation(parse_operator("d^2 + (x^2+1)^-3")) == {
            "factor": "x^2 + 1", "coefficient": "d^0", "pole_order": 3, "fuchs_bound": 2}

    def test_subleading_coefficients(self):
        assert fuchs_violation(parse_operator("d^3 + (x-2)^-3*d")) == {
            "factor": "x - 2", "coefficient": "d^1", "pole_order": 3, "fuchs_bound": 2}
        # a pole of order 2 on d^1 of an order-3 operator is within the bound
        assert fuchs_violation(parse_operator("d^3 + (x-2)^-2*d + x^-3")) is None

    def test_which_violation_is_named(self):
        # the highest derivative first, then the factor of highest order
        assert fuchs_violation(parse_operator("d^3 + x^-3*d + x^-5")) == {
            "factor": "x", "coefficient": "d^1", "pole_order": 3, "fuchs_bound": 2}
        assert fuchs_violation(parse_operator("d^2 + (x-1)^-3*(x+2)^-4")) == {
            "factor": "x + 2", "coefficient": "d^0", "pole_order": 4, "fuchs_bound": 2}

    @pytest.mark.parametrize("text", ["d^2", "d^2 - 2*x^-2", "d^2 + x^-1",
                                      "d^2 - 2*(x^2+1)^-1", "d^3 - x"])
    def test_regular_singular(self, text):
        assert fuchs_violation(parse_operator(text)) is None

    def test_needs_a_monic_operator(self):
        with pytest.raises(NotMonic):
            fuchs_violation(parse_operator("2*d^2 + x^-3"))

    def test_composite_order_stays_obstructed(self):
        r = classify("d^4 + (x+1)^-5")
        assert r.verdict == "Obstructed"
        assert r.certificates["composite_order"] == 4
        assert r.certificates["irregular_singularity"]["pole_order"] == 5

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), rationals), min_size=1, max_size=4))
    def test_products_of_first_order_factors_are_fuchsian(self, parts):
        L = DiffOp.one()
        for k, a in parts:
            L = dop_mul(L, factor(k, a))
        assert fuchs_violation(L) is None


class TestStageOrder:
    def test_the_stage_table(self):
        assert [s.__name__ for s in MODULES[0].STAGES] == [
            "_bessel", "_gauge", "_increasing", "_constant",
            "_darboux_certificate", "_fuchs", "_wave_probe", "_theta_chain"]

    def test_a_verdict_ends_the_run(self, monkeypatch):
        def chain(run):
            raise AssertionError("the theta chain ran")

        stages = MODULES[0].STAGES
        monkeypatch.setattr(MODULES[0], "STAGES", tuple(
            chain if s is MODULES[0]._theta_chain else s for s in stages))
        # the probe decides: the chain after it never runs
        assert classify("d^2 + x^-1").verdict == "Obstructed"
        # the arctan anchor passes the probe and reaches the chain
        with pytest.raises(AssertionError, match="the theta chain ran"):
            classify("d^2 - 2*(x^2+1)^-1")

    def test_a_stage_after_the_search_sees_what_it_left(self, monkeypatch):
        # a decision stage appended to STAGES runs when no theta is
        # admitted, and reads the probe's K or its error and the note
        seen = []

        def after(run):
            seen.append((run.K, run.certs["note"], list(run.errors)))

        monkeypatch.setattr(MODULES[0], "STAGES", MODULES[0].STAGES + (after,))
        assert classify("d^2 - 2*(x^2+1)^-1").verdict == "Inconclusive"
        assert seen == [(None, "wave coefficients not recognized rational",
                         ["ReconstructionFailed: no rational antiderivative "
                          "within degree bounds"])]
        seen.clear()
        assert classify("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2").verdict == "Inconclusive"
        [(K, note, errors)] = seen
        assert K is not None and note == TestNoHang.NO_THETA and errors == []
        seen.clear()
        # the probe decides the first, the chain the second
        assert classify("d^2 + x^-1").verdict == "Obstructed"
        assert classify("d^2 - 2*x^-2", P=parse_operator("d - x^-1")).verdict == (
            "MonomialDarbouxCandidate(4)")
        assert seen == []

    @pytest.mark.parametrize("text", ["d^2 + x^-1", "d^3 + x^-1"])
    def test_probe_decides_without_a_theta_search(self, text, monkeypatch):
        calls = counted(monkeypatch, "ad_condition_min_m", MODULES[:1])
        r = classify(text)
        assert r.verdict == "Obstructed"
        assert r.certificates["obstruction"].startswith(
            "wave recursion needs a logarithmic antiderivative")
        assert "admissible_thetas" not in r.certificates
        assert calls == []

    def test_unrecognized_wave_coefficients_keep_their_report(self):
        # the arctan anchor: the probe raises ReconstructionFailed, which
        # decides nothing, and the search finds no theta
        r = classify("d^2 - 2*(x^2+1)^-1")
        assert r.verdict == "Inconclusive"
        assert r.errors == ["ReconstructionFailed: no rational antiderivative "
                            "within degree bounds"]
        assert r.certificates["note"] == "wave coefficients not recognized rational"
        assert r.certificates["admissible_thetas"] == []

    def test_theta_chains_end_at_deg_theta(self, monkeypatch):
        # the exponent of x^l is l or none, so the chain of x^l stops after
        # l + 1 brackets: 2 + 3 + 4 + 5 = 14, where an ad budget of 8 took
        # 4 * 9 = 36
        calls = counted(monkeypatch, "commutator",
                        [m for m in EVERY_MODULE if hasattr(m, "commutator")])
        r = classify("d^2 - 2*(x^2+1)^-1")
        assert r.certificates["admissible_thetas"] == []
        assert len(calls) == 14

    def test_admitted_chain_is_not_rebuilt(self, monkeypatch, capsys):
        # x fails after 2 brackets and x^2 is admitted by its 3; the search
        # stops there and bounded_test takes that chain's end: 2 + 3 = 5
        # (14 while the chains of x^3 and x^4 were built too, 17 when the
        # admitted chain was rebuilt), and 3 for ad-test (8 when it was
        # built three times)
        calls = counted(monkeypatch, "commutator",
                        [m for m in EVERY_MODULE if hasattr(m, "commutator")])
        r = classify("d^2 - 2*x^-2", P=parse_operator("d - x^-1"))
        assert r.verdict == "MonomialDarbouxCandidate(4)"
        assert r.certificates["admissible_thetas"] == ["x^2"]
        assert len(calls) == 5
        del calls[:]
        assert main(["ad-test", "d^2 - 2*x^-2", "--theta", "x^2"]) == 0
        out = capsys.readouterr().out
        assert "\nchain:\n" in out and out.endswith("\n  failures: []\n")
        assert len(calls) == 3

    @pytest.mark.parametrize("text", [
        "d^2 + 1 - 2*x^-2",
        # TP, a Darboux transform of d^3 - 3*d
        "d^3 - 3*d - 6*x^-2*d + 12*x^-3",
        ORDER_5,
    ], ids=["order-2", "TP", "order-5"])
    def test_polynomial_verdict_runs_no_centralizer_search(self, text, monkeypatch):
        # for a prime order the rank divides the order, so rank < order
        # is rank 1 and the verdict needs no commuting operator
        calls = counted(monkeypatch, "centralizer_search",
                        [m for m in EVERY_MODULE if hasattr(m, "centralizer_search")])
        r = classify(text)
        assert r.verdict == "PolynomialDarbouxCandidate(5)"
        assert r.certificates["rank_order_case"] is False
        assert "centralizer" not in r.certificates
        assert calls == []

    def test_search_stays_within_the_ad_budget(self, monkeypatch):
        # only x^1 has an exponent within ad budget 1: one chain
        calls = counted(monkeypatch, "ad_condition_min_m", MODULES[:1])
        r = classify("d^2 - 2*(x^2+1)^-1", budgets=SMALL)
        assert [(str(t), m) for _, t, m in calls] == [("x", 1)]
        assert r.certificates["note"] == "wave coefficients not recognized rational"

    def test_theta_above_the_ad_budget_runs_no_chain(self, monkeypatch):
        calls = counted(monkeypatch, "ad_condition_min_m", MODULES[:1])
        r = classify("d^2 + 1 - 2*x^-2", theta=Poly.monomial(2), budgets=SMALL)
        assert calls == []
        assert r.verdict == "Inconclusive"
        assert r.certificates["admissible_thetas"] == []


def _alarm(signum, frame):
    raise TimeoutError("classify took over 10 s")


def _classify_within_ten_seconds(text):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        return classify(text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNoHang:
    """Inputs whose theta search took 9.6-101 s before the ad chains ended
    at deg theta; each now takes at most about 1.4 s on a 2-core VM."""

    NO_THETA = "no admissible theta among monomials up to degree 4 within ad budget 8"

    @pytest.mark.parametrize("text, note", [
        # D3 = P d^3 P^-1, P monic with kernel {x, x^4 + 1}
        ("d^3 - (12*x^6 + 12*x^2)*(x^8 - 2/3*x^4 + 1/9)^-1*d"
         " + (48*x^5 + 16/3*x)*(x^12 - x^8 + 1/3*x^4 - 1/27)^-1", NO_THETA),
        ("d^2 - 2*(x-1)^-2 - 2*(x+2)^-2", "wave coefficients not recognized rational"),
        # TP = d^3 - 3*d - 6*x^-2*d + 12*x^-3 at x + 1/2
        ("d^3 - (3*x^2 + 3*x + 27/4)*(x^2 + x + 1/4)^-1*d"
         " + (12)*(x^3 + 3/2*x^2 + 3/4*x + 1/8)^-1", NO_THETA),
        # AM2, the Adler-Moser operator of tau = x^3 + 1
        ("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2", NO_THETA),
        # BD2, a Darboux transform of the Bessel operator d^2 - 15/4*x^-2
        ("d^2 - (35/4*x^8 - 45/2*x^4 + 3/4)*(x^10 + 2*x^6 + x^2)^-1", NO_THETA),
        ("d^3 + (x-2)^-2", NO_THETA),
    ])
    def test_classifies_within_ten_seconds(self, text, note):
        r = _classify_within_ten_seconds(text)
        assert r.verdict == "Inconclusive"
        assert r.certificates["note"] == note

    def test_polynomial_verdict_within_ten_seconds(self):
        # about 4 s on a 2-core VM while the verdict waited on a centralizer
        # search through order 9
        r = _classify_within_ten_seconds(ORDER_5)
        assert r.verdict == "PolynomialDarbouxCandidate(5)"
        assert r.certificates["rank_order_case"] is False

    # 42 s and 75-87 s on a 2-core VM while Poly.gcd ran Euclid on
    # Fraction remainders (the theta search's chains reduce large
    # rational functions); about 1 s and 2-3 s on integer remainders
    @pytest.mark.parametrize("text", ["d^3 - (x^3+2)^-2*d", "d^5 + 9*(x^2+1)^-1"])
    def test_gcd_heavy_inputs_within_ten_seconds(self, text):
        r = _classify_within_ten_seconds(text)
        assert r.verdict == "Inconclusive"
        assert r.certificates["note"] == "wave coefficients not recognized rational"
        assert r.errors == ["ReconstructionFailed: no rational antiderivative "
                            "within degree bounds"]


class TestOneWaveSolve:
    """The probe solves the wave recursion once, through trunc, and a
    passing chain reads Lambda from that same K."""

    NOT_RATIONAL = "ReconstructionFailed: no rational antiderivative within degree bounds"
    # rational through step 4, where the probe used to stop, and not
    # through 8
    DEEP = ["d^5 - 3*(x+1)^-2*d^2 + 7/2*(x-2)^-2", "d^3 - 3*(x+1)^-2*d + 3*x^-2*d"]

    def test_one_solve_with_a_factor(self, monkeypatch, capsys):
        calls = counted(monkeypatch, "wave_operator", MODULES[:1])
        assert main(["classify", "d^2 - 2*x^-2", "--p", "d - x^-1",
                     "--trunc", "16", "--json"]) == 0
        assert [J for _, _, J in calls] == [16]
        assert json.loads(capsys.readouterr().out)["certificates"]["lambda"] == "d^2 - 2*z^-2"

    @pytest.mark.parametrize("text", DEEP)
    def test_the_probe_reaches_the_failing_step(self, text):
        # the note and error do not depend on the theta search, which the
        # small ad budget keeps short (the order-5 input's takes 12-15 s)
        r = classify(text, budgets=SMALL)
        assert r.verdict == "Inconclusive"
        assert r.certificates["note"] == "wave coefficients not recognized rational"
        assert r.errors == [self.NOT_RATIONAL]

    @pytest.mark.parametrize("trunc", [1, 2, 3, 4])
    def test_shallow_truncations_keep_their_answers(self, trunc, monkeypatch):
        # at trunc <= 4 the probe runs as deep as it did, so the answer
        # stays that of the theta search
        calls = counted(monkeypatch, "wave_operator", MODULES[:1])
        r = classify(self.DEEP[1], budgets=Budgets(trunc=trunc))
        assert [J for _, _, J in calls] == [trunc]
        assert r.verdict == "Inconclusive" and r.errors == []
        assert r.certificates["note"] == TestNoHang.NO_THETA


class TestGaugedBessel:
    @pytest.mark.parametrize("text, betas", [
        ("d^2 - 2/3*x^-2*d - 10/9*x^-2 + 2/3*x^-3 + 1/9*x^-4", [F(-2, 3), F(5, 3)]),
        ("d^2 + 2*x^-2*d - 3/4*x^-2 - 2*x^-3 + x^-4", [F(-1, 2), F(3, 2)]),
    ])
    def test_bessel_behind_a_gauge(self, text, betas):
        r = classify(text)
        assert r.verdict == "Bessel(2)"
        assert "gauge" in r.certificates
        assert sorted(r.certificates["bessel_betas"]) == betas
        assert r.certificates["bessel_weight_sum_normalized"] is True
        assert "admissible_thetas" not in r.certificates


class TestSoundness:
    """Known bispectral operators never come out Obstructed."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([F(1), F(1, 3), F(-2, 3), F(3, 2), F(2)]), rationals)
    def test_darboux_chains(self, nu, a):
        # B_nu = Q P with P = d - nu/(x - a), and P Q = B_(nu+1): two steps
        # composed are one Darboux step with P2 P1 over B_nu^2
        first = darboux(bessel(nu, a), factor(nu, a))
        assert first.transformed == bessel(nu + 1, a)
        second = darboux(first.transformed, factor(nu + 1, a))
        chain = darboux(dop_mul(first.base, first.base), dop_mul(second.P, first.P))
        assert chain.Q == dop_mul(first.Q, second.Q)
        for L in (first.transformed, second.transformed, chain.base, chain.transformed):
            assert fuchs_violation(L) is None
            assert classify(L, budgets=SMALL).verdict != "Obstructed", print_operator(L)

    @settings(max_examples=15, deadline=None)
    @given(rationals.filter(lambda nu: nu not in (0, 1)), rationals)
    def test_translated_bessel(self, nu, a):
        L = bessel(nu, a)
        assert classify(L, budgets=SMALL).verdict != "Obstructed", print_operator(L)


class TestTranslation:
    """A single finite pole x0 != 0 is moved to the origin before the
    probe and the theta search; a Bessel translate is decided there."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5]),
           st.lists(rationals, min_size=5, max_size=5),
           st.booleans(),
           rationals.filter(bool))
    def test_translated_generalized_bessel(self, N, free, normalized, x0):
        # the last beta may fix the weight sum N(N - 1)/2, so that the
        # operator has no d^(N-1) term to gauge; off that sum the gauge
        # needs a logarithm, and the shape is read before the gauge
        betas = free[:N]
        if normalized:
            betas[-1] = Fraction(N * (N - 1), 2) - sum(betas[:-1])
        B = make_bessel(BesselSpec(betas))
        assume(not all(c.is_constant() for c in B.coeffs.values()))
        text = print_operator(B.translate(-x0))  # the pole sits at x0
        doc = classify(text).to_json_dict()
        assert doc["verdict"] == "Bessel(2)", text
        assert "bessel_betas" not in doc["certificates"]
        assert "gauge" not in doc["certificates"]
        cert = doc["certificates"]["translation"]
        assert Fraction(cert["x0"]) == x0
        assert parse_operator(doc["input"]).translate(x0) == B
        assert parse_operator(cert["operator"]) == B
        assert [Fraction(b) for b in cert["bessel_betas"]] == sorted(betas)
        assert cert["bessel_weight_sum_normalized"] is (
            sum(betas) == Fraction(N * (N - 1), 2))
        assert parse_operator(doc["operator"]) == parse_operator(text)

    def test_translated_twin_of_an_unnormalized_bessel(self):
        # the gauge of this operator needs log(x + 1); its twin at the
        # origin was always decided before the gauge, and now it is too
        doc = classify("d^2 - 1/2*(x+1)^-1*d + 1/2*(x+1)^-2").to_json_dict()
        assert doc["verdict"] == "Bessel(2)"
        assert doc["errors"] == []
        cert = doc["certificates"]["translation"]
        assert cert["x0"] == "-1"
        assert cert["bessel_betas"] == ["1/2", "1"]
        assert cert["bessel_weight_sum_normalized"] is False
        twin = classify("d^2 - 1/2*x^-1*d + 1/2*x^-2").to_json_dict()
        assert twin["certificates"]["bessel_betas"] == cert["bessel_betas"]
        assert cert["operator"] == twin["operator"]

    @pytest.mark.parametrize("text", [
        "d^2 - 2*(x-1)^-2 - 2*(x+1)^-2",   # two distinct poles
        "d^2 - 2*(x^2+1)^-1",              # poles at +-i
        "d^2 + (x^2 - 4*x + 3)^-1",        # the guess x0 = 2 is no pole
        "d^3 + (x-1)^-2*d + (x-2)^-3",     # two coefficients, two centres
        "d^2 - 2*x^-2",                    # poles only at 0
        "d^2 + x^-1",
        "d^2 + 7*(x+1)^-1",                # one pole, but no Bessel shape
    ])
    def test_no_translation(self, text):
        r = classify(text, budgets=SMALL)
        assert "translation" not in r.certificates

    @pytest.mark.parametrize("text", [
        "d^2 - 2*x^-2",                    # at the origin
        "d^2 - 6*(x+1)^-2",                # translated
        "d^2 - 1/2*(x+1)^-1*d + 1/2*(x+1)^-2",
        "d^2 - 2/3*x^-2*d - 10/9*x^-2 + 2/3*x^-3 + 1/9*x^-4",  # gauged
    ])
    def test_bessel_shape_needs_no_bracket(self, text, monkeypatch):
        calls = counted(monkeypatch, "commutator",
                        [m for m in EVERY_MODULE if hasattr(m, "commutator")])
        assert classify(text).verdict == "Bessel(2)"
        assert calls == []

    @pytest.mark.parametrize("text", [
        # (x - 1)(x - 3) proposes x0 = 2, but x^2 - 1 is no power of x
        "d^2 + (x^2 - 4*x + 3)^-1",
        "d^3 + (x-1)^-2*d + (x-2)^-3",
        "d^2 + x^-1",
        "d^2 + 7*(x+1)^-1",
        "d^2 - 2*x^-2",
        "d^2 - 6*(x+1)^-2",
        "d^3 - x",
    ])
    def test_shape_read_at_most_twice_without_a_gauge(self, text, monkeypatch):
        # once on L, once on its translate when a single pole proposes one
        calls = counted(monkeypatch, "is_euler_homogeneous", MODULES[:1])
        L = parse_operator(text)
        classify(L, budgets=SMALL)
        assert 1 <= len(calls) <= 2 and calls[0][0] is L

    def test_no_shape_stage_with_a_factor(self, monkeypatch):
        calls = counted(monkeypatch, "is_euler_homogeneous", MODULES[:1])
        r = classify("d^2 - 2*x^-2", P=parse_operator("d - x^-1"), budgets=SMALL)
        assert calls == []
        assert r.certificates["bessel_betas"] == [-1, 2]
        assert "darboux" in r.certificates

    @pytest.mark.parametrize("text, betas", [
        ("d^2 - 6*(x+1)^-2", ["-2", "3"]),
        ("d^2 - 28/9*(x+1)^-2", ["-4/3", "7/3"]),
    ])
    def test_no_probe_and_no_theta_search(self, text, betas, monkeypatch):
        ad_calls = counted(monkeypatch, "ad_condition_min_m", MODULES[:1])
        wave_calls = counted(monkeypatch, "wave_operator")
        doc = classify(text).to_json_dict()
        assert doc["verdict"] == "Bessel(2)"
        assert doc["certificates"]["translation"]["bessel_betas"] == betas
        assert ad_calls == [] and wave_calls == []

    def test_irrational_symbol_roots(self):
        # nu (1 - nu) = -1 has irrational roots, as d^2 - x^-2 at the origin
        r = classify("d^2 - (x+1)^-2")
        assert r.verdict == "Inconclusive"
        assert r.to_json_dict()["certificates"]["translation"] == {
            "x0": "-1", "operator": "d^2 - x^-2"}
        assert r.certificates["note"] == classify("d^2 - x^-2").certificates["note"]

    def test_translated_darboux_square(self):
        # the composite transformed operator of d^2 - 2*(x - 1/2)^-2 took
        # 30-42 s in the theta search; its translate by 1/2 is Bessel
        text = ("d^4 - 12*(x^2 - x + 1/4)^-1*d^2 "
                "+ 24*(x^3 - 3/2*x^2 + 3/4*x - 1/8)^-1*d")
        t0 = time.perf_counter()
        r = classify(text)
        assert time.perf_counter() - t0 < 1.0
        assert r.verdict == "Inconclusive"
        assert r.certificates["composite_note"].endswith(
            "certificates indicate Bessel(2)")
        assert r.certificates["translation"]["x0"] == Fraction(1, 2)
        assert print_operator(r.certificates["translation"]["operator"]) == (
            "d^4 - 12*x^-2*d^2 + 24*x^-3*d")


class TestCentralizerRank:
    def test_only_constants_leave_the_rank_undetermined(self):
        res = centralizer_search(parse_operator("d^2"), 0)
        assert res["orders"] == [0]
        assert res["rank"] is None

    def test_cli(self, capsys):
        assert main(["centralizer", "d^2", "--order-budget", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["orders: [0]", "rank: null"]
        assert main(["centralizer", "d^2", "--order-budget", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] is None

    @pytest.mark.parametrize("text", ["0", "d^2 - d^2"])
    def test_zero_operator_is_refused(self, text, capsys):
        # every operator commutes with 0: the search refuses it, and the
        # report embeds the error
        with pytest.raises(ZeroOperand):
            centralizer_search(parse_operator(text), 2)
        assert main(["centralizer", text, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == [
            "ZeroOperand: centralizer of the zero operator"]
