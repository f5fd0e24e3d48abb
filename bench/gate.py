"""The correctness gate: re-verify every CLI answer through the library.

``check(op, out)`` returns a list of problems (empty when the answer is
right).  It runs outside the timed region.  ``Inconclusive`` is never a
problem; a decided verdict outside the set the input's construction allows
is, and so is any certificate that does not re-verify.
"""

from __future__ import annotations

from fractions import Fraction

from bispec import (
    BesselSpec,
    BispecError,
    Budgets,
    airy_wave_solve,
    commutator,
    dop_mul,
    gauge_normalize,
    make_bessel,
    parse_operator,
    perturbation_obstruction,
    print_operator,
)

from workloads import INCONCLUSIVE, Op

# the defaults the CLI runs these commands with
OBSTRUCTION_STEPS = Budgets().obstruction_steps
AIRY_WAVE_TRUNC = 8  # bispec airy-wave --trunc


def _parse(text: str, var: str = "x"):
    # the grammar spells the variable x; a z-operator is printed with z
    return parse_operator(text.replace(var, "x"), var)


def _round_trip(text: str, var: str = "x") -> list[str]:
    if print_operator(_parse(text, var)) != text:
        return [f"operator text does not round-trip through parse_operator: {text!r}"]
    return []


def _steps(trace) -> list:
    return [[s.j, s.s, s.k, _frac_text(s.alpha)] for s in trace.steps]


def _frac_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _check_classify(op: Op, out: dict) -> list[str]:
    problems: list[str] = []
    verdict = out["verdict"]
    if (verdict != INCONCLUSIVE and op.verdicts is not None
            and verdict not in op.verdicts):
        problems.append(f"verdict {verdict}, construction allows "
                        f"{sorted(op.verdicts) or ['Inconclusive']}")
    if out["operator"] is None:
        return problems
    problems += _round_trip(out["operator"])
    L = parse_operator(out["operator"])
    cert = out["certificates"]
    if "gauge" in cert:
        normal, gprime = gauge_normalize(parse_operator(op.argv[1]))
        if normal != L or str(gprime) != cert["gauge"]:
            problems.append("gauge certificate does not re-run to the same operator")
    if "bessel_betas" in cert:
        betas = tuple(Fraction(b) for b in cert["bessel_betas"])
        if make_bessel(BesselSpec(betas)) != L:
            problems.append("bessel betas do not rebuild the operator")
        want = op.facts.get("betas")
        if want is not None and sorted(cert["bessel_betas"], key=Fraction) != want:
            problems.append(f"bessel betas {cert['bessel_betas']}, drawn {want}")
    if "darboux" in cert:
        dx = cert["darboux"]
        for key in ("P", "Q", "base"):
            problems += _round_trip(dx[key])
        P, Q, base = (parse_operator(dx[k]) for k in ("P", "Q", "base"))
        if dop_mul(P, Q) != L:
            problems.append("darboux certificate: L != P*Q")
        if dop_mul(Q, P) != base:
            problems.append("darboux certificate: base != Q*P")
    if "lambda" in cert:
        problems += _round_trip(cert["lambda"], "z")
        lam = _parse(cert["lambda"], "z")
        m = cert["ad_m"]
        if lam.order != m:
            problems.append(f"lambda has order {lam.order}, ad exponent m = {m}")
        if not lam.coeff(m - 1).is_zero():
            problems.append("lambda: Lambda_{m-1} != 0")
    if "obstruction_trace" in cert:
        trace = perturbation_obstruction(L, OBSTRUCTION_STEPS)
        got = cert["obstruction_trace"]
        if _steps(trace) != got["steps"] or trace.verdict != got["verdict"]:
            problems.append("obstruction trace does not re-run to the same steps")
    for key in ("principal_part", "perturbation"):
        if key in cert:
            problems += _round_trip(cert[key])
    return problems


def _check_centralizer(op: Op, out: dict) -> list[str]:
    problems: list[str] = []
    L = parse_operator(op.argv[1])
    for g in out["generators"]:
        problems += _round_trip(g)
        if not commutator(L, parse_operator(g)).is_zero():
            problems.append(f"centralizer generator does not commute with L: {g}")
    if not out["generators"]:
        problems.append("centralizer returned no generators")
    return problems


def _check_airy_wave(op: Op, out: dict) -> list[str]:
    want = op.facts["kind"]
    if out["kind"] != want:
        return [f"airy-wave kind {out['kind']}, expected {want}"]
    if want == "wave":
        return [] if out["identity"] else ["airy-wave: K != 1 for a generalized Airy operator"]
    trace = airy_wave_solve(parse_operator(op.argv[1]), AIRY_WAVE_TRUNC)
    if _steps(trace) != out["steps"] or trace.verdict != out["verdict"]:
        return ["airy-wave obstruction trace does not re-run to the same steps"]
    return []


def _check_darboux(op: Op, out: dict) -> list[str]:
    problems: list[str] = []
    for key in ("P", "Q", "base", "transformed"):
        problems += _round_trip(out[key])
    P, Q, base, transformed = (parse_operator(out[k])
                               for k in ("P", "Q", "base", "transformed"))
    if base != parse_operator(op.argv[1]) or P != parse_operator(op.argv[2]):
        problems.append("darboux: base or P is not the input")
    if dop_mul(Q, P) != base:
        problems.append("darboux: base != Q*P")
    if dop_mul(P, Q) != transformed:
        problems.append("darboux: transformed != P*Q")
    if transformed != parse_operator(op.facts["transformed"]):
        problems.append(f"darboux: transformed {out['transformed']}, "
                        f"expected {op.facts['transformed']}")
    return problems


def _check_weights(op: Op, out: dict) -> list[str]:
    got = {k: out[k] for k in ("rho", "sigma", "f")}
    want = {k: op.facts[k] for k in ("rho", "sigma", "f")}
    return [] if got == want else [f"weights {got}, expected {want}"]


def _check_arith(op: Op, out: dict) -> list[str]:
    a, b = op.argv[1], op.argv[2]
    if op.command == "mul":
        want = parse_operator(f"({a})*({b})")
    else:
        want = parse_operator(f"({a})*({b}) - ({b})*({a})")
    problems = _round_trip(out["result"])
    if parse_operator(out["result"]) != want:
        problems.append(f"{op.command} result differs from the parsed expression")
    return problems


def _check_parse(op: Op, out: dict) -> list[str]:
    problems = _round_trip(out["operator"])
    if parse_operator(out["operator"]) != parse_operator(op.argv[1]):
        problems.append("parse output is not the input operator")
    return problems


_CHECKS = {
    "classify": _check_classify,
    "centralizer": _check_centralizer,
    "darboux": _check_darboux,
    "airy-wave": _check_airy_wave,
    "weights": _check_weights,
    "mul": _check_arith,
    "commutator": _check_arith,
    "parse": _check_parse,
}


def check(op: Op, out: dict) -> list[str]:
    """Problems with the CLI's JSON answer ``out`` to ``op``."""
    if out.get("errors") and op.command != "classify":
        return [f"unexpected domain error: {out['errors']}"]
    try:
        return _CHECKS[op.command](op, out)
    except (BispecError, KeyError, TypeError, ValueError) as e:
        return [f"malformed answer ({type(e).__name__}: {e})"]
