"""Command-line surface: parse/arithmetic utilities and the classification
pipeline.

Exit codes: 0 for any completed report (domain errors are embedded in the
report), 2 for operator syntax errors and other invalid input (such as a
truncation below 1 or a negative order budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Optional

from . import errors as err
from .poly import Poly, poly_text
from .diffop import ad_condition_min_m, commutator, dop_mul, right_divide
from .parser import parse_operator, print_operator
from .families import darboux
from .weights import associated_polynomial, choose_weights, normal_form_test
from .airy import airy_wave_solve
from .bounded import (
    bounded_test,
    centralizer_search,
    split_constant_part,
    wave_operator,
    wave_residual_zero,
)
from .classify import Budgets, _jsonable, classify


def _parse_theta(text: str) -> Poly:
    """theta is a polynomial in x: parse as an operator and take the
    order-0 polynomial part."""
    L = parse_operator(text)
    if not L.is_function():
        raise err.OperatorSyntaxError("theta must not contain d", 0)
    c = L.coeff(0)
    if not c.is_polynomial():
        raise err.OperatorSyntaxError("theta must be a polynomial", 0)
    return c.num


def _emit(payload: dict[str, Any], as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        for line in lines:
            print(line)


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: argparse objects
    hold reference cycles, so a parser per call would leave its objects
    to the cyclic garbage collector on every in-process call."""
    ap = argparse.ArgumentParser(
        prog="bispec",
        description="Exact computations with differential operators and the "
                    "prime-order bispectral classification.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON document")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, *exprs, **flags):
        p = sub.add_parser(name)
        # SUPPRESS keeps a top-level --json from being clobbered by the
        # subparser default
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        for e in exprs:
            p.add_argument(e)
        if flags.get("theta"):
            p.add_argument("--theta", default=None)
        if flags.get("p"):
            p.add_argument("--p", default=None)
        if flags.get("budget"):
            p.add_argument("--order-budget", type=int, default=8,
                           dest="order_budget")
        if flags.get("trunc"):
            p.add_argument("--trunc", type=int, default=8)
        return p

    add("parse", "expr")
    add("mul", "left", "right")
    add("commutator", "left", "right")
    add("ad-test", "expr", theta=True, budget=True)
    add("divide", "numerator", "divisor")
    add("darboux", "base", "factor")
    add("wave", "expr", trunc=True)
    add("airy-wave", "expr")
    add("weights", "expr")
    add("classify", "expr", theta=True, p=True, budget=True, trunc=True)
    add("centralizer", "expr", budget=True)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _argument_parser().parse_args(argv)
    if getattr(args, "trunc", 1) < 1:
        print(f"input error: --trunc must be at least 1, got {args.trunc}",
              file=sys.stderr)
        return 2
    if getattr(args, "order_budget", 0) < 0:
        print(f"input error: --order-budget must be at least 0, got {args.order_budget}",
              file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except err.OperatorSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except err.BispecError as e:
        text = f"{type(e).__name__}: {e}"
        _emit({"errors": [text]}, args.json, [f"error: {text}"])
        return 0


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "parse":
        text = print_operator(parse_operator(args.expr))
        _emit({"input": args.expr, "operator": text}, args.json, [text])
    elif cmd in ("mul", "commutator"):
        product = dop_mul if cmd == "mul" else commutator
        text = print_operator(product(parse_operator(args.left),
                                      parse_operator(args.right)))
        _emit({"result": text}, args.json, [text])
    elif cmd == "ad-test":
        L = parse_operator(args.expr)
        theta = _parse_theta(args.theta) if args.theta else Poly.x()
        m, Q = ad_condition_min_m(L, theta, args.order_budget) or (None, None)
        payload: dict[str, Any] = {"theta": str(theta), "m": m}
        lines = [f"minimal m: {m}"]
        if Q is not None:
            payload["ad_power"] = print_operator(Q)
            lines.append(f"ad^m(theta) = {payload['ad_power']}")
            try:
                # bounded_test refuses a non-monic L before the split could
                # refuse a growing coefficient: keep that order
                f = split_constant_part(L)[0] if L.is_monic() else Poly.zero()
                chain = bounded_test(L, f, theta, Q)
                payload["chain"] = {
                    "q": list(chain.q), "identity_holds": chain.identity_holds,
                    "s": chain.s, "q_r": chain.q_r,
                    "q_r_expected": chain.q_r_expected,
                    "failures": list(chain.failures()),
                }
                lines.append(f"chain: passes={chain.passes} "
                             f"failures={list(chain.failures())}")
            except err.BispecError as e:
                payload["chain_error"] = f"{type(e).__name__}: {e}"
                lines.append(f"chain: {payload['chain_error']}")
        _emit(payload, args.json, lines)
    elif cmd == "divide":
        Q, R = right_divide(parse_operator(args.numerator),
                            parse_operator(args.divisor))
        payload = {"quotient": print_operator(Q), "remainder": print_operator(R)}
        _emit(payload, args.json,
              [f"Q = {payload['quotient']}", f"R = {payload['remainder']}"])
    elif cmd == "darboux":
        res = darboux(parse_operator(args.base), parse_operator(args.factor))
        payload = {name: print_operator(getattr(res, name))
                   for name in ("P", "Q", "base", "transformed")}
        _emit(payload, args.json,
              [f"Q = {payload['Q']}", f"transformed = {payload['transformed']}"])
    elif cmd == "wave":
        L = parse_operator(args.expr)
        f, _ = split_constant_part(L)
        K = wave_operator(L, f, args.trunc)
        coeffs = {j: str(c) for j in range(1, K.trunc + 1) if (c := K.coeff(-j))}
        fz = poly_text(f, "z")
        residual_zero = wave_residual_zero(L, f, K)
        _emit({"f": fz, "coefficients": coeffs, "residual_zero": residual_zero},
              args.json,
              [f"f(z) = {fz}"] + [f"a_{j} = {c}" for j, c in coeffs.items()]
              + [f"residual zero: {residual_zero}"])
    elif cmd == "airy-wave":
        L = parse_operator(args.expr)
        # the truncation is not read: the walk decides the recursion
        out = airy_wave_solve(L, 1)
        if out.verdict == "clean":
            _emit({"kind": "wave", "identity": True, "coefficients": {}},
                  args.json, ["K = 1"])
        else:
            steps = [(s.j, s.s, s.k, s.alpha) for s in out.steps]
            _emit({"kind": "obstruction", "verdict": out.verdict,
                   "steps": steps},
                  args.json,
                  [f"obstruction: {out.verdict}", f"steps: {steps}"])
    elif cmd == "weights":
        L = parse_operator(args.expr)
        w = choose_weights(L)
        f = associated_polynomial(L, w)
        nf = normal_form_test(f, w)
        _emit({"rho": w.rho, "sigma": w.sigma, "f": str(f),
               "case": nf.case, "yrx": list(nf.yrx) if nf.yrx else None,
               "nilpotency_excluded": nf.nilpotency_excluded},
              args.json,
              [f"(rho, sigma) = ({w.rho}, {w.sigma})", f"f(x, y) = {f}",
               f"normal form case: {nf.case}"])
    elif cmd == "classify":
        L = parse_operator(args.expr)
        theta = _parse_theta(args.theta) if args.theta else None
        P = parse_operator(args.p) if args.p else None
        budgets = Budgets(ad_budget=args.order_budget, trunc=args.trunc)
        report = classify(L, input_text=args.expr, theta=theta, P=P,
                          budgets=budgets)
        doc = report.to_json_dict()
        _emit(doc, args.json,
              [f"input:   {doc['input']}", f"branch:  {doc['branch']}",
               f"verdict: {doc['verdict']}"]
              + [f"  {key}: {value}" for key, value in doc["certificates"].items()]
              + [f"  error: {e}" for e in doc["errors"]])
    elif cmd == "centralizer":
        L = parse_operator(args.expr)
        res = centralizer_search(L, args.order_budget)
        gens = [print_operator(M) for M in res.generators]
        orders = sorted(set(res.orders))
        _emit({"orders": orders, "rank": res.rank, "generators": gens},
              args.json,
              [f"orders: {orders}",
               f"rank estimate: {'undetermined' if res.rank is None else res.rank}"]
              + [f"  {g}" for g in gens])
    return 0


if __name__ == "__main__":
    sys.exit(main())
