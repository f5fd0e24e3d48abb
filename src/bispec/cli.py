"""Command-line surface: parse/arithmetic utilities and the classification
pipeline.

Each command computes one answer, a dict, which ``--json`` writes as a
JSON document and text mode as ``key: value`` lines (``_text_lines``), so
the two forms carry the same keys and values.

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
from .poly import Poly, poly_text, scalar_text
from .rational import RatFunc
from .diffop import DiffOp, ad_condition_min_m, commutator, dop_mul, right_divide
from .parser import parse_operator
from .families import darboux
from .weights import associated_polynomial, associated_text, choose_weights, normal_form_test
from .airy import airy_wave_solve
from .bounded import (
    bounded_test,
    centralizer_search,
    split_constant_part,
    wave_operator,
    wave_residual_zero,
)
from .classify import Budgets, classify, read_theta


def _jsonable(value: Any) -> Any:
    """An answer as JSON values: each function or operator as its ``str``,
    which ``parse_operator`` reads back, and each other scalar as its
    exact text."""
    if isinstance(value, (DiffOp, Poly, RatFunc)):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return scalar_text(value)


def _emit(doc: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in _text_lines(doc):
            print(line)


def _text_lines(doc: dict[str, Any], indent: str = ""):
    """One ``key: value`` line per entry; a non-empty dict's entries go
    two spaces deeper under ``key:``.  A non-empty string is written as
    is, any other value (the empty string too, so no line ends in a
    space) as its JSON text."""
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        else:
            text = value if isinstance(value, str) and value else json.dumps(value)
            yield f"{indent}{key}: {text}"


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
        # writing a scalar as text can raise ScalarTooLong, which is
        # embedded like any other domain error
        doc = _jsonable(_answer(args))
    except err.OperatorSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except err.BispecError as e:
        doc = {"errors": [err.error_text(e)]}
    _emit(doc, args.json)
    return 0


def _answer(args) -> dict[str, Any]:
    """The answer to one command: the dict that ``--json`` writes and
    text mode renders line by line."""
    cmd = args.command
    if cmd == "parse":
        return {"input": args.expr, "operator": parse_operator(args.expr)}
    if cmd in ("mul", "commutator"):
        product = dop_mul if cmd == "mul" else commutator
        return {"result": product(parse_operator(args.left), parse_operator(args.right))}
    if cmd == "ad-test":
        L = parse_operator(args.expr)
        theta = read_theta(args.theta or Poly.x())
        m, Q = ad_condition_min_m(L, theta, args.order_budget) or (None, None)
        doc: dict[str, Any] = {"theta": theta, "m": m}
        if Q is not None:
            doc["ad_power"] = Q
            try:
                # bounded_test refuses a non-monic L before the split could
                # refuse a growing coefficient: keep that order
                f = split_constant_part(L)[0] if L.is_monic() else Poly.zero()
                doc["chain"] = bounded_test(L, f, theta, Q)
            except err.BispecError as e:
                doc["chain_error"] = err.error_text(e)
        return doc
    if cmd == "divide":
        Q, R = right_divide(parse_operator(args.numerator),
                            parse_operator(args.divisor))
        return {"quotient": Q, "remainder": R}
    if cmd == "darboux":
        return darboux(parse_operator(args.base), parse_operator(args.factor))
    if cmd == "wave":
        L = parse_operator(args.expr)
        f, _ = split_constant_part(L)
        K = wave_operator(L, f, args.trunc)
        return {"f": poly_text(f, "z"),
                "coefficients": {j: c for j in range(1, K.trunc + 1)
                                 if (c := K.coeff(-j))},
                "residual_zero": wave_residual_zero(L, f, K)}
    if cmd == "airy-wave":
        # the truncation is not read: the walk decides the recursion
        out = airy_wave_solve(parse_operator(args.expr), 1)
        if out.verdict == "clean":
            return {"kind": "wave", "identity": True, "coefficients": {}}
        return {"kind": "obstruction", **out.certificate()}
    if cmd == "weights":
        L = parse_operator(args.expr)
        w = choose_weights(L)
        f = associated_polynomial(L, w)
        return {"rho": w[0], "sigma": w[1], "f": associated_text(f), **normal_form_test(f, w)}
    if cmd == "classify":
        # arguments are evaluated in order, so a bad operator is reported
        # before a bad theta, and a bad theta before a bad P
        return classify(
            parse_operator(args.expr), input_text=args.expr,
            theta=read_theta(args.theta or None),
            P=parse_operator(args.p) if args.p else None,
            budgets=Budgets(ad_budget=args.order_budget, trunc=args.trunc),
        )
    # centralizer
    return centralizer_search(parse_operator(args.expr), args.order_budget)


if __name__ == "__main__":
    sys.exit(main())
