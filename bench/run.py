#!/usr/bin/env python3
"""The bispec benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from ``src/``.
One process, one thread, one closed-loop client with no think time: each
operation is ``bispec.cli.main([..., "--json"])`` called in-process with
stdout captured, so it takes the user's path through the CLI.

``--trace 0`` runs round(seconds / nominal pass cost) whole passes over
the workload (see ``NOMINAL_PASS_S``), times the set-up in fresh
interpreters between them and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; the spans are written to ``bench/out/``.  Either way every answer goes through the
correctness gate, the report lines come first and the last line is one
JSON object.  The exit code is 0 only when every answer is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import DEADLINE_S, INCONCLUSIVE, NOMINAL_PASS_S, Op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 31


class DeadlineExceeded(Exception):
    """Raised by SIGALRM; deliberately not a BispecError, so the CLI does
    not turn it into an embedded error and it reaches the benchmark."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Result:
    status: str      # ok, deadline, exit <code>, or the exception's name
    ms: float
    stdout: str


def run_op(cli, op: Op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv) + ["--json"])
        status = "ok" if rc == 0 else f"exit {rc}"
    except DeadlineExceeded:
        status = "deadline"
    except SystemExit as e:  # argparse exits on a usage error
        status = f"exit {e.code}"
    except Exception as e:  # any exception that escapes the CLI is a failure
        status = type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Result(status, (time.perf_counter() - t0) * 1e3, out.getvalue())


def run_pass(cli, ops: list[Op], tracer=None,
             after_op=lambda: None) -> tuple[float, list[Result]]:
    """Run every operation once; the pass time is the sum of their times."""
    gc.collect()
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        results.append(run_op(cli, op))
        after_op()
    return sum(r.ms for r in results) / 1e3, results


# ---------------------------------------------------------------------------
# set-up: import bispec, build and parse the seeded inputs
# ---------------------------------------------------------------------------

def _sizes(bispec, op: Op) -> dict:
    """Order, coefficient terms and maximum coefficient bits of the inputs."""
    order = terms = bits = 0
    for text in op.operator_texts():
        L = bispec.parse_operator(text)
        order = max(order, L.order)
        for c in L.coeffs.values():
            for p in (c.num, c.den):
                for v in p.coeffs:
                    if v:
                        terms += 1
                        bits = max(bits, v.numerator.bit_length(),
                                   v.denominator.bit_length())
    return {"order": order, "terms": terms, "bits": bits}


def setup(workload: str, seed: int):
    """Import bispec, build the seeded inputs and parse them.  Returns the
    seconds this took, bispec.cli, the operations and their sizes."""
    t0 = time.perf_counter()
    bispec = importlib.import_module("bispec")
    cli = importlib.import_module("bispec.cli")
    ops = workloads.build(workload, seed)
    sizes = [_sizes(bispec, op) for op in ops]
    return time.perf_counter() - t0, cli, ops, sizes


def timed_setup(workload: str, seed: int) -> float:
    """The seconds of one set-up in a fresh interpreter, where bispec is not
    imported yet; it adds nothing to this process's memory."""
    p = subprocess.run([sys.executable, __file__, "--workload", workload,
                        "--seed", str(seed), "--setup-only"],
                       capture_output=True, text=True, timeout=60, check=True)
    return float(p.stdout.split()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; never below the median (with 21 samples or fewer, the upper
    median)."""
    xs = sorted(samples)
    n = len(xs)
    idx = max(n - 11, n // 2)
    return 100.0 * (idx + 1) / n, xs[idx]


def end_to_end(setups, passes, ops, peak_rss_mb) -> tuple[dict, list[str]]:
    pass_s = sum(s for s, _ in passes)
    results = [r for _, rs in passes for r in rs]
    ms = [r.ms for r in results]
    done = sum(r.status == "ok" for r in results)
    classify = [r for _, rs in passes for op, r in zip(ops, rs) if op.command == "classify"]
    decided = sum(r.status == "ok" and json.loads(r.stdout)["verdict"] != INCONCLUSIVE
                  for r in classify)
    pct, tail_ms = tail(ms)
    failed = len(results) - done
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / pass_s, "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "failed_frac": (failed / len(results), "ratio"),
        "decided_frac": (decided / len(classify) if classify else 1.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    q = statistics.quantiles(setups, n=4)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, quartiles {q[0]:.4f}-{q[2]:.4f} s",
        "ops_per_s": f"{done} completed in {len(passes)} passes, {pass_s:.3f} s",
        "op_ms.p50": f"n={len(ms)}",
        "op_ms.tail": f"p{pct:.1f}, n={len(ms)}",
        "failed_frac": f"{failed}/{len(results)}",
        "decided_frac": f"{decided}/{len(classify)} classify operations",
        "peak_rss_mb": "ru_maxrss after the passes",
    }
    lines = [f"metric {k} = {v:.6g} {u} ({notes[k]})" for k, (v, u) in m.items()]
    return m, lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

# The end-to-end metrics of the JSON result.  failed_frac is 0 on most
# workloads, and on the reference VM the run-to-run spread of ops_per_s,
# op_ms.p50 and op_ms.tail is above a third of the largest bound a tracked
# metric may have (see README.md), so those four are reported in the text
# lines only.
END_TO_END = ("setup_s", "decided_frac", "peak_rss_mb")

# spans that a traced pass of each workload must record
EXPECTED_SPANS = {
    "shape-mix": (
        "rational.Poly.mul", "rational.RatFunc.new", "rational.Poly.rational_roots",
        "diffop.dop_mul", "diffop.commutator", "families.is_euler_homogeneous",
        "families.bessel_recover", "weights.choose_weights", "weights.normal_form_test",
        "weights.principal_part", "airy.perturbation_obstruction",
        "airy.airy_wave_solve", "airy.TOp.mul", "parser.parse_operator",
        "parser.print_operator", "classify.classify", "cli.main"),
    "bounded-origin": (
        "rational.Poly.gcd", "rational.Poly.divmod", "rational.Poly.mul",
        "rational.RatFunc.new", "rational.rat_antiderivative",
        "rational.rational_reconstruct", "rational.laurent_expand",
        "diffop.dop_mul", "diffop.commutator", "diffop.ad_condition_min_m",
        "diffop.gauge_normalize", "diffop.left_divide", "diffop.right_divide",
        "bounded.wave_operator", "bounded.conjugate_theta",
        "bounded.build_lambda", "bounded.bounded_test", "bounded.centralizer_search",
        "bounded.split_constant_part", "bounded.PDO.mul", "bounded.PDO.inverse",
        "linalg.nullspace", "linalg.rref", "families.is_euler_homogeneous",
        "families.bessel_recover", "families.p_form_check", "classify.classify",
        "cli.main"),
    "bounded-general": (
        "rational.Poly.gcd", "rational.Poly.divmod", "rational.Poly.mul",
        "rational.RatFunc.new", "rational.rat_antiderivative",
        "rational.rational_reconstruct", "rational.Poly.rational_roots",
        "rational.laurent_expand", "diffop.dop_mul", "diffop.commutator",
        "diffop.ad_condition_min_m", "bounded.wave_operator",
        "bounded.split_constant_part", "families.is_euler_homogeneous",
        "families.bessel_recover", "classify.classify", "cli.main"),
}


def _answer(op: Op, res: Result) -> str:
    """A one-line summary of an answer for the report."""
    if res.status != "ok":
        return "-"
    out = json.loads(res.stdout)
    if op.command == "classify":
        return f"verdict={out['verdict']}" + (f" errors={out['errors']}" if out["errors"] else "")
    if op.command == "airy-wave":
        return f"kind={out['kind']}"
    return ""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="sets the number of passes; --trace 1 runs two passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the seconds of one set-up and exit")
    return ap.parse_args(argv)


def check_answers(ops: list[Op], passes) -> list[str]:
    """Check the first pass through gate.check; every later pass must give
    the same answers.  An operation that did not return normally is a
    problem, except a known hang that reached the deadline."""
    import gate

    problems = []
    first = passes[0][1]
    for i, (op, r) in enumerate(zip(ops, first)):
        if r.status == "ok":
            for p in gate.check(op, json.loads(r.stdout)):
                problems.append(f"op {i} {list(op.argv)}: {p}")
        elif not (op.may_hang and r.status == "deadline"):
            problems.append(f"op {i} {list(op.argv)}: {r.status}")
        for _, rs in passes[1:]:
            if (rs[i].status, rs[i].stdout) != (r.status, r.stdout):
                problems.append(f"op {i} {list(op.argv)}: answer differs between passes")
    return problems


def print_header(args, ops: list[Op], sizes: list[dict]) -> None:
    print(f"# bispec benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} deadline_s={DEADLINE_S:g}")
    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"platform={platform.platform()}")
    for i, (op, sz) in enumerate(zip(ops, sizes)):
        expect = "-" if op.verdicts is None else ("|".join(sorted(op.verdicts)) or INCONCLUSIVE)
        print(f"# input {i:02d} order={sz['order']} terms={sz['terms']} bits={sz['bits']} "
              f"expect={expect}{' may_hang' if op.may_hang else ''} "
              f"argv={json.dumps(list(op.argv))}")


def traced_metrics(args, passes, tracer) -> dict:
    """Per-layer metrics of the traced pass; exits if a span the workload
    must exercise recorded no calls."""
    import spans

    values = tracer.metrics()
    values[spans.OVERHEAD] = passes[1][0] / passes[0][0]
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"# spans: {len(tracer.start)} written to {path.relative_to(HERE.parent)}")
    units = {m["name"]: m["unit"] for m in spans.metric_specs()}
    for k, v in values.items():
        print(f"metric {k} = {v:.6g} {units[k]}")
    missing = [s for s in EXPECTED_SPANS[args.workload] if tracer.summary[s]["calls"] == 0]
    if missing:
        sys.exit(f"bench: the traced pass recorded no calls to {missing}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bispec" / "__init__.py").is_file():
        print(f"bench: no bispec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup(args.workload, args.seed)[0])
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)

    # compiles bytecode on a fresh checkout, so it is not timed
    _, cli, ops, sizes = setup(args.workload, args.seed)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported bispec from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print_header(args, ops, sizes)

    tracer = None
    if args.trace:
        import spans

        passes = [run_pass(cli, ops)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, tracer))
        finally:
            tracer.finish()
    else:
        # a fixed number of passes, whatever the host's speed
        want = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        setups: list[float] = []
        done = itertools.count(1)

        def setup_share():
            # the set-up repeats run in even shares between the operations,
            # so that their median samples the host over the whole run
            share = SETUP_REPEATS * next(done) // (want * len(ops))
            while len(setups) < share:
                setups.append(timed_setup(args.workload, args.seed))

        passes = [run_pass(cli, ops, after_op=setup_share) for _ in range(want)]
    # before the gate, which is not the workload; set-ups run in children
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, (op, res) in enumerate(zip(ops, passes[0][1])):
        print(f"# op {i:02d} {res.status} {res.ms:.1f} ms {_answer(op, res)} "
              f"argv={json.dumps(list(op.argv))}")
    for k, (s, _) in enumerate(passes):
        print(f"# pass {k}: {s:.3f} s{' (traced)' if tracer and k == 1 else ''}")
    unexpected = 0
    for _, rs in passes:
        for i, (op, r) in enumerate(zip(ops, rs)):
            if r.status != "ok":
                known = op.may_hang and r.status == "deadline"
                unexpected += not known
                print(f"# failed op {i:02d}: {r.status}{' (known hang)' if known else ''}")
    problems = check_answers(ops, passes)
    for p in problems:
        print(f"# GATE: {p}")

    if tracer is None:
        metrics, lines = end_to_end(setups, passes, ops, peak_rss_mb)
        print("\n".join(lines))
        report = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in END_TO_END}
    else:
        report = traced_metrics(args, passes, tracer)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(rs) for _, rs in passes),
                      "failed": unexpected, "metrics": report}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
