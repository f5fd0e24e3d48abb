"""The traced benchmark pass as a tier-1 test.

``python3 bench/run.py --workload W --seed 1 --trace 1`` exits 1 when a
span that the workload must exercise (``run.EXPECTED_SPANS[W]``) records
no calls, so a change that takes the last caller away from such a span
breaks the benchmark.  This test runs the same traced pass in-process:
``spans.Tracer`` is installed, every operation of the workload goes
through ``bispec.cli.main([..., "--json"])`` with its output captured,
every answer goes through the benchmark's gate, and every expected span
must have calls.  The benchmark's modules are only imported (without
writing bytecode), and nothing is written.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import gate  # noqa: E402
    import run  # noqa: E402
    import spans  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _dont_write

from bispec import cli  # noqa: E402


def traced_pass(ops: list) -> tuple[list, dict]:
    """The CLI's exit code and stdout for every operation, and the span
    summary of the pass."""
    tracer = spans.Tracer()
    tracer.install()
    answers = []
    try:
        for i, op in enumerate(ops):
            tracer.current_op = i
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv) + ["--json"])
            answers.append((rc, out.getvalue()))
    finally:
        tracer.finish()
    return answers, tracer.summary


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_pass_records_every_expected_span(workload):
    ops = workloads.build(workload, 1)
    answers, summary = traced_pass(ops)
    problems = [(list(op.argv), rc) for op, (rc, _) in zip(ops, answers) if rc != 0]
    problems += [(list(op.argv), p) for op, (rc, text) in zip(ops, answers) if rc == 0
                 for p in gate.check(op, json.loads(text))]
    assert problems == []
    missing = [name for name in run.EXPECTED_SPANS[workload] if summary[name]["calls"] == 0]
    assert missing == []
