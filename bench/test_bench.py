"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _bench(*args: str) -> tuple[int, str]:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                       capture_output=True, text=True, cwd=ROOT, timeout=170)
    return p.returncode, p.stdout


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]] \
        == spans.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_come_from_the_seed():
    for name in workloads.WORKLOADS:
        a = [op.argv for op in workloads.build(name, 11)]
        assert a == [op.argv for op in workloads.build(name, 11)]
        assert a != [op.argv for op in workloads.build(name, 12)]


def test_traced_call_counts_repeat():
    runs = []
    for _ in range(2):
        rc, out = _bench("--workload", "shape-mix", "--seed", "5",
                         "--seconds", "1", "--trace", "1")
        assert rc == 0, out[-2000:]
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".calls")})
    assert runs[0] == runs[1]
    assert runs[0]["cli.main.calls"] == len(workloads.build("shape-mix", 5))


def test_end_to_end_result_has_every_metric():
    rc, out = _bench("--workload", "shape-mix", "--seed", "2", "--seconds", "1")
    assert rc == 0, out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "metric failed_frac = 0 ratio" in out


@pytest.mark.parametrize("outcome", ["raises", "exit 3", "deadline"])
def test_an_operation_that_does_not_return_fails_the_run(monkeypatch, capsys, outcome):
    def main(argv):
        if outcome == "raises":
            raise RuntimeError("stub")
        if outcome == "deadline":
            raise run.DeadlineExceeded()
        return 3

    cli = types.SimpleNamespace(main=main, __file__=str(run.SRC / "bispec" / "cli.py"))
    setup = run.setup

    def stubbed_setup(workload, seed):
        seconds, _, ops, sizes = setup(workload, seed)
        return seconds, cli, ops, sizes

    monkeypatch.setattr(run, "setup", stubbed_setup)
    monkeypatch.setattr(run, "timed_setup", lambda workload, seed: 0.1)
    assert run.main(["--workload", "shape-mix", "--seed", "3", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_tracer_patches_every_binding_and_restores():
    import bispec.classify  # noqa: F401
    import bispec.cli  # noqa: F401
    from bispec import rational

    mods = {n: sys.modules[f"bispec.{n}"]
            for n in ("diffop", "classify", "cli", "families", "parser", "airy")}
    original = mods["diffop"].dop_mul
    gcd = rational.Poly.gcd
    t = spans.Tracer()
    t.install()
    try:
        for m in mods.values():
            assert m.dop_mul is not original
        assert rational.Poly.gcd is not gcd
        p = rational.Poly([1, 1]) * rational.Poly([-1, 1])
        p.gcd(rational.Poly([1, 1]))
    finally:
        t.finish()
    assert all(m.dop_mul is original for m in mods.values())
    assert rational.Poly.gcd is gcd
    assert t.summary["rational.Poly.gcd"]["calls"] == 1
    assert t.summary["rational.Poly.divmod"]["calls"] >= 1


def test_tail_percentile():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs) == (90.0, 90.0)  # ten samples beyond 90
    assert run.tail(xs[:15]) == (100.0 * 8 / 15, 8.0)  # never below the median


def _classify_answer(verdict, **certs):
    return {"verdict": verdict, "operator": "d^2 - 2*x^-2", "certificates": certs,
            "errors": []}


def test_gate_accepts_inconclusive_and_rejects_a_wrong_verdict():
    op = Op(("classify", "d^2 - 2*x^-2"), frozenset({workloads.BESSEL}))
    assert gate.check(op, _classify_answer("Inconclusive")) == []
    assert gate.check(op, _classify_answer("Bessel(2)", bessel_betas=["-1", "2"])) == []
    assert gate.check(op, _classify_answer("Obstructed"))


def test_gate_rejects_certificates_that_do_not_reverify():
    op = Op(("classify", "d^2 - 2*x^-2"), frozenset({workloads.BESSEL}))
    assert gate.check(op, _classify_answer("Bessel(2)", bessel_betas=["-1", "3"]))
    darboux = {"P": "d - x^-1", "Q": "d - x^-1", "base": "d^2"}
    assert gate.check(op, _classify_answer("Inconclusive", darboux=darboux))
    assert gate.check(op, _classify_answer("Inconclusive", **{"lambda": "d^2 - 2*z^-2",
                                                                "ad_m": 3}))
    gauged = Op(("classify", "d^2 + 2*x^-2*d - 2*x^-2 - 2*x^-3 + x^-4"),
                workloads.BISPECTRAL_BOUNDED)
    assert gate.check(gauged, _classify_answer("Bessel(2)", bessel_betas=["-1", "2"],
                                               gauge="(-1)/(x^2)")) == []
    assert gate.check(gauged, _classify_answer("Bessel(2)", bessel_betas=["-1", "2"],
                                               gauge="(-2)/(x^2)"))
    step = Op(("darboux", "d^2 - 6*x^-2", "d - 3*x^-1"), None,
              {"transformed": "d^2 - 12*x^-2"})
    answer = {"P": "d - 3*x^-1", "Q": "d + 3*x^-1", "base": "d^2 - 6*x^-2",
              "transformed": "d^2 - 12*x^-2"}
    assert gate.check(step, answer) == []
    assert gate.check(step, dict(answer, Q="d - 3*x^-1"))
    assert gate.check(step, dict(answer, transformed="d^2 - 6*x^-2"))
    wrong = Op(("mul", "d", "x"))
    assert gate.check(wrong, {"result": "x*d"})
    assert gate.check(wrong, {"result": "x*d + 1"}) == []
