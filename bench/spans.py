"""Span tracing from outside the library.

The tracer replaces each traced bispec function with a wrapper that
records a span (name, start, end, parent span, operation index, outcome)
and calls the original.  Functions are replaced in every ``bispec.*``
module namespace that binds them (``from .diffop import dop_mul`` copies
the name into ``classify``, ``cli``, ``families``, ``parser`` and
``airy``), methods on their class.  Spans live in flat arrays while the pass runs and are summarized
and written out afterwards.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

RAISED = 1    # the call raised
RETURNED = 2  # the call returned something other than None


@dataclass(frozen=True)
class Span:
    module: str        # bispec submodule
    attr: str          # function name, or Class.method
    name: str          # span name; metric names are <module>.<name>.<stat>
    stats: tuple[str, ...]

    @property
    def full_name(self) -> str:
        return f"{self.module}.{self.name}"


def _s(module, attr, *stats, name=None):
    return Span(module, attr, name or attr, ("calls",) + stats)


SPANS = (
    _s("rational", "Poly.gcd", "self_ms"),
    _s("rational", "Poly.divmod", "self_ms"),
    _s("rational", "Poly.__mul__", "self_ms", name="Poly.mul"),
    _s("rational", "RatFunc.__init__", "self_ms", name="RatFunc.new"),
    _s("rational", "rat_antiderivative", "ms", "ok_ratio"),
    _s("rational", "rational_reconstruct", "hit_ratio"),
    _s("rational", "Poly.rational_roots", "ms"),
    _s("rational", "laurent_expand", "ms"),
    _s("diffop", "dop_mul", "self_ms"),
    _s("diffop", "commutator", "self_ms"),
    _s("diffop", "ad_condition_min_m", "ms", "hit_ratio"),
    _s("diffop", "gauge_normalize", "ms"),
    _s("diffop", "left_divide", "ms"),
    _s("diffop", "right_divide", "ms"),
    _s("bounded", "wave_operator", "ms"),
    _s("bounded", "conjugate_theta", "ms"),
    _s("bounded", "build_lambda", "ms"),
    _s("bounded", "bounded_test", "ms"),
    _s("bounded", "centralizer_search", "ms"),
    _s("bounded", "split_constant_part", "ms"),
    _s("bounded", "PDO.__mul__", "self_ms", name="PDO.mul"),
    _s("bounded", "PDO.inverse", "ms"),
    _s("linalg", "nullspace", "ms"),
    _s("linalg", "rref", "ms"),
    _s("families", "is_euler_homogeneous", "ms"),
    _s("families", "bessel_recover", "ms"),
    _s("families", "p_form_check", "ms"),
    _s("weights", "choose_weights", "ms"),
    _s("weights", "normal_form_test", "ms"),
    _s("weights", "principal_part", "ms"),
    _s("airy", "perturbation_obstruction", "ms"),
    _s("airy", "airy_wave_solve", "ms"),
    _s("airy", "TOp.__mul__", "self_ms", name="TOp.mul"),
    _s("parser", "parse_operator", "ms"),
    _s("parser", "print_operator", "ms"),
    _s("classify", "classify", "self_ms"),
    _s("cli", "main", "self_ms"),
)

OVERHEAD = "trace.overhead_ratio"

_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms",
          "ok_ratio": "ratio", "hit_ratio": "ratio"}
_HIGHER = {"ok_ratio", "hit_ratio"}


def metric_specs() -> list[dict]:
    """Every per-layer metric, as BENCHMARK.json lists it."""
    out = []
    for sp in SPANS:
        for st in sp.stats:
            out.append({"name": f"{sp.full_name}.{st}", "unit": _UNITS[st],
                        "better": "higher" if st in _HIGHER else "lower"})
    out.append({"name": OVERHEAD, "unit": "ratio", "better": "lower"})
    return out


class Tracer:
    """Records spans for the SPANS functions while installed."""

    def __init__(self):
        self.name_of = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("B")
        self.current_op = -1  # set by the caller before each operation
        self.summary: dict[str, dict] = {}  # filled by finish()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation

    def _wrap(self, fn, sid: int):
        name_of, parent, op, flags = self.name_of, self.parent, self.op, self.flags
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(sid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0)
            flags.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                flags[idx] = RAISED
                raise
            end[idx] = clock()
            stack.pop()
            if result is not None:
                flags[idx] = RETURNED
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "bispec" or n.startswith("bispec.")) and m is not None]
        for sid, sp in enumerate(SPANS):
            # bispec.classify is the re-exported function: go through sys.modules
            mod = sys.modules[f"bispec.{sp.module}"]
            owner, _, attr = sp.attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(original, sid))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, sid)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def summarize(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms (outermost calls only, so a
        recursive span is not counted twice), self ms, raised, returned."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        agg = [{"calls": 0, "ns": 0, "self_ns": 0, "raised": 0, "returned": 0}
               for _ in SPANS]
        for i in range(n):
            sid = self.name_of[i]
            a = agg[sid]
            a["calls"] += 1
            a["self_ns"] += dur[i] - child[i]
            a["raised"] += self.flags[i] == RAISED
            a["returned"] += self.flags[i] == RETURNED
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != sid:
                p = self.parent[p]
            if p < 0:
                a["ns"] += dur[i]
        return {sp.full_name: a for sp, a in zip(SPANS, agg)}

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for sp in SPANS:
            a = self.summary[sp.full_name]
            calls = a["calls"]
            for st in sp.stats:
                if st == "calls":
                    v = calls
                elif st == "ms":
                    v = a["ns"] / 1e6
                elif st == "self_ms":
                    v = a["self_ns"] / 1e6
                elif st == "ok_ratio":
                    v = (calls - a["raised"]) / calls if calls else 0.0
                else:  # hit_ratio
                    v = a["returned"] / calls if calls else 0.0
                out[f"{sp.full_name}.{st}"] = v
        return out

    def finish(self) -> None:
        """Restore the library and summarize the spans."""
        self.uninstall()
        self.summary = self.summarize()

    def write(self, path: Path) -> None:
        """One line per span: op, id, parent, name, start_us, end_us, outcome."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        names = [sp.full_name for sp in SPANS]
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("op\tid\tparent\tname\tstart_us\tend_us\toutcome\n")
            for i in range(len(self.start)):
                f.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{names[self.name_of[i]]}\t"
                        f"{(self.start[i] - t0) / 1e3:.1f}\t{(self.end[i] - t0) / 1e3:.1f}\t"
                        f"{self.flags[i]}\n")
