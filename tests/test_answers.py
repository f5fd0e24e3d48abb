"""The benchmark's answers, pinned.

Every operation of seeds 1-3 of the three benchmark workloads goes
through ``bispec.cli.main`` twice, as text and with ``--json``.  One
short digest per operation, of the exit code and stdout of both calls,
is compared with ``answers.json`` beside this file, and the test names
each operation whose answer moved, and the text of each must be the
rendering of its ``--json`` document, since both write one answer.  A
change that is meant to keep every answer keeps this file; one that
changes answers on purpose regenerates it with

    PYTHONPATH=src python tests/test_answers.py

and lists the changed operations in CHANGES.md.  The benchmark's
``workloads`` module is only imported (without writing bytecode).
"""

import contextlib
import functools
import hashlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "answers.json"
SEEDS = (1, 2, 3)

sys.path.insert(0, str(HERE.parent / "bench"))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _dont_write

from bispec import cli, parse_operator, print_operator  # noqa: E402


def _call(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return f"{rc}\n{out.getvalue()}"


@functools.cache
def _outputs() -> dict:
    """{"workload/seed/index": (argv, text answer, --json answer)}."""
    out = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.build(name, seed)):
                argv = list(op.argv)
                out[f"{name}/{seed}/{i}"] = (argv, _call(argv), _call(argv + ["--json"]))
    return out


def answers() -> dict:
    """{"workload/seed/index": "digest argv"} for every operation."""
    out = {}
    for key, (argv, text, as_json) in _outputs().items():
        digest = hashlib.sha256((text + as_json).encode()).hexdigest()[:16]
        out[key] = f"{digest} {' '.join(argv)}"
    return out


def test_answers_are_unchanged():
    pinned = json.loads(PINNED.read_text())
    got = answers()
    changed = [f"{key}: {got.get(key) or pinned[key]}"
               for key in sorted(pinned.keys() | got.keys())
               if pinned.get(key) != got.get(key)]
    assert changed == []


def _render(doc: dict, indent: str = "") -> str:
    text = ""
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            text += f"{indent}{key}:\n" + _render(value, indent + "  ")
        else:
            text += f"{indent}{key}: {value if isinstance(value, str) else json.dumps(value)}\n"
    return text


def test_text_is_the_rendering_of_the_json():
    # both forms write one answer: the text is the --json doc, one
    # "key: value" line per entry and a nested dict two spaces deeper
    for key, (argv, text, as_json) in _outputs().items():
        rc, doc = as_json.split("\n", 1)
        assert text == f"{rc}\n{_render(json.loads(doc))}", key
        # and no Python repr leaks into it
        assert not re.search(r"Fraction\(|DiffOp\(|[\[({]'", text), key


def test_certificate_texts_parse_back():
    # every certificate that is a function or an operator in x, as the
    # classify operations of bounded-origin at seed 1 print it with
    # --json, is read back by parse_operator and prints as it was read:
    # the gauge function as a RatFunc, the others as operators
    ops = [op for op in workloads.build("bounded-origin", 1) if op.command == "classify"]
    assert len(ops) == 16
    seen = set()
    for op in ops:
        rc, out = _call(list(op.argv) + ["--json"]).split("\n", 1)
        assert rc == "0"
        certs = json.loads(out)["certificates"]
        darboux = certs.get("darboux", {})
        texts = {"gauge": certs.get("gauge"),
                 "translation.operator": certs.get("translation", {}).get("operator"),
                 **{f"darboux.{k}": darboux.get(k) for k in ("P", "Q", "base")}}
        for key, text in texts.items():
            if text is not None:
                L = parse_operator(text)
                printed = str(L.coeff(0)) if key == "gauge" else print_operator(L)
                assert printed == text, (op.argv, key)
                seen.add(key)
    assert seen == {"gauge", "darboux.P", "darboux.Q", "darboux.base"}


if __name__ == "__main__":
    PINNED.write_text(json.dumps(answers(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
