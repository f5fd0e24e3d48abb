"""Guards on what ``import bispec`` costs, checked without timing.

Creating a dataclass generates and compiles code for every class, on every
cold import; the value classes are plain ``__slots__`` records instead.
And ``import bispec`` keeps loading the whole library, so that no cost is
hidden from the set-up measurement by a lazy import.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bispec

# the AST-node total of src/bispec/*.py may not exceed this
MAX_AST_NODES = 28566

# the submodules ``import bispec`` loads (cli is the command-line entry)
EAGER = {"airy", "bounded", "classify", "diffop", "errors", "families",
         "linalg", "parser", "rational", "weights"}


def _submodules():
    return [importlib.import_module(f"bispec.{m.name}")
            for m in pkgutil.iter_modules(bispec.__path__)]


def test_no_dataclasses():
    found = [f"{mod.__name__}.{name}"
             for mod in _submodules()
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and obj.__module__ == mod.__name__
             and hasattr(obj, "__dataclass_fields__")]
    assert found == []


def test_import_loads_every_submodule():
    src = os.path.dirname(os.path.dirname(bispec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bispec; print(' '.join(sorted(m for m in sys.modules "
         "if m.startswith('bispec.'))))"],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    ).stdout.split()
    loaded = {m.split(".", 1)[1] for m in out}
    assert EAGER <= loaded
    assert {m.name for m in pkgutil.iter_modules(bispec.__path__)} - loaded == {"cli"}


def test_compiled_size_does_not_grow():
    """Set-up is mostly compilation.  Without a bytecode cache (as under
    PYTHONDONTWRITEBYTECODE=1), a fresh set-up of the bounded-origin
    workload took 47-70 ms, and 7-11 ms with a warm cache, on a 2-core
    VM; compiling src/bispec costs 1-2 us per AST node.  Compiling also
    sets the benchmark's peak RSS: on the same VM, compiling rational.py,
    the largest module, lifted ru_maxrss from about 17.0 to 18.9 MB, the
    rest of the import added nothing, and a whole pass of any of the three
    workloads added at most 0.12 MB.  So the library's compiled size is
    held to a ceiling.  A change that adds code raises MAX_AST_NODES in
    the same diff and says so in CHANGES.md.
    """
    src = Path(bispec.__file__).parent
    total = sum(sum(1 for _ in ast.walk(ast.parse(path.read_text())))
                for path in src.glob("*.py"))
    assert total <= MAX_AST_NODES
