"""Guards on what ``import bispec`` costs, checked without timing.

Creating a dataclass generates and compiles code for every class, on every
cold import; the value classes are plain ``__slots__`` records instead.
And ``import bispec`` keeps loading the whole library, so that no cost is
hidden from the set-up measurement by a lazy import.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import bispec

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
