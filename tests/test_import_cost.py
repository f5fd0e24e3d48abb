"""Guards on what ``import bispec`` costs, checked without timing.

Creating a dataclass generates and compiles code for every class, on every
cold import; the value classes are plain ``__slots__`` records instead.
And ``import bispec`` keeps loading the whole library, so that no cost is
hidden from the set-up measurement by a lazy import.  The library's
compiled size is held to a ceiling, and so is each module's, because the
largest module sets the peak memory of a cold import.
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
MAX_AST_NODES = 21555

# nor may the AST-node count of any one of them (poly.py is the largest)
MAX_MODULE_AST_NODES = 3411

# the submodules ``import bispec`` loads (cli is the command-line entry)
EAGER = {"airy", "bounded", "classify", "diffop", "errors", "families",
         "linalg", "parser", "poly", "rational", "weights"}


def _ast_nodes() -> dict[str, int]:
    src = Path(bispec.__file__).parent
    return {path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text())))
            for path in src.glob("*.py")}


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
    VM; compiling src/bispec costs 1-2 us per AST node.  So the library's
    compiled size is held to a ceiling.  A change that adds code raises
    MAX_AST_NODES in the same diff and says so in CHANGES.md.
    """
    assert sum(_ast_nodes().values()) <= MAX_AST_NODES


def test_no_module_sets_the_peak_alone():
    """Compiling sets the benchmark's peak RSS.  CPython compiles one file
    at a time and holds that file's tokens and AST while it does, so the
    largest file sets the high-water mark of every cold run; a whole pass
    of any of the three workloads adds at most 0.12 MB.  On a 2-core VM
    under Python 3.11, tracemalloc's peak while compiling the 6,906-node
    rational.py was 2.63 MB, and compiling it lifted ru_maxrss of a bare
    interpreter from 13.8 to 16.4 MB.  Split into poly.py (3,003 nodes,
    1.18 MB) and rational.py (3,926 nodes, 1.69 MB), the two lift it to
    15.5 MB, and no other module exceeds 1.38 MB (bounded.py).  So each
    module is held to MAX_MODULE_AST_NODES, which may not pass 4,000:
    a module that would outgrow it is split by layer instead.
    """
    assert MAX_MODULE_AST_NODES <= 4000
    assert max(_ast_nodes().values()) <= MAX_MODULE_AST_NODES


def _package_imports(name: str) -> list[str]:
    tree = ast.parse((Path(bispec.__file__).parent / name).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return [m for m in imported if m.startswith((".", "bispec"))]


# the names bispec/__init__.py re-exports that no other module of the
# package reads, each kept for one reason
REEXPORTED_ONLY = {
    "make_airy": "acceptance criteria 07-09 build the Airy operators",
    "make_bessel": "criteria 02 and 11 and bench/gate.py build Bessel operators",
    "airy_bispectral_check": "criterion 07: A psi = x psi on the Airy kernel",
    "airy_involution": "criterion 07's bispectral pair: b(A) = z, b(d) = d_z",
}


def test_every_reexport_is_read_or_has_a_reason():
    """A name that ``import bispec`` offers but no module of the package
    reads is reached only by callers outside src/bispec.  Each such name
    is listed with its reason; any other is either read by the package or
    gone, so a function that only a re-export keeps alive shows here."""
    src = Path(bispec.__file__).parent
    init = ast.parse((src / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert exported - read == set(REEXPORTED_ONLY)


def test_poly_is_the_bottom_layer():
    """Poly and its printers import nothing from the package but the
    exception hierarchy, which imports nothing itself, so the
    rational-function and series layer builds on them, never the reverse."""
    assert _package_imports("poly.py") == [".errors"]
    assert _package_imports("errors.py") == []


def test_runtime_imports_only_the_standard_library():
    """The runtime is stdlib-only: every absolute import in src/bispec
    names a module of the standard library."""
    names = set()
    for path in Path(bispec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    assert names and names <= sys.stdlib_module_names
