"""A cost ledger: deterministic operation counts of ``classify`` on hard
inputs, held to committed ceilings.

Wall time on a shared 2-core VM varies by about 30% between runs, and the
benchmark's workloads barely reach the ring's hot paths, so a change to
the ring or to a stage shows here as counts instead.  Each row is one
``classify`` of an already-parsed operator with default budgets, counted
in a fresh counter:

* ``Fraction``: calls of ``fractions.Fraction.__new__``;
* ``mul`` and ``gcd``: calls of ``Poly.__mul__`` and ``Poly.gcd``;
* ``commutator``: calls of ``diffop.commutator``, in every module that
  binds it.

The ceilings ratchet as ``MAX_AST_NODES`` does: a change that lowers a
count lowers its ceiling in the same diff, and a change that raises one
raises the ceiling there and says in CHANGES.md which, by how much and
why.  A row is never dropped to hide a count.  The ``Fraction`` count of
the first ``classify`` in a process can run one or two above the later
ones (caches on shared constants fill on first use), so it gets a margin
of a few constructions; the other counts are exact.  Python 3.12 and
later build most arithmetic results without ``Fraction.__new__``, so
there the ``Fraction`` counts fall well below the ceilings, which were
taken under Python 3.11.

The increasing branch has an exact pin of its own: one ``principal_part``
split and one ``airy_shape`` read per ``classify`` and per ``bispec
airy-wave``, both inside the one ``perturbation_obstruction`` call.
"""

import importlib
import pkgutil
from collections import Counter
from fractions import Fraction

import pytest

import bispec
from bispec import Poly, classify, parse_operator
from bispec.cli import main
from bispec.diffop import commutator

FRACTION_MARGIN = 4

# operator: (Fraction, mul, gcd, commutator) ceilings
CEILINGS = {
    # the arctan anchor: the probe finds no rational antiderivative
    "d^2 - 2*(x^2+1)^-1": (7102, 269, 130, 14),
    "d^3 - (x^3+2)^-2*d": (81816, 1014, 588, 14),
    "d^5 + 9*(x^2+1)^-1": (285383, 2354, 1318, 14),
    "d^5 - 3*(x+1)^-2*d^2 + 7/2*(x-2)^-2": (1376144, 6283, 3305, 14),
    # AM2
    "d^2 - (6*x^4 - 12*x)*(x^3+1)^-2": (12332, 289, 146, 14),
    # TP
    "d^3 - 3*d - 6*x^-2*d + 12*x^-3": (3332, 751, 8, 9),
}


def _counting(seen, key, fn):
    def wrapper(*args, **kwargs):
        seen[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _patch_everywhere(monkeypatch, fn, wrapper):
    """Replace ``fn`` by ``wrapper`` in every bispec module that binds it."""
    for info in pkgutil.iter_modules(bispec.__path__):
        module = importlib.import_module(f"bispec.{info.name}")
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


@pytest.fixture
def counts(monkeypatch):
    """A fresh counter of the four operations while the test runs."""
    seen = Counter()
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(_counting(seen, "Fraction", Fraction.__new__)))
    monkeypatch.setattr(Poly, "__mul__", _counting(seen, "mul", Poly.__mul__))
    monkeypatch.setattr(Poly, "gcd", _counting(seen, "gcd", Poly.gcd))
    _patch_everywhere(monkeypatch, commutator, _counting(seen, "commutator", commutator))
    return seen


@pytest.mark.parametrize("text", list(CEILINGS))
def test_classify_stays_under_its_ceilings(text, counts):
    L = parse_operator(text)
    counts.clear()
    classify(L)
    ceilings = dict(zip(("Fraction", "mul", "gcd", "commutator"), CEILINGS[text]))
    ceilings["Fraction"] += FRACTION_MARGIN
    over = {key: (counts[key], ceiling) for key, ceiling in ceilings.items()
            if counts[key] > ceiling}
    assert over == {}


@pytest.fixture
def shape_reads(monkeypatch):
    """Calls of ``airy_shape`` and ``principal_part``, wrapped in every
    module that binds them."""
    seen = Counter()
    for fn in (bispec.airy_shape, bispec.principal_part):
        _patch_everywhere(monkeypatch, fn, _counting(seen, fn.__name__, fn))
    return seen


@pytest.mark.parametrize("argv", [["classify", "d^2 - x + x^-2"], ["classify", "d^3 - x"],
                                  ["airy-wave", "d^2 - x + x^-2"]],
                         ids=" ".join)
def test_one_shape_read_per_increasing_call(argv, shape_reads, capsys):
    if argv[0] == "classify":
        classify(argv[1])
    else:
        assert main(argv) == 0
    assert shape_reads == {"airy_shape": 1, "principal_part": 1}
