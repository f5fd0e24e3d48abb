"""Seeded workload generators.

Each workload is one *pass*: a fixed list of CLI operations built from the
seed alone.  Inputs are operator texts in the bispec expression grammar;
nothing here imports bispec, so building a workload measures only text
generation.  Every operation carries what its construction implies about
the answer, which the correctness gate (``gate.py``) checks.

The composition of a pass (how many operations of each shape) is fixed;
the seed picks the coefficients and the order of the pass.  That keeps the
cost and the verdict mix of a pass steady from seed to seed, so that seeds
vary the inputs without varying what is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

AIRY = "Airy(1)"
BESSEL = "Bessel(2)"
CONSTCOEFF = "ConstantCoeff(3)"
MONOMIAL = "MonomialDarbouxCandidate(4)"
POLYNOMIAL = "PolynomialDarbouxCandidate(5)"
OBSTRUCTED = "Obstructed"
INCONCLUSIVE = "Inconclusive"

# Translates of Bessel and Darboux operators are bispectral; the verdict
# vocabulary has more than one label that a correct classifier may use.
BISPECTRAL_BOUNDED = frozenset({BESSEL, MONOMIAL, POLYNOMIAL})

# The per-operation deadline.  The slowest input that is expected to
# finish, d^2 - 2*(x^2+1)^-1, takes 4-5 s on a 2-core x86 VM and up to
# 10 s when the host is busy; 15 s keeps it clear, so only the known hang
# of bounded-general reaches the deadline and failed_frac repeats.
DEADLINE_S = 15.0

# The cost of one pass on that VM.  A run makes round(seconds / cost)
# passes, at least one, so that every run of a workload measures the same
# operations whatever the host's speed at the time.
NOMINAL_PASS_S = {"shape-mix": 1.2, "bounded-origin": 20.0, "bounded-general": 28.0}


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``bispec <argv> --json``.

    ``verdicts``: for ``classify``, the decided verdicts the input's
    construction allows; an empty set allows only ``Inconclusive``, and
    None means the construction implies nothing.  ``facts`` holds what the
    gate re-checks for other commands (betas, expected kind, ...).
    ``may_hang``: the input is a known hang; hitting the deadline is its
    expected outcome.
    """

    argv: tuple[str, ...]
    verdicts: Optional[frozenset[str]] = None
    facts: dict = field(default_factory=dict, hash=False, compare=False)
    may_hang: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def operator_texts(self) -> list[str]:
        """The operator arguments, for the size record."""
        out = []
        args = iter(self.argv[1:])
        for a in args:
            if not a.startswith("--"):
                out.append(a)
            elif a == "--p":
                out.append(next(args))
            else:
                next(args)  # the integer value of --trunc or --order-budget
        return out


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------

def _coef(rng: random.Random, hi: int = 9) -> Fraction:
    """A small nonzero rational with a random sign."""
    return Fraction(rng.randint(1, hi), rng.choice((1, 2, 3))) * rng.choice((1, -1))


def _mono(c: Fraction, x: str, xexp: int, dexp: int) -> str:
    """|c| * x^xexp * d^dexp as grammar text (sign handled by _sum)."""
    atoms = []
    mag = abs(c)
    if mag != 1 or (xexp == 0 and dexp == 0):
        atoms.append(str(mag))
    if xexp:
        atoms.append(x if xexp == 1 else f"{x}^{xexp}")
    if dexp:
        atoms.append("d" if dexp == 1 else f"d^{dexp}")
    return "*".join(atoms)


def _sum(terms: list[tuple[Fraction, str, int, int]]) -> str:
    """Join (coefficient, base, x-exponent, d-exponent) terms with signs."""
    out = []
    for c, x, xe, de in terms:
        if c == 0:
            continue
        body = _mono(c, x, xe, de)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(out)


def _airy_terms(rng: random.Random, p: int, every: bool = False) -> list:
    """d^p + sum a_j d^j - x, a_j on a random subset of 1..p-2, or on all
    of it when ``every``."""
    terms = [(Fraction(1), "x", 0, p)]
    for j in range(p - 2, 0, -1):
        if every or rng.random() < 0.5:
            terms.append((Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))), "x", 0, j))
    return terms + [(Fraction(-1), "x", 1, 0)]


def _perturbation(rng: random.Random, p: int, slot: int) -> tuple:
    """c x^h d^k with h in {-1, -2, -3} and k <= p - 2 chosen by the slot."""
    return (_coef(rng), "x", -1 - slot % 3, slot % (p - 1))


def _rand_operator(rng: random.Random, order: int, rational: bool, shift: int) -> str:
    """An operator of the given order with a Laurent monomial on every
    derivative power, for parse/mul/commutator; ``rational`` wraps it in a
    (x + a)^-1 factor.  Only the coefficients are random."""
    # a positive leading term: argparse would take "-..." for an option
    terms = [(abs(_coef(rng)), "x", (order + shift) % 4 - 1, order)]
    for j in range(order - 1, -1, -1):
        terms.append((_coef(rng), "x", (j + shift) % 4 - 1, j))
    text = _sum(terms)
    if rational:
        text = f"(x + {rng.randint(1, 5)})^-1*({text})"
    return text


def _nu(rng: random.Random) -> Fraction:
    """A Bessel index nu with nu*(1 - nu) != 0."""
    while True:
        nu = Fraction(rng.randint(-6, 7), rng.choice((1, 2, 3)))
        if nu not in (0, 1):
            return nu


# ---------------------------------------------------------------------------
# shape-mix
# ---------------------------------------------------------------------------

def shape_mix(rng: random.Random) -> list[Op]:
    """Family draws, perturbed Airy operators and the cheap commands."""
    ops: list[Op] = []
    orders = (2, 3, 5)
    for i in range(15):
        p = orders[i % 3]
        # generalized Airy
        ops.append(Op(("classify", _sum(_airy_terms(rng, p))), frozenset({AIRY})))
        # constant coefficients
        terms = [(Fraction(1), "x", 0, p)]
        for j in range(p - 2, 0, -1):
            if rng.random() < 0.5:
                terms.append((_coef(rng, 4), "x", 0, j))
        ops.append(Op(("classify", _sum(terms)), frozenset({CONSTCOEFF})))
        # generalized Bessel x^-p (xd - b_1) ... (xd - b_p)
        betas = sorted(Fraction(rng.randint(-4, 8), rng.choice((1, 2))) for _ in range(p))
        factors = "*".join(
            f"(x*d {'-' if b >= 0 else '+'} {abs(b)})" for b in betas)
        trivial = betas == [Fraction(k) for k in range(p)]  # the product is d^p
        ops.append(Op(("classify", f"x^-{p}*{factors}"),
                      frozenset({CONSTCOEFF if trivial else BESSEL}),
                      {"betas": [str(b) for b in betas]}))
    for i in range(36):
        # A + c x^h d^k with h < 0, k <= p - 2: never bispectral.  The
        # largest group of a pass, so that op_ms.p50 falls inside it rather
        # than on the edge between two groups of different cost.
        p = orders[i % 3]
        terms = _airy_terms(rng, p)
        terms.append(_perturbation(rng, p, i // 3))
        ops.append(Op(("classify", _sum(terms)), frozenset({OBSTRUCTED})))
    for i in range(12):
        # the costliest calls of a pass, and so the ones op_ms.tail lands
        # on: a fixed shape keeps their cost from depending on the seed
        p = orders[i % 3]
        terms = _airy_terms(rng, p, every=True)
        if i % 2:
            terms.append(_perturbation(rng, p, i // 2))
        ops.append(Op(("airy-wave", _sum(terms)), None,
                      {"kind": "obstruction" if i % 2 else "wave"}))
    for i in range(12):
        p = orders[i % 3]
        ops.append(Op(("weights", _sum(_airy_terms(rng, p))), None,
                      {"rho": p, "sigma": 1, "f": f"y^{p} - x"}))
    for i in range(9):
        order, rational = 1 + i % 3, i % 3 == 0
        ops.append(Op(("parse", _rand_operator(rng, order, rational, i))))
        for command in ("mul", "commutator"):
            ops.append(Op((command, _rand_operator(rng, order, rational, i),
                           _rand_operator(rng, 3 - i % 3, False, i + 1))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# bounded-origin
# ---------------------------------------------------------------------------

def bounded_origin(rng: random.Random) -> list[Op]:
    """Bounded-branch operators whose poles sit at x = 0."""
    ops = [
        Op(("classify", "d^2 + x^-1"), frozenset({OBSTRUCTED})),
        Op(("classify", "d^3 + x^-1"), frozenset({OBSTRUCTED})),
        # Darboux of the constant-coefficient d^2 + 1: centralizer and linalg
        Op(("classify", "d^2 + 1 - 2*x^-2"), frozenset({POLYNOMIAL})),
        # the Darboux path with build_lambda at J = 16
        Op(("classify", "d^2 - 2*x^-2", "--p", "d - x^-1", "--trunc", "16"),
           frozenset({MONOMIAL})),
        Op(("centralizer", "d^3 - 3*x^-2*d + 3*x^-3", "--order-budget", "5")),
    ]
    # d^N + c x^-1: the wave recursion needs log x, so never bispectral.
    # With the d^2 + x^-1 anchor, the order-2 ones are the largest group of
    # a pass and op_ms.p50 falls inside it.
    for N in (2,) * 7 + (3,):
        ops.append(Op(("classify", _sum([(Fraction(1), "x", 0, N),
                                         (_coef(rng), "x", -1, 0)])),
                      frozenset({OBSTRUCTED})))
    # d^2 + nu(1 - nu) x^-2 = x^-2 (xd - nu)(xd - 1 + nu): Bessel
    for _ in range(2):
        nu = _nu(rng)
        ops.append(Op(("classify", _sum([(Fraction(1), "x", 0, 2),
                                         (nu * (1 - nu), "x", -2, 0)])),
                      frozenset({BESSEL}),
                      {"betas": sorted([str(nu), str(1 - nu)], key=Fraction)}))
    # the same Bessel operators behind the gauge d -> d + c/2 x^-2: a
    # subleading c x^-2 d, so classify runs gauge_normalize first
    # ((d + g')^2 = d^2 + 2g' d + g'' + g'^2 with g' = c/2 x^-2)
    for _ in range(2):
        nu, c = _nu(rng), _coef(rng, 4)
        ops.append(Op(("classify", _sum([(Fraction(1), "x", 0, 2), (c, "x", -2, 1),
                                         (nu * (1 - nu), "x", -2, 0), (-c, "x", -3, 0),
                                         (c * c / 4, "x", -4, 0)])),
                      BISPECTRAL_BOUNDED,
                      {"betas": sorted([str(nu), str(1 - nu)], key=Fraction)}))
    # Darboux steps d^2 - k(k-1) x^-2 = (d + k x^-1)(d - k x^-1)
    #   -> (d - k x^-1)(d + k x^-1) = d^2 - k(k+1) x^-2, by right division
    for _ in range(2):
        k = _nu(rng)
        base = _sum([(Fraction(1), "x", 0, 2), (k * (1 - k), "x", -2, 0)])
        ops.append(Op(("darboux", base, _sum([(Fraction(1), "x", 0, 1), (-k, "x", -1, 0)])),
                      None,
                      {"transformed": _sum([(Fraction(1), "x", 0, 2),
                                            (-k * (k + 1), "x", -2, 0)])}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# bounded-general
# ---------------------------------------------------------------------------

def _shifted(N: int, parts: list[tuple[Fraction, int, int]]) -> str:
    """d^N + sum c (x+1)^e d^k."""
    text = f"d^{N}"
    for c, e, k in parts:
        body = _mono(c, "(x+1)", e, k)
        text += f" {'+' if c > 0 else '-'} {body}"
    return text


def bounded_general(rng: random.Random) -> list[Op]:
    """Poles off the origin, exactness gaps and the known hang."""
    ops = [
        # translate of the Bessel/Darboux operator d^2 - 2 x^-2
        Op(("classify", "d^2 - 2*(x+1)^-2"), BISPECTRAL_BOUNDED),
        # the antiderivative is an arctan: genuinely obstructed
        Op(("classify", "d^2 - 2*(x^2+1)^-1"), frozenset({OBSTRUCTED})),
        # Bessel shape with irrational symbol roots; rational_roots trial
        # division runs ~sqrt(c) steps and does not finish
        Op(("classify", "d^2 - 100000000000000000000*x^-2"), frozenset(),
           may_hang=True),
    ]
    budget = ("--order-budget", "4")
    # the shapes of the seeded fuzz generator (coefficients c (x+1)^e) at
    # orders 2 and 3; order 5 takes 5-7 s a draw, too close to the deadline
    # when the host is busy
    for N in (2,) * 4 + (3,) * 2:
        ops.append(Op(("classify", _shifted(N, [(_coef(rng), -1, 0)])) + budget,
                      frozenset({OBSTRUCTED})))
    for _ in range(2):
        nu = _nu(rng)
        ops.append(Op(("classify", _shifted(2, [(nu * (1 - nu), -2, 0)])) + budget,
                      BISPECTRAL_BOUNDED))
    # as many cheaper and as many costlier operations as there are triple
    # poles, so that op_ms.p50 falls in the middle of this group
    for _ in range(7):
        # a triple pole never occurs in a bispectral potential
        ops.append(Op(("classify", _shifted(2, [(_coef(rng), -3, 0)])) + budget,
                      frozenset({OBSTRUCTED})))
    ops.append(Op(("classify", _shifted(3, [(_coef(rng), -2, 1),
                                            (_coef(rng), -1, 0)])) + budget))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "shape-mix": shape_mix,
    "bounded-origin": bounded_origin,
    "bounded-general": bounded_general,
}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
