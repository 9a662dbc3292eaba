"""Exact top intersection numbers of psi and boundary divisor classes on
the moduli space of stable n-pointed genus-0 curves.

Products are expanded over *decorated boundary strata*: a stable dual tree
together with a power of the cotangent class at each flag (a marking leg or
an edge branch).  Restricted to a stratum, a divisor expression is a
weight per flag plus the splits that refine a vertex, by the classical
genus-0 rules:

* a psi class raises the decoration at its leg;
* a boundary divisor equal to the split of an existing edge contributes the
  excess term ``-(psi' + psi'')``, raising either branch of that node;
* a boundary divisor whose split crosses the stratum kills the term;
* otherwise the divisor refines a unique vertex by one new edge.

A top-degree decorated stratum integrates to ``prod_v (f_v - 3)! /
prod_flags p!`` when the decorations at each vertex of ``f_v`` flags sum to
``f_v - 3`` (and 0 otherwise): a multinomial per vertex, whose flag
factorials are one product over the stratum.

A stratum is the product of its vertices' ``M_{0,f_v}``, and a factor
restricted to it is the sum of its restrictions to the vertices, so a
product of factors integrates one vertex at a time: hand each factor to a
vertex, integrate each vertex on its own, and multiply.
:func:`product_number` does this depth first from the smooth curve, with
equal factors grouped into kinds.  At a vertex it applies one factor: a
raise bumps a power at the same vertex, and a boundary term splits the
vertex into two, between which the factors left are shared.  No global
state of strata is built; a memo that lives for one call answers a vertex
met again with the same powers and factors left.

Marking sets are bitmasks in the codec of :mod:`strata0.strata` (bit
``i-1`` is marking ``i``).  A flag is named by its far mask, the markings
beyond it, and splitting a vertex keeps every flag's far mask, so a vertex
is a tuple of far masks (the one holding marking 1 first, the rest sorted)
and the boundary divisors that refine it are the unions of its other flags'
masks.  :func:`product_number` answers the public API on arbitrary
expressions and ``volume`` on signatures with some ``k_i >= 0``; every
``intersect`` list goes to the restriction recursion
:func:`strata0.divisors.form_psi_number`, and ``product_number`` is that
recursion's oracle in the tests.  The tests keep two oracles of their own
(``tests/term_calculus.py``): the term-by-term calculus (``multiply`` /
``integrate``) and the breadth-first fold over decorated strata keyed by
their split sets, both reading the same genus-0 rules.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

from strata0.strata import _marks_mask

__all__ = [
    "WrongDegree",
    "Psi",
    "Boundary",
    "DivisorSymbol",
    "DivisorExpression",
    "product_number",
    "keel_relation",
    "psi_boundary_expression",
]


class WrongDegree(ValueError):
    pass


# ---------------------------------------------------------------------------
# divisor symbols and expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Psi:
    """Cotangent class at marking ``i``."""

    i: int


@dataclass(frozen=True)
class Boundary:
    """Boundary divisor of a two-block split, stored as the side holding marking 1."""

    n: int
    key: int  # bitmask of the side containing marking 1

    @staticmethod
    def of(n: int, side: Iterable[int]) -> "Boundary":
        m = _marks_mask(n, side)
        full = (1 << n) - 1
        if m == 0 or m == full:
            raise ValueError(f"side must be a proper nonempty subset of 1..{n}")
        key = m if m & 1 else full ^ m
        if key.bit_count() < 2 or (full ^ key).bit_count() < 2:
            raise ValueError("both sides of a boundary split need >= 2 markings")
        return Boundary(n, key)


DivisorSymbol = Union[Psi, Boundary]


def _symbol_order(sym: DivisorSymbol) -> tuple:
    if isinstance(sym, Psi):
        return (0, sym.i)
    return (1, sym.key)


class DivisorExpression:
    """Formal Q-linear combination of psi and boundary symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[DivisorSymbol, Fraction] | None = None):
        self.terms: dict[DivisorSymbol, Fraction] = {}
        if terms:
            for sym, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    self.terms[sym] = c

    def __add__(self, other: "DivisorExpression") -> "DivisorExpression":
        out = dict(self.terms)
        for sym, c in other.terms.items():
            out[sym] = out.get(sym, Fraction(0)) + c
        return DivisorExpression(out)

    def __sub__(self, other: "DivisorExpression") -> "DivisorExpression":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "DivisorExpression":
        s = Fraction(scalar)
        return DivisorExpression({sym: s * c for sym, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorExpression) and self.terms == other.terms

    def __repr__(self) -> str:
        bits = [f"{c}*{sym}" for sym, c in sorted(self.terms.items(), key=lambda t: _symbol_order(t[0]))]
        return " + ".join(bits) if bits else "0"

    def items(self):
        return self.terms.items()


def _check_psi(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"psi index {i} is outside 1..{n}")


# ---------------------------------------------------------------------------
# products of divisor expressions
# ---------------------------------------------------------------------------


def _scaled_parts(n: int, expr: DivisorExpression) -> tuple[int, dict[int, int], dict[int, int]]:
    """Clear denominators: returns (denominator, psi numerators, boundary numerators)."""
    den = 1
    for c in expr.terms.values():
        den = lcm(den, c.denominator)
    psis: dict[int, int] = {}
    bnds: dict[int, int] = {}
    for sym, c in expr.terms.items():
        num = int(c * den)
        if isinstance(sym, Psi):
            _check_psi(n, sym.i)
            psis[sym.i] = psis.get(sym.i, 0) + num
        else:
            if sym.n != n:
                raise ValueError("boundary symbol for the wrong n")
            bnds[sym.key] = bnds.get(sym.key, 0) + num
    return den, psis, bnds


def _flag_weights(full: int, psis: dict[int, int], bnds: dict[int, int]) -> dict[int, int]:
    """A factor's weight per flag: ``psi_i`` at the leg of marking ``i``, and
    ``-q_K`` at both branches of an edge ``K``.  Each raises the decoration at
    its flag by one, so psi and excess terms are one move; no far mask names
    both a leg and a branch."""
    weights = {1 << (i - 1): q for i, q in psis.items()}
    for k, q in bnds.items():
        weights[full ^ k] = weights[k] = -q
    return weights


def _moves(full, fl, pw, weights, bnds):
    """The terms one factor adds at a vertex with flags ``fl`` (far masks,
    the flag toward marking 1 first) and powers ``pw`` at those flags.

    Returns ``(raises, refinements)``: ``(q, i)`` for each flag ``fl[i]``
    whose decoration the factor raises with weight ``q``, and ``(q, split,
    bits)`` for each factor term ``q * D_split`` that moves the flags
    ``fl[t+1]`` with bit ``t`` set in ``bits`` to a new vertex.  A
    refinement is kept only if both halves, of ``size + 1`` and ``f - size +
    1`` flags (``size`` flags moved), keep slack ``>= 0``.  Both lists are
    empty at a vertex with no slack (decoration sum ``dv > f - 4``):
    decorations never shrink and splitting a vertex only lowers the total
    slack, so such terms integrate to zero inside a top-degree product.  The
    moved subsets come from a lowest-bit DP over two columns, far mask and
    decoration sum.
    """
    f = len(fl)
    dv = sum(pw)
    if dv > f - 4:
        return (), ()
    raises = [(weights[fm], i) for i, fm in enumerate(fl) if fm in weights]
    refinements = []
    if bnds:
        far = [0] * (1 << (f - 1))
        dsum = [0] * len(far)
        for bits in range(1, len(far)):
            low = bits & -bits
            i = low.bit_length()
            prev = bits ^ low
            far[bits] = far[prev] | fl[i]
            dm = dsum[bits] = dsum[prev] + pw[i]
            size = bits.bit_count()
            if dm <= size - 2 and dv - dm <= f - size - 2:
                split = full ^ far[bits]
                q = bnds.get(split)
                if q:
                    refinements.append((q, split, bits))
    return raises, refinements


def _shares(counts: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every way to hand ``k`` of the factors left, ``counts[j]`` of kind
    ``j``, to one half of a split: ``(t, counts - t, prod_j C(counts_j,
    t_j))``."""
    out = [((), (), 1)]
    for c in counts:
        out = [(t + (x,), u + (c - x,), m * comb(c, x))
               for t, u, m in out for x in range(min(c, k - sum(t)) + 1)]
    return [s for s in out if sum(s[0]) == k]


def _vertex_number(fl, pw, counts, kinds, full, memo) -> int:
    """The integral over a vertex's ``M_{0,f}`` of its decorations times
    ``counts[j]`` factors of each kind ``j``, restricted to the vertex.

    ``fl`` are the flags' far masks, the flag holding marking 1 first and
    the rest sorted, and ``pw`` the powers there, so equal vertices are equal
    tuples and ``memo`` (the caller's, for one product) answers a repeated
    one; it also keeps the :func:`_shares` of each ``(counts, slack)``, a
    key of another shape.  One factor of the first kind left is applied through
    :func:`_moves`: a raise is the same vertex with one power bumped; a
    refinement splits it into halves A (the new flag ``split``, then the
    moved flags) and B (``fl[0]``, the flags that stay and the new flag
    ``full ^ split``), and the factors left are shared between the halves in
    every way that fills A's slack, with a binomial per kind.  A vertex with
    no factors left is the multinomial ``(f - 3)! / prod p!``, and the last
    factor is evaluated in place: a raise is that multinomial with one power
    ``p`` made ``p + 1``, a refinement ``(size - 2)! (f - size - 2)! / prod
    p!``, both halves at top degree.
    """
    f = len(fl)
    left = sum(counts)
    if not left:
        return factorial(f - 3) // prod(map(factorial, pw))
    key = (fl, pw, counts)
    if key in memo:
        return memo[key]
    j = next(j for j, c in enumerate(counts) if c)
    raises, refinements = _moves(full, fl, pw, *kinds[j])
    total = 0
    if left == 1:
        base = prod(map(factorial, pw))
        for q, i in raises:
            total += q * factorial(f - 3) // (base * (pw[i] + 1))
        for q, _, bits in refinements:
            size = bits.bit_count()
            total += q * factorial(size - 2) * factorial(f - size - 2) // base
    else:
        rest = counts[:j] + (counts[j] - 1,) + counts[j + 1 :]
        for q, i in raises:
            raised = pw[:i] + (pw[i] + 1,) + pw[i + 1 :]
            total += q * _vertex_number(fl, raised, rest, kinds, full, memo)
        for q, split, bits in refinements:
            a_fl, a_pw, b_fl, b_pw = [split], [0], [fl[0]], [pw[0]]
            for i in range(1, f):
                if bits >> (i - 1) & 1:
                    a_fl.append(fl[i])
                    a_pw.append(pw[i])
                else:
                    b_fl.append(fl[i])
                    b_pw.append(pw[i])
            at = bisect(b_fl, full ^ split, 1)
            b_fl.insert(at, full ^ split)
            b_pw.insert(at, 0)
            a = (tuple(a_fl), tuple(a_pw))
            b = (tuple(b_fl), tuple(b_pw))
            acc = 0
            sk = (rest, len(a_fl) - 3 - sum(a_pw))
            if sk not in memo:
                memo[sk] = _shares(*sk)
            for t, u, m in memo[sk]:
                va = _vertex_number(*a, t, kinds, full, memo)
                if va:
                    acc += m * va * _vertex_number(*b, u, kinds, full, memo)
            total += q * acc
    memo[key] = total
    return total


def _check_factor_count(n: int, count: int) -> None:
    """Raise :class:`WrongDegree` unless ``count`` divisor factors make a
    top-degree product on ``M_{0,n}``."""
    if count != n - 3:
        raise WrongDegree(f"need exactly n - 3 = {n - 3} factors, got {count}")


def product_number(n: int, factors: Sequence[DivisorExpression]) -> Fraction:
    """Intersection number of ``n - 3`` divisor expressions.

    Equal factors are grouped into kinds with a count each, so that
    ``D^(n-3)`` is one kind.  The product restricts to the smooth vertex of
    ``M_{0,n}`` and is integrated one vertex at a time by
    :func:`_vertex_number`, depth first, with a memo that lives for this
    call only: a boundary term splits a vertex into two, and the factors
    left are shared between the halves.  Integers throughout, over the
    product of the factors' denominators; the result does not depend on the
    factor order.
    """
    _check_factor_count(n, len(factors))
    if n == 3:
        return Fraction(1)
    exprs: list[DivisorExpression] = []
    counts: list[int] = []
    for expr in factors:
        if expr in exprs:
            counts[exprs.index(expr)] += 1
        else:
            exprs.append(expr)
            counts.append(1)
    full = (1 << n) - 1
    den_total = 1
    kinds = []
    for expr, c in zip(exprs, counts):
        den, psis, bnds = _scaled_parts(n, expr)
        den_total *= den**c
        kinds.append((_flag_weights(full, psis, bnds), bnds))
    legs = tuple(1 << i for i in range(n))
    total = _vertex_number(legs, (0,) * n, tuple(counts), kinds, full, {})
    return Fraction(total, den_total)


# ---------------------------------------------------------------------------
# linear-equivalence helpers
# ---------------------------------------------------------------------------


def keel_relation(n: int, i: int, j: int, k: int, l: int) -> DivisorExpression:
    """The degree-0 class ``sum D(ij|kl) - sum D(ik|jl)``.

    Sums run over all splits with the named pairs on opposite sides; the
    expression pairs to zero against every complementary monomial.
    """
    if len({i, j, k, l}) != 4:
        raise ValueError("need four distinct markings")
    _marks_mask(n, (i, j, k, l))  # names a marking outside 1..n
    others = [m for m in range(1, n + 1) if m not in (i, j, k, l)]
    terms: dict[DivisorSymbol, Fraction] = {}

    def add(a: int, b: int, sign: int) -> None:
        # splits with a, b on one side and the other named pair opposite
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                sym = Boundary.of(n, frozenset((a, b) + extra))
                terms[sym] = terms.get(sym, Fraction(0)) + sign

    add(i, j, 1)
    add(i, k, -1)
    return DivisorExpression(terms)


def psi_boundary_expression(n: int, i: int, j: int, k: int) -> DivisorExpression:
    """Boundary representative of ``psi_i``: the sum of all divisors whose
    ``i``-side avoids ``j`` and ``k``."""
    if len({i, j, k}) != 3:
        raise ValueError("need three distinct markings")
    _marks_mask(n, (i, j, k))  # names a marking outside 1..n
    others = [m for m in range(1, n + 1) if m not in (i, j, k)]
    terms: dict[DivisorSymbol, Fraction] = {}
    for size in range(1, len(others) + 1):
        for extra in itertools.combinations(others, size):
            sym = Boundary.of(n, frozenset((i,) + extra))
            terms[sym] = terms.get(sym, Fraction(0)) + 1
    return DivisorExpression(terms)
