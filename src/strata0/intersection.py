"""Exact top intersection numbers of psi and boundary divisor classes on
the moduli space of stable n-pointed genus-0 curves.

Classes are held as Q-linear combinations of *decorated boundary strata*: a
stable dual tree together with a power of the cotangent class at each flag
(a marking leg or an edge branch).  Restricted to a stratum, a divisor
expression is a weight per flag plus the splits that refine a vertex, by the
classical genus-0 rules:

* a psi class raises the decoration at its leg;
* a boundary divisor equal to the split of an existing edge contributes the
  excess term ``-(psi' + psi'')``, raising either branch of that node;
* a boundary divisor whose split crosses the stratum kills the term;
* otherwise the divisor refines a unique vertex by one new edge.

A top-degree decorated stratum integrates to ``prod_v (f_v - 3)! /
prod_flags p!`` when the decorations at each vertex of ``f_v`` flags sum to
``f_v - 3`` (and 0 otherwise): a multinomial per vertex, whose flag
factorials are one product over the stratum.

Marking sets are bitmasks in the codec of :mod:`strata0.strata` (bit
``i-1`` is marking ``i``).  Equal strata must combine, which is what keeps
intermediate term counts polynomial in practice.  A decorated stratum is
keyed by its set of split masks, pairwise compatible, which determines the
tree (Buneman's splits-equivalence theorem; Semple-Steel, *Phylogenetics*),
so keys are canonical with no vertex renumbering and each rule above is one
set operation on the splits.  The product fold behind :func:`product_number`
runs on these keys and prunes terms that cannot reach a nonzero top degree.
It answers only public :func:`product_number` on arbitrary expressions
and ``volume`` on signatures with some ``k_i >= 0``; every ``intersect``
list goes to the restriction recursion
:func:`strata0.divisors.form_psi_number`, and the fold is that recursion's
oracle in the tests.  The tests keep the term-by-term calculus on the same
keys (``multiply`` / ``integrate``) as the fold's own oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

from strata0.strata import _laminar, _marks_mask

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


def _bumped(dec: tuple[tuple, ...], flag) -> tuple[tuple, ...]:
    """A sorted decoration tuple with the power at ``flag`` raised by one."""
    d = dict(dec)
    d[flag] = d.get(flag, 0) + 1
    return tuple(sorted(d.items()))


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


# The fold keys a decorated stratum by ``(splits, dec)``.  ``splits`` is the
# frozenset of the tree's split masks, each the side holding marking 1 as in
# ``Boundary.key``.  ``dec`` is a sorted tuple of ``(flag, power)`` with
# positive powers.  A flag is named by its far mask, the markings beyond it:
# ``1 << (i-1)`` for the leg of marking ``i``; ``full ^ K`` for the branch of
# split ``K`` on its marking-1 side and ``K`` for the one on its far side.
# Compatible splits determine the tree, so the key is canonical by
# construction, and splitting a vertex keeps every flag's far mask, so a
# refinement only adds its split and leaves ``dec`` as it is.
_Key = tuple[frozenset[int], tuple[tuple[int, int], ...]]


def _vertices(n: int, splits: frozenset[int], dec: tuple[tuple[int, int], ...]):
    """Vertex data of a split-set stratum, in the vertex numbering of
    :func:`strata0.strata._laminar`.

    Returns ``(flags, decsum)``: the far mask of each flag per vertex, with
    first the flag toward marking 1 (so no other flag's far mask holds
    marking 1); and the decoration sum per vertex.  With the one product of
    ``p!`` over ``dec`` that is all a stratum's integral reads.
    """
    full = (1 << n) - 1
    fars, parent, own = _laminar(n, splits)
    own[0] ^= 1  # the leg of marking 1 leads vertex 0's flags
    flags = [[1]] + [[full ^ a] for a in fars]
    for j, a in enumerate(fars, 1):
        flags[parent[j]].append(a)
    where = {}
    for v, m in enumerate(own):
        while m:
            low = m & -m
            flags[v].append(low)
            m ^= low
        for fm in flags[v]:
            where[fm] = v
    decsum = [0] * len(flags)
    for fm, p in dec:
        decsum[where[fm]] += p
    return flags, decsum


def _flag_weights(full: int, psis: dict[int, int], bnds: dict[int, int]) -> dict[int, int]:
    """A factor's weight per flag: ``psi_i`` at the leg of marking ``i``, and
    ``-q_K`` at both branches of an edge ``K``.  Each raises the decoration at
    its flag by one, so psi and excess terms are one move; no far mask names
    both a leg and a branch."""
    weights = {1 << (i - 1): q for i, q in psis.items()}
    for k, q in bnds.items():
        weights[full ^ k] = weights[k] = -q
    return weights


def _moves(full, fl, dv, powers, weights, bnds):
    """The terms one factor adds at a vertex with flags ``fl`` (far masks,
    the flag toward marking 1 first) and decoration sum ``dv``.

    Returns ``(raises, refinements)``: ``(q, fm)`` for each flag whose
    decoration the factor raises with weight ``q``, and ``(q, split, size)``
    for each factor term ``q * D_split`` that moves ``size`` flags of
    ``fl[1:]`` to a new vertex.  A refinement is kept only if both halves, of
    ``size + 1`` and ``f - size + 1`` flags, keep slack ``>= 0``.  Both lists
    are empty at a vertex with no slack (``dv > f - 4``): decorations never
    shrink and splitting a vertex only lowers the total slack, so such terms
    integrate to zero inside a top-degree product.  The moved subsets come
    from a lowest-bit DP over two columns, far mask and decoration sum (bit
    ``t`` is ``fl[t+1]``); the factorials are left to :func:`_pair_final`.
    """
    f = len(fl)
    if dv > f - 4:
        return (), ()
    raises = [(weights[fm], fm) for fm in fl if fm in weights]
    refinements = []
    if bnds:
        rest = fl[1:]
        pw = [powers.get(fm, 0) for fm in rest]
        far = [0] * (1 << len(rest))
        dsum = [0] * len(far)
        for bits in range(1, len(far)):
            low = bits & -bits
            i = low.bit_length() - 1
            prev = bits ^ low
            far[bits] = far[prev] | rest[i]
            dm = dsum[bits] = dsum[prev] + pw[i]
            size = bits.bit_count()
            if dm <= size - 2 and dv - dm <= f - size - 2:
                split = full ^ far[bits]
                q = bnds.get(split)
                if q:
                    refinements.append((q, split, size))
    return raises, refinements


def _fold_step(
    n: int,
    state: dict[_Key, int],
    psis: dict[int, int],
    bnds: dict[int, int],
) -> dict[_Key, int]:
    """One multiplication step: each stratum takes the factor's
    :func:`_moves` at every vertex as new keys, a raise as a bumped ``dec``
    and a refinement as one more split."""
    full = (1 << n) - 1
    weights = _flag_weights(full, psis, bnds)
    nxt: dict[_Key, int] = {}
    get = nxt.get
    for (splits, dec), c in state.items():
        flags, decsum = _vertices(n, splits, dec)
        powers = dict(dec)
        for fl, dv in zip(flags, decsum):
            raises, refinements = _moves(full, fl, dv, powers, weights, bnds)
            for q, fm in raises:
                t = (splits, _bumped(dec, fm))
                nxt[t] = get(t, 0) + c * q
            for q, split, _ in refinements:
                t = (splits | {split}, dec)
                nxt[t] = get(t, 0) + c * q
    return {t: c for t, c in nxt.items() if c}


def _pair_final(
    n: int,
    state: dict[_Key, int],
    psis: dict[int, int],
    bnds: dict[int, int],
) -> int:
    """Pair a degree ``n - 4`` state with the last factor.

    At this depth every live stratum has exactly one vertex with one unit of
    slack, and only the :func:`_moves` there contribute, evaluated in place
    (no new strata).  A refinement there moves ``size`` flags holding ``dm``
    decorations; ``_moves`` keeps it when ``dm <= size - 2`` and ``dv - dm <=
    f - size - 2``, and as the two add up to ``dv <= f - 4 = dv``, both hold
    with equality: both halves reach top degree.  A stratum with any other
    slack profile raises ``RuntimeError``.

    One exact integer per stratum, ``top = prod_v (f_v - 3)! // prod_dec p!``
    (a multinomial per vertex, ``f - 3`` times one at the slack vertex of
    ``f`` flags), scales every move: a raise at a flag of power ``p`` adds
    ``top // (p + 1)`` and a refinement ``top * (size - 2)! * (f - size -
    2)! // (f - 3)!``.  Both are products of multinomials, so exact.
    """
    full = (1 << n) - 1
    fact = [factorial(i) for i in range(n + 1)]
    weights = _flag_weights(full, psis, bnds)
    total = 0
    for (splits, dec), c in state.items():
        flags, decsum = _vertices(n, splits, dec)
        deficit = [len(fl) - 3 - d for fl, d in zip(flags, decsum)]
        if min(deficit) < 0 or sum(deficit) != 1:
            # total slack is 1 and the fold keeps every vertex's slack >= 0
            raise RuntimeError(
                f"internal error: stratum with vertex slacks {deficit} reached "
                "the final pairing; please report"
            )
        top = prod(fact[len(fl) - 3] for fl in flags) // prod(fact[p] for _, p in dec)
        star = deficit.index(1)
        fl = flags[star]
        f = len(fl)
        powers = dict(dec)
        raises, refinements = _moves(full, fl, decsum[star], powers, weights, bnds)
        acc = 0
        for q, fm in raises:
            acc += q * top // (powers.get(fm, 0) + 1)
        for q, _, size in refinements:
            acc += q * top * fact[size - 2] * fact[f - size - 2] // fact[f - 3]
        total += c * acc
    return total


def _check_factor_count(n: int, count: int) -> None:
    """Raise :class:`WrongDegree` unless ``count`` divisor factors make a
    top-degree product on ``M_{0,n}``."""
    if count != n - 3:
        raise WrongDegree(f"need exactly n - 3 = {n - 3} factors, got {count}")


def product_number(n: int, factors: Sequence[DivisorExpression]) -> Fraction:
    """Intersection number of ``n - 3`` divisor expressions.

    Expands linearly, folding one factor at a time over the fundamental class;
    the result does not depend on the factor order.  Boundary-only factors are
    folded first so that crossing splits annihilate terms early; the last
    factor is paired directly without materialising the top-degree layer.
    """
    _check_factor_count(n, len(factors))
    if n == 3:
        return Fraction(1)
    parts = [_scaled_parts(n, f) for f in factors]
    # boundary-only factors first: cheaper and prunes harder
    parts.sort(key=lambda t: bool(t[1]))
    den_total = 1
    for den, _, _ in parts:
        den_total *= den
    state: dict[_Key, int] = {(frozenset(), ()): 1}
    for den, psis, bnds in parts[:-1]:
        state = _fold_step(n, state, psis, bnds)
        if not state:
            return Fraction(0)
    _, psis, bnds = parts[-1]
    total = _pair_final(n, state, psis, bnds)
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
