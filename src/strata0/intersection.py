"""Exact top intersection numbers of psi and boundary divisor classes on
the moduli space of stable n-pointed genus-0 curves.

Classes are held as Q-linear combinations of *decorated boundary strata*: a
stable dual tree together with a power of the cotangent class at each flag
(a marking leg or an edge branch).  Multiplying by a divisor symbol applies
the classical genus-0 rules:

* a boundary divisor whose split crosses the stratum kills the term;
* a boundary divisor equal to the split of an existing edge contributes the
  excess term ``-(psi' + psi'')`` at the two branches of that node;
* otherwise the divisor refines a unique vertex by one new edge;
* a psi class raises the decoration at its leg.

A top-degree decorated stratum integrates to a product of one multinomial
per vertex, ``(m_v - 3)! / prod_f a_f!`` when the decorations at each vertex
sum to ``m_v - 3`` (and 0 otherwise).

Marking sets are bitmasks in the codec of :mod:`strata0.strata` (bit
``i-1`` is marking ``i``).  Equal strata must combine, which is what keeps
intermediate term counts polynomial in practice.  A decorated stratum is
keyed by its set of split masks, pairwise compatible, which determines the
tree (Buneman's splits-equivalence theorem; Semple-Steel, *Phylogenetics*),
so keys are canonical with no vertex renumbering and each rule above is one
set operation on the splits.  The product fold behind :func:`product_number`
is the one engine here: it runs on these keys and prunes terms that cannot
reach a nonzero top degree.  The tests keep the term-by-term calculus on the
same keys (``multiply`` / ``integrate``) as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Mapping, Sequence, Union

from strata0.strata import _laminar, _marks_mask, _mask_marks

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
            raise ValueError("side must be a proper nonempty subset of 1..n")
        key = m if m & 1 else full ^ m
        if bin(key).count("1") < 2 or bin(full ^ key).count("1") < 2:
            raise ValueError("both sides of a boundary split need >= 2 markings")
        return Boundary(n, key)

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        full = (1 << self.n) - 1
        return tuple(sorted(_mask_marks(self.key))), tuple(sorted(_mask_marks(full ^ self.key)))


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

    Returns ``(flags, where, decsum, denfac)``: the far mask of each flag per
    vertex, with first the flag toward marking 1 (so no other flag's far mask
    holds marking 1); the vertex of each flag; and per vertex the decoration
    sum and the product of ``p!`` over its decorations.
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
    denfac = [1] * len(flags)
    for fm, p in dec:
        decsum[where[fm]] += p
        denfac[where[fm]] *= factorial(p)
    return flags, where, decsum, denfac


def _subsets(fl, powers, fact):
    """Far mask, decoration sum and factorial denominator of every subset of
    the flags ``fl[1:]`` (bit ``t`` is ``fl[t+1]``), by a lowest-bit DP."""
    rest = fl[1:]
    pw = [powers.get(fm, 0) for fm in rest]
    far = [0] * (1 << len(rest))
    dsum = [0] * len(far)
    den = [1] * len(far)
    for bits in range(1, len(far)):
        low = bits & -bits
        i = low.bit_length() - 1
        prev = bits ^ low
        far[bits] = far[prev] | rest[i]
        dsum[bits] = dsum[prev] + pw[i]
        den[bits] = den[prev] * fact[pw[i]]
    return far, dsum, den


def _fold_step(
    n: int,
    state: dict[_Key, int],
    psis: dict[int, int],
    bnds: dict[int, int],
) -> dict[_Key, int]:
    """One multiplication step; only terms whose every vertex keeps
    ``decorations <= #flags - 3`` are kept (decorations never shrink and
    splitting a vertex only lowers the total slack, so the others integrate
    to zero inside a top-degree product)."""
    full = (1 << n) - 1
    fact = [factorial(i) for i in range(n + 1)]
    nxt: dict[_Key, int] = {}
    get = nxt.get
    for (splits, dec), c in state.items():
        flags, where, decsum, _ = _vertices(n, splits, dec)
        if bnds:
            # excess terms at both branches of an existing edge
            for k in splits:
                q = bnds.get(k)
                if q:
                    for fm in (full ^ k, k):
                        v = where[fm]
                        if decsum[v] + 1 <= len(flags[v]) - 3:
                            t = (splits, _bumped(dec, fm))
                            nxt[t] = get(t, 0) - c * q
            # refinements: move the flags of `bits` off vertex v to a new vertex
            powers = dict(dec)
            for v, fl in enumerate(flags):
                f = len(fl)
                if f < 4:
                    continue
                dv = decsum[v]
                far, dsum, _ = _subsets(fl, powers, fact)
                for bits in range(1, len(far)):
                    dm = dsum[bits]
                    size = bits.bit_count()
                    # halves of size+1 and f-size+1 flags keep their slack
                    if dm <= size - 2 and dv - dm <= f - size - 2:
                        key = full ^ far[bits]
                        q = bnds.get(key)
                        if q:
                            t = (splits | {key}, dec)
                            nxt[t] = get(t, 0) + c * q
        for i, q in psis.items():
            fm = 1 << (i - 1)
            v = where[fm]
            if decsum[v] + 1 <= len(flags[v]) - 3:
                t = (splits, _bumped(dec, fm))
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
    slack; only symbols acting there contribute, and each contribution is a
    product of per-vertex multinomials evaluated in place (no new strata).
    A stratum with any other slack profile raises ``RuntimeError``.
    """
    full = (1 << n) - 1
    fact = [factorial(i) for i in range(n + 1)]
    total = 0
    for (splits, dec), c in state.items():
        flags, where, decsum, denfac = _vertices(n, splits, dec)
        deficit = [len(fl) - 3 - d for fl, d in zip(flags, decsum)]
        star = next((v for v, d in enumerate(deficit) if d), None)
        if star is None or deficit[star] != 1 or any(
            d != 0 for v, d in enumerate(deficit) if v != star
        ):
            # total slack is 1 and the fold keeps every vertex's slack >= 0
            raise RuntimeError(
                f"internal error: stratum with vertex slacks {deficit} reached "
                "the final pairing; please report"
            )
        base = 1
        for v, fl in enumerate(flags):
            if v != star:
                base *= fact[len(fl) - 3] // denfac[v]
        fl = flags[star]
        f = len(fl)
        den_all = denfac[star]
        powers = dict(dec)
        acc = 0
        if bnds:
            # excess at edges meeting the slack vertex
            for k in splits:
                q = bnds.get(k)
                if q:
                    for fm in (full ^ k, k):
                        if where[fm] == star:
                            acc -= q * (fact[f - 3] // (den_all * (powers.get(fm, 0) + 1)))
            # refinements at the slack vertex
            if f >= 4:
                dv = decsum[star]
                far, dsum, den = _subsets(fl, powers, fact)
                for bits in range(1, len(far)):
                    dm = dsum[bits]
                    size = bits.bit_count()
                    if dm != size - 2 or dv - dm != f - size - 2:
                        continue
                    q = bnds.get(full ^ far[bits])
                    if q:
                        dn = den[bits]
                        acc += q * (fact[size - 2] // dn) * (fact[f - size - 2] // (den_all // dn))
        for i, q in psis.items():
            fm = 1 << (i - 1)
            if where[fm] == star:
                acc += q * (fact[f - 3] // (den_all * (powers.get(fm, 0) + 1)))
        total += c * base * acc
    return total


def product_number(n: int, factors: Sequence[DivisorExpression]) -> Fraction:
    """Intersection number of ``n - 3`` divisor expressions.

    Expands linearly, folding one factor at a time over the fundamental class;
    the result does not depend on the factor order.  Boundary-only factors are
    folded first so that crossing splits annihilate terms early; the last
    factor is paired directly without materialising the top-degree layer.
    """
    if len(factors) != n - 3:
        raise WrongDegree(f"need exactly n - 3 = {n - 3} factors, got {len(factors)}")
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
    others = [m for m in range(1, n + 1) if m not in (i, j, k)]
    terms: dict[DivisorSymbol, Fraction] = {}
    for size in range(1, len(others) + 1):
        for extra in itertools.combinations(others, size):
            sym = Boundary.of(n, frozenset((i,) + extra))
            terms[sym] = terms.get(sym, Fraction(0)) + 1
    return DivisorExpression(terms)
