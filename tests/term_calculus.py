"""The term-by-term decorated-strata calculus, kept as the fold's oracle.

``multiply`` applies the genus-0 rules of :mod:`strata0.intersection` to
one divisor symbol at a time and keeps every term; ``integrate`` evaluates
a top-degree class vertex by vertex.  A class is a ``ChowElement``, a
Q-linear combination of ``DecoratedStratum`` keys, which are the fold's
``(splits, dec)`` keys with ``n`` attached.  The library answers every
intersection number through :func:`strata0.intersection.product_number`;
the tests compare it with this calculus, and this calculus with the
vertex-numbered one in ``test_intersection_oracle.py``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from strata0.intersection import DivisorSymbol, Psi, WrongDegree, _bumped, _check_psi, _vertices


class DegreeOverflow(ValueError):
    pass


@dataclass(frozen=True)
class DecoratedStratum:
    """A stable dual tree with cotangent decorations, keyed by its splits:
    ``(splits, dec)`` is the fold's ``_Key`` in :mod:`strata0.intersection`,
    where the layout of both fields is documented.
    """

    n: int
    splits: frozenset[int]
    dec: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.splits) + sum(p for _, p in self.dec)


@dataclass
class ChowElement:
    """Q-linear combination of decorated strata of one common degree."""

    n: int
    terms: dict[DecoratedStratum, Fraction]

    @property
    def degree(self) -> int:
        for s in self.terms:
            return s.degree
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ChowElement) and self.n == other.n and self.terms == other.terms


def unit(n: int) -> ChowElement:
    """The fundamental class: one smooth vertex, no decorations."""
    if n < 3:
        raise ValueError("need n >= 3")
    return ChowElement(n, {DecoratedStratum(n, frozenset(), ()): Fraction(1)})


def multiply(elem: ChowElement, sym: DivisorSymbol) -> ChowElement:
    """Multiply a class by one divisor symbol; the degree rises by one."""
    n = elem.n
    if elem.degree >= n - 3:
        raise DegreeOverflow(f"degree {elem.degree} is already top for n = {n}")
    full = (1 << n) - 1
    out: dict[DecoratedStratum, Fraction] = {}

    def add(splits: frozenset[int], dec: tuple[tuple[int, int], ...], c: Fraction) -> None:
        t = DecoratedStratum(n, splits, dec)
        out[t] = out.get(t, 0) + c

    if isinstance(sym, Psi):
        _check_psi(n, sym.i)
        leg = 1 << (sym.i - 1)
        for s, c in elem.terms.items():
            add(s.splits, _bumped(s.dec, leg), c)
    else:
        if sym.n != n:
            raise ValueError("symbol and class live on different moduli spaces")
        k = sym.key
        for s, c in elem.terms.items():
            if k in s.splits:
                # excess term at both branches of the existing edge
                for fm in (full ^ k, k):
                    add(s.splits, _bumped(s.dec, fm), -c)
            elif all((k & l) in (k, l) or k | l == full for l in s.splits):
                # compatible with every split (nested, or sides covering all
                # markings): refine the stratum by one edge
                add(s.splits | {k}, s.dec, c)
            # a crossing split kills the term
    return ChowElement(n, {t: c for t, c in out.items() if c})


def integrate(elem: ChowElement) -> Fraction:
    """Degree of a top-dimensional class against the fundamental cycle."""
    n = elem.n
    if elem.degree != n - 3 and elem.terms:
        raise WrongDegree(f"degree {elem.degree} != n - 3 = {n - 3}")
    total = Fraction(0)
    for s, c in elem.terms.items():
        flags, decsum = _vertices(n, s.splits, s.dec)
        powers = dict(s.dec)
        val = c
        for fl, d in zip(flags, decsum):
            if d != len(fl) - 3:
                break
            # the vertex's multinomial (f_v - 3)! / prod_{flags at v} p!
            for fm in fl:
                d_fm = powers.get(fm, 0)
                val *= comb(d, d_fm)
                d -= d_fm
        else:
            total += val
    return total
