"""The term-by-term decorated-strata calculus and the breadth-first fold,
kept as oracles of :func:`strata0.intersection.product_number`.

``multiply`` applies the genus-0 rules of :mod:`strata0.intersection` to
one divisor symbol at a time and keeps every term; ``integrate`` evaluates
a top-degree class vertex by vertex.  A class is a ``ChowElement``, a
Q-linear combination of ``DecoratedStratum`` keys, which are the fold's
``(splits, dec)`` keys (``_Key`` below) with ``n`` attached.

The fold (``_fold_step`` / ``_pair_final``) is the engine that
``product_number`` ran before it integrated one vertex at a time: it
multiplies the fundamental class by one factor after another over a global
state of decorated strata, reading each vertex's terms from the library's
:func:`strata0.intersection._moves`, and pairs the last factor in place.
The tests compare the library with both, the calculus with the fold, and
the calculus with the vertex-numbered one in ``test_intersection_oracle.py``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from strata0.intersection import (
    DivisorSymbol,
    Psi,
    WrongDegree,
    _check_psi,
    _flag_weights,
    _moves,
)
from strata0.strata import _laminar

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


def _bumped(dec: tuple[tuple, ...], flag) -> tuple[tuple, ...]:
    """A sorted decoration tuple with the power at ``flag`` raised by one."""
    d = dict(dec)
    d[flag] = d.get(flag, 0) + 1
    return tuple(sorted(d.items()))


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
        flags, _ = _vertices(n, splits, dec)
        powers = dict(dec)
        for fl in flags:
            pw = [powers.get(fm, 0) for fm in fl]
            raises, refinements = _moves(full, fl, pw, weights, bnds)
            for q, i in raises:
                t = (splits, _bumped(dec, fl[i]))
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
        fl = flags[deficit.index(1)]
        f = len(fl)
        powers = dict(dec)
        pw = [powers.get(fm, 0) for fm in fl]
        raises, refinements = _moves(full, fl, pw, weights, bnds)
        acc = 0
        for q, i in raises:
            acc += q * top // (pw[i] + 1)
        for q, _, bits in refinements:
            size = bits.bit_count()
            acc += q * top * fact[size - 2] * fact[f - size - 2] // fact[f - 3]
        total += c * acc
    return total


def fold_product(n: int, parts) -> int:
    """The fold over ``_scaled_parts`` of each factor, in the order given:
    the numerator of the product over the factors' denominators."""
    state: dict[_Key, int] = {(frozenset(), ()): 1}
    for _, psis, bnds in parts[:-1]:
        state = _fold_step(n, state, psis, bnds)
    _, psis, bnds = parts[-1]
    return _pair_final(n, state, psis, bnds)


class DegreeOverflow(ValueError):
    pass


@dataclass(frozen=True)
class DecoratedStratum:
    """A stable dual tree with cotangent decorations, keyed by its splits:
    ``(splits, dec)`` is the fold's ``_Key`` above, where the layout of both
    fields is documented.
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
