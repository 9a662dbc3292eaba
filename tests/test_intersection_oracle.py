"""The split-set stratum calculus against the vertex form it replaced.

The term-by-term calculus of ``term_calculus.py`` keys a decorated stratum by
its set of split masks and names each flag by its far mask, as the fold
there does, so ``multiply`` is one set operation per rule.  The
oracle below is the vertex-numbered calculus that did this before: explicit
vertices and edges, renumbered into a canonical vertex order after every
refinement, with boundary products found by walking flag subsets at every
vertex.  Each oracle stratum translates to a split-set key (an edge becomes
the split of its far side, a leg flag ``(v, 0, i)`` the mask of marking
``i``, a branch flag ``(v, 1, w)`` the far mask of the ``w`` side), and the
two calculi must agree term for term.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st
from term_calculus import (
    ChowElement,
    DecoratedStratum,
    _fold_step,
    _pair_final,
    fold_product,
    integrate,
    multiply,
    unit,
)

from strata0.intersection import (
    Boundary,
    DivisorExpression,
    Psi,
    _scaled_parts,
    product_number,
)

# ---------------------------------------------------------------------------
# oracle: the vertex form
# ---------------------------------------------------------------------------

# a flag is (vertex, kind, ident): kind 0 = marking leg, kind 1 = branch
# towards the neighbouring vertex `ident`
Flag = tuple[int, int, int]


def _unmask(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class VertexStratum:
    """A stable dual tree with cotangent decorations, in canonical form."""

    n: int
    verts: tuple[int, ...]  # marking bitmask per vertex
    edges: tuple[tuple[int, int], ...]
    dec: tuple[tuple[Flag, int], ...]  # sorted, positive powers only


class _Info:
    """Structural data for one stratum."""

    __slots__ = ("nbr", "far", "flags", "split_edge")

    def __init__(self, s: VertexStratum):
        nv = len(s.verts)
        nbr: list[list[int]] = [[] for _ in range(nv)]
        for u, v in s.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        self.nbr = nbr
        far: dict[tuple[int, int], int] = {}

        def far_mask(a: int, b: int) -> int:
            # markings on the b-side of edge {a,b}
            if (a, b) not in far:
                m = s.verts[b]
                for c in nbr[b]:
                    if c != a:
                        m |= far_mask(b, c)
                far[(a, b)] = m
            return far[(a, b)]

        for u, v in s.edges:
            far_mask(u, v)
            far_mask(v, u)
        self.far = far
        flags: list[list[tuple[int, int, int]]] = []
        for v in range(nv):
            fl = [(0, i, 1 << (i - 1)) for i in _unmask(s.verts[v])]
            fl += [(1, w, far[(v, w)]) for w in sorted(nbr[v])]
            flags.append(fl)
        self.flags = flags
        full = (1 << s.n) - 1
        self.split_edge: dict[int, tuple[int, int]] = {}
        for u, v in s.edges:
            m = far[(u, v)]
            key = m if m & 1 else full ^ m
            self.split_edge[key] = (u, v)


@lru_cache(maxsize=4096)
def _info(s: VertexStratum) -> _Info:
    return _Info(s)


def _canonical(n: int, verts: Sequence[int], edges: Iterable[tuple[int, int]],
               dec: Mapping[Flag, int]) -> VertexStratum:
    """Renumber vertices deterministically: root at the vertex holding marking
    1, children ordered by the least marking beyond them."""
    nv = len(verts)
    if nv == 1:
        dd = tuple(sorted((f, p) for f, p in dec.items() if p))
        return VertexStratum(n, (verts[0],), (), dd)
    nbr: list[list[int]] = [[] for _ in range(nv)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    root = next(j for j in range(nv) if verts[j] & 1)

    submin: dict[tuple[int, int], int] = {}

    def min_beyond(parent: int, child: int) -> int:
        key = (parent, child)
        got = submin.get(key)
        if got is None:
            best = (verts[child] & -verts[child]) if verts[child] else 1 << n
            for g in nbr[child]:
                if g != parent:
                    m = min_beyond(child, g)
                    if m < best:
                        best = m
            submin[key] = got = best
        return got

    order: list[int] = []
    stack: list[tuple[int, int]] = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        order.append(v)
        kids = sorted((c for c in nbr[v] if c != parent),
                      key=lambda c: min_beyond(v, c), reverse=True)
        for c in kids:
            stack.append((c, v))
    perm = [0] * nv
    for new, old in enumerate(order):
        perm[old] = new
    new_verts = tuple(verts[old] for old in order)
    new_edges = tuple(sorted((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                             for u, v in edges))
    new_dec = []
    for (v, kind, ident), p in dec.items():
        if p:
            new_dec.append(((perm[v], kind, perm[ident] if kind == 1 else ident), p))
    return VertexStratum(n, new_verts, new_edges, tuple(sorted(new_dec)))


def _bump(s: VertexStratum, flag: Flag) -> VertexStratum:
    d = dict(s.dec)
    d[flag] = d.get(flag, 0) + 1
    return VertexStratum(s.n, s.verts, s.edges, tuple(sorted(d.items())))


def _psi_target(s: VertexStratum, i: int) -> VertexStratum:
    bit = 1 << (i - 1)
    v = next(j for j, m in enumerate(s.verts) if m & bit)
    return _bump(s, (v, 0, i))


def _refine(s: VertexStratum, v: int, moved: Sequence[tuple[int, int, int]]) -> VertexStratum:
    """Split vertex ``v``: flags in ``moved`` migrate to a new vertex."""
    nv = len(s.verts)
    w = nv
    moved_marks = 0
    moved_nbrs = set()
    for kind, ident, mmask in moved:
        if kind == 0:
            moved_marks |= mmask
        else:
            moved_nbrs.add(ident)
    verts = list(s.verts)
    verts[v] &= ~moved_marks
    verts.append(moved_marks)
    edges = []
    for a, b in s.edges:
        if a == v and b in moved_nbrs:
            edges.append((w, b))
        elif b == v and a in moved_nbrs:
            edges.append((a, w))
        else:
            edges.append((a, b))
    edges.append((v, w))
    dec: dict[Flag, int] = {}
    for (a, kind, ident), p in s.dec:
        if a == v and kind == 0 and (1 << (ident - 1)) & moved_marks:
            dec[(w, 0, ident)] = p
        elif a == v and kind == 1 and ident in moved_nbrs:
            dec[(w, 1, ident)] = p
        elif kind == 1 and ident == v and a in moved_nbrs:
            dec[(a, 1, w)] = p
        else:
            dec[(a, kind, ident)] = p
    return _canonical(s.n, verts, edges, dec)


@lru_cache(maxsize=4096)
def _boundary_products(s: VertexStratum) -> dict[int, tuple[tuple[VertexStratum, int], ...]]:
    """All nonzero products of this stratum with boundary divisors, keyed by
    the split mask; splits not present as keys annihilate the stratum."""
    info = _info(s)
    full = (1 << s.n) - 1
    out: dict[int, tuple[tuple[VertexStratum, int], ...]] = {}
    # excess terms: the split of an existing edge
    for key, (u, v) in info.split_edge.items():
        out[key] = ((_bump(s, (u, 1, v)), -1), (_bump(s, (v, 1, u)), -1))
    # refinements at each vertex
    for v, flags in enumerate(info.flags):
        f = len(flags)
        if f < 4:
            continue
        rest = flags[1:]
        nrest = f - 1
        for bits in range(1, 1 << nrest):
            size = bits.bit_count()
            if size < 2 or size > f - 2:
                continue
            moved = [rest[t] for t in range(nrest) if bits >> t & 1]
            mmask = 0
            for _, _, fm in moved:
                mmask |= fm
            key = mmask if mmask & 1 else full ^ mmask
            assert key not in out  # splits name refinements uniquely on a tree
            out[key] = ((_refine(s, v, moved), 1),)
    return out


def _stratum_integral(s: VertexStratum) -> int:
    info = _info(s)
    per_vertex = [0] * len(s.verts)
    denom = [1] * len(s.verts)
    for (v, _, _), p in s.dec:
        per_vertex[v] += p
        denom[v] *= factorial(p)
    val = 1
    for v, flags in enumerate(info.flags):
        if per_vertex[v] != len(flags) - 3:
            return 0
        val *= factorial(len(flags) - 3) // denom[v]
    return val


def oracle_unit(n):
    return {VertexStratum(n, ((1 << n) - 1,), (), ()): F(1)}


def oracle_multiply(terms, sym):
    out = {}
    for s, c in terms.items():
        if isinstance(sym, Psi):
            products = ((_psi_target(s, sym.i), 1),)
        else:
            products = _boundary_products(s).get(sym.key, ())
        for t, sign in products:
            out[t] = out.get(t, F(0)) + sign * c
    return {t: c for t, c in out.items() if c}


def oracle_integrate(terms):
    return sum((c * _stratum_integral(s) for s, c in terms.items()), F(0))


def all_symbols(n):
    syms = [Psi(i) for i in range(1, n + 1)]
    for size in range(1, n - 2):
        for rest in itertools.combinations(range(2, n + 1), size):
            syms.append(Boundary.of(n, {1, *rest}))
    return syms


def translate(s: VertexStratum) -> DecoratedStratum:
    """The split-set key of a vertex-form stratum."""
    info = _info(s)
    full = (1 << s.n) - 1
    dec = tuple(sorted(
        (1 << (ident - 1) if kind == 0 else info.far[(v, ident)], p)
        for (v, kind, ident), p in s.dec
    ))
    return DecoratedStratum(s.n, frozenset(info.split_edge), dec)


def assert_same_terms(elem, terms):
    translated = {translate(s): c for s, c in terms.items()}
    assert len(translated) == len(terms)
    assert elem.terms == translated


# ---------------------------------------------------------------------------
# the split-set calculus against the oracle
# ---------------------------------------------------------------------------


@st.composite
def symbol_chains(draw):
    # a few splits per chain, mixed with psi classes, so that splits repeat,
    # refine one another and meet decorations at either branch of an edge
    n = draw(st.integers(4, 8))
    bnds = [s for s in all_symbols(n) if isinstance(s, Boundary)]
    pool = draw(st.lists(st.sampled_from(bnds), min_size=1, max_size=4, unique=True))
    syms = pool + [Psi(i) for i in range(1, n + 1)]
    return n, draw(st.lists(st.sampled_from(syms), min_size=n - 3, max_size=n - 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symbol_chains())
def test_multiply_matches_vertex_form_term_for_term(case):
    n, chain = case
    elem, terms = unit(n), oracle_unit(n)
    assert_same_terms(elem, terms)
    for sym in chain:
        elem, terms = multiply(elem, sym), oracle_multiply(terms, sym)
        assert_same_terms(elem, terms)
    assert integrate(elem) == oracle_integrate(terms)


def expand_product(n, factors):
    """Oracle: multiply every term of every factor into the class, then integrate."""
    terms = oracle_unit(n)
    for expr in factors:
        nxt = {}
        for sym, c in expr.items():
            for t, v in oracle_multiply(terms, sym).items():
                nxt[t] = nxt.get(t, 0) + c * v
        terms = {t: v for t, v in nxt.items() if v}
    return oracle_integrate(terms)


@st.composite
def expression_products(draw):
    # a few splits per example, each factor drawing its boundary terms from
    # them, so that splits repeat and excess terms meet psi decorations at
    # either branch of an edge
    n = draw(st.integers(5, 7))
    bnds = [s for s in all_symbols(n) if isinstance(s, Boundary)]
    pool = draw(st.lists(st.sampled_from(bnds), min_size=1, max_size=3, unique=True))
    syms = pool + [Psi(i) for i in range(1, n + 1)]
    coeff = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    factor = st.dictionaries(st.sampled_from(syms), coeff, min_size=1, max_size=3)
    factors = draw(st.lists(factor, min_size=n - 3, max_size=n - 3))
    return n, [DivisorExpression(f) for f in factors]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_products())
def test_fold_matches_multiply_integrate(case):
    n, factors = case
    assert product_number(n, factors) == expand_product(n, factors)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_products())
def test_final_pairing_matches_last_fold_step(case):
    # the last factor's moves, evaluated in place by _pair_final, integrate
    # to what _fold_step makes of the same factor as new strata; each factor
    # takes a turn as the last one
    n, factors = case
    parts = [_scaled_parts(n, expr) for expr in factors]
    for last in range(len(parts)):
        state = {(frozenset(), ()): 1}
        for _, psis, bnds in parts[:last] + parts[last + 1 :]:
            state = _fold_step(n, state, psis, bnds)
        _, psis, bnds = parts[last]
        top = _fold_step(n, state, psis, bnds)
        elem = ChowElement(n, {DecoratedStratum(n, s, dec): c for (s, dec), c in top.items()})
        assert _pair_final(n, state, psis, bnds) == integrate(elem)


@st.composite
def repeated_kind_products(draw):
    # fewer kinds than factors, so some kind repeats; each kind draws its
    # boundary terms from a few splits, as in expression_products
    n = draw(st.integers(5, 8))
    bnds = [s for s in all_symbols(n) if isinstance(s, Boundary)]
    pool = draw(st.lists(st.sampled_from(bnds), min_size=1, max_size=3, unique=True))
    syms = pool + [Psi(i) for i in range(1, n + 1)]
    coeff = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    kind = st.dictionaries(st.sampled_from(syms), coeff, min_size=1, max_size=3)
    kinds = draw(st.lists(kind, min_size=1, max_size=min(3, n - 4)))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=n - 3, max_size=n - 3))
    return n, [DivisorExpression(k) for k in kinds], picks


@settings(max_examples=100, deadline=None, derandomize=True)
@given(repeated_kind_products())
def test_grouped_kinds_match_fold_in_every_order(case):
    # product_number groups equal factors into kinds; the value must be the
    # fold's and the expansion's, and must not depend on where the repeats
    # sit or on whether they are one object or equal copies
    n, kinds, picks = case
    factors = [kinds[i] for i in picks]
    parts = [_scaled_parts(n, expr) for expr in factors]
    den = prod(d for d, _, _ in parts)
    value = product_number(n, factors)
    assert value == F(fold_product(n, parts), den) == expand_product(n, factors)
    for order in set(itertools.permutations(picks)):
        assert product_number(n, [DivisorExpression(kinds[i].terms) for i in order]) == value


def test_matches_multiply_chain():
    # the folded fast path agrees with term-by-term multiply + integrate,
    # and both with the vertex form
    rng = random.Random(3)
    n = 6
    syms = all_symbols(n)
    for _ in range(40):
        chosen = [rng.choice(syms) for _ in range(n - 3)]
        elem, terms = unit(n), oracle_unit(n)
        for sym in chosen:
            elem, terms = multiply(elem, sym), oracle_multiply(terms, sym)
        direct = integrate(elem)
        assert direct == oracle_integrate(terms), chosen
        folded = product_number(n, [DivisorExpression({s: F(1)}) for s in chosen])
        assert folded == direct, chosen

