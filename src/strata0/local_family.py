"""Exact rational-point verification of the local model of the universal curve.

Near a stratum with dual tree T the family of curves is cut out, inside a
product of projective lines, by one equation per node:

    (z_j - b_{jj'}) (z_{j'} - b_{j'j}) = t_a,        a = {j, j'},

where ``b_{jj'}`` is the coordinate of the node on the component ``j`` and
``t_a`` the smoothing parameter.  Each component carries a candidate
differential

    Phi_j = prod_i (z_j - a_{ji})^{k_i} (dz_j)^d

(the factor of a marked point sitting at infinity in that chart is omitted),
and the monomials ``t^beta_j`` rescale these to a single holomorphic family:
the ratio of any two rescaled candidates is a constant of the chart data,

    t^{beta_j} Phi_j = f_{jk} * t^{beta_k} Phi_k.

All verification here is by exact evaluation at random rational points of the
curve, with retry on degenerate draws: an identity of rational functions that
holds at a generic exact sample holds identically.

Inside the module a point has one format, a reduced integer pair ``(p, q)``
with ``q > 0`` (``INF`` is ``(1, 0)``).  A chart's node coordinates and
parameters are read as pairs once, into one propagation walk per start
component that carries a point across the nodes, one gcd per node.  The
walk carries the marked sections once per chart into one table per
component (the sections there, its special points and its finite
markings).  The chart owns the one refusal of :func:`verify_ratio_identity`,
read once: a zero node parameter (a pinched fiber), or a degenerate chart
whose node parameters put a marking on a node, both as :class:`StrataError`.
``Phi_j`` and ``dz_j/dz_k`` are unreduced integer pairs, with no gcd per
factor: at ``z = p/q`` a finite marking ``a = r/s`` contributes
``(p s - r q) / (q s)`` raised to ``k_i``, and the same product at a node
coordinate gives the ratio constant of adjacent components,
``f_{jk} = (-1)^d Phi_j^J(b_{jk}) / Phi_k^K(b_{kj})``.  ``Fraction`` and
``INF`` appear only at the public API: the chart's fields, the points that
:func:`sample_curve_point` and :func:`marked_point_coords` return and
:func:`evaluate_phi` and :func:`section_in_frame` take, and the values of
those two and :func:`ratio_constant`.  :func:`verify_ratio_identity` samples
on pairs and decides each sample by one cross-multiplication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Sequence

from strata0.strata import (
    Signature,
    StableTree,
    StrataError,
    _check_markings,
    _check_vertices,
    _k_sum,
    _norm_edge,
    exponent_vector,
)

__all__ = [
    "DenominatorVanishes",
    "PoleHit",
    "BadBlocks",
    "INF",
    "LocalChart",
    "DEFAULT_SEED",
    "make_sampler",
    "build_chart",
    "build_codim2_chart",
    "marked_point_coords",
    "sample_curve_point",
    "evaluate_phi",
    "beta_monomial",
    "ratio_constant",
    "section_in_frame",
    "verify_ratio_identity",
    "classify_codim2_case",
]


class DenominatorVanishes(ArithmeticError):
    pass


class PoleHit(ArithmeticError):
    pass


class BadBlocks(ValueError):
    pass


class _Infinity:
    """The point at infinity of the projective line over Q."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()
Coord = Fraction | _Infinity
Pair = tuple[int, int]  # p/q in lowest terms with q > 0, or _INF_PAIR
Row = tuple[int, int, int, int]  # (i, r, s, k_i) of a finite marking a_ji = r/s
Frame = tuple[frozenset[Pair], tuple[Row, ...], tuple[Pair, ...]]
Step = tuple[int, int, int, int, int, int, int, int]  # (near, far, r, s, a, c, u, v)

_INF_PAIR = (1, 0)

DEFAULT_SEED = 20237

_BOUND = 10 ** 6
_SAMPLE_DRAWS = 100  # draws the sampling loop makes before it gives up


def make_sampler(seed: int | None = None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


def _rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_BOUND, _BOUND), rng.randint(1, _BOUND))


def _pair(x: Coord) -> Pair:
    return _INF_PAIR if x is INF else (x.numerator, x.denominator)


def _coord(z: Pair) -> Coord:
    return Fraction(*z) if z[1] else INF


@dataclass
class LocalChart:
    """Coordinates for one local family over a stratum.

    ``mark_coords[j][i]`` is the coordinate ``a_{ji}`` of marking ``i`` on its
    home component ``j`` (possibly ``INF``); ``node_coords[j][j']`` is the
    finite coordinate ``b_{jj'}``; ``node_params`` holds one rational ``t``
    per edge (zero allowed: that node stays pinched).

    The walk steps, the frames and the refusal (a zero node parameter or a
    degenerate chart) are derived from these six fields on first use, and are
    not fields themselves.  The tree must carry the signature's ``n``
    markings.
    """

    sig: Signature
    tree: StableTree
    node_params: dict[tuple[int, int], Fraction]
    mark_coords: dict[int, dict[int, Coord]]
    node_coords: dict[int, dict[int, Fraction]]
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_markings(self.tree, self.sig)
        edges = set(self.tree.edges)
        if set(self.node_params) != edges:
            raise StrataError("need exactly one node parameter per edge")
        for j in range(self.tree.num_vertices):
            if j not in self.node_coords or j not in self.mark_coords:
                raise StrataError(f"vertex {j}: need an entry in node_coords and in mark_coords")
            special: list[Coord] = list(self.mark_coords[j].values())
            nodes = self.node_coords[j]
            if set(nodes) != set(self.tree.neighbors(j)):
                raise StrataError(f"vertex {j}: need one node coordinate per neighbor")
            if set(self.mark_coords[j]) != set(self.tree.vertex_marks[j]):
                raise StrataError(f"vertex {j}: need one coordinate per marking")
            special += list(nodes.values())
            finite = [c for c in special if c is not INF]
            if len(set(finite)) != len(finite) or special.count(INF) > 1:
                raise StrataError(f"vertex {j}: special points must be pairwise distinct")

    def t(self, u: int, v: int) -> Fraction:
        return self.node_params[(u, v) if u < v else (v, u)]

    def home_vertex(self, i: int) -> int:
        for j, marks in enumerate(self.tree.vertex_marks):
            if i in marks:
                return j
        raise StrataError(f"marking {i} not in tree")

    def path(self, j: int, k: int) -> list[int]:
        """Vertices of the unique path from ``j`` to ``k`` (inclusive)."""
        return self.tree._path(j, k)

    @cached_property
    def _walks(self) -> tuple[tuple[Step, ...], ...]:
        """Per start component, the steps ``(near, far, r, s, a, c, u, v)`` of
        a search from it over the node coordinates (keyed by neighbor), for
        ``b_near = r/s``, ``t = a/c`` and ``b_far = u/v`` as reduced pairs."""
        walks = []
        for start in range(self.tree.num_vertices):
            steps, stack = [], [(start, -1)]
            while stack:
                near, back = stack.pop()
                for far, b_near in self.node_coords[near].items():
                    if far != back:
                        stack.append((far, near))
                        steps.append((near, far, *_pair(b_near), *_pair(self.t(near, far)),
                                      *_pair(self.node_coords[far][near])))
            walks.append(tuple(steps))
        return tuple(walks)

    @cached_property
    def _frames(self) -> tuple[Frame, ...]:
        """Per component ``j``: its special points (the sections there, its node
        coordinates and ``INF``); its finite markings ``(i, r, s, k_i)`` with
        ``a_{ji} = r/s``, by ``i``; and the sections there, marking ``i`` at
        index ``i - 1``.  A section on a pinched node raises in :func:`_spread`."""
        homes = enumerate(map(self.home_vertex, range(1, self.sig.n + 1)), start=1)
        sections = [_spread(self, j, _pair(self.mark_coords[j][i])) for i, j in homes]
        frames = []
        for j, column in enumerate(zip(*sections)):
            rows = tuple((i, r, s, k) for i, ((r, s), k)
                         in enumerate(zip(column, self.sig.kappa), start=1) if s)
            nodes = [(r, s) for near, _, r, s, *_ in self._walks[j] if near == j]
            frames.append((frozenset([_INF_PAIR, *column, *nodes]), rows, column))
        return tuple(frames)

    @cached_property
    def _refusal(self) -> str | None:
        """The refusal, or ``None``: a zero node parameter, before the frames meet
        it, else the least marking ``i``, then component ``v``, where its
        section is ``INF`` off its home."""
        if 0 in self.node_params.values():
            return "family verification needs nonzero node parameters"
        bad = min(((i, v) for v, (_, _, column) in enumerate(self._frames)
                   for i, (_, q) in enumerate(column, start=1)
                   if not q and i not in self.mark_coords[v]), default=None)
        return bad and ("degenerate chart: the node parameters put marking {} "
                        "on the node toward component {}".format(*bad))


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------


def _fresh(rng: random.Random, used: set[Fraction]) -> Fraction:
    for _ in range(200):
        x = _rand_rational(rng)
        if x not in used:
            used.add(x)
            return x
    raise DenominatorVanishes("could not draw a fresh coordinate")


def build_chart(
    sig: Signature,
    tree: StableTree,
    node_params: Mapping[tuple[int, int], Fraction] | None = None,
    seed: int | None = None,
    pin: bool = True,
) -> LocalChart:
    """Random chart for a tree, with deterministic draws from ``seed``.

    With ``pin=True`` each component uses its Moebius freedom the usual way:
    its first node goes to 0, a second node to 1, and its last markings fill
    the remaining slots among {infinity, 1, 0}.  Unpinned coordinates are
    random rationals; node parameters default to random nonzero rationals.
    A given node parameter is keyed by its edge in either orientation; a key
    that is not an edge of ``tree``, or an edge given twice, raises
    :class:`StrataError`.
    """
    given: dict[tuple[int, int], Fraction] = {}
    for (u, v), t in (node_params or {}).items():
        edge = _norm_edge(u, v)
        if not tree.has_edge(u, v):
            raise StrataError(f"node parameter t[{u}-{v}]: no edge between vertices {u} and {v}")
        if edge in given:
            raise StrataError(f"node parameter of edge {edge[0]}-{edge[1]} given twice")
        given[edge] = Fraction(t)
    rng = make_sampler(seed)
    params: dict[tuple[int, int], Fraction] = {}
    for u, v in tree.edges:
        if (u, v) in given:
            params[(u, v)] = given[(u, v)]
        else:
            t = _rand_rational(rng)
            while t == 0:
                t = _rand_rational(rng)
            params[(u, v)] = t
    mark_coords: dict[int, dict[int, Coord]] = {}
    node_coords: dict[int, dict[int, Fraction]] = {}
    for j in range(tree.num_vertices):
        nbrs = sorted(tree.neighbors(j))
        marks = sorted(tree.vertex_marks[j])
        used: set[Fraction] = set()
        ncoords: dict[int, Fraction] = {}
        mcoords: dict[int, Coord] = {}
        if pin:
            node_pins = [Fraction(0), Fraction(1)][: len(nbrs)]
            for w, val in zip(nbrs, node_pins):
                ncoords[w] = val
                used.add(val)
            leftover = [INF, Fraction(1), Fraction(0)][: max(0, 3 - len(node_pins))]
            # assign to the last markings: ..., third-last -> 0, second-last -> 1, last -> INF
            for val, i in zip(leftover, reversed(marks)):
                mcoords[i] = val
                if val is not INF:
                    used.add(val)
        for w in nbrs:
            if w not in ncoords:
                ncoords[w] = _fresh(rng, used)
        for i in marks:
            if i not in mcoords:
                mcoords[i] = _fresh(rng, used)
        mark_coords[j] = mcoords
        node_coords[j] = ncoords
    return LocalChart(sig, tree, params, mark_coords, node_coords, seed=seed)


def build_codim2_chart(
    sig: Signature,
    blocks: Sequence[Iterable[int]],
    t1: Fraction | int | None = None,
    t2: Fraction | int | None = None,
    seed: int | None = None,
    pin: bool = True,
) -> LocalChart:
    """Chart over a codimension-2 chain: a center component carrying ``I0``
    meeting two components carrying ``I1`` and ``I2``."""
    i0, i1, i2 = (frozenset(b) for b in blocks)
    _check_chain_blocks(sig, i0, i1, i2)
    tree = StableTree((i0, i1, i2), ((0, 1), (0, 2)))
    params = {}
    if t1 is not None:
        params[(0, 1)] = Fraction(t1)
    if t2 is not None:
        params[(0, 2)] = Fraction(t2)
    return build_chart(sig, tree, params or None, seed=seed, pin=pin)


# ---------------------------------------------------------------------------
# sections and marked points
# ---------------------------------------------------------------------------


def _spread(chart: LocalChart, start: int, x: Pair) -> tuple[Pair, ...]:
    """Reduced pairs on every component of the point at the pair ``x`` on
    component ``start``, along the chart's walk from ``start``: at ``x = p/q``
    a step gives ``b_far + t / (x - b_near) = (u c D + v a s q) / (v c D)``,
    ``D = p s - r q``, divided by one gcd with the sign of ``D``; ``INF``
    crosses to ``b_far``, and ``b_near`` to ``INF`` unless ``t = 0``, where
    it raises :class:`DenominatorVanishes`."""
    z = [x] * chart.tree.num_vertices
    for near, far, r, s, a, c, u, v in chart._walks[start]:
        p, q = z[near]
        diff = p * s - r * q
        if not q:
            z[far] = u, v
        elif diff:
            num, den = u * c * diff + v * a * s * q, v * c * diff
            g = gcd(num, den) if diff > 0 else -gcd(num, den)
            z[far] = num // g, den // g
        elif a:
            z[far] = _INF_PAIR
        else:
            raise DenominatorVanishes("point sits exactly on a fully degenerate node")
    return tuple(z)


def marked_point_coords(chart: LocalChart, i: int) -> tuple[Coord, ...]:
    """Full coordinate tuple of the section of marking ``i``.

    The home component stores the coordinate directly; every other component
    sees it through the node relations, so with all node parameters zero it
    collapses onto node coordinates away from home.  Read off the chart's
    frames, which raise if any section meets a pinched node.
    """
    chart.home_vertex(i)  # a marking outside 1..n raises here
    return tuple(_coord(frame[2][i - 1]) for frame in chart._frames)


def _sample(chart: LocalChart, rng: random.Random, base: int,
            check: Sequence[int]) -> tuple[Pair, ...]:
    """The one sampling loop: a draw on ``base``, carried by :func:`_spread`,
    is accepted when it misses the special points of each component in
    ``check``, and redrawn otherwise, up to ``_SAMPLE_DRAWS`` draws."""
    frames = chart._frames
    for _ in range(_SAMPLE_DRAWS):
        try:
            z = _spread(chart, base, _pair(_rand_rational(rng)))
        except DenominatorVanishes:
            continue
        if all(z[j] not in frames[j][0] for j in check):
            return z
    raise DenominatorVanishes("no valid sample point found; chart too degenerate")


def sample_curve_point(
    chart: LocalChart,
    rng: random.Random,
    base: int = 0,
    check_vertices: Iterable[int] | None = None,
) -> tuple[Coord, ...]:
    """A random rational point of the fiber, satisfying every node equation.

    The base coordinate is drawn at random and pushed through the node
    relations as reduced pairs; draws landing on a special point (a pole of
    some ``Phi_j``, a node or ``INF``) are redrawn, up to ``_SAMPLE_DRAWS``
    draws in all, and the accepted point is returned as ``Fraction``
    coordinates.  On a pinched fiber the coordinates away from the base
    collapse to node values, so genericity can only be demanded on the
    components listed in ``check_vertices`` (default: all).
    """
    check = range(chart.tree.num_vertices) if check_vertices is None else list(check_vertices)
    _check_vertices(chart.tree, base, *([] if check_vertices is None else check))
    return tuple(map(_coord, _sample(chart, rng, base, check)))


def _phi_pair(j: int, marks: Sequence[Row], z: Pair) -> tuple[int, int]:
    """``Phi_j`` at the pair ``z`` as an integer pair ``(num, den)``, not reduced
    and with a denominator of either sign, over the frame rows ``marks``."""
    p, q = z
    if not q:
        raise PoleHit("sample point at infinity; use a finite draw")
    num = den = 1
    for i, r, s, k in marks:
        diff = p * s - r * q  # z - a = diff / (q s)
        if diff == 0:
            raise PoleHit(f"sample coordinate equals a_({j},{i})")
        if k >= 0:
            num *= diff ** k
            den *= (q * s) ** k
        else:
            num *= (q * s) ** -k
            den *= diff ** -k
    return num, den


def evaluate_phi(chart: LocalChart, j: int, point: Sequence[Coord]) -> Fraction:
    """Evaluate ``Phi_j`` at a curve point, in the ``j``-th coordinate frame:
    the coefficient of ``(dz_j)^d`` of the candidate differential there.

    Factors with the marked point at infinity in this chart are omitted; a
    sample coordinate equal to some ``a_{ji}`` is a pole or zero of the
    product and raises :class:`PoleHit`.
    """
    _check_vertices(chart.tree, j)
    return Fraction(*_phi_pair(j, chart._frames[j][1], _pair(point[j])))


def beta_monomial(chart: LocalChart, j: int) -> Fraction:
    """Value of ``t^beta_j`` at the chart's node parameters (with ``0^0 = 1``)."""
    beta = exponent_vector(chart.tree, j, chart.sig)
    val = Fraction(1)
    for edge, p in beta.entries:
        val *= chart.node_params[edge] ** p
    return val


def _adjacent_ratio_constant(chart: LocalChart, j: int, k: int) -> tuple[int, int]:
    """``f_{jk}`` for adjacent components, as an integer pair:

        f_{jk} = (-1)^d Phi_j^J(b_{jk}) / Phi_k^K(b_{kj}),

    where ``Phi_j^J(z) = prod (z - a_{ji})^{k_i}`` over the markings ``J`` on
    the ``j`` side of the node and ``Phi_k^K`` is the same product over the
    other side ``K``, both restricted to the markings ``F`` finite in both
    frames.  This is the quotient ``prod_J (a_{ji} - b_{jk})^{k_i} /
    prod_K (a_{ki} - b_{kj})^{k_i}`` times ``(-1)^(d + sum_F k_i)``: turning
    each ``a - b`` into ``b - a`` costs ``(-1)^(sum_J k_i - sum_K k_i)``,
    whose parity is that of ``sum_F k_i``, so the signs cancel to ``(-1)^d``.
    Swapping ``j`` and ``k`` inverts the quotient and keeps the sign, so this
    one form serves both orders, with no orientation of the node.

    A marking at ``b_{jk}`` in frame ``j`` sits at INF in frame ``k`` (or
    the chart's frames refuse it on a pinched node), so the restriction
    to ``F`` keeps every factor nonzero.
    """
    on_j = chart.tree.far_marks(k, j)  # NoSuchEdge unless adjacent
    (_, rows_j, column_j), (_, rows_k, column_k) = chart._frames[j], chart._frames[k]
    marks_j = [row for row in rows_j if row[0] in on_j and column_k[row[0] - 1][1]]
    marks_k = [row for row in rows_k if row[0] not in on_j and column_j[row[0] - 1][1]]
    _, _, r, s, _, _, u, v = next(st for st in chart._walks[j] if st[1] == k)  # b_jk, b_kj
    num_j, den_j = _phi_pair(j, marks_j, (r, s))
    num_k, den_k = _phi_pair(k, marks_k, (u, v))
    return (-1) ** chart.sig.d * num_j * den_k, den_j * num_k


def ratio_constant(chart: LocalChart, j: int, k: int) -> Fraction:
    """The constant ``f_{jk}`` with ``t^{beta_j} Phi_j = f_{jk} t^{beta_k} Phi_k``.

    The constants of the adjacent pairs along the path between the
    components compose, as integer pairs reduced to one ``Fraction``.
    """
    _check_vertices(chart.tree, j, k)
    path = chart.path(j, k)
    num = den = 1
    for a, b in zip(path, path[1:]):
        step_num, step_den = _adjacent_ratio_constant(chart, a, b)
        num, den = num * step_num, den * step_den
    return Fraction(num, den)


def _path_steps(chart: LocalChart, j: int, k: int) -> list[Step]:
    """The steps of the walk from ``k`` onto the path from ``j``, in the order
    of that path: a step ``a -> b`` toward ``k`` is ``(b, a, r, s, t_num,
    t_den, ...)`` with ``b_{ba} = r/s`` and ``t_ab = t_num / t_den``."""
    on_path = set(chart.path(j, k)[:-1])
    return [step for step in reversed(chart._walks[k]) if step[1] in on_path]


def _jacobian_pair(steps: Sequence[Step], z: Sequence[Pair]) -> tuple[int, int]:
    """``dz_j / dz_k`` at the point ``z`` of pairs as an integer pair, a product
    of ``-t / (z_b - b_{ba})^2`` over the :func:`_path_steps` from ``j`` to ``k``."""
    num = den = 1
    for b, _, r, s, t_num, t_den, _, _ in steps:
        p, q = z[b]
        if not q:
            raise PoleHit("frame change through a point at infinity")
        diff = p * s - r * q  # z_b - b_{ba} = diff / (q s)
        if diff == 0:
            raise PoleHit("frame change degenerate at a node")
        num *= -t_num * (q * s) ** 2
        den *= t_den * diff * diff
    return num, den


def section_in_frame(
    chart: LocalChart, j: int, point: Sequence[Coord], frame: int
) -> Fraction:
    """Value of the rescaled section ``t^{beta_j} Phi_j`` in the frame of
    component ``frame`` at a sample point."""
    _check_vertices(chart.tree, frame, j)
    z = [_pair(x) for x in point]
    phi_num, phi_den = _phi_pair(j, chart._frames[j][1], z[j])
    jac_num, jac_den = _jacobian_pair(_path_steps(chart, j, frame), z)
    d = chart.sig.d
    return beta_monomial(chart, j) * Fraction(phi_num * jac_num ** d, phi_den * jac_den ** d)


def verify_ratio_identity(chart: LocalChart, j: int, k: int, samples: int = 20) -> bool:
    """Exact check of ``t^{beta_j} Phi_j = f_{jk} t^{beta_k} Phi_k``.

    Evaluates both sides at ``samples`` random rational curve points drawn
    from the chart's seed; one generic exact sample is already decisive.  The
    sampling loop returns only points generic on every component, where
    neither side has a pole, or raises :class:`DenominatorVanishes`.  On every
    pair the chart's refusal comes first, as :class:`StrataError`: a zero node
    parameter (the fiber must be smooth), else a degenerate chart, whose node
    parameters put a marking on a node, named by its first such marking.

    In the frame of ``k`` the identity reads ``Phi_j J^d = C Phi_k`` with
    ``J = dz_j/dz_k`` and ``C = f_{jk} t^{beta_k} / t^{beta_j}``; ``C`` and
    the path steps of ``J`` are read once per call (for ``j == k`` the path
    is ``[j]``, so ``C = J = 1``).  Each sample stays
    reduced pairs, and one cross-multiplication of integer products decides it.
    """
    _check_vertices(chart.tree, j, k)
    if samples < 1:
        raise ValueError("need at least one sample")
    if chart._refusal:
        raise StrataError(chart._refusal)
    rng = make_sampler(chart.seed)
    c = ratio_constant(chart, j, k) * beta_monomial(chart, k) / beta_monomial(chart, j)
    c_num, c_den = c.numerator, c.denominator
    marks_j, marks_k = chart._frames[j][1], chart._frames[k][1]
    steps = _path_steps(chart, j, k)
    d = chart.sig.d
    for _ in range(samples):
        z = _sample(chart, rng, 0, range(chart.tree.num_vertices))
        phi_j_num, phi_j_den = _phi_pair(j, marks_j, z[j])
        jac_num, jac_den = _jacobian_pair(steps, z)
        phi_k_num, phi_k_den = _phi_pair(k, marks_k, z[k])
        if (phi_j_num * jac_num ** d * c_den * phi_k_den
                != c_num * phi_k_num * phi_j_den * jac_den ** d):
            return False
    return True


# ---------------------------------------------------------------------------
# the codimension-2 trichotomy
# ---------------------------------------------------------------------------


def _check_chain_blocks(
    sig: Signature, i0: frozenset[int], i1: frozenset[int], i2: frozenset[int]
) -> None:
    if (i0 | i1 | i2) != set(range(1, sig.n + 1)) or (i0 & i1) or (i0 & i2) or (i1 & i2):
        raise BadBlocks("blocks must partition 1..n")
    if len(i0) < 1 or len(i1) < 2 or len(i2) < 2:
        raise BadBlocks("chain stability needs |I0| >= 1 and |I1|, |I2| >= 2")


def classify_codim2_case(sig: Signature, blocks: Sequence[Iterable[int]]) -> str:
    """Which of the three local shapes a codimension-2 chain falls into.

    With ``nu_j = -d - sum_{i in Ij} k_i`` for the two outer blocks:
    ``'a'`` when both are <= 0 (the center component carries the limit),
    ``'c'`` when both are >= 0 and not 'a' (every candidate dies on the
    pinched fiber), ``'b'`` otherwise.  The doubly-degenerate tie goes to 'a'.
    """
    if len(blocks) != 3:
        raise BadBlocks("need exactly three blocks")
    i0, i1, i2 = (frozenset(b) for b in blocks)
    _check_chain_blocks(sig, i0, i1, i2)
    nu1 = -sig.d - _k_sum(sig, i1)
    nu2 = -sig.d - _k_sum(sig, i2)
    if nu1 <= 0 and nu2 <= 0:
        return "a"
    if nu1 >= 0 and nu2 >= 0:
        return "c"
    return "b"
