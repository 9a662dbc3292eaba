"""Signatures, boundary partitions and stable dual trees in genus 0.

All arithmetic is exact and in integers.  The basic input everywhere is a
*signature* ``(d, kappa)`` with ``d >= 2``, ``k_i >= 1 - d`` and
``sum(kappa) == -2*d``; the derived weight of the i-th marked point is
``mu_i = -k_i / d``, so ``mu_i < 1`` and ``sum(mu) == 2`` hold automatically.
Weights only matter through integer facts about ``k_B = sum_{i in B} k_i``:
``mu(B) < 1`` iff ``k_B > -d`` and ``d * (mu(B) - 1) = -k_B - d``.  So the
:class:`Signature` is the one weight carrier, and ``fractions.Fraction``
appears only in returned values: ``mu_S = (d + k_I0) / d`` and the node and
edge weights ``-k_B / d``.

This module is the one split core that the other layers share:

* the marking-mask codec: bit ``i-1`` of a mask is marking ``i``;
  ``_mask_marks`` decodes a mask (markings in increasing order) and
  ``_marks_mask`` encodes a set of markings, rejecting one outside
  ``1..n``; ``_k_sum`` and ``_mask_k`` are ``k_B`` of a set of markings and
  of a mask;
* the split orientation rule ``_is_i0``: of the two sides of a split, ``I0``
  is the one with the larger ``k`` (so ``mu(I0) <= 1``) and, on a tie, the
  one holding marking 1.  Only the numbering of a partition's blocks asks it;
* the boundary index set walk ``_p_hat_walk``: every element of P-hat as
  its block masks, in :meth:`MultiBlockPartition.sort_key` order, with its
  factors ``m_j`` carried along (for ``r = 1`` the one factor ``d * mu_S``).
  One depth-first submask walk carries ``k_B``.  The public enumerators
  and the refused volume's leading terms read it through ``_p_hat_parts``,
  which builds frozenset blocks; both divisor forms read it in one pass;
  the ``boundary``, ``phat``, ``exceptional`` and ``divisor`` commands
  print its masks, as it oriented them, with markings in increasing
  order.  A partition given from outside the walk has one checked path,
  ``_m_factors``, which ``m_value`` and ``vanishing_orders`` read.  No
  function here builds a table over all ``2^n`` masks, and only the
  ``--max-codim`` walk one over the ``2^(n-1)`` far masks;
* the stable tree as its set of pairwise-compatible splits (Buneman's
  splits-equivalence theorem; Semple-Steel, *Phylogenetics*), each stored as
  the mask of the side holding marking 1.  ``canonical_key`` is the sorted
  tuple of those masks, :meth:`StableTree.from_splits` builds the tree back,
  and ``_split_keys`` walks the compatible sets directly and lazily;
  :func:`enumerate_stable_trees` sorts what it yields.
  Every tree fills one parent and far-side table on construction; the local
  charts read paths off its parents (``StableTree._path``), and principal
  subcurves are one pass over its rows: the node above ``v`` has weight 0
  iff ``k_v = -d`` (``k_B`` of the subtree under ``v``), and any other node
  rules out the group above it iff ``k_v < -d``, else the one below, since
  only one side of a node can be heavy.  The ``--max-codim`` walk builds no
  tree and no table per tree: each split that ``_split_keys`` adds is a new
  leaf, so the walk applies this rule to one leaf per key and counts the
  principal groups as it goes.  Its one table, the ``k`` of every far side,
  and the walk's candidate list are built only once the walk first extends
  a key, so a walk of depth 0 builds neither.

Markings are 1-based (``1..n``); vertices of a dual tree are 0-based list
indices.  Every boundary index is a :class:`MultiBlockPartition`: a
two-block partition ``{I0, I1}``, a boundary divisor ``D_S`` of the base, is
the element of P-hat with ``r = 1``.  It is always numbered by ``_is_i0``,
so ``mu(I0) <= 1 <= mu(I1)``; the tie-break by marking 1 only affects
bookkeeping, never a computed invariant.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "StrataError",
    "BadD",
    "TooFewMarks",
    "EntryTooSmall",
    "SumMismatch",
    "NumberingViolation",
    "NoSuchEdge",
    "NotInPHat",
    "TwoBlockHasNoOrders",
    "Signature",
    "MultiBlockPartition",
    "StableTree",
    "ExponentVector",
    "WeilDivisorData",
    "validate_signature",
    "bundle_rank",
    "enumerate_two_block",
    "boundary_weight",
    "enumerate_stable_trees",
    "node_weights",
    "edge_weight",
    "principal_subcurves",
    "exponent_vector",
    "ideal_generators",
    "in_ideal_support",
    "fiber_projective_dim",
    "enumerate_p_hat",
    "m_value",
    "exceptional_divisor",
    "vanishing_orders",
]


class StrataError(ValueError):
    """Base class for invalid combinatorial input."""


class BadD(StrataError):
    pass


class TooFewMarks(StrataError):
    pass


class EntryTooSmall(StrataError):
    pass


class SumMismatch(StrataError):
    pass


class NumberingViolation(StrataError):
    pass


class NoSuchEdge(StrataError):
    pass


class NotInPHat(StrataError):
    pass


class TwoBlockHasNoOrders(StrataError):
    pass


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """A level ``d >= 2`` and zero/pole orders ``kappa`` summing to ``-2d``."""

    d: int
    kappa: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, v in enumerate((self.d, *self.kappa)):
            if not isinstance(v, int):
                raise _not_integer(i, v)
        # a list kappa would make the frozen signature unhashable
        object.__setattr__(self, "kappa", tuple(self.kappa))
        if self.d < 2:
            raise BadD(f"d must be >= 2, got {self.d}")
        if len(self.kappa) < 3:
            raise TooFewMarks(f"need at least 3 markings, got {len(self.kappa)}")
        for i, k in enumerate(self.kappa, start=1):
            if k < 1 - self.d:
                raise EntryTooSmall(f"k_{i} = {k} < 1 - d = {1 - self.d}")
        total = sum(self.kappa)
        if total != -2 * self.d:
            raise SumMismatch(f"sum(kappa) = {total}, expected {-2 * self.d}")

    @property
    def n(self) -> int:
        return len(self.kappa)

    def relabeled(self, sigma: Sequence[int]) -> "Signature":
        """Signature after sending marking ``i`` to ``sigma[i-1]``."""
        _check_permutation(sigma, self.n)
        new = [0] * self.n
        for i, k in enumerate(self.kappa, start=1):
            new[sigma[i - 1] - 1] = k
        return Signature(self.d, tuple(new))


def _not_integer(i: int, v: object) -> StrataError:
    """The refusal of entry ``i`` of ``(d, *kappa)``, which is not an integer."""
    return StrataError(f"{f'k_{i}' if i else 'd'} = {v!r} is not an integer")


def validate_signature(d: int, kappa: Sequence[int]) -> Signature:
    """Validate ``(d, kappa)`` and return the signature.

    Raises :class:`BadD`, :class:`TooFewMarks`, :class:`EntryTooSmall` or
    :class:`SumMismatch` on invalid input, and :class:`StrataError` on a
    value that is not an integer (``2.7`` is refused, not truncated).
    """
    values = []
    for i, v in enumerate((d, *kappa)):
        try:
            values.append(operator.index(v))
        except TypeError:
            raise _not_integer(i, v) from None
    return Signature(values[0], tuple(values[1:]))


def bundle_rank(sig: Signature) -> int:
    """Rank ``(d-1)(n-2) - 1`` of the bundle of finite-area d-differentials."""
    return (sig.d - 1) * (sig.n - 2) - 1


# ---------------------------------------------------------------------------
# boundary partitions
# ---------------------------------------------------------------------------


def _check_permutation(sigma: Sequence[int], n: int) -> None:
    """Raise :class:`StrataError` unless ``sigma`` is a permutation of ``1..n``."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise StrataError(f"sigma = {list(sigma)} is not a permutation of 1..{n}")


def _relabel_set(marks: Iterable[int], sigma: Sequence[int]) -> frozenset[int]:
    return frozenset(sigma[i - 1] for i in marks)


def _k_sum(sig: Signature, marks: Iterable[int]) -> int:
    """``k_B = sum_{i in B} k_i`` over a set ``B`` of markings."""
    return sum(sig.kappa[i - 1] for i in marks)


def _mask_k(sig: Signature, mask: int) -> int:
    """``k_B`` over the markings ``B`` of a mask."""
    return sum(k for i, k in enumerate(sig.kappa) if mask >> i & 1)


def _is_i0(k_a: int, k_b: int, a_holds_1: bool) -> bool:
    """The split orientation rule: side ``A`` of a split ``A|B`` is ``I0``
    iff it has the larger ``k`` (``mu(A) < mu(B)``) or, on a tie, it holds
    marking 1."""
    return k_a > k_b or (k_a == k_b and a_holds_1)


@dataclass(frozen=True)
class MultiBlockPartition:
    """An ordered partition ``{I0, I1, ..., Ir}`` of ``{1..n}``, ``r >= 1``.

    ``I0`` is the light block; for ``r >= 2`` membership in the boundary index
    set requires ``mu(I0) < 1`` and ``mu(Ij) > 1`` for every ``j >= 1``.  The
    heavy blocks are stored sorted by least element.
    """

    blocks: tuple[frozenset[int], ...]

    @staticmethod
    def from_blocks(i0: Iterable[int], heavy: Iterable[Iterable[int]]) -> "MultiBlockPartition":
        hs = sorted((frozenset(h) for h in heavy), key=min)
        return MultiBlockPartition((frozenset(i0),) + tuple(hs))

    @staticmethod
    def from_split(a: Iterable[int], b: Iterable[int], sig: Signature) -> "MultiBlockPartition":
        """The two-block partition ``{a, b}``, its sides numbered by :func:`_is_i0`."""
        a, b = frozenset(a), frozenset(b)
        _check_blocks((a, b), sig.n)  # before k_B reads a marking outside 1..n
        if _is_i0(_k_sum(sig, a), _k_sum(sig, b), 1 in a):
            return MultiBlockPartition((a, b))
        return MultiBlockPartition((b, a))

    @property
    def r(self) -> int:
        return len(self.blocks) - 1

    @property
    def size(self) -> int:
        """Number of blocks ``|S| = r + 1``."""
        return len(self.blocks)

    def sort_key(self) -> tuple:
        return (self.r, tuple(tuple(sorted(b)) for b in self.blocks))

    def relabeled(self, sigma: Sequence[int], sig: Signature) -> "MultiBlockPartition":
        """Image partition under a relabeling, renumbered for the signature
        ``sig`` of the relabeled markings."""
        _check_permutation(sigma, sig.n)
        imgs = [_relabel_set(b, sigma) for b in self.blocks]
        if self.r == 1:
            return MultiBlockPartition.from_split(*imgs, sig)
        return MultiBlockPartition.from_blocks(imgs[0], imgs[1:])


def _check_blocks(blocks: Sequence[frozenset[int]], n: int) -> None:
    """Raise :class:`NotInPHat` unless ``blocks`` are at least two nonempty,
    pairwise disjoint sets covering ``1..n``, both of size >= 2 when two."""
    universe: set[int] = set()
    for b in blocks:
        if not b:
            raise NotInPHat("empty block")
        if b & universe:
            raise NotInPHat("blocks overlap")
        universe |= b
    if universe != set(range(1, n + 1)):
        raise NotInPHat("blocks do not cover 1..n")
    if len(blocks) < 2:
        raise NotInPHat("need at least two blocks")
    if len(blocks) == 2 and min(len(blocks[0]), len(blocks[1])) < 2:
        raise NotInPHat("two-block partitions need both sides >= 2")


def _mask_marks(mask: int) -> tuple[int, ...]:
    """The markings of a mask, in increasing order, one lowest bit at a time."""
    marks = []
    while mask:
        low = mask & -mask
        marks.append(low.bit_length())
        mask ^= low
    return tuple(marks)


def _marks_mask(n: int, marks: Iterable[int]) -> int:
    """The mask of a set of markings; the inverse of :func:`_mask_marks`."""
    mask = 0
    for i in marks:
        if not 1 <= i <= n:
            raise StrataError(f"marking {i} is outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def enumerate_two_block(sig: Signature) -> list[MultiBlockPartition]:
    """All boundary partitions of ``{1..n}``: the ``r = 1`` elements of P-hat,
    both blocks of size >= 2 and numbered by :func:`_is_i0`.

    There are exactly ``2**(n-1) - n - 1`` of them, and they are the first
    elements of :func:`enumerate_p_hat`, in the same order.
    """
    return [part for part, _ in _p_hat_parts(sig, r_max=1)]


def boundary_weight(part: MultiBlockPartition, sig: Signature) -> Fraction:
    """Weight ``mu_S = 1 - mu(I0) = (d + k_I0) / d`` of a boundary divisor,
    a two-block partition (``r = 1``)."""
    if part.r != 1:
        raise StrataError(f"a boundary divisor of the base has 2 blocks, not {part.size}")
    _check_blocks(part.blocks, sig.n)  # before k_B reads a marking outside 1..n
    k0 = _k_sum(sig, part.blocks[0])
    if k0 < -sig.d:
        raise NumberingViolation(f"mu(I0) = {Fraction(-k0, sig.d)} > 1; blocks are misnumbered")
    return Fraction(sig.d + k0, sig.d)


# ---------------------------------------------------------------------------
# stable dual trees
# ---------------------------------------------------------------------------


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _laminar(n: int, splits: Iterable[int]) -> tuple[list[int], list[int], list[int]]:
    """The tree of a set of compatible splits, read off the laminar family of
    their far sides ``full ^ K`` (each split ``K`` is the side holding marking 1).

    Returns ``(fars, parent, own)``: vertex 0 holds marking 1 and vertex
    ``j >= 1`` lies just beyond ``fars[j-1]`` (far sides largest first, ties
    in the order given); ``parent[j]`` is the neighbor of ``j`` toward
    marking 1 and ``own[v]`` the mask of the markings on ``v``.

    The parent scan also checks the family: every far side it passes must
    miss the new one, else the two splits cross, and the parent must not
    equal it.  The far sides before the parent are nested with the parent or
    miss it, so they are nested with the new one or miss it too.
    """
    full = (1 << n) - 1
    fars = sorted((full ^ k for k in splits), key=int.bit_count, reverse=True)
    parent = [-1] * (len(fars) + 1)
    own = [full, *fars]
    for j, a in enumerate(fars, 1):
        p = j - 1  # the smallest earlier far side holding a, else the root
        while p and fars[p - 1] & a != a:
            if fars[p - 1] & a:
                m, k = sorted((full ^ fars[p - 1], full ^ a))
                raise StrataError(f"splits {m:#b} and {k:#b} cross")
            p -= 1
        if p and fars[p - 1] == a:
            raise StrataError(f"split {full ^ a:#b} given twice")
        parent[j] = p
        own[p] &= ~a
    return fars, parent, own


@dataclass(frozen=True)
class StableTree:
    """Dual tree of a stable n-pointed genus-0 curve.

    ``vertex_marks[j]`` is the (possibly empty) set of markings on component
    ``j``; ``edges`` are unordered vertex pairs, one per node.  Stability means
    ``|marks| + degree >= 3`` at every vertex.  Construction fills one
    far-side table: rooted at vertex 0, ``_below[j]`` is the parent of ``j``
    and the marking mask and vertex mask of the subtree under ``j``, so either
    side of every edge is one lookup (see :meth:`far_marks`).
    """

    vertex_marks: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    _below: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nv = len(self.vertex_marks)
        edges = tuple(sorted(_norm_edge(u, v) for u, v in self.edges))
        for a, b in zip(edges, edges[1:]):
            if a == b:
                raise StrataError(f"edge {a} given twice")
        object.__setattr__(self, "edges", edges)
        if len(edges) != nv - 1:
            raise StrataError(f"a tree on {nv} vertices needs {nv - 1} edges")
        # n markings in 1..n are exactly 1..n iff the sets are disjoint
        n = sum(len(m) for m in self.vertex_marks)
        marks = [_marks_mask(n, m) for m in self.vertex_marks]
        seen = 0
        for m in marks:
            if m & seen:
                raise StrataError("vertex marking sets must be disjoint")
            seen |= m
        adj: list[list[int]] = [[] for _ in range(nv)]
        for u, v in self.edges:
            if not (0 <= u < nv and 0 <= v < nv) or u == v:
                raise StrataError(f"bad edge ({u},{v})")
            adj[u].append(v)
            adj[v].append(u)
        for j in range(nv):
            if len(self.vertex_marks[j]) + len(adj[j]) < 3:
                raise StrataError(f"vertex {j} is unstable")
        # connectivity (edge count already matches a tree), by a search from
        # vertex 0 that records each vertex's parent
        parent = [-1] * nv
        order = [0]
        for v in order:
            for u in adj[v]:
                if u and parent[u] < 0:  # not reached yet
                    parent[u] = v
                    order.append(u)
        if len(order) != nv:
            raise StrataError("tree is not connected")
        # subtree masks, children before parents
        verts = [1 << j for j in range(nv)]
        for v in reversed(order[1:]):
            marks[parent[v]] |= marks[v]
            verts[parent[v]] |= verts[v]
        object.__setattr__(self, "_below", tuple(zip(parent, marks, verts)))

    @staticmethod
    def from_splits(n: int, splits: Iterable[int]) -> "StableTree":
        """The tree whose nodes cut out exactly ``splits``: pairwise-compatible
        masks of the side holding marking 1 (bit ``i-1`` is marking ``i``).
        Vertex 0 holds marking 1; the numbering depends only on the set."""
        key = tuple(sorted(splits))
        full = (1 << n) - 1
        for k in key:
            if k != k & full:
                raise StrataError(f"split {k:#b} has a marking outside 1..{n}")
            if not k & 1:
                raise StrataError(f"split {k:#b} does not hold marking 1")
            if not 2 <= k.bit_count() <= n - 2:
                raise StrataError(f"split {k:#b} leaves fewer than 2 markings on a side")
        _, parent, own = _laminar(n, key)  # raises on a crossing or repeated split
        marks = tuple(frozenset(_mask_marks(m)) for m in own)
        return StableTree(marks, tuple((parent[j], j) for j in range(1, len(own))))

    @property
    def n(self) -> int:
        return sum(len(m) for m in self.vertex_marks)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_marks)

    def neighbors(self, j: int) -> list[int]:
        _check_vertices(self, j)
        below = self._below
        return [k for k in range(len(below)) if below[k][0] == j or below[j][0] == k]

    def has_edge(self, u: int, v: int) -> bool:
        below = self._below
        return 0 <= u < len(below) and 0 <= v < len(below) and (
            below[v][0] == u or below[u][0] == v
        )

    def _path(self, j: int, k: int) -> list[int]:
        """Vertices of the path from ``j`` to ``k`` (inclusive): ``j`` climbs
        the parent table to vertex 0, ``k`` climbs until it meets that chain."""
        _check_vertices(self, j, k)
        below = self._below
        up = [j]
        while up[-1]:
            up.append(below[up[-1]][0])
        down = [k]
        while down[-1] not in up:
            down.append(below[down[-1]][0])
        return up[: up.index(down[-1])] + down[::-1]

    def far_marks(self, j: int, k: int) -> frozenset[int]:
        """Markings on the ``k``-side of the edge ``{j, k}``."""
        if not self.has_edge(j, k):
            raise NoSuchEdge(f"no edge between vertices {j} and {k}")
        parent, marks, _ = self._below[k]
        far = marks if parent == j else self._below[0][1] ^ self._below[j][1]
        return frozenset(_mask_marks(far))

    def edge_partition(self, u: int, v: int, sig: Signature) -> MultiBlockPartition:
        """Two-block partition (``r = 1``) cut out by the edge ``{u, v}``."""
        return MultiBlockPartition.from_split(self.far_marks(v, u), self.far_marks(u, v), sig)

    def canonical_key(self) -> tuple[int, ...]:
        """The sorted split masks (side holding marking 1) of the nodes; they
        determine the tree up to vertex numbering."""
        full = self._below[0][1]
        return tuple(sorted(m if m & 1 else full ^ m for _, m, _ in self._below[1:]))

    def canonical(self) -> "StableTree":
        return StableTree.from_splits(self.n, self.canonical_key())

    def relabeled(self, sigma: Sequence[int]) -> "StableTree":
        _check_permutation(sigma, self.n)
        return StableTree(
            tuple(_relabel_set(m, sigma) for m in self.vertex_marks), self.edges
        )


def enumerate_stable_trees(sig: Signature, max_edges: int) -> list[StableTree]:
    """All isomorphism classes of stable trees with 0..max_edges edges.

    A tree is its set of pairwise-compatible splits, so a backtracking walk
    that adds split masks (side holding marking 1) in increasing order meets
    each tree exactly once.  Two such masks ``K < L`` are compatible iff
    ``K`` lies inside ``L`` or ``K | L`` is everything.  The 0-edge tree
    (smooth curve) is included.  Trees are built by
    :meth:`StableTree.from_splits`, sorted by edge count then canonical key.
    """
    n = sig.n
    if max_edges < 0:
        raise StrataError(f"max_edges = {max_edges} is negative")
    if max_edges > n - 3:
        raise StrataError(f"max_edges = {max_edges} exceeds n - 3 = {n - 3}")
    found = sorted(_split_keys(n, max_edges), key=lambda key: (len(key), key))
    return [StableTree.from_splits(n, key) for key in found]


def _split_keys(n: int, max_edges: int) -> Iterator[tuple[int, ...]]:
    """The canonical key of every stable tree with at most ``max_edges``
    edges, depth first: a set of splits before its extensions, each adding
    one larger compatible split.  Lazy, so a caller that stops early has
    held only the candidate lists along one path of the walk, and none
    before the walk first extends a key."""
    full = (1 << n) - 1

    def walk(chosen: tuple[int, ...], cands: list[int]) -> Iterator[tuple[int, ...]]:
        for i, k in enumerate(cands):
            key = chosen + (k,)
            yield key
            if len(key) < max_edges:
                yield from walk(key, [c for c in cands[i + 1:] if c & k == k or c | k == full])

    yield ()
    if max_edges > 0:
        yield from walk((), [k for k in range(1, full, 2) if 2 <= k.bit_count() <= n - 2])


# ---------------------------------------------------------------------------
# node and edge weights, principal subcurves
# ---------------------------------------------------------------------------


def node_weights(
    tree: StableTree, edge: tuple[int, int], sig: Signature
) -> tuple[Fraction, Fraction]:
    """Weights ``(mu(y_{jj'}), mu(y_{j'j}))`` of the two branches of a node.

    The weight at the branch on component ``j`` is the total weight
    ``-k_B / d`` of the markings ``B`` on the far side of the edge; the two
    values sum to 2.
    """
    _check_markings(tree, sig)
    j, jp = edge
    k = _k_sum(sig, tree.far_marks(j, jp))  # the other side has -2d - k
    return Fraction(-k, sig.d), Fraction(2 * sig.d + k, sig.d)


def edge_weight(tree: StableTree, oriented_edge: tuple[int, int], sig: Signature) -> Fraction:
    """Oriented edge weight ``mu(e_{jj'}) = mu(y_{j'j}) - mu(y_{jj'})``.

    Antisymmetric under orientation reversal; its absolute value is twice the
    weight of the boundary divisor the edge cuts out.
    """
    a, b = node_weights(tree, oriented_edge, sig)
    return b - a


def _principal(
    sig: Signature, parent: Sequence[int], ks: Sequence[int]
) -> tuple[list[frozenset[int]], frozenset[int]]:
    """:func:`principal_subcurves` on a table rooted at vertex 0: ``parent[v]``
    is the neighbor of ``v`` toward the root (-1 at the root) and ``ks[v]``
    the ``k_B`` of the markings ``B`` of the subtree under ``v``."""
    d = sig.d
    # each group is keyed by its vertex nearest the root: climb weight-0
    # nodes, jumping to the top already found for a vertex on the way
    top = list(range(len(parent)))
    for v in range(len(top)):
        while parent[top[v]] >= 0 and ks[top[v]] == -d:
            top[v] = top[parent[top[v]]]
    ruled_out = {top[parent[v]] if ks[v] < -d else top[v]
                 for v in range(len(top)) if parent[v] >= 0 and ks[v] != -d}
    groups: dict[int, list[int]] = {}  # in order of least vertex
    for v, t in enumerate(top):
        groups.setdefault(t, []).append(v)
    principal = [frozenset(g) for t, g in groups.items() if t not in ruled_out]
    return principal, frozenset(v for v, t in enumerate(top) if t in ruled_out)


def principal_subcurves(
    tree: StableTree, sig: Signature
) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Principal subcurves of a stable curve.

    Zero-weight nodes are contracted first; a contracted component is
    principal when every edge leaving it points towards strictly lighter
    total weight (``mu`` of the far side < 1).  Returns the principal groups
    as sets of original vertex indices, sorted by least vertex, plus the
    remaining vertices.  At least one principal subcurve always exists.

    One pass over the parent table decides this.  With ``k_v`` the ``k_B``
    of the subtree under ``v``, the node above ``v`` has weight 0 iff
    ``k_v = -d``; any other node rules out one of its groups, the upper one
    iff ``k_v < -d``, else the lower one: the two sides of a node have ``k``
    summing to ``-2d``, so only one can be heavy (``k < -d``).
    """
    _check_markings(tree, sig)
    parent, marks, _ = zip(*tree._below)
    return _principal(sig, parent, [_mask_k(sig, m) for m in marks])


# ---------------------------------------------------------------------------
# exponent vectors and the ideal data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentVector:
    """Nonnegative exponents, one per node, of the monomial attached to a component."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "ExponentVector":
        return ExponentVector(tuple(sorted(d.items())))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def is_zero(self) -> bool:
        return all(p == 0 for _, p in self.entries)

    def __getitem__(self, edge: tuple[int, int]) -> int:
        return self.as_dict()[_norm_edge(*edge)]


def _check_vertices(tree: StableTree, *vertices: int) -> None:
    for j in vertices:
        if not 0 <= j < tree.num_vertices:
            raise StrataError(f"no vertex {j}")


def _check_markings(tree: StableTree, sig: Signature) -> None:
    """Raise :class:`StrataError` unless the tree carries the markings
    ``1..n`` of ``sig``: its markings are ``1..m`` for some ``m``, so its
    root row's subtree mask (every marking) is compared with ``n`` bits."""
    marks = tree._below[0][1]
    if marks != (1 << sig.n) - 1:
        raise StrataError(f"tree carries {marks.bit_count()} markings but n = {sig.n}")


def exponent_vector(tree: StableTree, j: int, sig: Signature) -> ExponentVector:
    """Exponents ``beta_j``: ``max(0, d + k_B)`` at each node, ``B`` its side
    holding ``v_j``.  That is ``d * mu_S = d + k_I0`` if ``B`` is the light
    side ``I0``, else 0, with no orientation: the sides' ``k`` sum to ``-2d``,
    so ``B`` is ``I0`` if ``k_B > -d`` and the other side if ``k_B < -d``; on
    a tie ``k_B = -d`` both give 0, so the tie-break by marking 1 never matters."""
    _check_vertices(tree, j)
    _check_markings(tree, sig)
    entries: dict[tuple[int, int], int] = {}
    for v, (u, marks, verts) in enumerate(tree._below[1:], 1):
        k = _mask_k(sig, marks)  # the side under v; the other side has -2d - k
        entries[_norm_edge(u, v)] = max(0, sig.d + k if verts >> j & 1 else -sig.d - k)
    return ExponentVector.from_dict(entries)


def ideal_generators(tree: StableTree, sig: Signature) -> frozenset[ExponentVector]:
    """Monomial generators of the local ideal: one exponent vector
    ``beta_j`` per principal subcurve, read at its least component.

    The components of a principal subcurve share ``beta``.  They are joined
    by weight-0 nodes, where ``k_B = -d`` on both sides, so the exponent is 0
    from either side; every other node has the whole subcurve on one side,
    hence one side ``B`` and one exponent ``max(0, d + k_B)`` for all of them.

    Orient each node of nonzero weight toward its heavy side (``k < -d``)
    and contract the weight-0 nodes: the principal subcurves are the sinks,
    and ``beta_j`` is ``d + k_I0`` at each node whose light side ``I0``
    holds subcurve ``j``, else 0.  A node's heavy side holds a sink (follow
    the arrows from it).  Hence (a): the stratum lies in the ideal support
    (two sinks or more) iff the tree's splits hold the splits ``I_j | rest``,
    ``j = 1..r``, of the star of some element ``{I0, I1, .., Ir}`` of P-hat
    with ``r >= 2``, so the images of the exceptional divisors cover the
    support.  Heavy sides ``I_j`` that are disjoint hold distinct sinks; and
    on the path between two sinks, some component has two nodes pointing
    away from it, whose heavy sides ``I_1, I_2`` leave
    ``k_I0 = -2d - k_I1 - k_I2 > 0``, so ``{I0, I1, I2}`` is in P-hat.
    Claim (b) is at :func:`fiber_projective_dim`.
    """
    principal, _ = principal_subcurves(tree, sig)
    return frozenset(exponent_vector(tree, min(g), sig) for g in principal)


def in_ideal_support(tree: StableTree, sig: Signature) -> bool:
    """True when the stratum of this tree lies in the support of the ideal,
    i.e. when there are at least two principal subcurves."""
    principal, _ = principal_subcurves(tree, sig)
    return len(principal) >= 2


def _any_tree_in_support(sig: Signature, max_edges: int) -> bool:
    """Whether some stable tree with at most ``max_edges`` nodes lies in the
    ideal support, by a brute-force check of every key of
    :func:`_split_keys` that stops at the first tree in the support.

    No :class:`StableTree` and no :func:`_laminar` table is built: the walk's
    own depth-first order carries :func:`_principal`'s counts, one leaf at a
    time.  A key of length ``v`` extends the key of length ``v - 1`` met just
    before it by one split ``L`` larger than every earlier split ``K``.  Both
    hold marking 1 and are compatible, so ``K`` lies inside ``L`` or
    ``K | L`` is everything: the far side ``full ^ L`` lies inside ``full ^ K``
    or is disjoint from it.  So a new far side never contains an earlier one,
    the new vertex ``v`` is a leaf, and nothing is re-parented.  Its parent is
    the latest earlier far side that holds it, else the root.

    Per depth the walk keeps each vertex's group (its ``top``, as in
    :func:`_principal`), a bitmask of ruled-out groups and the number of
    principal groups; the smooth curve has one group, the root's, and it is
    principal.  With ``kv`` the ``k`` of the new far side:

    * ``kv == -d``: the node has weight 0 and the leaf joins its parent's group;
    * ``kv < -d``: the leaf is a new principal group and rules out its
      parent's group, so the count goes up by one iff that group was ruled
      out already;
    * ``kv > -d``: the leaf is a new group that rules itself out.

    So the count never goes down along a path, and the first count of 2 or
    more answers.  The ``k`` of every far side (a mask without marking 1)
    comes from one lowest-bit table, ``kt[a >> 1]``, built once per walk when
    the walk first extends a key, so a walk of depth 0 builds nothing."""
    d, full = sig.d, (1 << sig.n) - 1
    # entry v of each stack is the state of the key's first v splits; vertex
    # v >= 1 lies beyond fars[v], and the root's entry holds every marking
    fars, top, ruled, count = [full], [0], [0], [1]
    keys = _split_keys(sig.n, max_edges)
    next(keys)  # the smooth curve
    kt: list[int] = []
    for key in keys:
        if not kt:
            kt = [0] * (1 << (sig.n - 1))
            for m in range(1, len(kt)):
                low = m & -m
                kt[m] = kt[m ^ low] + sig.kappa[low.bit_length()]
        v = len(key)
        del fars[v:], top[v:], ruled[v:], count[v:]
        a = full ^ key[-1]
        p = v - 1
        while p and not fars[p] & a:
            p -= 1
        kv, out, c = kt[a >> 1], ruled[-1], count[-1]
        if kv == -d:
            t = top[p]
        else:
            t = v
            if kv < -d:
                c += out >> top[p] & 1
                if c >= 2:
                    return True
                out |= 1 << top[p]
            else:
                out |= 1 << v
        fars.append(a)
        top.append(t)
        ruled.append(out)
        count.append(c)
    return False


def fiber_projective_dim(tree: StableTree, sig: Signature) -> int:
    """Dimension ``r0 - 1`` of the projective fiber over this stratum.

    On a tree in the ideal support, the ``r0`` generators of
    :func:`ideal_generators` span a bounded ``(r0 - 1)``-face of the Newton
    polyhedron, whose toric variety is the fiber of the blow-up over a
    general point of the stratum.  That is claim (b): the generators are
    affinely independent, and some strictly positive integer weight ``w`` on
    the nodes pairs equally with all of them.

    In the oriented tree of :func:`ideal_generators`, write
    ``beta_j = m - h_j``, with ``m_e = d + k_I0 > 0`` and ``h_j(e) = m_e``
    iff sink ``j`` is on the heavy side of ``e``, else 0.  Take numbers
    ``z_j`` summing to 0 with ``sum_j z_j h_j >= 0`` on every node, so the
    ``z`` of the sinks on each node's heavy side sum to ``>= 0``.  At a sink
    ``P`` every node points in and has a branch of the other sinks as its
    light side, whose ``z`` then sum to ``<= 0``; over the branches,
    ``z_P >= 0``.  So every ``z_j`` is ``>= 0``, and as they sum to 0, every
    one is 0.  With ``=`` in place of ``>=`` this is affine
    independence; as it stands, Stiemke's lemma gives a rational ``w > 0``
    with ``(beta_j - beta_1) . w = 0`` for every ``j``, scaled to integers
    (weight-0 nodes have ``beta = 0`` and take any weight).
    """
    principal, _ = principal_subcurves(tree, sig)
    return len(principal) - 1


# ---------------------------------------------------------------------------
# the boundary index set of the blow-up
# ---------------------------------------------------------------------------


def _p_hat_walk(
    sig: Signature, r_min: int = 1, r_max: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every element of P-hat with ``r_min <= r <= r_max`` (all of them by
    default), as its block masks ``(I0, I1, .., Ir)`` and its factors
    ``(m_1, .., m_r)``, ``m_j = d * (mu(Ij) - 1) = -k_Ij - d``; for ``r = 1``
    the one factor is ``d + k_I0 = d * mu_S``.

    Blocks are walked as submasks in lexicographic order of their sorted
    markings, so the elements come in :meth:`MultiBlockPartition.sort_key`
    order:

    * ``r = 1``: every ``I0`` with ``k_I0 >= -d`` and both sides of size
      >= 2, oriented by :func:`_is_i0`;
    * ``r >= 2``: every ``I0`` with ``k_I0 >= r(d+1) - 2d``, which leaves
      room for ``r`` heavy blocks (``k <= -d-1``), then each split of its
      complement into ``r`` heavy blocks.  Each block holds the lowest
      marking not yet placed, so the blocks come out sorted by least
      element, and leaves ``k <= -d-1`` for each block after it.
    """
    n, d, kappa = sig.n, sig.d, sig.kappa
    full = (1 << n) - 1
    top = sum(k for k in kappa if k > 0)

    def window(pool: list[int], mask: int, k: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """``(mask | B, k + k_B)`` for every set ``B`` of the ascending
        0-based markings ``pool`` with ``lo <= k + k_B <= hi``, in
        lexicographic order: a depth-first walk that adds markings in
        increasing order and cuts every branch that cannot reach the window."""
        ks = [kappa[i] for i in pool]
        bits = [1 << i for i in pool]
        # a branch that adds pool[i] next can still reach the window iff its
        # k is in [k_lo[i], k_hi[i]], by the sums of the entries after pool[i]
        k_lo, k_hi = [0] * len(ks), [0] * len(ks)
        neg = pos = 0
        for i in range(len(ks) - 1, -1, -1):
            k_lo[i], k_hi[i] = lo - pos, hi - neg
            neg += min(ks[i], 0)
            pos += max(ks[i], 0)
        if not lo - pos <= k <= hi - neg:
            return
        stack = [(mask, k, 0)]
        while stack:
            mask, k, start = stack.pop()
            if lo <= k <= hi:
                yield mask, k
            for i in range(len(ks) - 1, start - 1, -1):
                c = k + ks[i]
                if k_lo[i] <= c <= k_hi[i]:
                    stack.append((mask | bits[i], c, i + 1))

    def heavy(rest: int, k_rest: int, r: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The splits of the mask ``rest`` into ``r`` heavy blocks, with their factors."""
        if r == 1:
            yield (rest,), (-k_rest - d,)
            return
        low = rest & -rest
        i = low.bit_length() - 1
        pool = [j for j in range(i + 1, n) if rest >> j & 1]
        for block, k in window(pool, low, kappa[i], k_rest + (r - 1) * (d + 1), -d - 1):
            for blocks, ms in heavy(rest ^ block, k_rest - k, r - 1):
                yield (block,) + blocks, (-k - d,) + ms

    markings = list(range(n))
    if r_min == 1:
        for i0, k in window(markings, 0, 0, -d, top):
            if 2 <= i0.bit_count() <= n - 2 and _is_i0(k, -2 * d - k, i0 & 1 == 1):
                yield (i0, full ^ i0), (d + k,)
    # a light I0 and r heavy blocks of >= 2 markings each, since every mu_i < 1
    r_top = (n - 1) // 2 if r_max is None else r_max
    for r in range(max(r_min, 2), r_top + 1):
        for i0, k in window(markings, 0, 0, r * (d + 1) - 2 * d, top):
            for blocks, ms in heavy(full ^ i0, -2 * d - k, r):
                yield (i0,) + blocks, ms


def _p_hat_parts(
    sig: Signature, r_min: int = 1, r_max: int | None = None
) -> Iterator[tuple[MultiBlockPartition, tuple[int, ...]]]:
    """:func:`_p_hat_walk` with each element as a :class:`MultiBlockPartition`;
    equal blocks share one frozenset, through a mask dict kept for the call."""
    marks: dict[int, frozenset[int]] = {}
    for masks, ms in _p_hat_walk(sig, r_min, r_max):
        blocks = []
        for mask in masks:
            block = marks.get(mask)
            if block is None:
                block = marks[mask] = frozenset(_mask_marks(mask))
            blocks.append(block)
        yield MultiBlockPartition(tuple(blocks)), ms


def enumerate_p_hat(sig: Signature) -> list[MultiBlockPartition]:
    """Partitions indexing the boundary divisors of the blow-up.

    The ``r = 1`` elements, exactly :func:`enumerate_two_block`, then every
    ``{I0, I1, .., Ir}`` with ``r >= 2``, ``mu(I0) < 1`` and ``mu(Ij) > 1``
    for ``j >= 1``, in :meth:`MultiBlockPartition.sort_key` order.  Blocks
    are nonempty; ``I0`` comes first, heavy blocks sorted by least element.
    """
    return [part for part, _ in _p_hat_parts(sig)]


def _m_factors(part: MultiBlockPartition, sig: Signature) -> list[int]:
    """The factors ``m_j = d * (mu(Ij) - 1) = -k_Ij - d`` over the heavy
    blocks of a partition given from outside the walk, after checking that
    it is in the boundary index set (raising :class:`NotInPHat` if not).
    For ``r = 1`` the one factor is ``d + k_I0 = d * mu_S``."""
    _check_blocks(part.blocks, sig.n)
    d = sig.d
    k0, *heavy = (_k_sum(sig, b) for b in part.blocks)
    if part.r == 1:
        if k0 < -d:
            raise NotInPHat("I0 must be the light block")
    else:
        if k0 <= -d:
            raise NotInPHat("mu(I0) must be < 1")
        if any(k >= -d for k in heavy):
            raise NotInPHat("every heavy block needs mu > 1")
    return [-k - d for k in heavy]


def m_value(part: MultiBlockPartition, sig: Signature) -> int:
    """Multiplicity ``m(S) = prod_j d * (mu(Ij) - 1)`` over the heavy blocks.

    For a two-block partition this is the single factor ``d * mu_S``.
    """
    return math.prod(_m_factors(part, sig))


@dataclass
class WeilDivisorData:
    """Formal sum of boundary partitions with integer coefficients."""

    terms: dict[MultiBlockPartition, int]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.terms.values())


def exceptional_divisor(sig: Signature) -> WeilDivisorData:
    """Weil coefficients ``(|S| - 2) * m(S)`` of the exceptional divisor.

    The terms come in :func:`enumerate_p_hat` order, each ``m(S)`` the
    product of the factors the walk carries; two-block partitions get 0.
    """
    return WeilDivisorData({p: (p.size - 2) * math.prod(ms) for p, ms in _p_hat_parts(sig)})


def _leading_exceptional_terms(sig: Signature) -> dict[MultiBlockPartition, int]:
    """The first three terms of ``exceptional_divisor(sig)`` with a nonzero
    coefficient, the ones a refused volume shows, without building P-hat.

    An ``r >= 2`` element has coefficient ``(r-1) m(S) >= 1`` and an ``r = 1``
    element has 0, so these are the first three ``r >= 2`` elements of the
    walk, which stops there.
    """
    walk = itertools.islice(_p_hat_parts(sig, r_min=2), 3)
    return {p: (p.size - 2) * math.prod(ms) for p, ms in walk}


def vanishing_orders(part: MultiBlockPartition, sig: Signature) -> dict[int, int]:
    """Vanishing order of each node coordinate ``t_j`` along the divisor of a
    multi-block partition: ``order(t_j) = prod_i m_i / m_j``.

    The local model of the blow-up agrees with these orders.  Let ``T_S`` be
    the star tree with ``I0`` at the center and the heavy blocks as leaves,
    and ``w`` these orders.  Every generator ``g`` of
    :func:`ideal_generators` on ``T_S`` has
    ``sum_j w_j g[(0, j)] == (|S| - 2) * m(S)``, the Weil coefficient of
    :func:`exceptional_divisor`; ``T_S`` lies in the ideal's support, and
    ``(n - 3 - r) + fiber_projective_dim(T_S) == n - 4``, so ``E_S`` is a
    divisor.
    """
    factors = _m_factors(part, sig)
    if part.r == 1:
        raise TwoBlockHasNoOrders("two-block divisors carry no node orders")
    total = math.prod(factors)
    return {j: total // f for j, f in enumerate(factors, 1)}
