"""Stable trees as split sets against independent oracles.

The library keys a stable tree by its set of pairwise-compatible split masks
(Buneman's splits-equivalence theorem) and reads far sides, principal
subcurves and exponent vectors off one far-side table with integer ``k_B``
sums.  The oracles below are the vertex-form algorithms that did this before:
enumeration by splitting vertices over ``itertools`` flag subsets, deduplicated
by a canonical vertex renumbering, and per-call graph searches (far sides,
paths between components) with ``Fraction`` weights.
"""

import itertools
import random
from fractions import Fraction

import pytest
from fraction_weights import mu, oracle_orient
from hypothesis import given, settings
from hypothesis import strategies as st

from strata0.divisors import blowup_is_trivial
from strata0.strata import (
    StableTree,
    StrataError,
    MultiBlockPartition,
    _any_tree_in_support,
    _laminar,
    _mask_k,
    _p_hat_walk,
    _principal,
    _split_keys,
    boundary_weight,
    enumerate_stable_trees,
    exponent_vector,
    fiber_projective_dim,
    ideal_generators,
    in_ideal_support,
    principal_subcurves,
    validate_signature,
)

# ---------------------------------------------------------------------------
# oracle: graph searches over the vertex form
# ---------------------------------------------------------------------------


def oracle_adj(tree):
    adj = [[] for _ in range(tree.num_vertices)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def oracle_far_marks(tree, j, k):
    """Markings on the ``k``-side of the edge ``{j, k}``, by a search from ``k``."""
    adj = oracle_adj(tree)
    reached, stack = {k}, [k]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt != j and nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return frozenset().union(*(tree.vertex_marks[v] for v in reached))


def oracle_path(adj, j, k):
    """Vertices of the path from ``j`` to ``k``, by a breadth-first search."""
    parent = {j: None}
    queue = [j]
    for cur in queue:
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    out = [k]
    while out[-1] != j:
        out.append(parent[out[-1]])
    return out[::-1]


def oracle_splits(tree):
    """Sorted masks of the side holding marking 1, one per edge."""
    out = []
    for u, v in tree.edges:
        side = oracle_far_marks(tree, v, u)
        if 1 not in side:
            side = oracle_far_marks(tree, u, v)
        out.append(sum(1 << (i - 1) for i in side))
    return tuple(sorted(out))


def oracle_canonical_form(tree):
    """Deterministic vertex renumbering: root at the vertex holding the least
    marking, children ordered by the least marking in their subtree."""
    nv = tree.num_vertices
    if nv == 1:
        return ((tuple(sorted(tree.vertex_marks[0])),), ()), StableTree(tree.vertex_marks, ())
    adj = oracle_adj(tree)
    lo = min(min(m) for m in tree.vertex_marks if m)
    root = next(j for j, m in enumerate(tree.vertex_marks) if lo in m)
    submin = {}

    def min_beyond(parent, child):
        key = (parent, child)
        if key not in submin:
            vals = [min(tree.vertex_marks[child])] if tree.vertex_marks[child] else []
            vals += [min_beyond(child, g) for g in adj[child] if g != parent]
            submin[key] = min(vals)
        return submin[key]

    order = []

    def visit(v, parent):
        order.append(v)
        for c in sorted((c for c in adj[v] if c != parent), key=lambda c: min_beyond(v, c)):
            visit(c, v)

    visit(root, -1)
    perm = {old: new for new, old in enumerate(order)}
    marks = tuple(tree.vertex_marks[old] for old in order)
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in tree.edges))
    return (tuple(tuple(sorted(m)) for m in marks), edges), StableTree(marks, edges)


def oracle_vertex_splits(tree, j):
    """All ways to split vertex ``j`` in two, both halves keeping >= 2 flags;
    yields ``(moved_marks, moved_neighbors)`` and the first flag always stays."""
    flags = [("m", i) for i in sorted(tree.vertex_marks[j])]
    flags += [("e", k) for k in sorted(oracle_adj(tree)[j])]
    f = len(flags)
    for size in range(2, f - 1):
        for moved in itertools.combinations(flags[1:], size):
            yield (frozenset(i for kind, i in moved if kind == "m"),
                   [i for kind, i in moved if kind == "e"])


def oracle_split_vertex(tree, j, marks, nbrs):
    nv = tree.num_vertices
    new_marks = list(tree.vertex_marks)
    new_marks[j] = tree.vertex_marks[j] - marks
    new_marks.append(marks)
    edges = []
    for u, v in tree.edges:
        if u == j and v in nbrs:
            edges.append((nv, v))
        elif v == j and u in nbrs:
            edges.append((u, nv))
        else:
            edges.append((u, v))
    edges.append((j, nv))
    return StableTree(tuple(new_marks), tuple(edges))


def oracle_enumerate(n, max_edges):
    """Stable trees level by level: split every vertex of every tree of the
    level below, deduplicated by the canonical form."""
    base = StableTree((frozenset(range(1, n + 1)),), ())
    levels = [[base]]
    for _ in range(max_edges):
        nxt = {}
        for tree in levels[-1]:
            for j in range(tree.num_vertices):
                for marks, nbrs in oracle_vertex_splits(tree, j):
                    key, canon = oracle_canonical_form(oracle_split_vertex(tree, j, marks, nbrs))
                    nxt.setdefault(key, canon)
        levels.append(list(nxt.values()))
    return levels


def oracle_principal_subcurves(tree, sig):
    """Union-find over zero-weight edges, then a ``Fraction`` test per leaving edge."""
    parent = list(range(tree.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def lighter_beyond(inner, outer):
        return mu(sig, oracle_far_marks(tree, inner, outer)) < 1

    for u, v in tree.edges:
        if mu(sig, oracle_far_marks(tree, u, v)) == 1:
            parent[find(u)] = find(v)
    groups = {}
    for j in range(tree.num_vertices):
        groups.setdefault(find(j), set()).add(j)
    principal, rest = [], set()
    for grp in sorted(groups.values(), key=min):
        leaving = [(u, v) for u in grp for v in oracle_adj(tree)[u] if v not in grp]
        if all(lighter_beyond(u, v) for u, v in leaving):
            principal.append(frozenset(grp))
        else:
            rest |= grp
    return principal, frozenset(rest)


def oracle_exponent_vector(tree, j, sig):
    """``d * mu_S`` from :func:`boundary_weight` at each node whose light side
    (``I0`` of the ``r = 1`` :class:`MultiBlockPartition`) holds vertex ``j``."""
    out = {}
    adj = oracle_adj(tree)
    for u, v in tree.edges:
        part = MultiBlockPartition(
            oracle_orient(oracle_far_marks(tree, v, u), oracle_far_marks(tree, u, v), sig)
        )
        light_end = u if oracle_far_marks(tree, v, u) == part.blocks[0] else v
        # vertices on the light end's side of the edge
        reached, stack = {light_end}, [light_end]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if {cur, nxt} != {u, v} and nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        val = sig.d * boundary_weight(part, sig)
        assert val.denominator == 1
        out[(u, v)] = int(val) if j in reached else 0
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def any_signature(n):
    # enumeration depends on n only
    return validate_signature(2, [-1] * (n - 1) + [n - 5])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_enumeration_matches_oracle_at_every_depth(n):
    levels = oracle_enumerate(n, n - 3)
    for depth in range(n - 2):
        got = enumerate_stable_trees(any_signature(n), depth)
        keys = [t.canonical_key() for t in got]
        assert keys == sorted(keys, key=lambda k: (len(k), k))
        assert len(set(keys)) == len(keys)
        assert keys == [oracle_splits(t) for t in got]
        assert set(keys) == {oracle_splits(t) for level in levels[:depth + 1] for t in level}


@pytest.mark.parametrize(
    "n,counts", [(6, (1, 25, 105, 105)), (7, (1, 56, 490, 1260, 945))]
)
def test_counts_per_codimension(n, counts):
    trees = enumerate_stable_trees(any_signature(n), n - 3)
    assert tuple(sum(len(t.edges) == e for t in trees) for e in range(n - 2)) == counts


# ---------------------------------------------------------------------------
# random trees in random vertex numbering
# ---------------------------------------------------------------------------


@st.composite
def trees(draw, n=None):
    """Grow a tree by vertex splits, then renumber its vertices at random."""
    n = draw(st.integers(4, 7)) if n is None else n
    tree = StableTree((frozenset(range(1, n + 1)),), ())
    for _ in range(draw(st.integers(0, n - 3))):
        choices = [(j, s) for j in range(tree.num_vertices)
                   for s in oracle_vertex_splits(tree, j)]
        if not choices:
            break
        j, (marks, nbrs) = draw(st.sampled_from(choices))
        tree = oracle_split_vertex(tree, j, marks, nbrs)
    return renumbered(tree, draw(st.permutations(range(tree.num_vertices))))


def renumbered(tree, perm):
    """The same tree with vertex ``j`` renamed ``perm[j]``."""
    marks = [None] * tree.num_vertices
    for old, new in enumerate(perm):
        marks[new] = tree.vertex_marks[old]
    return StableTree(tuple(marks), tuple((perm[u], perm[v]) for u, v in tree.edges))


def relabel_mask(mask, sigma):
    return sum(1 << (sigma[i] - 1) for i in range(len(sigma)) if mask >> i & 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trees())
def test_far_side_table_matches_searches(tree):
    assert tree.canonical_key() == oracle_splits(tree)
    adj = oracle_adj(tree)
    for j in range(tree.num_vertices):
        assert tree.neighbors(j) == sorted(adj[j])
        for k in range(tree.num_vertices):
            assert tree.has_edge(j, k) == (k in adj[j])
            if k in adj[j]:
                assert tree.far_marks(j, k) == oracle_far_marks(tree, j, k)
            assert tree._path(j, k) == oracle_path(adj, j, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trees())
def test_from_splits_round_trip(tree):
    n, key = tree.n, tree.canonical_key()
    rebuilt = StableTree.from_splits(n, key)
    assert rebuilt == tree.canonical()
    assert rebuilt.canonical_key() == key
    assert 1 in rebuilt.vertex_marks[0]
    # the same curve: equal canonical forms under the oracle's renumbering
    assert oracle_canonical_form(rebuilt)[0] == oracle_canonical_form(tree)[0]
    assert StableTree.from_splits(n, reversed(key)) == rebuilt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trees(), st.data())
def test_canonical_key_under_renumbering_and_relabeling(tree, data):
    n, key = tree.n, tree.canonical_key()
    perm = data.draw(st.permutations(range(tree.num_vertices)))
    assert renumbered(tree, perm).canonical_key() == key
    sigma = data.draw(st.permutations(range(1, n + 1)))
    full = (1 << n) - 1
    images = (relabel_mask(k, sigma) for k in key)
    assert tree.relabeled(sigma).canonical_key() == tuple(
        sorted(m if m & 1 else full ^ m for m in images)
    )


BAD_SPLITS = [
    ([0b000111, 0b001011], r"^splits 0b111 and 0b1011 cross$"),  # {1,2,3}, {1,2,4}
    ([0b000110], r"^split 0b110 does not hold marking 1$"),
    ([0b000011, 0b000011], r"^split 0b11 given twice$"),
    ([0b011111], r"^split 0b11111 leaves fewer than 2 markings on a side$"),  # far side {6}
    ([0b001011, 0b000111], r"^splits 0b111 and 0b1011 cross$"),  # in either order
    ([0b000001], r"^split 0b1 leaves fewer than 2 markings on a side$"),
    ([0b1000011], r"^split 0b1000011 has a marking outside 1\.\.6$"),
    ([-0b11], r"^split -0b11 has a marking outside 1\.\.6$"),
]


@pytest.mark.parametrize(
    "splits,message", BAD_SPLITS, ids=[f"splits{i}" for i in range(len(BAD_SPLITS))]
)
def test_from_splits_rejects_bad_sets(splits, message):
    with pytest.raises(StrataError, match=message):
        StableTree.from_splits(6, splits)


# ---------------------------------------------------------------------------
# principal subcurves and exponent vectors
# ---------------------------------------------------------------------------

# signatures with blocks of k_B = -d (weight exactly 1): there the tie rule
# picks I0 and the node's exponent is d + k_I0 = 0
TIE_SIGNATURES = [
    validate_signature(2, [-1, -1, -1, -1]),
    validate_signature(2, [-1, -1, -1, -1, -1, 1]),
    validate_signature(3, [-1] * 6),
    validate_signature(2, [2, -1, -1, -1, -1, -1, -1]),
    validate_signature(2, [1, 0, -1, -1, -1, -1, -1]),
    validate_signature(3, [1, -2, -2, 1, -2, -2]),
    validate_signature(4, [-3, -1, -3, -1, 0, 0]),
]


def assert_matches_oracle(tree, sig):
    assert principal_subcurves(tree, sig) == oracle_principal_subcurves(tree, sig)
    for j in range(tree.num_vertices):
        assert exponent_vector(tree, j, sig).entries == oracle_exponent_vector(tree, j, sig)


@pytest.mark.parametrize("sig", TIE_SIGNATURES, ids=lambda s: f"d{s.d}n{s.n}")
def test_principal_and_exponents_match_oracle(sig):
    for tree in enumerate_stable_trees(sig, min(3, sig.n - 3)):
        assert_matches_oracle(tree, sig)


# E-nontrivial signatures: some stable tree has two principal subcurves
E_NONTRIVIAL = [
    validate_signature(3, [2, -2, -2, -2, -2]),
    validate_signature(3, [4, -2, -2, -2, -2, -2]),
    validate_signature(3, [6, -2, -2, -2, -2, -2, -2]),
    validate_signature(4, [3, -3, -3, -3, -1, -1]),
]


def split_walk_oracle(sig):
    """Every key of the walk, in the walk's order, read off its own
    :func:`_laminar` table by the whole of :func:`_principal`.  Yields the
    key, its principal groups and ruled-out vertices, and the branch of the
    walk's fold that its last split takes:
    ``"zero"`` (weight-0 node), ``"heavy"`` or ``"heavy-on-ruled"`` (a heavy
    leaf under a group not yet or already ruled out) or ``"light"``."""
    n, full, d = sig.n, (1 << sig.n) - 1, sig.d
    ruled_masks = {}  # key -> far masks of its ruled-out vertices
    for key in _split_keys(n, n - 3):
        fars, parent, _ = _laminar(n, key)
        masks = (full, *fars)
        principal, rest = _principal(sig, parent, [_mask_k(sig, m) for m in masks])
        ruled_masks[key] = {masks[v] for v in rest}
        branch = None
        if key:
            leaf = fars.index(full ^ key[-1]) + 1
            kv = _mask_k(sig, masks[leaf])
            if kv == -d:
                branch = "zero"
            elif kv > -d:
                branch = "light"
            elif masks[parent[leaf]] in ruled_masks[key[:-1]]:
                branch = "heavy-on-ruled"
            else:
                branch = "heavy"
        yield key, (principal, rest), branch


def check_walk_at_every_depth(sig):
    """``_any_tree_in_support`` at each depth against the per-key oracle;
    returns the set of fold branches the walk met."""
    n = sig.n
    first = n - 2  # least edge count of a key with two principal groups
    branches = set()
    for key, (principal, _), branch in split_walk_oracle(sig):
        branches.add(branch)
        if len(principal) >= 2:
            first = min(first, len(key))
    for depth in range(n - 2):
        assert _any_tree_in_support(sig, depth) == (first <= depth), (sig, depth)
    return branches


@pytest.mark.parametrize("sig", TIE_SIGNATURES + E_NONTRIVIAL, ids=lambda s: f"d{s.d}n{s.n}")
def test_principal_on_split_walk_tables_matches_trees(sig):
    # every split set, read off its laminar table; StableTree.from_splits
    # numbers vertices by the same table
    n = sig.n
    in_support = False
    for key, got, _ in split_walk_oracle(sig):
        tree = StableTree.from_splits(n, key)
        assert got == principal_subcurves(tree, sig) == oracle_principal_subcurves(tree, sig)
        in_support = in_support or len(got[0]) >= 2
    check_walk_at_every_depth(sig)
    assert _any_tree_in_support(sig, n - 3) == in_support == (not blowup_is_trivial(sig))
    assert in_support or sig not in E_NONTRIVIAL


def all_signatures(n, d):
    """Every signature at ``(n, d)`` up to relabeling, ``kappa`` non-decreasing."""
    top = -2 * d - (n - 1) * (1 - d)
    return [validate_signature(d, kappa)
            for kappa in itertools.combinations_with_replacement(range(1 - d, top + 1), n)
            if sum(kappa) == -2 * d]


def small_signatures(seed):
    """Every signature at n <= 6 and d = 2..4, in both orders of kappa (the
    walk's order of splits follows the numbering), and ten at n = 7 drawn
    from a generator seeded with ``seed``."""
    sigs = [sig for n in (4, 5, 6) for d in (2, 3, 4) for sig in all_signatures(n, d)]
    sigs += [validate_signature(sig.d, sig.kappa[::-1]) for sig in sigs]
    rng = random.Random(seed)
    at_7 = {d: all_signatures(7, d) for d in (2, 3, 4)}
    for _ in range(10):
        sig = rng.choice(at_7[rng.choice((2, 3, 4))])
        sigs.append(validate_signature(sig.d, rng.sample(sig.kappa, 7)))
    return sigs


def test_split_walk_fold_matches_oracle_on_every_small_signature():
    branches = set()
    for sig in small_signatures("split-walk-fold"):
        branches |= check_walk_at_every_depth(sig)
    assert branches == {None, "zero", "heavy", "heavy-on-ruled", "light"}


def test_ideal_support_is_the_union_of_star_closures():
    # the stratum of T lies in the ideal support (two or more principal
    # subcurves) iff T's split set holds the splits I_j | rest, j = 1..r, of
    # the star of some element {I0, I1, .., Ir} of P-hat with r >= 2: the
    # images of the exceptional divisors E_S cover the support exactly.  The
    # P-hat walk knows nothing of principal subcurves, so this checks that
    # rule on every tree of every small signature
    trees_of = {}
    met = set()
    for sig in small_signatures("star-closures"):
        n, full = sig.n, (1 << sig.n) - 1
        if n not in trees_of:
            trees_of[n] = [(frozenset(key), StableTree.from_splits(n, key))
                           for key in _split_keys(n, n - 3)]
        # each star's splits, each written by its side holding marking 1
        stars = [frozenset(b if b & 1 else full ^ b for b in masks[1:])
                 for masks, _ in _p_hat_walk(sig, r_min=2)]
        for splits, tree in trees_of[n]:
            covered = [star for star in stars if star <= splits]
            assert in_ideal_support(tree, sig) == bool(covered), (sig, sorted(splits))
            met.add(max(map(len, covered), default=0))
    assert {0, 2} <= met


def affine_rank(vectors):
    """Rank of the differences ``v - vectors[0]``, by exact elimination."""
    rows = [[Fraction(a - b) for a, b in zip(v, vectors[0])] for v in vectors[1:]]
    rank = 0
    for col in range(len(vectors[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def equal_positive_pairing(vectors):
    """Whether some weight ``w >= 1`` (so, scaled, a strictly positive
    integer one) pairs equally with every vector, decided exactly: the
    equalities ``(v - vectors[0]) . w = 0`` each eliminate one variable from
    the inequalities ``-w_e <= -1``, then Fourier-Motzkin eliminates every
    variable, and the system is feasible iff every bound left is >= 0."""
    size = len(vectors[0])
    eqs = [[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]]
    ineqs = [([-(e == f) for f in range(size)], -1) for e in range(size)]  # row . w <= bound
    while eqs:
        eq = eqs.pop()
        p = next((e for e in range(size) if eq[e]), None)
        if p is None:
            continue
        if eq[p] < 0:
            eq = [-x for x in eq]
        a = eq[p]
        # scale each row by a > 0 and subtract a multiple of the equality
        # (which is zero), so that coefficient p goes
        eqs = [[a * x - r[p] * y for x, y in zip(r, eq)] for r in eqs]
        ineqs = [([a * x - row[p] * y for x, y in zip(row, eq)], a * bound)
                 for row, bound in ineqs]
    for e in range(size):
        keep = [(row, b) for row, b in ineqs if not row[e]]
        ups = [(row, b) for row, b in ineqs if row[e] > 0]
        downs = [(row, b) for row, b in ineqs if row[e] < 0]
        keep += [([-lo[e] * x + up[e] * y for x, y in zip(up, lo)], -lo[e] * bu + up[e] * bl)
                 for up, bu in ups for lo, bl in downs]
        ineqs = keep
    return all(bound >= 0 for _, bound in ineqs)


def test_fiber_dimension_on_every_small_signature():
    # claim (b) of fiber_projective_dim: on a tree in the ideal support the
    # r0 generators are distinct and affinely independent, and some strictly
    # positive integer edge weight pairs equally with them, so they span a
    # bounded (r0 - 1)-face of the Newton polyhedron.  On every tree, the
    # components of a principal subcurve share their beta, which is why
    # ideal_generators reads one component per subcurve.  The grid has
    # 51,228 pairs, 3,416 of them in the support (48 with r0 = 3)
    trees_of = {}
    shared, met = 0, set()
    for sig in small_signatures("fiber-dimension"):
        n = sig.n
        if n not in trees_of:
            trees_of[n] = [StableTree.from_splits(n, key) for key in _split_keys(n, n - 3)]
        for tree in trees_of[n]:
            principal, _ = principal_subcurves(tree, sig)
            for group in principal:
                if len(group) > 1:
                    shared += 1
                    betas = {exponent_vector(tree, j, sig) for j in group}
                    assert len(betas) == 1, (sig, tree, group)
            if len(principal) < 2:
                continue
            met.add(len(principal))
            gens = ideal_generators(tree, sig)
            r0 = fiber_projective_dim(tree, sig) + 1
            assert len(gens) == r0 == len(principal), (sig, tree)
            vectors = [[p for _, p in g.entries] for g in gens]
            assert affine_rank(vectors) == r0 - 1, (sig, tree)
            assert equal_positive_pairing(vectors), (sig, tree)
    assert shared and met == {2, 3}


def test_equal_positive_pairing_decides_both_ways():
    assert equal_positive_pairing([[2, 0, 1], [0, 1, 0]])  # w = (1, 3, 1)
    assert not equal_positive_pairing([[1, 0], [2, 0]])  # w_0 = 0
    assert not equal_positive_pairing([[3, 0, 0], [0, 1, 0], [3, 1, 0]])  # w_1 = 0
    assert not equal_positive_pairing([[1, 1], [0, 0]])
    assert affine_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert affine_rank([[1, 0], [2, 0], [3, 0]]) == 1


@st.composite
def signed_trees(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, 7))
    # every k_i starts at its floor 1 - d; the excess up to -2d is spread
    # over the markings one unit at a time
    excess = n * (d - 1) - 2 * d
    kappa = [1 - d] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=excess, max_size=excess)):
        kappa[i] += 1
    return validate_signature(d, kappa), draw(trees(n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees())
def test_principal_and_exponents_match_oracle_in_any_numbering(case):
    sig, tree = case
    assert_matches_oracle(tree, sig)


def test_exponent_vector_rejects_missing_vertex():
    tree = StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),))
    with pytest.raises(StrataError):
        exponent_vector(tree, 2, TIE_SIGNATURES[1])
