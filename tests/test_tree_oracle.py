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
    _principal,
    _split_keys,
    boundary_weight,
    enumerate_stable_trees,
    exponent_vector,
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


@pytest.mark.parametrize(
    "splits",
    [[0b000111, 0b001011],  # {1,2,3} and {1,2,4} cross
     [0b000110],  # does not hold marking 1
     [0b000011, 0b000011],  # repeated
     [0b011111]],  # far side of one marking
)
def test_from_splits_rejects_bad_sets(splits):
    with pytest.raises(StrataError):
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


@pytest.mark.parametrize("sig", TIE_SIGNATURES + E_NONTRIVIAL, ids=lambda s: f"d{s.d}n{s.n}")
def test_principal_on_split_walk_tables_matches_trees(sig):
    # every split set, read off its laminar table as the --max-codim walk
    # does; StableTree.from_splits numbers vertices by the same table
    n, full = sig.n, (1 << sig.n) - 1
    in_support = False
    for key in _split_keys(n, n - 3):
        fars, parent, _ = _laminar(n, key)
        tree = StableTree.from_splits(n, key)
        got = _principal(sig, parent, [full, *fars])
        assert got == principal_subcurves(tree, sig) == oracle_principal_subcurves(tree, sig)
        in_support = in_support or len(got[0]) >= 2
    assert _any_tree_in_support(sig, n - 3) == in_support == (not blowup_is_trivial(sig))
    assert in_support or sig not in E_NONTRIVIAL


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
