"""The split orientation rule against a ``Fraction`` oracle.

Every layer that orients a split ``I0|I1`` asks one rule in ``strata``: the
side with the larger ``k`` is ``I0`` and, on a tie, the side holding marking
1.  The oracle is the ``Fraction`` rule that numbered two-block partitions
before: the lighter block is ``I0`` and, when both weigh 1, the block
holding marking 1.  ``MultiBlockPartition.from_split`` is checked with its
two sides in either order.  Half of the random signatures are drawn with a split of
``k_B = -d``, so the tie branch is exercised.
"""

import contextlib
import io
import json

from fraction_weights import mu, oracle_orient
from hypothesis import given, settings
from hypothesis import strategies as st

from strata0.cli import main
from strata0.strata import (
    StableTree,
    MultiBlockPartition,
    _mask_marks,
    _p_hat_walk,
    exponent_vector,
    validate_signature,
)


def spread(draw, size, total, floor):
    """``size`` integers ``>= floor`` summing to ``total``, one unit at a time."""
    vals = [floor] * size
    excess = total - size * floor
    for i in draw(st.lists(st.integers(0, size - 1), min_size=excess, max_size=excess)):
        vals[i] += 1
    return vals


@st.composite
def signatures(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, 8))
    if draw(st.booleans()):
        # a balanced split: s markings with k = -d, the other n - s too
        s = draw(st.integers(2, n - 2))
        sides = spread(draw, s, -d, 1 - d) + spread(draw, n - s, -d, 1 - d)
        kappa = draw(st.permutations(sides))
    else:
        kappa = spread(draw, n, -2 * d, 1 - d)
    return validate_signature(d, kappa)


@st.composite
def signed_trees(draw):
    """A signature and a tree of 1 to ``n - 3`` random compatible splits (one
    of them balanced, if the signature has such a split), vertices
    renumbered.  Each split is drawn from those compatible with the ones
    before it, so the depth is drawn, not filtered: every compatible set of
    fewer than ``n - 3`` splits extends by one more."""
    sig = draw(signatures())
    n = sig.n
    full = (1 << n) - 1
    # split masks of the side holding marking 1; a tie has weight 1 on both sides
    cands = [a for a in range(1, full, 2) if 2 <= a.bit_count() <= n - 2]
    ties = [a for a in cands if mu(sig, _mask_marks(a)) == 1]
    chosen = [draw(st.sampled_from(ties))] if ties else []
    for _ in range(len(chosen), draw(st.integers(1, n - 3))):
        cands = [a for a in cands if a not in chosen
                 and all((a & c) in (a, c) or a | c == full for c in chosen)]
        chosen.append(draw(st.sampled_from(cands)))
    tree = StableTree.from_splits(n, chosen)
    perm = draw(st.permutations(range(tree.num_vertices)))
    marks = [None] * tree.num_vertices
    for v, m in enumerate(tree.vertex_marks):
        marks[perm[v]] = m
    return sig, StableTree(tuple(marks), tuple((perm[u], perm[v]) for u, v in tree.edges))


def vertices_beyond(tree, j, k):
    """Vertices on the ``k``-side of the edge ``{j, k}``, by a search from ``k``."""
    reached, stack = {k}, [k]
    while stack:
        for nxt in tree.neighbors(stack.pop()):
            if nxt != j and nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return reached


def divisor_json(sig):
    out = io.StringIO()
    kappa = ",".join(map(str, sig.kappa))
    with contextlib.redirect_stdout(out):
        assert main(["divisor", "--d", str(sig.d), f"--kappa={kappa}", "--json"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees())
def test_every_orientation_matches_oracle(case):
    sig, tree = case
    n = sig.n
    # the oriented split walk, and from_split in either order
    seen = 0
    for (a, b), _ in _p_hat_walk(sig, r_max=1):
        i0, i1 = frozenset(_mask_marks(a)), frozenset(_mask_marks(b))
        assert (i0, i1) == oracle_orient(i0, i1, sig)
        for x, y in ((i0, i1), (i1, i0)):
            part = MultiBlockPartition.from_split(x, y, sig)
            assert (part.blocks[0], part.blocks[1]) == (i0, i1)
        seen += 1
    assert seen == 2 ** (n - 1) - n - 1
    # edge_partition, and the light side in exponent_vector: beta_j is
    # d * mu_S on a node exactly when j lies on its light side
    betas = [exponent_vector(tree, j, sig).as_dict() for j in range(tree.num_vertices)]
    for u, v in tree.edges:
        side_u, side_v = tree.far_marks(v, u), tree.far_marks(u, v)
        i0, i1 = oracle_orient(side_u, side_v, sig)
        for x, y in ((u, v), (v, u)):
            part = tree.edge_partition(x, y, sig)
            assert (part.blocks[0], part.blocks[1]) == (i0, i1)
        light = vertices_beyond(tree, v, u) if i0 == side_u else vertices_beyond(tree, u, v)
        d_mu_s = sig.d * (1 - mu(sig, i0))
        for j, beta in enumerate(betas):
            assert beta[(u, v)] == (d_mu_s if j in light else 0)
    # the block order of every split in divisor --json
    payload = divisor_json(sig)
    for form in ("boundary_form", "psi_form"):
        for term in payload[form]:
            if "boundary" in term:
                a, b = map(frozenset, term["boundary"])
                assert (a, b) == oracle_orient(a, b, sig)
