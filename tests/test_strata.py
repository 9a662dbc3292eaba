"""Core combinatorics: signatures, partitions, trees, principal subcurves."""

import itertools
import random
from fractions import Fraction as F

import pytest
from fraction_weights import mu, mus
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_phat_oracle import oracle_m_value, oracle_p_hat

from strata0 import strata
from strata0.local_family import build_chart
from strata0.strata import (
    BadD,
    EntryTooSmall,
    MultiBlockPartition,
    NoSuchEdge,
    NotInPHat,
    NumberingViolation,
    Signature,
    StableTree,
    StrataError,
    SumMismatch,
    TooFewMarks,
    TwoBlockHasNoOrders,
    boundary_weight,
    bundle_rank,
    edge_weight,
    enumerate_p_hat,
    enumerate_stable_trees,
    enumerate_two_block,
    _leading_exceptional_terms,
    exceptional_divisor,
    exponent_vector,
    fiber_projective_dim,
    ideal_generators,
    in_ideal_support,
    m_value,
    node_weights,
    principal_subcurves,
    validate_signature,
    vanishing_orders,
)


def sig2(*kappa):
    return validate_signature(2, list(kappa))


SIG_QUAD4 = sig2(-1, -1, -1, -1)
SIG_POLE6 = sig2(-1, -1, -1, -1, -1, 1)
SIG_STAR7 = sig2(2, -1, -1, -1, -1, -1, -1)
SIG_CUBIC6 = validate_signature(3, [-1] * 6)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


class TestSignature:
    def test_basic_weights(self):
        assert mus(SIG_QUAD4) == (F(1, 2),) * 4

    def test_negative_weight_pole(self):
        assert mus(SIG_POLE6) == (F(1, 2),) * 5 + (F(-1, 2),)

    def test_weight_sum_is_two(self):
        for sig in (SIG_QUAD4, SIG_POLE6, SIG_STAR7, SIG_CUBIC6):
            assert sum(mus(sig)) == 2
            assert all(m < 1 for m in mus(sig))

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            validate_signature(2, [-1, -1, -1])

    def test_entry_too_small(self):
        with pytest.raises(EntryTooSmall):
            validate_signature(2, [-2, -1, -1, 0])

    def test_bad_d(self):
        with pytest.raises(BadD):
            validate_signature(1, [-1, -1])

    def test_too_few_marks(self):
        with pytest.raises(TooFewMarks):
            validate_signature(3, [-3, -3])

    @pytest.mark.parametrize(
        "call,message",
        [(lambda: Signature(2.5, (-1,) * 5), r"^d = 2\.5 is not an integer$"),
         (lambda: validate_signature(2.7, [-1] * 4), r"^d = 2\.7 is not an integer$"),
         (lambda: Signature(2, (-1.0, -1, -1, -1)), r"^k_1 = -1\.0 is not an integer$")],
    )
    def test_non_integers_refused(self, call, message):
        # int() would truncate 2.7 to 2 and accept the signature of d = 2
        with pytest.raises(StrataError, match=message):
            call()

    def test_generator_kappa_is_read_once(self):
        # the integer check used to consume the generator before it was stored
        quad = validate_signature(2, (-1,) * 4)
        for build in (Signature, validate_signature):
            assert build(2, (k for k in (-1, -1, -1, -1))) == quad, build

    def test_index_objects_accepted_alike(self):
        # both entry points convert with operator.index and store plain ints
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        for build in (Signature, validate_signature):
            sig = build(Index(2), [Index(-1)] * 4)
            assert sig == validate_signature(2, (-1,) * 4), build
            assert type(sig.d) is int and set(map(type, sig.kappa)) == {int}, build

    def test_list_kappa_is_stored_as_a_tuple(self):
        # a list kappa used to build, and then hash() raised TypeError
        sig = Signature(2, [-1, -1, -1, -1])
        assert sig.kappa == (-1,) * 4
        assert hash(sig) == hash(validate_signature(2, (-1,) * 4))
        assert sig == validate_signature(2, (-1,) * 4)

    def test_n3_accepted(self):
        sig = validate_signature(3, [-2, -2, -2])
        assert sig.n == 3
        assert enumerate_two_block(sig) == []
        assert enumerate_p_hat(sig) == []
        assert enumerate_stable_trees(sig, 0)[0].num_vertices == 1


class TestBundleRank:
    @pytest.mark.parametrize(
        "d,kappa,rank",
        [
            (2, [-1] * 4, 1),
            (3, [-1] * 6, 7),
            (3, [-2, -2, -2], 1),
            (4, [-1] * 8, 17),
        ],
    )
    def test_rank(self, d, kappa, rank):
        assert bundle_rank(validate_signature(d, kappa)) == rank


# ---------------------------------------------------------------------------
# two-block partitions
# ---------------------------------------------------------------------------


def brute_two_block(n):
    """Oracle: all splits by direct subset enumeration."""
    out = set()
    for bits in range(1, 2 ** n - 1):
        side = frozenset(i + 1 for i in range(n) if bits >> i & 1)
        rest = frozenset(range(1, n + 1)) - side
        if len(side) >= 2 and len(rest) >= 2:
            out.add(frozenset({side, rest}))
    return out


class TestTwoBlock:
    @pytest.mark.parametrize("n,count", [(4, 3), (5, 10), (6, 25), (7, 56), (8, 119), (9, 246)])
    def test_counts_match_brute_force(self, n, count):
        k = [-1] * n
        k[-1] += -4 - sum(k)
        sig = sig2(*k)
        parts = enumerate_two_block(sig)
        assert len(parts) == count == 2 ** (n - 1) - n - 1
        assert {frozenset({p.blocks[0], p.blocks[1]}) for p in parts} == brute_two_block(n)

    def test_canonical_numbering(self):
        for part in enumerate_two_block(SIG_POLE6):
            assert mu(SIG_POLE6, part.blocks[0]) <= 1 <= mu(SIG_POLE6, part.blocks[1])

    def test_tie_rule_block_of_one_first(self):
        p = MultiBlockPartition.from_split({3, 4}, {1, 2}, SIG_QUAD4)
        assert p.blocks[0] == frozenset({1, 2})

    def test_boundary_weight_examples(self):
        for part in enumerate_two_block(SIG_QUAD4):
            assert boundary_weight(part, SIG_QUAD4) == 0
        p = MultiBlockPartition.from_split({5, 6}, {1, 2, 3, 4}, SIG_POLE6)
        assert boundary_weight(p, SIG_POLE6) == 1
        p = MultiBlockPartition.from_split({1, 2}, {3, 4, 5, 6}, SIG_CUBIC6)
        assert boundary_weight(p, SIG_CUBIC6) == F(1, 3)

    def test_numbering_violation(self):
        bad = MultiBlockPartition((frozenset({1, 2, 3, 4}), frozenset({5, 6})))
        with pytest.raises(NumberingViolation):
            boundary_weight(bad, SIG_POLE6)

    def test_weight_is_integral_multiple(self):
        for sig in (SIG_POLE6, SIG_STAR7, SIG_CUBIC6):
            for part in enumerate_two_block(sig):
                assert (sig.d * boundary_weight(part, sig)).denominator == 1

    def test_boundary_weight_needs_two_blocks(self):
        part = MultiBlockPartition.from_blocks({1}, [{2, 3, 4}, {5, 6, 7}])
        with pytest.raises(StrataError, match="2 blocks"):
            boundary_weight(part, SIG_STAR7)

    def test_boundary_weight_checks_cover(self):
        # a marking 0 must not read kappa[-1], and overlapping blocks must not pass
        for blocks in (({0, 1}, {2, 3, 4, 5}), ({1, 2}, {2, 3, 4, 5, 6})):
            part = MultiBlockPartition(tuple(map(frozenset, blocks)))
            with pytest.raises(NotInPHat):
                boundary_weight(part, SIG_POLE6)

    def test_from_split_checks_cover_before_weights(self):
        # a marking 0 must not read kappa[-1]
        with pytest.raises(NotInPHat, match="cover"):
            MultiBlockPartition.from_split({0, 1}, {2, 3, 4}, SIG_QUAD4)
        with pytest.raises(NotInPHat, match="both sides"):
            MultiBlockPartition.from_split({1}, {2, 3, 4}, SIG_QUAD4)

    def test_p_hat_starts_with_two_block(self):
        # every signature with n = 4..8 and d = 2..4, up to relabeling: the
        # r = 1 elements of P-hat are the two-block partitions, equal objects
        # in the same order, and every later element has r >= 2
        count = 0
        for n in range(4, 9):
            for d in range(2, 5):
                top = -2 * d - (n - 1) * (1 - d)
                for kappa in itertools.combinations_with_replacement(range(1 - d, top + 1), n):
                    if sum(kappa) == -2 * d:
                        sig = validate_signature(d, kappa)
                        two = enumerate_two_block(sig)
                        phat = enumerate_p_hat(sig)
                        assert phat[: len(two)] == two, (d, kappa)
                        assert all(p.r >= 2 for p in phat[len(two):]), (d, kappa)
                        count += 1
        assert count == 412


# ---------------------------------------------------------------------------
# stable trees
# ---------------------------------------------------------------------------


class TestStableTree:
    def test_validation_rejects_unstable(self):
        with pytest.raises(StrataError):
            StableTree((frozenset({1, 2, 3}), frozenset({4})), ((0, 1),))

    def test_validation_rejects_disconnected(self):
        with pytest.raises(StrataError, match="not connected"):
            StableTree(
                (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}), frozenset({7, 8, 9})),
                ((0, 1), (1, 2), (0, 2)),
            )

    @pytest.mark.parametrize(
        "edges", [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 0), (0, 2))]
    )
    def test_validation_rejects_repeated_edges(self, edges):
        # the repeat also leaves a vertex unstable or the edge count off;
        # the error names the repeat
        marks = (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))
        with pytest.raises(StrataError, match=r"^edge \(0, 1\) given twice$"):
            StableTree(marks, edges)

    @pytest.mark.parametrize("edges", [((0, 1),), ((0, 1), (1, 2), (0, 2))],
                             ids=["too-few", "cycle"])
    def test_validation_rejects_edge_count_off_by_a_tree(self, edges):
        # the cycle is connected and leaves every vertex stable: only the
        # count refuses it
        marks = (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))
        with pytest.raises(StrataError, match=r"^a tree on 3 vertices needs 2 edges$"):
            StableTree(marks, edges)

    def test_validation_rejects_overlapping_marking_sets(self):
        marks = (frozenset({1, 2, 3}), frozenset({3, 4, 5}))
        with pytest.raises(StrataError, match=r"^vertex marking sets must be disjoint$"):
            StableTree(marks, ((0, 1),))

    @pytest.mark.parametrize("edge", [(0, 0), (0, 2), (-1, 0)], ids=["loop", "high", "negative"])
    def test_validation_rejects_bad_edges(self, edge):
        marks = (frozenset({1, 2}), frozenset({3, 4}))
        with pytest.raises(StrataError, match=rf"^bad edge \({edge[0]},{edge[1]}\)$"):
            StableTree(marks, (edge,))

    def test_enumeration_counts(self):
        sig5 = sig2(-1, -1, -1, -1, 0)
        assert len(enumerate_stable_trees(SIG_QUAD4, 1)) == 1 + 3
        assert len(enumerate_stable_trees(sig5, 1)) == 1 + 10
        # 15 two-edge chains on 5 markings: split sizes (2,1,2)
        assert len(enumerate_stable_trees(sig5, 2)) == 1 + 10 + 15

    @pytest.mark.parametrize("max_edges", [-1, -5, 4])
    def test_enumeration_rejects_edge_bound_out_of_range(self, max_edges):
        # SIG_POLE6 has n - 3 = 3
        with pytest.raises(StrataError):
            enumerate_stable_trees(SIG_POLE6, max_edges)

    def test_enumeration_no_duplicates(self):
        trees = enumerate_stable_trees(SIG_POLE6, 3)
        keys = [t.canonical_key() for t in trees]
        assert len(keys) == len(set(keys))

    def test_enumeration_matches_labeled_brute_force(self):
        # oracle: assign markings to 1..3 chain/star slots directly and dedup
        sig5 = sig2(-1, -1, -1, -1, 0)
        got = {t.canonical_key() for t in enumerate_stable_trees(sig5, 2) if t.edges}
        oracle = set()
        marks = range(1, 6)
        # one edge: every split with both sides >= 2
        for bits in range(1, 2 ** 5 - 1):
            a = frozenset(i for i in marks if bits >> (i - 1) & 1)
            b = frozenset(marks) - a
            if len(a) >= 2 and len(b) >= 2:
                oracle.add(StableTree((a, b), ((0, 1),)).canonical_key())
        # two edges: the only 3-vertex tree is a chain; middle needs >= 1 mark
        for assign in itertools.product((0, 1, 2), repeat=5):
            blocks = [frozenset(i for i in marks if assign[i - 1] == s) for s in range(3)]
            if len(blocks[0]) >= 2 and len(blocks[2]) >= 2 and len(blocks[1]) >= 1:
                tree = StableTree(tuple(blocks), ((0, 1), (1, 2)))
                oracle.add(tree.canonical_key())
        assert got == oracle

    def test_edge_count_matches_two_block(self):
        trees = [t for t in enumerate_stable_trees(SIG_POLE6, 1) if t.edges]
        assert len(trees) == len(enumerate_two_block(SIG_POLE6))

    def test_canonical_is_isomorphism_invariant(self):
        t1 = StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),))
        t2 = StableTree((frozenset({4, 5, 6}), frozenset({1, 2, 3})), ((0, 1),))
        assert t1.canonical_key() == t2.canonical_key()

    def test_far_marks(self):
        tree = StableTree(
            (frozenset({1, 2}), frozenset({3}), frozenset({4, 5})), ((0, 1), (1, 2))
        )
        assert tree.far_marks(0, 1) == frozenset({3, 4, 5})
        assert tree.far_marks(1, 0) == frozenset({1, 2})
        with pytest.raises(NoSuchEdge):
            tree.far_marks(0, 2)


# ---------------------------------------------------------------------------
# node and edge weights
# ---------------------------------------------------------------------------


TREE_36 = StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),))


class TestNodeWeights:
    def test_pole_example(self):
        assert node_weights(TREE_36, (0, 1), SIG_POLE6) == (F(1, 2), F(3, 2))

    def test_balanced_example(self):
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4})), ((0, 1),))
        assert node_weights(tree, (0, 1), SIG_QUAD4) == (1, 1)

    def test_cubic_example(self):
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4, 5, 6})), ((0, 1),))
        assert node_weights(tree, (0, 1), SIG_CUBIC6) == (F(4, 3), F(2, 3))

    def test_sum_two_and_balance(self):
        # every edge: branch weights sum to 2; every vertex balances to 2
        for sig in (SIG_POLE6, SIG_STAR7):
            for tree in enumerate_stable_trees(sig, 3):
                for u, v in tree.edges:
                    a, b = node_weights(tree, (u, v), sig)
                    assert a + b == 2
                for j in range(tree.num_vertices):
                    bal = mu(sig, tree.vertex_marks[j])
                    for k in tree.neighbors(j):
                        bal += node_weights(tree, (j, k), sig)[0]
                    assert bal == 2

    def test_edge_weight_antisymmetry(self):
        sig = SIG_STAR7
        rng = random.Random(7)
        trees = enumerate_stable_trees(SIG_STAR7, 3)
        for tree in rng.sample(trees, 50):
            for u, v in tree.edges:
                assert edge_weight(tree, (u, v), sig) == -edge_weight(tree, (v, u), sig)
                part = tree.edge_partition(u, v, sig)
                assert abs(edge_weight(tree, (u, v), sig)) == 2 * boundary_weight(part, sig)

    def test_pole_edge_values(self):
        assert edge_weight(TREE_36, (1, 0), SIG_POLE6) == -1
        assert edge_weight(TREE_36, (0, 1), SIG_POLE6) == 1


# ---------------------------------------------------------------------------
# principal subcurves and the ideal
# ---------------------------------------------------------------------------


STAR = StableTree((frozenset({1}), frozenset({2, 3, 4}), frozenset({5, 6, 7})), ((0, 1), (0, 2)))


class TestPrincipal:
    def test_unique_principal(self):
        principal, rest = principal_subcurves(TREE_36, SIG_POLE6)
        assert principal == [frozenset({0})]
        assert rest == frozenset({1})

    def test_star_two_principal(self):
        principal, rest = principal_subcurves(STAR, SIG_STAR7)
        assert sorted(map(sorted, principal)) == [[1], [2]]
        assert rest == frozenset({0})

    def test_zero_weight_contraction(self):
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4})), ((0, 1),))
        principal, rest = principal_subcurves(tree, SIG_QUAD4)
        assert principal == [frozenset({0, 1})]
        assert rest == frozenset()

    def test_always_at_least_one(self):
        for sig in (SIG_POLE6, SIG_STAR7, SIG_CUBIC6):
            for tree in enumerate_stable_trees(sig, 3):
                principal, _ = principal_subcurves(tree, sig)
                assert len(principal) >= 1


class TestExponentVectors:
    def test_unique_principal_gives_zero_vector(self):
        for tree in enumerate_stable_trees(SIG_POLE6, 3):
            principal, _ = principal_subcurves(tree, SIG_POLE6)
            if len(principal) == 1:
                j = min(principal[0])
                assert exponent_vector(tree, j, SIG_POLE6).is_zero()

    def test_star_generators(self):
        gens = ideal_generators(STAR, SIG_STAR7)
        assert {tuple(p for _, p in g.entries) for g in gens} == {(0, 1), (1, 0)}

    def test_difference_supported_on_path(self):
        # beta_j - beta_k only involves nodes separating v_j from v_k
        for sig in (SIG_STAR7, SIG_POLE6):
            for tree in enumerate_stable_trees(sig, 3):
                betas = [exponent_vector(tree, j, sig).as_dict() for j in range(tree.num_vertices)]
                for j in range(tree.num_vertices):
                    for k in range(j + 1, tree.num_vertices):
                        for (u, v) in tree.edges:
                            separates = _separates(tree, (u, v), j, k)
                            if betas[j][(u, v)] != betas[k][(u, v)]:
                                assert separates

    def test_one_exponent_vector_per_principal_subcurve(self, monkeypatch):
        # the components of a principal subcurve share beta (checked on every
        # tree in tests/test_tree_oracle.py), so one is read per subcurve
        calls = []

        def spy(tree, j, sig):
            calls.append(j)
            return exponent_vector(tree, j, sig)

        monkeypatch.setattr(strata, "exponent_vector", spy)
        for sig in (SIG_STAR7, SIG_POLE6, SIG_QUAD4):
            for tree in enumerate_stable_trees(sig, sig.n - 3):
                principal, _ = principal_subcurves(tree, sig)
                calls.clear()
                gens = ideal_generators(tree, sig)
                assert calls == [min(g) for g in principal]
                assert gens == {exponent_vector(tree, min(g), sig) for g in principal}

    def test_support_iff_no_zero_generator(self):
        for sig in (SIG_STAR7, SIG_POLE6):
            for tree in enumerate_stable_trees(sig, 3):
                gens = ideal_generators(tree, sig)
                principal, _ = principal_subcurves(tree, sig)
                has_zero = any(g.is_zero() for g in gens)
                assert in_ideal_support(tree, sig) == (len(principal) >= 2) == (not has_zero)

    def test_star_exponents_match_multiplicities(self):
        # over the stratum of a multi-block partition the center carries the
        # full monomial prod t_k^{m_k} and leaf j drops its own factor
        sig = validate_signature(3, [6, -2, -2, -2, -2, -2, -2])
        part = MultiBlockPartition.from_blocks({1}, [{2, 3}, {4, 5}, {6, 7}])
        ms = [sig.d * (mu(sig, b) - 1) for b in part.blocks[1:]]
        tree = StableTree(part.blocks, ((0, 1), (0, 2), (0, 3)))
        center = exponent_vector(tree, 0, sig).as_dict()
        assert center == {(0, k): ms[k - 1] for k in (1, 2, 3)}
        for leaf in (1, 2, 3):
            beta = exponent_vector(tree, leaf, sig).as_dict()
            expect = {(0, k): (0 if k == leaf else ms[k - 1]) for k in (1, 2, 3)}
            assert beta == expect


def _separates(tree, edge, j, k):
    u, v = edge
    reached = {j}
    stack = [j]
    while stack:
        cur = stack.pop()
        for nxt in tree.neighbors(cur):
            if (cur, nxt) in ((u, v), (v, u)):
                continue
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return k not in reached


@pytest.mark.parametrize("tree_n,sig_n", [(5, 6), (6, 5)])
def test_tree_and_signature_on_different_markings_refused(tree_n, sig_n):
    # a tree carries the markings 1..m; with m != n every reader of the pair
    # refuses it, instead of ignoring marking n or reading k_m past kappa
    tree = StableTree((frozenset({1, 2}), frozenset(range(3, tree_n + 1))), ((0, 1),))
    sig = sig2(*[-1] * 4 + [0] * (sig_n - 4))
    message = f"^tree carries {tree_n} markings but n = {sig_n}$"
    for read in (principal_subcurves, in_ideal_support, fiber_projective_dim, ideal_generators,
                 lambda t, s: exponent_vector(t, 0, s), lambda t, s: node_weights(t, (0, 1), s),
                 lambda t, s: edge_weight(t, (0, 1), s), lambda t, s: build_chart(s, t, seed=3)):
        with pytest.raises(StrataError, match=message):
            read(tree, sig)


class TestFiberDim:
    def test_unique_principal_gives_point(self):
        assert fiber_projective_dim(TREE_36, SIG_POLE6) == 0

    def test_star(self):
        assert fiber_projective_dim(STAR, SIG_STAR7) == 1

    def test_double_center(self):
        sig = sig2(1, 1, -1, -1, -1, -1, -1, -1)
        tree = StableTree(
            (frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})),
            ((0, 1), (0, 2)),
        )
        assert fiber_projective_dim(tree, sig) == 1


# ---------------------------------------------------------------------------
# the blow-up boundary index set
# ---------------------------------------------------------------------------


def set_partitions(items):
    """Oracle: all set partitions, standard recursive enumeration."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for idx in range(len(sub)):
            yield sub[:idx] + [sub[idx] | {first}] + sub[idx + 1:]
        yield sub + [{first}]


def brute_p_hat(sig):
    """Oracle: filter every set partition by the boundary conditions."""
    out = set()
    for partition in set_partitions(range(1, sig.n + 1)):
        blocks = [frozenset(b) for b in partition]
        if len(blocks) == 2:
            if min(len(blocks[0]), len(blocks[1])) >= 2:
                out.add(frozenset(blocks))
        elif len(blocks) >= 3:
            light = [b for b in blocks if mu(sig, b) < 1]
            heavy = [b for b in blocks if mu(sig, b) > 1]
            if len(light) == 1 and len(heavy) == len(blocks) - 1:
                out.add(frozenset(blocks))
    return out


class TestPHat:
    def test_pole6_only_two_block(self):
        parts = enumerate_p_hat(SIG_POLE6)
        assert len(parts) == 25
        assert all(p.r == 1 for p in parts)

    def test_quad4_trivial(self):
        assert len(enumerate_p_hat(SIG_QUAD4)) == 3

    @pytest.mark.parametrize(
        "sig",
        [SIG_STAR7, sig2(1, 1, -1, -1, -1, -1, -1, -1), SIG_POLE6, SIG_CUBIC6],
        ids=["star7", "two-poles8", "pole6", "cubic6"],
    )
    def test_matches_brute_force(self, sig):
        got = {frozenset(p.blocks) for p in enumerate_p_hat(sig)}
        assert got == brute_p_hat(sig)

    def test_star_contains_named_partition(self):
        parts = enumerate_p_hat(SIG_STAR7)
        target = MultiBlockPartition.from_blocks({1}, [{2, 3, 4}, {5, 6, 7}])
        assert target in parts

    def test_three_heavy_blocks(self):
        # d=3, one order-6 zero and six double poles admits r=3 partitions
        sig = validate_signature(3, [6, -2, -2, -2, -2, -2, -2])
        parts = enumerate_p_hat(sig)
        assert {frozenset(p.blocks) for p in parts} == brute_p_hat(sig)
        r3 = [p for p in parts if p.r == 3]
        # I0 = {1} and three heavy pairs: 15 ways to pair six markings
        assert len(r3) == 15
        target = MultiBlockPartition.from_blocks({1}, [{2, 3}, {4, 5}, {6, 7}])
        assert target in r3
        assert m_value(target, sig) == 1
        assert vanishing_orders(target, sig) == {1: 1, 2: 1, 3: 1}

    def test_sorted_canonically(self):
        parts = enumerate_p_hat(SIG_STAR7)
        keys = [p.sort_key() for p in parts]
        assert keys == sorted(keys)


class TestBoundaryClassification:
    @pytest.mark.parametrize(
        "sig,depth",
        [(SIG_STAR7, 4), (sig2(1, 1, -1, -1, -1, -1, -1, -1), 3)],
        ids=["star7-exhaustive", "two-poles8-codim3"],
    )
    def test_multi_block_partitions_are_exactly_the_full_principal_stars(self, sig, depth):
        # one direction: the star stratum of every multi-block partition has
        # all its leaves principal, so the fiber has dimension r - 1
        multi = [p for p in enumerate_p_hat(sig) if p.r >= 2]
        for part in multi:
            star = StableTree(part.blocks, tuple((0, j) for j in range(1, part.size)))
            principal, rest = principal_subcurves(star, sig)
            assert sorted(map(min, principal)) == list(range(1, part.size))
            assert rest == frozenset({0})
            assert fiber_projective_dim(star, sig) == part.r - 1
            assert in_ideal_support(star, sig)
        # the converse: among all stable trees, those with as many principal
        # subcurves as edges (>= 2) are exactly the stars of those partitions
        expected = {
            tuple(sorted(tuple(sorted(b)) for b in part.blocks))
            for part in multi
            if part.r <= depth
        }
        found = set()
        for tree in enumerate_stable_trees(sig, depth):
            r = len(tree.edges)
            principal, rest = principal_subcurves(tree, sig)
            if r < 2 or len(principal) != r:
                continue
            # all edges meet the single non-principal vertex
            assert len(rest) == 1
            center = next(iter(rest))
            assert all(center in e for e in tree.edges)
            assert all(len(grp) == 1 for grp in principal)
            found.add(tuple(sorted(tuple(sorted(m)) for m in tree.vertex_marks)))
        assert found == expected


class TestMValue:
    def test_star_m_one(self):
        part = MultiBlockPartition.from_blocks({1}, [{2, 3, 4}, {5, 6, 7}])
        assert m_value(part, SIG_STAR7) == 1

    def test_two_block_is_d_mu(self):
        for part in enumerate_two_block(SIG_POLE6):
            assert m_value(part, SIG_POLE6) == SIG_POLE6.d * boundary_weight(part, SIG_POLE6)

    def test_mixed_factors(self):
        # d=3, block weights mu - 1 = 1/3 and 2/3: m = 9 * (1/3) * (2/3) = 2
        sig = validate_signature(3, [3, -2, -2, -2, -2, -1])
        part = MultiBlockPartition.from_blocks({1}, [{2, 3}, {4, 5, 6}])
        assert {mu(sig, b) - 1 for b in part.blocks[1:]} == {F(1, 3), F(2, 3)}
        assert m_value(part, sig) == 2

    def test_not_in_p_hat(self):
        part = MultiBlockPartition.from_blocks({2, 3, 4}, [{1}, {5, 6, 7}])
        with pytest.raises(NotInPHat):
            m_value(part, SIG_STAR7)

    def test_heavy_factors_positive_integers(self):
        for sig in (SIG_STAR7, sig2(1, 1, -1, -1, -1, -1, -1, -1)):
            for part in enumerate_p_hat(sig):
                if part.r >= 2:
                    for b in part.blocks[1:]:
                        mj = sig.d * (mu(sig, b) - 1)
                        assert mj.denominator == 1 and mj > 0


def k_sum(sig, block):
    return sum(sig.kappa[i - 1] for i in block)


# d = 4: every pair of poles has k_B = -d, i.e. mu(B) = 1 exactly
SIG_FLAT7 = validate_signature(4, [4, -2, -2, -2, -2, -2, -2])


class TestWeightExactlyOne:
    """Blocks of weight exactly 1 (``k_B = -d``), where a strict/non-strict
    slip in an integer weight test would otherwise go unnoticed."""

    def test_balanced_split_keeps_marking_1_in_i0(self):
        sig = validate_signature(3, [-1, -2, -1, -2, -2, 2])
        parts = enumerate_two_block(sig)
        balanced = 0
        for part in parts:
            k0, k1 = k_sum(sig, part.blocks[0]), k_sum(sig, part.blocks[1])
            assert k0 >= k1
            if k0 == k1:
                balanced += 1
                assert 1 in part.blocks[0]
        assert balanced == 6
        split = {frozenset({p.blocks[0], p.blocks[1]}): p for p in parts}
        part = split[frozenset({frozenset({2, 3}), frozenset({1, 4, 5, 6})})]
        assert part.blocks[0] == {1, 4, 5, 6}

    def test_p_hat_excludes_weight_one_blocks(self):
        d = SIG_FLAT7.d
        parts = enumerate_p_hat(SIG_FLAT7)
        assert {frozenset(p.blocks) for p in parts} == brute_p_hat(SIG_FLAT7)
        multi = [p for p in parts if p.r >= 2]
        # {1} plus the poles split into two triples; no pair of poles is heavy
        assert len(multi) == 10
        for part in multi:
            assert k_sum(SIG_FLAT7, part.blocks[0]) > -d
            assert all(k_sum(SIG_FLAT7, b) < -d for b in part.blocks[1:])
        assert MultiBlockPartition.from_blocks({1}, [{2, 3}, {4, 5, 6, 7}]) not in parts

    def test_balanced_two_block_in_either_order(self):
        for blocks in (({2, 3}, {1, 4, 5, 6, 7}), ({1, 4, 5, 6, 7}, {2, 3})):
            part = MultiBlockPartition(tuple(frozenset(b) for b in blocks))
            assert m_value(part, SIG_FLAT7) == 0

    @pytest.mark.parametrize(
        "blocks,message",
        [
            (({1}, set(), {2, 3, 4, 5, 6, 7}), "empty block"),
            (({1}, {1, 2, 3, 4}, {5, 6, 7}), "overlap"),
            (({1}, {2, 3, 4}, {5, 6}), "cover"),
            (({1}, {2, 3, 4, 5, 6, 7}), "both sides"),
            (({2, 3, 4}, {1, 5, 6, 7}), "I0 must be the light block"),
            (({2, 3}, {1, 4, 5}, {6, 7}), "mu\\(I0\\) must be < 1"),
            (({1}, {2, 3}, {4, 5, 6, 7}), "every heavy block"),
            (({1, 2, 3, 4, 5, 6, 7},), "at least two blocks"),
        ],
        ids=["empty", "overlap", "missing", "side-of-one", "heavy-i0", "i0-weight-one",
             "heavy-weight-one", "one-block"],
    )
    def test_every_not_in_p_hat_branch(self, blocks, message):
        part = MultiBlockPartition(tuple(frozenset(b) for b in blocks))
        with pytest.raises(NotInPHat, match=message):
            m_value(part, SIG_FLAT7)
        with pytest.raises(NotInPHat, match=message):
            vanishing_orders(part, SIG_FLAT7)


class TestExceptional:
    def test_pole6_all_zero(self):
        assert exceptional_divisor(SIG_POLE6).is_zero()

    def test_two_block_coefficients_vanish(self):
        exc = exceptional_divisor(SIG_STAR7)
        for part, c in exc.terms.items():
            if part.r == 1:
                assert c == 0

    def test_star_coefficient_one(self):
        exc = exceptional_divisor(SIG_STAR7)
        part = MultiBlockPartition.from_blocks({1}, [{2, 3, 4}, {5, 6, 7}])
        assert exc.terms[part] == 1

    def test_coefficients_nonnegative(self):
        for sig in (SIG_STAR7, sig2(1, 1, -1, -1, -1, -1, -1, -1)):
            for c in exceptional_divisor(sig).terms.values():
                assert c >= 0

    def test_leading_terms_match_full_divisor(self):
        # every E-nontrivial signature with n = 5..8 and d = 2..4, relabeled:
        # the lazy walk gives the first three nonzero terms, in order, of the
        # Fraction oracle's exceptional divisor
        rng = random.Random(5)
        count = 0
        for n in range(5, 9):
            for d in range(2, 5):
                top = -2 * d - (n - 1) * (1 - d)
                for kappa in itertools.combinations_with_replacement(range(1 - d, top + 1), n):
                    if sum(kappa) != -2 * d:
                        continue
                    kappa = list(kappa)
                    rng.shuffle(kappa)
                    sig = validate_signature(d, kappa)
                    # an r = 1 element has coefficient 0 * m(S)
                    multi = itertools.islice((p for p in oracle_p_hat(sig) if p.r >= 2), 3)
                    lead = [(p, (p.size - 2) * oracle_m_value(p, sig)) for p in multi]
                    assert list(_leading_exceptional_terms(sig).items()) == lead, (d, kappa)
                    count += bool(lead)
        assert count == 300


def staircase_order(ms, j):
    """Oracle: the colength of (t_j) in the truncated monomial ring, counted
    as lattice points of the staircase over the other exponents."""
    other = [m for idx, m in enumerate(ms) if idx != j]
    return sum(1 for _ in itertools.product(*[range(m) for m in other]))


def signature_with_m(ms):
    """A d=2 signature and partition realizing the given multiplicities."""
    blocks = []
    mark = 2
    for m in ms:
        blocks.append(set(range(mark, mark + m + 2)))
        mark += m + 2
    n = mark - 1
    k0 = -4 + sum(m + 2 for m in ms)
    kappa = [k0] + [-1] * (n - 1)
    sig = validate_signature(2, kappa)
    part = MultiBlockPartition.from_blocks({1}, blocks)
    return sig, part


def check_local_model(part, coeff, sig):
    """The star stratum ``T_S`` of an r >= 2 element: each generator of the
    local ideal, weighted by the vanishing orders, gives the global Weil
    coefficient ``coeff``, and ``E_S`` is a divisor over ``T_S``."""
    star = StableTree(part.blocks, tuple((0, j) for j in range(1, part.size)))
    w = vanishing_orders(part, sig)
    for g in ideal_generators(star, sig):
        assert sum(w[j] * g[(0, j)] for j in w) == coeff, (sig, part)
    assert in_ideal_support(star, sig)
    assert (sig.n - 3 - part.r) + fiber_projective_dim(star, sig) == sig.n - 4


class TestVanishingOrders:
    @pytest.mark.parametrize("ms", [(1, 1), (2, 3), (2, 3, 4), (4, 4, 4)])
    def test_examples(self, ms):
        sig, part = signature_with_m(ms)
        assert [sig.d * (mu(sig, b) - 1) for b in part.blocks[1:]] == list(ms)
        orders = vanishing_orders(part, sig)
        total = 1
        for m in ms:
            total *= m
        assert orders == {j + 1: total // ms[j] for j in range(len(ms))}

    def test_against_staircase_oracle(self):
        for r in (2, 3):
            for ms in itertools.product(range(1, 5), repeat=r):
                sig, part = signature_with_m(ms)
                orders = vanishing_orders(part, sig)
                for j in range(r):
                    assert orders[j + 1] == staircase_order(ms, j)

    def test_order_identity(self):
        # sum over j < r of m_j * order(t_j) = (r - 1) * m(S)
        for ms in [(1, 1), (2, 3), (2, 3, 4), (3, 1, 2)]:
            sig, part = signature_with_m(ms)
            orders = vanishing_orders(part, sig)
            r = len(ms)
            lhs = sum(ms[j] * orders[j + 1] for j in range(r - 1))
            assert lhs == (r - 1) * m_value(part, sig)

    def test_two_block_has_no_orders(self):
        part = enumerate_two_block(SIG_POLE6)[0]
        with pytest.raises(TwoBlockHasNoOrders):
            vanishing_orders(part, SIG_POLE6)

    def test_local_model_gives_the_weil_coefficients(self):
        # every r >= 2 element with n = 5..7, d = 2..5 and entries <= 2d
        signatures = parts = 0
        for n in range(5, 8):
            for d in range(2, 6):
                for kappa in itertools.combinations_with_replacement(range(1 - d, 2 * d + 1), n):
                    if sum(kappa) != -2 * d:
                        continue
                    sig = validate_signature(d, kappa)
                    multi = [(p, c) for p, c in exceptional_divisor(sig).terms.items() if p.r >= 2]
                    signatures += bool(multi)
                    for part, coeff in multi:
                        check_local_model(part, coeff, sig)
                        parts += 1
        assert (signatures, parts) == (366, 10159)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_local_model_at_n8_relabeled(self, data):
        # E-nontrivial n = 8 signatures, drawn sorted and then relabeled by a
        # random permutation
        d = data.draw(st.integers(2, 5))
        excess = 8 * (d - 1) - 2 * d
        units = data.draw(st.lists(st.integers(0, 7), min_size=excess, max_size=excess))
        kappa = [1 - d + units.count(i) for i in range(8)]
        sigma = data.draw(st.permutations(range(1, 9)))
        sig = validate_signature(d, sorted(kappa)).relabeled(sigma)
        multi = [(p, c) for p, c in exceptional_divisor(sig).terms.items() if p.r >= 2]
        assume(multi)
        for part, coeff in multi:
            check_local_model(part, coeff, sig)


# ---------------------------------------------------------------------------
# equivariance under relabeling
# ---------------------------------------------------------------------------


def random_signature(rng):
    while True:
        d = rng.randint(2, 5)
        n = rng.randint(4, 7)
        kappa = [rng.randint(1 - d, d) for _ in range(n - 1)]
        last = -2 * d - sum(kappa)
        if last >= 1 - d:
            return validate_signature(d, kappa + [last])


class TestEquivariance:
    def test_relabeling_core_ops(self):
        rng = random.Random(11)
        for _ in range(60):
            sig = random_signature(rng)
            sigma = list(range(1, sig.n + 1))
            rng.shuffle(sigma)
            rsig = sig.relabeled(sigma)
            # boundary weights transform covariantly
            for part in enumerate_two_block(sig):
                rpart = part.relabeled(sigma, rsig)
                assert boundary_weight(part, sig) == boundary_weight(rpart, rsig)
            # the blow-up boundary set maps onto the relabeled one
            img = {p.relabeled(sigma, rsig).sort_key() for p in enumerate_p_hat(sig)}
            assert img == {p.sort_key() for p in enumerate_p_hat(rsig)}
            # exceptional coefficients follow the relabeling
            exc = exceptional_divisor(sig)
            rexc = exceptional_divisor(rsig)
            for part, c in exc.terms.items():
                assert rexc.terms[part.relabeled(sigma, rsig)] == c

    @pytest.mark.parametrize("sigma", [[1, 1, 3, 4], [1, 2, 3], [1, 2, 3, 4, 5], [0, 1, 2, 3],
                                       [2, 3, 4, 5]])
    def test_relabeling_needs_a_permutation(self, sigma):
        # a repeat used to map two markings to one slot, a short or
        # out-of-range sigma to raise IndexError
        sig = validate_signature(3, [0, -2, -2, -2])
        part = MultiBlockPartition.from_split({1, 2}, {3, 4}, sig)
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4})), ((0, 1),))
        for relabel in (sig.relabeled, lambda s: part.relabeled(s, sig), tree.relabeled):
            with pytest.raises(StrataError, match="is not a permutation of 1..4"):
                relabel(sigma)
