"""Exact checks of the local universal-curve model: section propagation,
candidate differentials, ratio constants and the codimension-2 trichotomy."""

import dataclasses
import random
from fractions import Fraction as F

import local_family_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_orientation_oracle import signed_trees

from strata0 import local_family
from strata0.cli import main, parse_tree_spec
from strata0.local_family import (
    DEFAULT_SEED,
    INF,
    BadBlocks,
    DenominatorVanishes,
    PoleHit,
    LocalChart,
    beta_monomial,
    build_chart,
    build_codim2_chart,
    classify_codim2_case,
    evaluate_phi,
    make_sampler,
    marked_point_coords,
    ratio_constant,
    sample_curve_point,
    section_in_frame,
    verify_ratio_identity,
)
from strata0.strata import NoSuchEdge, StableTree, StrataError, _split_keys, validate_signature

SIG_C = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1])
BLOCKS_C = [{1, 2}, {3, 4, 5}, {6, 7, 8}]
SIG_A = validate_signature(2, [-1, -1, -1, -1, -1, -1, 1, 1])
BLOCKS_A = [{1, 2, 3}, {5, 6, 7}, {4, 8}]
BLOCKS_B = [{1, 6, 7}, {3, 4, 5}, {2, 8}]
ONE_EDGE = (
    validate_signature(2, [-1, -1, -1, -1, -1, 1]),
    StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),)),
)


class TestChartValidation:
    def test_duplicate_coordinates_rejected(self):
        tree = StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),))
        sig = validate_signature(2, [-1, -1, -1, -1, -1, 1])
        with pytest.raises(StrataError):
            LocalChart(
                sig,
                tree,
                {(0, 1): F(1, 2)},
                {0: {1: F(0), 2: F(1), 3: F(1)}, 1: {4: F(2), 5: F(3), 6: F(4)}},
                {0: {1: F(5)}, 1: {0: F(6)}},
            )

    def test_missing_node_param_rejected(self):
        tree = StableTree((frozenset({1, 2, 3}), frozenset({4, 5, 6})), ((0, 1),))
        sig = validate_signature(2, [-1, -1, -1, -1, -1, 1])
        with pytest.raises(StrataError):
            LocalChart(sig, tree, {}, {0: {1: F(0), 2: F(1), 3: F(2)},
                                       1: {4: F(0), 5: F(1), 6: F(2)}},
                       {0: {1: F(5)}, 1: {0: F(6)}})

    def test_builder_reads_node_parameters_by_edge(self):
        # a given parameter is read under either orientation of its edge, and
        # a key that names no edge of the tree is refused, not dropped
        sig, tree = ONE_EDGE
        for key in ((0, 1), (1, 0)):
            assert build_chart(sig, tree, {key: F(1, 3)}, seed=4).node_params == {(0, 1): F(1, 3)}
        for key in ((0, 2), (1, 1), (-1, 0)):
            with pytest.raises(StrataError, match=rf"^node parameter t\[{key[0]}-{key[1]}\]: no edge"):
                build_chart(sig, tree, {key: F(1, 3)})
        with pytest.raises(StrataError, match=r"^node parameter of edge 0-1 given twice$"):
            build_chart(sig, tree, {(0, 1): F(1, 3), (1, 0): F(1, 3)})

    def test_builder_produces_valid_pinned_chart(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=2)
        assert chart.node_coords[0] == {1: F(0), 2: F(1)}
        assert chart.node_coords[1][0] == 0 and chart.node_coords[2][0] == 0
        # one marking at infinity per outer component
        assert chart.mark_coords[1][5] is INF and chart.mark_coords[1][4] == 1
        assert chart.mark_coords[2][8] is INF and chart.mark_coords[2][7] == 1


class TestMarkedPointCoords:
    def test_chain_closed_forms(self):
        t1, t2 = F(3, 7), F(5, 11)
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=t1, t2=t2, seed=1)
        for i in (1, 2):
            x = chart.mark_coords[0][i]
            expect = (INF, F(0), F(0)) if x is INF else (x, t1 / x, t2 / (x - 1))
            assert marked_point_coords(chart, i) == expect
        for i in (3, 4, 5):
            y = chart.mark_coords[1][i]
            if y is not INF:
                assert marked_point_coords(chart, i) == (t1 / y, y, t2 * y / (t1 - y))
        for i in (6, 7, 8):
            z = chart.mark_coords[2][i]
            if z is not INF:
                assert marked_point_coords(chart, i) == ((t2 + z) / z, t1 * z / (t2 + z), z)

    def test_infinity_lands_on_nodes(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=F(3, 7), t2=F(5, 11), seed=1)
        # the infinity marking of the first outer component projects to the
        # node coordinate on the center and onward
        assert marked_point_coords(chart, 5)[0] == chart.node_coords[0][1]

    def test_pinched_fiber_collapse(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=0, t2=0, seed=4)
        for i in (1, 2):
            coords = marked_point_coords(chart, i)
            assert coords[1] == chart.node_coords[1][0]
            assert coords[2] == chart.node_coords[2][0]

    def test_curve_equations_hold(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=6)
        for i in range(1, 9):
            c = marked_point_coords(chart, i)
            for (u, v) in chart.tree.edges:
                zu, zv = c[u], c[v]
                bu, bv = chart.node_coords[u][v], chart.node_coords[v][u]
                if zu is INF or zv is INF:
                    continue
                assert (zu - bu) * (zv - bv) == chart.t(u, v)


class TestSamplingAndPhi:
    def test_sampled_points_satisfy_equations(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=8)
        rng = make_sampler(12)
        for _ in range(5):
            z = sample_curve_point(chart, rng)
            for (u, v) in chart.tree.edges:
                bu, bv = chart.node_coords[u][v], chart.node_coords[v][u]
                assert (z[u] - bu) * (z[v] - bv) == chart.t(u, v)

    def test_phi_is_direct_product(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=8, pin=False)
        rng = make_sampler(13)
        z = sample_curve_point(chart, rng)
        val = evaluate_phi(chart, 0, z)
        direct = F(1)
        for i in range(1, 9):
            a = marked_point_coords(chart, i)[0]
            direct *= (z[0] - a) ** SIG_C.kappa[i - 1]
        assert val == direct

    def test_pole_hit(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=8, pin=False)
        a = marked_point_coords(chart, 1)[0]
        point = (a, F(123), F(456))
        with pytest.raises(PoleHit):
            evaluate_phi(chart, 0, point)

    def test_decay_at_infinity_by_substitution(self):
        # a smooth chart with all markings finite: substituting z = 1/w gives
        # phi(1/w) (-1/w^2)^d = (-1)^d prod (1 - a_i w)^{k_i}, which is finite
        # and nonzero at w = 0 exactly because the orders sum to -2d
        sig = validate_signature(2, [-1, -1, -1, -1])
        tree = StableTree((frozenset({1, 2, 3, 4}),), ())
        chart = build_chart(sig, tree, seed=3, pin=False)
        a = [marked_point_coords(chart, i)[0] for i in range(1, 5)]
        d = sig.d
        rng = make_sampler(5)
        for _ in range(5):
            w = rng.randint(1, 10 ** 6)
            w = F(1, w)
            z = 1 / w
            lhs = evaluate_phi(chart, 0, (z,)) * (-1 / w ** 2) ** d
            rhs = (-1) ** d
            for i, ai in enumerate(a, start=1):
                rhs *= (1 - ai * w) ** sig.kappa[i - 1]
            assert lhs == rhs
        # the w -> 0 limit of the right-hand side
        assert (-1) ** d == 1


class TestRatioConstant:
    def test_reciprocity(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=9)
        for j, k in ((0, 1), (0, 2), (1, 2)):
            assert ratio_constant(chart, j, k) * ratio_constant(chart, k, j) == 1

    def test_identity_for_same_vertex(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=9)
        assert ratio_constant(chart, 1, 1) == 1

    def test_closed_form_matches_sampled_ratio(self):
        for sig, blocks in [(SIG_C, BLOCKS_C), (SIG_A, BLOCKS_A), (SIG_C, BLOCKS_B)]:
            chart = build_codim2_chart(sig, blocks, seed=10)
            rng = make_sampler(11)
            z = sample_curve_point(chart, rng)
            for j, k in ((0, 1), (1, 0), (0, 2), (1, 2)):
                f = ratio_constant(chart, j, k)
                lhs = section_in_frame(chart, j, z, k)
                rhs = f * section_in_frame(chart, k, z, k)
                assert lhs == rhs, (blocks, j, k)

    def test_case_a_displayed_ratio(self):
        # on a finite chart with nodes at the chain positions (0 and 1 on the
        # center, 0 on the outer components):
        # t^{b1} Phi1 / Phi0 = (-1)^d prod_{I1} y_i^{k_i} / prod_{I0} x_i^{k_i}
        #                      * prod_{I2} (z_i / (t2 + z_i))^{k_i}
        sig, blocks = SIG_A, BLOCKS_A
        d = sig.d
        i0, i1, i2 = (sorted(b) for b in blocks)
        chart = _chain_chart_finite(sig, blocks, seed=15)
        t1, t2 = chart.t(0, 1), chart.t(0, 2)
        xs = {i: chart.mark_coords[0][i] for i in i0}
        ys = {i: chart.mark_coords[1][i] for i in i1}
        zs = {i: chart.mark_coords[2][i] for i in i2}
        expect = F((-1) ** d)
        for i in i1:
            expect *= ys[i] ** sig.kappa[i - 1]
        for i in i0:
            expect /= xs[i] ** sig.kappa[i - 1]
        for i in i2:
            expect *= (zs[i] / (t2 + zs[i])) ** sig.kappa[i - 1]
        assert ratio_constant(chart, 1, 0) == expect

    def test_no_such_edge(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=9)
        from strata0.local_family import _adjacent_ratio_constant

        with pytest.raises(NoSuchEdge):
            _adjacent_ratio_constant(chart, 1, 2)

    def test_balanced_split_closed_form_vs_sampled(self):
        # even d, balanced two-block split: both orientations of the constant
        # agree with the sampled section ratio
        sig = validate_signature(2, [-1, -1, -1, -1])
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4})), ((0, 1),))
        chart = build_chart(sig, tree, seed=33)
        rng = make_sampler(34)
        z = sample_curve_point(chart, rng)
        for j, k in ((0, 1), (1, 0)):
            f = ratio_constant(chart, j, k)
            assert section_in_frame(chart, j, z, k) == f * section_in_frame(chart, k, z, k)
        assert verify_ratio_identity(chart, 0, 1, samples=5)


def _chain_chart_finite(sig, blocks, seed):
    """Chain chart with nodes at (0, 1), (0), (0) and random finite markings."""
    i0, i1, i2 = (frozenset(b) for b in blocks)
    tree = StableTree((i0, i1, i2), ((0, 1), (0, 2)))
    rng = make_sampler(seed)
    taken = {F(0), F(1)}

    def fresh():
        while True:
            v = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            if v not in taken:
                taken.add(v)
                return v

    t1 = fresh()
    t2 = fresh()
    return LocalChart(
        sig,
        tree,
        {(0, 1): t1, (0, 2): t2},
        {0: {i: fresh() for i in sorted(i0)},
         1: {i: fresh() for i in sorted(i1)},
         2: {i: fresh() for i in sorted(i2)}},
        {0: {1: F(0), 2: F(1)}, 1: {0: F(0)}, 2: {0: F(0)}},
        seed=seed,
    )


class TestVerifyRatioIdentity:
    @pytest.mark.parametrize(
        "sig,blocks",
        [(SIG_A, BLOCKS_A), (SIG_C, BLOCKS_B), (SIG_C, BLOCKS_C)],
        ids=["case-a", "case-b", "case-c"],
    )
    def test_all_pairs(self, sig, blocks):
        chart = build_codim2_chart(sig, blocks, seed=21)
        for j in range(3):
            for k in range(3):
                assert verify_ratio_identity(chart, j, k, samples=4)

    def test_trivial_pair(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=21)
        assert verify_ratio_identity(chart, 2, 2, samples=1)

    def test_one_sampling_loop(self, monkeypatch):
        # every draw lands on the pinned node coordinate 0 of the base
        # component: the sampler's own 100 retries are the only ones, and its
        # error propagates
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=21)
        draws = []

        def pinned(rng):
            draws.append(rng)
            return F(0)

        monkeypatch.setattr(local_family, "_rand_rational", pinned)
        with pytest.raises(DenominatorVanishes, match="no valid sample point found"):
            verify_ratio_identity(chart, 0, 1, samples=1)
        assert len(draws) == 100

    def test_smooth_fiber_required(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=0, seed=21)
        with pytest.raises(
            StrataError, match=r"^family verification needs nonzero node parameters$"
        ):
            verify_ratio_identity(chart, 0, 1, samples=1)

    # marking 1 sits at 1 on vertex 0; t[0-1] = 1 puts it on the node toward
    # vertex 2 of vertex 1, and t[1-2] = 0 pinches that node, so the chart's
    # frames raise.  The zero parameter is refused first, on every pair, by
    # the library and through the CLI with the same line
    PINCHED = (validate_signature(2, [-1, -1, -1, -1, -1, 1]),
               "1,2;3;4,5,6 0-1 1-2 t[0-1]=1 t[1-2]=0")
    ZERO_PARAMETER = "family verification needs nonzero node parameters"

    def test_zero_parameter_refused_before_the_frames(self):
        sig, spec = self.PINCHED
        groups, edges, params = parse_tree_spec(spec, sig.n)
        chart = build_chart(sig, StableTree(groups, tuple(edges)), params, seed=5)
        with pytest.raises(DenominatorVanishes):
            chart._frames
        for j, k in ((0, 1), (1, 0), (1, 2), (2, 2)):
            with pytest.raises(StrataError, match=f"^{self.ZERO_PARAMETER}$"):
                verify_ratio_identity(chart, j, k, samples=1)

    def test_zero_parameter_refused_through_the_cli(self, capsys):
        sig, spec = self.PINCHED
        kappa = ",".join(map(str, sig.kappa))
        args = ["verify-family", "--d", "2", f"--kappa={kappa}", "--chart", spec, "--seed", "5"]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {self.ZERO_PARAMETER}\n")

    def test_detects_wrong_constant(self):
        # damaging the candidate ratio must fail the sampled comparison
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=22)
        rng = make_sampler(23)
        z = sample_curve_point(chart, rng)
        f = ratio_constant(chart, 0, 1)
        lhs = section_in_frame(chart, 0, z, 1)
        rhs = section_in_frame(chart, 1, z, 1)
        assert lhs == f * rhs
        assert lhs != (f + 1) * rhs

    def test_path_independence_of_ratios(self):
        # a 4-component chain: the composite constants multiply along paths
        sig = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1])
        tree = StableTree(
            (
                frozenset({1, 2}),
                frozenset({3, 4, 5}),
                frozenset({6, 7}),
                frozenset({8, 9, 10, 11, 12}),
            ),
            ((0, 1), (1, 2), (2, 3)),
        )
        chart = build_chart(sig, tree, seed=25)
        f03 = ratio_constant(chart, 0, 3)
        assert f03 == (
            ratio_constant(chart, 0, 1)
            * ratio_constant(chart, 1, 2)
            * ratio_constant(chart, 2, 3)
        )
        assert verify_ratio_identity(chart, 0, 3, samples=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees(), st.integers(0, 2 ** 16))
def test_ratio_identity_on_every_edge(case, seed):
    # random trees with tie nodes and renumbered vertices: the one closed
    # form of f_jk holds in both orders of every edge and is reciprocal
    sig, tree = case
    chart = build_chart(sig, tree, seed=seed)
    for u, v in tree.edges:
        for j, k in ((u, v), (v, u)):
            assert verify_ratio_identity(chart, j, k, samples=2), (j, k)
        assert ratio_constant(chart, u, v) * ratio_constant(chart, v, u) == 1


def _pair(x):
    return (1, 0) if x is INF else (x.numerator, x.denominator)


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees(), st.integers(0, 2 ** 16), st.booleans())
def test_integer_path_matches_fraction_oracle(case, seed, pin):
    # Phi_j and dz_j/dz_k as integer pairs, and the public values built on
    # them, against the Fraction forms, in every frame: at two sampled points
    # and at every marked section, where the zero checks fire.  kappa has
    # entries of both signs, tie nodes occur, and a pinned chart puts a
    # marking at INF on each component with fewer than three nodes
    sig, tree = case
    chart = build_chart(sig, tree, seed=seed, pin=pin)
    rng = make_sampler(seed + 1)
    points = [sample_curve_point(chart, rng) for _ in range(2)]
    points += [marked_point_coords(chart, i) for i in range(1, sig.n + 1)]
    frames = range(tree.num_vertices)
    for z in points:
        pairs = [_pair(x) for x in z]
        for j in frames:
            marks = chart._frames[j][1]
            expect = _outcome(oracle.evaluate_phi, chart, j, z)
            assert _outcome(lambda: F(*local_family._phi_pair(j, marks, pairs[j]))) == expect
            assert _outcome(evaluate_phi, chart, j, z) == expect
            for k in frames:
                steps = local_family._path_steps(chart, j, k)
                assert _outcome(lambda: F(*local_family._jacobian_pair(steps, pairs))) == _outcome(
                    oracle.frame_jacobian, chart, j, k, z
                )
                assert _outcome(section_in_frame, chart, j, z, k) == _outcome(
                    oracle.section_in_frame, chart, j, z, k
                )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees(), st.integers(0, 2 ** 16), st.booleans(), st.data())
def test_spread_matches_path_fold(case, seed, pin, data):
    # _spread walks the node coordinates out from the start on reduced integer
    # pairs; the oracle folds its Fraction _propagate along chart.path to each
    # component on its own.  From every component: a random draw, INF, and
    # each marking and node coordinate there, on a smooth chart and with one
    # node parameter 0, where a point on the pinched node raises in both.
    # Every pair is in lowest terms with a positive denominator, INF is (1, 0)
    sig, tree = case
    pinch = data.draw(st.sampled_from(tree.edges))
    rng = make_sampler(seed + 1)
    for params in (None, {pinch: F(0)}):
        chart = build_chart(sig, tree, params, seed=seed, pin=pin)
        for s in range(tree.num_vertices):
            xs = [local_family._rand_rational(rng), INF, *chart.mark_coords[s].values(),
                  *chart.node_coords[s].values()]
            for x in xs:
                got = _outcome(local_family._spread, chart, s, _pair(x))
                if type(got) is tuple and type(got[0]) is tuple:
                    for p, q in got:
                        assert (p, q) == _pair(F(p, q) if q else INF), (s, x, got)
                    got = tuple(F(p, q) if q else INF for p, q in got)
                assert got == _outcome(oracle.spread, chart, s, x), (s, x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees(), st.integers(0, 2 ** 16), st.booleans(), st.data())
def test_sampler_matches_fraction_oracle_draw_for_draw(case, seed, pin, data):
    # the public sampler against the oracle's, which carries each draw by the
    # Fraction path fold: from equal seeds, the same points, or the same error
    # after the same draws (both generators end in the same state).  Some
    # node parameters are given, 0 (a pinched node, whose far side collapses
    # onto a node coordinate) or small; the others are drawn.  The base and
    # the components checked for genericity are drawn too
    sig, tree = case
    vertices = range(tree.num_vertices)
    given_t = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 2)])
    params = data.draw(st.dictionaries(st.sampled_from(tree.edges), given_t))
    base = data.draw(st.sampled_from(vertices))
    check = data.draw(st.none() | st.lists(st.sampled_from(vertices), unique=True))
    chart = build_chart(sig, tree, params or None, seed=seed, pin=pin)
    new, old = make_sampler(seed + 1), make_sampler(seed + 1)
    for _ in range(4):
        point = _outcome(sample_curve_point, chart, new, base=base, check_vertices=check)
        assert point == _outcome(oracle.sample_curve_point, chart, old, base, check)
        assert new.getstate() == old.getstate()
        if type(point[0]) is type:  # the error both raised
            break
        assert all(type(x) is F or x is INF for x in point)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees(), st.integers(0, 2 ** 16), st.booleans(), st.data())
def test_ratio_constant_matches_fraction_oracle(case, seed, pin, data):
    # f_jk as (-1)^d over two _phi_pair calls against the Fraction closed form
    # with its own sign, on every ordered edge and on one pair that is not an
    # edge, with all node parameters nonzero and then with one of them 0
    # wherever every section still exists on that pinched fiber
    sig, tree = case
    pairs = [p for u, v in tree.edges for p in ((u, v), (v, u))]
    far = [(j, k) for j in range(tree.num_vertices) for k in range(j)
           if not tree.has_edge(j, k)]
    if far:
        pairs.append(data.draw(st.sampled_from(far)))
    pinch = data.draw(st.sampled_from(tree.edges))
    for params in (None, {pinch: F(0)}):
        chart = build_chart(sig, tree, params, seed=seed, pin=pin)
        try:
            for i in range(1, sig.n + 1):
                marked_point_coords(chart, i)
        except DenominatorVanishes:
            continue
        for j, k in pairs:
            assert ratio_constant(chart, j, k) == oracle.ratio_constant(chart, j, k), (j, k)
        for j, k in pairs[2 * len(tree.edges):]:
            with pytest.raises(NoSuchEdge):
                local_family._adjacent_ratio_constant(chart, j, k)


class TestDegenerateChart:
    # a chart whose node parameters put a marking on a node: the library
    # refuses it on every pair, j == k included, with the line the CLI prints.
    # The first is a codim-2 chain whose t[0-1] = 1 and t[0-2] = -8/7 put
    # marking 7 on the node toward component 2; the second a star whose
    # t[0-2] = -1 carries marking 5 from 1 on component 2 to 0 on the center,
    # the node toward component 1, behind the edge 0-1 checked first
    CHARTS = {
        "chain": (3, "5,-1,-2,-1,-2,-1,-2,0,-2",
                  "2;6,7,9;1,3,4,5,8 0-1 0-2 t[0-1]=59/59 t[0-2]=-64/56", 7, 2),
        "star": (3, "1,-1,-1,-1,-1,-1,-1,-1", "1,2;3,4;5,6;7,8 0-1 0-2 0-3 t[0-2]=-1", 5, 1),
    }

    @pytest.mark.parametrize("case", sorted(CHARTS))
    def test_refused_on_every_pair(self, case, capsys):
        d, kappa, spec, i, v = self.CHARTS[case]
        sig = validate_signature(d, [int(k) for k in kappa.split(",")])
        groups, edges, params = parse_tree_spec(spec, sig.n)
        chart = build_chart(sig, StableTree(groups, tuple(edges)), params, seed=DEFAULT_SEED)
        message = (f"degenerate chart: the node parameters put marking {i} "
                   f"on the node toward component {v}")
        assert oracle.degenerate_chart_message(chart) == message
        for u, w in edges:
            for j, k in ((u, w), (w, u), (w, w)):
                with pytest.raises(StrataError, match=f"^{message}$"):
                    verify_ratio_identity(chart, j, k, samples=1)
        assert main(["verify-family", "--d", str(d), f"--kappa={kappa}", "--chart", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_trees().filter(lambda case: len(case[1].edges) > 1), st.integers(0, 2 ** 16),
       st.sampled_from([True, True, False]), st.data())
def test_degenerate_chart_refusal_matches_oracle(case, seed, pin, data):
    # trees with two edges or more, since on one edge distinct special points
    # keep every section off the node.  Node parameters pinned to +-1 or
    # other small values often carry a pinned coordinate (0, 1 or INF) onto
    # a node; in some charts one parameter is also aimed,
    # t = (b_{far,w} - b_{far,near}) (x - b_{near,far}), so that the section
    # at x on near, of a marking on near's side, lands on the node toward w.
    # verify_ratio_identity refuses exactly the charts where the oracle finds
    # a section at INF off its home (120 of the 200), with the oracle's
    # message, on both orders of every edge and on j == k; the rest pass
    sig, tree = case
    small = st.sampled_from([F(1), F(-1), F(1), F(-1), F(1, 2), F(-2), None])
    params = {e: t for e in tree.edges if (t := data.draw(small)) is not None}
    chart = build_chart(sig, tree, params or None, seed=seed, pin=pin)
    aims = [(e, near, far, w) for e in tree.edges for near, far in (e, e[::-1])
            for w in tree.neighbors(far) if w != near]
    if data.draw(st.booleans()):
        e, near, far, w = data.draw(st.sampled_from(aims))
        i = data.draw(st.sampled_from(sorted(tree.far_marks(far, near))))
        home = chart.home_vertex(i)
        x = oracle.spread(chart, home, chart.mark_coords[home][i])[near]
        b = chart.node_coords
        if x is not INF and x != b[near][far]:
            t = (b[far][w] - b[far][near]) * (x - b[near][far])
            chart = LocalChart(sig, tree, {**chart.node_params, e: t}, chart.mark_coords, b,
                               seed=seed)
    message = oracle.degenerate_chart_message(chart)
    for u, v in tree.edges:
        for j, k in ((u, v), (v, u), (v, v)):
            if message is None:
                assert verify_ratio_identity(chart, j, k, samples=1), (j, k)
            else:
                with pytest.raises(StrataError) as refusal:
                    verify_ratio_identity(chart, j, k, samples=1)
                assert str(refusal.value) == message


class TestIntegerPath:
    def test_wrong_constant_fails(self, monkeypatch):
        # a cross-multiplication that never fails would pass every other test
        chain = build_codim2_chart(SIG_C, BLOCKS_C, seed=22)
        sig = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1])
        tree = StableTree(
            (frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7}),
             frozenset({8, 9, 10, 11, 12})),
            ((0, 1), (1, 2), (2, 3)),
        )
        cases = [(chain, 0, 1), (chain, 2, 0), (build_chart(sig, tree, seed=25), 0, 3)]
        for chart, j, k in cases:
            assert verify_ratio_identity(chart, j, k, samples=3)
        true_constant = local_family.ratio_constant
        for scale in (2, -1):
            monkeypatch.setattr(
                local_family, "ratio_constant", lambda c, j, k: scale * true_constant(c, j, k)
            )
            for chart, j, k in cases:
                assert not verify_ratio_identity(chart, j, k, samples=3), (scale, j, k)

    @pytest.mark.parametrize("pin", [True, False])
    def test_sampler_matches_pairwise_loop(self, pin):
        # the first points of a fixed chart and seed, generic on every
        # component, on the base alone, and from another base
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=40, pin=pin)
        for kwargs in ({}, {"check_vertices": [0]}, {"base": 2, "check_vertices": [2, 1]}):
            new, old = make_sampler(41), make_sampler(41)
            for _ in range(10):
                point = sample_curve_point(chart, new, **kwargs)
                assert point == oracle.sample_curve_point(chart, old, **kwargs)

    def test_sampler_rejects_as_pairwise_loop(self, monkeypatch):
        # a draw stream through every special point of the base component and
        # through every marked section, with free draws in between: both
        # samplers reject the same draws and accept the same points
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=42, t2=F(5, 3))
        stream = list(chart.node_coords[0].values())
        stream += [marked_point_coords(chart, i)[0] for i in range(1, 9)]
        stream = [x for x in stream if x is not INF]
        rng = make_sampler(43)
        stream = [x for s in stream for x in (s, s, local_family._rand_rational(rng))]
        monkeypatch.setattr(local_family, "_rand_rational", lambda draws: next(draws))
        for kwargs in ({}, {"check_vertices": [1]}):
            new, old = iter(stream), iter(stream)
            got = []
            while True:
                point = _outcome(sample_curve_point, chart, new, **kwargs)
                assert point == _outcome(oracle.sample_curve_point, chart, old, **kwargs)
                if len(got) == 8:
                    break
                got.append(point)
            assert len(set(got)) == 8


class TestChartIsAValue:
    def test_only_the_data_fields(self):
        # the walk steps, the frames and the refusal are derived from the six
        # fields; reading them leaves == and repr as they were
        names = [f.name for f in dataclasses.fields(LocalChart)]
        assert names == ["sig", "tree", "node_params", "mark_coords", "node_coords", "seed"]
        sig = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1])
        tree = StableTree((frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7}),
                           frozenset({8, 9, 10, 11, 12})), ((0, 1), (1, 2), (2, 3)))
        reads = [lambda c: sample_curve_point(c, make_sampler(1), base=2),
                 lambda c: section_in_frame(c, 0, sample_curve_point(c, make_sampler(2)), 3),
                 lambda c: verify_ratio_identity(c, 0, 3, samples=2),
                 lambda c: marked_point_coords(c, 5)]
        for read in reads:
            used, fresh = build_chart(sig, tree, seed=25), build_chart(sig, tree, seed=25)
            read(used)
            assert used == fresh and repr(used) == repr(fresh)
            assert verify_ratio_identity(fresh, 3, 1, samples=2)
            assert used == fresh and repr(used) == repr(fresh)

    def test_samples_stay_integer_pairs(self, monkeypatch):
        # verify_ratio_identity decides each sample on reduced pairs: from
        # one stream of draws, the Fractions the module makes do not grow
        # with the number of samples
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=21)
        assert verify_ratio_identity(chart, 1, 2, samples=1)  # the chart's tables
        rng = make_sampler(3)
        draws = [local_family._rand_rational(rng) for _ in range(100)]
        made = []
        monkeypatch.setattr(local_family, "Fraction", lambda *args: made.append(args) or F(*args))
        counts = []
        for samples in (1, 8):
            stream = iter(draws)
            monkeypatch.setattr(local_family, "_rand_rational", lambda rng: next(stream))
            made.clear()
            assert verify_ratio_identity(chart, 1, 2, samples=samples)
            counts.append(len(made))
        assert counts[0] == counts[1]


class TestErrorMessages:
    # From the CLI none of the DenominatorVanishes and PoleHit messages is
    # reachable: the chart's refusal in verify_ratio_identity and the
    # sampler's rejections come first.  A
    # section meets the node coordinate toward k only where it is at INF on
    # k, and f_jk takes only the markings finite in both frames, so its
    # _phi_pair calls never raise PoleHit.
    def test_pole_hits(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=8, pin=False)
        far = F(123456789, 7)
        with pytest.raises(PoleHit, match=r"^sample point at infinity; use a finite draw$"):
            evaluate_phi(chart, 1, (far, INF, far))
        with pytest.raises(PoleHit, match=r"^sample coordinate equals a_\(0,1\)$"):
            evaluate_phi(chart, 0, marked_point_coords(chart, 1))
        with pytest.raises(PoleHit, match=r"^sample coordinate equals a_\(2,7\)$"):
            section_in_frame(chart, 2, marked_point_coords(chart, 7), 0)
        with pytest.raises(PoleHit, match=r"^frame change through a point at infinity$"):
            section_in_frame(chart, 0, (far, INF, far), 1)
        with pytest.raises(PoleHit, match=r"^frame change degenerate at a node$"):
            section_in_frame(chart, 0, (far, far, chart.node_coords[2][0]), 2)

    def test_denominator_vanishes(self, monkeypatch):
        pinched = build_codim2_chart(SIG_C, BLOCKS_C, t1=0, seed=21)
        with pytest.raises(
            StrataError, match=r"^family verification needs nonzero node parameters$"
        ):
            verify_ratio_identity(pinched, 0, 1, samples=1)
        # marking 1 sits at 1 on vertex 0; t[0-1] = 1 puts it on the node
        # toward vertex 2 of vertex 1, and t[1-2] = 0 pinches that node
        sig = validate_signature(2, [-1, -1, -1, -1, -1, 1])
        tree = StableTree((frozenset({1, 2}), frozenset({3}), frozenset({4, 5, 6})),
                          ((0, 1), (1, 2)))
        chart = build_chart(sig, tree, {(0, 1): F(1), (1, 2): F(0)}, seed=5)
        assert chart.mark_coords[0][1] == 1
        with pytest.raises(
            DenominatorVanishes, match=r"^point sits exactly on a fully degenerate node$"
        ):
            marked_point_coords(chart, 1)
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=21)
        monkeypatch.setattr(local_family, "_rand_rational", lambda rng: F(0))
        with pytest.raises(
            DenominatorVanishes, match=r"^no valid sample point found; chart too degenerate$"
        ):
            sample_curve_point(chart, make_sampler(1))

    REFUSALS = {
        "no node coordinate": (
            lambda: LocalChart(*ONE_EDGE, {(0, 1): F(1)},
                               {0: {1: F(0), 2: F(1), 3: F(2)}, 1: {4: F(0), 5: F(1), 6: F(2)}},
                               {0: {}, 1: {0: F(6)}}),
            StrataError, r"^vertex 0: need one node coordinate per neighbor$",
        ),
        "no marking coordinate": (
            lambda: LocalChart(*ONE_EDGE, {(0, 1): F(1)},
                               {0: {1: F(0), 2: F(1)}, 1: {4: F(0), 5: F(1), 6: F(2)}},
                               {0: {1: F(5)}, 1: {0: F(6)}}),
            StrataError, r"^vertex 0: need one coordinate per marking$",
        ),
        "no node-coordinate entry": (
            lambda: LocalChart(validate_signature(2, [-1] * 4),
                               StableTree((frozenset({1, 2, 3, 4}),), ()), {},
                               {0: {1: F(0), 2: F(1), 3: F(2), 4: INF}}, {}),
            StrataError, r"^vertex 0: need an entry in node_coords and in mark_coords$",
        ),
        "home of an unknown marking": (
            lambda: build_codim2_chart(SIG_C, BLOCKS_C, seed=8).home_vertex(99),
            StrataError, r"^marking 99 not in tree$",
        ),
        "no samples": (
            lambda: verify_ratio_identity(build_codim2_chart(SIG_C, BLOCKS_C, seed=8), 0, 1,
                                          samples=0),
            ValueError, r"^need at least one sample$",
        ),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals(self, case):
        call, exc, message = self.REFUSALS[case]
        with pytest.raises(exc, match=message):
            call()


class TestRedraws:
    def test_zero_node_parameter_is_redrawn(self, monkeypatch):
        # build_chart draws t until it is nonzero, then the free coordinates
        draws = iter([F(0), F(0), F(3, 7), F(2, 9), F(4, 11)])
        monkeypatch.setattr(local_family, "_rand_rational", lambda rng: next(draws))
        chart = build_chart(*ONE_EDGE, seed=1)
        assert chart.node_params == {(0, 1): F(3, 7)}
        assert chart.mark_coords == {0: {1: F(2, 9), 2: F(1), 3: INF},
                                     1: {4: F(4, 11), 5: F(1), 6: INF}}

    def test_sampler_retries_a_draw_on_a_pinched_node(self, monkeypatch):
        # the draw 0 is the base's node coordinate toward the pinched
        # component, where the fiber has no point; the next draw is accepted
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=0, seed=21)
        assert chart.node_coords[0][1] == 0
        stream = iter([F(0), F(7, 13)])
        monkeypatch.setattr(local_family, "_rand_rational", lambda rng: next(stream))
        point = sample_curve_point(chart, make_sampler(1), check_vertices=[0])
        assert point[0] == F(7, 13) and next(stream, None) is None

    def test_infinity_repr(self):
        assert repr(INF) == "INF"


class TestVertexIndices:
    # every vertex argument goes through the check of exponent_vector: an
    # index outside the tree is a StrataError, not an IndexError, a KeyError
    # or the value at another vertex
    CALLS = {
        "ratio_constant j": lambda c, pt, v: ratio_constant(c, v, 0),
        "ratio_constant k": lambda c, pt, v: ratio_constant(c, 0, v),
        "ratio_constant j == k": lambda c, pt, v: ratio_constant(c, v, v),
        "verify_ratio_identity j": lambda c, pt, v: verify_ratio_identity(c, v, 0, samples=1),
        "verify_ratio_identity k": lambda c, pt, v: verify_ratio_identity(c, 0, v, samples=1),
        "sample_curve_point base": lambda c, pt, v: sample_curve_point(c, make_sampler(1), v),
        "sample_curve_point check_vertices": lambda c, pt, v: sample_curve_point(
            c, make_sampler(1), check_vertices=[0, v]
        ),
        "section_in_frame j": lambda c, pt, v: section_in_frame(c, v, pt, 0),
        "section_in_frame frame": lambda c, pt, v: section_in_frame(c, 0, pt, v),
        "evaluate_phi j": lambda c, pt, v: evaluate_phi(c, v, pt),
        "beta_monomial j": lambda c, pt, v: beta_monomial(c, v),
        "neighbors": lambda c, pt, v: c.tree.neighbors(v),
        "path j": lambda c, pt, v: c.path(v, 0),
        "path k": lambda c, pt, v: c.path(0, v),
    }

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_outside_the_tree(self, call, bad):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, seed=8)
        assert chart.tree.num_vertices == 3
        pt = sample_curve_point(chart, make_sampler(12))
        with pytest.raises(StrataError, match=f"^no vertex {bad}$"):
            self.CALLS[call](chart, pt, bad)


class TestDegeneration:
    def test_single_node_pinched_slice(self):
        # with one parameter set to zero, the rescaled section of a component
        # whose monomial avoids that node stays finite and nonzero on it
        from strata0.strata import exponent_vector

        sig, blocks = SIG_C, BLOCKS_C
        for pinched_edge, kwargs in (((0, 1), {"t1": 0}), ((0, 2), {"t2": 0})):
            chart = build_codim2_chart(sig, blocks, seed=27, **kwargs)
            hit = 0
            for j in range(3):
                beta = exponent_vector(chart.tree, j, sig).as_dict()
                if beta[pinched_edge] == 0:
                    rng = make_sampler(31)
                    pt = sample_curve_point(chart, rng, base=j, check_vertices=[j])
                    val = beta_monomial(chart, j) * evaluate_phi(chart, j, pt)
                    assert val != 0
                    hit += 1
            assert hit >= 1

    def test_case_c_everything_vanishes_on_pinched_fiber(self):
        chart = build_codim2_chart(SIG_C, BLOCKS_C, t1=0, t2=0, seed=28)
        for m in range(3):
            assert beta_monomial(chart, m) == 0
            rng = make_sampler(29)
            pt = sample_curve_point(chart, rng, base=m, check_vertices=[m])
            assert evaluate_phi(chart, m, pt) != 0
        for j, k in ((0, 1), (0, 2)):
            assert ratio_constant(chart, j, k) != 0


class TestClassification:
    def test_trichotomy_examples(self):
        # d=2: block order sums -3,-3 -> nu = (1,1): case c
        sig = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1])
        assert classify_codim2_case(sig, [{1, 2}, {3, 4, 5}, {6, 7, 8}]) == "c"
        # sums -1, -1 -> nu = (-1,-1): case a
        siga = validate_signature(2, [-1, -1, -1, -1, -1, -1, 1, 1])
        assert classify_codim2_case(siga, [{1, 2, 3}, {5, 6, 7}, {4, 8}]) == "a"
        # mixed: case b
        assert classify_codim2_case(sig, [{1, 6, 7}, {3, 4, 5}, {2, 8}]) == "b"

    def test_tie_goes_to_a(self):
        # nu1 = nu2 = 0
        sig = validate_signature(2, [-1, -1, -1, -1, -1, 1])
        posed = [{5, 6}, {1, 2}, {3, 4}]
        d, kap = sig.d, sig.kappa
        nu1 = -d - sum(kap[i - 1] for i in posed[1])
        nu2 = -d - sum(kap[i - 1] for i in posed[2])
        assert (nu1, nu2) == (0, 0)
        assert classify_codim2_case(sig, posed) == "a"

    def test_bad_blocks(self):
        sig = validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1])
        with pytest.raises(BadBlocks):
            classify_codim2_case(sig, [{1}, {2}, {3, 4, 5, 6, 7, 8}])
        with pytest.raises(BadBlocks):
            classify_codim2_case(sig, [{1, 2}, {3, 4, 5}, {6, 7}])
        with pytest.raises(BadBlocks):
            classify_codim2_case(sig, [{1, 2}, {3, 4, 5}])


# ---------------------------------------------------------------------------
# every tree at n <= 7
# ---------------------------------------------------------------------------

# each with balanced splits (k_A = k_B = -d), so tie nodes are met
SWEEP = [
    validate_signature(3, [1, -2, -2, -1, -2]),
    validate_signature(2, [-1, -1, -1, -1, -1, 1]),
    validate_signature(4, [3, -1, -2, -3, -1, -2, -2]),
]


@pytest.mark.parametrize("sig", SWEEP, ids=lambda sig: f"d{sig.d}n{sig.n}")
def test_every_tree_against_fraction_oracle(sig):
    # every tree of the signature, long paths included, against the Fraction
    # oracle: the sampler draw for draw; on every pair of components,
    # adjacent or not, f_jk as the ratio of the oracle's rescaled sections in
    # one frame, which is the ratio identity there; the identity verified
    # between the first and the last component; and the refusal of the chart
    # with the same coordinates and every node parameter +-1, where sections
    # often land on nodes
    refused = 0
    for count, key in enumerate(_split_keys(sig.n, sig.n - 3)):
        tree = StableTree.from_splits(sig.n, key)
        chart = build_chart(sig, tree, seed=count)
        last = tree.num_vertices - 1
        new, old = make_sampler(count), make_sampler(count)
        z = sample_curve_point(chart, new, base=last)
        assert z == oracle.sample_curve_point(chart, old, last)
        assert new.getstate() == old.getstate()
        sections = [oracle.section_in_frame(chart, j, z, last) for j in range(last + 1)]
        for j in range(last + 1):
            for k in range(j):
                assert sections[j] == ratio_constant(chart, j, k) * sections[k], (key, j, k)
        assert verify_ratio_identity(chart, last, 0, samples=1), key
        signs = {e: F((-1) ** (i + count)) for i, e in enumerate(tree.edges)}
        pinned = LocalChart(sig, tree, signs, chart.mark_coords, chart.node_coords, seed=count)
        message = oracle.degenerate_chart_message(pinned)
        if message is None:
            assert verify_ratio_identity(pinned, last, 0, samples=1), key
        else:
            refused += 1
            with pytest.raises(StrataError) as refusal:
                verify_ratio_identity(pinned, last, 0, samples=1)
            assert str(refusal.value) == message, key
    assert refused


def test_fraction_oracle_reads_no_library_section(monkeypatch):
    # the oracle carries its sections by its own fold and builds t^beta_j
    # from the far sides of the nodes: with the library's two readers made
    # to raise wherever they are called from, it still agrees with the
    # library's values, taken first, on trees up to three nodes deep
    sig = SWEEP[1]
    charts = [build_chart(sig, StableTree.from_splits(sig.n, key), seed=count)
              for count, key in enumerate(_split_keys(sig.n, sig.n - 3)) if count % 5 == 0]
    cases = []
    for chart in charts:
        last = chart.tree.num_vertices - 1
        z = sample_curve_point(chart, make_sampler(7), base=last)
        pairs = [(j, k) for j in range(last + 1) for k in range(last + 1)]
        cases.append((chart, z, {
            "sections": [marked_point_coords(chart, i) for i in range(1, sig.n + 1)],
            "phi": [_outcome(evaluate_phi, chart, j, z) for j in range(last + 1)],
            "beta": [beta_monomial(chart, j) for j in range(last + 1)],
            "ratio": [ratio_constant(chart, j, k) for j, k in pairs],
            "rescaled": [_outcome(section_in_frame, chart, j, z, k) for j, k in pairs],
        }))
    assert max(len(chart.tree.edges) for chart in charts) == 3

    def boom(*args, **kwargs):
        raise AssertionError("the oracle read a library section")

    for reader in (local_family.marked_point_coords, local_family.beta_monomial):
        monkeypatch.setattr(reader, "__code__", boom.__code__)
    for chart, z, expect in cases:
        last = chart.tree.num_vertices - 1
        pairs = [(j, k) for j in range(last + 1) for k in range(last + 1)]
        assert oracle.sections(chart) == expect["sections"]
        assert [_outcome(oracle.evaluate_phi, chart, j, z) for j in range(last + 1)] == expect["phi"]
        assert [oracle.beta_monomial(chart, j) for j in range(last + 1)] == expect["beta"]
        assert [oracle.ratio_constant(chart, j, k) for j, k in pairs] == expect["ratio"]
        assert [_outcome(oracle.section_in_frame, chart, j, z, k) for j, k in pairs] == expect["rescaled"]
        assert z == oracle.sample_curve_point(chart, make_sampler(7), last)
    with pytest.raises(AssertionError, match="read a library section"):
        local_family.beta_monomial(charts[0], 0)
