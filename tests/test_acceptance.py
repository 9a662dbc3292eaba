"""Acceptance suite: one test per criterion, exact values only.

Each test prints a single PASS line with its runtime (visible with
``pytest -s``); the stated time budgets are asserted as hard limits.
"""

import itertools
import resource
import time
from fractions import Fraction as F
from math import factorial

import pytest
from fraction_weights import mu
from term_calculus import integrate, multiply, unit

from strata0.divisors import (
    ExceptionalDivisorNontrivial,
    d_mu_boundary_form,
    d_mu_psi_form,
    volume,
)
from strata0.intersection import (
    Boundary,
    DivisorExpression,
    Psi,
    keel_relation,
    product_number,
)
from strata0.local_family import (
    beta_monomial,
    build_codim2_chart,
    classify_codim2_case,
    evaluate_phi,
    make_sampler,
    ratio_constant,
    sample_curve_point,
    verify_ratio_identity,
)
from strata0.strata import (
    MultiBlockPartition,
    boundary_weight,
    enumerate_p_hat,
    enumerate_stable_trees,
    enumerate_two_block,
    exceptional_divisor,
    exponent_vector,
    in_ideal_support,
    m_value,
    validate_signature,
    vanishing_orders,
)


class Stopwatch:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f} s / budget {self.budget} s)")
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget} s budget"
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.2f} s")
        return False


def test_01_trivial_blowup_reproduction():
    with Stopwatch("1 trivial blow-up (-1^5,1)", 5):
        sig = validate_signature(2, [-1, -1, -1, -1, -1, 1])
        parts = enumerate_p_hat(sig)
        two_block = enumerate_two_block(sig)
        assert len(parts) == 25 == len(two_block)
        assert all(p.r == 1 for p in parts)
        assert {frozenset(p.blocks) for p in parts} == {
            frozenset({p.blocks[0], p.blocks[1]}) for p in two_block
        }
        trees = enumerate_stable_trees(sig, 3)
        assert len(trees) > 25
        for tree in trees:
            assert not in_ideal_support(tree, sig)


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for idx in range(len(sub)):
            yield sub[:idx] + [sub[idx] | {first}] + sub[idx + 1:]
        yield sub + [{first}]


def test_02_p_hat_brute_force_oracle():
    with Stopwatch("2 boundary index set vs set-partition filter", 30):
        for kappa in ([2, -1, -1, -1, -1, -1, -1], [1, 1, -1, -1, -1, -1, -1, -1]):
            sig = validate_signature(2, kappa)
            oracle = set()
            for partition in _set_partitions(range(1, sig.n + 1)):
                blocks = [frozenset(b) for b in partition]
                if len(blocks) == 2:
                    if min(map(len, blocks)) >= 2:
                        oracle.add(frozenset(blocks))
                elif len(blocks) >= 3:
                    light = [b for b in blocks if mu(sig, b) < 1]
                    heavy = [b for b in blocks if mu(sig, b) > 1]
                    if len(light) == 1 and len(light) + len(heavy) == len(blocks):
                        oracle.add(frozenset(blocks))
            got = {frozenset(p.blocks) for p in enumerate_p_hat(sig)}
            assert got == oracle


def test_03_psi_integral_closed_form():
    with Stopwatch("3 psi monomials n=4..8", 60):
        for n in range(4, 9):
            for mono in itertools.combinations_with_replacement(range(1, n + 1), n - 3):
                expect = factorial(n - 3)
                for i in set(mono):
                    expect //= factorial(mono.count(i))
                got = product_number(n, [DivisorExpression({Psi(i): F(1)}) for i in mono])
                assert got == expect, (n, mono)


def _all_symbols(n):
    syms = [Psi(i) for i in range(1, n + 1)]
    for size in range(1, n - 2):
        for rest in itertools.combinations(range(2, n + 1), size):
            syms.append(Boundary.of(n, {1, *rest}))
    return syms


def _keel_relations(n):
    for quad in itertools.combinations(range(1, n + 1), 4):
        i, j, k, l = quad
        yield keel_relation(n, i, j, k, l)
        yield keel_relation(n, i, j, l, k)
        yield keel_relation(n, i, k, l, j)


def test_04_keel_vanishing():
    with Stopwatch("4 Keel pairings vanish n=5,6", 60):
        # n = 5: complementary degree 1, via the public product
        for rel in _keel_relations(5):
            for sym in _all_symbols(5):
                assert product_number(5, [rel, DivisorExpression({sym: F(1)})]) == 0
        # n = 6: complementary degree 2, pairing each monomial class once
        n = 6
        syms = _all_symbols(n)
        relations = list(_keel_relations(n))
        for s1, s2 in itertools.combinations_with_replacement(syms, 2):
            elem = multiply(multiply(unit(n), s1), s2)
            if not elem.terms:
                continue
            for rel in relations:
                total = F(0)
                for sym, c in rel.items():
                    total += c * integrate(multiply(elem, sym))
                assert total == 0, (s1, s2)


def test_05_representation_equivalence():
    with Stopwatch("5 divisor representation equivalence", 120):
        for d, kappa in ((3, [-1] * 6), (2, [-1, -1, -1, -1, -1, 1])):
            sig = validate_signature(d, kappa)
            n = sig.n
            bf, pf = d_mu_boundary_form(sig), d_mu_psi_form(sig)
            values = {
                product_number(n, list(mix))
                for mix in itertools.product([bf, pf], repeat=n - 3)
            }
            assert len(values) == 1, (d, kappa, values)
        # n = 8 checked on the pure product and one mixed slot
        sig = validate_signature(4, [-1] * 8)
        bf, pf = d_mu_boundary_form(sig), d_mu_psi_form(sig)
        pure = product_number(8, [bf] * 5)
        mixed = product_number(8, [bf] * 4 + [pf])
        assert pure == mixed


def _signature_with_m(ms):
    blocks = []
    mark = 2
    for m in ms:
        blocks.append(set(range(mark, mark + m + 2)))
        mark += m + 2
    n = mark - 1
    kappa = [-4 + sum(m + 2 for m in ms)] + [-1] * (n - 1)
    return validate_signature(2, kappa), MultiBlockPartition.from_blocks({1}, blocks)


def test_06_vanishing_order_staircase():
    with Stopwatch("6 vanishing orders vs staircase", 10):
        for r in (2, 3):
            for ms in itertools.product(range(1, 5), repeat=r):
                sig, part = _signature_with_m(ms)
                orders = vanishing_orders(part, sig)
                for j in range(r):
                    others = [m for idx, m in enumerate(ms) if idx != j]
                    staircase = sum(
                        1 for _ in itertools.product(*[range(m) for m in others])
                    )
                    assert orders[j + 1] == staircase
                lhs = sum(ms[j] * orders[j + 1] for j in range(r - 1))
                assert lhs == (r - 1) * m_value(part, sig)


def test_07_local_family_identities():
    with Stopwatch("7 codim-2 family identities", 30):
        case_a = (validate_signature(2, [-1, -1, -1, -1, -1, -1, 1, 1]),
                  [{1, 2, 3}, {5, 6, 7}, {4, 8}])
        case_b = (validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1]),
                  [{1, 6, 7}, {3, 4, 5}, {2, 8}])
        case_c = (validate_signature(2, [1, 1, -1, -1, -1, -1, -1, -1]),
                  [{1, 2}, {3, 4, 5}, {6, 7, 8}])
        for label, (sig, blocks) in zip("abc", (case_a, case_b, case_c)):
            assert classify_codim2_case(sig, blocks) == label
            chart = build_codim2_chart(sig, blocks, seed=41)
            for j, k in ((0, 1), (1, 0), (0, 2), (2, 0)):
                assert verify_ratio_identity(chart, j, k, samples=20), (label, j, k)
            # exponent tables
            tree = chart.tree
            nu1 = -sig.d - sum(sig.kappa[i - 1] for i in blocks[1])
            nu2 = -sig.d - sum(sig.kappa[i - 1] for i in blocks[2])
            b = [exponent_vector(tree, j, sig).as_dict() for j in range(3)]
            e1, e2 = (0, 1), (0, 2)
            if label == "a":
                assert (b[0][e1], b[0][e2]) == (0, 0)
                assert (b[1][e1], b[1][e2]) == (-nu1, 0)
                assert (b[2][e1], b[2][e2]) == (0, -nu2)
            elif label == "b":
                assert (b[0][e1], b[0][e2]) == (nu1, 0)
                assert (b[1][e1], b[1][e2]) == (0, 0)
                assert (b[2][e1], b[2][e2]) == (nu1, -nu2)
            else:
                assert (b[0][e1], b[0][e2]) == (nu1, nu2)
                assert (b[1][e1], b[1][e2]) == (0, nu2)
                assert (b[2][e1], b[2][e2]) == (nu1, 0)
        # case (c): on the doubly pinched fiber every rescaled section dies on
        # every component: the monomials vanish while the transition constants
        # and the candidate products stay finite and nonzero
        sig, blocks = case_c
        pinched = build_codim2_chart(sig, blocks, t1=0, t2=0, seed=43)
        for m in range(3):
            assert beta_monomial(pinched, m) == 0
            rng = make_sampler(44)
            pt = sample_curve_point(pinched, rng, base=m, check_vertices=[m])
            assert evaluate_phi(pinched, m, pt).value != 0
        for j, k in ((0, 1), (0, 2)):
            assert ratio_constant(pinched, j, k) != 0


def test_08_n4_volume_closed_form():
    with Stopwatch("8 n=4 volumes vs boundary-coefficient sums", 5):
        checked = 0
        for d in range(2, 7):
            for kappa in itertools.product(range(1 - d, d), repeat=4):
                if sum(kappa) != -2 * d:
                    continue
                sig = validate_signature(d, list(kappa))
                res = volume(sig)
                assert res.intersection_number == sum(
                    d_mu_boundary_form(sig).terms.values()
                )
                checked += 1
        assert checked > 100


def _random_signature(rng, nmax=6):
    while True:
        d = rng.randint(2, 5)
        n = rng.randint(4, nmax)
        kappa = [rng.randint(1 - d, d) for _ in range(n - 1)]
        last = -2 * d - sum(kappa)
        if last >= 1 - d:
            return validate_signature(d, kappa + [last])


def test_09_equivariance_fuzz():
    with Stopwatch("9 relabeling equivariance fuzz", 60):
        import random

        rng = random.Random(2024)
        for _ in range(200):
            sig = _random_signature(rng)
            sigma = list(range(1, sig.n + 1))
            rng.shuffle(sigma)
            rsig = sig.relabeled(sigma)
            for part in enumerate_two_block(sig):
                assert boundary_weight(part, sig) == boundary_weight(
                    part.relabeled(sigma, rsig), rsig
                )
            img = {p.relabeled(sigma, rsig).sort_key() for p in enumerate_p_hat(sig)}
            assert img == {p.sort_key() for p in enumerate_p_hat(rsig)}
            exc, rexc = exceptional_divisor(sig), exceptional_divisor(rsig)
            for part, c in exc.terms.items():
                assert rexc.terms[part.relabeled(sigma, rsig)] == c
            try:
                a = volume(sig)
            except ExceptionalDivisorNontrivial:
                with pytest.raises(ExceptionalDivisorNontrivial):
                    volume(rsig)
                continue
            b = volume(rsig)
            assert a.coefficient == b.coefficient
            assert a.intersection_number == b.intersection_number


def test_10_performance_envelope():
    with Stopwatch("10 n=8 volume performance", 60):
        sig = validate_signature(4, [-1] * 8)
        res = volume(sig)
        assert res.intersection_number == 40
        assert res.coefficient == F((-1) ** 5 * 40, 4 ** 5 * factorial(6))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_mb < 4096, f"peak memory {peak_mb:.0f} MB"


def test_11_fold_n8_oracle():
    # volume() takes McMullen's partition sum when every k_i < 0, so test 10
    # no longer runs the fold; this keeps the n=8 fold covered
    with Stopwatch("11 n=8 fold self-intersection", 60):
        sig = validate_signature(4, [-1] * 8)
        assert product_number(8, [d_mu_boundary_form(sig)] * 5) == 40
