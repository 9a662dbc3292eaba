"""The distinguished divisor, blow-up triviality, and volumes."""

import itertools
import random
from fractions import Fraction as F

import pytest
from fraction_weights import mu
from term_calculus import integrate, multiply, unit

import strata0.divisors as divisors_mod
from strata0.divisors import (
    ExceptionalDivisorNontrivial,
    _partition_sum_self_intersection,
    blowup_is_trivial,
    d_mu_boundary_form,
    d_mu_psi_form,
    volume,
)
from strata0.intersection import Boundary, DivisorExpression, Psi, keel_relation, product_number
from strata0.strata import (
    boundary_weight,
    enumerate_p_hat,
    enumerate_stable_trees,
    enumerate_two_block,
    in_ideal_support,
    validate_signature,
)

SIG_QUAD4 = validate_signature(2, [-1, -1, -1, -1])
SIG_POLE6 = validate_signature(2, [-1, -1, -1, -1, -1, 1])
SIG_STAR7 = validate_signature(2, [2, -1, -1, -1, -1, -1, -1])
SIG_CUBIC6 = validate_signature(3, [-1] * 6)


class TestBoundaryForm:
    def test_quad4_coefficients(self):
        bf = d_mu_boundary_form(SIG_QUAD4)
        assert sorted(bf.terms.values()) == [F(1, 3)] * 3

    def test_cubic6_coefficient(self):
        # d/((n-2)(n-1)) * (|I0|-1) * (|I1|-1-(n-1) mu_S)
        #   = 3/20 * 1 * (3 - 5/3) = 1/5 for I0 = {1,2}
        bf = d_mu_boundary_form(SIG_CUBIC6)
        assert bf.terms[Boundary.of(6, {1, 2})] == F(1, 5)

    def test_balanced_coefficient_closed_form(self):
        # mu_S = 0 gives d (|I0|-1)(|I1|-1) / ((n-2)(n-1))
        for sig in (SIG_QUAD4, SIG_POLE6):
            n = sig.n
            bf = d_mu_boundary_form(sig)
            from strata0.strata import boundary_weight, enumerate_two_block

            for part in enumerate_two_block(sig):
                if boundary_weight(part, sig) == 0:
                    i0, i1 = part.blocks
                    expect = F(sig.d * (len(i0) - 1) * (len(i1) - 1), (n - 2) * (n - 1))
                    assert bf.terms.get(Boundary.of(n, part.blocks[0]), 0) == expect


class TestPsiForm:
    def test_quad4(self):
        pf = d_mu_psi_form(SIG_QUAD4)
        for i in range(1, 5):
            assert pf.terms[Psi(i)] == F(-1, 2)
        assert pf.terms[Boundary.of(4, {1, 2})] == 1

    def test_cubic6_psi_coefficients(self):
        pf = d_mu_psi_form(SIG_CUBIC6)
        for i in range(1, 7):
            assert pf.terms[Psi(i)] == F(-1, 2)

    @pytest.mark.parametrize("sig", [SIG_QUAD4, SIG_POLE6, SIG_CUBIC6],
                             ids=["quad4", "pole6", "cubic6"])
    def test_representation_equivalence_all_mixes(self, sig):
        n = sig.n
        bf, pf = d_mu_boundary_form(sig), d_mu_psi_form(sig)
        values = {
            product_number(n, list(mix))
            for mix in itertools.product([bf, pf], repeat=n - 3)
        }
        assert len(values) == 1

    def test_pairing_equality_against_monomials(self):
        # the two forms pair identically with every single-symbol complement
        n = 5
        sig = validate_signature(2, [-1, -1, -1, -1, 0])
        bf, pf = d_mu_boundary_form(sig), d_mu_psi_form(sig)
        syms = [Psi(i) for i in range(1, 6)]
        syms += [Boundary.of(5, {1, i}) for i in range(2, 6)]
        syms += [Boundary.of(5, {i, j}) for i, j in itertools.combinations(range(2, 6), 2)]
        for s in syms:
            comp = DivisorExpression({s: F(1)})
            assert product_number(n, [bf, comp]) == product_number(n, [pf, comp])


def fraction_forms(sig):
    """Oracle: both forms' terms from the Fraction weights ``mu_i`` and
    ``mu_S = 1 - mu(I0)``, zero terms dropped."""
    n, half_d = sig.n, F(sig.d, 2)
    lead = F(sig.d, (n - 2) * (n - 1))
    bf, pf = {}, {Psi(i): -half_d * mu(sig, [i]) for i in range(1, n + 1)}
    for part in enumerate_two_block(sig):
        mu_s = boundary_weight(part, sig)
        sym = Boundary.of(n, part.blocks[0])
        bf[sym] = lead * (len(part.blocks[0]) - 1) * (len(part.blocks[1]) - 1 - (n - 1) * mu_s)
        pf[sym] = half_d * (1 - mu_s)
    return ({s: c for s, c in bf.items() if c}, {s: c for s, c in pf.items() if c})


@pytest.mark.parametrize(
    "sig",
    [SIG_QUAD4, SIG_POLE6, SIG_STAR7, SIG_CUBIC6, validate_signature(3, [4, -1, -1, -2, -2, -2, -2])],
    ids=["quad4", "pole6", "star7", "cubic6", "d3n7"],
)
def test_forms_match_fraction_weights(sig):
    bf, pf = fraction_forms(sig)
    assert d_mu_boundary_form(sig).terms == bf
    assert d_mu_psi_form(sig).terms == pf


class TestKeelInvariance:
    def test_adding_keel_multiple_keeps_products(self):
        sig = SIG_CUBIC6
        n = sig.n
        bf = d_mu_boundary_form(sig)
        shifted = bf + F(5, 7) * keel_relation(n, 1, 2, 3, 4)
        assert product_number(n, [bf] * 3) == product_number(n, [shifted] * 3)
        assert product_number(n, [bf, bf, shifted]) == product_number(n, [bf] * 3)


def trivial_on_every_stratum(sig):
    """Oracle: every stable tree, in every codimension, has a unique principal
    subcurve (no stratum lies in the support of the ideal)."""
    return not any(in_ideal_support(t, sig) for t in enumerate_stable_trees(sig, sig.n - 3))


def p_hat_is_trivial(sig):
    """Oracle: the boundary index set has no multi-block element."""
    return all(p.r == 1 for p in enumerate_p_hat(sig))


class TestTriviality:
    def test_kappa_criterion_matches_p_hat_scan(self):
        # every signature with n = 4..8 and d = 2..5, up to relabeling
        count = 0
        for n in range(4, 9):
            for d in range(2, 6):
                top = -2 * d - (n - 1) * (1 - d)
                for kappa in itertools.combinations_with_replacement(range(1 - d, top + 1), n):
                    if sum(kappa) == -2 * d:
                        sig = validate_signature(d, kappa)
                        assert blowup_is_trivial(sig) is p_hat_is_trivial(sig), (d, kappa)
                        count += 1
        assert count == 1427

    @pytest.mark.parametrize(
        "sig,expected",
        [(SIG_POLE6, True), (SIG_STAR7, False), (SIG_QUAD4, True), (SIG_CUBIC6, True)],
        ids=["pole6", "star7", "quad4", "cubic6"],
    )
    def test_both_criteria_agree(self, sig, expected):
        assert blowup_is_trivial(sig) is expected
        assert trivial_on_every_stratum(sig) is expected

    def test_trivial_implies_zero_exceptional(self):
        from strata0.strata import exceptional_divisor

        rng = random.Random(23)
        for _ in range(30):
            d = rng.randint(2, 4)
            n = rng.randint(4, 6)
            kappa = [rng.randint(1 - d, d) for _ in range(n - 1)]
            last = -2 * d - sum(kappa)
            if last < 1 - d:
                continue
            sig = validate_signature(d, kappa + [last])
            if blowup_is_trivial(sig):
                assert exceptional_divisor(sig).is_zero()


class TestVolume:
    def test_quad4(self):
        res = volume(SIG_QUAD4)
        assert res.intersection_number == 1
        assert res.coefficient == F(-1, 4)
        assert res.pi_power == 2
        assert res.e_trivial

    def test_star7_raises(self):
        with pytest.raises(ExceptionalDivisorNontrivial):
            volume(SIG_STAR7)

    def test_cubic6_dual_representation(self):
        res = volume(SIG_CUBIC6)
        alt = product_number(6, [d_mu_psi_form(SIG_CUBIC6)] * 3)
        assert res.intersection_number == alt == 3
        # (-1)^3 / (3^3 * 4!) * 3
        assert res.coefficient == F(-1, 216)

    def test_cubic6_against_naive_trilinear_expansion(self):
        # expand the cube over all symbol triples through the incremental
        # multiply path; agrees with the folded product
        bf = d_mu_boundary_form(SIG_CUBIC6)
        syms = list(bf.terms.items())
        total = F(0)
        for s1, c1 in syms:
            e1 = multiply(unit(6), s1)
            for s2, c2 in syms:
                e2 = multiply(e1, s2)
                if not e2.terms:
                    continue
                for s3, c3 in syms:
                    total += c1 * c2 * c3 * integrate(multiply(e2, s3))
        assert total == 3

    def test_divisible_order_warns(self):
        sig = validate_signature(2, [-1, -1, -1, -1, 0])
        res = volume(sig)
        assert any("divides" in w for w in res.warnings)

    def test_n4_closed_form_family(self):
        # on a projective line every boundary divisor has degree 1, so the
        # self-intersection is the plain sum of the boundary coefficients
        for d in range(2, 7):
            for kappa in itertools.product(range(1 - d, d - 2), repeat=4):
                if sum(kappa) != -2 * d:
                    continue
                sig = validate_signature(d, list(kappa))
                res = volume(sig)
                total = sum(d_mu_boundary_form(sig).terms.values())
                assert res.intersection_number == total

    def test_relabeling_invariance(self):
        rng = random.Random(31)
        for _ in range(20):
            d = rng.randint(2, 4)
            n = rng.randint(4, 6)
            kappa = [rng.randint(1 - d, d) for _ in range(n - 1)]
            last = -2 * d - sum(kappa)
            if last < 1 - d:
                continue
            sig = validate_signature(d, kappa + [last])
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            rsig = sig.relabeled(sigma)
            try:
                a = volume(sig)
            except ExceptionalDivisorNontrivial:
                with pytest.raises(ExceptionalDivisorNontrivial):
                    volume(rsig)
                continue
            b = volume(rsig)
            assert (a.coefficient, a.intersection_number) == (b.coefficient, b.intersection_number)


def _covered_e_trivial(n, d):
    """Every E-trivial signature with all k_i < 0, up to relabeling."""
    for kappa in itertools.combinations_with_replacement(range(1 - d, 0), n):
        if sum(kappa) == -2 * d:
            sig = validate_signature(d, list(kappa))
            if blowup_is_trivial(sig):
                yield sig


def _count_fold_calls(monkeypatch):
    calls = []

    def spy(n, factors):
        calls.append(n)
        return product_number(n, factors)

    monkeypatch.setattr(divisors_mod, "product_number", spy)
    return calls


def _grid(n):
    """Every signature with ``d = 2..4`` and entries in ``[1-d, 2d]``, up to
    relabeling."""
    for d in range(2, 5):
        for kappa in itertools.combinations_with_replacement(range(1 - d, 2 * d + 1), n):
            if sum(kappa) == -2 * d:
                yield validate_signature(d, list(kappa))


class TestPartitionSumEngine:
    """McMullen's partition sum against the fold, which stays its oracle.

    Where some ``k_i >= 0`` the identity is checked here, not cited, and
    ``volume`` stays on the fold.
    """

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_fold_on_every_covered_signature(self, n, monkeypatch):
        calls = _count_fold_calls(monkeypatch)
        checked = 0
        for d in range(2, 6):
            for sig in _covered_e_trivial(n, d):
                fold = product_number(n, [d_mu_boundary_form(sig)] * (n - 3))
                assert volume(sig).intersection_number == fold, sig.kappa
                checked += 1
        assert checked and not calls

    @pytest.mark.parametrize(
        "n,trivial,nontrivial", [(4, 8, 0), (5, 15, 4), (6, 25, 23), (7, 30, 74)]
    )
    def test_matches_fold_on_the_whole_grid(self, n, trivial, nontrivial):
        # 78 E-trivial signatures in all, 66 with some k_i >= 0; on the 101
        # E-nontrivial ones the sum and the fold mostly differ, so volume
        # must refuse them
        seen = {True: 0, False: 0}
        for sig in _grid(n):
            e_trivial = blowup_is_trivial(sig)
            seen[e_trivial] += 1
            if e_trivial:
                fold = product_number(n, [d_mu_boundary_form(sig)] * (n - 3))
                assert _partition_sum_self_intersection(sig) == fold, (sig.d, sig.kappa)
                assert volume(sig).intersection_number == fold, (sig.d, sig.kappa)
            else:
                with pytest.raises(ExceptionalDivisorNontrivial):
                    volume(sig)
        assert seen == {True: trivial, False: nontrivial}

    @pytest.mark.parametrize(
        "d,kappa,value",
        [(3, [1] + [-1] * 7, -40), (5, [1, -3, -2, -2, -1, -1, -1, -1], -91)],
    )
    def test_mixed_n8_matches_fold(self, d, kappa, value, monkeypatch):
        sig = validate_signature(d, kappa)
        assert _partition_sum_self_intersection(sig) == value
        calls = _count_fold_calls(monkeypatch)
        assert volume(sig).intersection_number == value
        assert calls == [8]

    def test_n9_value(self, monkeypatch):
        calls = _count_fold_calls(monkeypatch)
        res = volume(validate_signature(5, [-1] * 8 + [-2]))
        assert res.intersection_number == 245
        assert res.coefficient == F(245, 5 ** 6 * 5040)
        assert not calls

    @pytest.mark.parametrize(
        "d,kappa",
        [(2, [1, -1, -1, -1, -1, -1]), (4, [1, 1, -1, -3, -3, -3]),
         (4, [2, -2, -2, -2, -2, -2]), (3, [0, -1, -1, -1, -1, -1, -1])],
    )
    def test_nonnegative_order_stays_on_fold(self, d, kappa, monkeypatch):
        sig = validate_signature(d, kappa)
        fold = product_number(sig.n, [d_mu_boundary_form(sig)] * (sig.n - 3))
        calls = _count_fold_calls(monkeypatch)
        assert volume(sig).intersection_number == fold
        assert calls == [sig.n]
