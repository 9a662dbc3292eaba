"""The distinguished divisor, blow-up triviality, and volumes."""

import contextlib
import io
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from fraction_weights import mu
from hypothesis import given, settings
from hypothesis import strategies as st
from term_calculus import integrate, multiply, unit

import strata0.divisors as divisors_mod
from strata0.divisors import (
    ExceptionalDivisorNontrivial,
    VolumeResult,
    _format_g,
    _partition_sum_self_intersection,
    blowup_is_trivial,
    d_mu_boundary_form,
    d_mu_psi_form,
    form_psi_number,
    volume,
)
from strata0.cli import main
from strata0.intersection import (
    Boundary,
    DivisorExpression,
    Psi,
    WrongDegree,
    keel_relation,
    product_number,
)
from strata0.strata import (
    _p_hat_walk,
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


class TestVolumeDecimals:
    @staticmethod
    def result(c):
        return VolumeResult(F(c), 3, F(0), True)

    def test_representable_value_keeps_the_float_string(self):
        # the float product's string, byte for byte
        res = self.result(F(-2, 3))
        assert (res.signed_decimal(), res.abs_decimal()) == ("-20.6708511202", "20.6708511202")

    @pytest.mark.parametrize(
        "coefficient, signed, absolute",
        [
            # float(coefficient) underflows to 0 (the float product printed 0)
            (F(1, 10**400), "3.10062766803e-399", "3.10062766803e-399"),
            # the product underflows (it printed -0 and 0)
            (F(-1, 10**330), "-3.10062766803e-329", "3.10062766803e-329"),
            # float(coefficient) overflows (it raised OverflowError)
            (F(10**400), "3.10062766803e+401", "3.10062766803e+401"),
        ],
    )
    def test_outside_the_float_range(self, coefficient, signed, absolute):
        res = self.result(coefficient)
        assert (res.signed_decimal(), res.abs_decimal()) == (signed, absolute)

    @pytest.mark.parametrize(
        "coefficient, pi_power", [(F(1, 10**400), 700), (F(-3, 7), 1000), (F(10**5000), 3)]
    )
    def test_far_outside_matches_decimal_arithmetic(self, coefficient, pi_power):
        # pi ** p overflows a float, or a numerator is past the int-to-str
        # digit limit; the reference is 60-digit decimal arithmetic on the
        # same double nearest pi
        with localcontext() as ctx:
            ctx.prec = 60
            num, den = Decimal(coefficient.numerator), Decimal(coefficient.denominator)
            ref = num / den * Decimal(math.pi) ** pi_power
        res = VolumeResult(coefficient, pi_power, F(0), True)
        assert res.signed_decimal() == format(ref, ".12g")

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False).filter(bool), st.integers(0, 20))
    def test_exact_rendering_matches_float_formatting(self, x, digits):
        # a double's exact value, rendered exactly, is what %g prints for it
        assert _format_g(F(x), digits) == f"{x:.{digits}g}"

    def test_exact_rendering_ties_and_edges(self):
        for x in (0.5, 2.5, 0.125, 1e-4, 1e-5, 999999999999.5, 5e-324, 1.7976931348623157e308):
            for digits in range(18):
                assert _format_g(F(x), digits) == f"{x:.{digits}g}"
        assert _format_g(F(0), 12) == "0"

    @pytest.mark.parametrize(
        "v", [F(9, 10), F(99, 100), F(-1, 3), F(999999999999, 10**12), F(-7, 9000)]
    )
    def test_exact_rendering_of_non_dyadic_values(self, v):
        # the bit-length estimate of the exponent overshoots by one on 9/10,
        # 99/100 and 1 - 10^-12, as it never does on a double (a dyadic
        # value); the reference is 60-digit decimal arithmetic
        with localcontext() as ctx:
            ctx.prec = 60
            ref = format(Decimal(v.numerator) / Decimal(v.denominator), ".12g")
        assert _format_g(v, 12) == ref


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

    def test_mixed_n9_matches_the_other_engines(self, monkeypatch):
        # D_mu^6 on M_{0,9} with some k_i >= 0 and distinct entries: the
        # breadth-first fold's state grew to 1.1 million strata here
        sig = validate_signature(18, [1, -5, -6, -9, -1, -8, -4, -1, -3])
        calls = _count_fold_calls(monkeypatch)
        assert volume(sig).intersection_number == -35642
        assert calls == [9]
        assert form_psi_number(sig, [0] * 9) == _partition_sum_self_intersection(sig) == -35642

    @pytest.mark.parametrize(
        "d,kappa,value",
        [(4, [1] + [-1] * 7 + [-2], -245), (5, [1] + [-1] * 8 + [-3], -1071),
         (2, [0] * 7 + [-1] * 4, 0)],
    )
    def test_mixed_past_n8_matches_w(self, d, kappa, value, monkeypatch):
        # repeated entries at n = 9, 10 and 11: product_number keys its
        # vertices by class counts, and W is an independent engine
        sig = validate_signature(d, kappa)
        calls = _count_fold_calls(monkeypatch)
        assert volume(sig).intersection_number == value
        assert calls == [sig.n]
        assert form_psi_number(sig, [0] * sig.n) == value

    def test_n9_value(self, monkeypatch):
        calls = _count_fold_calls(monkeypatch)
        res = volume(validate_signature(5, [-1] * 8 + [-2]))
        assert res.intersection_number == 245
        assert res.coefficient == F(245, 5 ** 6 * 5040)
        assert not calls

    def test_mixed_matches_w_at_n8_n9(self):
        # the mixed identity against W past the grid, with no zero entry:
        # eight distinct entries at n = 9, seven equal ones, and seeded
        # members of the family 1 plus negatives summing to -(2d + 1)
        cases = [(18, [1, -5, -6, -9, -1, -8, -4, -1, -3], -35642),
                 (4, [1] + [-1] * 7 + [-2], -245)]
        rng = random.Random("mcmullen-mixed")
        for _ in range(6):
            n = rng.choice((8, 9))
            d = rng.randrange(n, 2 * n)
            neg = [0]
            while sum(neg) != -(2 * d + 1):
                neg = [rng.randrange(1 - d, 0) for _ in range(n - 1)]
            cases.append((d, [1] + neg, None))
        for d, kappa, value in cases:
            sig = validate_signature(d, kappa)
            assert blowup_is_trivial(sig), kappa
            w = form_psi_number(sig, [0] * sig.n)
            assert _partition_sum_self_intersection(sig) == w, (d, kappa)
            assert value is None or w == value

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


def _frontier_case(rng, n):
    """A seeded top-degree list at ``n`` on ``1`` plus ``n - 1`` distinct
    negative entries: one or two compatible ``D{...}`` sides, up to two psi
    classes and the rest ``D_mu`` in either form, in a shuffled order.
    Returns the signature, the sides, the psi exponents and the factors."""
    d = rng.randrange(2 * n, 3 * n)
    neg = [0]
    while sum(neg) != -(2 * d + 1):
        neg = rng.sample(range(1 - d, 0), n - 1)
    kappa = [1] + neg
    rng.shuffle(kappa)
    sig = validate_signature(d, kappa)
    sides = []
    for _ in range(rng.randrange(1, 3)):
        x = set(rng.sample(range(1, n + 1), rng.randrange(2, n - 1)))
        while any(_crosses(x, y, n) for y in sides):
            x = set(rng.sample(range(1, n + 1), rng.randrange(2, n - 1)))
        sides.append(x)
    b = [0] * n
    for _ in range(rng.randrange(3)):
        b[rng.randrange(n)] += 1
    exprs = [DivisorExpression({Boundary.of(n, x): 1}) for x in sides]
    exprs += [rng.choice((d_mu_boundary_form, d_mu_psi_form))(sig)
              for _ in range(n - 3 - len(sides) - sum(b))]
    exprs += [DivisorExpression({Psi(i): 1}) for i, p in enumerate(b, 1) for _ in range(p)]
    rng.shuffle(exprs)
    return sig, sides, b, exprs


def _form_psi_factors(sig, b, rng):
    """The factors of ``D^a prod psi^b``: a seeded form of ``D_mu`` for each
    ``D``, then the psi classes."""
    a = sig.n - 3 - sum(b)
    factors = [rng.choice((d_mu_boundary_form, d_mu_psi_form))(sig) for _ in range(a)]
    return factors + [DivisorExpression({Psi(i): 1}) for i, p in enumerate(b, 1) for _ in range(p)]


@st.composite
def _form_psi_case(draw):
    """A signature with ``n = 4..8``, ``d = 2..4`` and psi exponents of
    total degree at most ``n - 3``."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, 8))
    kappa = [1 - d] * n
    spare = n * (d - 1) - 2 * d  # raise entries from 1 - d until they sum to -2d
    for i in draw(st.lists(st.integers(0, n - 1), min_size=spare, max_size=spare)):
        kappa[i] += 1
    b = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n - 3)):
        b[i] += 1
    return validate_signature(d, kappa), b


def _crosses(x, y, n):
    """Whether the splits with sides ``x`` and ``y`` of ``1..n`` cross."""
    return all((x & y, x - y, y - x, set(range(1, n + 1)) - x - y))


# each pattern of D{...} sides with the number of sides it needs
_D_PATTERNS = {"cross": 2, "square": 2, "cube": 3, "both sides": 2, "tie": 1, "free": 1}


def _d_factor_case(sig, rng, pattern):
    """A seeded top-degree list on ``sig`` with 1..n-3 ``D{...}`` sides
    shaped by ``pattern`` (a crossing pair, ``D{S}^2``, ``D{S}^3``, one split
    written by both of its sides, a tie split ``k_P = k_Q = -d``, or free
    draws; free when ``sig`` has no room or no tie for it) and the rest
    ``Dmu``, ``Dmu_psi`` and ``psi_i``: returns the pattern drawn, the
    sides, the psi exponents and the fold's factors, in a shuffled order."""
    n, d = sig.n, sig.d
    full = set(range(1, n + 1))
    splits = [set(c) for size in range(2, n - 1) for c in itertools.combinations(sorted(full), size)]
    ties = [x for x in splits if sum(sig.kappa[i - 1] for i in x) == -d]
    if _D_PATTERNS[pattern] > n - 3 or pattern == "tie" and not ties:
        pattern = "free"
    first = rng.choice(ties if pattern == "tie" else splits)
    sides = [first]
    if pattern == "cross":
        sides.append(rng.choice([x for x in splits if _crosses(first, x, n)]))
    elif pattern in ("square", "cube"):
        sides += [rng.choice((first, full - first)) for _ in range(1 + (pattern == "cube"))]
    elif pattern == "both sides":
        sides.append(full - first)
    for _ in range(rng.randrange(n - 2 - len(sides))):
        # mostly a split compatible with the sides so far, so fewer lists are 0
        fits = [x for x in splits if not any(_crosses(x, y, n) for y in sides)]
        sides.append(rng.choice(fits if fits and rng.random() < 0.8 else splits))
    b = [0] * n
    exprs = [DivisorExpression({Boundary.of(n, x): 1}) for x in sides]
    for _ in range(n - 3 - len(sides)):
        kind = rng.randrange(3)
        if kind == 2:
            i = rng.randrange(n)
            b[i] += 1
            exprs.append(DivisorExpression({Psi(i + 1): 1}))
        else:
            exprs.append((d_mu_boundary_form, d_mu_psi_form)[kind](sig))
    rng.shuffle(sides)
    rng.shuffle(exprs)
    return pattern, sides, b, exprs


@st.composite
def _d_factor_hypothesis_case(draw):
    """A :func:`_form_psi_case` with ``n >= 5``, its psi degree capped so
    that 1..n-3 ``D{...}`` sides fit, and those sides."""
    sig, b = draw(_form_psi_case().filter(lambda case: case[0].n >= 5))
    n = sig.n
    while sum(b) > n - 4:
        b[b.index(max(b))] -= 1
    count = draw(st.integers(1, n - 3 - sum(b)))
    sides = draw(st.lists(st.sets(st.integers(1, n), min_size=2, max_size=n - 2),
                          min_size=count, max_size=count))
    return sig, b, sides


class TestFormPsiNumber:
    """``W``, the restriction recursion behind every ``intersect`` list,
    against the fold and McMullen's sum."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_fold_on_the_whole_grid(self, n):
        rng = random.Random(f"form-psi:{n}")
        for sig in _grid(n):
            fold = product_number(n, [d_mu_boundary_form(sig)] * (n - 3))
            assert form_psi_number(sig, [0] * n) == fold, (sig.d, sig.kappa)
            b = [0] * n
            for _ in range(rng.randrange(n - 2)):
                b[rng.randrange(n)] += 1
            fold = product_number(n, _form_psi_factors(sig, b, rng))
            assert form_psi_number(sig, b) == fold, (sig.d, sig.kappa, b)

    @pytest.mark.parametrize(
        "d,kappa,b,value",
        [(2, [-1, -1, -1, -1], [0] * 4, 1),
         (2, [1, -1, -1, -1, -1, -1], [0] * 6, None),
         (3, [2, 1, -1, -2, -2, -1, -1, -2], [0, 0, 1, 0, 0, 0, 0, 0], 102)],
    )
    def test_tie_split_counts_once(self, d, kappa, b, value):
        # every split of the n = 4 signature is a tie k_A = k_B = -d, and
        # counting both orientations would double its value
        sig = validate_signature(d, kappa)
        splits = ((m - d, i0.bit_count()) for (i0, _), (m,) in _p_hat_walk(sig, r_max=1))
        assert any(k0 == -d and divisors_mod._split_coefficient(sig.n, d, k0, size)
                   for k0, size in splits)
        if value is None:
            value = product_number(sig.n, _form_psi_factors(sig, b, random.Random(0)))
        assert form_psi_number(sig, b) == value

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_boundary_form_expansion_is_the_restriction_step(self, n):
        # W's two entry paths share one step: one D expanded in the boundary
        # form must equal the sum of the restrictions to the D_S it names
        rng = random.Random(f"form-psi-step:{n}")
        nontrivial = 0
        for sig in _grid(n):
            b = [0] * n
            for _ in range(rng.randrange(n - 3)):  # a >= 1
                b[rng.randrange(n)] += 1
            expanded = sum(
                F(c, (n - 2) * (n - 1)) * form_psi_number(sig, b, [divisors_mod._symbol(n, key)])
                for key, c, _ in divisors_mod._form_terms(sig) if type(key) is not int and c)
            assert form_psi_number(sig, b) == expanded, (sig.d, sig.kappa, b)
            nontrivial += not blowup_is_trivial(sig)
        assert nontrivial

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_partition_sum_beyond_the_fold(self, n):
        checked = 0
        for d in range(5, 9):
            for sig in _covered_e_trivial(n, d):
                assert form_psi_number(sig, [0] * n) == _partition_sum_self_intersection(sig), sig
                checked += 1
        assert checked > 10

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError, match="need 4 psi exponents"):
            form_psi_number(SIG_QUAD4, [0, 0, 0])
        with pytest.raises(ValueError, match="need 4 psi exponents"):
            form_psi_number(SIG_QUAD4, [1, -1, 0, 0])
        with pytest.raises(WrongDegree, match="sum to 2 > n - 3 = 1"):
            form_psi_number(SIG_QUAD4, [1, 1, 0, 0])

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError, match="^boundary symbol for the wrong n$"):
            form_psi_number(SIG_QUAD4, [0] * 4, [Boundary.of(5, {1, 2})])
        with pytest.raises(WrongDegree, match="factors sum to 2 > n - 3 = 1"):
            form_psi_number(SIG_QUAD4, [0] * 4, [Boundary.of(4, {1, 2})] * 2)
        with pytest.raises(WrongDegree, match="factors sum to 4 > n - 3 = 3"):
            form_psi_number(SIG_CUBIC6, [0, 2, 0, 0, 0, 0], [Boundary.of(6, {1, 2})] * 2)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_boundary_factors_match_fold_on_the_grid(self, n):
        # two seeded lists per relabeled grid signature, the patterns in turn
        rng = random.Random(f"form-psi-boundary:{n}")
        patterns = itertools.cycle(_D_PATTERNS)
        seen = dict.fromkeys(_D_PATTERNS, 0)
        nonzero = 0
        for sig in _grid(n):
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            sig = sig.relabeled(sigma)
            for _ in range(2):
                pattern, sides, b, exprs = _d_factor_case(sig, rng, next(patterns))
                value = form_psi_number(sig, b, [Boundary.of(n, x) for x in sides])
                assert value == product_number(n, exprs), (sig.d, sig.kappa, sides, b)
                assert value == 0 or pattern != "cross"
                seen[pattern] += 1
                nonzero += value != 0
        assert all(seen[p] for p, count in _D_PATTERNS.items() if count <= n - 3)
        assert 4 * nonzero >= sum(seen.values())  # a quarter of the lists or more

    @pytest.mark.parametrize(
        "d,kappa,b,sides,value",
        [(5, [1, -3, -2, -2, -1, -1, -1, -1], [0, 1, 1, 0, 0, 0, 0, 0], [{1, 5}], 10),
         (3, [2, 1, -1, -2, -2, -1, -1, -2], [0] * 8, [{1, 5}, {1, 5}], 16)],
    )
    def test_n8_boundary_values_match_fold(self, d, kappa, b, sides, value):
        sig = validate_signature(d, kappa)
        bnds = [Boundary.of(8, x) for x in sides]
        assert form_psi_number(sig, b, bnds) == value
        a = 5 - sum(b) - len(bnds)
        exprs = [DivisorExpression({t: 1}) for t in bnds] + [d_mu_boundary_form(sig)] * a
        exprs += [DivisorExpression({Psi(i): 1}) for i, p in enumerate(b, 1) for _ in range(p)]
        assert product_number(8, exprs) == value

    def test_matches_fold_past_n8_with_distinct_entries(self):
        # W against the fold where no other test takes it: distinct entries
        # with D{...} lists and psi mixes, sixteen seeded lists at n = 8 (4
        # are nonzero, the rest vanish by degree on a side) and the n = 9
        # list D_mu^4 psi_2 D{1,2,3}, whose fold takes seconds
        rng = random.Random("form-psi-frontier")
        nonzero = 0
        for _ in range(16):
            sig, sides, b, exprs = _frontier_case(rng, 8)
            value = form_psi_number(sig, b, [Boundary.of(8, x) for x in sides])
            assert value == product_number(8, exprs), (sig.d, sig.kappa, sides, b)
            nonzero += value != 0
        assert nonzero >= 4
        sig = validate_signature(18, [1, -5, -6, -9, -1, -8, -4, -1, -3])
        b = [0, 1] + [0] * 7
        exprs = [d_mu_boundary_form(sig), d_mu_psi_form(sig)] * 2
        exprs += [DivisorExpression({Psi(2): 1}), DivisorExpression({Boundary.of(9, {1, 2, 3}): 1})]
        assert form_psi_number(sig, b, [Boundary.of(9, {1, 2, 3})]) == 287
        assert product_number(9, exprs) == 287

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_d_factor_hypothesis_case(), st.data())
    def test_boundary_factors_invariant_under_relabeling(self, case, data):
        sig, b, sides = case
        sigma = data.draw(st.permutations(range(1, sig.n + 1)))
        moved = [0] * sig.n
        for i, p in enumerate(b):
            moved[sigma[i] - 1] = p
        moved_sides = [Boundary.of(sig.n, {sigma[i - 1] for i in x}) for x in sides]
        assert form_psi_number(sig.relabeled(sigma), moved, moved_sides) == form_psi_number(
            sig, b, [Boundary.of(sig.n, x) for x in sides])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_form_psi_case(), st.data())
    def test_invariant_under_relabeling(self, case, data):
        sig, b = case
        sigma = data.draw(st.permutations(range(1, sig.n + 1)))
        moved = [0] * sig.n
        for i, p in enumerate(b):
            moved[sigma[i] - 1] = p
        assert form_psi_number(sig.relabeled(sigma), moved) == form_psi_number(sig, b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_form_psi_case(), st.data())
    def test_cli_answer_ignores_factor_order(self, case, data):
        sig, b = case
        names = data.draw(st.lists(st.sampled_from(["Dmu", "Dmu_psi"]),
                                   min_size=sig.n - 3 - sum(b), max_size=sig.n - 3 - sum(b)))
        names += [f"psi_{i}" for i, p in enumerate(b, 1) for _ in range(p)]
        value = form_psi_number(sig, b)
        for order in (names, data.draw(st.permutations(names))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["intersect", "--d", str(sig.d),
                             "--kappa=" + ",".join(map(str, sig.kappa)),
                             "--factors", ",".join(order)])
            assert (code, out.getvalue()) == (0, f"product = {value}\n")


@st.composite
def _zero_entry_case(draw, spare_degree):
    """A signature ``kappa`` with ``m = 3..9`` entries and ``d = 2..4``, so
    that ``kappa + [0]`` has up to ``n = 10``, and psi exponents ``b`` on
    ``kappa`` of total degree at most ``m - 3 + spare_degree``."""
    d = draw(st.integers(2, 4))
    m = draw(st.integers(4 if d == 2 else 3, 9))  # m (d - 1) >= 2d
    kappa = [1 - d] * m
    spare = m * (d - 1) - 2 * d  # raise entries from 1 - d until they sum to -2d
    for i in draw(st.lists(st.integers(0, m - 1), min_size=spare, max_size=spare)):
        kappa[i] += 1
    b = [0] * m
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m - 3 + spare_degree)):
        b[i] += 1
    return validate_signature(d, kappa), b


class TestZeroEntry:
    """A zero entry ``k_i = 0``: then ``D_mu`` is the pullback of ``D_mu'``
    along the map forgetting marking ``i``, with ``kappa'`` ``kappa`` without
    ``k_i``.  That map pulls ``psi_j`` back to ``psi_j - D_{ij}`` and ``D_T``
    to ``D_T + D_{T+i}``; the psi form's coefficient on ``D_{ij}`` is
    ``-½ k_j`` on both sides, since ``k_j > -d`` makes ``{j}`` the ``I0``
    side, and every other coefficient matches term by term.  So ``W`` obeys
    three closed forms, each checked here against :func:`form_psi_number`
    as an oracle independent of the fold: ``D_mu^(n-3) = 0``, and the
    genus-0 string and dilaton equations (J. Kock, *Notes on psi classes*,
    2001), past the sizes the fold reaches."""

    @pytest.mark.parametrize("n,trivial,nontrivial", [(4, 2, 0), (5, 8, 0), (6, 15, 4),
                                                      (7, 25, 23)])
    def test_top_power_vanishes(self, n, trivial, nontrivial):
        # 50 E-trivial grid signatures have a zero entry, so volume 0; the
        # pullback argument needs no triviality, so the other 27 vanish too
        seen = {True: 0, False: 0}
        for sig in _grid(n):
            if 0 in sig.kappa:
                assert form_psi_number(sig, [0] * n) == 0, (sig.d, sig.kappa)
                seen[blowup_is_trivial(sig)] += 1
        assert seen == {True: trivial, False: nontrivial}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_zero_entry_case(spare_degree=1))
    def test_string_equation(self, case):
        # W(kappa + [0], b + [0]) = sum over j with b_j > 0 of W(kappa, b - e_j)
        sig, b = case
        grown = validate_signature(sig.d, [*sig.kappa, 0])
        want = 0
        for j, p in enumerate(b):
            if p:
                want += form_psi_number(sig, [q - (i == j) for i, q in enumerate(b)])
        assert form_psi_number(grown, [*b, 0]) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_zero_entry_case(spare_degree=0))
    def test_dilaton_equation(self, case):
        # W(kappa + [0], b + [1]) = (n - 3) W(kappa, b), n = len(kappa) + 1
        sig, b = case
        grown = validate_signature(sig.d, [*sig.kappa, 0])
        assert form_psi_number(grown, [*b, 1]) == (sig.n - 2) * form_psi_number(sig, b)
