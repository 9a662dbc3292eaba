"""The decorated-strata intersection calculus, checked against classical
genus-0 oracles: multinomial psi integrals, Keel relations, transversal
counts and crossing annihilation."""

import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from term_calculus import DegreeOverflow, _pair_final, integrate, multiply, unit

from strata0.divisors import d_mu_boundary_form, d_mu_psi_form
from strata0.intersection import (
    Boundary,
    DivisorExpression,
    Psi,
    WrongDegree,
    keel_relation,
    product_number,
    psi_boundary_expression,
)
from strata0.strata import StrataError, _mask_marks, validate_signature


def D(n, side):
    return DivisorExpression({Boundary.of(n, side): F(1)})


def P(i):
    return DivisorExpression({Psi(i): F(1)})


def psi_integral(n, exponents):
    """Oracle: the closed form (n-3)! / prod a_i!."""
    if sum(exponents) != n - 3:
        return 0
    val = factorial(n - 3)
    for a in exponents:
        val //= factorial(a)
    return val


def all_symbols(n):
    syms = [Psi(i) for i in range(1, n + 1)]
    seen = set()
    for size in range(1, n - 2):
        for rest in itertools.combinations(range(2, n + 1), size):
            b = Boundary.of(n, {1, *rest})
            if b not in seen:
                seen.add(b)
                syms.append(b)
    return syms


class TestUnitAndIntegrate:
    def test_unit_single_term(self):
        for n in (4, 5, 6):
            assert len(unit(n).terms) == 1
            assert unit(n).degree == 0

    def test_point_class(self):
        assert integrate(unit(3)) == 1

    def test_wrong_degree(self):
        with pytest.raises(WrongDegree):
            integrate(unit(5))

    def test_degree_overflow(self):
        e = multiply(unit(4), Psi(1))
        with pytest.raises(DegreeOverflow):
            multiply(e, Psi(1))


class TestMultiply:
    def test_crossing_annihilates(self):
        e = multiply(unit(5), Boundary.of(5, {1, 2}))
        assert not multiply(e, Boundary.of(5, {1, 3})).terms

    def test_self_intersection(self):
        e = multiply(unit(5), Boundary.of(5, {1, 2}))
        assert integrate(multiply(e, Boundary.of(5, {1, 2}))) == -1

    def test_transversal_chain(self):
        e = multiply(unit(5), Boundary.of(5, {1, 2}))
        z = multiply(e, Boundary.of(5, {4, 5}))
        assert len(z.terms) == 1
        stratum = next(iter(z.terms))
        assert len(stratum.splits) == 2 and not stratum.dec
        assert integrate(z) == 1

    def test_psi_restriction(self):
        # a psi decoration sits on the leg of its marking, named by its mask
        e = multiply(unit(5), Boundary.of(5, {1, 2}))
        e = multiply(e, Psi(3))
        ((s, c),) = e.terms.items()
        assert s.dec == ((1 << 2, 1),)
        assert integrate(e) == 1

    def test_triple_self_intersections_on_m06(self):
        # [D]^3 = \int_D (psi' + psi'')^2 computed by hand on the two factor
        # shapes: a 3-pointed factor kills its branch class
        D12 = D(6, {1, 2})
        assert product_number(6, [D12] * 3) == 1
        D123 = D(6, {1, 2, 3})
        assert product_number(6, [D123] * 3) == 2
        D45 = D(6, {4, 5})
        assert product_number(6, [D12, D12, D45]) == -1

    def test_psi_kills_small_factor(self):
        assert product_number(5, [P(1), D(5, {1, 2})]) == 0
        assert product_number(5, [P(3), D(5, {1, 2})]) == 1

    def test_self_intersection_via_keel_oracle(self):
        # rewrite one D_{12} factor through a Keel relation and intersect each
        # term transversally: D12^2 = -D(125|34) + D(13|245) + D(135|24) paired
        # with D12 gives -1 + 0 + 0
        n = 5
        e = multiply(unit(n), Boundary.of(n, {1, 2}))
        total = F(0)
        for side, sign in [({1, 2, 5}, -1), ({1, 3}, 1), ({1, 3, 5}, 1)]:
            total += sign * integrate(multiply(e, Boundary.of(n, side)))
        assert total == -1
        assert total == product_number(n, [D(n, {1, 2}), D(n, {1, 2})])

    @pytest.mark.parametrize("i", [-1, 0, 6])
    def test_psi_index_out_of_range(self, i):
        n = 5
        with pytest.raises(ValueError, match=f"psi index {i} "):
            multiply(unit(n), Psi(i))
        with pytest.raises(ValueError, match=f"psi index {i} "):
            product_number(n, [P(i), P(1)])


class TestDivisorExpression:
    def test_coefficients_are_fractions_and_zeros_drop(self):
        half = F(1, 2)
        b = Boundary.of(5, {1, 2})
        e = DivisorExpression({Psi(1): 3, Psi(2): "2/7", b: half, Psi(3): 0, Psi(4): F(0)})
        assert e.terms == {Psi(1): F(3), Psi(2): F(2, 7), b: half}
        assert all(type(c) is F for c in e.terms.values())
        assert e.terms[b] is half  # a Fraction is kept as given
        # a sum that cancels drops its symbol
        assert (e + DivisorExpression({b: F(-1, 2), Psi(5): 1})).terms == {
            Psi(1): F(3), Psi(2): F(2, 7), Psi(5): F(1)
        }
        assert (e - e).terms == {}

    def test_repr_order_and_equality(self):
        # psi symbols by index, then splits by the mask of the side holding 1
        b12, b13 = Boundary.of(5, {1, 2}), Boundary.of(5, {1, 3})
        e = DivisorExpression({b13: F(1, 2), Psi(3): 2, b12: -1, Psi(1): 1})
        assert repr(e) == (
            "1*Psi(i=1) + 2*Psi(i=3) + -1*Boundary(n=5, key=3) + 1/2*Boundary(n=5, key=5)"
        )
        assert repr(DivisorExpression()) == "0"
        assert e == DivisorExpression({Psi(1): 1, Psi(3): 2, b12: -1, b13: F(1, 2)})
        assert e != DivisorExpression({Psi(1): 1, Psi(3): 2, b12: -1})
        assert e != e.terms


class TestPsiClosedForm:
    # n = 8 and 9 bring decoration powers 5 and 6 to the final raise
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_all_monomials(self, n):
        for mono in itertools.combinations_with_replacement(range(1, n + 1), n - 3):
            exps = [mono.count(i) for i in range(1, n + 1)]
            got = product_number(n, [P(i) for i in mono])
            assert got == psi_integral(n, exps), mono


class TestProductNumber:
    def test_n4_each_divisor_degree_one(self):
        for side in ({1, 2}, {1, 3}, {1, 4}):
            assert product_number(4, [D(4, side)]) == 1

    def test_empty_product_point(self):
        assert product_number(3, []) == 1

    def test_wrong_factor_count(self):
        with pytest.raises(WrongDegree):
            product_number(5, [P(1)])

    def test_boundary_of_another_n(self):
        with pytest.raises(ValueError, match="^boundary symbol for the wrong n$"):
            product_number(5, [D(6, {1, 2}), P(1)])

    @pytest.mark.parametrize("key", [0b11100, 0b1, 0b1111, 0b100011, -0b11])
    def test_invalid_boundary_key_is_refused(self, key):
        # keys Boundary.of never makes: {1,2}|{3,4,5} keyed by its far side,
        # a one-marking side on either end, a bit beyond n, a negative key.
        # When the constructor took any int, product_number gave D^2 = 0 or 1
        # on each, never the -1 of a split of n = 5
        with pytest.raises(ValueError, match=r"^boundary key -?0b[01]+ is not the side holding"):
            Boundary(5, key)

    def test_final_pairing_rejects_wrong_slack(self):
        # the n = 5 fundamental class has two units of slack, not one
        with pytest.raises(RuntimeError, match="internal error"):
            _pair_final(5, {(frozenset(), ()): 1}, {1: 1}, {})

    def test_commutativity_exhaustive_n5(self):
        n = 5
        syms = all_symbols(n)
        for s1, s2 in itertools.combinations(syms, 2):
            a = product_number(n, [DivisorExpression({s1: F(1)}), DivisorExpression({s2: F(1)})])
            b = product_number(n, [DivisorExpression({s2: F(1)}), DivisorExpression({s1: F(1)})])
            assert a == b, (s1, s2)

    def test_commutativity_sampled_n6(self):
        n = 6
        rng = random.Random(5)
        syms = all_symbols(n)
        for _ in range(15):
            chosen = [rng.choice(syms) for _ in range(n - 3)]
            vals = {
                product_number(n, [DivisorExpression({s: F(1)}) for s in perm])
                for perm in itertools.permutations(chosen)
            }
            assert len(vals) == 1, chosen

    def test_linear_in_each_slot(self):
        n = 5
        a, b = D(n, {1, 2}), P(3)
        mix = DivisorExpression({Boundary.of(n, {1, 2}): F(2, 3), Psi(3): F(-1, 7)})
        lhs = product_number(n, [mix, mix])
        rhs = (
            F(2, 3) ** 2 * product_number(n, [a, a])
            + 2 * F(2, 3) * F(-1, 7) * product_number(n, [a, b])
            + F(-1, 7) ** 2 * product_number(n, [b, b])
        )
        assert lhs == rhs

    def test_crossing_splits_annihilate_exhaustive(self):
        for n in (5, 6):
            bnds = [s for s in all_symbols(n) if isinstance(s, Boundary)]
            for s1, s2 in itertools.combinations(bnds, 2):
                a1 = _mask_marks(s1.key)
                a2 = _mask_marks(s2.key)
                x, y = set(a1), set(a2)
                full = set(range(1, n + 1))
                crossing = all(
                    (p & q) for p in (x, full - x) for q in (y, full - y)
                )
                if crossing:
                    e = multiply(unit(n), s1)
                    assert not multiply(e, s2).terms


class TestKeel:
    def test_n4_degrees(self):
        assert product_number(4, [keel_relation(4, 1, 2, 3, 4)]) == 0

    def test_marking_outside_range_is_named(self):
        # named before any split is built, where the side check would speak first
        with pytest.raises(StrataError, match=r"^marking 9 is outside 1\.\.6$"):
            keel_relation(6, 1, 2, 3, 9)

    def test_repeated_marking(self):
        with pytest.raises(ValueError, match="^need four distinct markings$"):
            keel_relation(6, 1, 2, 2, 3)

    def test_n5_pairings(self):
        kr = keel_relation(5, 1, 2, 3, 4)
        assert product_number(5, [kr, D(5, {4, 5})]) == 0
        assert product_number(5, [kr, P(1)]) == 0

    def test_exhaustive_n5(self):
        n = 5
        syms = all_symbols(n)
        for quad in itertools.combinations(range(1, n + 1), 4):
            kr = keel_relation(n, *quad)
            for s in syms:
                assert product_number(n, [kr, DivisorExpression({s: F(1)})]) == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_sampled_n7(self, data):
        # a Keel relation against a degree-3 monomial whose class is nonzero,
        # drawn one symbol at a time among those that keep the class nonzero
        n = 7
        quad = data.draw(st.permutations(range(1, n + 1)))[:4]
        syms = all_symbols(n)
        elem, chosen = unit(n), []
        for _ in range(n - 4):
            live = [s for s in syms if multiply(elem, s).terms]
            sym = data.draw(st.sampled_from(live))
            elem = multiply(elem, sym)
            chosen.append(DivisorExpression({sym: F(1)}))
        kr = keel_relation(n, *quad)
        assert product_number(n, [kr, *chosen]) == 0
        total = sum((c * integrate(multiply(elem, sym)) for sym, c in kr.items()), F(0))
        assert total == 0


class TestPsiBoundaryExpression:
    @pytest.mark.parametrize("marks,bad", [((1, 2, 9), 9), ((1, 2, 0), 0)])
    def test_marking_outside_range_is_named(self, marks, bad):
        with pytest.raises(StrataError, match=rf"^marking {bad} is outside 1\.\.5$"):
            psi_boundary_expression(5, *marks)

    def test_repeated_marking(self):
        with pytest.raises(ValueError, match="^need three distinct markings$"):
            psi_boundary_expression(5, 1, 2, 1)

    def test_n4_single_divisor(self):
        e = psi_boundary_expression(4, 1, 2, 3)
        assert set(e.terms) == {Boundary.of(4, {1, 4})}
        assert product_number(4, [e]) == 1

    def test_n5_agreement_all_pairings(self):
        n = 5
        e = psi_boundary_expression(n, 1, 2, 3)
        for s in all_symbols(n):
            other = DivisorExpression({s: F(1)})
            assert product_number(n, [e, other]) == product_number(n, [P(1), other])

    def test_reference_choice_immaterial(self):
        n = 5
        e1 = psi_boundary_expression(n, 1, 2, 3)
        e2 = psi_boundary_expression(n, 1, 4, 5)
        for s in all_symbols(n):
            other = DivisorExpression({s: F(1)})
            assert product_number(n, [e1, other]) == product_number(n, [e2, other])

    def test_n6_agreement_degree_two_pairings(self):
        n = 6
        e = psi_boundary_expression(n, 2, 5, 6)
        syms = all_symbols(n)
        for s1, s2 in itertools.combinations_with_replacement(syms, 2):
            elem = multiply(multiply(unit(n), s1), s2)
            got = sum(
                (c * integrate(multiply(elem, sym)) for sym, c in e.items()),
                F(0),
            )
            expect = integrate(multiply(elem, Psi(2)))
            assert got == expect, (s1, s2)


def relabel_symbol(sym, sigma, n):
    if isinstance(sym, Psi):
        return Psi(sigma[sym.i - 1])
    a = _mask_marks(sym.key)
    return Boundary.of(n, {sigma[i - 1] for i in a})


class TestEquivariance:
    def test_product_invariant_under_relabeling(self):
        rng = random.Random(17)
        n = 6
        syms = all_symbols(n)
        for _ in range(25):
            chosen = [rng.choice(syms) for _ in range(n - 3)]
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            before = product_number(n, [DivisorExpression({s: F(1)}) for s in chosen])
            after = product_number(
                n,
                [DivisorExpression({relabel_symbol(s, sigma, n): F(1)}) for s in chosen],
            )
            assert before == after


# ---------------------------------------------------------------------------
# property tests: relabeling of D_mu
# ---------------------------------------------------------------------------


@st.composite
def d_mu_mixes(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(5, 7))
    # every k_i starts at its floor 1 - d; the excess up to -2d is spread
    # over the markings one unit at a time
    excess = n * (d - 1) - 2 * d
    kappa = [1 - d] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=excess, max_size=excess)):
        kappa[i] += 1
    sigma = draw(st.permutations(range(1, n + 1)))
    psi_form = draw(st.lists(st.booleans(), min_size=n - 3, max_size=n - 3))
    return validate_signature(d, kappa), sigma, psi_form


class TestFoldProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d_mu_mixes())
    def test_d_mu_mix_invariant_under_relabeling(self, case):
        sig, sigma, psi_form = case

        def mix(s):
            bf, pf = d_mu_boundary_form(s), d_mu_psi_form(s)
            return [pf if p else bf for p in psi_form]

        assert product_number(sig.n, mix(sig)) == product_number(sig.n, mix(sig.relabeled(sigma)))

