"""The integer bitmask enumerators of the boundary index set against an
independent oracle on random signatures: the same sets enumerated with
``Fraction`` weights over ``itertools`` subsets."""

import functools
import itertools
import math
from fractions import Fraction

from fraction_weights import mu, oracle_orient
from hypothesis import given, settings
from hypothesis import strategies as st

from strata0.strata import (
    MultiBlockPartition,
    _p_hat_parts,
    enumerate_p_hat,
    enumerate_two_block,
    m_value,
    validate_signature,
    vanishing_orders,
)


# ---------------------------------------------------------------------------
# oracle: Fraction weights summed over frozensets, itertools subsets
# ---------------------------------------------------------------------------


def oracle_two_block(sig):
    n = sig.n
    others = list(range(2, n + 1))
    out = []
    # enumerate the side containing marking 1; sizes 2..n-2
    for size in range(1, n - 2):
        for rest in itertools.combinations(others, size):
            side = frozenset((1,) + rest)
            other = frozenset(range(1, n + 1)) - side
            out.append(MultiBlockPartition(oracle_orient(side, other, sig)))
    out.sort(key=MultiBlockPartition.sort_key)
    return out


def oracle_p_hat(sig):
    """P-hat in ``sort_key`` order.  The heavy blocks of each light ``I0`` are
    every partition of the rest into blocks of weight > 1, each block
    anchored at the first remaining element; partitions and weight tests are
    kept per pool and per block for the one signature."""

    @functools.cache
    def heavy(block):
        return mu(sig, block) > 1

    @functools.cache
    def heavy_block_partitions(pool):
        if not pool:
            return [[]]
        first, rest = pool[0], pool[1:]
        out = []
        for size in range(0, len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                block = frozenset((first,) + extra)
                if heavy(block):
                    remaining = tuple(x for x in rest if x not in block)
                    out += [[block] + tail for tail in heavy_block_partitions(remaining)]
        return out

    out = oracle_two_block(sig)
    n = sig.n
    marks = list(range(1, n + 1))
    for size in range(1, n - 3):
        for i0 in itertools.combinations(marks, size):
            i0set = frozenset(i0)
            if mu(sig, i0set) >= 1:
                continue
            pool = tuple(m for m in marks if m not in i0set)
            for heavy_blocks in heavy_block_partitions(pool):
                if len(heavy_blocks) >= 2:
                    out.append(MultiBlockPartition.from_blocks(i0set, heavy_blocks))
    out.sort(key=MultiBlockPartition.sort_key)
    return out


def oracle_m_value(part, sig):
    """``prod_j d * (mu(Ij) - 1)`` in Fractions."""
    prod = Fraction(1)
    for b in part.blocks[1:]:
        prod *= sig.d * (mu(sig, b) - 1)
    return prod


# ---------------------------------------------------------------------------
# random signatures: n <= 8, d <= 4
# ---------------------------------------------------------------------------


@st.composite
def signatures(draw):
    d = draw(st.integers(2, 4))
    # every k_i starts at its floor 1 - d; the excess up to -2d is spread
    # over the markings one unit at a time
    n = draw(st.integers(3, 8).filter(lambda n: n * (d - 1) >= 2 * d))
    excess = n * (d - 1) - 2 * d
    kappa = [1 - d] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=excess, max_size=excess)):
        kappa[i] += 1
    return validate_signature(d, kappa)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(signatures())
def test_enumerators_match_oracle(sig):
    assert enumerate_two_block(sig) == oracle_two_block(sig)
    assert enumerate_p_hat(sig) == oracle_p_hat(sig)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(signatures())
def test_m_value_matches_fraction_product(sig):
    for part, (walked, ms) in zip(oracle_p_hat(sig), _p_hat_parts(sig), strict=True):
        m = oracle_m_value(part, sig)
        assert m_value(part, sig) == m
        # the factors the walk carries: the phat m column and, for r >= 2,
        # the exceptional orders m(S) / m_j
        assert walked == part and math.prod(ms) == m
        if part.r >= 2:
            orders = {j: math.prod(ms) // f for j, f in enumerate(ms, 1)}
            assert orders == vanishing_orders(part, sig)
