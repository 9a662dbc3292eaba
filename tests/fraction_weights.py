"""Exact ``Fraction`` weights ``mu_i = -k_i / d`` for the test oracles.

The library reads weights only through integer sums ``k_B``; the oracles here
keep the paper's fractions, so they check the integer criteria
(``mu(B) < 1`` iff ``k_B > -d``) instead of repeating them.
"""

from fractions import Fraction


def mu(sig, marks):
    """``mu(B) = sum_{i in B} mu_i`` for a set ``B`` of markings."""
    return sum((Fraction(-sig.kappa[i - 1], sig.d) for i in marks), Fraction(0))


def mus(sig):
    """The weights ``(mu_1, ..., mu_n)``."""
    return tuple(mu(sig, [i]) for i in range(1, sig.n + 1))


def oracle_orient(a, b, sig):
    """The split ``a | b`` as ``(I0, I1)`` by ``Fraction`` weights: the
    lighter block is ``I0`` and, when both weigh 1, the block holding
    marking 1."""
    a, b = frozenset(a), frozenset(b)
    wa, wb = mu(sig, a), mu(sig, b)
    if wa < wb:
        return a, b
    if wb < wa:
        return b, a
    return (a, b) if 1 in a else (b, a)
