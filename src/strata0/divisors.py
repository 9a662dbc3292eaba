"""The distinguished divisor of a signature, in both of its representations,
and the volume of the projectivized stratum.

For a signature with weights ``mu`` the class of interest can be written
purely in boundary divisors,

    (d / ((n-2)(n-1))) * sum_S (|I0|-1) (|I1|-1-(n-1) mu_S) D_S,

or, equivalently up to linear equivalence, with psi classes,

    (d/2) (sum_i -mu_i psi_i + sum_S (1 - mu_S) D_S).

When the exceptional divisor of the blow-up has vanishing Weil coefficients
the top self-intersection can be computed downstairs, and the volume of the
projectivized stratum is the rational multiple

    (-1)^(n-3) / (d^(n-3) (n-2)!) * (top self-intersection)

of ``pi^(n-2)``.  The sign of this normalization is reported verbatim along
with its absolute value; no sign convention is imposed on the result.

Two engines compute the top self-intersection ``D_mu^(n-3)``:

* when every ``k_i < 0`` (so ``0 < mu_i < 1``), McMullen's sum over set
  partitions of the cone-metric volume of M_{0,n} (C. McMullen, *The
  Gauss-Bonnet theorem for cone manifolds and volumes of moduli spaces*,
  Amer. J. Math. 2017), which Koziarz-Nguyen (arXiv:1601.03046) identify
  with ``D_mu^(n-3)``:

      D_mu^(n-3) = (-d)^(n-3) / (n-2) * sum_P (-1)^(|P|+1) (|P|-3)!
                                         * prod_{B in P} max(0, 1-mu_B)^(|B|-1),

  over set partitions ``P`` of the markings with ``|P| >= 3``.  It is the
  one computation in the package with a table over all ``2^n`` marking
  masks, and it fills the ``k_B`` column of that table itself;
* for every other signature, the intersection fold of
  :func:`strata0.intersection.product_number` on the boundary form.

The same identity matched the fold on signatures with some ``k_i >= 0`` as
well: on all 78 E-trivial signatures with n = 4..7, d = 2..4 and entries in
``[1-d, 2d]`` (66 of them with some ``k_i >= 0``), on all 222 recorded
benchmark volumes (184 such) and on nonzero such signatures at n = 8.  That
is a checked identity, not a cited theorem, so those signatures stay on the
fold.  The fold remains the oracle for the closed form in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from strata0.intersection import Boundary, DivisorExpression, Psi, product_number
from strata0.strata import Signature, _leading_exceptional_terms, _p_hat_walk

__all__ = [
    "ExceptionalDivisorNontrivial",
    "VolumeResult",
    "d_mu_boundary_form",
    "d_mu_psi_form",
    "blowup_is_trivial",
    "volume",
]


class ExceptionalDivisorNontrivial(ValueError):
    """The exceptional divisor carries a nonzero Weil coefficient, so the top
    self-intersection lives on the blow-up and is not computed here.

    ``terms`` holds the nonzero coefficients the message shows, the first
    three in :func:`~strata0.strata.enumerate_p_hat` order, not all of them.
    """

    def __init__(self, terms):
        self.terms = terms
        shown = ", ".join(
            "{" + " | ".join(",".join(map(str, sorted(b))) for b in p.blocks) + f"}} -> {c}"
            for p, c in list(terms.items())[:3]
        )
        super().__init__(f"nonzero exceptional coefficients: {shown}")


def _boundary_splits(sig: Signature) -> Iterator[tuple[Boundary, int, int]]:
    """``(Boundary, k_I0, |I0|)`` for every split ``I0|I1``: the ``r = 1``
    part of the boundary index set walk of :mod:`strata0.strata`, whose one
    factor is ``d + k_I0``."""
    for (i0, i1), (m,) in _p_hat_walk(sig, r_max=1):
        yield Boundary(sig.n, i0 if i0 & 1 else i1), m - sig.d, i0.bit_count()


def d_mu_boundary_form(sig: Signature) -> DivisorExpression:
    """Boundary-divisor representation of the distinguished class."""
    n, d = sig.n, sig.d
    lead = Fraction(d, (n - 2) * (n - 1))
    terms = {}
    for sym, k0, size in _boundary_splits(sig):
        # mu_S = 1 - mu(I0) = (d + k_I0) / d
        c = lead * (size - 1) * (n - size - 1 - (n - 1) * Fraction(d + k0, d))
        if c:
            terms[sym] = c
    return DivisorExpression(terms)


def d_mu_psi_form(sig: Signature) -> DivisorExpression:
    """Psi-and-boundary representation, linearly equivalent to the boundary form.

    With ``mu_i = -k_i / d`` the coefficients ``-(d/2) mu_i`` and
    ``(d/2)(1 - mu_S)`` are ``k_i / 2`` and ``-k_I0 / 2``.
    """
    terms: dict = {}
    for i, k in enumerate(sig.kappa, start=1):
        if k:
            terms[Psi(i)] = Fraction(k, 2)
    for sym, k0, _ in _boundary_splits(sig):
        if k0:
            terms[sym] = Fraction(-k0, 2)
    return DivisorExpression(terms)


def blowup_is_trivial(sig: Signature) -> bool:
    """True when the blow-up changes nothing: the boundary index set has no
    multi-block element, so the exceptional Weil coefficients all vanish.

    Decided from ``kappa`` alone: with ``neg`` the sum of the negative
    entries, the signature is E-nontrivial iff some subset of the negative
    entries has a sum ``s`` with ``neg + d < s < -d``, i.e. iff the negative
    entries split into two groups each with sum ``< -d``.

    * A multi-block element ``{I0, I1, .., Ir}`` (``r >= 2``) has two
      disjoint heavy blocks ``I1``, ``I2`` (``k < -d``).  Dropping the
      entries ``>= 0`` from a block keeps it heavy, so the negative entries
      of ``I1`` sum to some ``s < -d``, and the other negative entries, which
      include those of ``I2``, sum to ``neg - s < -d``.
    * Conversely, if the negative entries split into ``B`` and ``C`` with
      ``k_B, k_C < -d``, the rest ``A`` has ``k_A = -2d - k_B - k_C > 0 > -d``
      (so ``A`` is nonempty), and ``{A, B, C}`` is in the boundary index set.

    Every negative entry lies in ``[1-d, -1]``, so the subset sums take at
    most ``n(d-1)+1`` values.  The tests keep the scan of
    :func:`~strata0.strata.enumerate_p_hat` and the stratum-by-stratum
    criterion (every stable tree has a unique principal subcurve) as oracles.
    """
    neg = [k for k in sig.kappa if k < 0]
    total = sum(neg)
    sums = {0}
    for k in neg:
        sums |= {s + k for s in sums}
    return not any(total + sig.d < s < -sig.d for s in sums)


@dataclass
class VolumeResult:
    """Exact volume data: ``coefficient * pi**pi_power``.

    ``intersection_number`` is the top self-intersection of the distinguished
    divisor; ``coefficient`` folds in the sign and normalization constants.
    """

    coefficient: Fraction
    pi_power: int
    intersection_number: Fraction
    e_trivial: bool
    warnings: list[str] = field(default_factory=list)

    def signed_decimal(self, digits: int = 12) -> str:
        return f"{float(self.coefficient) * math.pi ** self.pi_power:.{digits}g}"

    def abs_decimal(self, digits: int = 12) -> str:
        return f"{abs(float(self.coefficient)) * math.pi ** self.pi_power:.{digits}g}"


def _partition_sum_self_intersection(sig: Signature) -> Fraction:
    """``D_mu^(n-3)`` from McMullen's partition sum; needs every ``k_i < 0``.

    With ``1 - mu_B = (d + k_B) / d`` each block contributes the integer
    weight ``max(0, d + k_B)^(|B|-1)`` and a partition into ``m`` blocks the
    power ``d^(m-n)``, so the sum is accumulated per block count over a subset
    DP (each block holds the lowest marking still unplaced, so every
    partition is counted once) and the powers of ``d`` are applied at the
    end: ``O(3^n n)`` integer operations.  One pass over the masks in
    increasing order fills ``k_B``, the weight and the counts of each mask.
    """
    n, d = sig.n, sig.d
    # k_B by a lowest-bit DP (bit i-1 is marking i); by_blocks[mask][m]:
    # weighted count of the partitions of mask into m blocks
    ks, weight, by_blocks = [0], [0], [[1]]
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        ks.append(ks[rest] + sig.kappa[low.bit_length() - 1])
        weight.append(max(0, d + ks[mask]) ** (mask.bit_count() - 1))
        acc = [0] * (mask.bit_count() + 1)
        sub = rest
        while True:
            w = weight[sub | low]
            if w:
                for m, c in enumerate(by_blocks[rest ^ sub]):
                    acc[m + 1] += w * c
            if not sub:
                break
            sub = (sub - 1) & rest
        by_blocks.append(acc)
    total = sum(
        (-1) ** (m + 1) * math.factorial(m - 3) * d ** (m - 3) * c
        for m, c in enumerate(by_blocks[-1])
        if m >= 3
    )
    return Fraction((-1) ** (n - 3) * total, n - 2)


def volume(sig: Signature) -> VolumeResult:
    """Volume of the projectivized stratum as an exact multiple of ``pi^(n-2)``.

    Raises :class:`ExceptionalDivisorNontrivial` when some exceptional Weil
    coefficient is positive; warns (but proceeds) when ``d`` divides one of
    the ``k_i``, where the closed formula is stated under the contrary
    hypothesis.

    The self-intersection comes from McMullen's partition sum when every
    ``k_i < 0``, the case his theorem covers, and from the intersection fold
    otherwise (see the module docstring).
    """
    n = sig.n
    if not blowup_is_trivial(sig):
        raise ExceptionalDivisorNontrivial(_leading_exceptional_terms(sig))
    warnings = []
    divisible = [i for i, k in enumerate(sig.kappa, start=1) if k % sig.d == 0]
    if divisible:
        warnings.append(
            "d divides k_i for i in "
            + ",".join(map(str, divisible))
            + "; the volume normalization is only stated for nondivisible orders"
        )
    warnings.append(
        "all exceptional Weil coefficients vanish; the self-intersection is "
        "computed on the base via the projection formula"
    )
    if all(k < 0 for k in sig.kappa):
        inter = _partition_sum_self_intersection(sig)
    else:
        inter = product_number(n, [d_mu_boundary_form(sig)] * (n - 3))
    coeff = Fraction((-1) ** (n - 3), sig.d ** (n - 3) * math.factorial(n - 2)) * inter
    return VolumeResult(
        coefficient=coeff,
        pi_power=n - 2,
        intersection_number=inter,
        e_trivial=True,
        warnings=warnings,
    )
