"""The distinguished divisor of a signature, in both of its representations,
and the volume of the projectivized stratum.

For a signature with weights ``mu`` the class of interest can be written
purely in boundary divisors,

    (d / ((n-2)(n-1))) * sum_S (|I0|-1) (|I1|-1-(n-1) mu_S) D_S,

or, equivalently up to linear equivalence, with psi classes,

    (d/2) (sum_i -mu_i psi_i + sum_S (1 - mu_S) D_S).

One walk of the splits, :func:`_form_terms`, gives every term of both; the
``divisor`` command prints both forms from one pass over it.

When the exceptional divisor of the blow-up has vanishing Weil coefficients
the top self-intersection can be computed downstairs, and the volume of the
projectivized stratum is the rational multiple

    (-1)^(n-3) / (d^(n-3) (n-2)!) * (top self-intersection)

of ``pi^(n-2)``.  The sign of this normalization is reported verbatim along
with its absolute value; no sign convention is imposed on the result.

Three engines compute intersection numbers here:

* McMullen's sum over set partitions of the cone-metric volume of M_{0,n}
  (C. McMullen, *The Gauss-Bonnet theorem for cone manifolds and volumes of
  moduli spaces*, Amer. J. Math. 2017), which Koziarz-Nguyen
  (arXiv:1601.03046) identify with ``D_mu^(n-3)`` when every ``k_i < 0``
  (so ``0 < mu_i < 1``); ``volume`` uses it on those signatures:

      D_mu^(n-3) = (-d)^(n-3) / (n-2) * sum_P (-1)^(|P|+1) (|P|-3)!
                                         * prod_{B in P} max(0, 1-mu_B)^(|B|-1),

  over set partitions ``P`` of the markings with ``|P| >= 3``.  It is the
  one computation in the package with a table over all ``2^n`` marking
  masks, and it fills the ``k_B`` column of that table itself;
* :func:`strata0.intersection.product_number`, one vertex at a time, on
  the boundary form, for ``volume`` on every other signature;
* :func:`form_psi_number`, for ``intersect``: every product of forms of
  ``D_mu``, psi classes and boundary divisors ``D_T``, for every
  signature, E-nontrivial ones included.  It restricts the product to one
  ``D_S = M_{0,|A|+1} x M_{0,|B|+1}`` at a time, where ``D_mu`` restricts
  to the ``D_mu`` of the two smaller signatures plus ``(d + k_A) psi`` at
  the node (Keel's genus-0 rules; the derivation is in its docstring), and
  builds no decorated strata.  It is not a ``volume`` engine: its memo
  grows with the distinct entries of ``kappa``, and on ``d = 30,
  kappa = (-1, .., -9, -15)`` (n = 10) it takes seconds where McMullen's
  sum takes milliseconds.

McMullen's identity matched ``product_number`` where some ``k_i >= 0``
as well: on all 78 E-trivial signatures with n = 4..7, d = 2..4 and entries
in ``[1-d, 2d]`` (66 of them with some ``k_i >= 0``), on all 222 recorded
benchmark volumes (184 such) and on nonzero such signatures at n = 8 and 9.
That is a checked identity, not a cited theorem, so those signatures stay on
``product_number``, the oracle of both other engines in the tests.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from strata0.intersection import Boundary, DivisorExpression, Psi, WrongDegree, product_number
from strata0.strata import Signature, _leading_exceptional_terms, _p_hat_walk

__all__ = [
    "ExceptionalDivisorNontrivial",
    "VolumeResult",
    "d_mu_boundary_form",
    "d_mu_psi_form",
    "form_psi_number",
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


def _split_coefficient(n: int, d: int, k0: int, size: int) -> int:
    """``(n-2)(n-1)`` times the coefficient ``c_S`` of ``D_S`` in the
    boundary form, for the split whose side ``I0`` has ``size`` markings and
    ``k_I0 = k0``: with ``mu_S = (d + k_I0) / d`` the coefficient
    ``(d / ((n-2)(n-1))) (|I0|-1) (|I1|-1-(n-1) mu_S)`` is

        (|I0|-1) (d (|I1|-1) - (n-1) (d + k_I0)) / ((n-2)(n-1)).
    """
    return (size - 1) * (d * (n - size - 1) - (n - 1) * (d + k0))


def _form_terms(sig: Signature) -> Iterator[tuple[int | tuple[int, int], int, int]]:
    """Each symbol of ``D_mu`` with the integer numerators of its
    coefficients, over ``(n-2)(n-1)`` in the boundary form and over 2 in the
    psi form, from one walk of the splits: marking ``i`` (``psi_i``) with
    ``(0, k_i)``, then each split as its masks ``(I0, I1)``, in the walk's
    order and orientation, with ``(c_S (n-2)(n-1), -k_I0)``.

    The psi form's ``-(d/2) mu_i`` and ``(d/2)(1 - mu_S)`` are ``k_i / 2``
    and ``-k_I0 / 2``, as ``mu_i = -k_i / d`` and ``mu_S = (d + k_I0) / d``.
    """
    for i, k in enumerate(sig.kappa, start=1):
        yield i, 0, k
    for masks, (m,) in _p_hat_walk(sig, r_max=1):  # m = d + k_I0
        yield masks, _split_coefficient(sig.n, sig.d, m - sig.d, masks[0].bit_count()), sig.d - m


def _symbol(n: int, key: int | tuple[int, int]) -> Psi | Boundary:
    """The divisor symbol of a :func:`_form_terms` key."""
    if type(key) is int:
        return Psi(key)
    return Boundary(n, key[0] if key[0] & 1 else key[1])


def d_mu_boundary_form(sig: Signature) -> DivisorExpression:
    """Boundary-divisor representation of the distinguished class."""
    scale = (sig.n - 2) * (sig.n - 1)
    return DivisorExpression({_symbol(sig.n, key): Fraction(c, scale)
                              for key, c, _ in _form_terms(sig) if c})


def d_mu_psi_form(sig: Signature) -> DivisorExpression:
    """Psi-and-boundary representation, linearly equivalent to the boundary form."""
    return DivisorExpression({_symbol(sig.n, key): Fraction(c, 2) for key, _, c in _form_terms(sig) if c})


def _node_terms(a: int, j: int, low: int, x: int, high: Callable[[int], int]) -> int:
    """``C(a, j) low sum_{i=0..j} C(j, i) x^i high(i)``: ``(2 D)^a`` on a
    boundary divisor, ``2 D = 2 D_A + x psi_p' + 2 D_B``, with ``j`` factors
    on the A side, ``low`` the B side's number and ``high(i)`` the A side's
    with ``psi_p'^i`` (see :func:`form_psi_number`)."""
    if not low:
        return 0
    acc = high(0)
    for i in range(1, j + 1 if x else 1):
        acc += math.comb(j, i) * x**i * high(i)
    return math.comb(a, j) * low * acc


def form_psi_number(
    sig: Signature, psi_exponents: Sequence[int], boundaries: Sequence[Boundary] = ()
) -> Fraction:
    """``W(kappa, b) = ∫ D(kappa)^a prod_i psi_i^(b_i) prod_T D_T`` over
    ``M_{0,n}``, with ``D_T`` for each of ``boundaries`` (repeats allowed),
    ``a = n - 3 - sum(b) - len(boundaries)`` and ``D(kappa)`` the
    distinguished class (either form: they are linearly equivalent).

    For any integer tuple ``kappa`` with sum ``-2d`` write ``D(kappa)`` for
    the psi form ``½ sum_i k_i psi_i - ½ sum_S k_I0 D_S``, ``I0`` the side
    of larger ``k`` (on a tie ``k_I0 = -d`` either way).  It equals the
    boundary form ``sum_S c_S D_S`` (:func:`_split_coefficient`), since each
    ``psi_i`` is an average of boundary divisors, for any such tuple, not
    only for signatures.  The recursion, by Keel's genus-0 rules
    (Trans. AMS 330, 1992), restricts the product to one boundary divisor
    ``D_S = M_{0,|A|+1} x M_{0,|B|+1}`` for ``S = A|B``, ``A = I0``, with
    new markings ``p`` on the B side (weight ``k_A``) and ``p'`` on the A
    side (weight ``k_B``).  There ``psi_i`` restricts to its own side, a
    compatible ``D_U`` to the side that holds it (re-indexed with the node
    marking), a crossing ``D_U`` to 0, and ``D_S|_{D_S} = -psi_p - psi_p'``.
    So the psi form restricts to ``D(kappa_B + [k_A])`` on the B side and
    to ``D(kappa_A + [k_B]) + (d + k_A) psi_p'`` on the A side, because
    ``½ k_A - ½ k_B = d + k_A``.  Expanding ``(X_A + X_B)^a``, only the
    degree split that fills both sides survives (:func:`_node_terms`).

    * With a ``D_T`` left, restrict to the first.  The product is 0 if
      another ``D_U`` crosses ``T``.  Otherwise the ``r`` further copies of
      ``D_T`` give ``(-1)^r sum_s C(r, s) psi_p^s psi_p'^(r-s)``, and with
      ``j`` the number of ``D`` factors that fills the A side,

          W = (-1)^r sum_s C(r, s) C(a, j) W_B(psi_p^s)
                  * sum_{i=0..j} C(j, i) (d + k_A)^i W_A(psi_p'^(r-s+i)).

    * With none, ``a = 0`` gives ``W = (n-3)! / prod_i b_i!``.
    * With none and ``a >= 1``, take one factor in the boundary form,
      ``D^a psi^b = sum_S c_S D_S (D|_{D_S})^(a-1) psi^b``: with
      ``j = |A| - 2 - b_A`` and ``a - 1 - j = |B| - 2 - b_B``,

          W = sum_S c_S C(a-1, j) W(kappa_B + [k_A], b_B + [0])
                  * sum_{i=0..j} C(j, i) (d + k_A)^i W(kappa_A + [k_B], b_A + [i])

      over the splits with ``c_S != 0``, ``j >= 0`` and ``a - 1 - j >= 0``
      (which also make both sides stable).  On a tie ``k_A = k_B = -d`` the
      A-side shift ``d + k_A`` is 0 and ``c_S`` is symmetric, so both
      orientations give the same term and the split counts once.

    The entries of the smaller tuples may be ``<= -d``, so the recursion
    runs on raw ``(k_i, b_i)`` tuples, never on a :class:`Signature`.  It
    works with ``U = 2^a W``, the number of the integral class
    ``2 D(kappa)``, which is an integer: ``c_S (n-2)(n-1)`` is an integer,
    each term gains the factor ``2^(1+i)``, and the sum over splits is
    divided by ``(n-2)(n-1)`` exactly once per state.  With no ``D_T`` a
    split is a sub-multiset of the ``(k_i, b_i)``, counted with binomial
    weights, and a memo local to the call is keyed by the sorted multiset;
    with some, the markings keep their places and the ``D_T`` are masks.
    """
    n, d = sig.n, sig.d
    b = tuple(psi_exponents)
    if len(b) != n or any(p < 0 for p in b):
        raise ValueError(f"need {n} psi exponents >= 0, got {list(b)}")
    if any(t.n != n for t in boundaries):
        raise ValueError("boundary symbol for the wrong n")
    top = n - 3 - sum(b) - len(boundaries)
    if top < 0:
        raise WrongDegree(
            f"psi exponents and boundary factors sum to {n - 3 - top} > n - 3 = {n - 3}")
    memo: dict[tuple[tuple[int, int], ...], int] = {}

    def scaled(state: tuple[tuple[int, int], ...]) -> int:
        got = memo.get(state)
        if got is not None:
            return got
        m = len(state)
        a = m - 3 - sum(p for _, p in state)
        if a == 0:
            out = math.factorial(m - 3)
            for _, p in state:
                out //= math.factorial(p)
            memo[state] = out
            return out
        # every sub-multiset A of the state: |A|, k_A, b_A, its number of
        # index subsets, and both sides, built one class of equal (k, b) at a time
        subs = [(0, 0, 0, 1, (), ())]
        for kp, cnt in sorted(Counter(state).items()):
            k, p = kp
            subs = [(size + s, k_a + s * k, b_a + s * p, w * math.comb(cnt, s),
                     side_a + (kp,) * s, side_b + (kp,) * (cnt - s))
                    for size, k_a, b_a, w, side_a, side_b in subs for s in range(cnt + 1)]
        total = 0
        for size, k_a, b_a, weight, side_a, side_b in subs:
            k_b = -2 * d - k_a
            j = size - 2 - b_a
            if k_a < k_b or j < 0 or j >= a:
                continue
            c = _split_coefficient(m, d, k_a, size)
            if not c:
                continue
            term = _node_terms(a - 1, j, scaled(tuple(sorted(side_b + ((k_a, 0),)))), 2 * (d + k_a),
                               lambda i: scaled(tuple(sorted(side_a + ((k_b, i),)))))
            # a tie is met in both orientations: count it half
            total += (1 if k_a == k_b else 2) * weight * c * term
        out = total // ((m - 2) * (m - 1))
        memo[state] = out
        return out

    def restricted(ks: tuple[int, ...], bs: tuple[int, ...], bnds: tuple[int, ...]) -> int:
        # U of the product with D_U for each mask U over the places of ks
        if not bnds:
            return scaled(tuple(sorted(zip(ks, bs))))
        m, t = len(ks), bnds[0]
        full = (1 << m) - 1
        k_t = sum(k for i, k in enumerate(ks) if t >> i & 1)
        big = t if k_t >= -d else full ^ t  # the side A = I0
        k_a = max(k_t, -2 * d - k_t)
        held: tuple[list[int], list[int]] = ([], [])  # the other D_U on A and on B
        r = 0  # further copies of D_T
        for u in bnds[1:]:
            if u in (t, full ^ t):
                r += 1
                continue
            x = next((x for x in (u, full ^ u) if x & big in (0, x)), None)
            if x is None:
                return 0  # D_U crosses D_T
            held[0 if x & big else 1].append(x)
        sides = []
        for half, us, k_node in ((big, held[0], -2 * d - k_a), (full ^ big, held[1], k_a)):
            places = [i for i in range(m) if half >> i & 1]
            sides.append((tuple(ks[i] for i in places) + (k_node,),
                          tuple(bs[i] for i in places),
                          tuple(sum(1 << q for q, i in enumerate(places) if x >> i & 1) for x in us)))
        (ks_a, bs_a, us_a), (ks_b, bs_b, us_b) = sides
        a = m - 3 - sum(bs) - len(bnds)
        total = 0
        for s in range(r + 1):  # psi_p^s on the B side, psi_p'^(r-s) on the A side
            j = len(ks_a) - 3 - sum(bs_a) - len(us_a) - (r - s)
            if 0 <= j <= a:
                low = restricted(ks_b, bs_b + (s,), us_b)
                total += (-1) ** r * math.comb(r, s) * _node_terms(
                    a, j, low, 2 * (d + k_a), lambda i: restricted(ks_a, bs_a + (r - s + i,), us_a))
        return total

    return Fraction(restricted(sig.kappa, b, tuple(t.key for t in boundaries)), 2**top)


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
        return _pi_multiple_decimal(self.coefficient, self.pi_power, digits)

    def abs_decimal(self, digits: int = 12) -> str:
        return _pi_multiple_decimal(abs(self.coefficient), self.pi_power, digits)


def _pi_multiple_decimal(x: Fraction, p: int, digits: int) -> str:
    """``x * pi**p`` to ``digits`` significant digits in ``%g`` style.

    Where ``float(x)`` and the float product are normal floats this is the
    float product.  Elsewhere ``float(x)`` has lost precision, or the product
    underflows or overflows, so the digits come from the exact ``x`` times the
    double nearest pi.
    """
    try:
        c = float(x)
        v = c * math.pi ** p
    except OverflowError:
        c = v = math.inf
    tiny = sys.float_info.min
    if tiny <= abs(c) and tiny <= abs(v) < math.inf:
        return f"{v:.{digits}g}"
    return _format_g(x * Fraction(math.pi) ** p, digits)


def _format_g(v: Fraction, digits: int) -> str:
    """``format(v, f".{digits}g")`` for an exact rational: ``digits``
    significant digits rounded half-even, as float formatting rounds the
    exact value of a double, with its choice of notation and its trimming."""
    if not v:
        return "0"
    sign = "-" if v < 0 else ""
    v, prec = abs(v), max(digits, 1)
    # floor(log10 v): an estimate off by at most one, then corrected
    exp = math.floor((v.numerator.bit_length() - v.denominator.bit_length()) * math.log10(2))
    while v >= Fraction(10) ** (exp + 1):
        exp += 1
    while v < Fraction(10) ** exp:
        exp -= 1
    m = round(v / Fraction(10) ** (exp - prec + 1))
    if m == 10**prec:
        m, exp = m // 10, exp + 1
    s = str(m)
    if -4 <= exp < prec:
        head, tail = (s[: exp + 1], s[exp + 1 :]) if exp >= 0 else ("0", "0" * (-exp - 1) + s)
        tail = tail.rstrip("0")
        return sign + head + ("." + tail if tail else "")
    tail = s[1:].rstrip("0")
    return f"{sign}{s[0]}{'.' + tail if tail else ''}e{exp:+03d}"


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
    ``k_i < 0``, the case his theorem covers, and from ``product_number``
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
