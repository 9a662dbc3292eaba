"""The payloads and tables of the ``boundary``, ``phat``, ``exceptional``
and ``divisor`` commands, built the straightforward way: every row a dict
of decoded blocks and ``Fraction``s.  ``strata0.cli`` keeps its rows as
tuples of masks and integers and writes them itself; its output must equal
``json.dumps(payload, indent=2, sort_keys=True)`` of these payloads (with
each ``Fraction`` as ``{"num", "den"}``) and these table lines.

Each builder returns ``(body, table lines)``; :func:`payload` adds the
``command``/``d``/``kappa`` header that ``cli.main`` puts in front.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from strata0 import strata
from strata0.divisors import _form_terms
from strata0.strata import Signature


def _fmt_blocks(blocks: Sequence[Sequence[int]]) -> str:
    return " | ".join(",".join(map(str, b)) for b in blocks)


def boundary(sig: Signature) -> tuple[dict, list[str]]:
    # the walk's one factor for r = 1 is d + k_I0 = d * mu_S
    rows = [{"blocks": [strata._mask_marks(b) for b in masks], "mu_s": Fraction(m, sig.d)}
            for masks, (m,) in strata._p_hat_walk(sig, r_max=1)]
    lines = [f"boundary divisors of the base (n = {sig.n}): {len(rows)}"]
    for row in rows:
        lines.append(f"  {_fmt_blocks(row['blocks']):<40} mu_S = {row['mu_s']}")
    return {"n": sig.n, "count": len(rows), "partitions": rows}, lines


def phat(sig: Signature) -> tuple[dict, list[str]]:
    rows = []
    for masks, ms in strata._p_hat_walk(sig):
        blocks = [strata._mask_marks(b) for b in masks]
        rows.append({"blocks": blocks, "r": len(ms), "m": math.prod(ms)})
    lines = [f"boundary divisors of the blow-up: {len(rows)}"]
    for row in rows:
        lines.append(f"  r={row['r']}  {_fmt_blocks(row['blocks']):<40} m = {row['m']}")
    return {"n": sig.n, "count": len(rows), "partitions": rows}, lines


def exceptional(sig: Signature) -> tuple[dict, list[str]]:
    # coefficient (|S| - 2) m(S) = (r - 1) m(S) and, for r >= 2, the node orders m(S) / m_j
    rows = []
    for masks, ms in strata._p_hat_walk(sig):
        m = math.prod(ms)
        orders = [m // f for f in ms] if len(ms) >= 2 else None
        blocks = [strata._mask_marks(b) for b in masks]
        rows.append({"blocks": blocks, "coefficient": (len(ms) - 1) * m, "orders": orders})
    trivial = not any(row["coefficient"] for row in rows)
    lines = [f"exceptional Weil divisor ({'zero' if trivial else 'nonzero'}):"]
    for row in rows:
        extra = f"  orders = {row['orders']}" if row["orders"] else ""
        lines.append(f"  {_fmt_blocks(row['blocks']):<40} coeff = {row['coefficient']}{extra}")
    return {"n": sig.n, "trivial": trivial, "terms": rows}, lines


def divisor(sig: Signature) -> tuple[dict, list[str]]:
    # psi classes by index, then splits by their side holding marking 1,
    # each written I0 first as the walk oriented it
    terms = []
    for key, b, p in _form_terms(sig):
        if type(key) is int:
            order, sym = (0, key), {"psi": key}
        else:
            i0, i1 = map(strata._mask_marks, key)
            order, sym = (1, i0 if key[0] & 1 else i1), {"boundary": [i0, i1]}
        terms.append((order, sym, b, p))
    terms.sort(key=lambda term: term[0])
    scale = (sig.n - 2) * (sig.n - 1)
    body = {"boundary_form": [{**sym, "coefficient": Fraction(b, scale)}
                              for _, sym, b, _ in terms if b],
            "psi_form": [{**sym, "coefficient": Fraction(p, 2)} for _, sym, _, p in terms if p]}
    lines = []
    for title, form in (("distinguished divisor, boundary form:", "boundary_form"),
                        ("psi form:", "psi_form")):
        lines.append(title)
        for term in body[form]:
            name = f"psi_{term['psi']}" if "psi" in term else _fmt_blocks(term["boundary"])
            lines.append(f"  {name:<40} {term['coefficient']}")
    return body, lines


BUILDERS = {"boundary": boundary, "phat": phat, "exceptional": exceptional, "divisor": divisor}


def payload(command: str, sig: Signature) -> tuple[dict, list[str]]:
    """The whole payload of ``command`` on ``sig``, header included, and its table."""
    body, lines = BUILDERS[command](sig)
    return {"command": command, "d": sig.d, "kappa": sig.kappa, **body}, lines
