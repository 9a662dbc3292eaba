"""Command-line interface.

Every subcommand takes the signature as ``--d`` and ``--kappa`` (a
comma-separated list of signed integers) and prints either a table (default)
or machine-readable JSON (``--json``).  Payloads hold rationals as
:class:`~fractions.Fraction`, which :func:`_json` writes as exact numerator
and denominator strings; partitions are arrays of arrays of 1-based markings
with the light block first.  The ``boundary``, ``phat``, ``exceptional``
and ``divisor`` commands keep the walk's rows as plain tuples of block masks
and integers (a :class:`_Rows` array, whose fields declare how each column
is written): ``_json`` writes them through one row writer, only when it
encodes the payload.  Each row array and each table reads its blocks' texts
from a dict of its own, which builds a new mask's text from the text of the
mask without its top bit, in one concatenation, with no decode.
Identical invocations produce byte-identical output.

Tree and chart specs share a mini-format: the first token lists the vertex
marking groups joined by ``;`` (``1,2;3,4;5,6``; an empty group is allowed),
the following tokens are edges ``j-k`` between 0-based vertex indices, and a
chart may pin node parameters with ``t[j-k]=p/q``.  A marking list, in a
vertex group or in a ``D{...}`` factor of ``intersect``, takes ASCII digits
only and rejects an empty entry or a repeated marking, naming its position.
``--kappa`` and the integer options take ASCII digits only as well.
Example:

    strata0 principal --d 2 --kappa=2,-1,-1,-1,-1,-1,-1 --tree "1;2,3,4;5,6,7 0-1 0-2"
    strata0 verify-family --d 2 --kappa=1,1,-1,-1,-1,-1,-1,-1 \\
        --chart "1,2;3,4,5;6,7,8 0-1 0-2 t[0-1]=1/3 t[0-2]=2/7" --samples 20

Exit codes: 0 success, 2 invalid input or a request that runs out of memory,
3 when the volume is requested but the exceptional divisor is nontrivial, 4
when a family verification fails.

The subcommands are rows of one table, ``_COMMANDS`` (name, handler, help,
epilog, own options), over the options ``_COMMON`` to all; one loop builds
the only parser from it at import, and :func:`main` parses every call with it.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

from strata0 import strata
from strata0.divisors import (
    ExceptionalDivisorNontrivial,
    _form_terms,
    blowup_is_trivial,
    form_psi_number,
    volume,
)
from strata0.intersection import Boundary, _check_factor_count
from strata0.local_family import (
    DEFAULT_SEED,
    DenominatorVanishes,
    PoleHit,
    build_chart,
    verify_ratio_identity,
)
from strata0.strata import (
    Signature,
    StableTree,
    StrataError,
    exponent_vector,
    ideal_generators,
    principal_subcurves,
    validate_signature,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXCEPTIONAL = 3
EXIT_VERIFY_FAILED = 4


class SpecParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

_EDGE_RE = re.compile(r"^([0-9]+)-([0-9]+)$")
_PARAM_RE = re.compile(r"^t\[([0-9]+)-([0-9]+)\]=(-?[0-9]+)(?:/(-?[0-9]+))?$")


def _split_with_positions(text: str, sep: str) -> list[tuple[int, str]]:
    """Split on ``sep`` outside braces, with the offset of each piece (the
    sides of ``D{...}`` keep their commas)."""
    out = []
    depth = 0
    start = 0
    for idx, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append((start, text[start:idx]))
            start = idx + 1
    out.append((start, text[start:]))
    return out


def _marking_list(
    text: str, pos: int, n: int, taken: frozenset[int] = frozenset()
) -> frozenset[int]:
    """The markings of a comma-separated list found at offset ``pos``: ASCII
    digits only, with no empty entry, no repeat, none in ``taken`` (the
    earlier groups') and each in ``1..n``."""
    marks: set[int] = set()
    for mpos, m in _split_with_positions(text, ","):
        if not re.fullmatch(r"[0-9]+", m):
            raise SpecParseError(f"bad marking {m!r}", pos + mpos)
        i = int(m)
        if not 1 <= i <= n:
            raise SpecParseError(f"marking {i} is outside 1..{n}", pos + mpos)
        if i in marks:
            raise SpecParseError(f"marking {i} repeated in one group", pos + mpos)
        if i in taken:
            raise SpecParseError(f"marking {i} repeated across groups", pos + mpos)
        marks.add(i)
    return frozenset(marks)


def _ascii_int(text: str) -> int:
    """A signed integer in ASCII digits; ``int()`` also reads other Unicode
    decimal digits, and spaces, ``+`` and ``_``."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


# argparse names the type in its usage error: "invalid int value: 'x'"
_ascii_int.__name__ = "int"


def parse_kappa(text: str) -> list[int]:
    out = []
    for pos, piece in _split_with_positions(text, ","):
        piece = piece.strip()
        try:
            out.append(_ascii_int(piece))
        except ValueError:
            raise SpecParseError(f"bad integer {piece!r} in kappa", pos) from None
    return out


def parse_tree_spec(
    text: str, n: int, chart: bool = True
) -> tuple[tuple[frozenset[int], ...], list[tuple[int, int]], dict[tuple[int, int], Fraction]]:
    """Parse a tree/chart spec on the markings ``1..n`` into (marking groups,
    edges, node parameters).  A tree spec (``chart`` false) rejects its
    first node parameter."""
    tokens = [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise SpecParseError("empty tree spec", 0)
    gpos, gtok = tokens[0]
    groups: tuple[frozenset[int], ...] = ()
    for pos, piece in _split_with_positions(gtok, ";"):
        taken = frozenset().union(*groups)
        groups += (_marking_list(piece, gpos + pos, n, taken) if piece else frozenset(),)
    edges: list[tuple[int, int]] = []
    params: dict[tuple[int, int], tuple[int, Fraction]] = {}  # key -> (position, value)
    nv = len(groups)
    for pos, tok in tokens[1:]:
        em = _EDGE_RE.match(tok)
        pm = _PARAM_RE.match(tok)
        if em:
            u, v = int(em.group(1)), int(em.group(2))
        elif pm:
            if not chart:
                raise SpecParseError("node parameters belong to charts, not trees", pos)
            u, v = int(pm.group(1)), int(pm.group(2))
            den = int(pm.group(4)) if pm.group(4) else 1
            if den == 0:
                raise SpecParseError("zero denominator in node parameter", pos)
            key = (u, v) if u < v else (v, u)
            if key in params:
                raise SpecParseError(f"node parameter t[{key[0]}-{key[1]}] given twice", pos)
            params[key] = (pos, Fraction(int(pm.group(3)), den))
            continue
        else:
            raise SpecParseError(f"expected 'j-k' or 't[j-k]=p/q', got {tok!r}", pos)
        if u == v or not (0 <= u < nv and 0 <= v < nv):
            raise SpecParseError(f"edge {tok!r} references a missing vertex", pos)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise SpecParseError(f"edge {key[0]}-{key[1]} given twice", pos)
        edges.append(key)
    for (u, v), (pos, _) in params.items():
        if (u, v) not in edges:
            raise SpecParseError(f"parameter for non-edge {u}-{v}", pos)
    return groups, edges, {key: t for key, (_, t) in params.items()}


def _read_tree(
    text: str, sig: Signature, chart: bool
) -> tuple[StableTree, dict[tuple[int, int], Fraction]]:
    """The stable tree of a tree/chart spec, checked to carry all ``n``
    markings before it is built, and its node parameters."""
    groups, edges, params = parse_tree_spec(text, sig.n, chart)
    count = sum(map(len, groups))  # distinct markings in 1..n
    if count != sig.n:
        what = "chart" if chart else "tree"
        raise StrataError(f"{what} carries {count} markings but n = {sig.n}")
    return StableTree(groups, tuple(edges)), params


_FACTOR_RE = re.compile(r"\s*(psi_([0-9]+)|D\{([^{}]*)\}|Dmu|Dmu_psi)\s*")


def parse_factors(text: str, sig: Signature) -> tuple[list[int], list[Boundary]]:
    """Comma-separated product factors ``psi_3``, ``D{1,2}``, ``Dmu`` and
    ``Dmu_psi``, checked to number ``n - 3``, as what
    :func:`~strata0.divisors.form_psi_number` reads: the exponent of each
    ``psi_i`` and the :class:`Boundary` of each ``D{...}``.  The two forms of
    ``D_mu`` are linearly equivalent, so they only count toward the ``n - 3``.
    A blank list is the empty product."""
    psi_exponents = [0] * sig.n
    boundaries: list[Boundary] = []
    pieces = _split_with_positions(text, ",") if text.strip() else []
    for pos, piece in pieces:
        m = _FACTOR_RE.fullmatch(piece)
        if not m:
            raise SpecParseError(f"bad factor {piece.strip()!r}", pos)
        if m.group(2):
            i = int(m.group(2))
            if not 1 <= i <= sig.n:
                raise SpecParseError(f"psi index {i} is outside 1..{sig.n}", pos + m.start(2))
            psi_exponents[i - 1] += 1
        elif m.group(3) is not None:
            side = _marking_list(m.group(3), pos + m.start(3), sig.n)
            try:
                boundaries.append(Boundary.of(sig.n, side))
            except ValueError as exc:  # a side too small or too large
                raise SpecParseError(str(exc), pos) from None
    _check_factor_count(sig.n, len(pieces))
    return psi_exponents, boundaries


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii


class _Rows(tuple):
    """A JSON array of objects kept as plain tuples, ``_Rows(*groups)``, each
    group ``(fields, rows)`` written after the one before.  ``fields`` names the
    entries of every row tuple of its group, in tuple order, each with the
    kind :func:`_rows_json` writes it as: ``"blocks"`` for a tuple of marking
    masks (an array of arrays of markings), ``"int"`` for an int, ``"ints"``
    for ``None`` or a list of ints, and an ``int`` ``den`` for an integer
    numerator over ``den`` (a rational)."""

    def __new__(cls, *groups: tuple[tuple[tuple[str, object], ...], Sequence[tuple]]):
        return super().__new__(cls, groups)


class _MaskTexts(dict):
    """Mask -> the text ``opening + sep.join(markings) + closing`` of its
    markings, in increasing order.  A missing mask's text is the text of the
    mask without its top bit, with ``closing`` cut off, then ``sep``, the top
    marking and ``closing`` (``opening`` and the top marking when that rest is
    empty).  So a new mask costs one lookup and one concatenation, and a
    missing rest is built the same way first.  Only a local of one row array
    or one table holds one, so none outlives the call that filled it."""

    def __init__(self, opening: str, sep: str, closing: str):
        super().__init__()
        self.opening, self.sep, self.closing = opening, sep, closing

    def __missing__(self, mask: int) -> str:
        top = mask.bit_length()
        rest = mask ^ (1 << (top - 1))
        if rest:
            head = self[rest]
            text = f"{head[:len(head) - len(self.closing)]}{self.sep}{top}{self.closing}"
        else:
            text = f"{self.opening}{top}{self.closing}"
        self[mask] = text
        return text


def _rows_json(value: _Rows, indent: str) -> str:
    """:func:`_json` of a :class:`_Rows` array at ``indent``: each row in the
    layout ``_json`` gives the dict of its fields, from one template per
    group whose field names are sorted once, and each column mapped through
    the writer of its declared kind.  A rational is reduced by one gcd, and
    each block is read from a :class:`_MaskTexts` of this array, which
    builds each block from its prefix."""
    inner = indent + "  "  # a row
    field = inner + "  "  # its fields
    block = field + "  "  # the blocks of a "blocks" field, and a rational's den and num
    mark = block + "  "  # the markings of a block
    texts = _MaskTexts("[" + mark, "," + mark, block + "]")
    between = "," + block
    fraction = "{" + block + '"den": "%d",' + block + '"num": "%d"' + field + "}"

    def blocks(masks: Sequence[int]) -> str:
        return "[" + block + between.join(map(texts.__getitem__, masks)) + field + "]"

    def ints(values: list[int] | None) -> str:
        if values is None:
            return "null"
        return "[" + block + between.join(map(int.__repr__, values)) + field + "]" if values else "[]"

    def rational(den: int) -> Callable[[int], str]:
        def lowest_terms(num: int) -> str:
            g = math.gcd(num, den)
            return fraction % (den // g, num // g)

        return lowest_terms

    writers = {"blocks": blocks, "int": int.__repr__, "ints": ints}
    items: list[str] = []
    for fields, rows in value:
        order = sorted(enumerate(fields), key=lambda f: f[1][0])
        template = "{" + ",".join(field + _encode_str(name) + ": %s" for _, (name, _) in order) + inner + "}"
        columns = [map(writers.get(kind) or rational(kind), map(operator.itemgetter(i), rows))
                   for i, (_, kind) in order]
        items += map(template.__mod__, zip(*columns))
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    values whose dict keys are strings, with each :class:`Fraction` written
    as the object ``{"den": "<d>", "num": "<n>"}`` so no rational is lost to
    floating point.  The standard library skips its C encoder once
    ``indent`` is set, and its pure-Python one was most of a ``blowup``
    query; this writes dicts (keys sorted), lists and tuples itself, a list
    of plain ints in one join, a :class:`_Rows` array through the row writer
    :func:`_rows_json` (the same bytes as its rows written as dicts, with no
    dict built and no mask decoded), and leaves floats and any other leaf to
    ``json.dumps``.  ``indent`` is the newline and indent of the current
    level."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is int:
        return int.__repr__(value)
    if t is _Rows:
        return _rows_json(value, indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is Fraction:
        return _json({"den": str(value.denominator), "num": str(value.numerator)}, indent)
    if value is None:
        return "null"
    if t is bool:
        return "true" if value else "false"
    return json.dumps(value)


def _emit(payload: dict, args, table: Callable[[], list[str]]) -> None:
    """Write the JSON payload to ``--out`` first, if given, then print it or,
    without ``--json``, the lines ``table()`` returns (built only then).
    The payload is encoded only when ``--json`` or ``--out`` asks for it,
    by :func:`_json`, whose tests check it against ``json.dumps``."""
    if args.json or args.out is not None:
        text = _json(payload) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise StrataError(f"cannot write --out file {args.out}: {exc.strerror}") from None
    sys.stdout.write(text if args.json else "\n".join(table()) + "\n")


def _block_texts() -> Callable[[Sequence[int]], str]:
    """A table's writer of block masks, ``1,2 | 3,4``, reading each block
    from a mask -> text table local to the table's call."""
    texts = _MaskTexts("", ",", "")
    return lambda masks: " | ".join(map(texts.__getitem__, masks))


def _marks_order_key(mask: int) -> str:
    """A key that orders masks as the tuples of their markings (in increasing
    order) are ordered, with no decode: for each marking from 1 up to the
    largest in ``mask``, ``"0"`` if ``mask`` holds it and ``"1"`` if not.
    Say two masks first differ at marking ``x``, held by ``a``.  If ``b``
    holds a marking past ``x``, its key has ``"1"`` where ``a``'s has
    ``"0"``, and ``a`` comes first; if not, ``b``'s tuple and key are proper
    prefixes of ``a``'s, and ``b`` comes first.  The XOR flips the bits
    below the top one and sets the bit above it, which ``bin`` writes first,
    so the slice drops that bit and the ``0b`` and reverses the rest."""
    return bin(mask ^ ((2 << mask.bit_length()) - 1))[:2:-1]


def _rational_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, with no ``Fraction``."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# (exit code, payload without the command/d/kappa header, table lines on demand)
_Answer = tuple[int, dict, Callable[[], list[str]]]


def _cmd_boundary(sig: Signature, args) -> _Answer:
    # the walk's one factor for r = 1 is d + k_I0 = d * mu_S
    rows = [(masks, m) for masks, (m,) in strata._p_hat_walk(sig, r_max=1)]

    def table() -> list[str]:
        blocks = _block_texts()
        lines = [f"boundary divisors of the base (n = {sig.n}): {len(rows)}"]
        for masks, m in rows:
            lines.append(f"  {blocks(masks):<40} mu_S = {_rational_text(m, sig.d)}")
        return lines

    partitions = _Rows(((("blocks", "blocks"), ("mu_s", sig.d)), rows))
    return EXIT_OK, {"n": sig.n, "count": len(rows), "partitions": partitions}, table


def _cmd_phat(sig: Signature, args) -> _Answer:
    rows = [(masks, len(ms), math.prod(ms)) for masks, ms in strata._p_hat_walk(sig)]

    def table() -> list[str]:
        blocks = _block_texts()
        lines = [f"boundary divisors of the blow-up: {len(rows)}"]
        for masks, r, m in rows:
            lines.append(f"  r={r}  {blocks(masks):<40} m = {m}")
        return lines

    partitions = _Rows(((("blocks", "blocks"), ("r", "int"), ("m", "int")), rows))
    return EXIT_OK, {"n": sig.n, "count": len(rows), "partitions": partitions}, table


def _cmd_exceptional(sig: Signature, args) -> _Answer:
    # coefficient (|S| - 2) m(S) = (r - 1) m(S) and, for r >= 2, the node orders m(S) / m_j
    rows = []
    for masks, ms in strata._p_hat_walk(sig):
        m = math.prod(ms)
        rows.append((masks, (len(ms) - 1) * m, [m // f for f in ms] if len(ms) >= 2 else None))
    trivial = not any(c for _, c, _ in rows)

    def table() -> list[str]:
        blocks = _block_texts()
        lines = [f"exceptional Weil divisor ({'zero' if trivial else 'nonzero'}):"]
        for masks, c, orders in rows:
            extra = f"  orders = {orders}" if orders else ""
            lines.append(f"  {blocks(masks):<40} coeff = {c}{extra}")
        return lines

    terms = _Rows(((("blocks", "blocks"), ("coefficient", "int"), ("orders", "ints")), rows))
    return EXIT_OK, {"n": sig.n, "trivial": trivial, "terms": terms}, table


def _cmd_principal(sig: Signature, args) -> _Answer:
    tree, _ = _read_tree(args.tree, sig, chart=False)
    principal, rest = principal_subcurves(tree, sig)
    betas = [exponent_vector(tree, j, sig) for j in range(tree.num_vertices)]
    gens = sorted(g.entries for g in ideal_generators(tree, sig))
    body = {
        "tree": {"vertices": [sorted(m) for m in tree.vertex_marks], "edges": tree.edges},
        "principal_subcurves": [sorted(g) for g in principal],
        "non_principal_vertices": sorted(rest),
        "beta": [{"vertex": j, "exponents": b.entries} for j, b in enumerate(betas)],
        "generators": gens,
        "fiber_projective_dim": len(principal) - 1,
        "in_ideal_support": len(principal) >= 2,
    }
    lines = [
        f"principal subcurves: {[sorted(g) for g in principal]}",
        f"non-principal vertices: {sorted(rest)}",
        f"in ideal support: {body['in_ideal_support']}",
        f"fiber projective dimension: {body['fiber_projective_dim']}",
    ]
    for j, b in enumerate(betas):
        lines.append(f"  beta_{j} = {dict(b.entries)}")
    return EXIT_OK, body, lambda: lines


def _cmd_divisor(sig: Signature, args) -> _Answer:
    # psi classes by index, as _form_terms yields them, then splits by their
    # side holding marking 1, each written I0 first as the walk oriented it
    psi, splits = [], []
    for term in _form_terms(sig):
        (psi if type(term[0]) is int else splits).append(term)
    splits.sort(key=lambda term: _marks_order_key(term[0][0] if term[0][0] & 1 else term[0][1]))
    scale = (sig.n - 2) * (sig.n - 1)
    # (name, table title, den, psi rows, split rows); a row is (symbol, numerator over den)
    forms = []
    for name, title, col, den in (("boundary_form", "distinguished divisor, boundary form:", 1, scale),
                                  ("psi_form", "psi form:", 2, 2)):
        forms.append((name, title, den, [(t[0], t[col]) for t in psi if t[col]],
                      [(t[0], t[col]) for t in splits if t[col]]))
    body = {name: _Rows(((("psi", "int"), ("coefficient", den)), psi_rows),
                        ((("boundary", "blocks"), ("coefficient", den)), split_rows))
            for name, _, den, psi_rows, split_rows in forms}

    def table() -> list[str]:
        blocks = _block_texts()
        lines = []
        for _, title, den, psi_rows, split_rows in forms:
            lines.append(title)
            lines += [f"  {f'psi_{i}':<40} {_rational_text(c, den)}" for i, c in psi_rows]
            lines += [f"  {blocks(masks):<40} {_rational_text(c, den)}" for masks, c in split_rows]
        return lines

    return EXIT_OK, body, table


def _cmd_intersect(sig: Signature, args) -> _Answer:
    value = form_psi_number(sig, *parse_factors(args.factors, sig))
    body = {"factors": args.factors, "value": value}
    return EXIT_OK, body, lambda: [f"product = {value}"]


def _cmd_volume(sig: Signature, args) -> _Answer:
    if args.max_codim is not None:
        if args.max_codim < 0:
            raise StrataError("--max-codim must be >= 0")
        depth = min(args.max_codim, sig.n - 3)
        tree_ok = not strata._any_tree_in_support(sig, depth)
        # a tree in the ideal support refutes triviality at any depth
        if (not tree_ok or depth == sig.n - 3) and tree_ok != blowup_is_trivial(sig):
            raise StrataError("triviality criteria disagree; please report")
    res = volume(sig)
    body = {
        "coefficient": res.coefficient,
        "pi_power": res.pi_power,
        "intersection_number": res.intersection_number,
        "signed_decimal": res.signed_decimal(),
        "abs_decimal": res.abs_decimal(),
        "e_trivial": res.e_trivial,
        "warnings": res.warnings,
    }
    lines = [
        f"top self-intersection: {res.intersection_number}",
        f"volume = {res.coefficient} * pi^{res.pi_power}",
        f"       = {body['signed_decimal']}  (|.| = {body['abs_decimal']})",
    ] + [f"note: {wng}" for wng in res.warnings]
    return EXIT_OK, body, lambda: lines


def _cmd_verify_family(sig: Signature, args) -> _Answer:
    if args.samples < 1:
        raise StrataError("--samples must be >= 1")
    tree, params = _read_tree(args.chart, sig, chart=True)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    chart = build_chart(sig, tree, params or None, seed=seed)
    pairs = []
    all_ok = True
    for u, v in tree.edges:
        try:
            ok = verify_ratio_identity(chart, u, v, samples=args.samples)
        except (PoleHit, DenominatorVanishes) as exc:
            pairs.append({"j": u, "k": v, "ok": False, "error": str(exc)})
            all_ok = False
            continue
        pairs.append({"j": u, "k": v, "ok": ok})
        all_ok = all_ok and ok
    body = {
        "chart": args.chart,
        "seed": seed,
        "samples": args.samples,
        "node_params": {f"{u}-{v}": t for (u, v), t in chart.node_params.items()},
        "pairs": pairs,
        "all_ok": all_ok,
    }
    lines = [f"seed = {seed}, samples per pair = {args.samples}"]
    for p in pairs:
        lines.append(f"  sections at vertices {p['j']},{p['k']}: {'ok' if p['ok'] else 'FAILED'}")
    lines.append("family verification " + ("passed" if all_ok else "FAILED"))
    return (EXIT_OK if all_ok else EXIT_VERIFY_FAILED), body, lambda: lines


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_TREE_HELP = (
    "Tree/chart mini-format: '1,2;3,4;5,6 0-1 1-2 t[0-1]=1/3'.  The first "
    "token lists the vertex marking groups joined by ';' (an empty group is "
    "an unmarked component); the remaining tokens are edges 'j-k' between "
    "0-based vertex indices and, for charts, node parameters 't[j-k]=p/q'."
)
_FACTOR_HELP = (
    "Factors are comma separated: 'psi_i' (cotangent class), 'D{...}' (one "
    "side of a two-block split), 'Dmu' (boundary representation of the "
    "distinguished divisor), 'Dmu_psi' (its psi representation)."
)


_COMMON = (
    ("--d", dict(type=_ascii_int, required=True, help="level d >= 2")),
    ("--kappa", dict(required=True, help="comma-separated zero/pole orders summing to -2d")),
    ("--json", dict(action="store_true", help="emit JSON instead of a table")),
    ("--out", dict(help="also write the JSON to a file")),
)

# (name, handler, help, epilog, options after _COMMON)
_COMMANDS = (
    ("boundary", _cmd_boundary, "list the boundary partitions with their weights", None, ()),
    ("phat", _cmd_phat, "list the boundary partitions of the blow-up with m(S)", None, ()),
    ("exceptional", _cmd_exceptional, "exceptional Weil coefficients and vanishing orders",
     None, ()),
    ("principal", _cmd_principal, "principal subcurves and ideal data of one tree", _TREE_HELP,
     (("--tree", dict(required=True, help="tree spec (see below)")),)),
    ("divisor", _cmd_divisor, "the distinguished divisor in both representations", None, ()),
    ("intersect", _cmd_intersect, "top intersection number of n-3 factors", _FACTOR_HELP,
     (("--factors", dict(required=True,
                         help="comma-separated factors: psi_i, D{...}, Dmu, Dmu_psi")),)),
    ("volume", _cmd_volume, "volume of the projectivized stratum", None,
     (("--max-codim", dict(type=_ascii_int, help="also cross-check triviality on all trees "
                                                  "up to this codimension")),)),
    ("verify-family", _cmd_verify_family, "verify the local family section identities", _TREE_HELP,
     (("--chart", dict(required=True, help="chart spec (see below)")),
      ("--samples", dict(type=_ascii_int, default=20, help="sample points per identity")),
      ("--seed", dict(type=_ascii_int, help="sampling seed (default fixed)")))),
)

_PARSER = argparse.ArgumentParser(
    prog="strata0",
    description="Exact boundary combinatorics, intersection numbers and "
    "volumes for genus-0 strata of d-differentials.",
    epilog=_TREE_HELP + "  " + _FACTOR_HELP,
)
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)
for _name, _handler, _help, _epilog, _extra in _COMMANDS:
    _sub = _SUBPARSERS.add_parser(_name, help=_help, epilog=_epilog)
    for _flag, _kwargs in _COMMON + _extra:
        _sub.add_argument(_flag, **_kwargs)
    _sub.set_defaults(func=_handler)


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        sig = validate_signature(args.d, parse_kappa(args.kappa))
        code, body, table = args.func(sig, args)
        _emit({"command": args.command, "d": sig.d, "kappa": sig.kappa, **body}, args, table)
        return code
    except ExceptionalDivisorNontrivial as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL
    except ValueError as exc:  # StrataError and SpecParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PoleHit, DenominatorVanishes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except MemoryError:
        print("error: out of memory; the request is too large", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
