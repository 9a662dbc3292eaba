"""Command-line interface.

Every subcommand takes the signature as ``--d`` and ``--kappa`` (a
comma-separated list of signed integers) and prints either a table (default)
or machine-readable JSON (``--json``).  Rationals are emitted as
``{"num": "...", "den": "..."}`` so nothing is lost to floating point;
partitions are arrays of arrays of 1-based markings with the light block
first.  Identical invocations produce byte-identical output.

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

Exit codes: 0 success, 2 invalid input, 3 when the volume is requested but the
exceptional divisor is nontrivial, 4 when a family verification fails.

The subcommands are rows of one table, ``_COMMANDS`` (name, handler, help,
epilog, own options), over the options ``_COMMON`` to all; one loop builds
the only parser from it at import, and :func:`main` parses every call with it.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

from strata0 import strata
from strata0.divisors import (
    ExceptionalDivisorNontrivial,
    blowup_is_trivial,
    d_mu_boundary_form,
    d_mu_psi_form,
    volume,
)
from strata0.intersection import Boundary, DivisorExpression, Psi, product_number
from strata0.local_family import (
    DEFAULT_SEED,
    INF,
    DenominatorVanishes,
    PoleHit,
    build_chart,
    marked_point_coords,
    verify_ratio_identity,
)
from strata0.strata import (
    MultiBlockPartition,
    Signature,
    StableTree,
    StrataError,
    exponent_vector,
    fiber_projective_dim,
    ideal_generators,
    in_ideal_support,
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


def _marking_list(text: str, pos: int) -> frozenset[int]:
    """The markings of a comma-separated list found at offset ``pos``: ASCII
    digits only, with no empty entry and no repeat."""
    marks: set[int] = set()
    for mpos, m in _split_with_positions(text, ","):
        if not re.fullmatch(r"[0-9]+", m):
            raise SpecParseError(f"bad marking {m!r}", pos + mpos)
        if int(m) in marks:
            raise SpecParseError(f"marking {int(m)} repeated in one group", pos + mpos)
        marks.add(int(m))
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
    text: str, chart: bool = True
) -> tuple[tuple[frozenset[int], ...], list[tuple[int, int]], dict[tuple[int, int], Fraction]]:
    """Parse a tree/chart spec into (marking groups, edges, node parameters).
    A tree spec (``chart`` false) rejects its first node parameter."""
    tokens = [(m.start(), m.group()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise SpecParseError("empty tree spec", 0)
    gpos, gtok = tokens[0]
    groups = tuple(
        _marking_list(piece, gpos + pos) if piece else frozenset()
        for pos, piece in _split_with_positions(gtok, ";")
    )
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
        edges.append((u, v) if u < v else (v, u))
    for (u, v), (pos, _) in params.items():
        if (u, v) not in edges:
            raise SpecParseError(f"parameter for non-edge {u}-{v}", pos)
    return groups, edges, {key: t for key, (_, t) in params.items()}


def _read_tree(
    text: str, sig: Signature, chart: bool
) -> tuple[StableTree, dict[tuple[int, int], Fraction]]:
    """The stable tree of a tree/chart spec, checked to carry ``n`` markings,
    and its node parameters."""
    groups, edges, params = parse_tree_spec(text, chart)
    tree = StableTree(groups, tuple(edges))
    if tree.n != sig.n:
        what = "chart" if chart else "tree"
        raise StrataError(f"{what} carries {tree.n} markings but n = {sig.n}")
    return tree, params


_FACTOR_RE = re.compile(r"\s*(psi_([0-9]+)|D\{([^{}]*)\}|Dmu|Dmu_psi)\s*")


def parse_factors(text: str, sig: Signature) -> list[DivisorExpression]:
    """Comma-separated product factors: ``psi_3``, ``D{1,2}``, ``Dmu``, ``Dmu_psi``.
    A blank list is the empty product."""
    out: list[DivisorExpression] = []
    if not text.strip():
        return out
    forms: dict[str, DivisorExpression] = {}  # each form of D_mu is built at most once
    for pos, piece in _split_with_positions(text, ","):
        m = _FACTOR_RE.fullmatch(piece)
        if not m:
            raise SpecParseError(f"bad factor {piece.strip()!r}", pos)
        name = m.group(1)
        if m.group(2):
            i = int(m.group(2))
            if not 1 <= i <= sig.n:
                raise SpecParseError(f"psi index {i} out of range", pos)
            out.append(DivisorExpression({Psi(i): Fraction(1)}))
        elif m.group(3) is not None:
            side = _marking_list(m.group(3), pos + m.start(3))
            out.append(DivisorExpression({Boundary.of(sig.n, side): Fraction(1)}))
        else:
            if name not in forms:
                forms[name] = (d_mu_boundary_form if name == "Dmu" else d_mu_psi_form)(sig)
            out.append(forms[name])
    return out


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _rat(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _blocks(part: MultiBlockPartition) -> list[list[int]]:
    return [sorted(b) for b in part.blocks]


def _expression_terms(expr: DivisorExpression, sig: Signature) -> list[tuple[dict, Fraction]]:
    """``(symbol JSON, coefficient)`` for each term, in output order: psi
    classes by index, then splits by their side holding marking 1.  A split
    is written ``I0`` first, by one :func:`strata._is_i0` call on that side."""
    terms = []
    for sym, c in expr.items():
        if isinstance(sym, Psi):
            terms.append(((0, sym.i), {"psi": sym.i}, c))
            continue
        a, b = sym.sides()  # a holds marking 1
        k = strata._k_sum(sig, a)
        sides = (a, b) if strata._is_i0(k, -2 * sig.d - k, True) else (b, a)
        terms.append(((1, a), {"boundary": [list(side) for side in sides]}, c))
    terms.sort(key=lambda term: term[0])
    return [(sym, c) for _, sym, c in terms]


def _emit(payload: dict, args, table: Callable[[], list[str]]) -> None:
    """Write the JSON payload to ``--out`` first, if given, then print it or,
    without ``--json``, the lines ``table()`` returns (built only then).
    The payload is encoded only when ``--json`` or ``--out`` asks for it."""
    if args.json or args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise StrataError(f"cannot write --out file {args.out}: {exc.strerror}") from None
    sys.stdout.write(text if args.json else "\n".join(table()) + "\n")


def _fmt_blocks(blocks: list[list[int]]) -> str:
    return " | ".join(",".join(map(str, b)) for b in blocks)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# (exit code, payload without the command/d/kappa header, table lines on demand)
_Answer = tuple[int, dict, Callable[[], list[str]]]


def _cmd_boundary(sig: Signature, args) -> _Answer:
    # the walk's one factor for r = 1 is d + k_I0 = d * mu_S
    mus = []
    rows = []
    for part, (m,) in strata._p_hat_parts(sig, r_max=1):
        mus.append(Fraction(m, sig.d))
        rows.append({"blocks": _blocks(part), "mu_s": _rat(mus[-1])})

    def table() -> list[str]:
        lines = [f"boundary divisors of the base (n = {sig.n}): {len(rows)}"]
        for row, mu in zip(rows, mus):
            lines.append(f"  {_fmt_blocks(row['blocks']):<40} mu_S = {mu}")
        return lines

    return EXIT_OK, {"n": sig.n, "count": len(rows), "partitions": rows}, table


def _cmd_phat(sig: Signature, args) -> _Answer:
    rows = []
    for part, ms in strata._p_hat_parts(sig):
        rows.append({"blocks": _blocks(part), "r": part.r, "m": math.prod(ms)})

    def table() -> list[str]:
        lines = [f"boundary divisors of the blow-up: {len(rows)}"]
        for row in rows:
            lines.append(f"  r={row['r']}  {_fmt_blocks(row['blocks']):<40} m = {row['m']}")
        return lines

    return EXIT_OK, {"n": sig.n, "count": len(rows), "partitions": rows}, table


def _cmd_exceptional(sig: Signature, args) -> _Answer:
    # coefficient (|S| - 2) m(S) and, for r >= 2, the node orders m(S) / m_j
    rows = []
    for part, ms in strata._p_hat_parts(sig):
        m = math.prod(ms)
        orders = [m // f for f in ms] if part.r >= 2 else None
        coeff = (part.size - 2) * m
        rows.append({"blocks": _blocks(part), "coefficient": coeff, "orders": orders})
    trivial = not any(row["coefficient"] for row in rows)

    def table() -> list[str]:
        lines = [f"exceptional Weil divisor ({'zero' if trivial else 'nonzero'}):"]
        for row in rows:
            extra = f"  orders = {row['orders']}" if row["orders"] else ""
            lines.append(f"  {_fmt_blocks(row['blocks']):<40} coeff = {row['coefficient']}{extra}")
        return lines

    return EXIT_OK, {"n": sig.n, "trivial": trivial, "terms": rows}, table


def _cmd_principal(sig: Signature, args) -> _Answer:
    tree, _ = _read_tree(args.tree, sig, chart=False)
    principal, rest = principal_subcurves(tree, sig)
    betas = [exponent_vector(tree, j, sig) for j in range(tree.num_vertices)]
    gens = sorted(g.entries for g in ideal_generators(tree, sig))
    body = {
        "tree": {"vertices": [sorted(m) for m in tree.vertex_marks],
                 "edges": [list(e) for e in tree.edges]},
        "principal_subcurves": [sorted(g) for g in principal],
        "non_principal_vertices": sorted(rest),
        "beta": [{"vertex": j, "exponents": [[list(e), p] for e, p in b.entries]}
                 for j, b in enumerate(betas)],
        "generators": [[[list(e), p] for e, p in g] for g in gens],
        "fiber_projective_dim": fiber_projective_dim(tree, sig),
        "in_ideal_support": in_ideal_support(tree, sig),
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
    bf = _expression_terms(d_mu_boundary_form(sig), sig)
    pf = _expression_terms(d_mu_psi_form(sig), sig)
    body = {"boundary_form": [{**sym, "coefficient": _rat(c)} for sym, c in bf],
            "psi_form": [{**sym, "coefficient": _rat(c)} for sym, c in pf]}

    def table() -> list[str]:
        lines = []
        for title, terms in (("distinguished divisor, boundary form:", bf), ("psi form:", pf)):
            lines.append(title)
            for sym, c in terms:
                name = f"psi_{sym['psi']}" if "psi" in sym else _fmt_blocks(sym["boundary"])
                lines.append(f"  {name:<40} {c}")
        return lines

    return EXIT_OK, body, table


def _cmd_intersect(sig: Signature, args) -> _Answer:
    factors = parse_factors(args.factors, sig)
    value = product_number(sig.n, factors)
    body = {"factors": args.factors, "value": _rat(value)}
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
        "coefficient": _rat(res.coefficient),
        "pi_power": res.pi_power,
        "intersection_number": _rat(res.intersection_number),
        "signed_decimal": res.signed_decimal(),
        "abs_decimal": res.abs_decimal(),
        "e_trivial": res.e_trivial,
        "warnings": res.warnings,
    }
    lines = [
        f"top self-intersection: {res.intersection_number}",
        f"volume = {res.coefficient} * pi^{res.pi_power}",
        f"       = {res.signed_decimal()}  (|.| = {res.abs_decimal()})",
    ] + [f"note: {wng}" for wng in res.warnings]
    return EXIT_OK, body, lambda: lines


def _cmd_verify_family(sig: Signature, args) -> _Answer:
    if args.samples < 1:
        raise StrataError("--samples must be >= 1")
    tree, params = _read_tree(args.chart, sig, chart=True)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    chart = build_chart(sig, tree, params or None, seed=seed)
    if any(t == 0 for t in chart.node_params.values()):
        raise StrataError("family verification needs nonzero node parameters")
    # A section reaches infinity away from its home component only by landing
    # on the node coordinate toward that component one step earlier.
    for i in range(1, sig.n + 1):
        home = chart.home_vertex(i)
        for j, x in enumerate(marked_point_coords(chart, i)):
            if x is INF and j != home:
                raise StrataError(
                    f"degenerate chart: the node parameters put marking {i} "
                    f"on the node toward component {j}"
                )
    pairs = []
    all_ok = True
    for u, v in tree.edges:
        try:
            ok = verify_ratio_identity(chart, u, v, samples=args.samples, seed=seed)
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
        "node_params": {f"{u}-{v}": _rat(t) for (u, v), t in sorted(chart.node_params.items())},
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
        _emit({"command": args.command, "d": sig.d, "kappa": list(sig.kappa), **body}, args, table)
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


if __name__ == "__main__":
    sys.exit(main())
