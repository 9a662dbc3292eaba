"""Seeded query lists for the four benchmark workloads.

Every query is a plain dict: ``argv`` is what goes to ``strata0.cli.main``
and ``check`` says how :mod:`oracles` judges the answer.  Inputs come only
from the workload seed and from ``answers.json``, which fixes each
workload's universe (the signatures, factor mixes and trees whose answers
were recorded) together with the recorded answers.

Relabeling is the main seeded variation: every answer checked here is
invariant under a permutation of the markings applied to ``kappa`` and to
the factor or tree spec, so one recorded answer serves every seed.  The
``blowup`` outputs name markings, so that workload keeps the canonical
(nonincreasing) labeling and varies the signatures instead.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ANSWERS_PATH = Path(__file__).with_name("answers.json")

FLAGSHIP = (4, (-1,) * 8)  # n = 8, D_mu^5 = 40

# universe parameters shared with record.py: (n, levels d)
VOLUME_SIZES = ((4, range(2, 6)), (5, range(2, 7)), (6, range(2, 6)), (7, range(2, 6)))
INTERSECT_SIZES = ((6, range(2, 5)), (7, range(2, 4)))
BLOWUP_SIZES = ((8, range(2, 5)), (9, range(2, 4)))
BLOWUP_FIXED = ((2, (1, 1, 1) + (-1,) * 7), (2, (2, 1, 1) + (-1,) * 8))
CHAIN_SIZES = ((8, range(2, 4)), (9, range(2, 4)), (10, range(2, 4)))
PRINCIPAL_SIZES = ((8, range(2, 4)), (9, range(2, 4)), (10, range(2, 3)))


def signatures(d: int, n: int) -> list[tuple[int, ...]]:
    """All kappa multisets of level ``d`` with ``n`` entries, nonincreasing."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, remaining: int, lo: int) -> None:
        if left == 0:
            if remaining == 0:
                out.append(tuple(reversed(prefix)))
            return
        for k in range(lo, remaining - (left - 1) * lo + 1):
            rec(prefix + [k], left - 1, remaining - k, k)

    rec([], n, -2 * d, 1 - d)
    return out


def sig_key(d: int, kappa) -> str:
    """Relabeling-invariant key of a signature."""
    return f"{d}:" + ",".join(map(str, sorted(kappa, reverse=True)))


def parse_key(key: str) -> tuple[int, tuple[int, ...]]:
    d, kap = key.split(":")
    return int(d), tuple(int(k) for k in kap.split(","))


def load_answers(path: Path = ANSWERS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    """``sigma[i-1]`` is the new label of marking ``i``."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return sigma


def _relabel_kappa(kappa, sigma) -> tuple[int, ...]:
    out = [0] * len(kappa)
    for i, k in enumerate(kappa, start=1):
        out[sigma[i - 1] - 1] = k
    return tuple(out)


def _relabel_factor(tok: str, sigma) -> str:
    if tok.startswith("psi_"):
        return f"psi_{sigma[int(tok[4:]) - 1]}"
    if tok.startswith("D{"):
        side = sorted(sigma[int(x) - 1] for x in tok[2:-1].split(","))
        return "D{" + ",".join(map(str, side)) + "}"
    return tok


def _relabel_tree(spec: str, sigma) -> str:
    groups, *edges = spec.split(" ")
    new = []
    for g in groups.split(";"):
        marks = sorted(sigma[int(i) - 1] for i in g.split(",") if i)
        new.append(",".join(map(str, marks)))
    return " ".join([";".join(new)] + edges)


def kappa_arg(kappa) -> str:
    return "--kappa=" + ",".join(map(str, kappa))


def _stratified(rng: random.Random, pool: list, weight, k: int) -> list:
    """One random pick from each of ``k`` equal strata of ``pool`` ordered by
    ``weight``, so the total cost of a pick varies little between seeds."""
    ranked = sorted(pool, key=weight)
    edges = [round(i * len(ranked) / k) for i in range(k + 1)]
    return [rng.choice(ranked[edges[i]:edges[i + 1]]) for i in range(k)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def volume_queries(seed: int, answers: dict) -> list[dict]:
    """Every recorded E-trivial signature at n = 4..6, six seeded ones at
    n = 7 and the n = 8 flagship, each under a seeded relabeling."""
    rng = random.Random(f"volume:{seed}")
    rec = answers["volume"]
    by_n: dict[int, list[str]] = {}
    for key in rec:
        by_n.setdefault(len(parse_key(key)[1]), []).append(key)
    keys = by_n[4] + by_n[5] + by_n[6] + rng.sample(sorted(by_n[7]), 6)
    out = []
    for key in keys + [sig_key(*FLAGSHIP)]:
        d, kappa = parse_key(key)
        n = len(kappa)
        if n == 4:
            expect = {"oracle": "n4_boundary_sum"}
        elif (d, kappa) == FLAGSHIP:
            expect = {"oracle": "flagship", "value": "40"}
        else:
            expect = {"oracle": "recorded", "value": rec[key]}
        kap = _relabel_kappa(kappa, _perm(rng, n))
        out.append({"argv": ["volume", "--json", "--d", str(d), kappa_arg(kap)],
                    "check": {"kind": "volume", **expect}})
    rng.shuffle(out)
    return out


def _intersect_query(d, kappa, factors, sigma, check) -> dict:
    kap = _relabel_kappa(kappa, sigma)
    facs = ",".join(_relabel_factor(f, sigma) for f in factors)
    return {"argv": ["intersect", "--json", "--d", str(d), kappa_arg(kap), "--factors", facs],
            "check": check}


def intersect_queries(seed: int, answers: dict) -> list[dict]:
    """18 psi monomials and 18 recorded boundary/psi mixes (cheap), then every
    recorded n = 6 and n = 7 signature under a mix of ``Dmu`` and ``Dmu_psi``
    (the n = 6 ones twelve more times).  The share of psi-form factors is
    fixed per signature, so the seed moves labels, not cost.  Class sizes put
    p50 inside the n = 6 mixes and p90 inside the n = 7 ones."""
    rng = random.Random(f"intersect:{seed}")
    dmu = answers["dmu_power"]
    by_n: dict[int, list[str]] = {}
    for key in sorted(dmu):
        by_n.setdefault(len(parse_key(key)[1]), []).append(key)
    out = []
    for i in range(18):
        n = 6 + i % 2
        d, kappa = parse_key(rng.choice(by_n[n]))
        exps = [0] * n
        for _ in range(n - 3):
            exps[rng.randrange(n)] += 1
        factors = [f"psi_{j + 1}" for j, a in enumerate(exps) for _ in range(a)]
        rng.shuffle(factors)
        sigma = _perm(rng, n)
        relabeled = [0] * n
        for j, a in enumerate(exps):
            relabeled[sigma[j] - 1] = a
        out.append(_intersect_query(d, kappa, factors, sigma,
                                    {"kind": "psi_monomial", "exponents": relabeled}))
    for item in rng.sample(answers["intersect_mix"], 18):
        d, kappa = parse_key(item["sig"])
        out.append(_intersect_query(d, kappa, item["factors"], _perm(rng, len(kappa)),
                                    {"kind": "value", "value": item["value"]}))
    mixes = list(enumerate(by_n[6])) + [(i + 2, k) for i, k in enumerate(by_n[6][:12])]
    mixes += list(enumerate(by_n[7]))
    for i, key in mixes:
        d, kappa = parse_key(key)
        n = len(kappa)
        n_psi = i % (n - 2)
        factors = ["Dmu_psi"] * n_psi + ["Dmu"] * (n - 3 - n_psi)
        rng.shuffle(factors)
        out.append(_intersect_query(d, kappa, factors, _perm(rng, n),
                                    {"kind": "value", "value": dmu[key]}))
    rng.shuffle(out)
    return out


BLOWUP_COMMANDS = ("boundary", "phat", "exceptional", "divisor", "volume")


def blowup_queries(seed: int, answers: dict) -> list[dict]:
    """Five subcommands on each of 14 seeded E-nontrivial signatures at n = 8,
    one from each stratum of the cheaper three quarters of the n = 8 universe
    by p-hat size, and on seven fixed ones: the n = 8 signatures at the 85th
    and 95th percentile, the n = 9 quartiles and one each at n = 10, 11.  p50
    falls in the seeded queries, p90 in the fixed ones.  Queries on one
    signature stay together, as when a user explores one signature."""
    rng = random.Random(f"blowup:{seed}")
    rec = answers["blowup"]
    by_n: dict[int, list[str]] = {}
    for key in sorted(rec, key=lambda k: (rec[k]["phat"]["count"], k)):
        by_n.setdefault(len(parse_key(key)[1]), []).append(key)
    n8, n9 = by_n[8], by_n[9]
    keys = _stratified(rng, n8[:len(n8) * 3 // 4], lambda k: rec[k]["phat"]["count"], 14)
    keys += [n8[len(n8) * q // 100] for q in (85, 95)] + [n9[len(n9) * q // 4] for q in (1, 2, 3)]
    keys += [sig_key(d, k) for d, k in BLOWUP_FIXED]
    rng.shuffle(keys)
    out = []
    for key in keys:
        d, kappa = parse_key(key)
        cmds = list(BLOWUP_COMMANDS)
        rng.shuffle(cmds)
        for cmd in cmds:
            check = {"kind": cmd if cmd != "volume" else "refused", "n": len(kappa)}
            if cmd in rec[key]:
                check.update(rec[key][cmd])
            out.append({"argv": [cmd, "--json", "--d", str(d), kappa_arg(kappa)], "check": check})
    return out


def random_chain(rng: random.Random, n: int) -> tuple[list[int], list[int], list[int]]:
    """Blocks (I0, I1, I2) of a codimension-2 chain: |I0| >= 1, |I1|, |I2| >= 2."""
    marks = list(range(1, n + 1))
    rng.shuffle(marks)
    a = rng.randint(2, n - 3)
    b = rng.randint(2, n - a - 1)
    return sorted(marks[a + b:]), sorted(marks[:a]), sorted(marks[a:a + b])


def trees_queries(seed: int, answers: dict) -> list[dict]:
    """100 recorded ``principal`` trees with 3..5 nodes at n = 8..10 (p50),
    30 ``verify-family`` codim-2 chains at n = 8..10 (p90) and ``volume
    --max-codim 2`` and ``3`` on three fixed E-trivial n = 7 signatures."""
    rng = random.Random(f"trees:{seed}")
    out = []
    for item in rng.sample(answers["principal"], 100):
        d, kappa = parse_key(item["sig"])
        sigma = _perm(rng, len(kappa))
        out.append({"argv": ["principal", "--json", "--d", str(d),
                             kappa_arg(_relabel_kappa(kappa, sigma)),
                             "--tree", _relabel_tree(item["tree"], sigma)],
                    "check": {"kind": "digest", "digest": item["digest"]}})
    sig_pool = {n: [(d, k) for d in ds for k in signatures(d, n)] for n, ds in CHAIN_SIZES}
    for i in range(30):
        n = 8 + i % 3
        d, kappa = rng.choice(sig_pool[n])
        kappa = _relabel_kappa(kappa, _perm(rng, n))
        i0, i1, i2 = random_chain(rng, n)
        spec = ";".join(",".join(map(str, b)) for b in (i0, i1, i2)) + " 0-1 0-2"
        if i % 2:
            # pinned node parameters; t[0-1] = 1 or t[0-2] = -1 would put a
            # pinned marking on a pinned node, a degenerate chart
            p1, q1, p2, q2 = (rng.randint(1, 97) for _ in range(4))
            spec += f" t[0-1]={p1}/{q1 + (p1 == q1)} t[0-2]=-{p2}/{q2 + (p2 == q2)}"
        out.append({"argv": ["verify-family", "--json", "--d", str(d), kappa_arg(kappa),
                             "--chart", spec, "--samples", "20",
                             "--seed", str(rng.randrange(10 ** 6))],
                    "check": {"kind": "all_ok"}})
    rec = answers["volume"]
    n7 = sorted(k for k in rec if len(parse_key(k)[1]) == 7 and parse_key(k)[0] == 3)
    for key in (n7[0], n7[len(n7) // 2], n7[-1]):
        d, kappa = parse_key(key)
        for depth in (2, 3):
            kap = _relabel_kappa(kappa, _perm(rng, 7))
            out.append({"argv": ["volume", "--json", "--d", str(d), kappa_arg(kap),
                                 "--max-codim", str(depth)],
                        "check": {"kind": "volume", "oracle": "recorded", "value": rec[key]}})
    rng.shuffle(out)
    return out


GENERATORS = {
    "volume": volume_queries,
    "intersect": intersect_queries,
    "blowup": blowup_queries,
    "trees": trees_queries,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, answers: dict | None = None) -> list[dict]:
    return GENERATORS[workload](seed, load_answers() if answers is None else answers)


# ---------------------------------------------------------------------------
# universes, used by record.py
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, n: int, edges: int) -> str:
    """A random stable tree spec with ``edges`` nodes, grown by splitting a
    vertex's flags (markings and half-edges) into two groups."""
    verts: list[set] = [set(range(1, n + 1))]
    adj: list[set] = [set()]
    while len(verts) <= edges:
        cands = [v for v in range(len(verts)) if len(verts[v]) + len(adj[v]) >= 4]
        v = rng.choice(cands)
        flags = [("m", i) for i in sorted(verts[v])] + [("e", u) for u in sorted(adj[v])]
        rng.shuffle(flags)
        k = rng.randint(2, len(flags) - 2)
        moved = flags[:k]
        new = len(verts)
        verts.append(set())
        adj.append({v})
        for kind, x in moved:
            if kind == "m":
                verts[v].discard(x)
                verts[new].add(x)
            else:
                adj[v].discard(x)
                adj[x].discard(v)
                adj[x].add(new)
                adj[new].add(x)
        adj[v].add(new)
    groups = ";".join(",".join(map(str, sorted(m))) for m in verts)
    es = sorted((min(u, v), max(u, v)) for u in range(len(adj)) for v in adj[u] if u < v)
    return " ".join([groups] + [f"{u}-{v}" for u, v in es])


def intersect_mix_universe() -> list[dict]:
    """Fixed pool of factor mixes of ``psi_i``, ``D{...}`` and (at n = 6)
    ``Dmu`` / ``Dmu_psi``; their values are recorded."""
    rng = random.Random("intersect-mix-universe")
    sigs = {n: [(d, k) for d in ds for k in signatures(d, n)] for n, ds in INTERSECT_SIZES}
    out = []
    for i in range(240):
        n = 6 + i % 2
        d, kappa = rng.choice(sigs[n])
        factors = []
        for _ in range(n - 3):
            r = rng.random()
            if r < 0.35:
                factors.append(f"psi_{rng.randint(1, n)}")
            elif r < 0.85 or n == 7:
                side = rng.sample(range(1, n + 1), rng.randint(2, n - 2))
                factors.append("D{" + ",".join(map(str, sorted(side))) + "}")
            else:
                factors.append(rng.choice(["Dmu", "Dmu_psi"]))
        out.append({"sig": sig_key(d, kappa), "factors": factors})
    return out


def principal_universe() -> list[dict]:
    rng = random.Random("principal-universe")
    sigs = {n: [(d, k) for d in ds for k in signatures(d, n)] for n, ds in PRINCIPAL_SIZES}
    out = []
    for i in range(240):
        n = 8 + i % 3
        d, kappa = rng.choice(sigs[n])
        out.append({"sig": sig_key(d, kappa), "tree": random_tree(rng, n, rng.randint(3, 5))})
    return out
