"""One sha256 over the CLI output of every benchmark query.

Each query of the four workloads in ``bench/queries.py`` runs through
``strata0.cli.main`` in this process twice: once as issued (the workloads
issue ``--json``) and once as a table, with ``--json`` dropped and ``--out``
pointing to a temporary file.  The digest covers, per run, the argv (with the
temporary path replaced by ``OUT``), the exit code, stdout, stderr and the
contents of the ``--out`` file.  An uncaught exception is recorded as its
type and message, so a traceback changes the digest too.  Two fixed lists
are digested as well, once per run of the tool: the parser's own output
(``PARSER_ARGV``: the top-level ``--help``, each subcommand's ``--help`` and
a few usage errors, formatted for an 80-column terminal), and the
``PROBE_ARGV`` queries on signatures larger than the benchmark's (n <= 11):
``boundary``, ``phat``, ``exceptional`` and ``divisor`` at n = 12, whose
boundary index set has 22,226 elements, and the refused ``volume`` at
n = 16.  Two more probe the ``volume --max-codim`` tree walk beyond the
benchmark's n = 7: the full walk of an E-trivial n = 8 signature (39,208
trees) and the refusal at n = 10 that stops at the first tree in the ideal
support.  The next is a nonzero ``volume`` at n = 8 with some ``k_i >= 0``
(the walk's signature has volume 0), so a change of engine for such
signatures shows in the digest; it has no tie split.  A second, ``volume
--json --d 3 --kappa=1,-1,-1,-1,-1,-1,-1,-1`` (value -40), runs
``product_number`` on 35 tie splits (``k_A = k_B = -3``); the benchmark's
n = 8 ``volume`` is all-negative and never reaches ``product_number``.  A
third, ``volume --json --d 18 --kappa=1,-5,-6,-9,-1,-8,-4,-1,-3`` (value
-35642), takes ``product_number`` past n = 8: ``D_mu^6`` on M_{0,9} with
eight distinct entries, which the per-vertex recursion answers in seconds
and a breadth-first fold over global decorated strata in tens of seconds
and over 600 MiB.  Eight ``intersect`` queries at
n = 8 go past the benchmark's n = 7, all answered by the restriction
recursion ``W`` (``form_psi_number``).  Two are on the signature of the
first of those ``volume`` probes: the
``Dmu_psi,...,psi_2`` list of forms and psi classes, and one whose
``D{1,5}`` factor is restricted to first.  The other six are on the
E-nontrivial ``--d 3 --kappa=2,1,-1,-2,-2,-1,-1,-2``, which has tie splits
(``k_A = k_B = -d``): a mix of both forms with ``psi_3``, a pure psi
monomial, and four ``D{...}`` lists: a crossing pair (value 0),
``D{1,5},D{1,5}`` with ``Dmu``, one split written by both of its sides, and
the tie split ``D{3,4}``.
Three ``verify-family`` charts go past the benchmark's codimension-2 chains
centred at vertex 0: a 4-component chain at n = 12, a tie node (``k_B = -d``
on both sides) with marking 1 off vertex 0, and a star centred at vertex 1
with one node parameter given.  Two more echo user text with escaped
characters into the payload: an ``intersect`` factor list with a tab,
U+00A0 and U+2003 after its commas, and a ``verify-family`` chart with
U+00A0 before its edge.  The last ``divisor`` probe, on the E-trivial
``--d 3 --kappa=0,1,-1,-2,-2,-1,-1`` (n = 7), meets every term the two forms
drop: ``psi_1`` (``k_1 = 0``), 12 splits with ``c_S = 0``, 6 with
``k_I0 = 0``, and 14 tie splits (``k_A = k_B = -d``).  Two ``verify-family``
probes at ``d = 3`` on ``--kappa=2,1,-2,-2,-1,-1,-2,-1`` follow: a
five-component chart (a star at vertex 0 with a tail, ``t[3-4]=-3/4``) whose
identities the integer path checks with ``k_i`` of both signs, and a 4-chain
whose ``t[0-1]=1`` puts marking 1 at INF on vertex 2, off its home frame,
which the CLI refuses as a degenerate chart (exit 2).  The last two are the
other refusals of ``verify-family`` (exit 2): ``--samples 0`` and a chart
with ``t[0-1]=0``.  The ``PoleHit`` and ``DenominatorVanishes`` paths of the
family check cannot be reached from the CLI: those refusals and the
sampler's rejections come first.

Output is byte-identical across two commits iff the count and digest agree.
``--rev COMMIT`` compares this checkout with a commit in one command: it
exports that commit's ``src/`` with ``git archive`` into a temporary
directory, digests it and this checkout's ``src/`` in two child processes
against this checkout's ``bench/`` queries, prints both results and
``identical`` or ``DIFFERENT``, and exits 1 when they differ:

    python tools/output_digest.py --seeds 1 2 3 --rev HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = ("boundary", "phat", "exceptional", "principal", "divisor", "intersect", "volume",
            "verify-family")
PARSER_ARGV = [
    ["--help"],
    *([cmd, "--help"] for cmd in COMMANDS),
    [],  # no command
    ["nope", "--d", "2", "--kappa=-1,-1,-1,-1"],  # unknown command
    ["volume", "--d", "2"],  # missing --kappa
    ["volume", "--d", "2", "--kappa=-1,-1,-1,-1", "--max-codim", "x"],  # not an integer
    ["boundary", "--d", "2", "--kappa=-1,-1,-1,-1", "--bogus"],  # unknown flag
    ["principal", "--d", "2", "--kappa=-1,-1,-1,-1"],  # missing --tree
]
_N12 = ["--d", "2", "--kappa=" + ",".join(map(str, [3, 3] + [-1] * 10))]
PROBE_ARGV = [
    *([cmd, *_N12, "--json"] for cmd in ("boundary", "phat", "exceptional", "divisor")),
    ["volume", "--d", "2", "--kappa=" + ",".join(map(str, [5, 5] + [-1] * 14))],  # exit 3
    ["volume", "--json", "--d", "2", "--kappa=1,-1,-1,-1,-1,-1,0,0", "--max-codim", "5"],
    ["volume", "--d", "2", "--kappa=" + ",".join(map(str, [5] + [-1] * 9)), "--max-codim", "7"],
    ["volume", "--json", "--d", "5", "--kappa=1,-3,-2,-2,-1,-1,-1,-1"],
    # product_number on 35 tie splits k_A = k_B = -3
    ["volume", "--json", "--d", "3", "--kappa=1,-1,-1,-1,-1,-1,-1,-1"],
    # D_mu^6 at n = 9 with some k_i >= 0 and distinct entries (value -35642)
    ["volume", "--json", "--d", "18", "--kappa=1,-5,-6,-9,-1,-8,-4,-1,-3"],
    *(["intersect", "--json", "--d", "5", "--kappa=1,-3,-2,-2,-1,-1,-1,-1", "--factors", f]
      for f in ("Dmu_psi,Dmu_psi,Dmu,psi_1,psi_2", "Dmu,Dmu_psi,D{1,5},psi_2,psi_3")),
    *(["intersect", "--json", "--d", "3", "--kappa=2,1,-1,-2,-2,-1,-1,-2", "--factors", f]
      for f in ("Dmu,Dmu_psi,Dmu,Dmu,psi_3", "psi_1,psi_7,psi_4,psi_1,psi_7",
                # a crossing pair, a repeated D{S}, one split by both sides, a tie split
                "D{1,2},D{2,3},Dmu,Dmu,Dmu", "D{1,5},D{1,5},Dmu,Dmu_psi,Dmu",
                "D{1,5},Dmu,D{2,3,4,6,7,8},psi_3,Dmu", "Dmu,D{3,4},Dmu_psi,Dmu,psi_1")),
    *(["verify-family", "--json", "--d", "2", f"--kappa={kappa}", "--chart", chart]
      for kappa, chart in (
          ("1,1,-1,-1,-1,-1,-1,-1,-1,-1,1,1", "1,2;3,4,5;6,7;8,9,10,11,12 0-1 1-2 2-3"),
          ("-1,-1,-1,-1", "3,4;1,2 0-1"),
          ("2,-1,-1,-1,-1,-1,-1", "5,6;1;2,3;4,7 1-0 1-2 1-3 t[1-2]=2/5"),
      )),
    # user text is echoed into the payload, and its whitespace may be Unicode
    ["intersect", "--json", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1",
     "--factors", "Dmu,\t\u00a0psi_1,\u2003D{1,2}"],
    ["verify-family", "--json", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart", "3,4;1,2\u00a00-1"],
    # every zero filter of the two divisor forms: a zero entry, c_S = 0, k_I0 = 0
    ["divisor", "--json", "--d", "3", "--kappa=0,1,-1,-2,-2,-1,-1"],
    # d = 3 with k_i of both signs on five components, each with a marking at
    # INF on its home frame; then a chart whose t[0-1] = 1 puts marking 1 at
    # INF on vertex 2, off its home frame (exit 2)
    *(["verify-family", "--json", "--d", "3", "--kappa=2,1,-2,-2,-1,-1,-2,-1", "--chart", chart]
      for chart in ("1;2,3;4,5;6;7,8 0-1 0-2 0-3 3-4 t[3-4]=-3/4",
                    "1,2;3,4;5,6;7,8 0-1 1-2 2-3 t[0-1]=1")),
    # the two other refusals before any sample is drawn (exit 2)
    ["verify-family", "--json", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart", "1,2;3,4 0-1",
     "--samples", "0"],
    ["verify-family", "--json", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart",
     "1,2;3,4 0-1 t[0-1]=0"],
]


def run(main, argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or the uncaught exception), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(seeds: list[int], src: str) -> tuple[int, str]:
    """Run count and sha256 of the package under ``src`` on the queries."""
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import queries
    import strata0.cli

    if not strata0.cli.__file__.startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"strata0 was imported from {strata0.cli.__file__}, not from {src}")
    answers = queries.load_answers()
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        for seed in seeds:
            for workload in queries.WORKLOADS:
                for query in queries.generate(workload, seed, answers):
                    argv = list(query["argv"])
                    table = [a for a in argv if a != "--json"] + ["--out", path]
                    for shown, actual in ((argv, argv), (table[:-1] + ["OUT"], table)):
                        if os.path.exists(path):
                            os.remove(path)
                        code, out, err = run(strata0.cli.main, actual)
                        written = None
                        if os.path.exists(path):
                            with open(path) as fh:
                                written = fh.read()
                        record = [shown, code, out, err, written]
                        h.update(json.dumps(record).encode() + b"\n")
                        count += 1
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for argv in PARSER_ARGV + PROBE_ARGV:
        code, out, err = run(strata0.cli.main, argv)
        h.update(json.dumps([argv, code, out, err, None]).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def compare(seeds: list[int], rev: str) -> bool:
    """Digest ``rev``'s ``src/`` and this checkout's, each in a child
    process; print both and the verdict, and return whether they agree."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = ((rev, os.path.join(tmp, "src")), ("checkout", os.path.join(ROOT, "src")))
        children = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--src", src,
                 "--seeds", *map(str, seeds)],
                stdout=subprocess.PIPE, text=True,
            )
            for _, src in sides
        ]
        results = []
        for (name, _), child in zip(sides, children):
            out, _ = child.communicate()
            if child.returncode != 0:
                sys.exit(f"digest of {name} failed (exit {child.returncode})")
            results.append(out.split())
            print(f"{name}: {' '.join(results[-1])}")
    same = results[0] == results[1]
    print("identical" if same else "DIFFERENT")
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rev", help="compare this checkout with the src/ of this commit")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="digest the package under this directory (default: src/)")
    args = parser.parse_args()
    if args.rev:
        sys.exit(0 if compare(args.seeds, args.rev) else 1)
    count, hexdigest = digest(args.seeds, args.src)
    print(f"runs {count}")
    print(f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()
