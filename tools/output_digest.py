"""One sha256 over the CLI output of every benchmark query.

Each query of the four workloads in ``bench/queries.py`` runs through
``strata0.cli.main`` in this process twice: once as issued (the workloads
issue ``--json``) and once as a table, with ``--json`` dropped and ``--out``
pointing to a temporary file.  The digest covers, per run, the argv (with the
temporary path replaced by ``OUT``), the exit code, stdout, stderr and the
contents of the ``--out`` file.  An uncaught exception is recorded as its
type and message, so a traceback changes the digest too.

Output is byte-identical across two commits iff the count and digest agree.
Run it in a checkout of each and compare the lines it prints:

    python tools/output_digest.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import queries  # noqa: E402
import strata0.cli  # noqa: E402


def run(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or the uncaught exception), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = strata0.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(seeds: list[int]) -> tuple[int, str]:
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
                        code, out, err = run(actual)
                        written = None
                        if os.path.exists(path):
                            with open(path) as fh:
                                written = fh.read()
                        record = [shown, code, out, err, written]
                        h.update(json.dumps(record).encode() + b"\n")
                        count += 1
    return count, h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    count, hexdigest = digest(args.seeds)
    print(f"runs {count}")
    print(f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()
