"""Run every workload untraced and traced and print all metrics by name.

    python3 bench/report.py                  # seed from meta.json, all workloads
    python3 bench/report.py --workload trees --seed 3 --out result.json

Prints, per workload, the end-to-end metrics with their units plus
``fail_frac`` (failed / attempted queries over both runs), then the
per-layer metrics of the traced run.  ``--out`` also writes everything,
with nproc, the Python version and the load average at start, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import queries  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py failed for {workload} (trace {trace})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "meta.json")) as fh:
        meta = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=queries.WORKLOADS)
    ap.add_argument("--seed", type=int, default=meta["seed"])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write the results to this JSON file")
    args = ap.parse_args()
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "loadavg": list(os.getloadavg()), "seed": args.seed, "seconds": args.seconds,
           "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    print("nproc {nproc}  python {python}  loadavg {loadavg}  seed {seed}".format(**env))
    results = {}
    for workload in args.workload or queries.WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        results[workload] = {"end_to_end": plain["metrics"], "per_layer": traced["metrics"],
                             "attempted": attempted, "failed": failed}
        print(f"\n== {workload}")
        for name, m in plain["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_frac':48s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
        print("  -- traced run")
        for name, m in traced["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "results": results}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
