"""strata0 benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload volume --seed 1 --seconds 20 --trace 0

Run from the repository root.  The query list is generated from the seed
(see ``queries.py``).  Each pass sends the whole list through
``strata0.cli.main`` in a fresh child interpreter, one query after another
(a closed loop with one client), with stdout captured in memory.  Passes run
one at a time, so the two cores of a small box never share the work.

``--trace 0`` runs passes while another one fits in ``--seconds`` (at least
one) and reports the end-to-end metrics: set-up time (the median over all
children), the median pass time, p50 and p90 of the per-query latencies
and the median peak RSS of a pass.  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics, the tracing overhead and
the share of the traced time no span covers; spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failed queries are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import queries  # noqa: E402

SETUP_ONLY_CHILDREN = 5  # extra interpreters started only to sample set-up time
CHILD_TIMEOUT_S = 170


def spawn(request: dict) -> dict:
    """Run one child; returns its reply plus ``setup_s`` (spawn to import done)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(request), capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    reply["setup_s"] = (reply["ready"] - started) * reply["speed"]
    return reply


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    # each query's latency is its median over the passes, which damps a
    # slowdown of the shared host that hits one pass only
    latencies = [statistics.median(ts) for ts in zip(*(p["latencies"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Flatten layer stats to ``<module>.<function>.<stat>`` names."""
    out: dict[str, float] = {}
    for layer, stats in traced["layers"].items():
        for stat, value in stats.items():
            out[f"{layer}.{stat}"] = value
    samples = out.get("local_family.sample_curve_point.calls", 0)
    accepted = out.get("local_family.verify_ratio_identity.accepted_samples", 0)
    out["local_family.sample_accept_ratio"] = accepted / samples if samples else 0.0
    # layer times in nominal-speed seconds, like the end-to-end ones
    speed = sum(traced["latencies"]) / sum(traced["raw_latencies"])
    for name in out:
        if name.endswith(".self_s"):
            out[name] *= speed
    out["trace.overhead"] = sum(traced["latencies"]) / sum(plain["latencies"])
    # spans also cover the speed probe, so it counts on both sides here
    gross = sum(traced["raw_latencies"]) + traced["probe_s"]
    out["trace.uncovered_share"] = (gross - traced["root_s"]) / gross
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "strata0", "cli.py")):
        print(f"error: no strata0 sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    qs = queries.generate(args.workload, args.seed)

    start = time.monotonic()
    passes, traced = [], None
    if args.trace:
        passes.append(spawn({"queries": qs}))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        traced = spawn({"queries": qs, "trace": True,
                        "spans_path": os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")})
        values, wanted = per_layer(passes[0], traced), spec["per_layer"]
    else:
        setups = [spawn({})["setup_s"] for _ in range(SETUP_ONLY_CHILDREN)]
        while not passes or (time.monotonic() - start) + passes[-1]["pass_s"] <= args.seconds:
            t0 = time.monotonic()
            passes.append(spawn({"queries": qs}))
            passes[-1]["pass_s"] = time.monotonic() - t0
        setups += [p["setup_s"] for p in passes]
        values, wanted = end_to_end(passes, setups), spec["end_to_end"]

    ran = passes + ([traced] if traced else [])
    failures = [f for p in ran for f in p["failures"]]
    for f in failures:
        print(f"FAILED {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(qs) * len(ran),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    raw_wall = statistics.median(sum(p["raw_latencies"]) for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(qs)} queries x {len(ran)} passes in "
          f"{time.monotonic() - start:.1f} s; unscaled pass time {raw_wall:.3f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
