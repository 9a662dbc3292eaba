"""One benchmark pass in a fresh interpreter.

Imports strata0 first and notes the monotonic time (the parent subtracts its
spawn time to get set-up time), then reads a JSON request on stdin, sends
each query through ``strata0.cli.main`` with stdout captured in memory, and
prints one JSON line: the ready time, per-query latencies, failures, peak
RSS and, when traced, per-layer statistics.  Answers are checked after the
loop, so neither checking nor the stored outputs count in time or memory.

Host speed.  On a shared VM the same query's time swings by up to 2x within
seconds while other tenants load the machine (measured on a 2-core 2.1 GHz
Xeon VM: 237-370 ms for one n = 7 intersection, block medians over 150 s).
A fixed pure-Python reference loop, timed between consecutive queries,
tracks those swings (the same query divided by the reference varied 56-65),
so every latency is also reported scaled to a nominal reference speed:
``latency * REF_NOMINAL_S / reference``, where ``reference`` averages the
timings taken just before and just after the query and, for a long query,
every ``PROBE_INTERVAL_S`` during it (from a timer signal; the time the probe
takes is not counted in the latency).  The loop uses no strata0 code, so a
change to strata0 cannot move it.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import strata0  # noqa: E402
import strata0.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import zlib  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402

REF_NOMINAL_S = 1.0e-3  # the reference loop's time on a quiet 2-core 2.1 GHz Xeon VM
PROBE_INTERVAL_S = 0.25


def _reference_loop():
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 240):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i & 15, i % 13, i >> 3)
        table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF)
    return acc, len(table)


def reference_time() -> float:
    """Median of three timings of the reference loop (about 1 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class SpeedProbe:
    """Times the reference loop every ``PROBE_INTERVAL_S`` while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def call(argv: list[str]) -> tuple[int | None, str, str]:
    """Run one CLI invocation in process: (exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = strata0.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught traceback is a failed query
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def run_pass(queries: list[dict], tracer: Tracer | None) -> dict:
    raw, latencies, results = [], [], []
    probe_s = 0.0
    probe = SpeedProbe()
    gc.collect()
    before = reference_time()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        with probe:
            t0 = time.perf_counter()
            code, out, error = call(query["argv"])
            elapsed = time.perf_counter() - t0 - probe.spent
        probe_s += probe.spent
        results.append((code, zlib.compress(out.encode(), 1), error))
        gc.collect()
        after = reference_time()
        refs = [before, after] + probe.samples
        raw.append(elapsed)
        latencies.append(elapsed * REF_NOMINAL_S * len(refs) / sum(refs))
        before = after
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = []
    for qid, (query, (code, packed, error)) in enumerate(zip(queries, results)):
        reason = error or oracles.check(query, code, zlib.decompress(packed).decode())
        if reason:
            failures.append({"query": qid, "argv": query["argv"], "reason": reason})
    return {"latencies": latencies, "raw_latencies": raw, "probe_s": probe_s,
            "failures": failures, "rss_kb": rss_kb}


def main() -> None:
    if not os.path.realpath(strata0.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"strata0 was imported from {strata0.__file__}, not from {SRC}")
    request = json.load(sys.stdin)
    reply = {"ready": READY, "speed": REF_NOMINAL_S / reference_time()}
    if request.get("queries"):
        tracer = None
        if request.get("trace"):
            tracer = Tracer()
            tracer.install()
        reply.update(run_pass(request["queries"], tracer))
        if tracer is not None:
            reply["layers"] = tracer.layer_stats()
            reply["root_s"] = tracer.root_time()
            tracer.write(request["spans_path"])
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
