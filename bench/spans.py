"""Outside-in tracing of strata0's layers.

Every function named in a module's ``__all__`` is replaced, at each binding
of it in the ``strata0.*`` namespaces, by a wrapper that records a span
(name, start, end, parent span, query id).  Rebinding the defining module's
global catches intra-module calls too, e.g. ``verify_ratio_identity`` ->
``sample_curve_point``.  ``cli.main`` is wrapped as the root of each query.
Classes are left alone: wrapping them would break ``isinstance`` checks.

Counts of the work each layer hands back (items, terms, bytes) are taken at
the same boundaries.  Numbers internal to ``product_number`` (fold-step
state sizes, terms pruned by ``_alive``) and the retries inside
``sample_curve_point`` cannot be seen from outside; they wait for an
in-program stats hook.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("strata", "intersection", "divisors", "local_family")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _accepted_samples(args, kwargs, result):
    # verify_ratio_identity(chart, j, k, samples=20, seed=None): a True result
    # for j != k means exactly `samples` sample points passed
    j, k = _arg(args, kwargs, 1, "j"), _arg(args, kwargs, 2, "k")
    ok = result is True and j != k
    return {"accepted_samples": _arg(args, kwargs, 3, "samples", 20) if ok else 0}


# layer -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "intersection.product_number": lambda a, kw, r: {
        "factor_terms": sum(len(f.terms) for f in _arg(a, kw, 1, "factors"))},
    "strata.enumerate_p_hat": lambda a, kw, r: {
        "items": len(r), "multi_items": sum(1 for p in r if p.r >= 2)},
    "strata.enumerate_two_block": lambda a, kw, r: {"items": len(r)},
    "strata.enumerate_stable_trees": lambda a, kw, r: {"items": len(r)},
    "divisors.d_mu_boundary_form": lambda a, kw, r: {"terms": len(r.terms)},
    "divisors.d_mu_psi_form": lambda a, kw, r: {"terms": len(r.terms)},
    "local_family.verify_ratio_identity": _accepted_samples,
}

# layer -> exception class name counted as `refused`
REFUSALS = {"divisors.volume": "ExceptionalDivisorNontrivial"}


class Tracer:
    """Spans kept in memory: ``[id, parent, query, layer, start, end, error]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def wrap(self, layer: str, fn, counter=None, refusal=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.query, layer, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = clock()
                span[6] = type(exc).__name__
                if refusal == span[6]:
                    counts[layer]["refused"] += 1
                raise
            finally:
                stack.pop()
            span[5] = clock()
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    counts[layer][key] += inc
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, and ``cli.main``,
        at every binding in the loaded ``strata0`` namespaces."""
        import strata0.cli

        namespaces = [m for name, m in sys.modules.items()
                      if name == "strata0" or name.startswith("strata0.")]
        targets = []
        for short in LAYER_MODULES:
            mod = sys.modules[f"strata0.{short}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{short}.{name}", fn))
        targets.append(("cli.main", strata0.cli.main))
        for layer, fn in targets:
            wrapped = self.wrap(layer, fn, COUNTERS.get(layer), REFUSALS.get(layer))
            if layer == "cli.main":
                wrapped = self._count_bytes(wrapped)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapped)

    def _count_bytes(self, main):
        counts = self.counts

        @functools.wraps(main)
        def counted(*args, **kwargs):
            start = sys.stdout.tell()
            try:
                return main(*args, **kwargs)
            finally:
                counts["cli.main"]["bytes_out"] += sys.stdout.tell() - start

        return counted

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` (span minus child spans) and the
        layer's counters."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, _, _, layer, start, end, _ in self.spans:
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[sid]
        for layer, counters in self.counts.items():
            out[layer].update(counters)
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, _, start, end, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "query", "layer", "start", "end", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
