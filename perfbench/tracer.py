"""In-memory tracing of specload from the outside.

The tracer replaces functions at their module bindings (every
``specload.*`` module attribute that is the same function object), so
calls made inside the package are seen without editing it.  Two kinds of
instrumentation:

* spans, for calls that happen a few times per visit: name, start, end,
  parent span and thread.  Each thread keeps its own stack; a span opened
  on a thread with an empty stack (the live fetcher's pool workers)
  takes the main thread's innermost open span as its parent.
* counters, for calls that happen hundreds of times per visit
  (``normalize_url``, cache ``lookup``/``admit``): a call count and the
  summed time, which is also charged to the enclosing span on the same
  thread so that span self times stay right.

Spans stay in memory; ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# (defining module, attribute, name, kind)
INSTRUMENTED = (
    ("specload.urls", "normalize_url", "urls.normalize", "count"),
    ("specload.cache", "lookup", "cache.lookup", "count"),
    ("specload.cache", "admit", "cache.admit", "count"),
    ("specload.cache", "replay_cache_sim", "cache.replay", "span"),
    ("specload.trace", "load_trace", "trace.load", "span"),
    ("specload.trace", "save_trace", "trace.save", "span"),
    ("specload.synth", "generate_synthetic", "synth.generate", "span"),
    ("specload.graph", "update", "graph.update", "span"),
    ("specload.graph", "trim", "graph.trim", "span"),
    ("specload.graph", "dumps_repo", "graph.dumps", "span"),
    ("specload.graph", "loads_repo", "graph.loads", "span"),
    ("specload.graph", "save_repo", "graph.save", "span"),
    ("specload.graph", "load_repo", "graph.load", "span"),
    ("specload.graph", "repo_stats", "graph.stats", "span"),
    ("specload.predict", "predict", "predict.predict", "span"),
    ("specload.predict", "plan_loads", "predict.plan_loads", "span"),
    ("specload.predict", "revise_queue", "predict.revise_queue", "span"),
    ("specload.predict", "replay_predictor", "predict.replay", "span"),
    ("specload.sim", "simulate_trace", "sim.simulate_trace", "span"),
    ("specload.sim", "simulate_page", "sim.simulate_page", "span"),
    ("specload.prefetch", "train", "prefetch.train", "span"),
    ("specload.prefetch", "evaluate_prefetch", "prefetch.evaluate", "span"),
    ("specload.report", "write_csv", "report.write_csv", "span"),
    ("specload.report", "write_sidecar", "report.write_sidecar", "span"),
    ("specload.live", "fetch_page", "live.fetch_page", "span"),
    ("specload.live", "extract_subresources", "live.parse", "span"),
    ("specload.cli", "main", "cli.main", "span"),
)

# Span record fields.
NAME, START, END, PARENT, THREAD, COUNTED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}  # name -> [calls, seconds]
        self.cache_stores: dict[int, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), 0.0]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def counter(self, name: str, fn, observe=None):
        stat = self.counts.setdefault(name, [0, 0.0])
        lock = self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if observe is not None:
                observe(args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - t0
                stack = self._stack()
                with lock:
                    stat[0] += 1
                    stat[1] += took
                    if stack:
                        self.spans[stack[-1]][COUNTED] += took

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding listed in INSTRUMENTED, plus urllib3's
        connection set-up and request issue (TCP connections and HTTP
        requests per page, counted below the package)."""
        import urllib3.connection
        import urllib3.connectionpool

        import specload.cli  # noqa: F401  (loads every module with a binding)

        modules = [
            m for n, m in sys.modules.items() if n == "specload" or n.startswith("specload.")
        ]
        for origin, attr, name, kind in INSTRUMENTED:
            original = getattr(sys.modules[origin], attr)
            if kind == "span":
                wrapper = self.span(name, original)
            elif name == "cache.lookup":
                wrapper = self.counter(name, original, observe=self._observe_store)
            else:
                wrapper = self.counter(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        conn = urllib3.connection.HTTPConnection
        pool = urllib3.connectionpool.HTTPConnectionPool
        self._patch(conn, "connect", self.counter("http.connect", conn.connect))
        self._patch(pool, "urlopen", self.counter("http.request", pool.urlopen))

    @contextmanager
    def suspended(self):
        """Run the block against the original functions, unrecorded."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    def reset(self) -> None:
        """Forget every span and zero every counter (between set-up and
        measurement; no span may be open)."""
        self.spans.clear()
        for stat in self.counts.values():
            stat[0], stat[1] = 0, 0.0
        self.cache_stores.clear()

    def _observe_store(self, args) -> None:
        store = args[0]
        self.cache_stores[id(store)] = store

    # -- queries -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the closed spans called ``name``, in
        start order."""
        return [s[END] - s[START] for s in self.spans if s[NAME] == name and s[END] is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name][0]
        return len(self.durations(name))

    def counted_seconds(self, name: str) -> float:
        return self.counts.get(name, [0, 0.0])[1]

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it covered by child spans
        and minus counted calls made directly inside it."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[PARENT] is not None and s[END] is not None:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        out = []
        for i, s in enumerate(self.spans):
            if s[END] is None:
                out.append(0.0)
                continue
            covered = 0.0
            cursor = s[START]
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, s[END])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(max(0.0, s[END] - s[START] - covered - s[COUNTED]))
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component);
        counted calls are all self time of their own layer."""
        layers: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = s[NAME].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        for name, (_, seconds) in self.counts.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def write_spans(self, path) -> None:
        """One JSON object per span, then one per counter."""
        t0 = self.spans[0][START] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s[END] is None:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": s[PARENT],
                            "name": s[NAME],
                            "thread": s[THREAD],
                            "start_s": s[START] - t0,
                            "end_s": s[END] - t0,
                            "self_s": own[i],
                        }
                    )
                    + "\n"
                )
            for name, (calls, seconds) in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "seconds": seconds}) + "\n")


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, 0 < q <= 1; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]
