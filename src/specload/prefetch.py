"""Most-popular webpage prefetching, the classic baseline.

Periodically retrain on a trailing window of visits, prefetch the top-k
most visited page URLs (the page plus its whole subresource set), and
see how often the user's next visits actually land on them.  Prefetched
content is charged on every refresh, whether or not it was fetched
before: the point of the baseline is its data bill, not a clever
transfer scheme.

``evaluate_prefetch`` is one pass: its training window is the visits
between two cursors, each counted as it enters and uncounted as it
leaves.  ``train`` counts one window directly; the tests hold the pass to it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyWindow, InsufficientTrace, InvalidParams
from .sim import DEFAULT_NET, EMPTY, NetworkParams, simulate_page
from .trace import Trace


def train(trace: Trace, window_end: float, training_window_s: float) -> Counter:
    """Count page-URL popularity over [window_end - window, window_end),
    in a trace whose visits may come in any order.  Raises
    ``EmptyWindow`` when the window holds no visit."""
    start = window_end - training_window_s
    counts = Counter(v.main.url for v in trace.visits if start <= v.timestamp < window_end)
    if not counts:
        raise EmptyWindow(f"no visits in window ending at {window_end}")
    return counts


def predict_pages(counts: Counter, top_k: int) -> list[str]:
    """Top-k page URLs by visit count, ties broken by URL ascending."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [url for url, _ in ranked[:top_k]]


@dataclass
class PrefetchReport:
    hit_ratio: float
    usefulness: float
    unnecessary_bytes_fraction: float
    upper_bound_delay_reduction_fraction: float
    n_intervals: int
    n_eval_visits: int
    prefetched_bytes: int


def evaluate_prefetch(
    trace: Trace,
    training_window_s: float = 30 * 86400.0,
    top_k: int = 10,
    refresh_interval_s: float = 86400.0,
    net: NetworkParams = DEFAULT_NET,
) -> PrefetchReport:
    """Sliding-window evaluation of most-popular prefetching.

    hit_ratio: of the distinct pages prefetched per interval, the
    fraction visited within that interval.  usefulness: the fraction of
    evaluated visits whose page had been prefetched for their interval.
    Prefetch bytes use each page's last observed main + subresource
    sizes; bytes for pages not visited in their interval count as
    unnecessary.  The delay upper bound generously assumes a prefetched
    page's entire legacy load (simulated, empty cache) is eliminated.
    A refresh whose training window holds no visit prefetches nothing.
    ``top_k`` must be at least 1, and both windows finite and positive.
    """
    if top_k < 1:
        raise InvalidParams(f"top_k must be >= 1, not {top_k}")
    if not (0 < training_window_s < math.inf and 0 < refresh_interval_s < math.inf):
        raise InvalidParams(
            f"windows must be finite and > 0: {training_window_s=}, {refresh_interval_s=}"
        )
    visits = trace.visits
    if not visits:
        raise InsufficientTrace("empty trace")
    t0 = visits[0].timestamp
    t_end = visits[-1].timestamp
    if t_end - t0 <= training_window_s:
        raise InsufficientTrace(
            f"trace spans {t_end - t0:.0f}s, need more than {training_window_s:.0f}s"
        )

    predicted_sum = 0
    matched_pages = 0
    matched_visits = 0
    eval_visits = 0
    bytes_total = 0
    bytes_unnecessary = 0
    delay_total = 0.0
    delay_matched = 0.0
    n_intervals = 0

    counts: Counter = Counter()  # main URLs of visits[lo:hi], the training window
    page_bytes: dict[str, int] = {}  # set as each visit enters the window
    lo = hi = 0
    boundary = t0 + training_window_s
    while boundary <= t_end:
        while hi < len(visits) and visits[hi].timestamp < boundary:
            visit = visits[hi]
            counts[visit.main.url] += 1
            sizes = (r.size_bytes for r in visit.subresources)
            page_bytes[visit.main.url] = visit.main.size_bytes + sum(sizes)
            hi += 1
        start = boundary - training_window_s
        while lo < hi and visits[lo].timestamp < start:
            url = visits[lo].main.url
            counts[url] -= 1
            if not counts[url]:
                del counts[url]
            lo += 1
        predicted = set(predict_pages(counts, top_k))
        interval_end = boundary + refresh_interval_s
        requested: set[str] = set()
        i = hi
        while i < len(visits) and visits[i].timestamp < interval_end:
            visit = visits[i]
            url = visit.main.url
            requested.add(url)
            eval_visits += 1
            delay = simulate_page(visit, None, EMPTY, net)
            delay_total += delay
            if url in predicted:
                matched_visits += 1
                delay_matched += delay
            i += 1
        predicted_sum += len(predicted)
        matched_pages += len(predicted & requested)
        bytes_total += sum(page_bytes[url] for url in predicted)
        bytes_unnecessary += sum(page_bytes[url] for url in predicted - requested)
        n_intervals += 1
        boundary = interval_end

    return PrefetchReport(
        hit_ratio=matched_pages / predicted_sum if predicted_sum else 0.0,
        usefulness=matched_visits / eval_visits if eval_visits else 0.0,
        unnecessary_bytes_fraction=bytes_unnecessary / bytes_total if bytes_total else 0.0,
        upper_bound_delay_reduction_fraction=(
            delay_matched / delay_total if delay_total else 0.0
        ),
        n_intervals=n_intervals,
        n_eval_visits=eval_visits,
        prefetched_bytes=bytes_total,
    )
