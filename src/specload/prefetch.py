"""Most-popular webpage prefetching, the classic baseline.

Periodically retrain on a trailing window of visits, prefetch the top-k
most visited page URLs (the page plus its whole subresource set), and
see how often the user's next visits actually land on them.  Prefetched
content is charged on every refresh, whether or not it was fetched
before: the point of the baseline is its data bill, not a clever
transfer scheme.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyWindow, InsufficientTrace, InvalidParams
from .sim import DEFAULT_NET, EMPTY, NetworkParams, simulate_page
from .trace import Trace


@dataclass
class PopularityModel:
    counts: Counter
    top_k: int


def train(
    trace: Trace,
    window_end: float,
    training_window_s: float,
    top_k: int = 10,
) -> PopularityModel:
    """Count page-URL popularity over [window_end - window, window_end)."""
    return _SlidingWindow(trace.visits, training_window_s, top_k).model_at(window_end)


class _SlidingWindow:
    """Popularity models for non-decreasing window ends, in linear time.

    The visits must be in timestamp order (as in a ``Trace``).  Each
    visit is counted once when it enters the window and uncounted once
    when it leaves, so a whole evaluation costs one pass over the trace
    instead of one per refresh.  Entering, it sets its page's ``page_bytes``.
    """

    def __init__(self, visits, training_window_s: float, top_k: int):
        self.visits = visits
        self.training_window_s = training_window_s
        self.top_k = top_k
        self.counts: Counter = Counter()  # main URLs of visits[lo:hi]
        self.page_bytes: dict[str, int] = {}
        self.lo = self.hi = 0

    def model_at(self, window_end: float) -> PopularityModel:
        """Page-URL popularity over [window_end - window, window_end)."""
        visits, counts = self.visits, self.counts
        while self.hi < len(visits) and visits[self.hi].timestamp < window_end:
            v = visits[self.hi]
            counts[v.main.url] += 1
            sizes = (r.size_bytes for r in v.subresources)
            self.page_bytes[v.main.url] = v.main.size_bytes + sum(sizes)
            self.hi += 1
        start = window_end - self.training_window_s
        while self.lo < self.hi and visits[self.lo].timestamp < start:
            url = visits[self.lo].main.url
            counts[url] -= 1
            if not counts[url]:
                del counts[url]
            self.lo += 1
        if not counts:
            raise EmptyWindow(f"no visits in window ending at {window_end}")
        return PopularityModel(
            counts=Counter(counts),
            top_k=self.top_k,
        )


def predict_pages(model: PopularityModel) -> list[str]:
    """Top-k page URLs by visit count, ties broken by URL ascending."""
    ranked = sorted(model.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [url for url, _ in ranked[: model.top_k]]


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

    window = _SlidingWindow(visits, training_window_s, top_k)
    boundary = t0 + training_window_s
    while boundary <= t_end:
        try:
            predicted = set(predict_pages(window.model_at(boundary)))
        except EmptyWindow:
            predicted = set()
        interval_end = boundary + refresh_interval_s
        requested: set[str] = set()
        i = window.hi
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
        for url in predicted:
            size = window.page_bytes.get(url, 0)
            bytes_total += size
            if url not in requested:
                bytes_unnecessary += size
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
