"""Subresource prediction from the learned resource graphs.

Given nothing but a URL about to be visited, produce an ordered list of
subresource URLs worth loading before the page's HTML says so.  Revisits
trust the page's own history and return every known child.  First-time
pages borrow from the surrounding scope: the subdomain's pages when the
subdomain has been seen before, otherwise the whole website, truncated
to the scope's average page fan-out since an unfamiliar page probably
wants about as many subresources as its neighbors.

Priority order everywhere: more parents first (shared infrastructure),
then scripts before stylesheets before images before the rest (parse
blockers first), then more visits, then shorter URLs.  The key,
``priority_key``, lives in ``graph`` and is re-exported here.

A revisit sorts the page's own children.  A new visit walks the order
each graph keeps of its subresources (``ResourceGraph.ranked_subresources``)
from the front and stops after the scope's fan-out of in-scope hits, so
it costs the nodes re-placed since the last walk plus the walk, not a
scan and sort of the whole scope.  For a website scope the walk is the
fan-out long; for a subdomain scope it also skips the site's other
subdomains' subresources ranked ahead of the hits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from statistics import fmean

from .cache import LookupOutcome
from .errors import EmptyTrace, InvalidParams
from .graph import MetadataRepository, ResourceGraph, priority_key, update
from .trace import PageVisit, Trace
from .urls import host_of, normalize_url, website_key


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class VisitClass(Enum):
    REVISIT = "revisit"
    NEW_VISIT_SUBDOMAIN_KNOWN = "new_visit_subdomain"
    NEW_VISIT_WEBSITE_KNOWN = "new_visit_website"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Prediction:
    urls: tuple[str, ...]
    visit_class: VisitClass

    def __post_init__(self):
        if len(set(self.urls)) != len(self.urls):
            raise ValueError("prediction contains duplicate URLs")


def _mean_children(graph: ResourceGraph, page_ids) -> float:
    if not page_ids:
        return 0.0
    return fmean(len(graph.nodes[pid].children) for pid in page_ids)


def predict(repo: MetadataRepository, url: str) -> Prediction:
    """Predict the subresource URLs a visit to ``url`` will request.

    Matches the graph in decreasing specificity: exact webpage node
    (revisit, all children), else known subdomain, else known website
    (new visit, truncated scope candidates), else an unknown site and an
    empty prediction.  Ordering is exactly ``priority_key``.
    """
    url = normalize_url(url)
    site = website_key(url)
    with repo.lock:
        graph = repo.graphs.get(site)
        if graph is None:
            return Prediction(urls=(), visit_class=VisitClass.UNKNOWN)
        page_id = graph.page_index.get(url)
        if page_id is not None:
            nodes = [graph.nodes[nid] for nid in graph.nodes[page_id].children]
            nodes.sort(key=priority_key)
            return Prediction(
                urls=tuple(n.url_or_name for n in nodes),
                visit_class=VisitClass.REVISIT,
            )
        candidates = graph.ranked_subresources()
        subdomain_id = graph.subdomain_index.get(host_of(url))
        if subdomain_id is not None:
            visit_class = VisitClass.NEW_VISIT_SUBDOMAIN_KNOWN
            page_ids = graph.nodes[subdomain_id].children
            # In scope: a child of one of the subdomain's pages.
            candidates = (n for n in candidates if not page_ids.isdisjoint(n.parents))
        else:
            visit_class = VisitClass.NEW_VISIT_WEBSITE_KNOWN
            page_ids = graph.page_index.values()
        num_predicted = max(1, round_half_up(_mean_children(graph, page_ids)))
        best = islice(candidates, num_predicted)
        return Prediction(urls=tuple(n.url_or_name for n in best), visit_class=visit_class)


@dataclass(frozen=True)
class PlannedLoad:
    url: str
    action: str  # "fetch" | "revalidate"


@dataclass(frozen=True)
class LoadPlan:
    immediate: tuple[PlannedLoad, ...]
    waiting: tuple[PlannedLoad, ...]
    max_connections: int

    def all_urls(self) -> list[str]:
        return [p.url for p in self.immediate + self.waiting]


def plan_loads(
    prediction: Prediction,
    cache,
    now: float,
    max_connections: int = 4,
) -> LoadPlan:
    """Turn a prediction into speculative load work.

    ``cache`` is anything with a pure ``classify(url, now)``: a
    ``CacheStore`` or a simulator cache state.
    Fresh-in-cache candidates are dropped entirely.  The first
    ``max_connections - 1`` survivors load immediately (one connection
    always stays reserved for the main resource); the rest wait in
    queue order.
    """
    if max_connections < 1:
        raise InvalidParams("max_connections must be >= 1")
    immediate: list[PlannedLoad] = []
    waiting: list[PlannedLoad] = []
    for url in prediction.urls:
        outcome = cache.classify(url, now)
        if outcome is LookupOutcome.FRESH_HIT:
            continue
        action = "revalidate" if outcome is LookupOutcome.EXPIRED_REVALIDATE else "fetch"
        item = PlannedLoad(url=url, action=action)
        if len(immediate) < max_connections - 1:
            immediate.append(item)
        else:
            waiting.append(item)
    return LoadPlan(
        immediate=tuple(immediate),
        waiting=tuple(waiting),
        max_connections=max_connections,
    )


def revise_queue(plan: LoadPlan, actual_needed: list[str]) -> LoadPlan:
    """Rewrite the waiting queue once the real subresource list is known.

    Queued entries that turned out unneeded are dropped; needed URLs that
    are neither in flight nor queued are appended in document order.
    In-flight (immediate) loads are past the point of no return and stay
    untouched.  Appended entries default to full fetches; dispatchers
    re-check the cache when they actually issue them.
    """
    needed: list[str] = []
    seen: set[str] = set()
    for url in actual_needed:
        if url not in seen:
            seen.add(url)
            needed.append(url)
    inflight = {p.url for p in plan.immediate}
    kept = tuple(w for w in plan.waiting if w.url in seen)
    already = inflight | {w.url for w in kept}
    appended = tuple(
        PlannedLoad(url=url, action="fetch") for url in needed if url not in already
    )
    return LoadPlan(
        immediate=plan.immediate,
        waiting=kept + appended,
        max_connections=plan.max_connections,
    )


def evaluate_prediction(predicted, actually_requested) -> dict[str, float]:
    """Set-based accuracy (hit_ratio) and coverage (usefulness)."""
    pred = set(predicted)
    actual = set(actually_requested)
    matched = len(pred & actual)
    return {
        "hit_ratio": matched / len(pred) if pred else 0.0,
        "usefulness": matched / len(actual) if actual else 0.0,
    }


@dataclass(frozen=True)
class VisitEvaluation:
    timestamp: float
    url: str
    visit_class: VisitClass
    n_predicted: int
    hit_ratio: float
    usefulness: float
    predicted: tuple[str, ...]


@dataclass(frozen=True)
class BucketStats:
    index: int
    n_predictions: int
    hit_ratio: float
    usefulness: float


@dataclass
class PredictorReplayResult:
    per_visit: list[VisitEvaluation]
    weekly: list[BucketStats]
    monthly: list[BucketStats]

    @property
    def mean_hit_ratio(self) -> float:
        if not self.per_visit:
            return 0.0
        return fmean(v.hit_ratio for v in self.per_visit)

    @property
    def mean_usefulness(self) -> float:
        if not self.per_visit:
            return 0.0
        return fmean(v.usefulness for v in self.per_visit)


def _bucketize(rows: list[VisitEvaluation], t0: float, width: float) -> list[BucketStats]:
    grouped: dict[int, list[VisitEvaluation]] = {}
    for row in rows:
        grouped.setdefault(int((row.timestamp - t0) // width), []).append(row)
    return [
        BucketStats(
            index=idx,
            n_predictions=len(group),
            hit_ratio=fmean(r.hit_ratio for r in group),
            usefulness=fmean(r.usefulness for r in group),
        )
        for idx, group in sorted(grouped.items())
    ]


def score_predictions(
    visits: Sequence[PageVisit], predictions: Sequence[Prediction]
) -> PredictorReplayResult:
    """Score each visit's prediction against what the visit requested.

    ``predictions[i]`` is what the predictor said before ``visits[i]``.
    Buckets are 7-day and 30-day windows from the first visit.
    """
    rows: list[VisitEvaluation] = []
    for visit, prediction in zip(visits, predictions, strict=True):
        scores = evaluate_prediction(prediction.urls, [r.url for r in visit.subresources])
        rows.append(
            VisitEvaluation(
                timestamp=visit.timestamp,
                url=visit.main.url,
                visit_class=prediction.visit_class,
                n_predicted=len(prediction.urls),
                hit_ratio=scores["hit_ratio"],
                usefulness=scores["usefulness"],
                predicted=prediction.urls,
            )
        )
    t0 = rows[0].timestamp if rows else 0.0
    return PredictorReplayResult(
        per_visit=rows,
        weekly=_bucketize(rows, t0, 7 * 86400.0),
        monthly=_bucketize(rows, t0, 30 * 86400.0),
    )


def replay(visits: Iterable[PageVisit]) -> Iterator[tuple[PageVisit, Prediction]]:
    """Yield each visit with the prediction made before it.  A visit is
    learned when the consumer asks for the next one, so the consumer
    sees the graph as it was before the visit."""
    repo = MetadataRepository()
    for visit in visits:
        yield visit, predict(repo, visit.main.url)
        update(repo, visit)


def replay_predictor(trace: Trace, warmup_fraction: float = 0.0) -> PredictorReplayResult:
    """Replay a trace through ``replay`` and score the predictions with
    ``score_predictions``.

    The first ``warmup_fraction`` of visits only feed the graph; their
    predictions are dropped from the evaluation rows.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise InvalidParams("warmup_fraction must be in [0, 1)")
    if not trace.visits:
        raise EmptyTrace("cannot replay an empty trace")
    warmup = int(len(trace.visits) * warmup_fraction)
    predictions = [prediction for _, prediction in replay(trace.visits)]
    return score_predictions(trace.visits[warmup:], predictions[warmup:])
