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

``replay`` predicts each visit from one ``MetadataRepository`` and then
learns the visit into it (``MetadataRepository.learn``), so the
prediction sees only the visits before it.

A speculative plan is the predicted URLs not fresh in the cache
(``plan_loads``); how they share connections is ``sim.PageScheduler``'s
decision, for the simulator and the live fetcher alike.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from statistics import fmean

from .cache import LookupOutcome
from .errors import EmptyTrace
from .graph import DAY_S, MetadataRepository, ResourceGraph, priority_key
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


def _mean_children(graph: ResourceGraph, subdomain_id: int | None) -> float:
    """The mean number of subresources of the pages under
    ``subdomain_id``, or of every page of the graph when it is None."""
    pages = graph.page_index if subdomain_id is None else graph.nodes[subdomain_id].children
    if not pages:
        return 0.0
    # The graph keeps the exact integer edge total.  Below 2**53 the total
    # and the count are exact floats, so this is the correctly rounded
    # quotient that ``statistics.fmean`` returns.
    return graph.page_edges(subdomain_id) / len(pages)


def predict(repo: MetadataRepository, url: str) -> Prediction:
    """Predict the subresource URLs a visit to ``url`` will request.

    Matches the graph in decreasing specificity: exact webpage node
    (revisit, all children), else known subdomain, else known website
    (new visit, truncated scope candidates), else an unknown site and an
    empty prediction.  Ordering is exactly ``priority_key``.
    """
    url = normalize_url(url)
    site = website_key(url)
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
    num_predicted = max(1, round_half_up(_mean_children(graph, subdomain_id)))
    best = islice(candidates, num_predicted)
    return Prediction(urls=tuple(n.url_or_name for n in best), visit_class=visit_class)


def plan_loads(prediction: Prediction, cache, now: float) -> tuple[str, ...]:
    """The predicted URLs not fresh in ``cache``, in prediction order.
    ``cache`` is anything with a pure ``classify(url, now)``: any
    simulator cache state, ``CacheStore`` included.  The simulator and the
    live fetcher look a URL up again when they issue its load."""
    fresh = LookupOutcome.FRESH_HIT
    return tuple(url for url in prediction.urls if cache.classify(url, now) is not fresh)


def revise_queue(
    inflight: Iterable[str], waiting: Iterable[str], needed: Iterable[str]
) -> tuple[str, ...]:
    """The waiting queue once the page turns out to need ``needed``, in
    document order: the waiting URLs still needed, in queue order, then
    each needed URL neither in flight nor waiting, once.  In-flight loads
    stay where they are.  ``sim.PageScheduler.parse`` makes this decision,
    and acceptance check 06 holds it to this rule."""
    document = dict.fromkeys(needed)
    kept = tuple(url for url in waiting if url in document)
    already = {*inflight, *kept}
    return kept + tuple(url for url in document if url not in already)


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
    visit_class: VisitClass
    hit_ratio: float
    usefulness: float


@dataclass(frozen=True)
class BucketStats:
    index: int
    n_predictions: int
    hit_ratio: float
    usefulness: float


@dataclass
class PredictorReplayResult:
    """Each visit's scores, and their means (all built by ``_bucket``) per
    7-day and 30-day bucket from the first visit and over every visit."""

    per_visit: list[VisitEvaluation]
    weekly: list[BucketStats]
    monthly: list[BucketStats]
    overall: BucketStats


def _bucket(index: int, rows: list[VisitEvaluation]) -> BucketStats:
    """The mean scores of ``rows``; all zero when there are none."""
    if not rows:
        return BucketStats(index, 0, 0.0, 0.0)
    hit_ratio = fmean(r.hit_ratio for r in rows)
    return BucketStats(index, len(rows), hit_ratio, fmean(r.usefulness for r in rows))


def _bucketize(rows: list[VisitEvaluation], t0: float, width: float) -> list[BucketStats]:
    grouped: dict[int, list[VisitEvaluation]] = {}
    for row in rows:
        grouped.setdefault(int((row.timestamp - t0) // width), []).append(row)
    return [_bucket(idx, group) for idx, group in sorted(grouped.items())]


def score_predictions(
    visits: Sequence[PageVisit], predictions: Sequence[Prediction]
) -> PredictorReplayResult:
    """Score each visit's prediction against what the visit requested.

    ``predictions[i]`` is what the predictor said before ``visits[i]``.
    """
    rows: list[VisitEvaluation] = []
    for visit, prediction in zip(visits, predictions, strict=True):
        scores = evaluate_prediction(prediction.urls, [r.url for r in visit.subresources])
        rows.append(
            VisitEvaluation(
                timestamp=visit.timestamp,
                visit_class=prediction.visit_class,
                hit_ratio=scores["hit_ratio"],
                usefulness=scores["usefulness"],
            )
        )
    t0 = rows[0].timestamp if rows else 0.0
    return PredictorReplayResult(
        per_visit=rows,
        weekly=_bucketize(rows, t0, 7 * DAY_S),
        monthly=_bucketize(rows, t0, 30 * DAY_S),
        overall=_bucket(0, rows),
    )


def replay(
    visits: Iterable[PageVisit], trim_days: float | None = None
) -> Iterator[tuple[PageVisit, Prediction]]:
    """Yield each visit with the prediction made before it.  A visit is
    learned when the consumer asks for the next one, so the consumer
    sees the graph as it was before the visit.  With ``trim_days`` the
    graph forgets what is older than that window, trimmed once a day as
    ``graph build --trim-days`` does (``MetadataRepository.learn``)."""
    repo = MetadataRepository(trim_days)
    for visit in visits:
        yield visit, predict(repo, visit.main.url)
        repo.learn(visit)


def replay_predictor(trace: Trace, trim_days: float | None = None) -> PredictorReplayResult:
    """Replay a trace through ``replay`` (trimming with ``trim_days``)
    and score the predictions with ``score_predictions``."""
    if not trace.visits:
        raise EmptyTrace("cannot replay an empty trace")
    predictions = [prediction for _, prediction in replay(trace.visits, trim_days)]
    return score_predictions(trace.visits, predictions)
