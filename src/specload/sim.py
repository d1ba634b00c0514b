"""Deterministic discrete-event simulation of page loads.

Connections are fixed-RTT pipes that do not share bandwidth.  A request
costs nothing when the cache serves it fresh, one round trip when it
revalidates, and a round trip plus transfer time for a full fetch; the
main resource additionally pays connection setup and redirect round
trips.  Legacy loading discovers subresources only after the main
resource has downloaded and parsed.  Speculative loading starts the
planned loads at t=0 on every connection except the one reserved for
the main resource, then revises the waiting queue the moment parsing
reveals what the page really needs; mispredicted loads that are already
in flight run to completion and occupy their connection, while queued
mispredictions are dropped unissued.

Page delay is the end of the last *required* response: the main
resource and the visit's actual subresources.  Speculative extras never
extend it; they only burn connection time and bytes.

Requests classify against the cache at issuance: t=0 for the main
resource and the immediate speculative loads, discovery time for
subresources found by parsing (instant when fresh), and channel grant
for queued loads.  A URL is loaded at most once per page, so a queued
speculative load cannot have turned fresh while it waited.

A cache state is any object with five methods: ``classify(url, now)``
(pure, what the planner sees), ``lookup(url, now)`` (a request at
issuance), ``admit(record, now)`` (a response came in),
``page_complete()`` and ``fork()`` (an independent copy, one per mode
in a trace replay).  ``FRESH``, ``EXPIRED`` and ``EMPTY`` answer every
request with one fixed outcome and store nothing; ``Realistic(store)``
runs the ``cache`` module's semantics against a store that evolves as
the simulation runs.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from .cache import CacheStore, LookupOutcome, admit, lookup, page_complete
from .errors import EmptyTrace, InvalidParams
from .predict import Prediction, VisitClass, plan_loads, replay
from .trace import PageVisit, ResourceRecord, Trace


@dataclass(frozen=True)
class NetworkParams:
    rtt_ms: float = 200.0
    bandwidth_bytes_per_s: float = 125_000.0
    parse_ms: float = 100.0
    main_extra_rtts: int = 1
    redirect_hops: int = 0


DEFAULT_NET = NetworkParams()


@dataclass(frozen=True)
class Uniform:
    """Every request classifies the same way and nothing is stored."""

    outcome: LookupOutcome

    def classify(self, url: str, now: float) -> LookupOutcome:
        return self.outcome

    lookup = classify

    def admit(self, record: ResourceRecord, now: float) -> None:
        pass

    def page_complete(self) -> None:
        pass

    def fork(self) -> "Uniform":
        return self


FRESH = Uniform(LookupOutcome.FRESH_HIT)
EXPIRED = Uniform(LookupOutcome.EXPIRED_REVALIDATE)
EMPTY = Uniform(LookupOutcome.MISS)


@dataclass
class Realistic:
    """Classify against a live store, mutated as the simulation runs."""

    store: CacheStore

    def classify(self, url: str, now: float) -> LookupOutcome:
        return self.store.classify(url, now)

    def lookup(self, url: str, now: float) -> LookupOutcome:
        return lookup(self.store, url, now)

    def admit(self, record: ResourceRecord, now: float) -> None:
        admit(self.store, record, now)

    def page_complete(self) -> None:
        page_complete(self.store)

    def fork(self) -> "Realistic":
        return Realistic(self.store.copy())


@dataclass(frozen=True)
class Legacy:
    pass


@dataclass(frozen=True)
class Speculative:
    prediction: Prediction


LEGACY = Legacy()


class OperationClass(Enum):
    MAIN_FETCH = "main_fetch"
    PARSE = "parse"
    SUBRESOURCE_FETCH = "subresource_fetch"


@dataclass
class _Job:
    url: str
    priority: tuple
    is_main: bool = False
    required: bool = False
    record: ResourceRecord | None = None
    done_ms: float | None = None
    body_bytes: int = 0


class _Engine:
    def __init__(
        self,
        visit: PageVisit,
        mode,
        cache_state,
        net: NetworkParams,
        max_connections: int,
        known_records: Mapping[str, ResourceRecord] | None,
        scales: dict[OperationClass, float],
    ):
        if max_connections < 2:
            raise InvalidParams("max_connections must be >= 2 (one is held for the main resource)")
        self.visit = visit
        self.mode = mode
        self.cache_state = cache_state
        self.net = net
        self.max_connections = max_connections
        self.scales = scales
        # Read with ``get`` only: copying it per page would make a
        # trace replay quadratic in its length.
        self.known = known_records if known_records is not None else {}
        # One connection belongs to the main resource for the whole
        # page load; subresources contend for the rest.  Keeping the
        # pools separate is what makes the speculative head start show
        # up as a pure left shift of the subresource schedule.
        self.free = max_connections - 1
        self.now = 0.0
        self.events: list[tuple[float, int, str, object]] = []
        self.queue: list[tuple[tuple, int, _Job]] = []
        self.jobs: dict[str, _Job] = {}
        self.canceled: set[str] = set()
        self.ready_at: dict[str, float] = {}
        self._seq = 0

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def _push_event(self, t: float, kind: str, payload=None) -> None:
        heapq.heappush(self.events, (t, self._next(), kind, payload))

    def _now_s(self) -> float:
        return self.visit.timestamp + self.now / 1000.0

    def _scaled(self, op: OperationClass, duration: float) -> float:
        return duration * self.scales.get(op, 1.0)

    def _duration_ms(self, job: _Job, outcome: LookupOutcome) -> float:
        rtt = self.net.rtt_ms
        if outcome is LookupOutcome.EXPIRED_REVALIDATE:
            base = rtt
        else:
            record = job.record
            size = record.size_bytes if record else 0
            job.body_bytes = size
            base = rtt + size * 1000.0 / self.net.bandwidth_bytes_per_s
        if job.is_main:
            base += (self.net.main_extra_rtts + self.net.redirect_hops) * rtt
            return self._scaled(OperationClass.MAIN_FETCH, base)
        return self._scaled(OperationClass.SUBRESOURCE_FETCH, base)

    def _issue(self, job: _Job) -> bool:
        """Classify and start a job now; False means it resolved as a
        fresh hit without consuming a connection.  The main resource
        rides its reserved connection and never draws on the pool."""
        outcome = self.cache_state.lookup(job.url, self._now_s())
        if outcome is LookupOutcome.FRESH_HIT:
            job.done_ms = self.now
            return False
        duration = self._duration_ms(job, outcome)
        if not job.is_main:
            self.free -= 1
        self._push_event(self.now + duration, "finish", job)
        return True

    def _dispatch(self) -> None:
        while self.queue and self.free > 0:
            _, _, job = heapq.heappop(self.queue)
            if job.url in self.canceled:
                continue
            self._issue(job)

    def _enqueue(self, job: _Job) -> None:
        heapq.heappush(self.queue, (job.priority, self._next(), job))

    def _on_main_done(self, main: _Job) -> None:
        parse_t = (main.done_ms or 0.0) + self._scaled(OperationClass.PARSE, self.net.parse_ms)
        self._push_event(parse_t, "parse", None)

    def _on_parse(self, parse_t: float) -> None:
        actual = {r.url for r in self.visit.subresources}
        if isinstance(self.mode, Speculative):
            for url, job in self.jobs.items():
                if job.is_main:
                    continue
                if url in actual:
                    job.required = True
                elif job.done_ms is None:
                    # Queued entries get dropped unissued; anything
                    # already on a connection finishes on its own.
                    self.canceled.add(url)
        offsets = self.visit.offsets
        # Push ready events in (offset, document index) order.  An
        # offset too small to survive ``parse_t + offset`` then still
        # breaks the tie the way it orders speculative loads.
        for i in sorted(range(len(offsets)), key=offsets.__getitem__):
            record = self.visit.subresources[i]
            url = record.url
            ready = parse_t + offsets[i]
            self.ready_at[url] = ready
            if url in self.jobs:
                self.jobs[url].required = True
                continue
            job = _Job(url=url, priority=(2, i, url), required=True, record=record)
            self.jobs[url] = job
            self._push_event(ready, "ready", job)

    def run(self) -> float:
        visit = self.visit
        main_url = visit.main.url
        main = _Job(
            url=main_url, priority=(0, 0, ""), is_main=True, required=True, record=visit.main
        )
        self.jobs[main_url] = main

        if not self._issue(main):
            self._on_main_done(main)
        if isinstance(self.mode, Speculative):
            plan = plan_loads(
                self.mode.prediction, self.cache_state, self._now_s(), self.max_connections
            )
            # Speculative loads skip the wait for the main resource but
            # keep the page's own request cadence: a load that the page
            # would only discover late in parsing starts that much into
            # the schedule.  This makes the speculative subresource
            # schedule an exact left shift of the legacy one, so under
            # correct prediction it can never come out slower.
            cadence = {r.url: visit.offsets[i] for i, r in enumerate(visit.subresources)}
            # The visit's own records are authoritative for anything the
            # page actually transfers this time around.
            own = {r.url: r for r in visit.subresources}
            rank = 0
            for item in (*plan.immediate, *plan.waiting):
                if item.url == main_url or item.url in self.jobs:
                    continue
                record = own.get(item.url) or self.known.get(item.url)
                job = _Job(url=item.url, priority=(1, rank, item.url), record=record)
                self.jobs[item.url] = job
                ready = cadence.get(item.url, 0.0)
                self.ready_at[item.url] = ready
                self._push_event(ready, "ready", job)
                rank += 1

        while self.events:
            t, _, kind, payload = heapq.heappop(self.events)
            self.now = t
            if kind == "finish":
                job = payload
                job.done_ms = t
                if not job.is_main:
                    self.free += 1
                if job.record is not None:
                    self.cache_state.admit(job.record, self._now_s())
                if job.is_main:
                    self._on_main_done(job)
            elif kind == "parse":
                self._on_parse(t)
            elif kind == "ready":
                job = payload
                if job.url not in self.canceled:
                    self._enqueue(job)
            self._dispatch()
        self._dispatch()

        self.cache_state.page_complete()

        # Page delay: when the last required resource is in hand.  A
        # speculative load that lands before the parser would have asked
        # for it counts at its completion time.
        done_required = [main.done_ms or 0.0]
        for record in visit.subresources:
            url = record.url
            job = self.jobs.get(url)
            if job is None or job.done_ms is None:
                raise RuntimeError(f"required resource never completed: {url}")
            done_required.append(job.done_ms)
        return max(done_required)

    @property
    def overhead_bytes(self) -> int:
        """Body bytes transferred for URLs the page never required."""
        return sum(j.body_bytes for j in self.jobs.values() if not j.required)


def simulate_page(
    visit: PageVisit,
    mode=LEGACY,
    cache_state=EMPTY,
    net: NetworkParams = DEFAULT_NET,
    max_connections: int = 4,
    known_records: Mapping[str, ResourceRecord] | None = None,
) -> float:
    """Simulate one page load; returns the page delay in milliseconds.

    ``known_records`` maps canonical URLs to their latest observed
    records, for sizing speculative loads of URLs this visit does not
    request; it is only read with ``get``.
    """
    engine = _Engine(visit, mode, cache_state, net, max_connections, known_records, {})
    return engine.run()


def whatif_scale(
    visit: PageVisit,
    operation_class: OperationClass,
    scale: float,
    net: NetworkParams = DEFAULT_NET,
    cache_state=EMPTY,
    mode=LEGACY,
    max_connections: int = 4,
    known_records: Mapping[str, ResourceRecord] | None = None,
) -> float:
    """Re-run the page with every duration of one operation class scaled.

    Everything that waits on a scaled operation shifts accordingly;
    nothing else changes.  ``scale`` must be non-negative; 1.0 replays
    the unmodified page.
    """
    if scale < 0:
        raise InvalidParams("scale must be >= 0")
    engine = _Engine(
        visit, mode, cache_state, net, max_connections, known_records, {operation_class: scale}
    )
    return engine.run()


@dataclass(frozen=True)
class PageResult:
    """One visit's delays.  ``prediction`` is what the learned predictor
    said before the visit, None under the oracle."""

    url: str
    timestamp: float
    legacy_ms: float
    speculative_ms: float
    prediction: Prediction | None = None

    @property
    def visit_class(self) -> VisitClass | None:
        return self.prediction.visit_class if self.prediction else None

    @property
    def reduction_ms(self) -> float:
        return self.legacy_ms - self.speculative_ms

    @property
    def reduction_fraction(self) -> float:
        return self.reduction_ms / self.legacy_ms if self.legacy_ms > 0 else 0.0


@dataclass
class SimResult:
    pages: list[PageResult] = field(default_factory=list)

    @property
    def mean_legacy_ms(self) -> float:
        return sum(p.legacy_ms for p in self.pages) / len(self.pages) if self.pages else 0.0

    @property
    def mean_speculative_ms(self) -> float:
        return (
            sum(p.speculative_ms for p in self.pages) / len(self.pages) if self.pages else 0.0
        )

    @property
    def mean_reduction_ms(self) -> float:
        return self.mean_legacy_ms - self.mean_speculative_ms

    @property
    def reduction_fraction(self) -> float:
        return self.mean_reduction_ms / self.mean_legacy_ms if self.mean_legacy_ms > 0 else 0.0


def simulate_trace(
    trace: Trace,
    net: NetworkParams = DEFAULT_NET,
    cache_state=EMPTY,
    with_predictor: bool = False,
    max_connections: int = 4,
    trim_days: float | None = None,
) -> SimResult:
    """Compare legacy and speculative loading over a whole trace.

    Runs both modes for every visit.  With ``with_predictor`` the
    speculative side takes its predictions from ``predict.replay``
    (predict, simulate, then learn the visit, trimming the graph to
    ``trim_days`` once a day when that is set), and each page result
    keeps its prediction for scoring (``predict.score_predictions``);
    otherwise it gets the oracle prediction (the visit's real
    subresource list, in document order).  Each mode runs against its
    own ``fork`` of the cache state, since the two browsers would
    accumulate different histories.  Mispredicted fetch sizes come from
    each URL's most recent earlier observation.
    """
    if not trace.visits:
        raise EmptyTrace("cannot simulate an empty trace")
    legacy_state = cache_state.fork()
    spec_state = cache_state.fork()
    known_records: dict[str, ResourceRecord] = {}
    result = SimResult()
    if with_predictor:
        visits = replay(trace.visits, trim_days)
    else:
        visits = (
            (v, Prediction(tuple(r.url for r in v.subresources), VisitClass.REVISIT))
            for v in trace.visits
        )
    for visit, prediction in visits:
        main_url = visit.main.url
        legacy_ms = simulate_page(visit, LEGACY, legacy_state, net, max_connections, known_records)
        speculative_ms = simulate_page(
            visit, Speculative(prediction), spec_state, net, max_connections, known_records
        )
        known_records[main_url] = visit.main
        for record in visit.subresources:
            known_records[record.url] = record
        result.pages.append(
            PageResult(
                url=main_url,
                timestamp=visit.timestamp,
                legacy_ms=legacy_ms,
                speculative_ms=speculative_ms,
                prediction=prediction if with_predictor else None,
            )
        )
    return result
