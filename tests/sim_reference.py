"""``sim._Engine`` as it was before its hot path was made lean.

Kept as the reference the differential test in ``test_sim.py`` compares
the lean engine against: the same delays, ``overhead_bytes`` and
``ready_at``, and the same sequence of cache ``lookup``/``admit``/
``page_complete`` calls.  Every ready load takes a round trip through
the event heap here, and every duration is computed from ``net`` in
``_duration_ms``.

It plans with its own copy of the old ``plan_loads``, which split the
plan into ``immediate`` and ``waiting`` loads by the connection bound;
``test_sim.py`` also holds the current ``plan_loads`` to its URLs.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass

from specload.cache import LookupOutcome
from specload.errors import InvalidParams
from specload.predict import Prediction
from specload.sim import NetworkParams
from specload.trace import PageVisit, ResourceRecord


@dataclass(frozen=True, slots=True)
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
    ):
        if max_connections < 2:
            raise InvalidParams("max_connections must be >= 2 (one is held for the main resource)")
        self.visit = visit
        self.mode = mode
        self.cache_state = cache_state
        self.net = net
        self.max_connections = max_connections
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
            base += self.net.main_extra_rtts * rtt
        return base

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
        parse_t = (main.done_ms or 0.0) + self.net.parse_ms
        self._push_event(parse_t, "parse", None)

    def _on_parse(self, parse_t: float) -> None:
        actual = {r.url for r in self.visit.subresources}
        if self.mode is not None:
            for url, job in self.jobs.items():
                if job.is_main:
                    continue
                if url in actual:
                    job.required = True
                elif job.done_ms is None:
                    # Queued entries get dropped unissued; anything
                    # already on a connection finishes on its own.
                    self.canceled.add(url)
        offsets = self.visit.discovery_offsets or (0.0,) * len(self.visit.subresources)
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
        if self.mode is not None:
            plan = plan_loads(
                self.mode, self.cache_state, self._now_s(), self.max_connections
            )
            # Speculative loads skip the wait for the main resource but
            # keep the page's own request cadence: a load that the page
            # would only discover late in parsing starts that much into
            # the schedule.  This makes the speculative subresource
            # schedule an exact left shift of the legacy one, so under
            # correct prediction it can never come out slower.
            offsets = visit.discovery_offsets or (0.0,) * len(visit.subresources)
            cadence = {r.url: offsets[i] for i, r in enumerate(visit.subresources)}
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
