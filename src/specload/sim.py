"""Deterministic discrete-event simulation of page loads.

Connections are fixed-RTT pipes that do not share bandwidth.  A request
costs nothing when the cache serves it fresh, one round trip when it
revalidates, and a round trip plus transfer time for a full fetch; the
main resource additionally pays ``main_extra_rtts`` round trips.  A
legacy load (no prediction) discovers subresources only after the main
resource has downloaded and parsed.  A speculative one starts its
prediction's plan (``predict.plan_loads``) without waiting for the main
resource, on every connection except the one it holds, the rest waiting
in plan order, then revises the waiting queue the moment parsing reveals
what the page really needs; mispredicted loads already in flight run to
completion and occupy their connection, while queued mispredictions are
dropped unissued.  ``PageScheduler`` alone makes these decisions, and
``live.fetch_page`` drives the same ones over real connections.

Page delay is the end of the last *required* response: the main
resource and the visit's actual subresources.  Speculative extras never
extend it; they only burn connection time and bytes (``overhead_bytes``).

Requests classify against the cache at issuance: t=0 for the main
resource and the immediate speculative loads, discovery time for
subresources found by parsing (instant when fresh), and channel grant
for queued loads.  A URL is loaded at most once per page, so a queued
speculative load cannot have turned fresh while it waited.

Events are finish, parse and ready, kept in a heap ordered by time and
then by push order.  Every load issued on a connection pushes exactly
one finish event; a fresh hit pushes none and completes at its issue
time.  A load that becomes ready at the current time while no other
event is due at that time skips the heap: it takes a free connection at
once, or joins the waiting queue when none is free.  The heap would
have popped those loads next and in the same order, so every cache
lookup and admit happens in the same sequence either way
(``tests/sim_reference.py`` keeps the engine that routes them through
the heap, and ``tests/test_sim.py`` compares the two).  After each
event, either the waiting queue is empty or no connection is free.

A cache state is any object with four methods: ``classify(url, now)``
(pure, what the planner sees), ``lookup(url, now)`` (a request at
issuance), ``admit(record, now)`` (a response came in) and
``page_complete()``.  A trace replay gives each mode a ``copy.deepcopy``
of it.  ``FRESH``, ``EXPIRED`` and ``EMPTY`` answer every request with
one fixed outcome and store nothing; a ``cache.CacheStore`` runs the
``cache`` module's semantics on entries that evolve as the simulation
runs.

A trace replay (``simulate_trace``) runs on two processes.  A child
made with ``os.fork`` makes each visit's prediction (``predict.replay``
or the oracle) and simulates the legacy page against its own copy of
the cache state; it streams ``(prediction, legacy_ms)`` over a pipe in
batches, as one pickle stream, so that each object (most often a URL
string) crosses the pipe once and arrives as one object.  This process
simulates the speculative page from each prediction as the batches
arrive.  Legacy loading never reads a prediction or the known records,
and the speculative side never reads the graph or the legacy cache, so
the two halves share no state and the result is what one process
computes.  One process it is when ``os.fork`` is missing, when another
thread is alive (forking a threaded process can deadlock the child), or
when a tracer or profiler is set, so that it sees the whole run.
``_in_worker`` holds all of the process handling.
"""

from __future__ import annotations

import copy
import heapq
import math
import os
import signal
import sys
import threading
import traceback
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import closing
from dataclasses import dataclass, field
from typing import TypeVar

from .cache import LookupOutcome
from .errors import EmptyTrace, InvalidParams
from .predict import Prediction, VisitClass, plan_loads, replay
from .trace import PageVisit, ResourceRecord, Trace


@dataclass(frozen=True)
class NetworkParams:
    rtt_ms: float = 200.0
    bandwidth_bytes_per_s: float = 125_000.0
    parse_ms: float = 100.0
    main_extra_rtts: int = 1

    def __post_init__(self):
        times = 0 <= self.rtt_ms < math.inf and 0 <= self.parse_ms < math.inf
        if not (times and self.bandwidth_bytes_per_s > 0 and self.main_extra_rtts >= 0):
            raise InvalidParams(f"network parameters out of range: {self}")


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


FRESH = Uniform(LookupOutcome.FRESH_HIT)
EXPIRED = Uniform(LookupOutcome.EXPIRED_REVALIDATE)
EMPTY = Uniform(LookupOutcome.MISS)


# Event kinds.  A tie in time is broken by push order, never by kind.
_FINISH, _PARSE, _READY = range(3)


@dataclass(slots=True)
class _Job:
    url: str
    # Queue order: speculative loads by plan rank, then discovered loads
    # by document index (offset by the number of jobs before the parse).
    priority: int
    is_main: bool = False
    required: bool = False
    record: ResourceRecord | None = None
    done_ms: float | None = None
    body_bytes: int = 0


def _check_connections(max_connections: int) -> None:
    if max_connections < 2:
        raise InvalidParams("max_connections must be >= 2 (one is held for the main resource)")


class PageScheduler:
    """The loading decisions for one page: the simulator (``_Engine``)
    drives them in virtual time, ``live.fetch_page`` in real time.

    One connection belongs to the main resource for the whole page
    load; subresources contend for the other ``max_connections - 1``
    (``free``), which only ``start`` and ``finish`` count.  Keeping the
    pools separate makes the speculative head start a pure left shift
    of the subresource schedule.  A driver implements ``_issue``: look
    the job up in the cache now, and return False for a fresh hit
    (``done_ms`` set) or True once it is on a connection (``body_bytes``
    is what it transfers).  It issues the main resource, calls ``plan``,
    then ``start`` with ready loads, ``finish`` when a subresource load
    ends and ``parse`` once the main resource has parsed.
    """

    def __init__(self, main_url: str, max_connections: int):
        _check_connections(max_connections)
        self.free = max_connections - 1
        self.main = _Job(main_url, 0, is_main=True, required=True)
        self.jobs: dict[str, _Job] = {main_url: self.main}
        self.queue: list[tuple[int, _Job]] = []
        self.parsed = False

    def _issue(self, job: _Job) -> bool:
        raise NotImplementedError

    def start(self, jobs: Iterable[_Job]) -> None:
        """Start ready loads in order, each onto a free connection or else
        into the queue; once the page has parsed, drop those it does not need."""
        for job in jobs:
            if self.parsed and not job.required:
                continue
            if self.free <= 0:
                heapq.heappush(self.queue, (job.priority, job))
            elif self._issue(job):
                self.free -= 1

    def finish(self) -> None:
        """A subresource load has ended: its connection goes to the
        queued loads in priority order, as in ``start``; one that turns
        out fresh takes no connection."""
        self.free += 1
        while self.queue and self.free > 0:
            _, job = heapq.heappop(self.queue)
            if (job.required or not self.parsed) and self._issue(job):
                self.free -= 1

    def plan(self, prediction: Prediction, cache, now: float) -> list[_Job]:
        """New jobs for the URLs ``plan_loads`` keeps of ``prediction``,
        to be started in plan order, which is their queue order."""
        jobs = self.jobs
        new = []
        for url in plan_loads(prediction, cache, now):
            if url not in jobs:
                jobs[url] = job = _Job(url, len(new))
                new.append(job)
        return new

    def parse(self, urls: Sequence[str]) -> list[_Job | None]:
        """The parsed page needs ``urls``, in document order: mark them
        required, so that queued loads it does not need are dropped.
        Returns, per URL, the new job that loads it (ranked after every
        existing job), or None when a job exists, for the driver to start."""
        self.parsed = True
        jobs = self.jobs
        base = len(jobs)
        new: list[_Job | None] = []
        for i, url in enumerate(urls):
            job = jobs.get(url)
            if job is None:
                jobs[url] = job = _Job(url, base + i, required=True)
                new.append(job)
            else:
                job.required = True
                new.append(None)
        return new

    def delay_ms(self) -> float:
        """Page delay: when the last required resource is in hand.  A
        speculative load that lands before the parser would have asked
        for it counts at its completion time."""
        done = [job.done_ms for job in self.jobs.values() if job.required]
        if None in done:
            raise RuntimeError("a required resource never completed")
        return max(done)

    @property
    def overhead_bytes(self) -> int:
        """Body bytes transferred for URLs the page never required."""
        return sum(j.body_bytes for j in self.jobs.values() if not j.required)


class _Engine(PageScheduler):
    """The simulator's driver: an event heap in virtual time, with every
    duration taken from ``net`` (round trips, transfer and parse time)."""

    def __init__(
        self,
        visit: PageVisit,
        prediction: Prediction | None,
        cache_state,
        net: NetworkParams,
        max_connections: int,
        known_records: Mapping[str, ResourceRecord] | None,
    ):
        super().__init__(visit.main.url, max_connections)
        self.main.record = visit.main
        self.visit = visit
        self.prediction = prediction
        self.cache_state = cache_state
        self.net = net
        # Read with ``get`` only: copying it per page would make a
        # trace replay quadratic in its length.
        self.known = known_records if known_records is not None else {}
        self.now = 0.0
        self.events: list[tuple[float, int, int, _Job | None]] = []
        self.ready_at: dict[str, float] = {}
        self._seq = 0
        self._main_extra_ms = net.main_extra_rtts * net.rtt_ms

    def _push_event(self, t: float, kind: int, job: _Job | None) -> None:
        self._seq += 1
        heapq.heappush(self.events, (t, self._seq, kind, job))

    def _issue(self, job: _Job) -> bool:
        now = self.now
        outcome = self.cache_state.lookup(job.url, self.visit.timestamp + now / 1000.0)
        if outcome is LookupOutcome.FRESH_HIT:
            job.done_ms = now
            return False
        net = self.net
        duration = net.rtt_ms
        if outcome is not LookupOutcome.EXPIRED_REVALIDATE:
            record = job.record
            size = record.size_bytes if record is not None else 0
            job.body_bytes = size
            duration += size * 1000.0 / net.bandwidth_bytes_per_s
        if job.is_main:
            duration += self._main_extra_ms
        self._seq += 1
        heapq.heappush(self.events, (now + duration, self._seq, _FINISH, job))
        return True

    def _ready(self, loads: list[tuple[_Job, float]]) -> None:
        """Make each job ready at its time.  With no other event due now,
        the ones ready now skip the heap, which would pop them next and
        in this order.  The others are pushed before those start, so
        every finish event a start pushes stays behind them, as it
        would."""
        events, now = self.events, self.now
        skip_heap = not events or events[0][0] > now
        due = []
        for job, ready in loads:
            if skip_heap and ready == now:
                due.append(job)
            else:
                self._push_event(ready, _READY, job)
        self.start(due)

    def _speculate(self) -> None:
        visit = self.visit
        new = self.plan(self.prediction, self.cache_state, visit.timestamp)
        if not new:
            return
        # Speculative loads skip the wait for the main resource but keep
        # the page's own request cadence: a load that the page would only
        # discover late in parsing starts that much into the schedule.
        # This makes the speculative subresource schedule an exact left
        # shift of the legacy one, so under correct prediction it can
        # never come out slower.  The visit's own records are
        # authoritative for anything the page actually transfers this
        # time around.
        subs = visit.subresources
        offsets = visit.discovery_offsets
        index = {r.url: i for i, r in enumerate(subs)}
        known = self.known
        ready_at = self.ready_at
        loads = []
        for job in new:
            url = job.url
            i = index.get(url)
            if i is None:
                job.record, ready = known.get(url), 0.0
            else:
                job.record, ready = subs[i], offsets[i] if offsets else 0.0
            ready_at[url] = ready
            loads.append((job, ready))
        self._ready(loads)

    def _on_parse(self, parse_t: float) -> None:
        subs = self.visit.subresources
        new = self.parse([r.url for r in subs])
        offsets = self.visit.discovery_offsets
        # Ready in (offset, document index) order.  An offset too small
        # to survive ``parse_t + offset`` then still breaks the tie the
        # way it orders speculative loads.
        if offsets:
            order = sorted(range(len(offsets)), key=offsets.__getitem__)
        else:
            order = range(len(subs))
        ready_at = self.ready_at
        loads = []
        for i in order:
            record = subs[i]
            ready = parse_t + offsets[i] if offsets else parse_t
            ready_at[record.url] = ready
            job = new[i]
            if job is not None:
                job.record = record
                loads.append((job, ready))
        self._ready(loads)

    def run(self) -> float:
        main = self.main
        self._issue(main)
        if main.done_ms is not None:
            self._push_event(main.done_ms + self.net.parse_ms, _PARSE, None)
        if self.prediction is not None:
            self._speculate()

        events = self.events
        admit = self.cache_state.admit
        timestamp = self.visit.timestamp
        pop = heapq.heappop
        while events:
            t, _, kind, job = pop(events)
            self.now = t
            if kind == _FINISH:
                job.done_ms = t
                if job.record is not None:
                    admit(job.record, timestamp + t / 1000.0)
                if job.is_main:
                    self._push_event(t + self.net.parse_ms, _PARSE, None)
                else:
                    self.finish()
            elif kind == _PARSE:
                self._on_parse(t)
            else:
                self.start((job,))

        self.cache_state.page_complete()
        return self.delay_ms()


def simulate_page(
    visit: PageVisit,
    prediction: Prediction | None = None,
    cache_state=EMPTY,
    net: NetworkParams = DEFAULT_NET,
    max_connections: int = 4,
    known_records: Mapping[str, ResourceRecord] | None = None,
) -> float:
    """Simulate one page load, speculative from ``prediction`` or legacy
    when it is None; returns the page delay in milliseconds.

    ``known_records`` maps canonical URLs to their latest observed
    records, for sizing speculative loads of URLs this visit does not
    request; it is only read with ``get``.
    """
    return _Engine(visit, prediction, cache_state, net, max_connections, known_records).run()


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
    def mean(self) -> PageResult:
        """The MEAN row: a page whose delays are the means over every page."""
        n = len(self.pages)
        legacy = sum(p.legacy_ms for p in self.pages) / n if n else 0.0
        speculative = sum(p.speculative_ms for p in self.pages) / n if n else 0.0
        return PageResult("MEAN", None, legacy, speculative)


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
    own deep copy of the cache state, since the two browsers would
    accumulate different histories.  Mispredicted fetch sizes come from
    each URL's most recent earlier observation.

    The work runs on two processes when it safely can (``_in_worker``):
    a forked child makes each visit's prediction and simulates its
    legacy page, and this process simulates the speculative page from
    that prediction.  The halves share no state, so the result is the
    same as a run in one process, which is what happens when ``os.fork``
    is missing, another thread is alive, or a tracer or profiler is set.
    """
    if not trace.visits:
        raise EmptyTrace("cannot simulate an empty trace")
    _check_connections(max_connections)

    def predict_and_load_legacy() -> Iterator[tuple[Prediction, float]]:
        # Legacy loading never plans, so it needs no known records.
        legacy_state = copy.deepcopy(cache_state)
        if with_predictor:
            visits = replay(trace.visits, trim_days)
        else:
            visits = (
                (v, Prediction(tuple(r.url for r in v.subresources), VisitClass.REVISIT))
                for v in trace.visits
            )
        for visit, prediction in visits:
            yield prediction, simulate_page(visit, None, legacy_state, net, max_connections, None)

    spec_state = copy.deepcopy(cache_state)
    known_records: dict[str, ResourceRecord] = {}
    result = SimResult()
    with closing(_in_worker(predict_and_load_legacy)) as halves:
        for visit, (prediction, legacy_ms) in zip(trace.visits, halves, strict=True):
            main_url = visit.main.url
            speculative_ms = simulate_page(
                visit, prediction, spec_state, net, max_connections, known_records
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


_T = TypeVar("_T")

# Items per message from the worker.  The pipe holds a few messages, so
# a worker that runs ahead blocks on its next write.
_BATCH = 64


class _RemoteTraceback(Exception):
    """The worker's traceback, chained as the cause of its error."""


def _can_fork() -> bool:
    """Forking is only safe with one thread (another may hold a lock the
    child would need), and a tracer or profiler should see the whole run."""
    return (
        hasattr(os, "fork")
        and threading.active_count() == 1
        and sys.gettrace() is None
        and sys.getprofile() is None
    )


def _in_worker(produce: Callable[[], Iterable[_T]]) -> Iterator[_T]:
    """Yield what ``produce()`` yields, computed in a forked child.

    The child pickles the items to a pipe in batches of ``_BATCH`` and
    leaves with ``os._exit``, so it runs no atexit handler and flushes
    no inherited buffer.  One ``Pickler`` writes the whole stream and one
    ``Unpickler`` reads it, so an object sent again, such as a URL in
    many predictions, goes as a reference to its first copy and is read
    back as that same object.  Both memos keep what they have seen alive,
    so no id is reused; the items must be immutable, since a change made
    after sending would not cross.  An exception in the child is raised
    here with its type and message, its traceback chained as the cause.
    Closing this generator early, or an exception in the consumer that
    closes it, kills and reaps the child.  When ``_can_fork`` says no,
    the items are produced here instead.
    """
    if not _can_fork():
        yield from produce()
        return
    # Imported here so that commands that never replay a trace do not
    # carry it.
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickler = pickle.Pickler(pipe, pickle.HIGHEST_PROTOCOL)

                def send(message) -> None:
                    pickler.dump(message)
                    pipe.flush()

                try:
                    batch = []
                    for item in produce():
                        batch.append(item)
                        if len(batch) == _BATCH:
                            send(("items", batch))
                            batch = []
                    send(("items", batch))
                    send(("end", None))
                except BaseException as exc:
                    # Whatever stops the child, an interrupt included, is
                    # raised again in the parent.
                    tb = traceback.format_exc()
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
                    send(("error", (exc, tb)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reaped = False
    try:
        with open(read_fd, "rb") as pipe:
            unpickler = pickle.Unpickler(pipe)
            while True:
                try:
                    kind, payload = unpickler.load()
                except (EOFError, pickle.UnpicklingError):
                    kind = "died"
                if kind == "items":
                    yield from payload
                elif kind == "error":
                    exc, tb = payload
                    raise exc from _RemoteTraceback(tb)
                else:
                    break
        _, status = os.waitpid(pid, 0)
        reaped = True
        if kind != "end":
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"the replay worker exited with code {code} before its end")
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
