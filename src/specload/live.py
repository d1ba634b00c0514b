"""Live page fetching over real HTTP, legacy or speculative.

``fetch_page`` drives the simulator's scheduler (``sim.PageScheduler``)
in real time and only issues its loads, so a live page load and a
simulated one make the same decisions.  The main resource has a
connection of its own, and subresources share the other
``max_connections - 1``.  The legacy flow loads subresources as parsing
the main resource reveals them.  The speculative (tempo) flow asks the
predictor first and starts the planned loads while the main resource is
still in flight; a connection that frees up goes to the next queued load
at once.  When the HTML parses, queued loads the page does not need are
dropped, and the ones it needs that nobody predicted join the queue; a
load already in flight runs to completion and is reported ``mispredicted``
if the page did not need it (its bytes are ``overhead_bytes``).

Each connection is one ``requests.Session``, opened when first needed
and reused for the rest of the page; every connection and worker thread
is closed before ``fetch_page`` returns.  The pool's threads only send
requests and touch no session state; the calling thread owns the
session's cache, kept bodies, repository and ``max_inflight_seen``.  It
takes in every response, and looks every request up in the cache as
the simulators do: a fresh entry is served locally, an expired one
revalidates, and no-store responses sit in the temporary cache until
the page completes.  The page is then learned into the session's
``graph.MetadataRepository`` with ``learn``, as in the replays.

Proxies follow the usual environment variables (HTTP_PROXY and friends,
honored by requests); the User-Agent comes from SPECLOAD_UA when set.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin

import requests

from .cache import CacheStore, LookupOutcome, admit, lookup, page_complete
from .errors import InvalidParams, MainResourceFailed, MalformedUrl
from .graph import MetadataRepository
from .headers import directives_from_mapping, kind_from_mime
from .predict import predict
from .sim import PageScheduler, _check_connections, _Job
from .trace import PageVisit, ResourceRecord
from .urls import normalize_url

MAX_REDIRECTS = 5


class _SubresourceParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.found: list[tuple[str, str]] = []  # (raw url, kind)
        self.base_href: str | None = None

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "base" and self.base_href is None and attrs.get("href"):
            self.base_href = attrs["href"]
        elif tag == "script" and attrs.get("src"):
            self.found.append((attrs["src"], "script"))
        elif tag == "link" and attrs.get("href"):
            rels = (attrs.get("rel") or "").lower().split()
            if "stylesheet" in rels:
                self.found.append((attrs["href"], "stylesheet"))
        elif tag == "img" and attrs.get("src"):
            self.found.append((attrs["src"], "image"))


def extract_subresources(html: str | bytes, base_url: str) -> list[tuple[str, str]]:
    """(url, kind) pairs in document order, deduplicated keep-first.

    Covers script src, stylesheet links, and img src.  URLs resolve
    against a base element when the document has one, else ``base_url``.
    No scripts run; what the HTML says is what we get.  Unresolvable
    references (data: URIs and such) are skipped.
    """
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    parser = _SubresourceParser()
    parser.feed(html)
    parser.close()
    base = parser.base_href or base_url
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for raw, kind in parser.found:
        try:
            url = normalize_url(urljoin(base, raw.strip()))
        except MalformedUrl:
            continue
        if url not in seen:
            seen.add(url)
            out.append((url, kind))
    return out


@dataclass
class ResourceLoad:
    url: str
    outcome: str  # fresh | revalidated | fetched | mispredicted | error
    bytes: int
    t_start_ms: float
    t_end_ms: float
    kind: str = "other"
    error: str | None = None


@dataclass
class LoadReport:
    url: str
    mode: str
    delay_ms: float
    resources: list[ResourceLoad]
    overhead_bytes: int
    predicted: tuple[str, ...] = ()

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.resources)


@dataclass
class FetchSession:
    """One client across page fetches: cache, repository, connection bound.

    Used by one thread at a time, which owns the cache, the kept bodies
    and the repository; each page is learned with ``repo.learn``.
    ``max_inflight_seen`` is the most requests ever on connections and
    not yet taken in by that thread.
    """

    repo: MetadataRepository = field(default_factory=MetadataRepository)
    cache: CacheStore = field(default_factory=CacheStore)
    max_connections: int = 4
    timeout_s: float = 10.0
    user_agent: str = field(default_factory=lambda: os.environ.get("SPECLOAD_UA", "specload/0.1"))

    def __post_init__(self):
        _check_connections(self.max_connections)
        self.max_inflight_seen = 0
        # Page URL -> (the URL the body came from after redirects, body).
        self._bodies: dict[str, tuple[str, bytes]] = {}


def _close_pools(http: requests.Session) -> None:
    """Close every connection pool of ``http`` and its sockets.
    ``Session.close`` only drops the pools, which leaves their sockets to
    the garbage collector."""
    for adapter in http.adapters.values():
        for manager in (adapter.poolmanager, *adapter.proxy_manager.values()):
            for key in manager.pools.keys():
                manager.pools[key].close()


def _request(http: requests.Session, url: str, headers: dict, timeout_s: float, t0: float):
    """Send one request on ``http``; a pool thread runs this and holds
    nothing else.  Returns the response as its status, headers, body and
    final URL (a ``requests.Response`` would hold its connection open), or
    the ``requests`` exception's class name; and the end time in ms after
    ``t0``."""
    try:
        resp = http.get(url, headers=headers, timeout=timeout_s)
    except requests.RequestException as exc:
        response = type(exc).__name__
    else:
        response = (resp.status_code, resp.headers, resp.content or b"", resp.url)
    return response, (time.perf_counter() - t0) * 1000.0


class _PageLoad(PageScheduler):
    """One page fetch: the scheduler's decisions on real connections.

    The calling thread issues every load and takes in every response;
    the pool's threads run ``_request``, each on a connection of its own,
    and hold no reference to the page load or the session.
    """

    def __init__(self, session: FetchSession, url: str):
        super().__init__(url, session.max_connections)
        self.session = session
        # Entered by ``fetch_page``: the pool joins its threads before
        # the connections close.
        self.connections = ExitStack()
        self.pool = ThreadPoolExecutor(session.max_connections)
        self.t0 = time.perf_counter()
        self.kinds = {url: "html"}
        self.rows: dict[str, ResourceLoad] = {}
        self.actual: list[str] = []
        self.predicted: tuple[str, ...] = ()
        # Future -> (job, connection, kind, start ms, cache entry).
        self.inflight: dict[Future, tuple] = {}
        self.idle: list[requests.Session] = []

    def _ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def run(self, mode: str) -> None:
        session, main = self.session, self.main
        self._issue(main)
        if mode == "tempo":
            prediction = predict(session.repo, main.url)
            self.predicted = prediction.urls
            self.start(self.plan(prediction, session.cache, time.time()))
        if main.done_ms is not None:
            self._parse()
        inflight = self.inflight
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in [f for f in inflight if f in done]:
                job, http, *request = inflight.pop(future)
                self._received(job, *request, *future.result())
                if job.is_main:
                    self._parse()
                else:
                    self.idle.append(http)
                    self.finish()

    def _issue(self, job: _Job) -> bool:
        session, url, is_main = self.session, job.url, job.is_main
        kind = self.kinds.get(url, "other")
        t_start = self._ms()
        now = time.time()
        outcome = lookup(session.cache, url, now)
        entry = session.cache.temp.get(url) or session.cache.entries.get(url)
        # A main resource without a kept body (say, first fetched as a
        # subresource), fresh or not, needs a full response to parse, so
        # it sends no validator: a 304 would leave nothing to parse.
        usable = entry is not None and (url in session._bodies or not is_main)
        if outcome is LookupOutcome.FRESH_HIT and usable:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, now)
            self._done(job, ResourceLoad(url, "fresh", 0, t_start, self._ms(), kind), record)
            return False
        revalidate = usable and outcome is LookupOutcome.EXPIRED_REVALIDATE
        headers = {"User-Agent": session.user_agent}
        if revalidate and entry.validator:
            headers["If-None-Match"] = entry.validator
        http = self.idle.pop() if self.idle and not is_main else None
        if http is None:
            http = self.connections.enter_context(requests.Session())
            http.max_redirects = MAX_REDIRECTS
            self.connections.callback(_close_pools, http)
        future = self.pool.submit(_request, http, url, headers, session.timeout_s, self.t0)
        self.inflight[future] = (job, http, kind, t_start, entry)
        session.max_inflight_seen = max(session.max_inflight_seen, len(self.inflight))
        return True

    def _received(self, job: _Job, kind: str, t_start: float, entry, response, t_end: float):
        """Take in the response to ``job``'s request: the record, its cache
        admit, the main resource's kept body and the report row.  ``entry``
        is the cache entry a 304 refreshes."""
        session, url, is_main = self.session, job.url, job.is_main
        if isinstance(response, str):
            row = ResourceLoad(url, "error", 0, t_start, t_end, kind, error=response)
            return self._done(job, row, None)
        status, headers, body, final_url = response
        now, etag = time.time(), headers.get("ETag")
        if status == 304 and entry is not None:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, now)
            admit(session.cache, record, now, validator=etag or entry.validator)
            row = ResourceLoad(url, "revalidated", 0, t_start, t_end, kind)
            return self._done(job, row, record)
        mime_kind = kind_from_mime(headers.get("Content-Type"))
        if not is_main and mime_kind != "other":
            kind = mime_kind
        record = ResourceRecord(url, kind, len(body), directives_from_mapping(headers), now)
        admit(session.cache, record, now, validator=etag)
        if is_main:
            session._bodies[url] = (final_url, body)
        row = ResourceLoad(url, "fetched", len(body), t_start, t_end, kind)
        self._done(job, row, record)

    def _done(self, job: _Job, row: ResourceLoad, record) -> None:
        job.done_ms = row.t_end_ms
        job.record = record
        job.body_bytes = row.bytes
        self.rows[job.url] = row
        if job.is_main and (record is None or job.url not in self.session._bodies):
            raise MainResourceFailed(job.url, row.error or "no body")

    def _parse(self) -> None:
        # Relative references resolve against where the page ended up.
        final_url, body = self.session._bodies[self.main.url]
        main_url = self.main.url
        found = [(u, k) for u, k in extract_subresources(body, final_url) if u != main_url]
        self.kinds.update(found)
        self.actual = [u for u, _ in found]
        self.start(job for job in self.parse(self.actual) if job is not None)


def fetch_page(session: FetchSession, url: str, mode: str = "legacy") -> LoadReport:
    """Fetch one page and everything it needs; returns the load report.

    ``mode`` is "legacy" or "tempo".  Page delay is the end of the last
    required response (main resource plus actual subresources); loads of
    mispredicted URLs still in flight at the parse are waited for and
    only show up in the byte accounting.  The cache and the session's
    repository see the observed visit exactly as the replay tooling would.
    """
    if mode not in ("legacy", "tempo"):
        raise InvalidParams(f"unknown mode {mode!r}: expected 'legacy' or 'tempo'")
    url = normalize_url(url)
    load = _PageLoad(session, url)
    with load.connections, load.pool:
        load.run(mode)

    rows, jobs = load.rows, load.jobs
    wasted = [rows[u] for u, job in jobs.items() if not job.required and u in rows]
    for row in wasted:
        if row.outcome in ("fetched", "revalidated"):
            row.outcome = "mispredicted"

    page_complete(session.cache)
    # A body is only read back for a hit on a cached entry.
    session._bodies = {u: b for u, b in session._bodies.items() if u in session.cache.entries}
    observed = tuple(jobs[u].record for u in load.actual if jobs[u].record is not None)
    session.repo.learn(PageVisit("live", time.time(), load.main.record, observed))

    return LoadReport(
        url=url,
        mode=mode,
        delay_ms=load.delay_ms(),
        resources=[rows[url], *(rows[u] for u in load.actual), *wasted],
        overhead_bytes=load.overhead_bytes,
        predicted=load.predicted,
    )
