"""Live page fetching over real HTTP, legacy or speculative.

``fetch_page`` drives the simulator's scheduler (``sim.PageScheduler``)
in real time, so a live page load and a simulated one make the same
loading decisions.  The main resource has a connection of its own, and
subresources share the other ``max_connections - 1``.  The legacy flow
loads subresources as parsing the main resource reveals them.  The
speculative (tempo) flow asks the predictor first and starts the planned
loads while the main resource is still in flight; a connection that
frees up goes to the next queued load at once.  When the HTML parses,
queued loads the page does not need are dropped, and the ones it needs
that nobody predicted join the queue; a load already in flight runs to
completion and is reported ``mispredicted`` if the page did not need it.

Each connection is one ``requests.Session``, opened when first needed
and reused for the rest of the page; every connection and worker thread
is closed before ``fetch_page`` returns.  A request is looked up in the
cache when it is issued, with the same semantics as the simulators: a
fresh entry is served locally and takes no connection, an expired one
revalidates with a conditional request, and no-store responses sit in
the temporary cache until the page completes.

Proxies follow the usual environment variables (HTTP_PROXY and friends,
honored by requests); the User-Agent comes from SPECLOAD_UA when set.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin

import requests

from .cache import CacheStore, LookupOutcome, admit, lookup, page_complete
from .errors import MainResourceFailed, MalformedUrl
from .graph import MetadataRepository, update
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
    redirects: int = 0
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
    """Shared state across page fetches: cache, graph, connection bound."""

    repo: MetadataRepository = field(default_factory=MetadataRepository)
    cache: CacheStore = field(default_factory=CacheStore)
    max_connections: int = 4
    timeout_s: float = 10.0
    user_agent: str = field(
        default_factory=lambda: os.environ.get("SPECLOAD_UA", "specload/0.1")
    )

    def __post_init__(self):
        _check_connections(self.max_connections)
        self._cache_lock = threading.RLock()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self.max_inflight_seen = 0
        # Page URL -> (the URL the body came from after redirects, body).
        self._bodies: dict[str, tuple[str, bytes]] = {}

    def _enter_network(self):
        with self._inflight_lock:
            self._inflight += 1
            self.max_inflight_seen = max(self.max_inflight_seen, self._inflight)

    def _exit_network(self):
        with self._inflight_lock:
            self._inflight -= 1


class _PageLoad(PageScheduler):
    """One page fetch: the scheduler's decisions on real connections.

    The calling thread issues every load and handles every completion;
    the pool's threads run ``_request``, each on a connection of its own.
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
        self.page: tuple[str, bytes] | None = None
        self.actual: list[str] = []
        self.predicted: tuple[str, ...] = ()
        self.inflight: dict[Future, tuple[_Job, requests.Session]] = {}
        self.idle: list[requests.Session] = []

    def _ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def run(self, mode: str) -> None:
        session, main = self.session, self.main
        self._issue(main)
        if mode == "tempo":
            prediction = predict(session.repo, main.url)
            self.predicted = prediction.urls
            with session._cache_lock:
                new = self.plan(prediction, session.cache, time.time())
            self.start(new)
        if main.done_ms is not None:
            self._parse()
        inflight = self.inflight
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in [f for f in inflight if f in done]:
                job, http = inflight.pop(future)
                self._done(job, *future.result())
                if job.is_main:
                    self._parse()
                else:
                    self.idle.append(http)
                    self.finish()

    def _issue(self, job: _Job) -> None:
        session, url, is_main = self.session, job.url, job.is_main
        kind = self.kinds.get(url, "other")
        t_start = self._ms()
        with session._cache_lock:
            now = time.time()
            outcome = lookup(session.cache, url, now)
            entry = session.cache.temp.get(url) or session.cache.entries.get(url)
            page = session._bodies.get(url) if is_main else None
        # A main resource without a kept body (say, first fetched as a
        # subresource), fresh or not, needs a full response to parse, so
        # it sends no validator: a 304 would leave nothing to parse.
        usable = entry is not None and (page is not None or not is_main)
        if outcome is LookupOutcome.FRESH_HIT and usable:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, now)
            self._done(job, ResourceLoad(url, "fresh", 0, t_start, self._ms(), kind), record, page)
            return
        revalidate = usable and outcome is LookupOutcome.EXPIRED_REVALIDATE
        validator = entry.validator if revalidate else None
        http = None
        if not is_main:
            self.free -= 1
            http = self.idle.pop() if self.idle else None
        if http is None:
            http = self.connections.enter_context(requests.Session())
            http.max_redirects = MAX_REDIRECTS
        request = (http, url, kind, t_start, is_main, entry, validator)
        self.inflight[self.pool.submit(self._request, *request)] = (job, http)

    def _request(self, http, url, kind, t_start, is_main, entry, validator):
        """Send one request on the connection ``http`` and take in the
        response: returns the report row, the observed record (None on
        error), and for a main resource the page: the URL its body came
        from after any redirects, and the body.  ``entry`` is the cache
        entry a 304 refreshes; ``validator`` makes the request
        conditional."""
        session = self.session
        headers = {"User-Agent": session.user_agent}
        if validator:
            headers["If-None-Match"] = validator
        session._enter_network()
        try:
            resp = http.get(url, headers=headers, timeout=session.timeout_s)
        except requests.RequestException as exc:
            error = type(exc).__name__
            row = ResourceLoad(url, "error", 0, t_start, self._ms(), kind, error=error)
            return row, None, None
        finally:
            session._exit_network()
        redirects = len(resp.history)
        etag = resp.headers.get("ETag")
        if resp.status_code == 304 and entry is not None:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, time.time())
            with session._cache_lock:
                admit(session.cache, record, time.time(), validator=etag or entry.validator)
            page = session._bodies.get(url) if is_main else None
            row = ResourceLoad(url, "revalidated", 0, t_start, self._ms(), kind, redirects)
            return row, record, page

        body = resp.content or b""
        mime_kind = kind_from_mime(resp.headers.get("Content-Type"))
        if not is_main and mime_kind != "other":
            kind = mime_kind
        directives = directives_from_mapping(resp.headers)
        record = ResourceRecord(url, kind, len(body), directives, time.time())
        page = (resp.url, body) if is_main else None
        with session._cache_lock:
            admit(session.cache, record, time.time(), validator=etag)
            if is_main:
                session._bodies[url] = page
        row = ResourceLoad(url, "fetched", len(body), t_start, self._ms(), kind, redirects)
        return row, record, page

    def _done(self, job: _Job, row: ResourceLoad, record, page) -> None:
        job.done_ms = row.t_end_ms
        job.record = record
        self.rows[job.url] = row
        if job.is_main:
            if row.outcome == "error" or record is None or page is None:
                raise MainResourceFailed(job.url, row.error or "no body")
            self.page = page

    def _parse(self) -> None:
        # Relative references resolve against where the page ended up.
        final_url, body = self.page
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
    only show up in the byte accounting.  The cache and the resource
    graph see the observed visit exactly as the replay tooling would.
    """
    url = normalize_url(url)
    load = _PageLoad(session, url)
    with load.connections, load.pool:
        load.run(mode)

    rows, jobs = load.rows, load.jobs
    wasted = [rows[u] for u, job in jobs.items() if not job.required and u in rows]
    for row in wasted:
        if row.outcome in ("fetched", "revalidated"):
            row.outcome = "mispredicted"
    overhead = sum(r.bytes for r in wasted if r.outcome == "mispredicted")

    with session._cache_lock:
        page_complete(session.cache)
        # A body is only read back for a hit on a cached entry.
        session._bodies = {u: b for u, b in session._bodies.items() if u in session.cache.entries}
    observed = tuple(jobs[u].record for u in load.actual if jobs[u].record is not None)
    update(session.repo, PageVisit("live", time.time(), load.main.record, observed))

    return LoadReport(
        url=url,
        mode=mode,
        delay_ms=load.delay_ms(),
        resources=[rows[url], *(rows[u] for u in load.actual), *wasted],
        overhead_bytes=overhead,
        predicted=load.predicted,
    )
