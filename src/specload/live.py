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

A session sends every request through one keep-alive ``urllib3`` pool
per host, ``max_connections`` deep, so a session's connections persist
across pages until ``close()`` (or until a session dropped unclosed is
collected).  The worker threads are the page's own and have ended when
``fetch_page`` returns.  They only send requests and touch no session
state; the calling thread owns the session's cache, repository and
``max_inflight_seen``.  It takes in every response, and looks every
request up in the cache as the simulators do: a fresh entry is served
locally, an expired one revalidates, and no-store responses sit in the
temporary cache until the page completes.  A page's body is kept in its
cache entry; a page whose entry has none is fetched whole.  The page is
then learned into the session's ``graph.MetadataRepository`` with
``learn``, as in the replays.

Proxies follow the usual environment variables (HTTP_PROXY, HTTPS_PROXY,
ALL_PROXY and NO_PROXY), read when the session is made; the User-Agent
comes from SPECLOAD_UA when set.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit
from urllib.request import getproxies, proxy_bypass_environment

import urllib3
from urllib3.exceptions import HTTPError, ProtocolError, ProxySchemeUnknown

from .cache import CacheStore, LookupOutcome
from .errors import InvalidParams, MainResourceFailed, MalformedUrl
from .graph import MetadataRepository
from .headers import directives_from_mapping, kind_from_mime
from .predict import predict
from .sim import PageScheduler, _check_connections, _Job
from .trace import PageVisit, ResourceRecord
from .urls import normalize_url

MAX_REDIRECTS = 5
_REDIRECTS = (301, 302, 303, 307, 308)
_ACCEPT_ENCODING = urllib3.util.make_headers(accept_encoding=True)["accept-encoding"]


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
    """One client across page fetches: cache, repository, connections.

    Used by one thread at a time, which owns the cache (page bodies too)
    and the repository; each page is learned with ``repo.learn``.
    ``max_inflight_seen`` is the most requests ever on connections and
    not yet taken in by that thread.  The connections stay open across
    pages: ``close()`` them, or use the session as a context manager.
    """

    repo: MetadataRepository = field(default_factory=MetadataRepository)
    cache: CacheStore = field(default_factory=CacheStore)
    max_connections: int = 4
    timeout_s: float = 10.0
    user_agent: str = field(default_factory=lambda: os.environ.get("SPECLOAD_UA", "specload/0.1"))

    def __post_init__(self):
        _check_connections(self.max_connections)
        self.max_inflight_seen = 0
        self._http = _Connections(self.max_connections)
        # Closes the sockets of a session dropped unclosed, too.
        self._close = weakref.finalize(self, self._http.close)

    def close(self) -> None:
        """Close every connection; the session fetches no more pages."""
        self._close()

    def __enter__(self) -> "FetchSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Connections:
    """A session's keep-alive pools: one manager for direct requests and
    one per proxy URL that the environment named when the session was
    made.  Each pool holds up to the session's ``max_connections``, which
    the page's scheduler never exceeds in flight, so no connection is
    ever discarded.  Thread-safe, and all a worker thread holds."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.proxies = getproxies()
        self.direct = urllib3.PoolManager(maxsize=maxsize)
        self.proxied: dict[str, urllib3.ProxyManager] = {}  # scheme -> manager
        by_url: dict[str, urllib3.ProxyManager] = {}
        for scheme in ("http", "https"):
            proxy = self.proxies.get(scheme) or self.proxies.get("all")
            if not proxy:
                continue
            if "://" not in proxy:
                proxy = "http://" + proxy
            if proxy not in by_url:
                try:
                    by_url[proxy] = urllib3.ProxyManager(proxy, maxsize=maxsize)
                except ProxySchemeUnknown as exc:
                    raise InvalidParams(f"unsupported {scheme} proxy {proxy!r}") from exc
            self.proxied[scheme] = by_url[proxy]

    def get(self, url: str, headers: dict, timeout_s: float) -> urllib3.BaseHTTPResponse:
        """One GET of ``url``, redirects not followed, through the proxy
        for its scheme unless the environment exempts its host."""
        manager = self.direct
        if self.proxied:
            scheme, netloc = urlsplit(url)[:2]
            if scheme in self.proxied and not proxy_bypass_environment(netloc, self.proxies):
                manager = self.proxied[scheme]
        return manager.request(
            "GET", url, headers=headers, timeout=timeout_s, retries=False, redirect=False
        )

    def close(self) -> None:
        """Close every pool and its sockets (``PoolManager.clear`` only
        drops the pools, which leaves their sockets to the collector)."""
        for manager in (self.direct, *self.proxied.values()):
            for key in manager.pools.keys():
                manager.pools[key].close()
            manager.clear()


def _request(http: _Connections, url: str, headers: dict, timeout_s: float, t0: float):
    """Send one request through ``http``, following up to
    ``MAX_REDIRECTS`` redirects; a pool thread runs this and holds nothing
    else.  Returns the response as its status, headers, body and final
    URL, or the class name of the error that ended it; and the end time in
    ms after ``t0``."""
    try:
        for _ in range(MAX_REDIRECTS + 1):
            try:
                resp = http.get(url, headers, timeout_s)
            except ProtocolError:
                # The server hung up without an answer, as on a kept-alive
                # connection it had just closed: once more.
                resp = http.get(url, headers, timeout_s)
            location = resp.headers.get("Location")
            if resp.status not in _REDIRECTS or not location:
                response = (resp.status, resp.headers, resp.data, url)
                break
            url = urljoin(url, location)
        else:
            response = "TooManyRedirects"
    except HTTPError as exc:
        response = type(exc).__name__
    return response, (time.perf_counter() - t0) * 1000.0


class _PageLoad(PageScheduler):
    """One page fetch: the scheduler's decisions on real connections.

    The calling thread issues every load and takes in every response;
    the pool's threads run ``_request`` on the session's connections,
    and hold no reference to the page load or the session.
    """

    def __init__(self, session: FetchSession, url: str):
        super().__init__(url, session.max_connections)
        self.session = session
        self.pool = ThreadPoolExecutor(session.max_connections)
        self.t0 = time.perf_counter()
        self.kinds = {url: "html"}
        self.rows: dict[str, ResourceLoad] = {}
        self.actual: list[str] = []
        self.predicted: tuple[str, ...] = ()
        # This page's (final URL after redirects, body), once in hand.
        self.body: tuple[str, bytes] | None = None
        # Future -> (job, kind, start ms, cache entry).
        self.inflight: dict[Future, tuple] = {}

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
                job, *request = inflight.pop(future)
                self._received(job, *request, *future.result())
                if job.is_main:
                    self._parse()
                else:
                    self.finish()

    def _issue(self, job: _Job) -> bool:
        session, url, is_main = self.session, job.url, job.is_main
        kind = self.kinds.get(url, "other")
        t_start = self._ms()
        now = time.time()
        outcome = session.cache.lookup(url, now)
        entry = session.cache.entry(url)
        # A main resource whose entry has no body, fresh or not, needs a
        # full response, so it sends no validator: a 304 has nothing to parse.
        usable = entry is not None and (entry.body is not None or not is_main)
        if is_main and usable:
            self.body = entry.body  # for a fresh hit or a 304; a 200 replaces it
        if outcome is LookupOutcome.FRESH_HIT and usable:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, now)
            self._done(job, ResourceLoad(url, "fresh", 0, t_start, self._ms(), kind), record)
            return False
        revalidate = usable and outcome is LookupOutcome.EXPIRED_REVALIDATE
        headers = {"User-Agent": session.user_agent, "Accept-Encoding": _ACCEPT_ENCODING}
        if revalidate and entry.validator:
            headers["If-None-Match"] = entry.validator
        future = self.pool.submit(
            _request, session._http, url, headers, session.timeout_s, self.t0
        )
        self.inflight[future] = (job, kind, t_start, entry)
        session.max_inflight_seen = max(session.max_inflight_seen, len(self.inflight))
        return True

    def _received(self, job: _Job, kind: str, t_start: float, entry, response, t_end: float):
        """Take in the response to ``job``'s request: the record, its cache
        admit (with the main resource's body) and the report row.  ``entry``
        is the cache entry a 304 refreshes, body and all."""
        cache, url, is_main = self.session.cache, job.url, job.is_main
        if isinstance(response, str):
            row = ResourceLoad(url, "error", 0, t_start, t_end, kind, error=response)
            return self._done(job, row, None)
        status, headers, body, final_url = response
        now, etag = time.time(), headers.get("ETag")
        if status == 304 and entry is not None:
            record = ResourceRecord(url, kind, entry.size_bytes, entry.directives, now)
            cache.admit(record, now, etag or entry.validator, entry.body)
            row = ResourceLoad(url, "revalidated", 0, t_start, t_end, kind)
            return self._done(job, row, record)
        mime_kind = kind_from_mime(headers.get("Content-Type"))
        if not is_main and mime_kind != "other":
            kind = mime_kind
        record = ResourceRecord(url, kind, len(body), directives_from_mapping(headers), now)
        if is_main:
            self.body = (final_url, body)
        cache.admit(record, now, etag, self.body if is_main else None)
        row = ResourceLoad(url, "fetched", len(body), t_start, t_end, kind)
        self._done(job, row, record)

    def _done(self, job: _Job, row: ResourceLoad, record) -> None:
        job.done_ms = row.t_end_ms
        job.record = record
        job.body_bytes = row.bytes
        self.rows[job.url] = row
        if job.is_main and (record is None or self.body is None):
            raise MainResourceFailed(job.url, row.error or "no body")

    def _parse(self) -> None:
        # Relative references resolve against where the page ended up.
        final_url, body = self.body
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
    if not session._close.alive:
        raise InvalidParams("the session is closed")
    if session.max_connections > session._http.maxsize:
        # Its pools would have to discard connections.
        raise InvalidParams("max_connections may not grow once the session is made")
    url = normalize_url(url)
    load = _PageLoad(session, url)
    with load.pool:
        load.run(mode)

    rows, jobs = load.rows, load.jobs
    for u in load.actual:
        # A load issued before the parse (a predicted one) took the kind
        # "other"; unless its response told a kind, the page's applies.
        if rows[u].kind == "other":
            rows[u].kind = kind = load.kinds[u]
            if jobs[u].record is not None:
                jobs[u].record = replace(jobs[u].record, kind=kind)
    wasted = [rows[u] for u, job in jobs.items() if not job.required and u in rows]
    for row in wasted:
        if row.outcome in ("fetched", "revalidated"):
            row.outcome = "mispredicted"

    session.cache.page_complete()
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
