"""Live page fetching over real HTTP, legacy or speculative.

The legacy flow fetches the main resource, parses out subresources, and
fetches them over a bounded connection pool.  The speculative flow asks
the predictor first and has the pool working on predicted URLs while the
main resource is still in flight, then reconciles against what the HTML
really references.  Either way every response passes through the same
cache semantics as the simulators: fresh entries are served locally,
expired ones revalidate with a conditional request, and no-store
responses sit in the temporary cache until the page completes.

Proxies follow the usual environment variables (HTTP_PROXY and friends,
honored by requests); the User-Agent comes from SPECLOAD_UA when set.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin

import requests

from .cache import CacheStore, LookupOutcome, admit, lookup, page_complete
from .errors import MainResourceFailed, MalformedUrl
from .graph import MetadataRepository, update
from .headers import directives_from_mapping, kind_from_mime
from .predict import plan_loads, predict, revise_queue
from .trace import PageVisit, ResourceRecord
from .urls import normalize_url

MAX_REDIRECTS = 5
_TAG_KINDS = {"script": "script", "link": "stylesheet", "img": "image"}


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


def _fetch_one(
    session: FetchSession,
    url: str,
    kind_hint: str,
    t0: float,
    is_main: bool = False,
) -> tuple[ResourceLoad, ResourceRecord | None, tuple[str, bytes] | None]:
    """Fetch one URL through the cache: returns the report row, the
    observed record (None on error), and for main resources the page:
    the URL its body came from after any redirects, and the body."""
    rel = lambda: (time.perf_counter() - t0) * 1000.0
    t_start = rel()
    with session._cache_lock:
        now = time.time()
        outcome = lookup(session.cache, url, now)
        entry = session.cache.temp.get(url) or session.cache.entries.get(url)
    if outcome is LookupOutcome.FRESH_HIT and entry is not None:
        page = session._bodies.get(url) if is_main else None
        if not is_main or page is not None:
            record = ResourceRecord(
                url=url,
                kind=kind_hint,
                size_bytes=entry.size_bytes,
                cache_directives=entry.directives,
                fetched_at=now,
            )
            row = ResourceLoad(
                url=url, outcome="fresh", bytes=0, t_start_ms=t_start, t_end_ms=rel(),
                kind=kind_hint,
            )
            return row, record, page

    headers = {"User-Agent": session.user_agent}
    # A main resource without a kept body (say, first fetched as a
    # subresource), fresh or not, needs a full response to parse, so
    # it sends no validator: a 304 would leave nothing to parse.
    if (
        outcome is LookupOutcome.EXPIRED_REVALIDATE
        and entry is not None
        and entry.validator
        and (not is_main or url in session._bodies)
    ):
        headers["If-None-Match"] = entry.validator

    session._enter_network()
    try:
        with requests.Session() as http:
            http.max_redirects = MAX_REDIRECTS
            resp = http.get(
                url, headers=headers, timeout=session.timeout_s, allow_redirects=True
            )
    except requests.RequestException as exc:
        row = ResourceLoad(
            url=url, outcome="error", bytes=0, t_start_ms=t_start, t_end_ms=rel(),
            kind=kind_hint, error=type(exc).__name__,
        )
        return row, None, None
    finally:
        session._exit_network()

    redirects = len(resp.history)
    validator = resp.headers.get("ETag")
    if resp.status_code == 304 and entry is not None:
        directives = entry.directives
        record = ResourceRecord(
            url=url,
            kind=kind_hint,
            size_bytes=entry.size_bytes,
            cache_directives=directives,
            fetched_at=time.time(),
        )
        with session._cache_lock:
            admit(session.cache, record, time.time(), validator=validator or entry.validator)
        page = session._bodies.get(url) if is_main else None
        row = ResourceLoad(
            url=url, outcome="revalidated", bytes=0, t_start_ms=t_start, t_end_ms=rel(),
            kind=kind_hint, redirects=redirects,
        )
        return row, record, page

    body = resp.content or b""
    kind = kind_from_mime(resp.headers.get("Content-Type"))
    if kind == "other":
        kind = kind_hint
    record = ResourceRecord(
        url=url,
        kind=kind if not is_main else "html",
        size_bytes=len(body),
        cache_directives=directives_from_mapping(resp.headers),
        fetched_at=time.time(),
    )
    page = (resp.url, body) if is_main else None
    with session._cache_lock:
        admit(session.cache, record, time.time(), validator=validator)
        if is_main:
            session._bodies[url] = page
    row = ResourceLoad(
        url=url,
        outcome="fetched",
        bytes=len(body),
        t_start_ms=t_start,
        t_end_ms=rel(),
        kind=record.kind,
        redirects=redirects,
    )
    return row, record, page


def fetch_page(session: FetchSession, url: str, mode: str = "legacy") -> LoadReport:
    """Fetch one page and everything it needs; returns the load report.

    ``mode`` is "legacy" or "tempo".  Page delay is the end of the last
    required response (main resource plus actual subresources); requests
    for mispredicted URLs are joined afterwards and only show up in the
    byte accounting.  The cache and the resource graph see the observed
    visit exactly as the replay tooling would.
    """
    url = normalize_url(url)
    t0 = time.perf_counter()
    rows: dict[str, ResourceLoad] = {}
    records: dict[str, ResourceRecord] = {}
    prediction_urls: tuple[str, ...] = ()

    with ThreadPoolExecutor(max_workers=session.max_connections) as pool:
        speculative_futures = {}
        if mode == "tempo":
            prediction = predict(session.repo, url)
            prediction_urls = prediction.urls
            with session._cache_lock:
                plan = plan_loads(
                    prediction, session.cache, time.time(), session.max_connections
                )
            main_future = pool.submit(_fetch_one, session, url, "html", t0, True)
            for item in plan.immediate:
                if item.url == url:
                    continue
                speculative_futures[item.url] = pool.submit(
                    _fetch_one, session, item.url, "other", t0
                )
        else:
            plan = None
            main_future = pool.submit(_fetch_one, session, url, "html", t0, True)

        main_row, main_record, page = main_future.result()
        if main_row.outcome == "error" or main_record is None or page is None:
            raise MainResourceFailed(url, main_row.error or "no body")
        rows[url] = main_row
        records[url] = main_record

        # Relative references resolve against where the page ended up.
        final_url, body = page
        found = extract_subresources(body, base_url=final_url)
        found = [(u, k) for u, k in found if u != url]
        actual_urls = [u for u, _ in found]
        kinds = dict(found)

        pending = {}
        if mode == "tempo":
            revised = revise_queue(plan, actual_urls)
            for item in revised.waiting:
                if item.url in speculative_futures or item.url == url:
                    continue
                pending[item.url] = pool.submit(
                    _fetch_one, session, item.url, kinds.get(item.url, "other"), t0
                )
        else:
            for u, kind in found:
                pending[u] = pool.submit(_fetch_one, session, u, kind, t0)

        required = set(actual_urls)
        required_futures = [
            f
            for u, f in list(speculative_futures.items()) + list(pending.items())
            if u in required
        ]
        wait(required_futures)
        for u, future in {**speculative_futures, **pending}.items():
            if u in required:
                row, record, _ = future.result()
                rows[u] = row
                if record is not None:
                    records[u] = record

        delay_candidates = [main_row.t_end_ms] + [
            rows[u].t_end_ms for u in required if u in rows
        ]
        delay_ms = max(delay_candidates)

        # Mispredicted loads: let them finish, then account for them.
        for u, future in speculative_futures.items():
            if u in required:
                continue
            row, record, _ = future.result()
            if row.outcome in ("fetched", "revalidated"):
                row.outcome = "mispredicted"
            rows[u] = row

    overhead = sum(r.bytes for r in rows.values() if r.outcome == "mispredicted")

    with session._cache_lock:
        page_complete(session.cache)
        # A body is only read back for a hit on a cached entry.
        session._bodies = {
            u: b for u, b in session._bodies.items() if u in session.cache.entries
        }
    observed_subs = tuple(
        records[u] for u in actual_urls if records.get(u) is not None
    )
    visit = PageVisit(
        user_id="live",
        timestamp=time.time(),
        main=main_record,
        subresources=observed_subs,
    )
    update(session.repo, visit)

    ordered = [rows[url]] + [rows[u] for u in actual_urls if u in rows]
    ordered += [r for u, r in rows.items() if u != url and u not in required]
    return LoadReport(
        url=url,
        mode=mode,
        delay_ms=delay_ms,
        resources=ordered,
        overhead_bytes=overhead,
        predicted=prediction_urls,
    )
