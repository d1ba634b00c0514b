from __future__ import annotations

import gc
import http.client
import logging
import os
import socket
import sys
import textwrap
import threading
import time
import weakref
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
import requests
import urllib3

import specload.cache as cache_module
from specload import live, sim
from specload.cache import CacheStore, LookupOutcome
from specload.errors import InvalidParams, MainResourceFailed
from specload.fixture import fixture_server
from specload.graph import MetadataRepository
from specload.live import FetchSession, extract_subresources, fetch_page
from specload.predict import Prediction, VisitClass, predict
from specload.sim import NetworkParams, _Engine, simulate_trace
from specload.trace import PageVisit, ResourceRecord, Trace

from conftest import DEV_FIXTURE, fixture_process, request_counts, run_dev

# --- HTML subresource extraction ---------------------------------------


def test_extract_basic_kinds_resolution_and_dedupe():
    html = """
    <html><head>
    <script src="/app.js"></script>
    <link rel="STYLESHEET" href="theme.css">
    <link rel="preload" href="font.woff2">
    <img src="http://cdn.example/logo.png">
    <script src="/app.js"></script>
    <img src="data:image/png;base64,AAAA">
    </head></html>
    """
    got = extract_subresources(html, "http://site.example/dir/page.html")
    assert got == [
        ("http://site.example/app.js", "script"),
        ("http://site.example/dir/theme.css", "stylesheet"),
        ("http://cdn.example/logo.png", "image"),
    ]


def test_extract_honors_base_element_and_bytes_input():
    html = b'<base href="http://other.example/assets/"><img src=pic.png>'
    assert extract_subresources(html, "http://site.example/") == [
        ("http://other.example/assets/pic.png", "image")
    ]


def test_extract_multi_token_rel():
    html = '<link rel="preload stylesheet" href="/x.css">'
    assert extract_subresources(html, "http://s.example/") == [
        ("http://s.example/x.css", "stylesheet")
    ]


# --- live fetching against the fixture ---------------------------------

CACHING_SPEC = {
    "delay_ms": 0,
    "pages": {"/index.html": {"subresources": ["/a.js", "/b.css", "/c.png"]}},
    "resources": {
        "/a.js": {"size": 2000, "headers": {"Cache-Control": "max-age=300"}},
        "/b.css": {"size": 1500, "headers": {"Cache-Control": "max-age=0"}},
        "/c.png": {"size": 800, "headers": {"Cache-Control": "no-store"}},
    },
}


def test_legacy_fetch_learns_and_caches():
    with fixture_server(CACHING_SPEC) as srv:
        session = FetchSession()
        page_url = srv.url("/index.html")

        first = fetch_page(session, page_url, mode="legacy")
        assert first.mode == "legacy" and first.predicted == ()
        by_url = {r.url: r for r in first.resources}
        assert all(r.outcome == "fetched" for r in first.resources)
        assert by_url[srv.url("/a.js")].bytes == 2000
        assert by_url[srv.url("/a.js")].kind == "script"
        assert by_url[srv.url("/b.css")].kind == "stylesheet"
        assert by_url[srv.url("/c.png")].kind == "image"
        assert first.resources[0].kind == "html"
        assert first.delay_ms >= max(r.t_end_ms for r in first.resources) - 1e-6

        # the graph saw the visit
        pred = predict(session.repo, page_url)
        assert pred.visit_class is VisitClass.REVISIT
        assert set(pred.urls) == {srv.url("/a.js"), srv.url("/b.css"), srv.url("/c.png")}

        second = fetch_page(session, page_url, mode="legacy")
        by_url = {r.url: r for r in second.resources}
        assert by_url[page_url].outcome == "revalidated"  # 304 on the main
        assert by_url[srv.url("/a.js")].outcome == "fresh"
        assert by_url[srv.url("/b.css")].outcome == "revalidated"
        assert by_url[srv.url("/c.png")].outcome == "fetched"  # no-store
        assert second.total_bytes == 800
        counts = request_counts(srv)
        assert counts["/a.js"] == 1  # fresh hit never left the client
        assert counts["/b.css"] == 2
        assert counts["/c.png"] == 2


def test_subresources_keep_their_kind_in_both_modes():
    # A predicted load is issued before the parse, so when its response
    # does not tell the kind (a 304, or an untyped body) only the parse can.
    spec = {
        "delay_ms": 0,
        "pages": {"/index.html": {"subresources": ["/app.js", "/style.css", "/logo.png"]}},
        "resources": {
            "/app.js": {"size": 2048},
            "/style.css": {"size": 512, "headers": {"Cache-Control": "max-age=300"}},
            "/logo.png": {
                "size": 100,
                "content_type": "application/octet-stream",
                "headers": {"Cache-Control": "no-store"},
            },
        },
    }
    learned = []

    class Recording(MetadataRepository):
        def learn(self, visit):
            learned.append(visit)
            super().learn(visit)

    with fixture_server(spec) as srv, FetchSession(repo=Recording()) as session:
        page_url = srv.url("/index.html")
        reports = [fetch_page(session, page_url, mode) for mode in ("legacy", "tempo", "tempo")]
        base = srv.url("")
    paths = ["/app.js", "/style.css", "/logo.png"]
    kinds = {base + p: k for p, k in zip(paths, ["script", "stylesheet", "image"])}
    outcomes = {base + p: o for p, o in zip(paths, ["revalidated", "fresh", "fetched"])}
    assert set(reports[1].predicted) == set(kinds)
    for report, visit in zip(reports, learned, strict=True):
        assert {r.url: r.kind for r in report.resources[1:]} == kinds
        assert {r.url: r.kind for r in visit.subresources} == kinds
    for report in reports[1:]:
        assert {r.url: r.outcome for r in report.resources[1:]} == outcomes


def test_tempo_overlaps_subresources_with_main():
    spec = {
        "delay_ms": 60,
        "pages": {"/p.html": {"subresources": ["/a.js", "/b.js"]}},
        "resources": {"/a.js": {"size": 1000}, "/b.js": {"size": 1000}},
    }
    with fixture_server(spec) as srv:
        learner = FetchSession()
        page_url = srv.url("/p.html")
        fetch_page(learner, page_url, mode="legacy")

        warm = FetchSession(repo=learner.repo)  # knows the graph, cold cache
        report = fetch_page(warm, page_url, mode="tempo")
        assert set(report.predicted) == {srv.url("/a.js"), srv.url("/b.js")}
        by_url = {r.url: r for r in report.resources}
        main_end = by_url[page_url].t_end_ms
        sub_starts = [by_url[u].t_start_ms for u in report.predicted]
        # speculative loads started while the main resource was in flight
        assert min(sub_starts) < main_end
        assert report.overhead_bytes == 0


def test_tempo_accounts_mispredicted_bytes():
    spec = {
        "delay_ms": 0,
        "pages": {"/p.html": {"subresources": ["/a.js", "/b.js"]}},
        "resources": {
            "/a.js": {"size": 1000},
            "/b.js": {"size": 3000},
            "/c.js": {"size": 500},
        },
    }
    with fixture_server(spec) as srv:
        learner = FetchSession()
        page_url = srv.url("/p.html")
        fetch_page(learner, page_url, mode="legacy")

        requests.post(
            srv.url("/__mutate"),
            json={"pages": {"/p.html": {"subresources": ["/a.js", "/c.js"]}}},
        )
        warm = FetchSession(repo=learner.repo)
        report = fetch_page(warm, page_url, mode="tempo")

        by_url = {r.url: r for r in report.resources}
        assert by_url[srv.url("/b.js")].outcome == "mispredicted"
        assert by_url[srv.url("/a.js")].outcome == "fetched"
        assert by_url[srv.url("/c.js")].outcome == "fetched"
        mispredicted = [r for r in report.resources if r.outcome == "mispredicted"]
        assert report.overhead_bytes == sum(r.bytes for r in mispredicted) == 3000


@pytest.mark.parametrize("trim_days, kept", [(1, False), (None, True)])
def test_session_history_window_forgets_what_the_page_dropped(monkeypatch, trim_days, kept):
    # The page drops /old.js, and the session's next visits come two days
    # later by its clock: a one-day window no longer predicts /old.js, an
    # unbounded history still does.
    clock = [time.time()]
    monkeypatch.setattr(
        live, "time", SimpleNamespace(time=lambda: clock[0], perf_counter=time.perf_counter)
    )
    spec = {
        "delay_ms": 0,
        "pages": {"/p.html": {"subresources": ["/keep.js", "/old.js"]}},
        "resources": {"/keep.js": {"size": 100}, "/old.js": {"size": 100}},
    }
    with fixture_server(spec) as srv:
        session = FetchSession(repo=MetadataRepository(trim_days))
        page_url = srv.url("/p.html")
        fetch_page(session, page_url, mode="legacy")
        requests.post(
            srv.url("/__mutate"), json={"pages": {"/p.html": {"subresources": ["/keep.js"]}}}
        )
        clock[0] += 2 * 86400
        fetch_page(session, page_url, mode="legacy")
        report = fetch_page(session, page_url, mode="tempo")
    assert srv.url("/keep.js") in report.predicted
    assert (srv.url("/old.js") in report.predicted) is kept


def test_connection_bound_is_respected(caplog):
    caplog.set_level(logging.WARNING, logger="urllib3")
    subs = [f"/r{i}.js" for i in range(10)]
    spec = {
        "delay_ms": 20,
        "pages": {"/p.html": {"subresources": subs}},
        "resources": {s: {"size": 500} for s in subs},
    }
    for connections in (3, 6):
        # More connections than cores, and threads switched often, so that
        # responses come in to the calling thread in varied orders and
        # batches, and the workers share the session's pool under stress.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fixture_server(spec) as srv:
                session = FetchSession(max_connections=connections)
                report = fetch_page(session, srv.url("/p.html"), mode="legacy")
        finally:
            sys.setswitchinterval(interval)
        assert [r.outcome for r in report.resources] == ["fetched"] * 11
        # The main resource's connection stays its own once it is done.
        assert session.max_inflight_seen == connections - 1
        assert {srv.url(s) for s in subs} <= set(session.cache.entries)
    # No connection pool was ever full ("discarding connection").
    assert caplog.records == []


def test_session_keeps_bodies_only_for_cached_pages():
    # Each page with its script is about 1.1 kB; the cache holds two.
    cached = {"Cache-Control": "max-age=300"}
    spec = {
        "delay_ms": 0,
        "pages": {
            f"/p{i}.html": {"subresources": [f"/r{i}.js"], "headers": cached}
            for i in range(10)
        },
        "resources": {f"/r{i}.js": {"size": 1000, "headers": cached} for i in range(10)},
    }
    with fixture_server(spec) as srv:
        session = FetchSession(cache=CacheStore(capacity_bytes=2500))
        pages = {srv.url(f"/p{i}.html") for i in range(10)}
        for i in range(10):
            fetch_page(session, srv.url(f"/p{i}.html"), mode="legacy")
            # Bodies live in the pages' cache entries and leave with them.
            kept = {u for u, entry in session.cache.entries.items() if entry.body is not None}
            assert srv.url(f"/p{i}.html") in kept
            assert kept <= pages
        assert len(session.cache.entries) < 10
        # A page that is still cached is served fresh from its kept body.
        last = fetch_page(session, srv.url("/p9.html"), mode="legacy")
        assert last.resources[0].outcome == "fresh"


@pytest.mark.parametrize("cache_control", ["max-age=300", "max-age=0"])
def test_page_first_seen_as_subresource_is_fetched_whole(cache_control):
    # /x.js is cached from the first page but has no kept body, so as a
    # page of its own it must be fetched, not revalidated into a 304.
    spec = {
        "delay_ms": 0,
        "pages": {"/p.html": {"subresources": ["/x.js"]}},
        "resources": {"/x.js": {"size": 500, "headers": {"Cache-Control": cache_control}}},
    }
    with fixture_server(spec) as srv:
        session = FetchSession()
        fetch_page(session, srv.url("/p.html"), mode="legacy")
        assert srv.url("/x.js") in session.cache.entries
        report = fetch_page(session, srv.url("/x.js"), mode="legacy")
        assert report.resources[0].outcome == "fetched"
        assert report.resources[0].bytes == 500


def test_a_page_refetched_as_a_subresource_is_not_parsed_stale():
    # /b.html is kept as a page, changes on the server, and comes in whole
    # as /a.html's <img>.  As a page again, it revalidates against the new
    # ETag; a 304 must not leave the old body (and /x.js) to parse.
    spec = {
        "delay_ms": 0,
        "pages": {
            "/a.html": {"subresources": ["/b.html"]},
            "/b.html": {"subresources": ["/x.js"]},
        },
        "resources": {"/b.html": {}, "/x.js": {"size": 10}, "/y.js": {"size": 10}},
    }
    with fixture_server(spec) as srv, FetchSession() as session:
        first = fetch_page(session, srv.url("/b.html"), mode="legacy")
        assert [r.url for r in first.resources] == [srv.url("/b.html"), srv.url("/x.js")]
        srv.mutate(pages={"/b.html": {"subresources": ["/y.js"]}})
        as_image = fetch_page(session, srv.url("/a.html"), mode="legacy")
        assert as_image.resources[1].outcome == "fetched"
        again = fetch_page(session, srv.url("/b.html"), mode="legacy")
    assert [(r.url, r.outcome) for r in again.resources] == [
        (srv.url("/b.html"), "fetched"),
        (srv.url("/y.js"), "fetched"),
    ]


class _RoutedHandler(BaseHTTPRequestHandler):
    """Keep-alive; logs (client port, path) and answers from the server's
    ``routes`` ({path: (status, headers, body)}).  ``/chain/<n>``
    redirects to ``/chain/<n - 1>``, and ``/chain/0`` is a page."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.server.log.append((self.client_address[1], self.path))
        route = self.server.routes.get(self.path)
        if route is None and self.path.startswith("/chain/"):
            n = int(self.path.rsplit("/", 1)[1])
            route = (302, {"Location": f"/chain/{n - 1}"}, b"") if n else _PAGE
        status, headers, body = route or (404, {}, b"")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


_PAGE = (200, {"Content-Type": "text/html"}, b'<script src="a.js"></script>')
_SCRIPT = (200, {"Content-Type": "application/javascript"}, b"var a;")


@contextmanager
def _serving(handler, routes=None):
    """A keep-alive test server in a thread of its own: yields the server
    (its ``log`` fills with what ``handler`` logs) and its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.log, server.routes = [], routes or {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_subresources_resolve_against_the_redirected_url():
    # /old on one host redirects to /hop on another, which redirects
    # (relative Location) to /new/p.html there; its relative a.js
    # resolves against that final URL.
    there_routes = {
        "/hop": (301, {"Location": "/new/p.html"}, b""),
        "/new/p.html": _PAGE,
        "/new/a.js": _SCRIPT,
    }
    with _serving(_RoutedHandler, there_routes) as (there, there_base):
        here_routes = {"/old": (301, {"Location": there_base + "/hop"}, b"")}
        with _serving(_RoutedHandler, here_routes) as (here, base):
            with FetchSession() as session:
                report = fetch_page(session, base + "/old", mode="legacy")
    assert [(r.url, r.outcome) for r in report.resources] == [
        (base + "/old", "fetched"),
        (there_base + "/new/a.js", "fetched"),
    ]
    assert [path for _, path in here.log] == ["/old"]
    assert [path for _, path in there.log] == ["/hop", "/new/p.html", "/new/a.js"]


def test_more_than_max_redirects_fail_the_main_resource():
    routes = {"/chain/a.js": _SCRIPT}
    with _serving(_RoutedHandler, routes) as (server, base), FetchSession() as session:
        report = fetch_page(session, f"{base}/chain/{live.MAX_REDIRECTS}")
        assert [r.outcome for r in report.resources] == ["fetched"] * 2
        assert report.resources[1].url == base + "/chain/a.js"
        del server.log[:]
        with pytest.raises(MainResourceFailed, match="TooManyRedirects"):
            fetch_page(session, f"{base}/chain/{live.MAX_REDIRECTS + 1}")
    assert len(server.log) == live.MAX_REDIRECTS + 1


def _closed_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_error_rows_name_the_root_cause():
    # A script on a port nobody listens on, and one that answers after
    # the session's timeout.
    class SlowHandler(_RoutedHandler):
        def do_GET(self):
            if self.path == "/slow.js":
                time.sleep(0.3)
            super().do_GET()

    dead = f"http://127.0.0.1:{_closed_port()}/dead.js"
    body = b'<script src="%s"></script><script src="/slow.js"></script>' % dead.encode()
    routes = {"/p.html": (200, {"Content-Type": "text/html"}, body), "/slow.js": _SCRIPT}
    with _serving(SlowHandler, routes) as (_, base):
        with FetchSession(timeout_s=0.1) as session:
            report = fetch_page(session, base + "/p.html")
    assert [(r.url, r.outcome, r.error) for r in report.resources] == [
        (base + "/p.html", "fetched", None),
        (dead, "error", "NewConnectionError"),
        (base + "/slow.js", "error", "ReadTimeoutError"),
    ]


def test_main_resource_failure_raises():
    with fixture_server(CACHING_SPEC) as srv:
        dead_url = srv.url("/index.html")
    # server stopped; the port refuses connections now
    with pytest.raises(MainResourceFailed):
        fetch_page(FetchSession(), dead_url, mode="legacy")


@pytest.mark.parametrize("connections", [1, 0, -1])
def test_fewer_than_two_connections_is_invalid(connections):
    with pytest.raises(InvalidParams):
        FetchSession(max_connections=connections)
    session = FetchSession()
    session.max_connections = connections
    with pytest.raises(InvalidParams):
        fetch_page(session, "http://127.0.0.1:9/p.html")


def test_max_connections_may_not_grow_once_the_session_is_made():
    # The session's pools hold max_connections each; more in flight would
    # make them discard connections.
    session = FetchSession(max_connections=2)
    session.max_connections = 3
    with pytest.raises(InvalidParams, match="may not grow"):
        fetch_page(session, "http://127.0.0.1:9/p.html")


def test_unknown_mode_is_rejected_before_any_request():
    # Unchecked, "Tempo" would load as legacy and be reported as "Tempo".
    with fixture_server(CACHING_SPEC) as srv:
        session = FetchSession()
        page_url = srv.url("/index.html")
        fetch_page(session, page_url, mode="legacy")
        learned = request_counts(srv)
        for mode in ("Tempo", "speculative", ""):
            with pytest.raises(InvalidParams, match="unknown mode"):
                fetch_page(session, page_url, mode=mode)
        assert request_counts(srv) == learned


# --- connections and threads -------------------------------------------


def test_the_calling_thread_owns_the_session(monkeypatch):
    # The pool's threads only send requests: the cache, the prediction and
    # the learning all happen on the thread that calls fetch_page.
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return call

    for name in ("lookup", "admit", "page_complete"):
        monkeypatch.setattr(cache_module, name, recorded(name, getattr(cache_module, name)))
    monkeypatch.setattr(live, "predict", recorded("predict", live.predict))
    monkeypatch.setattr(MetadataRepository, "learn", recorded("learn", MetadataRepository.learn))
    with fixture_server(CACHING_SPEC) as srv:
        session = FetchSession()
        page_url = srv.url("/index.html")
        first = fetch_page(session, page_url, mode="legacy")
        second = fetch_page(session, page_url, mode="tempo")
    assert {r.outcome for r in first.resources} == {"fetched"}
    by_url = {r.url: r.outcome for r in second.resources}
    assert by_url == {
        page_url: "revalidated",
        srv.url("/a.js"): "fresh",
        srv.url("/b.css"): "revalidated",
        srv.url("/c.png"): "fetched",  # no-store
    }
    assert [name for name, thread in calls if thread is not threading.current_thread()] == []
    assert {name for name, _ in calls} == {"lookup", "admit", "page_complete", "predict", "learn"}


_NO_STORE_SCRIPT = (200, {**_SCRIPT[1], "Cache-Control": "no-store"}, b"var x;")
_SCRIPTS = {
    "/p.html": (
        200,
        {"Content-Type": "text/html", "Cache-Control": "no-store"},
        b"".join(b'<script src="/%s.js"></script>' % n for n in (b"a", b"b", b"c")),
    ),
    **{f"/{name}.js": _NO_STORE_SCRIPT for name in ("a", "b", "c", "slow")},
}


class _PortLoggingHandler(_RoutedHandler):
    """Serves ``_SCRIPTS``: /p.html loads /a.js, /b.js and /c.js, which
    answer after 50 ms, so that a page's scripts overlap as far as its
    connections allow, however its threads are scheduled; /dead.html
    drops the connection unanswered; /slow.js answers after 100 ms."""

    def do_GET(self):
        if self.path == "/dead.html":
            self.server.log.append((self.client_address[1], self.path))
            self.close_connection = True
            return
        if self.path.endswith(".js"):
            time.sleep(0.1 if self.path == "/slow.js" else 0.05)
        super().do_GET()


class _HangingUpHandler(_PortLoggingHandler):
    """Hangs up after every response, without a ``Connection: close``."""

    def do_GET(self):
        super().do_GET()
        self.close_connection = True


@pytest.fixture
def port_logging_server():
    with _serving(_PortLoggingHandler, _SCRIPTS) as served:
        yield served


@pytest.fixture
def started_threads(monkeypatch):
    """The threads the test's own thread starts once this is set up."""
    caller = threading.current_thread()
    threads = []
    real_start = threading.Thread.start

    def start(thread):
        if threading.current_thread() is caller:
            threads.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


@pytest.mark.parametrize("connections", [2, 4])
def test_connections_are_reused_across_pages(port_logging_server, connections, caplog):
    # Pages 1 and 2 load legacy, each with min(3, connections - 1)
    # scripts in flight at once, so page 2 needs no connection page 1 did
    # not open; pages 3 to 5 tempo, whose predicted scripts start while
    # the main resource is in flight.  No pool is ever full ("discarding
    # connection", logged at WARNING).
    caplog.set_level(logging.WARNING, logger="urllib3")
    server, base = port_logging_server
    ports = []
    with FetchSession(max_connections=connections) as session:
        for mode in ("legacy", "legacy", "tempo", "tempo", "tempo"):
            seen = len(server.log)
            report = fetch_page(session, base + "/p.html", mode=mode)
            assert [r.outcome for r in report.resources] == ["fetched"] * 4
            ports.append({port for port, _ in server.log[seen:]})
    assert len(server.log) == 5 * 4
    assert len(set().union(*ports)) <= connections
    assert ports[1] <= ports[0]
    assert caplog.records == []


def test_a_server_that_hangs_up_after_each_response():
    # The same three pages from a keep-alive server and from one that
    # hangs up after every response: a kept connection the server has
    # closed is never an error.
    outcomes = []
    for handler in (_PortLoggingHandler, _HangingUpHandler):
        with _serving(handler, _SCRIPTS) as (server, base), FetchSession() as session:
            pages = [fetch_page(session, base + "/p.html", m) for m in ("legacy", "tempo", "tempo")]
        outcomes.append(
            [[(r.url.removeprefix(base), r.outcome, r.error) for r in p.resources] for p in pages]
        )
    assert outcomes[0] == outcomes[1]
    assert {outcome for page in outcomes[1] for _, outcome, _ in page} == {"fetched"}
    # Each request of the hanging-up server came on a new connection.
    assert len({port for port, _ in server.log}) == len(server.log) == 3 * 4


def _wait_for_one_thread(timeout_s: float = 5.0) -> None:
    """The server's handler threads end once their client hangs up."""
    deadline = time.monotonic() + timeout_s
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()


def test_a_dropped_session_closes_a_pool_held_past_it():
    # Something that outlives the session (a traceback frame, say) holds
    # one of its pools, so urllib3's own close on collecting the pool never
    # runs: the session's finalizer has to close it.
    with fixture_server(CACHING_SPEC) as srv:
        session = FetchSession()
        fetch_page(session, srv.url("/index.html"), mode="legacy")
        pools = session._http.direct.pools
        (pool,) = [pools[key] for key in pools.keys()]
        assert pool.pool is not None
        del session, pools
        gc.collect()
        assert pool.pool is None


def test_a_dropped_session_closes_quietly_in_dev_mode():
    # Dropped without close(), as perfbench's live pass drops its two:
    # nothing may warn or raise while its kept-alive connections close.
    code = f"""
        from specload.fixture import fixture_server
        from specload.live import FetchSession, fetch_page
        def visit(url):
            session = FetchSession()
            for mode in ("legacy", "tempo", "tempo"):
                fetch_page(session, url, mode=mode)
        with fixture_server({DEV_FIXTURE!r}) as server:
            visit(server.url("/index.html"))
        """
    run_dev("-c", textwrap.dedent(code))


def test_fetch_page_leaves_nothing_running(port_logging_server, started_threads, monkeypatch):
    server, base = port_logging_server
    # Every connection pool, so that each can be seen closed without
    # the garbage collector's help.
    pools = []
    new_pool = urllib3.PoolManager._new_pool

    def record_pool(self, *args, **kwargs):
        pool = new_pool(self, *args, **kwargs)
        pools.append(pool)
        return pool

    monkeypatch.setattr(urllib3.PoolManager, "_new_pool", record_pool)
    loads = []
    init = live._PageLoad.__init__

    def record_load(self, *args):
        init(self, *args)
        loads.append(weakref.ref(self))

    monkeypatch.setattr(live._PageLoad, "__init__", record_load)
    gc.disable()
    try:
        # The page's threads end with fetch_page; the session's pools
        # stay open for its next page, and close with the session.
        session = FetchSession(max_connections=3)
        fetch_page(session, base + "/p.html")
        assert started_threads
        assert not any(t.is_alive() for t in started_threads)
        assert pools and all(pool.pool is not None for pool in pools)
        session.close()
        assert all(pool.pool is None for pool in pools)
        with pytest.raises(InvalidParams, match="closed"):
            fetch_page(session, base + "/p.html")

        # The main resource fails while a speculative load is in flight,
        # on a session never closed.  The failed page load is freed, and
        # the dropped session's pools are closed.
        repo = MetadataRepository()
        main = ResourceRecord(base + "/dead.html", "html", 100)
        repo.learn(PageVisit("u", 0.0, main, (ResourceRecord(base + "/slow.js", "script", 6),)))
        del started_threads[:], pools[:], loads[:]
        seen = len(server.log)
        with pytest.raises(MainResourceFailed):
            fetch_page(FetchSession(repo=repo), base + "/dead.html", mode="tempo")
        assert loads and all(load() is None for load in loads)
        assert pools and all(pool.pool is None for pool in pools)
    finally:
        gc.enable()
    assert started_threads
    assert not any(t.is_alive() for t in started_threads)
    assert {path for _, path in server.log[seen:]} == {"/dead.html", "/slow.js"}

    server.shutdown()
    _wait_for_one_thread()
    # With no thread left, a trace replay still forks its worker.
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    assert sim._can_fork()
    simulate_trace(Trace(visits=[PageVisit("u", 0.0, main, ())]))
    assert len(forks) == 1


class _ForwardingProxy(BaseHTTPRequestHandler):
    """A plain HTTP proxy: logs each absolute-form request target and
    forwards the request on a connection of its own."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.server.log.append(self.path)
        target = urlsplit(self.path)
        upstream = http.client.HTTPConnection(target.netloc, timeout=5)
        try:
            upstream.request("GET", target.path, headers=dict(self.headers))
            response = upstream.getresponse()
            body = response.read()
        finally:
            upstream.close()
        self.send_response(response.status)
        for name, value in response.getheaders():
            if name.lower() not in ("connection", "content-length"):
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_proxies_are_read_from_the_environment_when_the_session_is_made(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    with fixture_server(CACHING_SPEC) as srv, _serving(_ForwardingProxy) as (proxy, proxy_url):
        page_url = srv.url("/index.html")
        direct = FetchSession()
        monkeypatch.setenv("HTTP_PROXY", proxy_url)
        proxied = FetchSession()
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        bypassing = FetchSession()
        for session in (direct, bypassing):
            with session:
                assert {r.outcome for r in fetch_page(session, page_url).resources} == {"fetched"}
        assert proxy.log == [] and request_counts(srv)["/index.html"] == 2
        with proxied:
            report = fetch_page(proxied, page_url)
    assert {r.outcome for r in report.resources} == {"fetched"}
    assert proxy.log[0] == page_url
    assert sorted(proxy.log) == sorted(r.url for r in report.resources)
    assert request_counts(srv)["/index.html"] == 3


def test_a_proxy_urllib3_cannot_use_is_invalid(monkeypatch):
    monkeypatch.delenv("http_proxy", raising=False)
    monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(InvalidParams, match="unsupported http proxy"):
        FetchSession()


# --- the live fetcher against the simulator ----------------------------

DIFF_DELAY_MS = 200.0
# How far a live time may be from the simulated one.  Every simulated
# time is a multiple of the delay, and a different decision moves some
# load by at least one delay.  Half a delay tells the two apart and
# leaves room for the client and server work each request adds: a few
# ms on an idle machine, over a chain of up to five requests.
DIFF_TOLERANCE_MS = DIFF_DELAY_MS / 2
_NO_STORE = {"Cache-Control": "no-store"}
_DIFF_PAGES = {
    "/l.html": ["/l1.js", "/l2.js", "/l3.js", "/l4.js"],
    "/t.html": ["/p.css", "/q.png", "/n.png"],
}
# What tempo's graph knows of /t.html: it starts its prediction with the
# script /o.js, which the page no longer needs, and lacks /n.png.
_LEARNED = [("/o.js", "script"), ("/p.css", "stylesheet"), ("/q.png", "image")]
_DIFF_SPEC = {
    "delay_ms": DIFF_DELAY_MS,
    "pages": {p: {"subresources": subs, "headers": _NO_STORE} for p, subs in _DIFF_PAGES.items()},
    "resources": {
        path: {"size": 500, "headers": _NO_STORE}
        for path in ["/l1.js", "/l2.js", "/l3.js", "/l4.js", "/o.js", "/p.css", "/q.png", "/n.png"]
    },
}


class _Timeline:
    """A simulator cache state that misses on every request, as no-store
    resources do, and keeps each load's start and end in milliseconds
    (the visit is at time 0)."""

    def __init__(self):
        self.starts: dict[str, float] = {}
        self.ends: dict[str, float] = {}

    def classify(self, url, now):
        return LookupOutcome.MISS

    def lookup(self, url, now):
        self.starts[url] = now * 1000.0
        return LookupOutcome.MISS

    def admit(self, record, now):
        self.ends[record.url] = now * 1000.0

    def page_complete(self):
        pass


def _simulate_like(report, subresources: list[str], connections: int):
    """The simulator's run and timeline for the page ``report`` loaded,
    with the fixture's delay as the round trip and nothing else taking
    time: its 500-byte bodies move in no time at 1e15 B/s."""
    main = ResourceRecord(report.url, "html", 0)
    subs = tuple(ResourceRecord(url, "script", 500) for url in subresources)
    prediction = None
    if report.mode == "tempo":
        prediction = Prediction(report.predicted, VisitClass.REVISIT)
    net = NetworkParams(
        rtt_ms=DIFF_DELAY_MS, bandwidth_bytes_per_s=1e15, parse_ms=0.0, main_extra_rtts=0
    )
    known = {url: ResourceRecord(url, "script", 500) for url in report.predicted}
    timeline = _Timeline()
    visit = PageVisit("u", 0.0, main, subs)
    engine = _Engine(visit, prediction, timeline, net, connections, known)
    return engine.run(), engine, timeline


@pytest.mark.parametrize("connections", [2, 4])
@pytest.mark.parametrize("mode", ["legacy", "tempo"])
def test_live_loads_are_scheduled_as_simulated(mode, connections, monkeypatch, tmp_path):
    # Every load goes to the network.  Legacy over 4 connections must
    # hold its fourth script until one of the other three is in.
    loads = []

    class KeptPageLoad(live._PageLoad):
        def __init__(self, *args):
            super().__init__(*args)
            loads.append(self)

    monkeypatch.setattr(live, "_PageLoad", KeptPageLoad)
    # The fixture runs in a process of its own, so its work does not hold
    # the client's interpreter lock.
    with fixture_process(_DIFF_SPEC, tmp_path) as base:
        session = FetchSession(max_connections=connections)
        if mode == "legacy":
            url = base + "/l.html"
        else:
            url = base + "/t.html"
            learned = tuple(ResourceRecord(base + p, kind, 500) for p, kind in _LEARNED)
            session.repo.learn(PageVisit("u", 0.0, ResourceRecord(url, "html", 500), learned))
        report = fetch_page(session, url, mode=mode)
    needed = [r.url for r in report.resources[1:] if r.outcome != "mispredicted"]
    assert needed == [base + p for p in _DIFF_PAGES[urlsplit(url).path]]
    delay, engine, timeline = _simulate_like(report, needed, connections)

    issued = sorted(report.resources, key=lambda r: r.t_start_ms)
    assert [r.url for r in issued] == list(timeline.starts)
    mispredicted = {r.url for r in report.resources if r.outcome == "mispredicted"}
    assert mispredicted == set(timeline.starts) - {url, *needed}
    if mode == "tempo":
        assert report.predicted[0] == base + "/o.js" and mispredicted == {base + "/o.js"}
    for r in report.resources:
        assert abs(r.t_start_ms - timeline.starts[r.url]) <= DIFF_TOLERANCE_MS, r
        assert abs(r.t_end_ms - timeline.ends[r.url]) <= DIFF_TOLERANCE_MS, r
    assert abs(report.delay_ms - delay) <= DIFF_TOLERANCE_MS
    # Both drivers count wasted bytes by the scheduler's one rule.
    assert report.overhead_bytes == engine.overhead_bytes == (500 if mode == "tempo" else 0)
    # Every subresource connection came back, and nothing waits.
    (load,) = loads
    for scheduler in (load, engine):
        assert scheduler.free == connections - 1 and not scheduler.queue
