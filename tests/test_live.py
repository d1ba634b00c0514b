from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from specload.cache import CacheStore
from specload.errors import MainResourceFailed
from specload.fixture import fixture_server
from specload.live import FetchSession, extract_subresources, fetch_page
from specload.predict import VisitClass, predict

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
        counts = srv.request_counts()
        assert counts["/a.js"] == 1  # fresh hit never left the client
        assert counts["/b.css"] == 2
        assert counts["/c.png"] == 2


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


def test_connection_bound_is_respected():
    subs = [f"/r{i}.js" for i in range(10)]
    spec = {
        "delay_ms": 20,
        "pages": {"/p.html": {"subresources": subs}},
        "resources": {s: {"size": 500} for s in subs},
    }
    with fixture_server(spec) as srv:
        session = FetchSession(max_connections=3)
        report = fetch_page(session, srv.url("/p.html"), mode="legacy")
        assert len(report.resources) == 11
        assert session.max_inflight_seen <= 3


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
        for i in range(10):
            fetch_page(session, srv.url(f"/p{i}.html"), mode="legacy")
            assert set(session._bodies) <= set(session.cache.entries)
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


class _RedirectingHandler(BaseHTTPRequestHandler):
    """/old answers 301 to /new/p.html, which loads the relative a.js."""

    routes = {
        "/old": (301, {"Location": "/new/p.html"}, b""),
        "/new/p.html": (200, {"Content-Type": "text/html"}, b'<script src="a.js"></script>'),
        "/new/a.js": (200, {"Content-Type": "application/javascript"}, b"var a;"),
    }

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.server.paths.append(self.path)
        status, headers, body = self.routes.get(self.path, (404, {}, b""))
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_subresources_resolve_against_the_redirected_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RedirectingHandler)
    server.paths = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        report = fetch_page(FetchSession(), base + "/old", mode="legacy")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [(r.url, r.outcome) for r in report.resources] == [
        (base + "/old", "fetched"),
        (base + "/new/a.js", "fetched"),
    ]
    assert report.resources[0].redirects == 1
    assert "/a.js" not in server.paths and "/new/a.js" in server.paths


def test_main_resource_failure_raises():
    with fixture_server(CACHING_SPEC) as srv:
        dead_url = srv.url("/index.html")
    # server stopped; the port refuses connections now
    with pytest.raises(MainResourceFailed):
        fetch_page(FetchSession(), dead_url, mode="legacy")
