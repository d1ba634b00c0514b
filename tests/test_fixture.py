from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import pytest
import requests

from specload.errors import BadSpec, PortInUse
from specload.fixture import (
    FixtureServer,
    _padded_body,
    fixture_server,
    load_fixture_spec,
)

from conftest import request_counts

SPEC = {
    "delay_ms": 0,
    "pages": {"/index.html": {"subresources": ["/app.js", "/style.css", "/logo.png"]}},
    "resources": {
        "/app.js": {"size": 2048},
        "/style.css": {"size": 512},
        "/logo.png": {"size": 100},
    },
}


@pytest.mark.parametrize(
    "spec",
    [
        [],
        {"pages": {"index.html": {}}},
        {"pages": {"/p": {"subresources": ["/ghost.js"]}}, "resources": {}},
        {"resources": {"/r.js": {"size": -5}}},
        {"resources": {"/r.js": {"size": "big"}}},
        {"delay_ms": -1},
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(BadSpec):
        FixtureServer(spec)


_PAGE_OK = {"/p.html": {"subresources": ["/r.js"]}}
_RES_OK = {"/r.js": {"size": 10}}


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param([], "must be a JSON object", id="not-an-object"),
        pytest.param({"pages": []}, "pages and resources must be objects", id="pages-list"),
        pytest.param({"resources": 1}, "pages and resources must be", id="resources-number"),
        pytest.param({"pages": {"p.html": {}}}, "page path must start with /", id="page-path"),
        pytest.param({"resources": {"r.js": {}}}, "resource path must start with /", id="res-path"),
        pytest.param({"pages": {"/a.html": 1}}, "page /a.html must be an object", id="page-number"),
        pytest.param({"resources": {"/r.js": []}}, "resource /r.js must be", id="res-list"),
        pytest.param(
            {"pages": {"/a.html": {"headers": ["Cache-Control"]}}},
            "headers of page /a.html must be an object of strings",
            id="page-headers-list",
        ),
        pytest.param(
            {"resources": {"/r.js": {"headers": {"Cache-Control": 60}}}},
            "headers of resource /r.js must be an object of strings",
            id="res-header-number",
        ),
        pytest.param(
            {"pages": {"/a.html": {"subresources": "/r.js"}}, "resources": _RES_OK},
            "subresources of /a.html must be a list of paths",
            id="subresources-string",
        ),
        pytest.param(
            {"pages": {"/a.html": {"subresources": [["/r.js"]]}}, "resources": _RES_OK},
            "subresources of /a.html must be a list of paths",
            id="subresource-list",
        ),
        pytest.param(
            {"pages": _PAGE_OK}, "references undeclared resource /r.js", id="undeclared"
        ),
        pytest.param({"resources": {"/r.js": {"size": 1.5}}}, "bad size 1.5", id="size-float"),
        pytest.param({"resources": {"/r.js": {"size": True}}}, "bad size True", id="size-bool"),
        pytest.param(
            {"resources": {"/r.js": {"content_type": 7}}},
            "content_type of resource /r.js must be a string",
            id="content-type-number",
        ),
        pytest.param({"port": "x"}, "port must be an integer", id="port-string"),
        pytest.param({"port": 70000}, "port must be an integer", id="port-range"),
        pytest.param({"delay_ms": "5"}, "delay_ms must be", id="delay-string"),
        pytest.param({"delay_ms": True}, "delay_ms must be", id="delay-bool"),
        pytest.param({"delay_ms": float("inf")}, "delay_ms must be", id="delay-inf"),
        pytest.param({"delay_ms": float("nan")}, "delay_ms must be", id="delay-nan"),
    ],
)
def test_each_bad_shape_is_a_bad_spec(spec, message):
    with pytest.raises(BadSpec, match=message):
        FixtureServer(spec)


def test_a_good_spec_passes_every_check():
    spec = {
        "port": 0,
        "delay_ms": 1.5,
        "pages": {"/p.html": {**_PAGE_OK["/p.html"], "headers": {"Cache-Control": "no-cache"}}},
        "resources": {"/r.js": {"size": 10, "content_type": "text/plain", "headers": {}}},
    }
    with fixture_server(spec) as srv:
        assert srv.port > 0


def test_load_fixture_spec(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(SPEC))
    assert load_fixture_spec(path)["resources"]["/app.js"]["size"] == 2048
    path.write_text("{broken")
    with pytest.raises(BadSpec):
        load_fixture_spec(path)


def test_port_collision():
    with fixture_server(SPEC) as srv:
        with pytest.raises(PortInUse):
            FixtureServer(SPEC, port=srv.port)


def test_page_rendering_and_padded_resources():
    with fixture_server(SPEC) as srv:
        resp = requests.get(srv.url("/index.html"))
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "text/html"
        html = resp.text
        assert '<script src="/app.js">' in html
        assert '<link rel="stylesheet" href="/style.css">' in html
        assert '<img src="/logo.png">' in html

        body = requests.get(srv.url("/app.js")).content
        assert len(body) == 2048
        assert body.startswith(b"/app.js:0:")

        assert requests.get(srv.url("/nowhere")).status_code == 404
        assert request_counts(srv) == {"/index.html": 1, "/app.js": 1, "/nowhere": 1}


def test_padded_body_exact_sizes():
    assert _padded_body("/r.js", 0, 0) == b""
    assert _padded_body("/r.js", 4, 0) == b"/r.j"
    assert len(_padded_body("/r.js", 5000, 3)) == 5000


def test_etag_and_conditional_requests():
    with fixture_server(SPEC) as srv:
        first = requests.get(srv.url("/app.js"))
        etag = first.headers["ETag"]
        assert etag == 'W/"/app.js-0"'

        again = requests.get(srv.url("/app.js"), headers={"If-None-Match": etag})
        assert again.status_code == 304
        assert again.content == b""
        assert srv.request_log[-1] == ("/app.js", 304)

        requests.post(
            srv.url("/__mutate"),
            json={"resources": {"/app.js": {"size": 10}}},
        )
        third = requests.get(srv.url("/app.js"), headers={"If-None-Match": etag})
        assert third.status_code == 200
        assert third.headers["ETag"] == 'W/"/app.js-1"'
        assert len(third.content) == 10


def test_mutate_endpoint_rewrites_pages():
    with fixture_server(SPEC) as srv:
        resp = requests.post(
            srv.url("/__mutate"),
            json={"pages": {"/index.html": {"subresources": ["/style.css"]}}},
        )
        assert resp.status_code == 200
        html = requests.get(srv.url("/index.html")).text
        assert "/style.css" in html
        assert "/app.js" not in html

        bad = requests.post(srv.url("/__mutate"), data=b"{oops")
        assert bad.status_code == 400
        assert requests.post(srv.url("/__mutate"), data=b"\xff").status_code == 400
        assert requests.post(srv.url("/__other"), data=b"{}").status_code == 404


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"pages": {"/index.html": 1}}, "page /index.html must be an object"),
        ([], "mutation must be a JSON object"),
        (
            {"pages": {"/index.html": {"subresources": ["/ghost.js"]}}},
            "page /index.html references undeclared resource /ghost.js",
        ),
    ],
)
def test_a_bad_mutation_is_refused_and_changes_nothing(capsys, payload, message):
    with fixture_server(SPEC) as srv:
        before = requests.get(srv.url("/index.html"))
        resp = requests.post(srv.url("/__mutate"), json=payload)
        assert (resp.status_code, resp.text) == (400, message)
        after = requests.get(srv.url("/index.html"))
        assert after.status_code == 200
        assert (after.text, after.headers["ETag"]) == (before.text, before.headers["ETag"])
        if isinstance(payload, dict):
            with pytest.raises(BadSpec, match=message):
                srv.mutate(payload.get("pages"), payload.get("resources"))
        assert srv.pages == SPEC["pages"]
    assert capsys.readouterr().err == ""


def test_a_mutation_may_declare_what_its_pages_link():
    with fixture_server(SPEC) as srv:
        resp = requests.post(
            srv.url("/__mutate"),
            json={
                "pages": {"/index.html": {"subresources": ["/new.js"]}},
                "resources": {"/new.js": {"size": 7}},
            },
        )
        assert resp.status_code == 200
        assert "/new.js" in requests.get(srv.url("/index.html")).text
        assert len(requests.get(srv.url("/new.js")).content) == 7


def test_injected_delay_applies_to_content_not_control():
    spec = dict(SPEC, delay_ms=80)
    with fixture_server(spec) as srv:
        t0 = time.perf_counter()
        requests.get(srv.url("/app.js"))
        assert time.perf_counter() - t0 >= 0.08

        t0 = time.perf_counter()
        requests.get(srv.url("/__ping"))  # 404, but skips the delay
        assert time.perf_counter() - t0 < 0.08


def test_custom_headers_and_content_types():
    spec = {
        "pages": {"/p.html": {"subresources": ["/data.bin"], "headers": {"Cache-Control": "no-cache"}}},
        "resources": {
            "/data.bin": {
                "size": 9,
                "content_type": "font/woff2",
                "headers": {"Cache-Control": "max-age=77"},
            }
        },
    }
    with fixture_server(spec) as srv:
        page = requests.get(srv.url("/p.html"))
        assert page.headers["Cache-Control"] == "no-cache"
        res = requests.get(srv.url("/data.bin"))
        assert res.headers["Content-Type"] == "font/woff2"
        assert res.headers["Cache-Control"] == "max-age=77"
        assert len(res.content) == 9


def test_keep_alive_requests_do_not_stall():
    # Headers and body leave in separate writes; with Nagle's algorithm
    # on, each request on a kept-alive connection waited out the
    # client's delayed ACK (about 40 ms).
    with fixture_server(SPEC) as srv, requests.Session() as session:
        took = []
        for _ in range(10):
            t0 = time.perf_counter()
            response = session.get(srv.url("/app.js"))
            took.append(time.perf_counter() - t0)
            assert response.status_code == 200 and len(response.content) == 2048
    assert statistics.median(took) < 0.020


@pytest.mark.parametrize("keep_alive", [False, True], ids=["idle", "keep-alive"])
def test_stop_returns_at_once_and_ends_the_serving_thread(keep_alive):
    srv = FixtureServer(SPEC).start()
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
    try:
        if keep_alive:
            conn.request("GET", "/app.js")
            assert conn.getresponse().read() == _padded_body("/app.js", 2048, 0)
        t0 = time.perf_counter()
        srv.stop()
        took = time.perf_counter() - t0
    finally:
        conn.close()
    assert took < 0.1
    assert not srv._thread.is_alive()


def _new_handler_threads(before=frozenset()) -> set[threading.Thread]:
    """The live connection-handler threads that are not in ``before``."""
    return {t for t in threading.enumerate() if "process_request_thread" in t.name} - before


def test_a_stopped_server_answers_no_held_connection(capfd):
    before = _new_handler_threads()
    srv = FixtureServer(SPEC).start()
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
    try:
        conn.request("GET", "/app.js")
        assert conn.getresponse().read() == _padded_body("/app.js", 2048, 0)
        assert len(_new_handler_threads(before)) == 1
        t0 = time.perf_counter()
        srv.stop()
        assert time.perf_counter() - t0 < 0.1
        assert not _new_handler_threads(before)
        with pytest.raises(OSError):
            conn.request("GET", "/app.js")
            conn.getresponse()
    finally:
        conn.close()
    assert srv.request_log == [("/app.js", 200)]
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "partial",
    [
        b"GET /app.js HT",
        b"GET /app.js HTTP/1.1\r\nHost: fixture\r\n",
        b'POST /__mutate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"resources": {"/app.js": {}}}',
    ],
    ids=["request-line", "headers", "body"],
)
def test_a_request_cut_off_mid_read_is_neither_answered_nor_logged(capfd, partial):
    before = _new_handler_threads()
    srv = FixtureServer(SPEC).start()
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as raw:
        raw.sendall(partial)
        deadline = time.monotonic() + 5
        while not _new_handler_threads(before) and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # the handler is reading
        srv.stop()
        assert not _new_handler_threads(before)
        assert raw.recv(4096) == b""
    assert srv.request_log == [] and srv.versions == {}
    assert capfd.readouterr().err == ""


def test_stop_wakes_the_server_where_a_listening_socket_cannot_shut_down(monkeypatch):
    def refuse(sock, how):
        raise OSError("Socket is not connected")

    srv = FixtureServer(SPEC).start()
    monkeypatch.setattr(socket.socket, "shutdown", refuse)
    t0 = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - t0 < 0.1
    assert not srv._thread.is_alive()


def test_stop_on_an_unstarted_server_closes_its_socket():
    srv = FixtureServer(SPEC)
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    srv.stop()
    FixtureServer(SPEC, port=srv.port).stop()  # the port is free again


@pytest.mark.parametrize("length", [b"abc", b"-5", b"1000000000000000"])
def test_a_bad_content_length_is_refused_and_changes_nothing(capsys, length):
    mutation = json.dumps({"pages": {"/index.html": {"subresources": []}}}).encode()
    with fixture_server(SPEC) as srv:
        before = requests.get(srv.url("/index.html"))
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as raw:
            raw.sendall(
                b"POST /__mutate HTTP/1.1\r\nHost: fixture\r\nContent-Length: "
                + length
                + b"\r\n\r\n"
                + mutation
            )
            reply = b""
            while chunk := raw.recv(4096):  # the server closes the connection
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b"\r\n\r\nbad Content-Length")
        after = requests.get(srv.url("/index.html"))
        assert (after.text, after.headers["ETag"]) == (before.text, before.headers["ETag"])
        assert srv.pages == SPEC["pages"]
    assert capsys.readouterr().err == ""
