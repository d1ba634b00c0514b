"""Deterministic local HTTP server for live-fetch experiments.

A fixture is a JSON file describing pages and the resources they pull
in.  The server renders minimal HTML for each page, serves resources
with padded bodies of exactly the declared size, injects a fixed
per-request delay so timing differences are measurable, and answers
conditional requests with 304 when the ETag still matches.  Pages can
be mutated at runtime through a control endpoint, which bumps resource
versions so stale caches actually revalidate.

Fixture spec shape:

    {
      "port": 8099,
      "delay_ms": 100,
      "pages": {
        "/index.html": {"subresources": ["/app.js", "/style.css"],
                         "headers": {"Cache-Control": "no-cache"}}
      },
      "resources": {
        "/app.js": {"size": 2048, "headers": {"Cache-Control": "max-age=60"}}
      }
    }

Resource content types come from the path extension unless the spec
says otherwise.  Control paths under ``/__`` skip the delay.

The server serves from one thread that blocks on the listening socket
with no timeout, so nothing polls while it serves.  ``stop()`` wakes
that thread by shutting the socket down, shuts down every connection
still open and returns once their threads have ended, also on a server
that was never started.  The module imports only the standard library
and ``specload.errors``.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .errors import BadSpec, PortInUse

# A POST body is read whole, into a buffer of its declared length, so a
# longer declared length is refused.
MAX_POST_BYTES = 1 << 24

_EXT_TYPES = {
    ".html": "text/html",
    ".js": "application/javascript",
    ".css": "text/css",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".gif": "image/gif",
    ".json": "application/json",
}


def _content_type(path: str) -> str:
    for ext, ctype in _EXT_TYPES.items():
        if path.endswith(ext):
            return ctype
    return "application/octet-stream"


def _render_page(path: str, subresources: list[str]) -> bytes:
    parts = ["<!doctype html>", "<html><head>", f"<title>{path}</title>"]
    body: list[str] = []
    for sub in subresources:
        if sub.endswith(".css"):
            parts.append(f'<link rel="stylesheet" href="{sub}">')
        elif sub.endswith(".js"):
            parts.append(f'<script src="{sub}"></script>')
        else:
            body.append(f'<img src="{sub}">')
    parts.append("</head><body>")
    parts.extend(body)
    parts.append(f"<p>fixture page {path}</p></body></html>")
    return "\n".join(parts).encode()


def _padded_body(path: str, size: int, version: int) -> bytes:
    stamp = f"{path}:{version}:".encode()
    if size <= len(stamp):
        return stamp[:size]
    filler = b"x" * (size - len(stamp))
    return stamp + filler


def _validate_spec(spec: dict) -> None:
    if not isinstance(spec, dict):
        raise BadSpec("fixture spec must be a JSON object")
    pages, resources = spec.get("pages", {}), spec.get("resources", {})
    if not isinstance(pages, dict) or not isinstance(resources, dict):
        raise BadSpec("pages and resources must be objects")
    for what, items in (("page", pages), ("resource", resources)):
        for path, item in items.items():
            if not isinstance(path, str) or not path.startswith("/"):
                raise BadSpec(f"{what} path must start with /: {path!r}")
            if not isinstance(item, dict):
                raise BadSpec(f"{what} {path} must be an object")
            headers = item.get("headers", {})
            if not isinstance(headers, dict) or not all(
                isinstance(value, str) for value in headers.values()
            ):
                raise BadSpec(f"headers of {what} {path} must be an object of strings")
    for path, page in pages.items():
        subs = page.get("subresources", [])
        if not isinstance(subs, list) or not all(isinstance(sub, str) for sub in subs):
            raise BadSpec(f"subresources of {path} must be a list of paths")
        for sub in subs:
            if sub not in resources:
                raise BadSpec(f"page {path} references undeclared resource {sub}")
    for path, res in resources.items():
        size = res.get("size", 0)
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise BadSpec(f"resource {path} has bad size {size!r}")
        if not isinstance(res.get("content_type", ""), str):
            raise BadSpec(f"content_type of resource {path} must be a string")
    port = spec.get("port", 0)
    if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
        raise BadSpec(f"port must be an integer from 0 to 65535, not {port!r}")
    delay = spec.get("delay_ms", 0)
    if not isinstance(delay, (int, float)) or not 0 <= delay < float("inf"):
        raise BadSpec(f"delay_ms must be a finite non-negative number, not {delay!r}")


class _Server(ThreadingHTTPServer):
    """Keeps each open connection's socket and handler thread, so that a
    stop can cut them off."""

    def __init__(self, address, handler):
        self.stopping = False
        self.handlers: dict[socket.socket, threading.Thread] = {}
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self.handlers[request] = thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        thread.start()

    def shutdown_request(self, request):
        self.handlers.pop(request, None)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A connection cut off by a stop fails its handler's next write.
        if not (self.stopping and isinstance(sys.exc_info()[1], OSError)):
            super().handle_error(request, client_address)


class FixtureServer:
    """Serves a fixture spec on localhost until stopped."""

    def __init__(self, spec: dict, port: int | None = None):
        _validate_spec(spec)
        self.delay_ms = float(spec.get("delay_ms", 0))
        self.pages: dict[str, dict] = {p: dict(v) for p, v in spec.get("pages", {}).items()}
        self.resources: dict[str, dict] = {
            p: dict(v) for p, v in spec.get("resources", {}).items()
        }
        self.versions: dict[str, int] = {}
        self.request_log: list[tuple[str, int]] = []  # (path, status)
        self._lock = threading.Lock()
        want_port = port if port is not None else spec.get("port", 0)
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in separate writes; with Nagle on,
            # a keep-alive client waits out its delayed ACK on each one.
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                server._handle_get(self)

            def do_POST(self):
                server._handle_post(self)

        try:
            self._httpd = _Server(("127.0.0.1", want_port), Handler)
        except OSError as exc:
            raise PortInUse(f"cannot bind port {want_port}: {exc}") from exc
        self._thread = threading.Thread(target=self._serve, name="fixture-server", daemon=True)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def start(self) -> "FixtureServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, cut off every open connection and close the
        listening socket.  Returns once every thread of the server has
        ended (a handler after its injected delay); a second call does nothing."""
        httpd = self._httpd
        if httpd.stopping:
            return
        httpd.stopping = True
        if self._thread.is_alive():
            try:
                httpd.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                # Where a listening socket cannot be shut down, a
                # connection wakes the serving thread instead.
                socket.create_connection(httpd.server_address, timeout=5).close()
            self._thread.join(timeout=5)
        # A handler waiting for a request reads the end of the stream.
        handlers = httpd.handlers.copy()
        for conn in handlers:
            with suppress(OSError):  # closed by its handler meanwhile
                conn.shutdown(socket.SHUT_RDWR)
        for thread in handlers.values():
            thread.join(timeout=5)
        httpd.server_close()

    def _serve(self) -> None:
        # handle_request() blocks until a connection arrives or stop()
        # shuts the socket down; then accept() fails and it returns.
        while not self._httpd.stopping:
            self._httpd.handle_request()

    def mutate(self, pages: dict | None = None, resources: dict | None = None) -> None:
        """Replace page subresource lists / resource specs; bump versions.

        Raises BadSpec, and changes nothing, when the fixture would not
        be a valid spec afterwards.
        """
        pages = {} if pages is None else pages
        resources = {} if resources is None else resources
        if not isinstance(pages, dict) or not isinstance(resources, dict):
            raise BadSpec("pages and resources must be objects")
        with self._lock:
            _validate_spec(
                {"pages": {**self.pages, **pages}, "resources": {**self.resources, **resources}}
            )
            for path, page in pages.items():
                self.pages[path] = dict(page)
                self.versions[path] = self.versions.get(path, 0) + 1
            for path, res in resources.items():
                self.resources[path] = dict(res)
                self.versions[path] = self.versions.get(path, 0) + 1

    def _version(self, path: str) -> int:
        return self.versions.get(path, 0)

    def _etag(self, path: str) -> str:
        return f'W/"{path}-{self._version(path)}"'

    def _sleep(self, path: str) -> None:
        if self.delay_ms > 0 and not path.startswith("/__"):
            time.sleep(self.delay_ms / 1000.0)

    def _send(self, handler, status: int, headers: dict, body: bytes) -> None:
        handler.send_response(status)
        for key, value in headers.items():
            handler.send_header(key, value)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        if body:
            handler.wfile.write(body)

    def _handle_get(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        self._sleep(path)
        if self._httpd.stopping:  # cut off, maybe mid-read: no answer, no log
            return
        with self._lock:
            page = self.pages.get(path)
            res = self.resources.get(path)
            etag = self._etag(path)
            self.request_log.append((path, 0))
            log_slot = len(self.request_log) - 1

        if page is None and res is None:
            status, headers, body = 404, {"Content-Type": "text/plain"}, b"not found"
        elif handler.headers.get("If-None-Match") == etag:
            # the injected delay above applies to 304s too; a
            # revalidation saves bytes, not round trips
            status, headers, body = 304, {"ETag": etag}, b""
        elif page is not None:
            body = _render_page(path, list(page.get("subresources", [])))
            headers = {"Content-Type": "text/html", "ETag": etag}
            headers.update(page.get("headers", {}))
            status = 200
        else:
            body = _padded_body(path, int(res.get("size", 0)), self._version(path))
            headers = {
                "Content-Type": res.get("content_type") or _content_type(path),
                "ETag": etag,
            }
            headers.update(res.get("headers", {}))
            status = 200
        # Logged before sending: a client holding the response must find
        # its status in the log, not the placeholder.
        with self._lock:
            self.request_log[log_slot] = (path, status)
        self._send(handler, status, headers, body)

    def _handle_post(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        length = handler.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()) or int(length) > MAX_POST_BYTES:
            # The body is left unread, so the connection closes.
            headers = {"Content-Type": "text/plain", "Connection": "close"}
            self._send(handler, 400, headers, b"bad Content-Length")
            return
        body = handler.rfile.read(int(length))
        if self._httpd.stopping:
            return
        if path != "/__mutate":
            self._send(handler, 404, {"Content-Type": "text/plain"}, b"not found")
            return
        try:
            payload = json.loads(body or b"{}")
        except ValueError:  # not JSON, or not UTF-8
            self._send(handler, 400, {"Content-Type": "text/plain"}, b"bad json")
            return
        try:
            if not isinstance(payload, dict):
                raise BadSpec("mutation must be a JSON object")
            self.mutate(payload.get("pages"), payload.get("resources"))
        except BadSpec as exc:
            self._send(handler, 400, {"Content-Type": "text/plain"}, str(exc).encode())
            return
        self._send(handler, 200, {"Content-Type": "application/json"}, b'{"ok": true}')


def load_fixture_spec(path: str | Path) -> dict:
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadSpec(f"fixture spec is not valid JSON: {exc}") from exc
    _validate_spec(spec)
    return spec


@contextmanager
def fixture_server(spec: dict, port: int | None = None):
    """Context manager: start the fixture server, yield it, stop it."""
    server = FixtureServer(spec, port=port).start()
    try:
        yield server
    finally:
        server.stop()
