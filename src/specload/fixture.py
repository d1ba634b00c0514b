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
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .errors import BadSpec, PortInUse

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
    pages = spec.get("pages", {})
    resources = spec.get("resources", {})
    if not isinstance(pages, dict) or not isinstance(resources, dict):
        raise BadSpec("pages and resources must be objects")
    for path, page in pages.items():
        if not path.startswith("/"):
            raise BadSpec(f"page path must start with /: {path!r}")
        subs = page.get("subresources", [])
        if not isinstance(subs, list):
            raise BadSpec(f"subresources of {path} must be a list")
        for sub in subs:
            if sub not in resources:
                raise BadSpec(f"page {path} references undeclared resource {sub}")
    for path, res in resources.items():
        if not path.startswith("/"):
            raise BadSpec(f"resource path must start with /: {path!r}")
        size = res.get("size", 0)
        if not isinstance(size, int) or size < 0:
            raise BadSpec(f"resource {path} has bad size {size!r}")
    if "delay_ms" in spec and (
        not isinstance(spec["delay_ms"], (int, float)) or spec["delay_ms"] < 0
    ):
        raise BadSpec("delay_ms must be a non-negative number")


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
        want_port = port if port is not None else int(spec.get("port", 0))
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                server._handle_get(self)

            def do_POST(self):
                server._handle_post(self)

        try:
            self._httpd = ThreadingHTTPServer(("127.0.0.1", want_port), Handler)
        except OSError as exc:
            raise PortInUse(f"cannot bind port {want_port}: {exc}") from exc
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def start(self) -> "FixtureServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def mutate(self, pages: dict | None = None, resources: dict | None = None) -> None:
        """Replace page subresource lists / resource specs; bump versions."""
        with self._lock:
            for path, page in (pages or {}).items():
                self.pages[path] = dict(page)
                self.versions[path] = self.versions.get(path, 0) + 1
            for path, res in (resources or {}).items():
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
        if path != "/__mutate":
            self._send(handler, 404, {"Content-Type": "text/plain"}, b"not found")
            return
        length = int(handler.headers.get("Content-Length", 0))
        try:
            payload = json.loads(handler.rfile.read(length) or b"{}")
        except json.JSONDecodeError:
            self._send(handler, 400, {"Content-Type": "text/plain"}, b"bad json")
            return
        self.mutate(payload.get("pages"), payload.get("resources"))
        self._send(handler, 200, {"Content-Type": "application/json"}, b'{"ok": true}')

    def request_counts(self) -> dict[str, int]:
        with self._lock:
            counts: dict[str, int] = {}
            for path, _status in self.request_log:
                counts[path] = counts.get(path, 0) + 1
            return counts


def load_fixture_spec(path: str | Path) -> dict:
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadSpec(f"fixture spec is not valid JSON: {exc}") from exc
    _validate_spec(spec)
    return spec


@contextmanager
def fixture_server(spec: dict | str | Path, port: int | None = None):
    """Context manager: start the fixture server, yield it, stop it."""
    if not isinstance(spec, dict):
        spec = load_fixture_spec(spec)
    server = FixtureServer(spec, port=port).start()
    try:
        yield server
    finally:
        server.stop()
