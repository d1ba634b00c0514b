"""HTTP response header parsing shared by the HAR importer and live loader."""

from __future__ import annotations

from datetime import datetime, timezone
from email.utils import parsedate_to_datetime

from urllib3 import HTTPHeaderDict

from .trace import CacheDirectives


def kind_from_mime(mime: str | None) -> str:
    mime = (mime or "").split(";")[0].strip().lower()
    if mime in ("text/html", "application/xhtml+xml"):
        return "html"
    if "javascript" in mime or "ecmascript" in mime:
        return "script"
    if mime == "text/css":
        return "stylesheet"
    if mime.startswith("image/"):
        return "image"
    return "other"


def utc_timestamp(moment: datetime) -> float:
    """Epoch seconds of ``moment``, read as UTC when it has no offset, so
    that a trace does not depend on the machine's time zone."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def parse_http_date(value: str | None) -> float | None:
    if not value:
        return None
    try:
        return utc_timestamp(parsedate_to_datetime(value))
    except (TypeError, ValueError):
        return None


def directives_from_mapping(headers) -> CacheDirectives:
    """Cache directives from a case-insensitive header mapping."""
    cc = (headers.get("Cache-Control") or "").lower()
    tokens = [t.strip() for t in cc.split(",") if t.strip()]
    no_store = "no-store" in tokens
    no_cache = any(t == "no-cache" or t.startswith("no-cache=") for t in tokens)
    max_age = None
    for t in tokens:
        if t.startswith("max-age="):
            try:
                max_age = int(t.split("=", 1)[1])
            except ValueError:
                pass
    last_modified = parse_http_date(headers.get("Last-Modified"))
    return CacheDirectives(
        no_store=no_store,
        no_cache=no_cache,
        max_age=max_age,
        expires=parse_http_date(headers.get("Expires")),
        has_validator=bool(headers.get("ETag")) or last_modified is not None,
        last_modified=last_modified,
    )


def directives_from_pairs(pairs: list) -> CacheDirectives:
    """Cache directives from HAR-style [{name, value}] pairs, read as a
    live response's headers are: a repeated name's values join with ", "."""
    headers = HTTPHeaderDict()
    for h in pairs or []:
        headers.add(str(h.get("name", "")), str(h.get("value", "")))
    return directives_from_mapping(headers)
