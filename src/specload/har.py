"""HAR 1.2 import (one-way: HAR in, trace visits out)."""

from __future__ import annotations

import json
import logging
from datetime import datetime

from .errors import MalformedUrl, SchemaError
from .headers import directives_from_pairs, kind_from_mime, utc_timestamp
from .trace import PageVisit, ResourceRecord
from .urls import normalize_url

log = logging.getLogger(__name__)


def _parse_iso(value: str | None) -> float | None:
    if not value:
        return None
    if not isinstance(value, str):
        raise SchemaError(f"HAR startedDateTime is not a string: {value!r}")
    try:
        return utc_timestamp(datetime.fromisoformat(value.replace("Z", "+00:00")))
    except ValueError:
        return None


def _number(value, name: str) -> float:
    if value is None:
        return 0.0
    # Within 2**53 of 0, so a float holds it: not a bool, nan, an infinity or 10**400.
    if type(value) is bool or not isinstance(value, (int, float)) or not -(2**53) <= value <= 2**53:
        raise SchemaError(f"HAR {name} is not a number within 2**53 of 0: {value!r}")
    return value


def _objects(items, name: str) -> list[dict]:
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise SchemaError(f"HAR {name} must hold only objects")
    return items


def _ref(item: dict, key: str) -> str | None:
    ref = item.get(key)
    if ref is not None and not isinstance(ref, str):
        raise SchemaError(f"HAR {key} is not a string: {ref!r}")
    return ref


def _record_from_entry(entry: dict) -> ResourceRecord | None:
    request, response = _objects([entry.get("request", {}), entry.get("response", {})], "entry")
    try:
        url = normalize_url(request.get("url", ""))
    except MalformedUrl:
        return None
    (content,) = _objects([response.get("content") or {}], "response")
    size = content.get("size")
    if size is None or _number(size, "content.size") < 0:
        size = _number(response.get("bodySize"), "bodySize")
    size = max(0, int(size))
    return ResourceRecord(
        url=url,
        kind=kind_from_mime(content.get("mimeType", "")),
        size_bytes=size,
        cache_directives=directives_from_pairs(_objects(response.get("headers") or [], "headers")),
        fetched_at=_parse_iso(entry.get("startedDateTime")) or 0.0,
    )


def import_har(path) -> list[PageVisit]:
    """Convert a HAR 1.2 capture into page visits.

    One visit per HAR page: the page's first HTML entry becomes the main
    resource, every other entry of that page a subresource.  Two pages
    with one id are a ``SchemaError``.  Entries without a page reference
    are dropped and pages without an HTML entry are skipped; both counts
    are reported through the module logger.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not a HAR file: {exc.msg}") from exc
    logdoc = doc.get("log") if isinstance(doc, dict) else None
    if not isinstance(logdoc, dict):
        raise SchemaError("not a HAR file: missing log object")
    pages = _objects(logdoc.get("pages") or [], "pages")
    entries = _objects(logdoc.get("entries") or [], "entries")

    ids = [ref for ref in (_ref(page, "id") for page in pages) if ref]
    by_page: dict[str, list[dict]] = {ref: [] for ref in ids}
    if len(by_page) < len(ids):
        # Each would take all of that id's entries: one visit twice.
        raise SchemaError(f"HAR pages share the id {max(ids, key=ids.count)!r}")
    dropped = 0
    for entry in entries:
        ref = _ref(entry, "pageref")
        if ref in by_page:
            by_page[ref].append(entry)
        else:
            dropped += 1
    if dropped:
        log.warning("dropped %d HAR entries with no page reference", dropped)

    visits: list[PageVisit] = []
    skipped_pages = 0
    for page in pages:
        page_entries = by_page.get(page.get("id"), [])
        records = []
        for entry in page_entries:
            rec = _record_from_entry(entry)
            if rec is not None:
                records.append((entry, rec))
        main_idx = next((i for i, (_, r) in enumerate(records) if r.kind == "html"), None)
        if main_idx is None:
            skipped_pages += 1
            continue
        main_entry, main = records[main_idx]
        main_start = _parse_iso(main_entry.get("startedDateTime")) or 0.0
        main_end = main_start + _number(main_entry.get("time"), "time") / 1000.0
        subs: list[ResourceRecord] = []
        offsets: list[float] = []
        seen = {main.url}
        for i, (entry, rec) in enumerate(records):
            if i == main_idx or rec.url in seen:
                continue
            seen.add(rec.url)
            subs.append(rec)
            start = _parse_iso(entry.get("startedDateTime"))
            offsets.append(max(0.0, (start - main_end) * 1000.0) if start else 0.0)
        ts = _parse_iso(page.get("startedDateTime")) or main_start
        visits.append(
            PageVisit(
                user_id="har",
                timestamp=ts,
                main=main,
                subresources=tuple(subs),
                discovery_offsets=tuple(offsets),
            )
        )
    if skipped_pages:
        log.warning("skipped %d HAR pages with no HTML entry", skipped_pages)
    visits.sort(key=lambda v: v.timestamp)
    return visits
