from __future__ import annotations

import json
from datetime import datetime

import pytest

from specload.errors import SchemaError
from specload.har import import_har


def _epoch(iso: str) -> float:
    return datetime.fromisoformat(iso.replace("Z", "+00:00")).timestamp()


def _entry(pageref, url, mime, started, time_ms=50, size=1000, headers=()):
    return {
        "pageref": pageref,
        "startedDateTime": started,
        "time": time_ms,
        "request": {"url": url},
        "response": {
            "status": 200,
            "headers": list(headers),
            "content": {"size": size, "mimeType": mime},
        },
    }


def _write_har(tmp_path, doc):
    path = tmp_path / "capture.har"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _sample_har(tmp_path):
    doc = {
        "log": {
            "version": "1.2",
            "pages": [
                {"id": "page_1", "startedDateTime": "2024-03-01T10:00:00.000Z"},
                {"id": "page_2", "startedDateTime": "2024-03-01T09:00:00.000Z"},
                {"id": "page_0", "startedDateTime": "2024-03-01T09:30:00.000Z"},
            ],
            "entries": [
                _entry(
                    "page_1",
                    "http://site-a.test/",
                    "text/html",
                    "2024-03-01T10:00:00.000Z",
                    time_ms=120,
                    size=5000,
                ),
                _entry(
                    "page_1",
                    "http://site-a.test/app.js",
                    "application/javascript",
                    "2024-03-01T10:00:00.300Z",
                    size=2000,
                    headers=[{"name": "Cache-Control", "value": "max-age=60"}],
                ),
                _entry(
                    "page_1",
                    "http://site-a.test/style.css",
                    "text/css",
                    "2024-03-01T10:00:00.400Z",
                ),
                # duplicate URL: kept once
                _entry(
                    "page_1",
                    "http://site-a.test/style.css",
                    "text/css",
                    "2024-03-01T10:00:00.900Z",
                ),
                # unparseable URL: dropped silently
                _entry("page_1", "mailto:ops@site-a.test", "text/css", None),
                # image-only page: no html entry, page skipped
                _entry(
                    "page_2",
                    "http://site-b.test/logo.png",
                    "image/png",
                    "2024-03-01T09:00:00.000Z",
                ),
                _entry(
                    "page_0",
                    "http://site-c.test/",
                    "text/html; charset=utf-8",
                    "2024-03-01T09:30:00.000Z",
                ),
                # no pageref at all: dropped
                _entry(None, "http://stray.test/x.js", "text/javascript", None),
            ],
        }
    }
    return _write_har(tmp_path, doc)


def test_import_structure_and_offsets(tmp_path):
    visits = import_har(_sample_har(tmp_path))
    assert len(visits) == 2  # page_2 has no html entry

    # sorted by timestamp: page_0 (09:30) before page_1 (10:00)
    assert visits[0].main.url == "http://site-c.test/"
    assert visits[0].subresources == ()

    v = visits[1]
    assert v.user_id == "har"
    assert v.timestamp == _epoch("2024-03-01T10:00:00.000Z")
    assert v.main.url == "http://site-a.test/"
    assert v.main.kind == "html"
    assert v.main.size_bytes == 5000
    assert [s.url for s in v.subresources] == [
        "http://site-a.test/app.js",
        "http://site-a.test/style.css",
    ]
    # main ends at 10:00:00.120; subs start at .300 and .400
    assert v.discovery_offsets[0] == pytest.approx(180.0, abs=1e-3)
    assert v.discovery_offsets[1] == pytest.approx(280.0, abs=1e-3)
    assert v.subresources[0].cache_directives.max_age == 60


def test_size_falls_back_to_body_size(tmp_path):
    entry = _entry("p", "http://s.test/", "text/html", "2024-03-01T10:00:00.000Z")
    entry["response"]["content"]["size"] = -1
    entry["response"]["bodySize"] = 777
    doc = {
        "log": {
            "pages": [{"id": "p", "startedDateTime": "2024-03-01T10:00:00.000Z"}],
            "entries": [entry],
        }
    }
    visits = import_har(_write_har(tmp_path, doc))
    assert visits[0].main.size_bytes == 777


def test_missing_sub_start_means_zero_offset(tmp_path):
    doc = {
        "log": {
            "pages": [{"id": "p", "startedDateTime": "2024-03-01T10:00:00.000Z"}],
            "entries": [
                _entry("p", "http://s.test/", "text/html", "2024-03-01T10:00:00.000Z"),
                _entry("p", "http://s.test/a.js", "text/javascript", None),
            ],
        }
    }
    visits = import_har(_write_har(tmp_path, doc))
    assert visits[0].discovery_offsets == (0.0,)


def test_rejects_non_har_files(tmp_path):
    bad_json = tmp_path / "x.har"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        import_har(bad_json)

    no_log = _write_har(tmp_path, {"notlog": {}})
    with pytest.raises(SchemaError):
        import_har(no_log)


def _with_main_entry(**changes):
    """A one-page HAR document whose HTML entry has ``changes`` applied."""
    entry = _entry("p", "http://s.test/", "text/html", "2024-03-01T10:00:00.000Z")
    for path, value in changes.items():
        *parents, key = path.split("__")
        target = entry
        for name in parents:
            target = target[name]
        target[key] = value
    page = {"id": "p", "startedDateTime": "2024-03-01T10:00:00.000Z"}
    return {"log": {"pages": [page], "entries": [entry]}}


@pytest.mark.parametrize(
    "doc",
    [
        [{"log": {}}],
        _with_main_entry(response__content__size="12"),
        _with_main_entry(response__content__size=float("inf")),
        _with_main_entry(response__content__size=True),
        _with_main_entry(response__bodySize="12", response__content__size=-1),
        _with_main_entry(time="fast"),
        _with_main_entry(time=True),
        _with_main_entry(startedDateTime=1709287200),
        {"log": {"pages": [1], "entries": []}},
        {"log": {"pages": [], "entries": [1]}},
        _with_main_entry(request=[]),
        _with_main_entry(response__headers=[1]),
        _with_main_entry(response__content=5),
        _with_main_entry(pageref=["p"]),
        {"log": {"pages": [{"id": 1}], "entries": []}},
    ],
    ids=[
        "array", "string-size", "infinite-size", "bool-size", "string-body-size", "string-time",
        "bool-time", "numeric-start",
        "number-page", "number-entry", "array-request", "number-header", "number-content",
        "array-pageref", "number-id",
    ],
)
def test_malformed_har_is_a_schema_error(tmp_path, doc):
    with pytest.raises(SchemaError, match="HAR"):
        import_har(_write_har(tmp_path, doc))


def test_two_pages_with_one_id_are_a_schema_error(tmp_path):
    doc = _with_main_entry()
    page = doc["log"]["pages"][0]
    doc["log"]["pages"].append({**page, "startedDateTime": "2024-03-01T11:00:00.000Z"})
    with pytest.raises(SchemaError, match="HAR pages share the id 'p'"):
        import_har(_write_har(tmp_path, doc))
