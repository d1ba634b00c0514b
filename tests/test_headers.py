from __future__ import annotations

import time

import pytest
from urllib3 import HTTPHeaderDict

from specload.har import _parse_iso
from specload.headers import (
    directives_from_mapping,
    directives_from_pairs,
    kind_from_mime,
    parse_http_date,
)


@pytest.mark.parametrize(
    "mime,kind",
    [
        ("text/html", "html"),
        ("text/html; charset=utf-8", "html"),
        ("application/xhtml+xml", "html"),
        ("application/javascript", "script"),
        ("text/javascript", "script"),
        ("text/css", "stylesheet"),
        ("image/png", "image"),
        ("image/svg+xml", "image"),
        ("font/woff2", "other"),
        (None, "other"),
        ("", "other"),
    ],
)
def test_kind_from_mime(mime, kind):
    assert kind_from_mime(mime) == kind


def test_parse_http_date():
    assert parse_http_date("Wed, 21 Oct 2015 07:28:00 GMT") == 1445412480.0
    assert parse_http_date("nonsense") is None
    assert parse_http_date(None) is None


@pytest.mark.parametrize("zone, offset", [("UTC", 0), ("America/New_York", 5 * 3600)])
def test_a_date_without_an_offset_is_read_as_utc(zone, offset, monkeypatch):
    monkeypatch.setenv("TZ", zone)
    time.tzset()
    try:
        assert time.timezone == offset  # the zone is in effect
        assert _parse_iso("2024-03-01T10:00:00.000") == 1709287200.0
        assert parse_http_date("Fri, 01 Mar 2024 10:00:00 -0000") == 1709287200.0
    finally:
        monkeypatch.undo()
        time.tzset()


def test_cache_control_parsing():
    d = directives_from_mapping({"Cache-Control": "no-store, no-cache, max-age=120"})
    assert d.no_store and d.no_cache and d.max_age == 120

    d = directives_from_mapping({"Cache-Control": "public, max-age=0"})
    assert d.max_age == 0 and not d.no_cache

    d = directives_from_mapping({"Cache-Control": 'no-cache="set-cookie"'})
    assert d.no_cache


def test_expires_and_validators():
    d = directives_from_mapping(
        {
            "Expires": "Wed, 21 Oct 2015 07:28:00 GMT",
            "ETag": '"abc"',
        }
    )
    assert d.expires == 1445412480.0
    assert d.has_validator

    d = directives_from_mapping({"Last-Modified": "Wed, 21 Oct 2015 07:28:00 GMT"})
    assert d.last_modified == 1445412480.0
    assert d.has_validator

    assert not directives_from_mapping({}).has_validator


def test_pairs_adapter_is_case_insensitive():
    pairs = [
        {"name": "cache-control", "value": "max-age=60"},
        {"name": "etag", "value": "W/\"v1\""},
    ]
    d = directives_from_pairs(pairs)
    assert d.max_age == 60
    assert d.has_validator


def test_repeated_header_reads_the_same_from_har_and_live():
    # A live response's repeated field lines reach the fetcher as one
    # urllib3 header mapping, which joins them.
    lines = [("Cache-Control", "max-age=60"), ("cache-control", "no-store")]
    live = HTTPHeaderDict(lines)
    har = directives_from_pairs([{"name": name, "value": value} for name, value in lines])
    assert har == directives_from_mapping(live)
    assert har.no_store and har.max_age == 60
