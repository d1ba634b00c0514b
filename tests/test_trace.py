from __future__ import annotations

import gc
import json
import math
import tracemalloc

import pytest

import specload.trace as trace_mod
from conftest import rec, visit
from specload.errors import SchemaError
from specload.synth import SynthParams, generate_synthetic
from specload.trace import (
    RESOURCE_KINDS,
    CacheDirectives,
    PageVisit,
    Trace,
    load_trace,
    save_trace,
)
from specload.urls import normalize_url


def test_roundtrip(tmp_path):
    visits = [
        visit("http://a.com/", ["http://a.com/1.js", "http://a.com/2.css"], ts=100.0,
              max_age=60, has_validator=True),
        visit("http://b.org/", ["http://b.org/x.png"], ts=50.0, no_cache=True,
              offsets=[120.0]),
    ]
    path = tmp_path / "t.jsonl"
    save_trace(Trace(visits=visits), path)
    back = load_trace(path)
    assert len(back.visits) == 2
    # loader sorts by timestamp
    assert [v.timestamp for v in back.visits] == [50.0, 100.0]
    by_ts = {v.timestamp: v for v in back.visits}
    assert by_ts[100.0] == visits[0]
    assert by_ts[50.0] == visits[1]


def test_save_is_deterministic(tmp_path):
    v = visit("http://a.com/", ["http://a.com/1.js"], ts=1.0, max_age=30)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_trace(Trace(visits=[v]), p1)
    save_trace(Trace(visits=[v]), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sparse_directive_serialization():
    assert CacheDirectives().to_json() == {}
    full = CacheDirectives(no_store=True, no_cache=True, max_age=5, expires=9.0,
                           has_validator=True, last_modified=1.0)
    assert set(full.to_json()) == {
        "no_store", "no_cache", "max_age", "expires", "has_validator", "last_modified",
    }
    assert CacheDirectives.from_json(full.to_json()) == full


def test_offsets_omitted_when_all_zero(tmp_path):
    v = visit("http://a.com/", ["http://a.com/1.js"], ts=1.0, offsets=[0.0])
    assert "offsets" not in v.to_json()
    v2 = visit("http://a.com/", ["http://a.com/1.js"], ts=1.0, offsets=[70.0])
    assert v2.to_json()["offsets"] == [70.0]


def test_offsets_default_to_zero():
    v = visit("http://a.com/", ["http://a.com/1.js", "http://a.com/2.js"], ts=1.0)
    assert v.discovery_offsets == ()


def test_visit_validation():
    with pytest.raises(ValueError):
        visit("http://a.com/", ["http://a.com/x", "http://a.com/x"], ts=0.0)
    with pytest.raises(ValueError):
        visit("http://a.com/", ["http://a.com/x"], ts=0.0, offsets=[1.0, 2.0])
    with pytest.raises(ValueError):
        visit("http://a.com/", ["http://a.com/x"], ts=0.0, offsets=[-1.0])
    with pytest.raises(ValueError):
        PageVisit(user_id="u", timestamp=0.0, main=rec("http://a.com/"), subresources=())
    with pytest.raises(ValueError):
        rec("http://a.com/x", kind="wasm")
    with pytest.raises(ValueError):
        rec("http://a.com/x", size=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_visit_rejects_non_finite_timestamp_and_offsets(bad):
    with pytest.raises(ValueError, match="timestamp must be finite"):
        visit("http://a.com/", ["http://a.com/x"], ts=bad)
    with pytest.raises(ValueError, match="discovery offsets must be finite"):
        visit("http://a.com/", ["http://a.com/x"], ts=0.0, offsets=[bad])


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(visit("http://a.com/", [], ts=0.0).to_json())
    path.write_text(good + "\n\n{not json\n")
    with pytest.raises(SchemaError) as err:
        load_trace(path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_load_reports_semantic_errors_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    broken = {"user": "u", "ts": 1.0, "main": {"url": "http://a.com/", "kind": "html"}, "subs": []}
    path.write_text(json.dumps(broken) + "\n")  # main missing size
    with pytest.raises(SchemaError) as err:
        load_trace(path)
    assert err.value.line == 1


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "t.jsonl"
    v = visit("http://a.com/", [], ts=0.0)
    path.write_text("\n" + json.dumps(v.to_json()) + "\n\n")
    assert len(load_trace(path).visits) == 1


def _raw_visit(main_url, sub_urls, ts=0.0) -> str:
    return json.dumps(
        {
            "user": "u",
            "ts": ts,
            "main": {"url": main_url, "kind": "html", "size": 1},
            "subs": [{"url": u, "kind": "script", "size": 1} for u in sub_urls],
        }
    )


def test_load_canonicalises_urls(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        _raw_visit("HTTP://A.COM:80/index.html#top", ["https://CDN.A.com:443/app.js?v=1"]) + "\n"
    )
    v = load_trace(path).visits[0]
    assert v.main.url == "http://a.com/index.html"
    assert [r.url for r in v.subresources] == ["https://cdn.a.com/app.js?v=1"]


@pytest.mark.parametrize(
    "subs",
    [
        ["http://a.com/x.js", "HTTP://a.com:80/x.js#frag"],  # collapse to one URL
        ["not a url"],
    ],
)
def test_load_rejects_bad_subresource_urls_with_line(tmp_path, subs):
    path = tmp_path / "bad.jsonl"
    lines = [_raw_visit("http://a.com/", ["http://a.com/x.js"]), _raw_visit("http://a.com/", subs)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_trace(path)
    assert err.value.line == 2


# --- cache directives shared per load ------------------------------------

_CCS = [
    {"max_age": 604800},
    {"max_age": 604800.0},
    {"max_age": 1},
    {"has_validator": True},
    {"no_store": True},
    {},
    {"expires": 0.0},
    {"expires": -0.0},
    {"has_validator": True, "max_age": 604800},
]


def _canonical_line(ts: float, ccs) -> str:
    obj = {
        "user": "u",
        "ts": ts,
        "main": {"url": "http://a.com/", "kind": "html", "size": 1, "cc": ccs[0], "fetched_at": ts},
        "subs": [
            {"url": f"http://a.com/{i}.js", "kind": "script", "size": 1, "cc": cc, "fetched_at": ts}
            for i, cc in enumerate(ccs[1:])
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_save_of_load_gives_the_same_bytes(tmp_path):
    # Each directive set twice in one file: sharing must not merge
    # values that are equal but print differently (604800 / 604800.0,
    # 0.0 / -0.0).
    lines = [_canonical_line(1.0, _CCS), _canonical_line(2.0, _CCS[::-1])]
    path, out = tmp_path / "t.jsonl", tmp_path / "out.jsonl"
    path.write_text("\n".join(lines) + "\n")
    save_trace(load_trace(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_equal_cc_shares_one_object_within_a_load_only(tmp_path):
    cc = {"has_validator": True, "max_age": 60}
    path = tmp_path / "t.jsonl"
    path.write_text(
        _canonical_line(1.0, [cc, cc, {"max_age": 60.0, "has_validator": True}]) + "\n"
        + _canonical_line(2.0, [cc, {}]) + "\n"
    )
    first, second = load_trace(path).visits
    shared = first.main.cache_directives
    assert first.subresources[0].cache_directives is shared
    assert second.main.cache_directives is shared
    assert first.subresources[1].cache_directives is not shared
    again = load_trace(path).visits[0].main.cache_directives
    assert again == shared and again is not shared


def test_unhashable_cc_values_load_as_before(tmp_path):
    cc = {"no_store": [60], "has_validator": {"at": 1}}
    path = tmp_path / "t.jsonl"
    path.write_text(_canonical_line(1.0, [cc, cc]) + "\n")
    v = load_trace(path).visits[0]
    assert v.main.cache_directives == CacheDirectives.from_json(cc)
    assert v.main.cache_directives is not v.subresources[0].cache_directives


# --- one-pass ingest: same errors, same bytes ----------------------------


def _res(url="http://a.com/x.js", kind="script", size=1, **extra) -> dict:
    return {"url": url, "kind": kind, "size": size, **extra}


def _vis(main=None, subs=None, **extra) -> dict:
    return {
        "user": "u",
        "ts": 1.0,
        "main": main or _res("http://a.com/", "html"),
        "subs": [_res()] if subs is None else subs,
        **extra,
    }


def _without(obj: dict, *keys) -> dict:
    return {k: v for k, v in obj.items() if k not in keys}


def _with_cc(**cc) -> dict:
    return _vis(subs=[_res(cc=cc)])


# Each malformed visit with the message ``load_trace`` gave before the
# record parsers validated inline.  Several break two rules at once, to
# pin which check comes first.
_MALFORMED = {
    "visit_missing_ts": (_without(_vis(), "ts"), "visit missing 'ts'"),
    "visit_missing_user_and_subs": (_without(_vis(), "user", "subs"), "visit missing 'user'"),
    "resource_missing_size": (_vis(subs=[_without(_res(), "size")]), "resource missing 'size'"),
    "resource_missing_kind_and_size": (
        _vis(subs=[_without(_res(), "kind", "size")]),
        "resource missing 'kind'",
    ),
    "bad_kind": (_vis(subs=[_res(kind="wasm")]), "unknown resource kind 'wasm'"),
    "bad_kind_and_negative_size": (
        _vis(subs=[_res(kind="wasm", size=-1)]),
        "unknown resource kind 'wasm'",
    ),
    "unhashable_kind": (_vis(subs=[_res(kind=["script"])]), "unknown resource kind ['script']"),
    "negative_size": (_vis(subs=[_res(size=-5)]), "size_bytes must be >= 0"),
    "size_not_a_number": (
        _vis(subs=[_res(size="big")]),
        "invalid literal for int() with base 10: 'big'",
    ),
    "subs_not_a_list": (_vis(subs={"a": 1}), "subs must be a list"),
    "offsets_not_a_list": (_vis(offsets=5), "offsets must be a list"),
    "offsets_length_mismatch": (_vis(offsets=[1.0, 2.0]), "discovery_offsets length mismatch"),
    "negative_offset": (_vis(offsets=[-1.0]), "discovery offsets must be >= 0"),
    "offset_not_a_number": (_vis(offsets=["x"]), "could not convert string to float: 'x'"),
    "relative_url": (_vis(subs=[_res(url="/x.js")]), "not an absolute URL: '/x.js'"),
    "url_not_a_string": (_vis(subs=[_res(url=5)]), "not a URL: 5"),
    "url_unhashable": (_vis(subs=[_res(url=["http://a.com/"])]), "not a URL: ['http://a.com/']"),
    "bad_url_before_bad_kind": (
        _vis(subs=[_res(url="x", kind="wasm")]),
        "not an absolute URL: 'x'",
    ),
    "urls_collapse": (
        _vis(subs=[_res(url="http://a.com/x.js"), _res(url="HTTP://A.com:80/x.js#f")]),
        "duplicate subresource URL within one visit",
    ),
    "main_not_html": (_vis(main=_res("http://a.com/")), "main resource must be html"),
    "main_not_html_and_duplicates": (
        _vis(main=_res("http://a.com/"), subs=[_res(), _res()]),
        "main resource must be html",
    ),
    "cc_not_an_object": (_vis(subs=[_res(cc=[1])]), "cc must be an object"),
    "cc_string": (_with_cc(max_age="60"), "cc max_age must be a finite number, not '60'"),
    "cc_list": (_with_cc(max_age=[60]), "cc max_age must be a finite number, not [60]"),
    "cc_bool": (_with_cc(max_age=True), "cc max_age must be a finite number, not True"),
    "cc_huge": (_with_cc(expires=10**400), f"cc expires must be a finite number, not {10**400}"),
    "cc_nan": (
        _with_cc(last_modified=math.nan),
        "cc last_modified must be a finite number, not nan",
    ),
    "fetched_at_not_a_number": (
        _vis(subs=[_res(fetched_at="noon")]),
        "could not convert string to float: 'noon'",
    ),
    "resource_not_an_object": (_vis(subs=["http://a.com/x.js"]), "resource must be an object"),
    "visit_not_an_object": ([1, 2], "visit must be an object"),
    "ts_not_a_number": (_vis(ts="soon"), "could not convert string to float: 'soon'"),
    "bad_size_before_bad_cc": (
        _vis(subs=[_res(size="big", cc=1)]),
        "invalid literal for int() with base 10: 'big'",
    ),
    "bad_cc_before_bad_fetched_at": (
        _vis(subs=[_res(cc=1, fetched_at="noon")]),
        "cc must be an object",
    ),
    "bad_fetched_at_before_bad_kind": (
        _vis(subs=[_res(kind="wasm", fetched_at="noon")]),
        "could not convert string to float: 'noon'",
    ),
    "bad_ts_before_bad_main": (
        _vis(ts="soon", main=_res("/", "wasm")),
        "could not convert string to float: 'soon'",
    ),
    "bad_offsets_before_bad_main": (
        _vis(offsets={}, main=_res("/", "wasm")),
        "offsets must be a list",
    ),
    "bad_main_before_bad_sub": (
        _vis(main=_res("http://a.com/", "wasm"), subs=[_res(size=-1)]),
        "unknown resource kind 'wasm'",
    ),
    "bad_sub_before_bad_offset": (
        _vis(subs=[_res(size=-1)], offsets=["x"]),
        "size_bytes must be >= 0",
    ),
    "duplicates_before_length_mismatch": (
        _vis(subs=[_res(), _res()], offsets=[1.0]),
        "duplicate subresource URL within one visit",
    ),
    "nan_ts": (_vis(ts=math.nan), "timestamp must be finite"),
    "infinite_ts": (_vis(ts=math.inf), "timestamp must be finite"),
    "minus_infinite_ts": (_vis(ts=-math.inf), "timestamp must be finite"),
    "nan_ts_before_bad_main": (
        _vis(ts=math.nan, main=_res("http://a.com/")),
        "timestamp must be finite",
    ),
    "bad_main_record_before_nan_ts": (
        _vis(ts=math.nan, main=_res("/", "html")),
        "not an absolute URL: '/'",
    ),
    "nan_offset": (_vis(offsets=[math.nan]), "discovery offsets must be finite"),
    "infinite_offset": (_vis(offsets=[math.inf]), "discovery offsets must be finite"),
    "minus_infinite_offset": (_vis(offsets=[-math.inf]), "discovery offsets must be finite"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_records_raise_the_same_schema_error(tmp_path, case):
    obj, message = _MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_vis()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(SchemaError) as err:
        load_trace(path)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {message}"


def test_save_of_load_gives_the_same_bytes_on_a_synth_trace(tmp_path):
    path, out = tmp_path / "t.jsonl", tmp_path / "out.jsonl"
    save_trace(generate_synthetic(SynthParams(visits=400, seed=11)), path)
    loaded = load_trace(path)
    save_trace(loaded, out)
    assert out.read_bytes() == path.read_bytes()
    # Records built without __init__ still compare and hash like built ones.
    first = loaded.visits[0]
    built = PageVisit(
        user_id=first.user_id,
        timestamp=first.timestamp,
        main=first.main,
        subresources=first.subresources,
        discovery_offsets=first.discovery_offsets,
    )
    assert first == built and hash(first) == hash(built)


def test_equal_raw_urls_are_normalised_once_per_load(tmp_path, monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return normalize_url(raw)

    monkeypatch.setattr(trace_mod, "normalize_url", counting)
    path = tmp_path / "t.jsonl"
    lines = [_raw_visit("HTTP://A.COM/", ["http://a.com/x.js"], ts=t) for t in (1.0, 2.0)]
    path.write_text("\n".join(lines) + "\n")
    first, second = load_trace(path).visits
    assert first.main.url == second.main.url == "http://a.com/"
    assert sorted(calls) == ["HTTP://A.COM/", "http://a.com/x.js"]
    load_trace(path)
    assert len(calls) == 4  # nothing is kept between loads


# --- one object per distinct value within a load -------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_equal_values_share_one_object_within_a_load_only(tmp_path):
    at = 1265000000.5

    def line(url: str) -> str:
        return _dumps(
            _vis(
                user="someone",
                ts=at,
                main=_res(url, "html", 123456, fetched_at=at),
                subs=[_res(f"http://a.com/{i}.js", "script", 123456, fetched_at=at) for i in (1, 2)],
            )
        )

    path = tmp_path / "t.jsonl"
    path.write_text(line("http://a.com/") + "\n" + line("http://a.com/b") + "\n")
    first, second = load_trace(path).visits
    records = [first.main, *first.subresources, second.main, *second.subresources]
    assert first.user_id is second.user_id
    assert first.timestamp is second.timestamp
    assert all(r.size_bytes is first.main.size_bytes for r in records)
    assert all(r.fetched_at is first.timestamp for r in records)
    assert first.main.kind is second.main.kind is RESOURCE_KINDS[0]
    assert all(r.kind is RESOURCE_KINDS[1] for r in first.subresources + second.subresources)
    again = load_trace(path).visits[0]
    assert again.user_id == first.user_id and again.user_id is not first.user_id
    assert again.timestamp == first.timestamp and again.timestamp is not first.timestamp
    assert again.main.size_bytes == first.main.size_bytes
    assert again.main.size_bytes is not first.main.size_bytes


@pytest.mark.parametrize("size", [12, 12.0])
def test_save_of_load_keeps_each_number_as_read(tmp_path, size):
    # Sharing must not merge numbers that are equal but print
    # differently: 0.0 and -0.0, or an int size and an equal float time.
    ats = [0.0, -0.0, 1.0, 12.0, math.nan]
    lines = [
        _dumps(
            _vis(
                ts=ts,
                main=_res("http://a.com/", "html", size, cc={}, fetched_at=ts),
                subs=[
                    _res(f"http://a.com/{i}.js", size=size, cc={}, fetched_at=at)
                    for i, at in enumerate(ats)
                ],
            )
        )
        for ts in (1.0, 2.0, 12.0)
    ]
    path, out = tmp_path / "t.jsonl", tmp_path / "out.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    save_trace(load_trace(path), out)
    unshared = [_dumps(PageVisit.from_json(json.loads(line)).to_json()) for line in lines]
    assert out.read_text() == "".join(line + "\n" for line in unshared)
    if type(size) is int:
        assert out.read_bytes() == path.read_bytes()


def test_a_loaded_trace_retains_well_under_unshared_records(tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(generate_synthetic(SynthParams(visits=400, seed=0)), path)
    lines = path.read_text().splitlines()

    def retained(build) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            kept = build()
            size, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept
        return size

    shared = retained(lambda: load_trace(path))
    unshared = retained(lambda: [PageVisit.from_json(json.loads(line)) for line in lines])
    assert shared <= 0.5 * unshared


@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_the_collector_and_restores_the_callers_state(
    tmp_path, monkeypatch, enabled
):
    during = []

    def spy(raw):
        during.append(gc.isenabled())
        return normalize_url(raw)

    monkeypatch.setattr(trace_mod, "normalize_url", spy)
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(json.dumps(_vis()) + "\n")
    bad.write_text(json.dumps(_vis()) + "\n" + json.dumps(_vis(ts="soon")) + "\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_trace(good)
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            load_trace(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during and not any(during)
