from __future__ import annotations

import copy
import dataclasses
import gc
import json
import math
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specload.trace as trace_mod
from conftest import rec, visit
from specload.errors import SchemaError
from specload.synth import SynthParams, generate_synthetic
from specload.trace import (
    RESOURCE_KINDS,
    CacheDirectives,
    PageVisit,
    ResourceRecord,
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


# Each malformed visit with the message ``load_trace`` gives.  Several
# break two rules at once, to pin which check comes first.
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
    "infinite_size": (_vis(subs=[_res(size=1e400)]), "size_bytes must be an integer, not inf"),
    "float_size": (_vis(subs=[_res(size=5.7)]), "size_bytes must be an integer, not 5.7"),
    "whole_float_size": (_vis(subs=[_res(size=5.0)]), "size_bytes must be an integer, not 5.0"),
    "string_size": (_vis(subs=[_res(size="5")]), "size_bytes must be an integer, not '5'"),
    "bool_size": (_vis(subs=[_res(size=True)]), "size_bytes must be an integer, not True"),
    "bool_main_size": (
        _vis(main=_res("http://a.com/", "html", size=False)),
        "size_bytes must be an integer, not False",
    ),
    "huge_size": (_vis(subs=[_res(size=10**400)]), "size_bytes must be <= 2**53"),
    "size_past_2_53": (_vis(subs=[_res(size=2**53 + 1)]), "size_bytes must be <= 2**53"),
    "huge_ts": (_vis(ts=10**400), "int too large to convert to float"),
    "huge_fetched_at": (_vis(subs=[_res(fetched_at=10**400)]), "int too large to convert to float"),
    "huge_offset": (_vis(offsets=[10**400]), "int too large to convert to float"),
    "size_not_a_number": (
        _vis(subs=[_res(size="big")]),
        "size_bytes must be an integer, not 'big'",
    ),
    "subs_not_a_list": (_vis(subs={"a": 1}), "subs must be a list"),
    "offsets_not_a_list": (_vis(offsets=5), "offsets must be a list"),
    "offsets_length_mismatch": (_vis(offsets=[1.0, 2.0]), "discovery_offsets length mismatch"),
    "negative_offset": (_vis(offsets=[-1.0]), "discovery offsets must be >= 0"),
    "offset_not_a_number": (_vis(offsets=["x"]), "offset must be a number, not 'x'"),
    "string_offset": (_vis(offsets=["7"]), "offset must be a number, not '7'"),
    "bool_offset": (_vis(offsets=[True]), "offset must be a number, not True"),
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
        "fetched_at must be a number, not 'noon'",
    ),
    "string_fetched_at": (
        _vis(subs=[_res(fetched_at="7")]),
        "fetched_at must be a number, not '7'",
    ),
    "bool_fetched_at": (
        _vis(subs=[_res(fetched_at=True)]),
        "fetched_at must be a number, not True",
    ),
    "resource_not_an_object": (_vis(subs=["http://a.com/x.js"]), "resource must be an object"),
    "visit_not_an_object": ([1, 2], "visit must be an object"),
    "ts_not_a_number": (_vis(ts="soon"), "ts must be a number, not 'soon'"),
    "string_ts": (_vis(ts="123"), "ts must be a number, not '123'"),
    "bool_ts": (_vis(ts=True), "ts must be a number, not True"),
    "bad_cc_before_bad_size": (_vis(subs=[_res(size="big", cc=1)]), "cc must be an object"),
    "bad_kind_before_bad_size_type": (
        _vis(subs=[_res(kind="wasm", size="big")]),
        "unknown resource kind 'wasm'",
    ),
    "bad_cc_before_bad_fetched_at": (
        _vis(subs=[_res(cc=1, fetched_at="noon")]),
        "cc must be an object",
    ),
    "bad_fetched_at_before_bad_kind": (
        _vis(subs=[_res(kind="wasm", fetched_at="noon")]),
        "fetched_at must be a number, not 'noon'",
    ),
    "bad_ts_before_bad_main": (
        _vis(ts="soon", main=_res("/", "wasm")),
        "ts must be a number, not 'soon'",
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


@pytest.mark.parametrize("size", [12, 0])
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


# --- one constructor per type: the codec and the rules, drawn ------------

_urls = st.builds(
    "{}://{}.example/{}".format,
    st.sampled_from(["http", "https"]),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=8),
    st.text("".join(map(chr, range(0x21, 0x7F))).replace("#", ""), max_size=10),
).filter(lambda url: normalize_url(url) == url)
_times = st.floats(allow_nan=False, allow_infinity=False)
_directives = st.builds(
    CacheDirectives,
    no_store=st.booleans(),
    no_cache=st.booleans(),
    max_age=st.none() | st.integers(0, 2**31),
    expires=st.none() | _times,
    has_validator=st.booleans(),
    last_modified=st.none() | _times,
)


def _records(url, kinds=st.sampled_from(RESOURCE_KINDS)):
    return st.builds(ResourceRecord, url, kinds, st.integers(0, 2**53), _directives, _times)


@st.composite
def _visits(draw) -> PageVisit:
    main = draw(_records(_urls, st.just("html")))
    subs = tuple(draw(st.lists(_records(_urls), max_size=5, unique_by=lambda r: r.url)))
    offsets = ()
    if subs and draw(st.booleans()):
        # All-zero offsets are not written, so they load back as ().
        offsets = draw(st.tuples(*[st.floats(0.0, 1e9) for _ in subs]).filter(any))
    return PageVisit(draw(st.text(max_size=6)), draw(_times), main, subs, offsets)


@settings(max_examples=100, deadline=None)
@given(st.lists(_visits(), max_size=4))
def test_drawn_visits_round_trip_equal_and_resave_byte_identical(visits):
    visits = sorted(visits, key=lambda v: v.timestamp)
    with tempfile.TemporaryDirectory() as work:
        path, again = Path(work) / "t.jsonl", Path(work) / "again.jsonl"
        save_trace(Trace(visits=visits), path)
        loaded = load_trace(path).visits
        assert loaded == visits
        assert [hash(v) for v in loaded] == [hash(v) for v in visits]
        save_trace(Trace(visits=loaded), again)
        assert again.read_bytes() == path.read_bytes()


def _main(**changes) -> ResourceRecord:
    return dataclasses.replace(rec("http://a.com/", kind="html"), **changes)


_not_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_huge = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
_no_float = st.one_of(st.booleans(), st.text(), _not_finite, _huge)

# Each constructor rule, with a drawn value it must refuse.
_RULES = {
    "kind": st.text().filter(lambda k: k not in RESOURCE_KINDS).map(
        lambda kind: lambda: rec("http://a.com/x", kind=kind)
    ),
    "size_type": st.one_of(st.booleans(), st.floats(), st.text()).map(
        lambda size: lambda: rec("http://a.com/x", size=size)
    ),
    "size_range": (st.integers(max_value=-1) | st.integers(min_value=2**53 + 1)).map(
        lambda size: lambda: rec("http://a.com/x", size=size)
    ),
    "cc_number": st.tuples(st.sampled_from(["max_age", "expires", "last_modified"]), _no_float).map(
        lambda pair: lambda: CacheDirectives(**{pair[0]: pair[1]})
    ),
    "timestamp": _not_finite.map(lambda ts: lambda: PageVisit("u", ts, _main(), ())),
    "main_kind": st.sampled_from(RESOURCE_KINDS[1:]).map(
        lambda kind: lambda: PageVisit("u", 0.0, _main(kind=kind), ())
    ),
    "duplicate_subs": st.integers(2, 4).map(
        lambda n: lambda: PageVisit("u", 0.0, _main(), (rec("http://a.com/x"),) * n)
    ),
    "offsets_length": st.integers(2, 4).map(
        lambda n: lambda: PageVisit("u", 0.0, _main(), (rec("http://a.com/x"),), (1.0,) * n)
    ),
    "offsets_finite": _not_finite.map(
        lambda off: lambda: PageVisit("u", 0.0, _main(), (rec("http://a.com/x"),), (off,))
    ),
    "offsets_sign": st.floats(max_value=-1e-300, allow_infinity=False).map(
        lambda off: lambda: PageVisit("u", 0.0, _main(), (rec("http://a.com/x"),), (off,))
    ),
}


@pytest.mark.parametrize("rule", sorted(_RULES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_each_constructor_rule_refuses_its_out_of_range_value(rule, data):
    build = data.draw(_RULES[rule])
    with pytest.raises(ValueError):
        build()


def test_records_behave_as_dataclasses():
    record = rec("http://a.com/x", kind="".join(["scr", "ipt"]), size=7, max_age=60)
    assert record.kind is RESOURCE_KINDS[1]
    defaults = [ResourceRecord(f"http://a.com/{i}", "image", i) for i in range(2)]
    assert defaults[0].cache_directives is defaults[1].cache_directives == CacheDirectives()
    page = PageVisit("u", 1.0, _main(), (record,), (5.0,))
    for value in (record, page):
        twin = dataclasses.replace(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, "http://a.com/z")
    assert dataclasses.replace(record, size_bytes=8).size_bytes == 8
    with pytest.raises(ValueError, match="size_bytes must be >= 0"):
        dataclasses.replace(record, size_bytes=-1)
    with pytest.raises(ValueError, match="main resource must be html"):
        dataclasses.replace(page, main=record)
