from __future__ import annotations

import copy
import json
import os
import signal
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specload.cache as cache_module
import specload.sim as sim
from specload.cache import CacheStore, admit, replay_cache_sim
from specload.errors import EmptyTrace, InvalidParams
from specload.predict import (
    Prediction,
    VisitClass,
    plan_loads,
    replay,
    replay_predictor,
    score_predictions,
)
from specload.sim import (
    EMPTY,
    EXPIRED,
    FRESH,
    NetworkParams,
    _Engine,
    simulate_page,
    simulate_trace,
)
from specload.synth import SynthParams, generate_synthetic
from specload.trace import CacheDirectives, PageVisit, ResourceRecord, Trace, load_trace
from specload.urls import normalize_url

from conftest import rec, visit, trace_of
from sim_reference import _Engine as ReferenceEngine
from sim_reference import plan_loads as reference_plan_loads

# Default network: 200 ms RTT, 125 kB/s, 100 ms parse, one extra RTT
# for the main resource's connection setup.


def oracle(v: PageVisit) -> Prediction:
    return Prediction(
        urls=tuple(normalize_url(r.url) for r in v.subresources),
        visit_class=VisitClass.REVISIT,
    )


def page(k: int, **kw) -> PageVisit:
    return visit(
        "http://sim.example/p", [f"http://sim.example/{i}.js" for i in range(k)], **kw
    )


# --- hand-traced delays ----------------------------------------------


def test_legacy_hand_trace_defaults():
    # main: 200 rtt + 200 setup = 400; parse ends 500; two zero-byte subs
    # in parallel: +200 each -> 700
    assert simulate_page(page(2, size=0)) == 700.0


def test_hand_oracle_three_subs_400_to_200():
    net = NetworkParams(rtt_ms=200.0, parse_ms=0.0, main_extra_rtts=0)
    v = page(3, size=0)
    legacy = simulate_page(v, None, EMPTY, net)
    spec = simulate_page(v, oracle(v), EMPTY, net)
    assert legacy == 400.0
    assert spec == 200.0


def test_revalidation_costs_one_rtt_regardless_of_size():
    v = page(2, size=500_000)
    assert simulate_page(v, None, EXPIRED) == 700.0
    assert simulate_page(v, oracle(v), EXPIRED) == 400.0


def test_transfer_time_follows_size_and_bandwidth():
    main = rec("http://sim.example/p", kind="html", size=125_000)
    sub = rec("http://sim.example/big.js", size=62_500)
    v = PageVisit(
        user_id="u", timestamp=0.0, main=main, subresources=(sub,), discovery_offsets=()
    )
    # main 200+1000+200=1400, parse 1500, sub 200+500=700 -> 2200
    assert simulate_page(v) == 2200.0


def test_main_extra_rtts_and_redirect_hops():
    # Redirect hops are extra main-resource round trips like the rest.
    v = page(0, size=0)
    assert simulate_page(v, net=NetworkParams(main_extra_rtts=3)) == 800.0
    assert simulate_page(v, net=NetworkParams(main_extra_rtts=5)) == 1200.0


def test_discovery_offsets_delay_legacy_fetches():
    assert simulate_page(page(2, size=0, offsets=[0.0, 300.0])) == 1000.0
    assert simulate_page(page(2, size=0)) == 700.0


def test_speculative_keeps_request_cadence():
    v = page(1, size=0, offsets=[800.0])
    assert simulate_page(v) == 1500.0  # 400 + 100 + 800 + 200
    assert simulate_page(v, oracle(v)) == 1000.0  # 800 + 200, main long done


def test_fresh_cache_is_a_wash():
    v1 = page(2, size=0, offsets=[0.0, 50.0], ts=0.0)
    v2 = page(3, size=0, ts=1.0)
    result = simulate_trace(Trace(visits=[v1, v2]), cache_state=FRESH)
    assert result.pages[0].legacy_ms == 150.0  # parse 100 + last offset 50
    assert all(p.reduction_ms == 0.0 for p in result.pages)
    assert result.mean.reduction_fraction == 0.0


# --- misprediction accounting ----------------------------------------


def _engine(v, mode, cache_state=EMPTY, connections=4, known=None):
    return _Engine(v, mode, cache_state, NetworkParams(), connections, known)


def test_inflight_misprediction_runs_to_completion():
    v = page(1, size=0)
    wrong = "http://sim.example/wrong.js"
    spec = Prediction(urls=(wrong,), visit_class=VisitClass.REVISIT)
    eng = _engine(v, spec, known={wrong: rec(wrong, size=250_000)})
    delay = eng.run()

    # the wrong guess holds a connection until 2200 but never gates the page
    assert delay == 700.0
    assert eng.jobs[wrong].done_ms == 2200.0
    assert eng.jobs[wrong].required is False
    assert eng.overhead_bytes == 250_000


def test_queued_misprediction_is_dropped_unissued():
    v = page(1, size=0)
    w1 = "http://sim.example/w1.js"
    w2 = "http://sim.example/w2.js"
    spec = Prediction(urls=(w1, w2), visit_class=VisitClass.REVISIT)
    eng = _engine(
        v,
        spec,
        connections=2,
        known={w1: rec(w1, size=125_000), w2: rec(w2, size=125_000)},
    )
    delay = eng.run()

    # w1 occupies the only subresource channel until 1200; the real
    # subresource starts there and lands at 1400
    assert delay == 1400.0
    assert eng.jobs[w1].done_ms == 1200.0
    assert eng.jobs[w2].done_ms is None  # canceled in queue
    assert eng.jobs[w2].body_bytes == 0
    assert eng.overhead_bytes == 125_000


def test_predicted_queue_outranks_later_discoveries():
    main = rec("http://sim.example/p", kind="html", size=0)
    p1 = rec("http://sim.example/p1.js", size=50_000)
    p2 = rec("http://sim.example/p2.js", size=0)
    a3 = rec("http://sim.example/a3.js", size=0)
    v = PageVisit(
        user_id="u",
        timestamp=0.0,
        main=main,
        subresources=(p1, p2, a3),
        discovery_offsets=(0.0, 0.0, 0.0),
    )
    spec = Prediction(urls=(p1.url, p2.url), visit_class=VisitClass.REVISIT)
    eng = _engine(v, spec, connections=2)
    delay = eng.run()

    # single sub channel: p1 runs 0-600; queued p2 (predicted) must beat
    # a3 (discovered at parse) to the channel
    assert eng.jobs[p2.url].done_ms == 800.0
    assert eng.jobs[a3.url].done_ms == 1000.0
    assert eng.ready_at[a3.url] == 500.0
    assert delay == 1000.0
    assert eng.overhead_bytes == 0


def test_predicting_the_main_url_changes_nothing():
    v = page(1, size=0)
    with_main = Prediction(
        urls=("http://sim.example/p", "http://sim.example/0.js"),
        visit_class=VisitClass.REVISIT,
    )
    assert simulate_page(v, with_main, max_connections=2) == simulate_page(
        v, oracle(v), max_connections=2
    )


# --- network parameters -----------------------------------------------


def test_network_params_reject_out_of_range_values():
    nan, inf = float("nan"), float("inf")
    for field, values in [
        ("rtt_ms", (nan, -200.0, inf)),
        ("parse_ms", (nan, -100.0, inf)),
        ("bandwidth_bytes_per_s", (0.0, -1.0, nan)),
        ("main_extra_rtts", (-1,)),
    ]:
        for value in values:
            with pytest.raises(InvalidParams):
                NetworkParams(**{field: value})
    # A zero time and an unbounded bandwidth are fine.
    NetworkParams(rtt_ms=0.0, parse_ms=0.0, bandwidth_bytes_per_s=inf)


# --- connection pool --------------------------------------------------


@pytest.mark.parametrize(
    "k,connections,expected",
    [
        (7, 4, 1100.0),  # ceil(7/3)=3 waves of 200 after 500
        (6, 4, 900.0),
        (5, 6, 700.0),
        (3, 2, 1100.0),  # single channel: 3 sequential fetches
    ],
)
def test_subresource_waves_fill_the_pool(k, connections, expected):
    assert simulate_page(page(k, size=0), max_connections=connections) == expected


def test_two_connections_is_the_floor():
    with pytest.raises(InvalidParams):
        simulate_page(page(1, size=0), max_connections=1)


# --- realistic cache state --------------------------------------------


def test_realistic_store_evolves_across_visits():
    store = CacheStore(capacity_bytes=float("inf"))
    assert simulate_page(page(1, size=0, ts=0.0, max_age=10_000), None, store) == 700.0
    assert simulate_page(page(1, size=0, ts=10.0, max_age=10_000), None, store) == 100.0
    assert store.counters.misses == 2
    assert store.counters.fresh_hits == 2


def test_realistic_no_store_expires_with_the_page():
    store = CacheStore(capacity_bytes=float("inf"))
    main = rec("http://r.example/p", kind="html", size=0, max_age=10_000)
    sub = rec("http://r.example/s.js", size=0, no_store=True)

    def pv(ts):
        return PageVisit(
            user_id="u", timestamp=ts, main=main, subresources=(sub,), discovery_offsets=()
        )

    assert simulate_page(pv(0.0), None, store) == 700.0
    # main is fresh now, but the no-store sub was dropped at page end
    assert simulate_page(pv(10.0), None, store) == 300.0
    assert store.counters.misses == 3
    assert not store.temp


def test_cache_store_state_goes_through_the_cache_module_bindings(monkeypatch):
    # A tracer counts cache traffic by wrapping ``specload.cache.lookup``
    # and ``admit``; a state that bypassed those bindings would leave its
    # counts at 0.
    calls = {"lookup": 0, "admit": 0}
    stores = {}

    def counting(name):
        real = getattr(cache_module, name)

        def wrapper(store, *args):
            calls[name] += 1
            stores[id(store)] = store
            return real(store, *args)

        monkeypatch.setattr(cache_module, name, wrapper)

    counting("lookup")
    counting("admit")
    monkeypatch.setattr(sim, "_can_fork", lambda: False)
    trace = generate_synthetic(SynthParams(n_sites=2, pages_per_site=10, visits=60, seed=4))
    simulate_trace(trace, cache_state=CacheStore(), with_predictor=True)
    assert len(stores) == 2  # one copy per mode
    assert calls["lookup"] == sum(s.counters.requests for s in stores.values()) > 0
    network = sum(s.counters.revalidations + s.counters.misses for s in stores.values())
    assert 0 < calls["admit"] <= network


def _prepared(state, urls, now) -> CacheStore:
    """An infinite store that answers ``urls`` at ``now`` the way
    ``state`` does."""
    store = CacheStore(capacity_bytes=float("inf"))
    directives = {FRESH: {"max_age": 10**9}, EXPIRED: {"no_cache": True}}
    if state in directives:
        for url in urls:
            admit(store, rec(url, **directives[state]), now=now)
    return store


def test_uniform_states_are_special_cases_of_the_realistic_cache():
    trace = generate_synthetic(
        SynthParams(n_sites=4, pages_per_site=30, subresources_per_page=8, visits=400, seed=5)
    )
    known: dict = {}
    compared = mispredicted = 0
    for v, prediction in replay(trace.visits):
        actual = {v.main.url, *(r.url for r in v.subresources)}
        mispredicted += not actual.issuperset(prediction.urls)
        urls = actual | set(prediction.urls)
        for mode in (None, prediction):
            for state in (FRESH, EXPIRED, EMPTY):
                uniform = simulate_page(v, mode, state, known_records=known)
                realistic = simulate_page(
                    v, mode, _prepared(state, urls, v.timestamp), known_records=known
                )
                assert uniform == realistic, (v.main.url, mode, state)
                compared += 1
        known.update({r.url: r for r in (v.main, *v.subresources)})
    assert compared == 2400 and mispredicted > 0


# --- trace-level comparison -------------------------------------------


def test_simulate_trace_oracle_aggregates():
    v1 = page(1, size=0, ts=0.0)
    v2 = page(1, size=0, ts=1.0)
    result = simulate_trace(trace_of(v1, v2))
    assert [p.legacy_ms for p in result.pages] == [700.0, 700.0]
    assert [p.speculative_ms for p in result.pages] == [400.0, 400.0]
    assert all(p.visit_class is None for p in result.pages)
    assert (result.mean.legacy_ms, result.mean.speculative_ms) == (700.0, 400.0)
    assert result.mean.reduction_ms == 300.0
    assert result.mean.reduction_fraction == pytest.approx(3 / 7)
    assert result.pages[0].reduction_fraction == pytest.approx(3 / 7)


def test_simulate_trace_with_predictor_learns():
    v1 = page(1, size=0, ts=0.0)
    v2 = page(1, size=0, ts=1.0)
    result = simulate_trace(trace_of(v1, v2), with_predictor=True)
    assert [p.visit_class for p in result.pages] == [
        VisitClass.UNKNOWN,
        VisitClass.REVISIT,
    ]
    # nothing to speculate on the first ever visit
    assert result.pages[0].speculative_ms == 700.0
    assert result.pages[1].speculative_ms == 400.0


def test_simulate_trace_rejects_empty():
    with pytest.raises(EmptyTrace):
        simulate_trace(Trace(visits=[]))


def test_predictions_kept_by_simulate_trace_score_like_replay_predictor():
    # The predictor is learned once, inside simulate_trace; scoring the
    # predictions it kept must give exactly the separate replay's result.
    params = SynthParams(
        n_sites=4, pages_per_site=40, subresources_per_page=8, visits=1200, seed=5
    )
    trace = generate_synthetic(params)
    result = simulate_trace(trace, cache_state=CacheStore(), with_predictor=True)
    kept = [p.prediction for p in result.pages]
    assert kept == [prediction for _, prediction in replay(trace.visits)]
    learned = score_predictions(trace.visits, kept)
    replayed = replay_predictor(trace)
    assert learned.per_visit == replayed.per_visit
    assert learned.weekly == replayed.weekly
    assert learned.monthly == replayed.monthly
    assert len(learned.weekly) > 1 and len(learned.monthly) > 1
    assert all(p.prediction is None for p in simulate_trace(trace).pages)


# --- known_records is read with get only --------------------------------


class GetOnly:
    """A read-only mapping that allows ``get`` and nothing else, so a
    per-page copy of the caller's records would fail loudly."""

    def __init__(self, data):
        self._data = data

    def get(self, key, default=None):
        return self._data.get(key, default)

    def _refuse(self, *args, **kwargs):
        raise AssertionError("known_records must only be read with get")

    __iter__ = keys = items = values = copy = __len__ = __contains__ = __getitem__ = _refuse


def test_simulate_page_reads_known_records_with_get_only():
    net = NetworkParams()
    v = page(1, size=0)
    ghost = rec("http://sim.example/ghost.js", size=125_000)
    mode = Prediction(urls=(ghost.url, v.subresources[0].url), visit_class=VisitClass.REVISIT)
    known = {ghost.url: ghost}
    guarded = simulate_page(v, mode, EMPTY, net, 2, GetOnly(known))
    # The mispredicted ghost load is sized from the known record and
    # holds the only subresource connection for 200 + 1000 ms.
    assert guarded == simulate_page(v, mode, EMPTY, net, 2, known) == 1400.0
    # Unknown, the ghost load costs one round trip.
    assert simulate_page(v, mode, EMPTY, net, 2) == 400.0


def test_simulate_trace_reads_known_records_with_get_only(monkeypatch):
    trace = generate_synthetic(
        SynthParams(n_sites=3, pages_per_site=20, subresources_per_page=6, visits=200, seed=2)
    )
    state = CacheStore()
    expected = simulate_trace(trace, cache_state=state, with_predictor=True)
    real = sim.simulate_page

    def guarded(visit, mode, cache_state, net, max_connections, known_records):
        return real(visit, mode, cache_state, net, max_connections, GetOnly(known_records))

    monkeypatch.setattr(sim, "simulate_page", guarded)
    assert simulate_trace(trace, cache_state=state, with_predictor=True) == expected


# --- canonical URLs at ingest -------------------------------------------


def test_realistic_cache_hits_for_non_canonical_trace_urls(tmp_path):
    # Both visits spell their URLs with an upper-case scheme and host and
    # the default port.  The cache must store and look up one form.
    def record(url, kind, ts):
        cc = {"max_age": 86400}
        return {"url": url, "kind": kind, "size": 12_500, "cc": cc, "fetched_at": ts}

    path = tmp_path / "raw.jsonl"
    with path.open("w") as fh:
        for ts in (0.0, 60.0):
            line = {
                "user": "u",
                "ts": ts,
                "main": record("HTTP://A.COM:80/index.html", "html", ts),
                "subs": [record("HTTP://A.COM:80/app.js", "script", ts)],
            }
            fh.write(json.dumps(line) + "\n")
    trace = load_trace(path)

    result = simulate_trace(trace, cache_state=CacheStore(), with_predictor=True)
    # Second visit: both resources fresh, so only the parse remains.
    assert result.pages[1].legacy_ms == 100.0
    assert result.pages[1].speculative_ms == 100.0

    state = CacheStore()
    for v in trace.visits:
        simulate_page(v, None, state)
    replayed = replay_cache_sim(trace)
    assert state.counters.fresh_hits == replayed.counters.fresh_hits == 2
    assert state.counters == replayed.counters


# --- schedule-dominance properties ------------------------------------


def _page_case(offsets, sizes, connections):
    """A page whose ``sizes[0]`` is the main resource's and ``sizes[i + 1]``
    is subresource i's, with its connection bound."""
    main = rec("http://prop.example/p", kind="html", size=sizes[0])
    subs = tuple(
        rec(f"http://prop.example/{i}.js", size=size) for i, size in enumerate(sizes[1:])
    )
    v = PageVisit(
        user_id="u",
        timestamp=0.0,
        main=main,
        subresources=subs,
        discovery_offsets=tuple(offsets),
    )
    return v, connections


@st.composite
def _random_pages(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    sizes = draw(
        st.lists(st.integers(0, 200_000), min_size=k + 1, max_size=k + 1)
    )
    offsets = draw(
        st.lists(
            st.floats(0, 1000, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
        )
    )
    connections = draw(st.integers(min_value=2, max_value=6))
    return _page_case(offsets, sizes, connections)


@settings(max_examples=300, deadline=None)
@given(_random_pages())
# An offset too small to survive parse time + offset once lost its tie
# in legacy mode only: legacy 1701.008 against speculative 1401.016.
@example(
    _page_case(
        (0.0, 401.0, 2.2e-16, 0.0, 0.0, 0.0, 0.0, 0.0),
        (0, 0, 0, 125, 0, 25001, 75126, 0, 0),
        3,
    )
)
def test_oracle_speculation_never_loses(case):
    v, connections = case
    legacy = simulate_page(v, None, EMPTY, max_connections=connections)
    spec = simulate_page(v, oracle(v), EMPTY, max_connections=connections)
    assert spec <= legacy + 1e-6
    if len(v.subresources) >= connections - 1:
        # parse time plus the main resource's setup RTT always comes off
        assert legacy - spec >= 100.0 + 200.0 - 1e-6


# --- the lean engine against the reference engine ---------------------


class _Recording:
    """A cache state that logs every request, response and page end."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log

    def classify(self, url, now):
        return self.inner.classify(url, now)

    def lookup(self, url, now):
        outcome = self.inner.lookup(url, now)
        self.log.append(("lookup", url, now, outcome))
        return outcome

    def admit(self, record, now):
        self.log.append(("admit", record.url, now))
        self.inner.admit(record, now)

    def page_complete(self):
        self.log.append(("page_complete",))
        self.inner.page_complete()


def _run_both(pages, state, net, connections, known):
    """Run every page in legacy and speculative mode on each engine,
    each mode on its own copy of ``state``; per engine, return every
    page's delay, overhead bytes and ready times, and the call log."""
    runs = []
    for engine in (_Engine, ReferenceEngine):
        log: list = []
        legacy_state = _Recording(copy.deepcopy(state), log)
        spec_state = _Recording(copy.deepcopy(state), log)
        results = []
        for v, prediction in pages:
            modes = ((None, legacy_state), (prediction, spec_state))
            for mode, mode_state in modes:
                eng = engine(v, mode, mode_state, net, connections, known)
                delay = eng.run()
                # Every subresource connection came back, and nothing waits.
                assert eng.free == connections - 1 and not eng.queue
                results.append((delay, eng.overhead_bytes, eng.ready_at))
        runs.append((results, log))
    return runs


_DIFF_SITE = "http://diff.example"
_DIFF_POOL = [f"{_DIFF_SITE}/r{i}.js" for i in range(7)]
_DIFF_SIZES = st.sampled_from([0, 1, 6_250, 25_000, 37_500, 200_000])
_DIFF_DIRECTIVES = st.sampled_from(
    [
        CacheDirectives(),
        CacheDirectives(max_age=0),
        CacheDirectives(max_age=3),
        CacheDirectives(max_age=10_000),
        CacheDirectives(no_store=True),
        CacheDirectives(no_cache=True, has_validator=True),
        CacheDirectives(last_modified=-600.0),
    ]
)


@st.composite
def _diff_record(draw, url, kind, ts):
    return ResourceRecord(url, kind, draw(_DIFF_SIZES), draw(_DIFF_DIRECTIVES), ts)


@st.composite
def _diff_offsets(draw, k):
    values = st.one_of(
        # zero and tied, with one too small to survive ``parse_t + offset``
        st.sampled_from([0.0, 2.2e-16, 50.0, 150.0]),
        st.floats(0, 1000, allow_nan=False, allow_infinity=False),
    )
    return draw(st.one_of(st.just(()), st.lists(values, min_size=k, max_size=k)))


@st.composite
def _diff_cases(draw):
    ts = 0.0
    pages = []
    for _ in range(draw(st.integers(1, 3))):
        ts += draw(st.sampled_from([0.0, 1.0, 5.0, 30.0]))
        urls = draw(st.lists(st.sampled_from(_DIFF_POOL), unique=True, max_size=6))
        main = draw(_diff_record(f"{_DIFF_SITE}/p", "html", ts))
        subs = tuple(draw(_diff_record(url, "script", ts)) for url in urls)
        v = PageVisit("u", ts, main, subs, draw(_diff_offsets(len(subs))))
        predicted = draw(
            st.one_of(
                st.permutations(urls),  # correct
                st.lists(  # partly wrong, may name the main URL
                    st.sampled_from([*_DIFF_POOL, main.url]), unique=True, max_size=7
                ),
                st.just([]),
            )
        )
        pages.append((v, Prediction(tuple(predicted), VisitClass.REVISIT)))
    capacity = draw(st.sampled_from([30_000, 100_000, float("inf")]))
    state = draw(st.sampled_from([EMPTY, FRESH, EXPIRED, CacheStore(capacity)]))
    net = NetworkParams(
        rtt_ms=draw(st.sampled_from([0.0, 17.5, 50.0, 200.0])),
        bandwidth_bytes_per_s=draw(st.sampled_from([125_000.0, 1e6])),
        parse_ms=draw(st.sampled_from([0.0, 35.5, 100.0])),
        main_extra_rtts=draw(st.integers(0, 3)),
    )
    # Sizes for mispredicted loads; URLs missing here load with size 0.
    known = {
        url: draw(_diff_record(url, "script", 0.0))
        for url in draw(st.lists(st.sampled_from(_DIFF_POOL), unique=True))
    }
    return pages, state, net, draw(st.integers(2, 6)), known


@settings(max_examples=400, deadline=None)
@given(_diff_cases())
def test_engine_matches_the_reference_engine(case):
    lean, reference = _run_both(*case)
    assert lean == reference
    # The plan is the old plan's URLs, immediate then waiting, against a
    # cache state that evolves from page to page.
    pages, state, net, connections, known = case
    spec_state = copy.deepcopy(state)
    for v, prediction in pages:
        old = reference_plan_loads(prediction, spec_state, v.timestamp, connections)
        assert plan_loads(prediction, spec_state, v.timestamp) == tuple(old.all_urls())
        ReferenceEngine(v, prediction, spec_state, net, connections, known).run()


def test_finish_and_parse_at_one_instant_keep_heap_order():
    # Four subresource connections.  a (100 ms) and f (150 ms) finish
    # early, b and e hold theirs; d waits, starts when a finishes at 100
    # and finishes at 200, the instant the parse ends.  The parse event
    # was pushed first (at 100, by the main resource), so it pops first
    # with d's finish still due: c, discovered then, must wait behind
    # that finish although a connection (f's) is free.
    net = NetworkParams(rtt_ms=50.0, parse_ms=100.0)
    site = "http://tie.example"
    a, f, c = (
        rec(f"{site}/{n}.js", size=size) for n, size in (("a", 6_250), ("f", 12_500), ("c", 0))
    )
    known = {
        f"{site}/{n}.js": rec(f"{site}/{n}.js", size=size)
        for n, size in (("b", 1_000_000), ("e", 1_000_000), ("d", 6_250))
    }
    v = PageVisit("u", 0.0, rec(f"{site}/p", kind="html", size=0), (a, f, c))
    prediction = Prediction(tuple(f"{site}/{n}.js" for n in "afbed"), VisitClass.REVISIT)
    log: list = []
    eng = _Engine(v, prediction, _Recording(EMPTY, log), net, 5, known)
    delay = eng.run()
    d = f"{site}/d.js"
    assert eng.jobs[d].done_ms == eng.jobs[v.main.url].done_ms + net.parse_ms == 200.0
    calls = [entry[:2] for entry in log]
    assert calls.index(("admit", d)) < calls.index(("lookup", c.url))
    assert delay == 250.0
    lean, reference = _run_both([(v, prediction)], EMPTY, net, 5, known)
    assert lean == reference


def test_finish_and_later_ready_at_one_instant_keep_heap_order():
    # Both loads are predicted and needed.  a is due at 0 and finishes at
    # 50; b is due at its offset, 50.  b's ready event was pushed before
    # a started, so at 50 b is looked up before a's response is admitted.
    net = NetworkParams(rtt_ms=50.0, parse_ms=100.0)
    site = "http://tie.example"
    a, b = rec(f"{site}/a.js", size=0), rec(f"{site}/b.js", size=0)
    v = PageVisit("u", 0.0, rec(f"{site}/p", kind="html", size=0), (a, b), (0.0, 50.0))
    prediction = Prediction((a.url, b.url), VisitClass.REVISIT)
    log: list = []
    eng = _Engine(v, prediction, _Recording(EMPTY, log), net, 4, {})
    eng.run()
    calls = [entry[:3] for entry in log]
    assert calls.index(("lookup", b.url, 0.05)) < calls.index(("admit", a.url, 0.05))
    lean, reference = _run_both([(v, prediction)], EMPTY, net, 4, {})
    assert lean == reference


def test_misprediction_canceled_while_its_ready_event_waits_never_loads():
    # A fresh main resource and no parse time put the parse at 0, pushed
    # before the speculative ready events: the wrong guess is canceled
    # while its ready event is still in the heap, so it is never issued.
    store = CacheStore(float("inf"))
    main = rec("http://c.example/p", kind="html", size=0, max_age=3600)
    admit(store, main, now=0.0)
    wrong = "http://c.example/wrong.js"
    known = {wrong: rec(wrong, size=5_000)}
    v = PageVisit("u", 1.0, main, (rec("http://c.example/a.js", size=0),))
    prediction = Prediction((wrong,), VisitClass.REVISIT)
    net = NetworkParams(parse_ms=0.0)
    log: list = []
    state = _Recording(copy.deepcopy(store), log)
    eng = _Engine(v, prediction, state, net, 4, known)
    eng.run()
    assert ("lookup", wrong) not in [entry[:2] for entry in log]
    assert eng.jobs[wrong].done_ms is None and eng.overhead_bytes == 0
    lean, reference = _run_both([(v, prediction)], store, net, 4, known)
    assert lean == reference


def test_queued_load_that_turns_out_fresh_leaves_its_connection_free():
    # One subresource connection: a takes it at the parse (500 ms), x and
    # b queue.  When a finishes at 700, x is a fresh hit and takes no
    # connection, so b starts at once.
    store = CacheStore(float("inf"))
    x = rec("http://q.example/x.js", size=0, max_age=3600)
    admit(store, x, now=0.0)
    a, b = rec("http://q.example/a.js", size=0), rec("http://q.example/b.js", size=0)
    v = PageVisit("u", 1.0, rec("http://q.example/p", kind="html", size=0), (a, x, b))
    eng = _Engine(v, None, copy.deepcopy(store), NetworkParams(), 2, {})
    assert eng.run() == 900.0
    assert eng.jobs[x.url].done_ms == 700.0
    prediction = Prediction((), VisitClass.UNKNOWN)
    lean, reference = _run_both([(v, prediction)], store, NetworkParams(), 2, {})
    assert lean == reference


# --- the replay worker ----------------------------------------------------


@pytest.fixture(scope="module")
def worker_trace() -> Trace:
    # About two weeks of visits, so a 2-day window trims many times.
    return generate_synthetic(
        SynthParams(n_sites=4, pages_per_site=30, subresources_per_page=8, visits=400, seed=3)
    )


def _state(name: str):
    if name == "realistic":
        return CacheStore(capacity_bytes=200_000)
    return {"empty": EMPTY, "fresh": FRESH, "expired": EXPIRED}[name]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` made during the test."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.mark.parametrize("connections", [2, 6])
@pytest.mark.parametrize("state", ["empty", "fresh", "expired", "realistic"])
@pytest.mark.parametrize(
    "with_predictor, trim_days", [(False, None), (True, None), (True, 2.0)]
)
def test_forked_and_inline_runs_are_equal(
    worker_trace, state, connections, with_predictor, trim_days, forks, monkeypatch
):
    def run():
        return simulate_trace(
            worker_trace,
            cache_state=_state(state),
            with_predictor=with_predictor,
            max_connections=connections,
            trim_days=trim_days,
        )

    forked = run()
    assert len(forks) == 1
    monkeypatch.setattr(sim, "_can_fork", lambda: False)
    inline = run()
    assert len(forks) == 1
    assert forked == inline
    assert len(forked.pages) == len(worker_trace.visits)


def test_a_forked_replay_gets_one_string_per_predicted_url(worker_trace, forks):
    # One pickle stream for the whole pipe: a URL sent in many
    # predictions arrives as one object.
    result = simulate_trace(worker_trace, with_predictor=True)
    assert len(forks) == 1
    urls = [url for page in result.pages for url in page.prediction.urls]
    assert len(urls) > 2 * len(set(urls))
    assert len({id(url) for url in urls}) == len(set(urls))


def test_a_failure_in_the_worker_is_raised_with_its_type_and_message(
    worker_trace, forks, monkeypatch
):
    def failing(visits, trim_days):
        for i, v in enumerate(visits):
            if i == 150:
                raise InvalidParams(f"no prediction in {os.getpid()}")
            yield v, Prediction((), VisitClass.UNKNOWN)

    monkeypatch.setattr(sim, "replay", failing)
    with pytest.raises(InvalidParams, match=r"^no prediction in \d+$") as caught:
        simulate_trace(worker_trace, with_predictor=True)
    assert str(forks[0]) in str(caught.value)
    assert "no prediction in" in str(caught.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_an_exception_that_cannot_be_pickled_still_surfaces(forks):
    class Local(Exception):
        pass

    def produce():
        yield 1
        raise Local("made here")

    with pytest.raises(RuntimeError, match=r"Local: made here"):
        list(sim._in_worker(produce))
    assert len(forks) == 1


def test_a_worker_that_dies_is_reported_and_reaped(forks):
    def produce():
        yield from range(3 * sim._BATCH)
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"exited with code -{int(signal.SIGKILL)} before"):
        list(sim._in_worker(produce))
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_parent_that_fails_mid_stream_leaves_no_child(worker_trace, forks, monkeypatch, error):
    parent = os.getpid()
    real = sim.simulate_page
    speculative_pages = []

    def failing(visit, mode, *args):
        if os.getpid() == parent and mode is not None:
            speculative_pages.append(visit)
            if len(speculative_pages) == 100:
                raise error("stop")
        return real(visit, mode, *args)

    monkeypatch.setattr(sim, "simulate_page", failing)
    with pytest.raises(error):
        simulate_trace(worker_trace, cache_state=CacheStore(), with_predictor=True)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_closing_the_stream_early_kills_and_reaps_the_worker(forks):
    stream = sim._in_worker(lambda: iter(range(1_000_000)))
    assert next(stream) == 0
    stream.close()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_no_fork_while_another_thread_is_alive(worker_trace, monkeypatch):
    expected = simulate_trace(worker_trace, with_predictor=True)

    def refuse():
        raise AssertionError("os.fork called with a second thread alive")

    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert simulate_trace(worker_trace, with_predictor=True) == expected
    finally:
        stop.set()
        other.join(timeout=5)
    assert not other.is_alive()


@pytest.mark.parametrize(
    "get, install", [(sys.getprofile, sys.setprofile), (sys.gettrace, sys.settrace)]
)
def test_a_tracer_or_profiler_keeps_the_run_in_one_process(get, install):
    old = get()
    install(lambda *args: None)
    try:
        assert not sim._can_fork()
    finally:
        install(old)
