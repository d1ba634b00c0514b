"""Cache model tests.

The replay comparison uses an independent naive cache written from the
documented semantics (linear scans, explicit recency counter, freshness
recomputed from directives on every probe).  It exists so the fast
store has something honest to be checked against: both must produce
bit-equal counters on whole-trace replays.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rec, visit
from specload.cache import (
    CacheStore,
    LookupOutcome,
    admit,
    freshness_lifetime,
    lookup,
    page_complete,
    replay_cache_sim,
)
from specload.errors import EmptyTrace, InvalidParams
from specload.synth import SynthParams, generate_synthetic
from specload.trace import CacheDirectives, Trace
from specload.urls import website_key


def used_bytes(store: CacheStore) -> int:
    return sum(e.size_bytes for e in store.entries.values())


# --- independent oracle -------------------------------------------------


class NaiveCache:
    """Slow reference cache: no shared code with the real store."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # url -> dict(size, stored_at, directives, recency)
        self.side = {}  # no-store items, unbounded until page end
        self.tick = 0
        self.fresh = 0
        self.reval = 0
        self.miss = 0
        self.bytes_fetched = 0
        self.bytes_304 = 0

    def _lifetime(self, d: CacheDirectives, at: float):
        # written from the stated precedence, not shared with the package
        if d.no_cache:
            return None
        if d.max_age is not None:
            return float(d.max_age) if d.max_age > 0 else 0.0
        if d.expires is not None:
            return d.expires - at if d.expires > at else 0.0
        if d.last_modified is not None:
            age = at - d.last_modified
            return 0.1 * age if age > 0 else 0.0
        return None

    def _is_fresh(self, item, now: float) -> bool:
        life = self._lifetime(item["directives"], item["stored_at"])
        return life is not None and now < item["stored_at"] + life

    def request(self, record, now: float) -> str:
        self.tick += 1
        url = record.url
        if url in self.side:
            self.side[url]["recency"] = self.tick
            self.fresh += 1
            return "fresh"
        if url not in self.items:
            self.miss += 1
            self._store(record, now)
            return "miss"
        item = self.items[url]
        item["recency"] = self.tick
        if self._is_fresh(item, now):
            self.fresh += 1
            return "fresh"
        self.reval += 1
        self._store(record, now, revalidated=True)
        return "reval"

    def _store(self, record, now: float, revalidated: bool = False) -> None:
        self.tick += 1
        d = record.cache_directives
        size = record.size_bytes
        if d.no_store:
            self.bytes_fetched += size
            self.side[record.url] = {
                "size": size,
                "stored_at": now,
                "directives": d,
                "recency": self.tick,
            }
            return
        self.items.pop(record.url, None)
        if revalidated:
            self.bytes_304 += size
        else:
            self.bytes_fetched += size
        if size > self.capacity:
            return
        while sum(i["size"] for i in self.items.values()) + size > self.capacity:
            oldest = min(self.items, key=lambda u: self.items[u]["recency"])
            del self.items[oldest]
        self.items[record.url] = {
            "size": size,
            "stored_at": now,
            "directives": d,
            "recency": self.tick,
        }

    def page_end(self) -> None:
        self.side.clear()


def naive_replay(trace: Trace, capacity) -> NaiveCache:
    model = NaiveCache(capacity)
    for v in trace.visits:
        for record in (v.main, *v.subresources):
            model.request(record, v.timestamp)
        model.page_end()
    return model


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
@pytest.mark.parametrize("capacity", [64 * 1024, 6 * 1024 * 1024, math.inf])
def test_replay_counters_bit_equal_to_oracle(seed, capacity):
    trace = generate_synthetic(SynthParams(visits=300, n_sites=4, seed=seed))
    fast = replay_cache_sim(trace, capacity_bytes=capacity)
    slow = naive_replay(trace, capacity)
    assert fast.counters.fresh_hits == slow.fresh
    assert fast.counters.revalidations == slow.reval
    assert fast.counters.misses == slow.miss
    assert fast.counters.bytes_fetched == slow.bytes_fetched
    assert fast.counters.bytes_saved_by_304 == slow.bytes_304


def test_per_site_counts_sum_to_totals():
    trace = generate_synthetic(SynthParams(visits=200, n_sites=3, seed=5))
    report = replay_cache_sim(trace)
    assert sum(c.requests for c in report.per_site.values()) == report.counters.requests
    for name in ("fresh_hits", "revalidations", "misses"):
        per_site = sum(getattr(c, name) for c in report.per_site.values())
        assert per_site == getattr(report.counters, name), name
    assert set(report.per_site) == {website_key(v.main.url) for v in trace.visits}


# --- freshness lifetime -------------------------------------------------


@pytest.mark.parametrize(
    "cc,fetched_at,expected",
    [
        (dict(no_cache=True, max_age=500), 0.0, None),
        (dict(max_age=300), 0.0, 300.0),
        (dict(max_age=0), 0.0, 0.0),
        (dict(max_age=60, expires=5000.0), 0.0, 60.0),  # max-age wins
        (dict(expires=1500.0), 1000.0, 500.0),
        (dict(expires=500.0), 1000.0, 0.0),  # already past: clamp
        (dict(last_modified=0.0), 1000.0, 100.0),  # 10% heuristic
        (dict(), 1000.0, None),
    ],
)
def test_freshness_lifetime_precedence(cc, fetched_at, expected):
    assert freshness_lifetime(CacheDirectives(**cc), fetched_at) == expected


def test_expiry_boundary_is_exclusive():
    store = CacheStore(capacity_bytes=math.inf)
    admit(store, rec("http://a.com/x", max_age=100), now=0.0)
    assert store.classify("http://a.com/x", 99.999) is LookupOutcome.FRESH_HIT
    # at exactly stored_at + lifetime the entry is no longer fresh
    assert store.classify("http://a.com/x", 100.0) is LookupOutcome.EXPIRED_REVALIDATE


# --- store behavior -----------------------------------------------------


def test_no_store_goes_to_temp_and_clears_at_page_end():
    store = CacheStore()
    admit(store, rec("http://a.com/x", no_store=True, size=500), now=0.0)
    assert "http://a.com/x" not in store.entries
    assert store.counters.bytes_fetched == 500
    # while present, it serves fresh regardless of directives
    assert lookup(store, "http://a.com/x", now=9999.0) is LookupOutcome.FRESH_HIT
    page_complete(store)
    assert lookup(store, "http://a.com/x", now=0.0) is LookupOutcome.MISS


def test_temp_entries_are_capacity_exempt():
    store = CacheStore(capacity_bytes=1000)
    admit(store, rec("http://a.com/big", no_store=True, size=50_000), now=0.0)
    admit(store, rec("http://a.com/keep", max_age=60, size=800), now=0.0)
    assert "http://a.com/keep" in store.entries
    assert used_bytes(store) == 800


def test_oversize_record_counted_but_not_admitted():
    store = CacheStore(capacity_bytes=1000)
    admit(store, rec("http://a.com/big", max_age=60, size=2000), now=0.0)
    assert store.entries == {}
    assert store.counters.bytes_fetched == 2000
    assert used_bytes(store) == store._used == 0


def test_lru_eviction_prefers_least_recently_used():
    store = CacheStore(capacity_bytes=3000)
    admit(store, rec("http://a.com/1", max_age=600, size=1000), now=0.0)
    admit(store, rec("http://a.com/2", max_age=600, size=1000), now=1.0)
    admit(store, rec("http://a.com/3", max_age=600, size=1000), now=2.0)
    lookup(store, "http://a.com/1", now=3.0)  # 1 becomes most recent
    admit(store, rec("http://a.com/4", max_age=600, size=1000), now=4.0)
    assert "http://a.com/2" not in store.entries  # the coldest one went
    assert {"http://a.com/1", "http://a.com/3", "http://a.com/4"} <= set(store.entries)


def test_revalidation_readmit_counts_saved_bytes_and_renews_lifetime():
    store = CacheStore()
    admit(store, rec("http://a.com/x", max_age=10, size=4000), now=0.0)
    assert lookup(store, "http://a.com/x", now=50.0) is LookupOutcome.EXPIRED_REVALIDATE
    admit(store, rec("http://a.com/x", max_age=10, size=4000), now=50.0)
    assert store.counters.bytes_saved_by_304 == 4000
    assert store.counters.bytes_fetched == 4000  # only the first fetch
    assert store.classify("http://a.com/x", 55.0) is LookupOutcome.FRESH_HIT


def test_classify_is_pure():
    store = CacheStore()
    admit(store, rec("http://a.com/a", max_age=600), now=0.0)
    admit(store, rec("http://a.com/b", max_age=600), now=1.0)
    order_before = list(store.entries)
    counters_before = (
        store.counters.fresh_hits,
        store.counters.revalidations,
        store.counters.misses,
    )
    store.classify("http://a.com/a", 2.0)
    store.classify("http://a.com/nope", 2.0)
    assert list(store.entries) == order_before
    assert (
        store.counters.fresh_hits,
        store.counters.revalidations,
        store.counters.misses,
    ) == counters_before


def test_lookup_counts_and_touches_recency():
    store = CacheStore()
    admit(store, rec("http://a.com/a", max_age=600), now=0.0)
    admit(store, rec("http://a.com/b", max_age=600), now=1.0)
    assert lookup(store, "http://a.com/a", now=2.0) is LookupOutcome.FRESH_HIT
    assert list(store.entries)[-1] == "http://a.com/a"
    assert store.counters.fresh_hits == 1
    assert lookup(store, "http://a.com/missing", now=2.0) is LookupOutcome.MISS
    assert store.counters.misses == 1


def test_copy_is_independent():
    store = CacheStore()
    admit(store, rec("http://a.com/a", max_age=600), now=0.0)
    clone = copy.deepcopy(store)
    admit(clone, rec("http://a.com/b", max_age=600), now=1.0)
    lookup(clone, "http://a.com/a", now=2.0)
    assert "http://a.com/b" not in store.entries
    assert store.counters.fresh_hits == 0


def test_replay_rejects_empty_trace_and_bad_capacity():
    with pytest.raises(EmptyTrace):
        replay_cache_sim(Trace(visits=[]))
    trace = Trace(visits=[visit("http://a.com/", ["http://a.com/s"], ts=0.0)])
    # A NaN capacity would keep nothing and report every request a miss.
    for capacity in (0, math.nan, -1):
        with pytest.raises(InvalidParams):
            replay_cache_sim(trace, capacity_bytes=capacity)
        with pytest.raises(InvalidParams):
            CacheStore(capacity)


# --- capacity invariant (property) ---------------------------------------


@st.composite
def _op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        url = f"http://s.com/r{draw(st.integers(min_value=0, max_value=12))}"
        size = draw(st.integers(min_value=0, max_value=800))
        max_age = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100)))
        no_store = draw(st.booleans())
        now = draw(st.floats(min_value=0, max_value=1000, allow_nan=False))
        ops.append((url, size, max_age, no_store, now))
    return ops


@given(_op_sequences(), st.integers(min_value=1, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_capacity_never_exceeded(ops, capacity):
    store = CacheStore(capacity_bytes=capacity)
    for url, size, max_age, no_store, now in ops:
        outcome = lookup(store, url, now)
        if outcome is not LookupOutcome.FRESH_HIT:
            admit(
                store,
                rec(url, size=size, max_age=max_age, no_store=no_store, fetched_at=now),
                now=now,
            )
        # ``_used`` is the running total that eviction reads.
        assert used_bytes(store) == store._used <= capacity
