"""Browser-style HTTP cache semantics over resource metadata.

Entries hold metadata: enough to decide, for each request, whether the
client would serve it locally (fresh hit), send a conditional request
(expired, revalidate), or fetch in full (miss).  Revalidation is modeled
as always answered with 304, costing one round trip and zero body bytes.
The one body an entry holds is a page's, which the live fetcher parses.

A cached entry is *fresh* at time t iff its freshness lifetime is known
and ``t < stored_at + lifetime``.  Resources marked no-store bypass the
normal store entirely and live in a temporary per-page cache that is
cleared when the page completes; while present they serve as fresh,
which is the whole point of holding them for the page being loaded.

A ``CacheStore`` is also the simulator's realistic cache state (``sim``).
Its ``lookup``, ``admit`` and ``page_complete`` methods call the module
functions by name, so a tracer that wraps those bindings sees each call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .errors import EmptyTrace, InvalidParams
from .trace import CacheDirectives, ResourceRecord, Trace
from .urls import website_key


DEFAULT_CAPACITY = 6 * 1024 * 1024  # bytes


class LookupOutcome(Enum):
    FRESH_HIT = "fresh"
    EXPIRED_REVALIDATE = "revalidate"
    MISS = "miss"


def freshness_lifetime(directives: CacheDirectives, fetched_at: float) -> float | None:
    """Seconds the response stays fresh from ``fetched_at``, or None.

    Precedence: no-cache forces immediate expiry; then explicit max-age;
    then an Expires deadline (clamped at zero when already past); then
    the 10%-of-age heuristic off Last-Modified.  None means the entry is
    never fresh and every subsequent request must revalidate.
    """
    if directives.no_cache:
        return None
    if directives.max_age is not None:
        return float(max(0, directives.max_age))
    if directives.expires is not None:
        return max(0.0, directives.expires - fetched_at)
    last_modified = directives.last_modified
    if last_modified is not None:
        return max(0.0, 0.1 * (fetched_at - last_modified))
    return None


@dataclass(slots=True)
class CacheEntry:
    url: str
    size_bytes: int
    stored_at: float
    lifetime: float | None
    validator: str | None = None
    directives: CacheDirectives = field(default_factory=CacheDirectives)
    # A page's (final URL after redirects, body); only the live fetcher sets it.
    body: tuple[str, bytes] | None = None

    def is_fresh(self, now: float) -> bool:
        return self.lifetime is not None and now < self.stored_at + self.lifetime


@dataclass
class CacheCounters:
    fresh_hits: int = 0
    revalidations: int = 0
    misses: int = 0
    bytes_fetched: int = 0
    bytes_saved_by_304: int = 0

    @property
    def requests(self) -> int:
        return self.fresh_hits + self.revalidations + self.misses

    @property
    def fresh_fraction(self) -> float:
        return self.fresh_hits / self.requests if self.requests else 0.0

    @property
    def revalidation_fraction(self) -> float:
        return self.revalidations / self.requests if self.requests else 0.0

    @property
    def miss_fraction(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    @property
    def network_activity_fraction(self) -> float:
        """Fraction of requests that touched the network at all."""
        return (self.revalidations + self.misses) / self.requests if self.requests else 0.0


class CacheStore:
    """LRU-bounded metadata cache with a capacity-exempt temporary side.

    ``capacity_bytes`` must be positive and may be ``math.inf``.  Counter
    updates happen in ``lookup`` (request classification) and ``admit``
    (byte accounting); ``classify`` is the pure read used by planners
    that must not count as traffic.
    """

    def __init__(self, capacity_bytes: float = DEFAULT_CAPACITY):
        # A NaN capacity would keep nothing, silently.
        if not capacity_bytes > 0:
            raise InvalidParams(f"capacity_bytes must be positive or inf, not {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.temp: dict[str, CacheEntry] = {}
        self.counters = CacheCounters()
        self._used = 0

    def classify(self, url: str, now: float) -> LookupOutcome:
        """Classification only; no counters, no recency updates."""
        entry = self.entry(url)
        if entry is None:
            return LookupOutcome.MISS
        if url in self.temp or entry.is_fresh(now):
            return LookupOutcome.FRESH_HIT
        return LookupOutcome.EXPIRED_REVALIDATE

    def entry(self, url: str) -> CacheEntry | None:
        """The entry a request for ``url`` finds (temporary first); counts nothing."""
        return self.temp.get(url) or self.entries.get(url)

    def lookup(self, url: str, now: float) -> LookupOutcome:
        return lookup(self, url, now)

    def admit(self, record: ResourceRecord, now: float, validator=None, body=None) -> None:
        admit(self, record, now, validator, body)

    def page_complete(self) -> None:
        page_complete(self)


def lookup(store: CacheStore, url: str, now: float) -> LookupOutcome:
    """Classify one request and record it in the store's counters.

    Any hit (fresh or expired) refreshes the entry's recency for LRU
    purposes.
    """
    # ``CacheStore.classify``, inlined: this runs for every request.
    counters = store.counters
    if url in store.temp:
        counters.fresh_hits += 1
        return LookupOutcome.FRESH_HIT
    entry = store.entries.get(url)
    if entry is None:
        counters.misses += 1
        return LookupOutcome.MISS
    store.entries.move_to_end(url)
    lifetime = entry.lifetime
    if lifetime is not None and now < entry.stored_at + lifetime:
        counters.fresh_hits += 1
        return LookupOutcome.FRESH_HIT
    counters.revalidations += 1
    return LookupOutcome.EXPIRED_REVALIDATE


def admit(
    store: CacheStore,
    record: ResourceRecord,
    now: float,
    validator: str | None = None,
    body: tuple[str, bytes] | None = None,
) -> None:
    """Store a fetched (or revalidated) response's metadata (and page ``body``).

    no-store responses go to the temporary cache and are exempt from
    capacity.  A record whose URL is already present but expired is a
    revalidation re-admit: the body was not transferred, so its bytes
    count as saved, and the freshness lifetime is recomputed from the
    directives as of now.  Entries never fit above capacity; admitting
    one evicts least-recently-accessed entries until it does, and an
    entry larger than the whole cache is simply not kept.
    """
    url = record.url
    d = record.cache_directives
    size = record.size_bytes
    entry = CacheEntry(url, size, now, freshness_lifetime(d, now), validator, d, body)
    counters = store.counters
    if d.no_store:
        counters.bytes_fetched += size
        store.temp[url] = entry
        return

    entries = store.entries
    used = store._used
    prior = entries.pop(url, None)
    if prior is None:
        counters.bytes_fetched += size
    else:
        used -= prior.size_bytes
        if prior.is_fresh(now):
            counters.bytes_fetched += size
        else:
            counters.bytes_saved_by_304 += size

    capacity = store.capacity_bytes
    if size <= capacity:
        while used + size > capacity and entries:
            used -= entries.popitem(last=False)[1].size_bytes
        entries[url] = entry
        used += size
    store._used = used


def page_complete(store: CacheStore) -> None:
    """A page finished loading; drop its temporary no-store entries."""
    store.temp.clear()


@dataclass
class CacheSimReport:
    counters: CacheCounters
    per_site: dict[str, CacheCounters]


def replay_cache_sim(trace: Trace, capacity_bytes: float = DEFAULT_CAPACITY) -> CacheSimReport:
    """Replay a trace through one cache and count request outcomes.

    Every main and subresource request is classified via ``lookup``;
    misses and revalidations are then admitted.  The temporary cache is
    cleared after each visit (page complete).  Per-site counts group by
    the visit's website, i.e. the page the request belonged to.
    """
    if not trace.visits:
        raise EmptyTrace("cannot replay an empty trace")
    store = CacheStore(capacity_bytes)
    per_site: dict[str, CacheCounters] = {}
    for visit in trace.visits:
        site = website_key(visit.main.url)
        tally = per_site.setdefault(site, CacheCounters())
        for record in (visit.main, *visit.subresources):
            outcome = lookup(store, record.url, visit.timestamp)
            if outcome is LookupOutcome.FRESH_HIT:
                tally.fresh_hits += 1
            elif outcome is LookupOutcome.EXPIRED_REVALIDATE:
                tally.revalidations += 1
                admit(store, record, visit.timestamp)
            else:
                tally.misses += 1
                admit(store, record, visit.timestamp)
        page_complete(store)
    return CacheSimReport(counters=store.counters, per_site=per_site)
