"""Deterministic synthetic browsing-trace generator.

Models the structure the rest of the toolkit cares about: websites whose
pages share most subresources, a stream of visits dominated by
first-time page URLs, and daily churn that swaps subresource URLs for
new ones.  Same seed, same bytes.

Records that carry the same cache directives share one frozen
``CacheDirectives``: one ``generate_synthetic`` call keeps one per
distinct profile and parameter for the profiles that do not depend on
the visit time, and builds ``expires`` and ``heuristic`` directives per
visit.

The draws are ``random.Random``'s own, for less interpreter work: a
weighted pick looks one ``random()`` up in a table of running sums, and
a bounded int runs CPython's ``getrandbits`` rejection loop (``_below``,
as ``randint`` does in CPython 3.10 to 3.13).
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import InvalidParams
from .trace import CacheDirectives, PageVisit, ResourceRecord, Trace

# Visit cadence baked into the generator: 30 page loads per simulated
# day, so a 10k-visit trace spans roughly a year.
VISITS_PER_DAY = 30
_SPACING_S = 86400.0 / VISITS_PER_DAY
_START_TS = 1264982400.0  # 2010-02-01T00:00:00Z

_SUB_KINDS = (("script", 0.20), ("stylesheet", 0.10), ("image", 0.60), ("other", 0.10))
_EXT = {"script": ".js", "stylesheet": ".css", "image": ".png", "other": ".bin"}


def _span(lo: int, hi: int) -> tuple[int, int, int]:
    """``(lo, n, k)`` for a draw from ``[lo, hi]``: ``n`` values, ``k`` bits a try."""
    n = hi - lo + 1
    return lo, n, n.bit_length()


def _below(getrandbits, n: int) -> int:
    """A uniform int in ``[0, n)`` by ``Random._randbelow_with_getrandbits``'s
    loop, so ``lo + _below(rng.getrandbits, n)`` draws what
    ``rng.randint(lo, lo + n - 1)`` draws."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _weights(pairs) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """The running sums of ``pairs``' weights, added in order, and the
    names with the last one repeated: ``names[bisect_right(sums, u)]`` is
    the first name whose running sum exceeds ``u``, or the last name when
    none does."""
    names = [name for name, _ in pairs]
    return tuple(accumulate(w for _, w in pairs)), (*names, names[-1])


_SIZE_SPANS = {
    "html": _span(10_000, 40_000),
    "script": _span(5_000, 80_000),
    "stylesheet": _span(2_000, 40_000),
    "image": _span(2_000, 60_000),
    "other": _span(1_000, 100_000),
}

# (profile, weight) pairs; the mix keeps better than half of all
# resources effectively uncacheable (no-cache or short max-age).
_SUB_PROFILES = (
    ("no_cache", 0.30),
    ("short", 0.25),
    ("long", 0.25),
    ("expires", 0.05),
    ("heuristic", 0.05),
    ("none", 0.05),
    ("no_store", 0.05),
)
_MAIN_PROFILES = (("no_cache", 0.60), ("short", 0.20), ("heuristic", 0.20))
# A profile's parameter in seconds: a draw from its span times its scale.
# The other profiles draw nothing and take 0.0.
_PARAM_SPANS = {
    "short": (*_span(60, 600), 1),
    "long": (*_span(1, 30), 86400),
    "expires": (*_span(1, 7), 86400),
    "heuristic": (*_span(1, 90), 86400),
}
_KIND_SUMS, _KIND_NAMES = _weights(_SUB_KINDS)
_SUB_SUMS, _SUB_NAMES = _weights(_SUB_PROFILES)
_MAIN_SUMS, _MAIN_NAMES = _weights(_MAIN_PROFILES)


@dataclass(frozen=True)
class SynthParams:
    n_sites: int = 10
    pages_per_site: int = 200
    subresources_per_page: int = 20
    shared_fraction: float = 0.76
    new_visit_rate: float = 0.75
    churn_rate_per_day: float = 0.10
    visits: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_sites", "pages_per_site", "subresources_per_page", "visits"):
            if getattr(self, name) < 1:
                raise InvalidParams(f"{name} must be >= 1")
        for name in ("shared_fraction", "new_visit_rate", "churn_rate_per_day"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParams(f"{name} must be within [0, 1]")


class _Page:
    __slots__ = ("url", "size", "profile", "param", "unique")

    def __init__(self, url, size, profile, param, unique):
        self.url = url
        self.size = size
        self.profile = profile
        self.param = param
        self.unique = unique


def _directives(profile: str, param: float, ts: float, memo: dict) -> CacheDirectives:
    """The directives of one record at visit time ``ts``; those that do
    not depend on ``ts`` come from ``memo``, keyed by profile and param."""
    if profile == "expires":
        return CacheDirectives(expires=ts + param, has_validator=True)
    if profile == "heuristic":
        return CacheDirectives(has_validator=True, last_modified=ts - param)
    directives = memo.get((profile, param))
    if directives is None:
        if profile == "no_store":
            directives = CacheDirectives(no_store=True)
        elif profile == "no_cache":
            directives = CacheDirectives(no_cache=True, has_validator=True)
        elif profile == "short" or profile == "long":
            directives = CacheDirectives(max_age=int(param), has_validator=True)
        else:
            directives = CacheDirectives()
        memo[profile, param] = directives
    return directives


class _Site:
    def __init__(self, index: int, params: SynthParams, rng: random.Random):
        self.host = f"site{index}.example"
        self.random, self.getrandbits = rng.random, rng.getrandbits
        self.params = params
        self.next_sub_id = 0
        self.next_page_id = 0
        n_shared = min(
            params.subresources_per_page,
            int(params.shared_fraction * params.subresources_per_page + 0.5),
        )
        self.n_unique = params.subresources_per_page - n_shared
        self.pool = [self._new_sub() for _ in range(n_shared)]
        self.pages: list[_Page] = []
        self.visit_log: list[int] = []

    def _new_sub(self) -> tuple[str, str, int, str, float]:
        """A new subresource: ``(url, kind, size, profile, param)``."""
        # The draws of a kind, a size and a profile, inlined: churn makes
        # one call per replaced slot.
        random, getrandbits = self.random, self.getrandbits
        kind = _KIND_NAMES[bisect_right(_KIND_SUMS, random())]
        lo, n, k = _SIZE_SPANS[kind]
        size = getrandbits(k)
        while size >= n:
            size = getrandbits(k)
        profile = _SUB_NAMES[bisect_right(_SUB_SUMS, random())]
        param = 0.0
        span = _PARAM_SPANS.get(profile)
        if span is not None:
            plo, n, k, scale = span
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            param = float((plo + r) * scale)
        url = f"http://{self.host}/r/{self.next_sub_id}{_EXT[kind]}"
        self.next_sub_id += 1
        return url, kind, lo + size, profile, param

    def mint_page(self) -> int:
        getrandbits = self.getrandbits
        profile = _MAIN_NAMES[bisect_right(_MAIN_SUMS, self.random())]
        param = 0.0
        span = _PARAM_SPANS.get(profile)
        if span is not None:
            plo, n, _, scale = span
            param = float((plo + _below(getrandbits, n)) * scale)
        lo, n, _ = _SIZE_SPANS["html"]
        page = _Page(
            url=f"http://{self.host}/p/{self.next_page_id}",
            size=lo + _below(getrandbits, n),
            profile=profile,
            param=param,
            unique=[self._new_sub() for _ in range(self.n_unique)],
        )
        self.next_page_id += 1
        self.pages.append(page)
        return len(self.pages) - 1

    def churn(self) -> None:
        rate = self.params.churn_rate_per_day
        if rate <= 0.0:
            return
        random, new_sub = self.random, self._new_sub
        for slots in (self.pool, *[page.unique for page in self.pages]):
            for i in range(len(slots)):
                if random() < rate:
                    slots[i] = new_sub()

    def build_visit(self, page_idx: int, ts: float, directives: dict) -> PageVisit:
        page = self.pages[page_idx]
        page_url = page.url
        # Stable per-page interleaving so the document order is not
        # trivially "all shared first".  crc32, not hash(): builtin string
        # hashing is salted per process and would break trace determinism.
        order = sorted(
            self.pool + page.unique,
            key=lambda sub: zlib.crc32(f"{page_url}|{sub[0]}".encode()),
        )
        records = tuple([
            ResourceRecord(url, kind, size, _directives(profile, param, ts, directives), ts)
            for url, kind, size, profile, param in order
        ])
        main = ResourceRecord(
            page_url, "html", page.size, _directives(page.profile, page.param, ts, directives), ts
        )
        return PageVisit("synth", ts, main, records)


def generate_synthetic(params: SynthParams) -> Trace:
    """Generate ``params.visits`` page visits across ``params.n_sites`` sites.

    New-visit draws mint a page until the site's ``pages_per_site``
    universe is exhausted, then fall back to revisits; revisit targets
    are sampled from the site's past visits, so frequently revisited
    pages stay popular.  Churn runs once per simulated day.
    """
    rng = random.Random(params.seed)
    sites = [_Site(i, params, rng) for i in range(params.n_sites)]
    directives: dict[tuple[str, float], CacheDirectives] = {}
    visits: list[PageVisit] = []
    current_day = 0
    for n in range(params.visits):
        ts = _START_TS + n * _SPACING_S
        day = int((ts - _START_TS) // 86400)
        while current_day < day:
            for site in sites:
                site.churn()
            current_day += 1
        site = sites[rng.randrange(params.n_sites)]
        want_new = rng.random() < params.new_visit_rate
        if want_new and len(site.pages) < params.pages_per_site:
            page_idx = site.mint_page()
        elif site.visit_log:
            page_idx = rng.choice(site.visit_log)
        elif len(site.pages) < params.pages_per_site:
            page_idx = site.mint_page()
        else:
            page_idx = rng.randrange(len(site.pages))
        site.visit_log.append(page_idx)
        visits.append(site.build_visit(page_idx, ts, directives))
    return Trace(visits=visits)
