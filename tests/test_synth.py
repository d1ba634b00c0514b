from __future__ import annotations

import bisect
import hashlib
import math
import random

import pytest

from specload import synth
from specload.errors import InvalidParams
from specload.synth import VISITS_PER_DAY, SynthParams, _below, generate_synthetic
from specload.trace import save_trace
from specload.urls import normalize_url, website_key


def test_same_seed_same_bytes(tmp_path):
    def dump(params, name):
        path = tmp_path / name
        save_trace(generate_synthetic(params), path)
        return path.read_bytes()

    a = dump(SynthParams(visits=200, seed=42), "a.jsonl")
    b = dump(SynthParams(visits=200, seed=42), "b.jsonl")
    assert a == b
    assert a != dump(SynthParams(visits=200, seed=43), "c.jsonl")


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_emitted_urls_are_canonical(seed):
    trace = generate_synthetic(SynthParams(visits=300, seed=seed))
    for v in trace.visits:
        for r in (v.main, *v.subresources):
            assert normalize_url(r.url) == r.url


def test_visit_count_and_pacing():
    trace = generate_synthetic(SynthParams(visits=90, seed=1))
    assert len(trace.visits) == 90
    spacing = 86400.0 / VISITS_PER_DAY
    ts = [v.timestamp for v in trace.visits]
    assert ts == sorted(ts)
    for a, b in zip(ts, ts[1:]):
        assert b - a == pytest.approx(spacing)


def test_sites_and_subs_per_page():
    params = SynthParams(n_sites=3, subresources_per_page=12, visits=150, seed=5)
    trace = generate_synthetic(params)
    hosts = {website_key(v.main.url) for v in trace.visits}
    assert hosts == {"site0.example", "site1.example", "site2.example"}
    for v in trace.visits:
        assert len(v.subresources) == 12
        assert len({s.url for s in v.subresources}) == 12
        assert v.main.kind == "html"


def test_new_visit_rate_is_respected():
    params = SynthParams(visits=3000, seed=7, pages_per_site=10_000)
    trace = generate_synthetic(params)
    seen: set[str] = set()
    new = 0
    for v in trace.visits:
        if v.main.url not in seen:
            new += 1
            seen.add(v.main.url)
    assert new / len(trace.visits) == pytest.approx(params.new_visit_rate, abs=0.05)


def test_shared_pool_membership():
    # With churn off, the shared part of every page on a site is literally
    # the same URL set; unique subs never repeat across pages.
    params = SynthParams(
        n_sites=1,
        subresources_per_page=20,
        shared_fraction=0.76,
        churn_rate_per_day=0.0,
        visits=200,
        seed=3,
    )
    trace = generate_synthetic(params)
    n_shared = int(0.76 * 20 + 0.5)
    by_page: dict[str, set[str]] = {}
    for v in trace.visits:
        by_page.setdefault(v.main.url, set()).update(s.url for s in v.subresources)
    pages = list(by_page.values())
    assert len(pages) > 3
    shared = set.intersection(*pages)
    assert len(shared) == n_shared
    for i, a in enumerate(pages):
        for b in pages[i + 1 :]:
            assert a & b == shared


def test_directive_mix_mostly_uncacheable():
    trace = generate_synthetic(SynthParams(visits=400, seed=11))
    total = 0
    uncacheable = 0
    for v in trace.visits:
        for r in v.subresources:
            total += 1
            cc = r.cache_directives
            if cc.no_cache or cc.no_store or (cc.max_age is not None and cc.max_age <= 600):
                uncacheable += 1
    assert uncacheable / total >= 0.55


def test_churn_swaps_subresource_urls():
    base = dict(n_sites=1, visits=400, seed=9, new_visit_rate=0.0, pages_per_site=1)
    static = generate_synthetic(SynthParams(churn_rate_per_day=0.0, **base))
    churned = generate_synthetic(SynthParams(churn_rate_per_day=0.3, **base))

    def urls_over_time(trace):
        return [frozenset(s.url for s in v.subresources) for v in trace.visits]

    assert len(set(urls_over_time(static))) == 1
    assert len(set(urls_over_time(churned))) > 5


def test_pages_per_site_is_a_hard_cap():
    params = SynthParams(n_sites=2, pages_per_site=3, visits=500, seed=2)
    trace = generate_synthetic(params)
    per_site: dict[str, set[str]] = {}
    for v in trace.visits:
        per_site.setdefault(website_key(v.main.url), set()).add(v.main.url)
    for pages in per_site.values():
        assert len(pages) <= 3


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_sites=0),
        dict(visits=0),
        dict(subresources_per_page=0),
        dict(shared_fraction=1.5),
        dict(new_visit_rate=-0.1),
        dict(churn_rate_per_day=2.0),
    ],
)
def test_invalid_params_rejected(bad):
    # Checked when built, with no call to generate_synthetic.
    with pytest.raises(InvalidParams):
        SynthParams(**bad)


def test_time_free_directives_are_one_object_per_call():
    params = SynthParams(visits=300, seed=4)
    first, second = generate_synthetic(params), generate_synthetic(params)
    by_url: dict[str, list] = {}
    for v in first.visits:
        for r in (v.main, *v.subresources):
            by_url.setdefault(r.url, []).append(r.cache_directives)
    time_free = [
        ccs for ccs in by_url.values()
        if len(ccs) > 1 and ccs[0].expires is None and ccs[0].last_modified is None
    ]
    assert time_free
    assert all(cc is ccs[0] for ccs in time_free for cc in ccs)
    timed = [ccs for ccs in by_url.values() if len(ccs) > 1 and ccs[0].expires is not None]
    assert timed and all(len({id(cc) for cc in ccs}) == len(ccs) for ccs in timed)
    # The memo belongs to one call: a second call shares nothing.
    again = second.visits[0].subresources[0].cache_directives
    assert again == first.visits[0].subresources[0].cache_directives
    assert again is not first.visits[0].subresources[0].cache_directives


# sha256 of ``save_trace(generate_synthetic(params))`` at each edge of the
# parameters.  A change to the order or the kind of any draw changes them.
_PINNED = {
    "seed0": (
        dict(visits=300, seed=0),
        "823351efbe5b9e45adee5824b57f1d5f7ed496f4d03fb1f9daff6c37caadc3d8",
    ),
    "seed1": (
        dict(visits=300, seed=1),
        "1a6665270bafb06d8242c4467e5f57844b4f2207a5c34b28f05d314bdd87f1ac",
    ),
    "seed2": (
        dict(visits=300, seed=2),
        "5b9b316a5158ffe28a594d9b2c61bd5693f8f7f1de5dae2f3128414364153041",
    ),
    "shared_none": (
        dict(visits=300, shared_fraction=0.0),
        "38c5db5c7bbfae636621bd6336aece403151593d9425eac4697ad9c015c8e70b",
    ),
    "shared_all": (
        dict(visits=300, shared_fraction=1.0),
        "910cfd163327c50b84a669aa42d45a5642ad9b8e103568b53a5654e9a0dc3f5d",
    ),
    "churn_none": (
        dict(visits=300, churn_rate_per_day=0.0),
        "62520fecb1355cc6c45c8328e36112ef89dbc25ab3b98432a298f8575ce32586",
    ),
    "churn_all": (
        dict(visits=300, churn_rate_per_day=1.0),
        "fface24f4a519e052bba97ab649d635298b1bc508f03cccbb4a34596b73e1311",
    ),
    "new_none": (
        dict(visits=300, new_visit_rate=0.0),
        "cc39570a1ce7e0e551573382f9a464d1a64a0143c767482e772d0ebd6ee7ae46",
    ),
    "new_all": (
        dict(visits=300, new_visit_rate=1.0),
        "9e2719466251219f4aa9743f11193bc2d8967be632df524bbd32e009dbadd821",
    ),
    "one_of_each": (
        dict(visits=300, n_sites=3, pages_per_site=1, subresources_per_page=1),
        "e0aa6d987852064f3541acf26d6f5ba2c423945084c111260b8ac3bd59c6adc3",
    ),
    "history_build": (
        dict(visits=600, n_sites=40, pages_per_site=50, churn_rate_per_day=0.3),
        "70a983b261c0f8bf4a3f7a051c53b95a2d33e473d52cea1f6530c0d02c7788b0",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_seeded_bytes_are_pinned(tmp_path, case):
    params, digest = _PINNED[case]
    path = tmp_path / "t.jsonl"
    save_trace(generate_synthetic(SynthParams(**params)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(5))
def test_below_draws_what_randint_draws(seed):
    # ``_below`` copies CPython's ``_randbelow_with_getrandbits``; a
    # CPython that draws ``randint`` another way fails here.
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in (1, 2, 3, 7, 30, 90, 541, 1024, 1025, 2**31, 2**31 + 1):
        lo = n // 3
        drawn = [lo + _below(ours.getrandbits, n) for _ in range(200)]
        assert drawn == [theirs.randint(lo, lo + n - 1) for _ in range(200)]


def _weighted(u: float, pairs) -> str:
    """The first name whose running sum of weights exceeds ``u``, else the last."""
    acc = 0.0
    for name, w in pairs:
        acc += w
        if u < acc:
            return name
    return pairs[-1][0]


@pytest.mark.parametrize(
    "pairs, sums, names",
    [
        (synth._SUB_KINDS, synth._KIND_SUMS, synth._KIND_NAMES),
        (synth._SUB_PROFILES, synth._SUB_SUMS, synth._SUB_NAMES),
        (synth._MAIN_PROFILES, synth._MAIN_SUMS, synth._MAIN_NAMES),
    ],
    ids=["kinds", "sub_profiles", "main_profiles"],
)
def test_weight_tables_pick_what_the_weights_give(pairs, sums, names):
    def pick(u):
        return names[bisect.bisect_right(sums, u)]

    # At a running sum exactly, the next name; past the last sum, the last.
    for i, total in enumerate(sums[:-1]):
        assert pick(total) == pairs[i + 1][0] == _weighted(total, pairs)
    for u in (sums[-1], math.nextafter(sums[-1], 2.0), 1.0):
        assert pick(u) == pairs[-1][0] == _weighted(u, pairs)
    for u in [0.0, *(math.nextafter(total, 0.0) for total in sums), *(i / 997 for i in range(997))]:
        assert pick(u) == _weighted(u, pairs)
