from __future__ import annotations

import pytest

from specload.errors import InvalidParams
from specload.synth import VISITS_PER_DAY, SynthParams, generate_synthetic
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
    with pytest.raises(InvalidParams):
        generate_synthetic(SynthParams(**bad))


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
