from __future__ import annotations

import math
import random
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specload.cache import CacheStore, admit
from specload.errors import InvalidParams
from specload.graph import (
    GraphNode,
    MetadataRepository,
    NodeType,
    dumps_repo,
    loads_repo,
    trim,
    update,
)
from specload.predict import (
    LoadPlan,
    PlannedLoad,
    Prediction,
    VisitClass,
    evaluate_prediction,
    plan_loads,
    predict,
    priority_key,
    replay_predictor,
    revise_queue,
    round_half_up,
)
from specload.trace import PageVisit, Trace
from specload.urls import host_of, website_key

from conftest import rec, visit, trace_of
from priority_oracle import candidate_of, sort_candidates


def node(url, kind="script", parents=1, visits=1):
    return GraphNode(
        node_id=0,
        node_type=NodeType.SUBRESOURCE,
        url_or_name=url,
        resource_kind=kind,
        last_visit=0.0,
        n_visits=visits,
        parents=set(range(parents)),
    )


# --- priority order -------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(0.5, 1), (1.5, 2), (2.5, 3), (0.49, 0), (3.0, 3), (-0.5, 0)],
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


def test_sort_order_by_hand():
    a = node("http://s/shared.js", parents=5, visits=2)
    b = node("http://s/rare.js", parents=1, visits=9)  # fewer parents loses
    c = node("http://s/style.css", kind="stylesheet", parents=5, visits=2)
    d = node("http://s/pic.png", kind="image", parents=5, visits=9)
    e = node("http://s/blob.bin", kind="other", parents=5, visits=9)
    f = node("http://s/hot.js", parents=5, visits=7)  # more visits than a
    g = node("http://s/aa.js", parents=1, visits=9)  # shorter URL than b
    h = node("http://s/ab.js", parents=1, visits=9)  # URL tiebreak vs g

    got = sorted([b, e, h, a, d, g, c, f], key=priority_key)
    assert got == [f, a, c, d, e, g, h, b]


_nodes = st.lists(
    st.builds(
        node,
        url=st.text(
            alphabet="abcdefgh:/.",
            min_size=1,
            max_size=12,
        ),
        kind=st.sampled_from(["script", "stylesheet", "image", "other", None]),
        parents=st.integers(min_value=0, max_value=50),
        visits=st.integers(min_value=0, max_value=50),
    ),
    max_size=30,
)


@settings(max_examples=1000, deadline=None)
@given(_nodes, st.randoms(use_true_random=False))
def test_sort_is_a_total_order(nodes, rng):
    ordered = sorted(nodes, key=priority_key)
    assert sorted(n.url_or_name for n in ordered) == sorted(n.url_or_name for n in nodes)
    for x, y in zip(ordered, ordered[1:]):
        assert priority_key(x) <= priority_key(y)
    # input order never matters: any shuffle sorts to the same sequence
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    assert [priority_key(n) for n in sorted(shuffled, key=priority_key)] == [
        priority_key(n) for n in ordered
    ]
    # and it is the order the independent oracle gives
    assert [candidate_of(n).sort_key() for n in ordered] == [
        c.sort_key() for c in sort_candidates([candidate_of(n) for n in nodes])
    ]


# --- plan_loads ------------------------------------------------------


def _prediction(urls):
    return Prediction(urls=tuple(urls), visit_class=VisitClass.REVISIT)


def test_plan_respects_connection_budget_and_cache():
    store = CacheStore(capacity_bytes=10**6)
    admit(store, rec("http://s/fresh.js", max_age=100, fetched_at=0.0), now=0.0)
    admit(store, rec("http://s/stale.js", max_age=1, fetched_at=0.0), now=0.0)

    urls = [f"http://s/{i}.js" for i in range(4)]
    plan = plan_loads(
        _prediction(["http://s/fresh.js", "http://s/stale.js", *urls]),
        store,
        now=50.0,
        max_connections=4,
    )
    assert len(plan.immediate) == 3
    assert plan.immediate[0] == PlannedLoad(url="http://s/stale.js", action="revalidate")
    assert [p.url for p in plan.immediate[1:]] == urls[:2]
    assert [p.url for p in plan.waiting] == urls[2:]
    assert all(p.action == "fetch" for p in plan.immediate[1:] + plan.waiting)
    assert "http://s/fresh.js" not in plan.all_urls()


def test_plan_rejects_zero_connections():
    with pytest.raises(InvalidParams):
        plan_loads(_prediction([]), CacheStore(capacity_bytes=1), 0.0, max_connections=0)


@settings(max_examples=1000, deadline=None)
@given(
    urls=st.lists(
        st.integers(min_value=0, max_value=30).map(lambda i: f"http://s/{i}.js"),
        unique=True,
        max_size=20,
    ),
    fresh=st.sets(st.integers(min_value=0, max_value=30)),
    connections=st.integers(min_value=1, max_value=6),
)
def test_plan_properties(urls, fresh, connections):
    store = CacheStore(capacity_bytes=10**9)
    for i in fresh:
        admit(store, rec(f"http://s/{i}.js", max_age=1000, fetched_at=0.0), now=0.0)
    plan = plan_loads(_prediction(urls), store, now=1.0, max_connections=connections)

    fresh_urls = {f"http://s/{i}.js" for i in fresh}
    survivors = [u for u in urls if u not in fresh_urls]
    assert len(plan.immediate) <= connections - 1
    assert plan.all_urls() == survivors  # order kept, fresh dropped, no dups
    assert len(set(plan.all_urls())) == len(plan.all_urls())


# --- revise_queue ----------------------------------------------------


def test_revise_drops_kept_and_appends_in_document_order():
    plan = LoadPlan(
        immediate=(PlannedLoad("http://s/a.js", "fetch"),),
        waiting=(
            PlannedLoad("http://s/b.js", "fetch"),
            PlannedLoad("http://s/c.js", "revalidate"),
        ),
        max_connections=2,
    )
    revised = revise_queue(
        plan, ["http://s/z.css", "http://s/c.js", "http://s/z.css", "http://s/y.png"]
    )
    assert revised.immediate == plan.immediate  # in flight stays
    assert [w.url for w in revised.waiting] == [
        "http://s/c.js",  # kept (still needed), original position
        "http://s/z.css",  # appended, document order
        "http://s/y.png",
    ]
    # in-flight a.js is never re-queued even though it was not needed
    assert "http://s/a.js" not in [w.url for w in revised.waiting]


@settings(max_examples=1000, deadline=None)
@given(
    immediate=st.lists(st.integers(0, 20), unique=True, max_size=3),
    waiting=st.lists(st.integers(21, 40), unique=True, max_size=10),
    needed=st.lists(st.integers(0, 60), max_size=25),
)
def test_revise_properties(immediate, waiting, needed):
    def u(i):
        return f"http://s/{i}.js"

    plan = LoadPlan(
        immediate=tuple(PlannedLoad(u(i), "fetch") for i in immediate),
        waiting=tuple(PlannedLoad(u(i), "fetch") for i in waiting),
        max_connections=4,
    )
    needed_urls = [u(i) for i in needed]
    revised = revise_queue(plan, needed_urls)

    assert revised.immediate == plan.immediate
    kept = [w for w in revised.waiting if w in plan.waiting]
    appended = [w for w in revised.waiting if w not in plan.waiting]
    assert revised.waiting == tuple(kept) + tuple(appended)
    # kept is exactly the still-needed original queue, order preserved
    assert kept == [w for w in plan.waiting if w.url in set(needed_urls)]
    # appended is exactly needed - inflight - kept, deduped, document order
    already = {w.url for w in plan.immediate} | {w.url for w in kept}
    expect = []
    for url in needed_urls:
        if url not in already and url not in expect:
            expect.append(url)
    assert [w.url for w in appended] == expect
    assert len(set(w.url for w in revised.waiting)) == len(revised.waiting)


# --- predict ---------------------------------------------------------


def _grown_repo():
    repo = MetadataRepository()
    subs_p1 = [
        rec("http://www.news.example/shared.js", kind="script"),
        rec("http://www.news.example/theme.css", kind="stylesheet"),
        rec("http://cdn.news.example/logo.png", kind="image"),
    ]
    subs_p2 = [
        rec("http://www.news.example/shared.js", kind="script"),
        rec("http://www.news.example/extra.png", kind="image"),
    ]
    v1 = PageVisit(
        user_id="u",
        timestamp=100.0,
        main=rec("http://www.news.example/a", kind="html"),
        subresources=tuple(subs_p1),
        discovery_offsets=(),
    )
    v2 = PageVisit(
        user_id="u",
        timestamp=200.0,
        main=rec("http://www.news.example/b", kind="html"),
        subresources=tuple(subs_p2),
        discovery_offsets=(),
    )
    update(repo, v1)
    update(repo, v2)
    update(repo, v2)  # page b visited twice
    return repo


def test_unknown_site_predicts_nothing():
    pred = predict(MetadataRepository(), "http://never-seen.example/")
    assert pred.urls == () and pred.visit_class is VisitClass.UNKNOWN


def test_revisit_returns_all_children_in_order():
    repo = _grown_repo()
    pred = predict(repo, "http://www.news.example/a")
    assert pred.visit_class is VisitClass.REVISIT
    # shared.js: 2 parents; then kind order css before png
    assert pred.urls == (
        "http://www.news.example/shared.js",
        "http://www.news.example/theme.css",
        "http://cdn.news.example/logo.png",
    )


def test_new_page_on_known_subdomain_borrows_and_truncates():
    repo = _grown_repo()
    pred = predict(repo, "http://www.news.example/new-page")
    assert pred.visit_class is VisitClass.NEW_VISIT_SUBDOMAIN_KNOWN
    # www pages a,b have 3 and 2 children: mean 2.5 rounds half up to 3
    assert len(pred.urls) == 3
    assert pred.urls[0] == "http://www.news.example/shared.js"


def test_new_subdomain_falls_back_to_website_scope():
    repo = _grown_repo()
    pred = predict(repo, "http://m.news.example/front")
    assert pred.visit_class is VisitClass.NEW_VISIT_WEBSITE_KNOWN
    assert pred.urls[0] == "http://www.news.example/shared.js"
    assert len(pred.urls) == 3  # same mean over all site pages


def test_truncation_floor_is_one():
    repo = MetadataRepository()
    update(repo, visit("http://tiny.example/only", ["http://tiny.example/x.js"], ts=1.0))
    pred = predict(repo, "http://tiny.example/other")
    assert len(pred.urls) == 1


# --- the kept ranking against a full scan ----------------------------

DAY = 86400.0


def reference_predict(repo: MetadataRepository, url: str) -> Prediction:
    """The scan ``predict`` replaced: gather the whole scope, order it
    with the independent oracle, keep the scope's mean fan-out."""
    graph = repo.graphs.get(website_key(url))
    if graph is None:
        return Prediction(urls=(), visit_class=VisitClass.UNKNOWN)
    nodes = graph.nodes
    page_id = graph.page_index.get(url)
    if page_id is not None:
        scope = nodes[page_id].children
        k, visit_class = len(scope), VisitClass.REVISIT
    else:
        subdomain_id = graph.subdomain_index.get(host_of(url))
        if subdomain_id is not None:
            page_ids = list(nodes[subdomain_id].children)
            scope = set().union(*(nodes[pid].children for pid in page_ids))
            visit_class = VisitClass.NEW_VISIT_SUBDOMAIN_KNOWN
        else:
            page_ids = list(graph.page_index.values())
            scope = set(graph.sub_index.values())
            visit_class = VisitClass.NEW_VISIT_WEBSITE_KNOWN
        mean = fmean(len(nodes[pid].children) for pid in page_ids) if page_ids else 0.0
        k = max(1, math.floor(mean + 0.5))
    ordered = sort_candidates([candidate_of(nodes[nid]) for nid in scope])
    return Prediction(urls=tuple(c.url for c in ordered[:k]), visit_class=visit_class)


def assert_kept_orders_exact(repo: MetadataRepository) -> None:
    """Every graph that has built its ranking holds the oracle's order."""
    for graph in repo.graphs.values():
        if graph._ranking is None:
            continue
        subs = [graph.nodes[nid] for nid in graph.sub_index.values()]
        assert [candidate_of(n).sort_key() for n in graph.ranked_subresources()] == [
            c.sort_key() for c in sort_candidates([candidate_of(n) for n in subs])
        ]


def _sub_url(site: int, host: str, i: int) -> str:
    if i < 6:  # shared by the site's pages
        return f"http://cdn.site{site}.com/r{i}.js"
    if i < 8:  # one subdomain's own
        return f"http://{host}.site{site}.com/own{i}.css"
    return f"http://tracker.net/t{i}.js"  # third party, on every site


_probes = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["www", "m", "blog"]), st.integers(0, 6)),
    max_size=4,
)
_ranking_ops = st.tuples(
    st.one_of(
        # Timestamps come in any order and land on the trim thresholds.
        st.tuples(
            st.just("update"),
            st.integers(0, 2),
            st.sampled_from(["www", "m", "blog"]),
            st.integers(0, 4),
            st.lists(
                st.tuples(
                    st.integers(0, 9),
                    st.sampled_from(["script", "stylesheet", "image", "other"]),
                ),
                max_size=6,
                unique_by=lambda sub: sub[0],
            ),
            st.integers(0, 40),
        ),
        st.tuples(
            st.just("trim"), st.integers(0, 44), st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0])
        ),
        st.just(("reload",)),
    ),
    _probes,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ranking_ops, max_size=40))
def test_kept_ranking_predicts_like_a_full_scan(ops):
    repo = MetadataRepository()
    for op, probes in ops:
        if op[0] == "update":
            _, site, host, page, subs, half_days = op
            ts = half_days * DAY / 2
            update(
                repo,
                PageVisit(
                    user_id="u",
                    timestamp=ts,
                    main=rec(f"http://{host}.site{site}.com/p{page}", kind="html"),
                    subresources=tuple(
                        rec(_sub_url(site, host, i), kind=kind, fetched_at=ts)
                        for i, kind in subs
                    ),
                ),
            )
        elif op[0] == "trim":
            _, half_days, max_age_days = op
            trim(repo, half_days * DAY / 2, max_age_days)
        else:
            repo = loads_repo(dumps_repo(repo))
        # Pages 5 and 6 are never visited, site 3 never exists.
        for site, host, page in probes:
            url = f"http://{host}.site{site}.com/p{page}"
            assert predict(repo, url) == reference_predict(repo, url)
        assert_kept_orders_exact(repo)


def test_trimmed_page_takes_parents_from_a_ranked_subresource():
    shared, own, other = (f"http://www.a.com/{n}.js" for n in ("s", "a", "b"))
    repo = MetadataRepository()
    update(repo, visit("http://www.a.com/p1", [shared, own], ts=0.0))
    update(repo, visit("http://www.a.com/p1", [shared, own], ts=1.0))
    update(repo, visit("http://www.a.com/p2", [shared, other], ts=40 * DAY))
    update(repo, visit("http://www.a.com/p3", [other], ts=40 * DAY))
    new_page = "http://www.a.com/new"
    # shared.js and b.js both have two parents; shared.js has more visits.
    assert predict(repo, new_page).urls == (shared, other)
    # p1 and a.js go stale, so shared.js is left with one parent.
    assert trim(repo, now=40 * DAY, max_age_days=30.0) == 2
    assert predict(repo, new_page).urls == (other, shared)
    assert predict(repo, new_page) == reference_predict(repo, new_page)
    assert_kept_orders_exact(repo)


def test_stale_edge_takes_a_parent_from_a_ranked_subresource():
    shared, other, own = (f"http://www.a.com/{n}.js" for n in ("s", "b", "c"))
    repo = MetadataRepository()
    update(repo, visit("http://www.a.com/p1", [shared], ts=0.0))
    update(repo, visit("http://www.a.com/p1", [shared], ts=1.0))
    update(repo, visit("http://www.a.com/p1", [own], ts=40 * DAY))
    update(repo, visit("http://www.a.com/p2", [shared, other], ts=40 * DAY))
    update(repo, visit("http://www.a.com/p3", [other], ts=40 * DAY))
    new_page = "http://www.a.com/new"
    assert predict(repo, new_page).urls == (shared, other)
    # Every node stays; only p1's edge to shared.js goes stale.
    assert trim(repo, now=40 * DAY, max_age_days=30.0) == 0
    assert predict(repo, new_page).urls == (other,)
    assert predict(repo, new_page) == reference_predict(repo, new_page)
    assert_kept_orders_exact(repo)


def test_prediction_rejects_duplicates():
    with pytest.raises(ValueError):
        Prediction(urls=("http://s/a", "http://s/a"), visit_class=VisitClass.UNKNOWN)


# --- evaluation ------------------------------------------------------


def test_evaluate_prediction_set_semantics():
    scores = evaluate_prediction(
        ["http://s/a", "http://s/b", "http://s/c", "http://s/c"],
        ["http://s/b", "http://s/c", "http://s/d"],
    )
    assert scores["hit_ratio"] == pytest.approx(2 / 3)
    assert scores["usefulness"] == pytest.approx(2 / 3)
    assert evaluate_prediction([], ["http://s/a"]) == {"hit_ratio": 0.0, "usefulness": 0.0}
    assert evaluate_prediction(["http://s/a"], [])["usefulness"] == 0.0


def test_replay_hand_oracle_and_buckets():
    day = 86400.0
    subs = ["http://s.example/a.js", "http://s.example/b.css"]
    v0 = visit("http://s.example/p", subs, ts=0.0)
    v1 = visit("http://s.example/p", subs, ts=3 * day)
    v2 = visit("http://s.example/p", subs, ts=8 * day)
    result = replay_predictor(trace_of(v0, v1, v2))

    assert [r.visit_class for r in result.per_visit] == [
        VisitClass.UNKNOWN,
        VisitClass.REVISIT,
        VisitClass.REVISIT,
    ]
    assert [r.hit_ratio for r in result.per_visit] == [0.0, 1.0, 1.0]
    assert [r.usefulness for r in result.per_visit] == [0.0, 1.0, 1.0]
    assert result.mean_hit_ratio == pytest.approx(2 / 3)

    assert [(b.index, b.n_predictions) for b in result.weekly] == [(0, 2), (1, 1)]
    assert result.weekly[0].hit_ratio == pytest.approx(0.5)
    assert result.weekly[1].hit_ratio == 1.0
    assert [(b.index, b.n_predictions) for b in result.monthly] == [(0, 3)]


def test_replay_warmup_excludes_rows():
    subs = ["http://s.example/a.js"]
    vs = [visit("http://s.example/p", subs, ts=float(i)) for i in range(4)]
    result = replay_predictor(trace_of(*vs), warmup_fraction=0.5)
    assert len(result.per_visit) == 2
    # graph already knows the page, so both evaluated rows are perfect
    assert all(r.hit_ratio == 1.0 for r in result.per_visit)
    with pytest.raises(InvalidParams):
        replay_predictor(trace_of(*vs), warmup_fraction=1.0)


def test_pure_revisit_traces_hit_perfectly():
    # after update(visit), predict must return exactly the visit's sub set
    rng = random.Random(99)
    for case in range(200):
        repo = MetadataRepository()
        site = f"site{case}.example"
        n = rng.randint(1, 12)
        subs = [
            f"http://{rng.choice(['www', 'cdn', 'm'])}.{site}/r{i}.{rng.choice(['js', 'css', 'png'])}"
            for i in range(n)
        ]
        v = PageVisit(
            user_id="u",
            timestamp=float(case),
            main=rec(f"http://www.{site}/page", kind="html"),
            subresources=tuple(
                rec(u, kind=rng.choice(["script", "stylesheet", "image", "other"]))
                for u in subs
            ),
            discovery_offsets=(),
        )
        update(repo, v)
        pred = predict(repo, f"http://www.{site}/page")
        assert pred.visit_class is VisitClass.REVISIT
        assert set(pred.urls) == set(subs)
        assert len(pred.urls) == len(subs)
