"""Resource graph tests.

The trim comparison uses an independent oracle: rebuilding a fresh
repository from only the visits inside the retention window must yield
the same structure as updating with everything and trimming once.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specload.cli as cli
import specload.graph as graph_module
from conftest import visit
from specload.errors import CorruptRepository, InvalidParams
from specload.graph import (
    _MAGIC,
    _AgeIndex,
    _live,
    MetadataRepository,
    NodeType,
    dumps_repo,
    load_repo,
    loads_repo,
    repo_stats,
    save_repo,
    trim,
    update,
)
from specload.predict import replay_predictor
from specload.sim import simulate_trace
from specload.synth import SynthParams, generate_synthetic
from specload.trace import Trace
from trim_reference import reference_trim

DAY = 86400.0


def build(visits) -> MetadataRepository:
    repo = MetadataRepository()
    for v in visits:
        update(repo, v)
    return repo


def random_visits(rng: random.Random, n: int, n_sites: int = 3):
    """Visits with churn: page -> sub links change over time."""
    out = []
    for i in range(n):
        site = rng.randrange(n_sites)
        sub_host = rng.choice(["www", "m"])
        page = f"http://{sub_host}.site{site}.com/p{rng.randrange(6)}"
        k = rng.randint(1, 5)
        subs = [
            f"http://cdn.site{site}.com/r{rng.randrange(12)}.js" for _ in range(k)
        ]
        subs = list(dict.fromkeys(subs))
        out.append(visit(page, subs, ts=i * 2880.0, user="u"))
    return out


# --- update semantics ----------------------------------------------------


def test_update_builds_four_levels():
    repo = build([visit("http://www.shop.com/cart", ["http://www.shop.com/a.js"], ts=10.0)])
    graph = repo.graphs["shop.com"]
    kinds = sorted(int(n.node_type) for n in graph.nodes.values())
    assert kinds == [0, 1, 2, 3]
    page = graph.nodes[graph.page_index["http://www.shop.com/cart"]]
    assert page.n_visits == 1 and page.last_visit == 10.0
    sub = graph.nodes[graph.subdomain_index["www.shop.com"]]
    assert sub.url_or_name == "www.shop.com"


def test_update_links_only_adjacent_levels():
    repo = build(
        [visit("http://www.shop.com/cart", ["http://cdn.shop.com/a.js"], ts=0.0)]
    )
    graph = repo.graphs["shop.com"]
    for node in graph.nodes.values():
        for cid in node.children:
            assert int(graph.nodes[cid].node_type) == int(node.node_type) + 1


def test_revisit_bumps_counters_once_per_visit():
    v = visit("http://www.shop.com/", ["http://www.shop.com/a.js"], ts=0.0)
    v2 = visit("http://www.shop.com/", ["http://www.shop.com/a.js"], ts=50.0)
    repo = build([v, v2])
    graph = repo.graphs["shop.com"]
    page = graph.nodes[graph.page_index["http://www.shop.com/"]]
    assert page.n_visits == 2
    assert page.last_visit == 50.0


def test_same_url_can_be_page_and_subresource():
    repo = build(
        [
            visit("http://a.com/style-guide", ["http://a.com/x.css"], ts=0.0),
            visit("http://a.com/home", ["http://a.com/style-guide"], ts=1.0),
        ]
    )
    graph = repo.graphs["a.com"]
    assert "http://a.com/style-guide" in graph.page_index
    assert "http://a.com/style-guide" in graph.sub_index
    assert graph.page_index["http://a.com/style-guide"] != graph.sub_index[
        "http://a.com/style-guide"
    ]


def test_update_delta_counts():
    repo = MetadataRepository()
    update(repo, visit("http://a.com/", ["http://a.com/1.js"], ts=0.0))
    graph = repo.graphs["a.com"]
    assert len(graph.nodes) == 4
    update(repo, visit("http://a.com/", ["http://a.com/1.js"], ts=1.0))
    assert len(graph.nodes) == 4
    assert all(node.n_visits == 2 for node in graph.nodes.values())


# --- trim ----------------------------------------------------------------


def test_trim_removes_stale_page_and_orphan_sub():
    old = visit("http://a.com/old", ["http://a.com/only-old.js"], ts=0.0)
    new = visit("http://a.com/new", ["http://a.com/new.js"], ts=40 * DAY)
    repo = build([old, new])
    removed = trim(repo, now=40 * DAY, max_age_days=30.0)
    assert removed > 0
    graph = repo.graphs["a.com"]
    assert "http://a.com/old" not in graph.page_index
    assert "http://a.com/only-old.js" not in graph.sub_index
    assert "http://a.com/new" in graph.page_index


def test_trim_drops_stale_edge_between_fresh_nodes():
    # the page stops referencing r.js but both nodes stay fresh through
    # other visits; only the edge should go
    a = visit("http://a.com/p", ["http://a.com/r.js"], ts=0.0)
    b = visit("http://a.com/p", ["http://a.com/s.js"], ts=40 * DAY)
    c = visit("http://a.com/q", ["http://a.com/r.js"], ts=40 * DAY)
    repo = build([a, b, c])
    trim(repo, now=40 * DAY, max_age_days=30.0)
    graph = repo.graphs["a.com"]
    p = graph.nodes[graph.page_index["http://a.com/p"]]
    r = graph.sub_index["http://a.com/r.js"]
    assert r not in p.children
    q = graph.nodes[graph.page_index["http://a.com/q"]]
    assert r in q.children


def test_trim_deletes_empty_graphs():
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    removed = trim(repo, now=365 * DAY, max_age_days=30.0)
    assert repo.graphs == {}
    assert removed == 4


def test_trim_keeps_boundary_visit():
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    trim(repo, now=30 * DAY, max_age_days=30.0)  # age == window: kept
    assert "a.com" in repo.graphs


@pytest.mark.parametrize("days", [math.nan, math.inf, -math.inf, -1.0, -0.5])
def test_bad_window_is_rejected_on_every_path(days):
    # Unchecked, a NaN or infinite window never trims, so a replay under
    # it equals the untrimmed one, and a negative one is accepted.
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    with pytest.raises(InvalidParams):
        trim(repo, now=DAY, max_age_days=days)
    assert "a.com" in repo.graphs
    with pytest.raises(InvalidParams):
        MetadataRepository(days)
    trace = generate_synthetic(SynthParams(n_sites=2, pages_per_site=5, visits=20, seed=1))
    with pytest.raises(InvalidParams):
        replay_predictor(trace, trim_days=days)
    with pytest.raises(InvalidParams):
        simulate_trace(trace, with_predictor=True, trim_days=days)
    trim(repo, now=DAY, max_age_days=0.0)
    MetadataRepository(0.0)


@pytest.mark.parametrize("seed", range(8))
def test_trim_equals_rebuild_from_window(seed):
    rng = random.Random(seed)
    visits = random_visits(rng, 120)
    now = visits[-1].timestamp
    window_s = 30.0 * DAY

    trimmed = build(visits)
    trim(trimmed, now=now, max_age_days=30.0)
    rebuilt = build([v for v in visits if now - v.timestamp <= window_s])
    assert trimmed.structure() == rebuilt.structure()


_graph_ops = st.one_of(
    # (op, site, host, page, subresources, half-days): timestamps come in
    # any order and land exactly on the trim thresholds.
    st.tuples(
        st.just("update"),
        st.integers(0, 2),
        st.sampled_from(["www", "m"]),
        st.integers(0, 4),
        st.lists(st.integers(0, 7), max_size=4, unique=True),
        st.integers(0, 40),
    ),
    st.tuples(st.just("trim"), st.integers(0, 44), st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0])),
    st.just(("reload",)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_graph_ops, max_size=40))
def test_trim_matches_reference(ops):
    repo, ref = MetadataRepository(), MetadataRepository()
    for op in ops:
        if op[0] == "update":
            _, site, host, page, subs, half_days = op
            v = visit(
                f"http://{host}.site{site}.com/p{page}",
                [f"http://cdn.site{site}.com/r{r}.js" for r in subs],
                ts=half_days * DAY / 2,
            )
            update(repo, v)
            update(ref, v)
        elif op[0] == "trim":
            _, half_days, max_age_days = op
            now = half_days * DAY / 2
            assert trim(repo, now, max_age_days) == reference_trim(ref, now, max_age_days)
        else:
            repo, ref = loads_repo(dumps_repo(repo)), loads_repo(dumps_repo(ref))
        assert dumps_repo(repo) == dumps_repo(ref)


def assert_page_edges_recounted(repo: MetadataRepository) -> None:
    """The kept page-edge totals equal a recount from the nodes."""
    for graph in repo.graphs.values():
        nodes = graph.nodes
        assert graph.page_edges() == sum(
            len(nodes[pid].children) for pid in graph.page_index.values()
        )
        for sid in graph.subdomain_index.values():
            assert graph.page_edges(sid) == sum(
                len(nodes[pid].children) for pid in nodes[sid].children
            )
        assert set(graph._page_edges_under) == set(graph.subdomain_index.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(_graph_ops, max_size=40))
def test_kept_page_edge_totals_equal_a_recount(ops):
    repo = MetadataRepository()
    for op in ops:
        if op[0] == "update":
            _, site, host, page, subs, half_days = op
            update(
                repo,
                visit(
                    f"http://{host}.site{site}.com/p{page}",
                    [f"http://cdn.site{site}.com/r{r}.js" for r in subs],
                    ts=half_days * DAY / 2,
                ),
            )
        elif op[0] == "trim":
            _, half_days, max_age_days = op
            trim(repo, half_days * DAY / 2, max_age_days)
        else:
            repo = loads_repo(dumps_repo(repo))
        assert_page_edges_recounted(repo)


# --- the age index -------------------------------------------------------


def _synth_with_late_visits(seed: int) -> list:
    """A churning synth trace plus two visits whose timestamps go
    backwards: a known page, and a page first seen out of order."""
    visits = list(
        generate_synthetic(
            SynthParams(
                n_sites=4,
                pages_per_site=30,
                subresources_per_page=8,
                churn_rate_per_day=0.3,
                visits=1200,
                seed=seed,
            )
        ).visits
    )
    early = visits[300]
    late_known = replace(visits[200], timestamp=early.timestamp)
    late_new = replace(
        early,
        main=replace(early.main, url=early.main.url + "-late"),
        timestamp=early.timestamp - DAY,
    )
    visits.insert(900, late_known)
    visits.insert(1000, late_new)
    return visits


def _learn_all(visits, trim_days, trim_fn, monkeypatch, reload_at=None):
    """Feed ``visits`` to ``MetadataRepository.learn`` with its trims going
    through ``trim_fn``; returns each trim's ``removed`` and the final
    repository bytes.  At ``reload_at`` the repository is swapped for its
    reloaded copy, which gets the window and the last-trim day back, as
    a file holds neither."""
    removed = []

    def recording(repo, now, max_age_days):
        removed.append(trim_fn(repo, now, max_age_days))
        return removed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "trim", recording)
        repo = MetadataRepository(trim_days)
        for i, v in enumerate(visits):
            if i == reload_at:
                day = repo._day
                repo = loads_repo(dumps_repo(repo))
                repo.trim_days, repo._day = trim_days, day
            repo.learn(v)
    return removed, dumps_repo(repo)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trim_days", [1.0, 7.0, 30.0])
def test_indexed_trim_matches_reference_over_synth(seed, trim_days, monkeypatch):
    visits = _synth_with_late_visits(seed)
    expected = _learn_all(visits, trim_days, reference_trim, monkeypatch)
    assert len(expected[0]) > 30 and sum(expected[0]) > 0

    removed = []

    def recording(repo, now, max_age_days):
        removed.append(trim(repo, now, max_age_days))
        return removed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "trim", recording)
        data = dumps_repo(cli._build_repo(Trace(visits=visits), trim_days))
    assert (removed, data) == expected

    reloaded = _learn_all(visits, trim_days, trim, monkeypatch, reload_at=len(visits) // 2)
    assert reloaded == _learn_all(
        visits, trim_days, reference_trim, monkeypatch, reload_at=len(visits) // 2
    )


def test_age_index_stays_within_its_bound(monkeypatch):
    rebuilds = []
    rebuild = _AgeIndex.rebuild

    def counting(index, graph):
        rebuild(index, graph)
        rebuilds.append(index.size)
        assert index.size <= 2 * _live(graph)

    monkeypatch.setattr(_AgeIndex, "rebuild", counting)
    # Few pages visited often: the index fills with claims that later
    # visits make stale, so it has to compact between trims.
    trace = generate_synthetic(
        SynthParams(n_sites=2, pages_per_site=6, subresources_per_page=5, visits=1500, seed=4)
    )
    repo = MetadataRepository(trim_days=7.0)
    for v in trace.visits:
        repo.learn(v)
        for graph in repo.graphs.values():
            index = graph._age
            if index is not None:
                assert index.size <= 3 * _live(graph)
                assert index.size == sum(1 + len(rids) for _, _, rids in index.heap)
    assert len(rebuilds) > 2 * len(repo.graphs)

    # A trim can shrink the graph far more than the index: a page dated
    # back in time takes its subresources with it, while its newer
    # claims stay queued.  The trim compacts the index itself.
    subs = [f"http://a.com/{i}.js" for i in range(10)]
    repo, ref = MetadataRepository(), MetadataRepository()
    steps = [("update", visit("http://a.com/keep", ["http://a.com/k.js"], ts=30 * DAY))]
    steps.append(("trim", 0.0, 10.0))  # builds the index
    steps += [("update", visit("http://a.com/p", subs, ts=(10 + d) * DAY)) for d in range(6)]
    steps += [("update", visit("http://a.com/p", [], ts=1 * DAY)), ("trim", 12 * DAY, 10.0)]
    _run_against_reference(repo, ref, steps)
    graph = repo.graphs["a.com"]
    assert _live(graph) == 3 and graph._age.size <= 3 * _live(graph)


def test_a_graph_that_never_trims_has_no_index():
    repo = build(random_visits(random.Random(2), 80))
    assert all(graph._age is None for graph in repo.graphs.values())
    trim(repo, now=0.0, max_age_days=30.0)  # nothing is stale yet
    assert all(graph._age is not None for graph in repo.graphs.values())
    back = loads_repo(dumps_repo(repo))
    assert all(graph._age is None for graph in back.graphs.values())


def test_nan_and_backward_timestamps_trim_like_the_reference():
    steps = [
        ("update", "http://a.com/p", ["http://a.com/1.js", "http://a.com/2.js"], 10 * DAY),
        ("trim", 10 * DAY, 30.0),
        ("update", "http://a.com/p", ["http://a.com/1.js"], math.nan),
        ("update", "http://a.com/q", ["http://a.com/2.js"], 2 * DAY),
        ("trim", 20 * DAY, 10.0),
        ("update", "http://a.com/q", ["http://a.com/3.js"], 30 * DAY),
        ("trim", 33 * DAY, 1.0),
        ("trim", 100 * DAY, 0.0),
    ]
    repo, ref = MetadataRepository(), MetadataRepository()
    for step in steps:
        if step[0] == "update":
            # ``PageVisit`` rejects a NaN timestamp; the graph must not
            # break on one either, so it is set past the check.
            v = visit(step[1], step[2])
            object.__setattr__(v, "timestamp", step[3])
            update(repo, v)
            update(ref, v)
        else:
            assert trim(repo, step[1], step[2]) == reference_trim(ref, step[1], step[2])
        assert dumps_repo(repo) == dumps_repo(ref)
    assert "a.com" in repo.graphs  # the NaN page is never stale


def _run_against_reference(repo, ref, steps) -> None:
    """Apply ``("update", visit)`` and ``("trim", now, days)`` steps to
    both repositories, comparing each trim's count and the bytes."""
    for step in steps:
        if step[0] == "update":
            update(repo, step[1])
            update(ref, step[1])
        else:
            assert trim(repo, step[1], step[2]) == reference_trim(ref, step[1], step[2])
        assert dumps_repo(repo) == dumps_repo(ref)


def test_subresource_whose_touching_edge_is_gone_still_ages_out():
    # r's last touch (via p, backwards in time) is its only claim once p
    # is gone: the index must hold subresources, not only edges.
    p, p2, r = "http://a.com/p", "http://a.com/p2", "http://a.com/r.js"
    repo, ref = MetadataRepository(), MetadataRepository()
    _run_against_reference(repo, ref, [
        ("update", visit(p2, [r], ts=20 * DAY)),
        ("update", visit(p, [r], ts=10 * DAY)),
        ("update", visit(p, [], ts=1 * DAY)),
        ("trim", 12 * DAY, 10.0),  # p goes; builds the index
        ("trim", 21 * DAY, 10.0),  # r goes
    ])
    assert r not in repo.graphs["a.com"].sub_index


def test_stale_edge_orphans_a_fresh_subresource_under_the_index():
    p, q, r = "http://a.com/p", "http://a.com/q", "http://a.com/r.js"
    repo, ref = MetadataRepository(), MetadataRepository()
    _run_against_reference(repo, ref, [
        ("update", visit(p, [r], ts=10 * DAY)),
        ("trim", 10 * DAY, 10.0),  # builds the index
        ("update", visit(q, [r], ts=30 * DAY)),
        ("update", visit(q, [], ts=1 * DAY)),
        ("update", visit(p, [], ts=24 * DAY)),
        ("trim", 15 * DAY, 10.0),  # q goes; r keeps its parent p
        ("trim", 25 * DAY, 10.0),  # the p -> r edge goes, and r with it
    ])
    assert r not in repo.graphs["a.com"].sub_index


def test_loaded_timestamps_on_other_edges_trim_like_the_reference():
    # ``dumps_repo`` times page->subresource edges only, so a file that
    # times a subdomain->page edge is corrupt.  It writes no parentless
    # subresource and no childless subdomain either, so a file that holds
    # one is corrupt too.  A subdomain must not be removed by its own age.
    payload = {
        "site": "a.com",
        "nodes": [
            {"i": 0, "y": 0, "u": "a.com", "k": "", "v": 1, "t": 0.0},
            {"i": 1, "y": 1, "u": "www.a.com", "k": "", "v": 1, "t": 0.0},
            {"i": 2, "y": 2, "u": "http://www.a.com/", "k": "html", "v": 1, "t": 100 * DAY},
            {"i": 3, "y": 3, "u": "http://www.a.com/x.js", "k": "script", "v": 1,
             "t": 100 * DAY},
            {"i": 4, "y": 2, "u": "http://www.a.com/b", "k": "html", "v": 1, "t": 100 * DAY},
            {"i": 5, "y": 1, "u": "m.a.com", "k": "", "v": 1, "t": 0.0},
            {"i": 6, "y": 2, "u": "http://m.a.com/", "k": "html", "v": 1, "t": 100 * DAY},
            # Parentless and childless: each one makes the file corrupt.
            {"i": 7, "y": 3, "u": "http://www.a.com/orphan.js", "k": "script", "v": 1,
             "t": 100 * DAY},
            {"i": 8, "y": 1, "u": "cdn.a.com", "k": "", "v": 1, "t": 100 * DAY},
        ],
        "edges": [
            [0, 1, None], [0, 5, None], [1, 2, 50 * DAY], [1, 4, None],
            [2, 3, 100 * DAY], [4, 3, 100 * DAY], [5, 6, 50 * DAY], [0, 8, None],
        ],
    }

    def data():
        body = json.dumps(payload).encode()
        return _MAGIC + struct.pack(">II", 1, len(body)) + body

    with pytest.raises(CorruptRepository, match="timed edge SUBDOMAIN->WEBPAGE"):
        loads_repo(data())
    nodes = payload["nodes"]
    edges = [[p, c, None if c in (2, 6) else ts] for p, c, ts in payload["edges"]]
    unlinked = {7: "SUBRESOURCE http://www.a.com/orphan.js", 8: "SUBDOMAIN cdn.a.com"}
    for nid, name in unlinked.items():
        payload["nodes"] = [n for n in nodes if n["i"] < 7 or n["i"] == nid]
        payload["edges"] = [e for e in edges if e[1] < 7 or e[1] == nid]
        with pytest.raises(CorruptRepository, match=re.escape(f"unlinked {name}")):
            loads_repo(data())
    payload["nodes"] = [n for n in nodes if n["i"] < 7]
    payload["edges"] = [e for e in edges if e[1] < 7]
    repo, ref = loads_repo(data()), loads_repo(data())
    assert_page_edges_recounted(repo)
    _run_against_reference(repo, ref, [("trim", 55 * DAY, 10.0), ("trim", 70 * DAY, 10.0)])
    assert_page_edges_recounted(repo)
    graph = repo.graphs["a.com"]
    assert sorted(graph.subdomain_index) == ["m.a.com", "www.a.com"]


# --- serialization -------------------------------------------------------


def test_repo_roundtrip_preserves_structure_and_counters():
    rng = random.Random(3)
    repo = build(random_visits(rng, 60))
    data = dumps_repo(repo)
    back = loads_repo(data)
    assert back.structure() == repo.structure()
    for site, graph in repo.graphs.items():
        other = back.graphs[site]
        by_key = {
            (int(n.node_type), n.url_or_name): (n.n_visits, n.last_visit)
            for n in graph.nodes.values()
        }
        by_key2 = {
            (int(n.node_type), n.url_or_name): (n.n_visits, n.last_visit)
            for n in other.nodes.values()
        }
        assert by_key == by_key2
        # edge timestamps survive too
        seen = {
            (graph.nodes[p].url_or_name, graph.nodes[c].url_or_name): ts
            for (p, c), ts in graph.edge_seen.items()
        }
        seen2 = {
            (other.nodes[p].url_or_name, other.nodes[c].url_or_name): ts
            for (p, c), ts in other.edge_seen.items()
        }
        assert seen == seen2


def test_save_and_load_files(tmp_path):
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    path = tmp_path / "repo.bin"
    save_repo(repo, path)
    back = load_repo(path)
    assert back.structure() == repo.structure()


def test_loads_rejects_garbage():
    with pytest.raises(CorruptRepository):
        loads_repo(b"not a repo at all")
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    data = dumps_repo(repo)
    with pytest.raises(CorruptRepository):
        loads_repo(data[: len(data) - 5])


def test_loads_rejects_a_key_named_twice():
    repo = build([visit("http://a.com/", ["http://a.com/x.js"], ts=0.0)])
    data = dumps_repo(repo)
    payload = json.loads(data[len(_MAGIC) + 8:])
    sub = next(n for n in payload["nodes"] if n["y"] == int(NodeType.SUBRESOURCE))
    payload["nodes"].append({**sub, "i": 99})
    body = json.dumps(payload).encode()
    with pytest.raises(CorruptRepository, match="duplicate SUBRESOURCE"):
        loads_repo(_MAGIC + struct.pack(">II", 1, len(body)) + body)


def test_repo_stats_counts():
    repo = build(
        [
            visit("http://www.a.com/p1", ["http://www.a.com/1.js"], ts=0.0),
            visit("http://www.a.com/p2", ["http://www.a.com/1.js"], ts=1.0),
            visit("http://b.org/", ["http://b.org/2.css"], ts=2.0),
        ]
    )
    stats = repo_stats(repo)
    assert stats.n_websites == 2
    assert stats.n_subdomains == 2
    assert stats.n_webpages == 3
    assert stats.n_subresources == 2
    assert stats.serialized_size_bytes == len(dumps_repo(repo))
