"""Resource graph tests.

The trim comparison uses an independent oracle: rebuilding a fresh
repository from only the visits inside the retention window must yield
the same structure as updating with everything and trimming once.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import visit
from specload.errors import CorruptRepository
from specload.graph import (
    MetadataRepository,
    NodeType,
    dumps_repo,
    get_subdomain_node,
    get_webpage_node,
    load_repo,
    loads_repo,
    repo_stats,
    save_repo,
    trim,
    update,
)
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
    page = get_webpage_node(repo, "http://www.shop.com/cart")
    assert page is not None and page.n_visits == 1 and page.last_visit == 10.0
    sub = get_subdomain_node(repo, "http://www.shop.com/cart")
    assert sub is not None and sub.url_or_name == "www.shop.com"


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
    page = get_webpage_node(repo, "http://www.shop.com/")
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
    d1 = update(repo, visit("http://a.com/", ["http://a.com/1.js"], ts=0.0))
    assert d1.nodes_added == 4
    d2 = update(repo, visit("http://a.com/", ["http://a.com/1.js"], ts=1.0))
    assert d2.nodes_added == 0
    assert d2.nodes_touched == 4


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


def test_concurrent_updates_stay_consistent():
    repo = MetadataRepository()
    errors = []

    def worker(tag):
        try:
            for i in range(50):
                update(
                    repo,
                    visit(
                        f"http://a.com/{tag}-{i % 5}",
                        [f"http://a.com/r{i % 7}.js"],
                        ts=float(i),
                    ),
                )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    graph = repo.graphs["a.com"]
    # every child link has a matching parent link
    for node in graph.nodes.values():
        for cid in node.children:
            assert node.node_id in graph.nodes[cid].parents
    assert sum(n.n_visits for n in graph.nodes.values() if n.node_type is NodeType.WEBPAGE) == 200
