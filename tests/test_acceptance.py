"""End-to-end acceptance checks with pinned tolerances.

One test per claim the toolkit makes about itself.  Run with

    pytest tests/test_acceptance.py -v -s

to get one pass/fail line per check; each test also prints the measured
numbers next to their limits.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from pathlib import Path

import pytest
import requests

from specload.cache import CacheStore, admit, replay_cache_sim
from specload.cli import main as cli_main
from specload.errors import InvalidParams
from specload.fixture import fixture_server
from specload.graph import MetadataRepository, repo_stats, trim, update
from specload.live import FetchSession, fetch_page
from specload.predict import (
    Prediction,
    VisitClass,
    plan_loads,
    predict,
    replay_predictor,
    revise_queue,
)
from specload.prefetch import evaluate_prefetch
from specload.sim import (
    EMPTY,
    FRESH,
    NetworkParams,
    simulate_page,
    simulate_trace,
)
from specload.synth import SynthParams, generate_synthetic
from specload.trace import PageVisit, Trace
from specload.urls import normalize_url

from conftest import IssueRecorder, fixture_process, rec, visit, trace_of
from priority_oracle import PredictionCandidate, candidate_of, sort_candidates
from test_cache import naive_replay
from test_graph import build as build_graphs, random_visits

DAY = 86400.0


def _oracle(v: PageVisit) -> Prediction:
    return Prediction(
        urls=tuple(normalize_url(r.url) for r in v.subresources),
        visit_class=VisitClass.REVISIT,
    )


def _ok(number: int, name: str, detail: str) -> None:
    print(f"PASS {number:02d} {name}: {detail}")


@pytest.fixture(scope="module")
def trace_1000() -> Trace:
    return generate_synthetic(SynthParams(visits=1000, seed=0))


@pytest.fixture(scope="module")
def default_trace() -> Trace:
    return generate_synthetic(SynthParams(seed=0))  # all defaults, 2000 visits


def test_01_fresh_cache_null_result(trace_1000):
    t0 = time.perf_counter()
    result = simulate_trace(trace_1000, cache_state=FRESH)
    elapsed = time.perf_counter() - t0
    assert result.mean.reduction_fraction <= 0.01
    assert elapsed < 5.0
    _ok(
        1,
        "fresh-cache null result",
        f"reduction {result.mean.reduction_fraction:.4%} (limit 1%), "
        f"{elapsed:.2f}s for 1000 visits (limit 5s)",
    )


def test_02_discovery_wait_reduction(trace_1000):
    bound = 100.0 + 1 * 200.0  # parse time + the main resource's setup RTT

    subset = Trace(visits=trace_1000.visits[:300])
    assert all(len(v.subresources) >= 3 for v in subset.visits)
    result = simulate_trace(subset, cache_state=EMPTY)
    below = [p for p in result.pages if p.reduction_ms < bound - 1e-6]
    assert not below

    rng = random.Random(42)
    violations = 0
    worst = math.inf
    for _ in range(500):
        k = rng.randint(1, 10)
        connections = rng.randint(2, 6)
        v = PageVisit(
            user_id="u",
            timestamp=0.0,
            main=rec("http://a.example/p", kind="html", size=rng.randint(0, 250_000)),
            subresources=tuple(
                rec(f"http://a.example/{i}.js", size=rng.randint(0, 250_000))
                for i in range(k)
            ),
            discovery_offsets=tuple(rng.uniform(0.0, 1200.0) for _ in range(k)),
        )
        legacy = simulate_page(v, None, EMPTY, max_connections=connections)
        spec = simulate_page(v, _oracle(v), EMPTY, max_connections=connections)
        if spec > legacy + 1e-6:
            violations += 1
        if k >= connections - 1:
            worst = min(worst, legacy - spec)
            if legacy - spec < bound - 1e-6:
                violations += 1
    assert violations == 0

    # the classic page: two serial round trips collapse into one
    net = NetworkParams(rtt_ms=200.0, parse_ms=0.0, main_extra_rtts=0)
    v = visit(
        "http://h.example/p", [f"http://h.example/{i}.js" for i in range(3)], size=0
    )
    legacy = simulate_page(v, None, EMPTY, net)
    spec = simulate_page(v, _oracle(v), EMPTY, net)
    assert (legacy, spec) == (400.0, 200.0)
    _ok(
        2,
        "discovery-wait reduction",
        f"min reduction {worst:.1f} ms >= {bound:.0f} ms on 800 pages; "
        f"hand oracle {legacy:.0f} -> {spec:.0f} ms",
    )


def test_03_caching_stays_network_bound(default_trace):
    records = [r for v in default_trace.visits for r in (v.main, *v.subresources)]
    weak = sum(
        1
        for r in records
        if r.cache_directives.no_cache
        or (r.cache_directives.max_age is not None and r.cache_directives.max_age <= 600)
    )
    weak_fraction = weak / len(records)
    assert weak_fraction >= 0.5  # precondition for the >50% claim

    six = replay_cache_sim(default_trace, capacity_bytes=6 * 1024 * 1024)
    unbounded = replay_cache_sim(default_trace, capacity_bytes=math.inf)
    na6 = six.counters.network_activity_fraction
    nai = unbounded.counters.network_activity_fraction
    assert na6 - nai <= 0.10
    assert na6 > 0.5 and nai > 0.5

    for report, capacity in ((six, 6 * 1024 * 1024), (unbounded, math.inf)):
        slow = naive_replay(default_trace, capacity)
        got = (
            report.counters.fresh_hits,
            report.counters.revalidations,
            report.counters.misses,
            report.counters.bytes_fetched,
            report.counters.bytes_saved_by_304,
        )
        want = (slow.fresh, slow.reval, slow.miss, slow.bytes_fetched, slow.bytes_304)
        assert got == want  # bit-equal against the brute-force replay

    _ok(
        3,
        "caching weakness trend",
        f"network activity {na6:.4f} @6MB vs {nai:.4f} @inf "
        f"(gap {100 * (na6 - nai):.1f}pp <= 10pp, both > 50%); "
        f"counters bit-equal to the naive replay at both capacities",
    )


def test_04_prediction_beats_prefetching():
    params = SynthParams(visits=5000, seed=0)
    assert params.new_visit_rate == 0.75 and params.shared_fraction == 0.76
    trace = generate_synthetic(params)

    t0 = time.perf_counter()
    replay = replay_predictor(trace)
    prefetch = evaluate_prefetch(trace)
    elapsed = time.perf_counter() - t0

    assert elapsed < 30.0
    assert prefetch.usefulness <= 0.25
    assert replay.overall.usefulness >= 5 * prefetch.usefulness
    ratio = (
        replay.overall.usefulness / prefetch.usefulness
        if prefetch.usefulness
        else math.inf
    )
    _ok(
        4,
        "prediction beats prefetching",
        f"predictor usefulness {replay.overall.usefulness:.3f} vs prefetch "
        f"{prefetch.usefulness:.3f} ({ratio:.1f}x >= 5x), {elapsed:.1f}s for "
        f"5000 visits (limit 30s)",
    )


def test_05_revisit_completeness():
    rng = random.Random(7)
    for case in range(200):
        repo = MetadataRepository()
        site = f"site{case}.example"
        n = rng.randint(1, 15)
        subs = [
            f"http://{rng.choice(['www', 'cdn', 'static'])}.{site}"
            f"/r{i}.{rng.choice(['js', 'css', 'png'])}"
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
        prediction = predict(repo, f"http://www.{site}/page")
        assert prediction.visit_class is VisitClass.REVISIT
        assert set(prediction.urls) == set(subs)
        assert len(prediction.urls) == n

    # pure-revisit replay: every revisit row scores 100% both ways
    rng = random.Random(8)
    page_subs = {
        f"http://s{p % 3}.example/p{p}": [
            f"http://s{p % 3}.example/r{p}_{j}.js" for j in range(rng.randint(1, 8))
        ]
        for p in range(30)
    }
    visits, t = [], 0.0
    for _ in range(3):
        for url, subs in page_subs.items():
            visits.append(visit(url, subs, ts=t))
            t += 60.0
    result = replay_predictor(trace_of(*visits))
    revisit_rows = [r for r in result.per_visit if r.visit_class is VisitClass.REVISIT]
    assert len(revisit_rows) == 60
    assert all(r.hit_ratio == 1.0 and r.usefulness == 1.0 for r in revisit_rows)
    _ok(
        5,
        "revisit completeness",
        "200 random graphs exact; 60/60 revisit rows at 100% hit and usefulness",
    )


def test_06_priority_and_queue_conformance():
    rng = random.Random(2024)
    kinds = ["script", "stylesheet", "image", "other", None]
    violations = 0

    for _ in range(1000):  # total priority order
        cands = [
            PredictionCandidate(
                url="http://s/" + "".join(rng.choices("abcdef", k=rng.randint(1, 8))),
                resource_kind=rng.choice(kinds),
                n_parents=rng.randint(0, 30),
                n_visits=rng.randint(0, 30),
            )
            for _ in range(rng.randint(0, 25))
        ]
        ordered = sort_candidates(cands)
        keys = [c.sort_key() for c in ordered]
        if keys != sorted(keys):
            violations += 1
        if sorted(c.url for c in ordered) != sorted(c.url for c in cands):
            violations += 1
        shuffled = cands[:]
        rng.shuffle(shuffled)
        if [c.sort_key() for c in sort_candidates(shuffled)] != keys:
            violations += 1

    revisits = 0
    for _ in range(200):  # predict's revisit order is the oracle's order
        repo = MetadataRepository()
        kind_of = {i: rng.choice(kinds[:4]) for i in range(15)}
        for t in range(rng.randint(1, 30)):
            subs = rng.sample(range(15), rng.randint(1, 8))
            update(
                repo,
                PageVisit(
                    user_id="u",
                    timestamp=float(t),
                    main=rec(f"http://www.s.example/p{rng.randrange(5)}", kind="html"),
                    subresources=tuple(
                        rec(f"http://cdn.s.example/{'x' * (i % 3)}{i}", kind=kind_of[i])
                        for i in subs
                    ),
                ),
            )
        graph = repo.graphs["s.example"]
        for page_url, page_id in graph.page_index.items():
            children = [graph.nodes[nid] for nid in graph.nodes[page_id].children]
            expected = [c.url for c in sort_candidates([candidate_of(n) for n in children])]
            prediction = predict(repo, page_url)
            revisits += 1
            if prediction.visit_class is not VisitClass.REVISIT:
                violations += 1
            if list(prediction.urls) != expected:
                violations += 1

    for _ in range(1000):  # fresh-hit exclusion, plan order, connection arithmetic
        urls = [f"http://s/{i}.js" for i in rng.sample(range(40), rng.randint(0, 20))]
        fresh = set(rng.sample(range(40), rng.randint(0, 20)))
        store = CacheStore(capacity_bytes=float("inf"))
        for i in fresh:
            admit(store, rec(f"http://s/{i}.js", max_age=10_000, fetched_at=0.0), now=0.0)
        connections = rng.randint(1, 6)
        prediction = Prediction(urls=tuple(urls), visit_class=VisitClass.REVISIT)
        fresh_urls = {f"http://s/{i}.js" for i in fresh}
        survivors = [u for u in urls if u not in fresh_urls]
        if list(plan_loads(prediction, store, now=1.0)) != survivors:
            violations += 1
        if connections == 1:
            try:
                IssueRecorder(connections)
            except InvalidParams:
                continue
            violations += 1
            continue
        scheduler = IssueRecorder(connections)
        scheduler.start(scheduler.plan(prediction, store, now=1.0))
        if scheduler.issued != survivors[: connections - 1]:
            violations += 1
        if scheduler.queued() != survivors[connections - 1 :]:
            violations += 1

    for _ in range(1000):  # queue revision: the scheduler keeps revise_queue's rule
        planned = [f"http://s/{i}.js" for i in rng.sample(range(30), rng.randint(0, 11))]
        connections = rng.randint(2, 6)
        needed = [f"http://s/{i}.js" for i in rng.choices(range(40), k=rng.randint(0, 20))]
        scheduler = IssueRecorder(connections)
        prediction = Prediction(urls=tuple(planned), visit_class=VisitClass.REVISIT)
        scheduler.start(scheduler.plan(prediction, EMPTY, now=0.0))
        issued, queued = list(scheduler.issued), scheduler.queued()
        scheduler.start(job for job in scheduler.parse(needed) if job is not None)
        # The loads in flight stay as they are.
        if scheduler.issued[: len(issued)] != issued:
            violations += 1
        # A connection still free takes the revised queue's head at once.
        started = scheduler.issued[len(issued) :]
        waiting = [u for u in scheduler.queued() if scheduler.jobs[u].required]
        if tuple(started + waiting) != revise_queue(issued, queued, needed):
            violations += 1

    assert violations == 0
    _ok(
        6,
        "priority and queue conformance",
        f"0 violations across 3000 randomized cases and {revisits} predicted revisits",
    )


def test_07_trim_matches_rebuild():
    window_days = 30.0
    for seed in range(100):
        rng = random.Random(seed)
        visits = random_visits(rng, 80)
        now = visits[-1].timestamp

        trimmed = build_graphs(visits)
        trim(trimmed, now=now, max_age_days=window_days)
        rebuilt = build_graphs(
            [v for v in visits if now - v.timestamp <= window_days * DAY]
        )
        assert trimmed.structure() == rebuilt.structure()
    _ok(7, "trim oracle equivalence", "update-then-trim == rebuild on 100 random traces")


def test_08_live_fixture_speedup(tmp_path):
    subs = [f"/r{i}.js" for i in range(6)]
    spec = {
        "delay_ms": 100,
        "pages": {"/index.html": {"subresources": subs}},
        "resources": {s: {"size": 2000} for s in subs},
    }
    with fixture_process(spec, tmp_path) as base:
        url = base + "/index.html"
        learner = FetchSession()
        fetch_page(learner, url, mode="legacy")

        legacy_delays = []
        tempo_delays = []
        for _ in range(20):
            cold = FetchSession()  # no graph, no cache
            legacy_delays.append(fetch_page(cold, url, mode="legacy").delay_ms)
        for _ in range(20):
            warm = FetchSession(repo=learner.repo)  # knows the graph, cold cache
            tempo_delays.append(fetch_page(warm, url, mode="tempo").delay_ms)
    legacy_median = statistics.median(legacy_delays)
    tempo_median = statistics.median(tempo_delays)
    margin = legacy_median - tempo_median
    assert margin >= 80.0

    mutation_spec = {
        "delay_ms": 0,
        "pages": {"/p.html": {"subresources": ["/keep.js", "/old.js"]}},
        "resources": {
            "/keep.js": {"size": 1000},
            "/old.js": {"size": 3333},
            "/new.js": {"size": 500},
        },
    }
    with fixture_server(mutation_spec) as srv:
        url = srv.url("/p.html")
        learner = FetchSession()
        fetch_page(learner, url, mode="legacy")
        requests.post(
            srv.url("/__mutate"),
            json={"pages": {"/p.html": {"subresources": ["/keep.js", "/new.js"]}}},
        )
        warm = FetchSession(repo=learner.repo)
        report = fetch_page(warm, url, mode="tempo")
        mispredicted = [r for r in report.resources if r.outcome == "mispredicted"]
        assert [r.url for r in mispredicted] == [srv.url("/old.js")]
        assert report.overhead_bytes == sum(r.bytes for r in mispredicted) == 3333
    _ok(
        8,
        "live fixture speedup",
        f"median legacy {legacy_median:.0f} ms vs tempo {tempo_median:.0f} ms "
        f"(margin {margin:.0f} >= 80); mispredicted bytes exact (3333)",
    )


def test_09_repository_footprint():
    # Learned with the once-a-day trim that ``graph build --trim-days``
    # and the replay use.
    trace = generate_synthetic(SynthParams(visits=10_000, seed=0))
    repo = MetadataRepository(30.0)
    for v in trace.visits:
        repo.learn(v)
    stats = repo_stats(repo)
    assert stats.n_websites == 10
    assert stats.serialized_size_bytes <= 1_000_000
    _ok(
        9,
        "repository footprint",
        f"{stats.serialized_size_bytes} bytes for 10 sites / 10k visits "
        f"(limit 1MB); {stats.n_webpages} pages, {stats.n_subresources} subresources",
    )


def test_10_deterministic_reports(tmp_path):
    trace = tmp_path / "trace.jsonl"
    artifacts = {
        "trace": trace,
        "cache_csv": tmp_path / "cache.csv",
        "cache_meta": tmp_path / "cache.csv.meta.json",
        "sim_csv": tmp_path / "sim.csv",
        "metrics_csv": tmp_path / "pred.csv",
        "prefetch_csv": tmp_path / "pf.csv",
        "repo": tmp_path / "repo.bin",
        "stats_csv": tmp_path / "stats.csv",
    }

    def run_all() -> dict[str, bytes]:
        commands = [
            ["synth", "--out", str(trace), "--visits", "300", "--seed", "11"],
            ["sim-cache", "--trace", str(trace), "--out", str(artifacts["cache_csv"])],
            [
                "sim-speculative",
                "--trace", str(trace),
                "--oracle",
                "--summary-only",
                "--out", str(artifacts["sim_csv"]),
                "--metrics-out", str(artifacts["metrics_csv"]),
            ],
            [
                "sim-prefetch",
                "--trace", str(trace),
                "--train-days", "5",
                "--out", str(artifacts["prefetch_csv"]),
            ],
            ["graph", "build", "--trace", str(trace), "--out", str(artifacts["repo"])],
            [
                "graph", "stats",
                "--repo", str(artifacts["repo"]),
                "--out", str(artifacts["stats_csv"]),
            ],
        ]
        for argv in commands:
            assert cli_main(argv) == 0
        return {name: Path(path).read_bytes() for name, path in artifacts.items()}

    first = run_all()
    second = run_all()
    assert first == second
    _ok(
        10,
        "deterministic reports",
        f"{len(artifacts)} artifacts byte-identical across seeded re-runs",
    )
