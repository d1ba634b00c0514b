"""Set up, run and check one benchmark workload in this process.

    python3 workloads.py --workload NAME --seed N --seconds S --traced 0|1 \
        --work DIR --result FILE

``run.py`` starts this once per workload so that peak memory and set-up
time belong to that workload alone.  The workload is set up
``SETUP_REPEATS`` times (set-up time is their median), then its pass is
repeated for about ``--seconds`` seconds: another pass starts only if
the median pass still fits.  Every pass's outputs are checked.  With
``--traced 1`` the tracer wraps the package before set-up, exactly one
pass is measured, and the per-layer numbers are added to the result.

Everything the program sees is generated here from the seed: synthetic
traces through the ``specload synth`` CLI, and for the live workload a
fixture spec served by a fixture server in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import requests  # noqa: E402

import specload.cli as cli  # noqa: E402
import specload.graph as graph  # noqa: E402
import specload.live as live  # noqa: E402
import specload.report as report  # noqa: E402
import specload.trace as trace_io  # noqa: E402
from specload.errors import MainResourceFailed  # noqa: E402
from specload.predict import evaluate_prediction  # noqa: E402

from checks import (  # noqa: E402
    Checks,
    check_cache,
    check_predictor,
    check_prefetch,
    check_sim,
    column_digest,
    read_rows,
)
from tracer import Tracer, median_or_zero, quantile  # noqa: E402

SETUP_REPEATS = 3

# sim-replay: a default-parameter trace, long enough that the per-page
# cost of the simulator visibly grows between the first and last quarter.
SIM_VISITS = 3000

# history-build: more sites and faster churn than the default, so the
# repository and the cache working set grow well past the 6 MB cache.
HISTORY_VISITS = 4000
HISTORY_SITES = 40
HISTORY_PAGES_PER_SITE = 50
HISTORY_CHURN = 0.3

# live-fixture: one small site; three subresources per page keeps the
# pages small against two connections, so speculation can pay off.
LIVE_VISITS = 1000
LIVE_PAGES = 40
LIVE_SUBS = 3
LIVE_DELAY_MS = 20
LIVE_CONNECTIONS = 2
MUTATE_EVERY = 25
# Cache headers.  Pages are no-cache, so every fetch revalidates the
# page and sees its current subresources.  Resources shared by several
# pages are long-lived; each page's own resource must go to the network
# (revalidated or refetched).  Headers are dealt in first-seen order.
# Giving each resource its own header draw from the trace instead made
# visits_per_s differ 2.4x between seeds, because the few resources every
# page shares decide most of the caching.
NO_CACHE = {"Cache-Control": "no-cache"}
SHARED_HEADERS = ({"Cache-Control": "max-age=86400"}, {"Cache-Control": "max-age=2592000"})
UNIQUE_HEADERS = (NO_CACHE, {}, {"Cache-Control": "no-store"})
LIVE_OK_OUTCOMES = ("fetched", "fresh", "revalidated")
LIVE_OUTCOMES = LIVE_OK_OUTCOMES + ("mispredicted", "error")

SIM_COLUMNS = ("url", "timestamp", "visit_class", "legacy_ms", "speculative_ms")
PREDICTOR_COLUMNS = ("bucket", "index", "n_predictions", "hit_ratio", "usefulness")
STATS_COLUMNS = (
    "n_websites",
    "n_subdomains",
    "n_webpages",
    "n_subresources",
    "serialized_size_bytes",
)
CACHE_COLUMNS = (
    "segment",
    "requests",
    "fresh_hits",
    "revalidations",
    "misses",
    "bytes_fetched",
    "bytes_saved_by_304",
)
PREFETCH_COLUMNS = (
    "hit_ratio",
    "usefulness",
    "unnecessary_bytes_fraction",
    "upper_bound_delay_reduction_fraction",
    "n_intervals",
    "n_eval_visits",
    "prefetched_bytes",
)

EXPECTED_DIGESTS = json.loads((HERE / "expected_digests.json").read_text())


class Run:
    """State shared by one workload's set-up, passes and checks."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path, tracer: Tracer | None):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.checks = Checks()
        self.extra: dict = {}

    def unrecorded(self):
        """Checks run against the untraced functions."""
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def cli(self, *argv) -> float:
        t0 = time.perf_counter()
        rc = cli.main([str(a) for a in argv])
        took = time.perf_counter() - t0
        self.checks.check(rc == 0, f"specload {argv[0]} exited {rc}")
        return took

    def synth(self, path: Path, visits: int, *flags) -> float:
        return self.cli("synth", "--out", path, "--visits", visits, "--seed", self.seed, *flags)

    def check_digest(self, digest: str) -> None:
        self.extra["digest"] = digest
        expected = EXPECTED_DIGESTS.get(self.name, {}).get(str(self.seed))
        if expected is not None:
            self.checks.check(
                digest == expected, f"{self.name} seed {self.seed}: result digest changed"
            )


# -- sim-replay ----------------------------------------------------------


def sim_setup(run: Run) -> float:
    run.extra["visits"] = SIM_VISITS
    return run.synth(run.work / "trace.jsonl", SIM_VISITS)


def sim_pass(run: Run) -> float:
    sim_csv, pred_csv = run.work / "sim.csv", run.work / "predictor.csv"
    wall = run.cli(
        "sim-speculative",
        "--trace", run.work / "trace.jsonl",
        "--cache-state", "realistic",
        "--out", sim_csv,
        "--metrics-out", pred_csv,
    )
    sim_rows, pred_rows = read_rows(sim_csv), read_rows(pred_csv)
    check_sim(run.checks, sim_rows, SIM_VISITS)
    check_predictor(run.checks, pred_rows, SIM_VISITS)
    overall = next((r for r in pred_rows if r["bucket"] == "overall"), None)
    if overall is not None:
        run.extra["hit_ratio"] = float(overall["hit_ratio"])
        run.extra["usefulness"] = float(overall["usefulness"])
    run.check_digest(column_digest((sim_rows, SIM_COLUMNS), (pred_rows, PREDICTOR_COLUMNS)))
    return wall


# -- history-build -------------------------------------------------------


def history_setup(run: Run) -> float:
    run.extra["visits"] = HISTORY_VISITS
    took = run.synth(
        run.work / "trace.jsonl",
        HISTORY_VISITS,
        "--sites", HISTORY_SITES,
        "--pages-per-site", HISTORY_PAGES_PER_SITE,
        "--churn-rate", HISTORY_CHURN,
    )
    # Every main and subresource request of the trace, read without
    # specload, for the cache-sim coverage check.
    with (run.work / "trace.jsonl").open() as fh:
        run.extra["requests"] = sum(1 + len(json.loads(line)["subs"]) for line in fh)
    return took


def history_pass(run: Run) -> float:
    w = run.work
    trace_path, repo_bin, trimmed_bin = w / "trace.jsonl", w / "repo.bin", w / "trimmed.bin"
    wall = run.cli("graph", "build", "--trace", trace_path, "--out", repo_bin, "--trim-days", 30)
    wall += run.cli("graph", "stats", "--repo", repo_bin, "--out", w / "stats.csv")
    wall += run.cli("graph", "trim", "--repo", repo_bin, "--out", trimmed_bin)
    wall += run.cli("sim-cache", "--trace", trace_path, "--capacity", "6MB", "--out", w / "cache.csv")
    wall += run.cli("sim-prefetch", "--trace", trace_path, "--out", w / "prefetch.csv")

    checks = run.checks
    stats_rows = read_rows(w / "stats.csv")
    cache_rows = read_rows(w / "cache.csv")
    prefetch_rows = read_rows(w / "prefetch.csv")
    check_cache(checks, cache_rows, run.extra["requests"])
    check_prefetch(checks, prefetch_rows)
    with run.unrecorded():
        repo = graph.load_repo(repo_bin)
        structure = repo.structure()
        checks.check(
            graph.loads_repo(graph.dumps_repo(repo)).structure() == structure,
            "repository does not load back with an equal structure",
        )
        trimmed = graph.load_repo(trimmed_bin).structure()
    n_pages = sum(sum(1 for t, _ in s["nodes"] if t == 2) for s in structure.values())
    n_subs = sum(sum(1 for t, _ in s["nodes"] if t == 3) for s in structure.values())
    checks.check(
        len(stats_rows) == 1
        and int(stats_rows[0]["n_websites"]) == len(structure)
        and int(stats_rows[0]["n_webpages"]) == n_pages
        and int(stats_rows[0]["n_subresources"]) == n_subs,
        "graph stats disagree with the saved repository",
    )
    checks.check(
        all(set(s["nodes"]) <= set(structure[site]["nodes"]) for site, s in trimmed.items()),
        "trimmed repository has nodes the original lacks",
    )
    run.extra["repo_bytes"] = repo_bin.stat().st_size
    run.check_digest(
        column_digest(
            (stats_rows, STATS_COLUMNS),
            (cache_rows, CACHE_COLUMNS),
            (prefetch_rows, PREFETCH_COLUMNS),
        )
    )
    return wall


# -- live-fixture --------------------------------------------------------


def fixture_spec(trace) -> tuple[dict, list[str]]:
    """A fixture serving each page as first seen in the trace, and the
    trace's sequence of page paths.  Sizes and page structure come from
    the trace; subresource cache headers are dealt by role (shared by
    several pages, or used by one) from fixed cycles."""
    pages: dict[str, dict] = {}
    sizes: dict[str, int] = {}
    users: dict[str, int] = {}
    sequence = []
    for visit in trace.visits:
        path = urlsplit(visit.main.url).path
        sequence.append(path)
        if path in pages:
            continue
        subs = [urlsplit(r.url).path for r in visit.subresources]
        pages[path] = {"subresources": subs, "headers": NO_CACHE}
        for record, sub in zip(visit.subresources, subs):
            sizes.setdefault(sub, record.size_bytes)
            users[sub] = users.get(sub, 0) + 1
    resources: dict[str, dict] = {}
    shared = unique = 0
    for sub, size in sizes.items():
        if users[sub] > 1:
            headers = SHARED_HEADERS[shared % len(SHARED_HEADERS)]
            shared += 1
        else:
            headers = UNIQUE_HEADERS[unique % len(UNIQUE_HEADERS)]
            unique += 1
        resources[sub] = {"size": size, "headers": headers}
    return {"delay_ms": LIVE_DELAY_MS, "pages": pages, "resources": resources}, sequence


def start_server(spec_path: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "fixture_server.py"), str(ROOT), str(spec_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.strip().isdigit():
        proc.kill()
        proc.wait()
        raise RuntimeError("fixture server did not start")
    return proc, int(line)


def stop_server(proc: subprocess.Popen) -> dict:
    proc.stdin.close()
    line = proc.stdout.readline()
    proc.wait(timeout=30)
    return json.loads(line)


def live_setup(run: Run) -> float:
    t0 = time.perf_counter()
    trace_path, spec_path = run.work / "trace.jsonl", run.work / "fixture.json"
    run.synth(
        trace_path,
        LIVE_VISITS,
        "--sites", 1,
        "--pages-per-site", LIVE_PAGES,
        "--subs-per-page", LIVE_SUBS,
    )
    spec, sequence = fixture_spec(trace_io.load_trace(trace_path))
    spec_path.write_text(json.dumps(spec, sort_keys=True, indent=1))
    if "server" in run.extra:
        stop_server(run.extra.pop("server"))
    run.extra["server"], run.extra["port"] = start_server(spec_path)
    run.extra["spec"], run.extra["sequence"] = spec, sequence
    return time.perf_counter() - t0


def mutation(spec: dict, expected: dict, sequence: list[str], i: int, rng) -> dict | None:
    """Swap the last subresource of the next page to be revisited for a
    new resource, and change the old one, so that tempo's next visit
    mispredicts bytes and must fetch the new resource."""
    seen = set(sequence[:i])
    page = next((p for p in sequence[i:] if p in seen), None)
    if page is None:
        return None
    old, new = expected[page][-1], f"/m/{i}.js"
    expected[page] = expected[page][:-1] + [new]
    spec["resources"][new] = {"size": rng.randint(2_000, 40_000)}
    return {
        "pages": {page: {"subresources": expected[page], "headers": NO_CACHE}},
        "resources": {new: spec["resources"][new], old: spec["resources"][old]},
    }


def check_page(checks: Checks, page: live.LoadReport, base: str, paths: list[str]) -> None:
    rows = {r.url: r for r in page.resources}
    checks.check(
        rows[page.url].outcome in LIVE_OK_OUTCOMES, f"{page.mode} {page.url}: main not loaded"
    )
    for path in paths:
        row = rows.get(base + path)
        checks.check(
            row is not None and row.outcome in LIVE_OK_OUTCOMES,
            f"{page.mode} {page.url}: required {path} "
            f"{'missing' if row is None else row.outcome}",
        )
    required = {base + p for p in paths}
    for r in page.resources:
        if r.url != page.url and r.url not in required:
            checks.check(r.outcome == "mispredicted", f"{page.mode}: unexpected load {r.url}")
        checks.check(r.outcome != "error", f"{page.mode}: {r.url} failed: {r.error}")
    checks.check(page.delay_ms > 0, f"{page.mode} {page.url}: delay {page.delay_ms}")


def live_pass(run: Run) -> float:
    checks, spec, sequence = run.checks, run.extra["spec"], run.extra["sequence"]
    base = f"http://127.0.0.1:{run.extra['port']}"
    expected = {p: list(v["subresources"]) for p, v in spec["pages"].items()}
    rng = random.Random(run.seed)
    sessions = {m: live.FetchSession(max_connections=LIVE_CONNECTIONS) for m in ("legacy", "tempo")}
    pages: list[tuple[int, live.LoadReport]] = []
    t0 = time.perf_counter()
    for i, path in enumerate(sequence):
        if i and i % MUTATE_EVERY == 0:
            payload = mutation(spec, expected, sequence, i, rng)
            if payload is not None:
                resp = requests.post(base + "/__mutate", json=payload, timeout=10)
                checks.check(resp.status_code == 200, f"mutate returned {resp.status_code}")
        for mode in ("legacy", "tempo") if i % 2 == 0 else ("tempo", "legacy"):
            try:
                page = live.fetch_page(sessions[mode], base + path, mode=mode)
            except MainResourceFailed as exc:
                checks.check(False, f"{mode} {path}: {exc}")
                continue
            check_page(checks, page, base, expected[path])
            pages.append((i, page))
        if time.perf_counter() - t0 >= run.seconds:
            break
    wall = time.perf_counter() - t0
    run.extra["visits"] = i + 1
    for mode, session in sessions.items():
        checks.check(
            session.max_inflight_seen <= LIVE_CONNECTIONS,
            f"{mode} session had {session.max_inflight_seen} requests in flight",
        )
    run.extra["fixture"] = stop_server(run.extra.pop("server"))

    rows = [row for i, page in pages for row in report.rows_for_load_report(page, run=i)]
    report.write_csv(run.work / "fetch.csv", report.FETCH_HEADER, rows)
    written = read_rows(run.work / "fetch.csv")
    checks.check(len(written) == len(rows), "fetch CSV lost rows")
    for r in written:
        checks.check(
            r["outcome"] in LIVE_OUTCOMES and float(r["t_end_ms"]) >= float(r["t_start_ms"]),
            f"bad fetch CSV row for {r['resource']}",
        )
    run.extra.update(live_summary(pages))
    run.extra["fetched_pages"] = len(pages)
    run.extra["max_inflight"] = max(s.max_inflight_seen for s in sessions.values())
    return wall


def live_summary(pages) -> dict:
    delays = {"legacy": [], "tempo": []}
    tempo_bytes = wasted = mispredicted = 0
    resource_ms = []
    hit_ratios, usefulness = [], []
    for _, page in pages:
        delays[page.mode].append(page.delay_ms)
        for r in page.resources:
            if r.outcome in ("fetched", "revalidated", "mispredicted"):
                resource_ms.append(r.t_end_ms - r.t_start_ms)
        if page.mode == "tempo":
            tempo_bytes += page.total_bytes
            wasted += page.overhead_bytes
            mispredicted += sum(1 for r in page.resources if r.outcome == "mispredicted")
            actual = [r.url for r in page.resources[1:] if r.outcome != "mispredicted"]
            scores = evaluate_prediction(page.predicted, actual)
            hit_ratios.append(scores["hit_ratio"])
            usefulness.append(scores["usefulness"])
    return {
        "delays": delays,
        "wasted_fraction": share(wasted, tempo_bytes),
        "mispredicted": mispredicted,
        "resource_ms": resource_ms,
        "hit_ratio": statistics.fmean(hit_ratios) if hit_ratios else 0.0,
        "usefulness": statistics.fmean(usefulness) if usefulness else 0.0,
    }


WORKLOADS = {
    "sim-replay": (sim_setup, sim_pass),
    "history-build": (history_setup, history_pass),
    "live-fixture": (live_setup, live_pass),
}


# -- per-layer numbers ---------------------------------------------------

SELF_TIME_LAYERS = ("trace", "urls", "graph", "predict", "sim", "cache", "prefetch", "report", "live")


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_numbers(run: Run, tracer: Tracer, units: int, synth_s: list[float]) -> dict:
    """Per-layer metrics of one traced pass; ``units`` is the visits
    (offline) or fetched pages (live) that the pass processed."""
    t = tracer
    pages = t.durations("sim.simulate_page")
    quarter = len(pages) // 4
    first, last = (pages[:quarter], pages[-quarter:]) if quarter else ([], [])
    extra = run.extra
    live_pages = t.calls("live.fetch_page")
    fixture = extra.get("fixture", {})
    fixture_requests = fixture.get("requests", 0)
    counters = [s.counters for s in t.cache_stores.values()]
    lookups = sum(c.requests for c in counters)
    resource_ms = extra.get("resource_ms", [])
    delays = extra.get("delays", {"legacy": [], "tempo": []})
    self_s = t.layer_self_seconds()
    out = {
        "synth.generate_s": median_or_zero(synth_s),
        "trace.load_s": t.total("trace.load"),
        "urls.normalize_calls_per_visit": t.calls("urls.normalize") / units,
        "urls.normalize_s": t.counted_seconds("urls.normalize"),
        "graph.update_calls": t.calls("graph.update"),
        "graph.update_s": t.total("graph.update"),
        "graph.trim_calls": t.calls("graph.trim"),
        "graph.trim_s": t.total("graph.trim"),
        "graph.dumps_s": t.total("graph.dumps"),
        "graph.loads_s": t.total("graph.loads"),
        "graph.repo_bytes": extra.get("repo_bytes", 0),
        "predict.calls": t.calls("predict.predict"),
        "predict.predict_us.p50": median_or_zero(t.durations("predict.predict")) * 1e6,
        "predict.plan_loads_s": t.total("predict.plan_loads"),
        "predict.replay_s": t.total("predict.replay"),
        "predict.hit_ratio": extra.get("hit_ratio", 0.0),
        "predict.usefulness": extra.get("usefulness", 0.0),
        "sim.pages": len(pages),
        "sim.page_us.p50": median_or_zero(pages) * 1e6,
        "sim.page_us.first_quarter": median_or_zero(first) * 1e6,
        "sim.page_us.last_quarter": median_or_zero(last) * 1e6,
        "cache.lookup_calls": t.calls("cache.lookup"),
        "cache.lookup_s": t.counted_seconds("cache.lookup"),
        "cache.admit_calls": t.calls("cache.admit"),
        "cache.admit_s": t.counted_seconds("cache.admit"),
        "cache.fresh_fraction": share(sum(c.fresh_hits for c in counters), lookups),
        "cache.revalidate_fraction": share(sum(c.revalidations for c in counters), lookups),
        "cache.miss_fraction": share(sum(c.misses for c in counters), lookups),
        "prefetch.train_calls": t.calls("prefetch.train"),
        "prefetch.train_s": t.total("prefetch.train"),
        "prefetch.evaluate_s": t.total("prefetch.evaluate"),
        "report.write_s": t.total("report.write_csv") + t.total("report.write_sidecar"),
        "live.pages": extra.get("visits", 0) if live_pages else 0,
        "live.resource_ms.p50": median_or_zero(resource_ms),
        "live.resource_overhead_ms.p50": median_or_zero(resource_ms) - LIVE_DELAY_MS
        if resource_ms
        else 0.0,
        "live.parse_us.p50": median_or_zero(t.durations("live.parse")) * 1e6,
        "live.connections_per_page": share(t.calls("http.connect"), live_pages),
        "live.requests_per_page": share(t.calls("http.request"), live_pages),
        "live.mispredicted_loads": extra.get("mispredicted", 0),
        "live.max_inflight": extra.get("max_inflight", 0),
        "fixture.requests": fixture_requests,
        "fixture.not_modified_fraction": share(
            fixture.get("statuses", {}).get("304", 0), fixture_requests
        ),
        "tempo_delay_ms.p50": median_or_zero(delays["tempo"]),
        "tempo_delay_ms.p90": quantile(delays["tempo"], 0.9),
        "legacy_delay_ms.p50": median_or_zero(delays["legacy"]),
        "legacy_delay_ms.p90": quantile(delays["legacy"], 0.9),
        "tempo_wasted_bytes_fraction": extra.get("wasted_fraction", 0.0),
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    run = Run(args.workload, args.seed, args.seconds, args.work, tracer)
    setup, one_pass = WORKLOADS[args.workload]
    try:
        setup_s = [setup(run) for _ in range(SETUP_REPEATS)]
        synth_s = tracer.durations("synth.generate") if tracer else []
        if tracer:
            tracer.reset()
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(one_pass(run))
            if tracer or time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    finally:
        if "server" in run.extra:
            server = run.extra.pop("server")
            server.kill()
            server.wait()

    visits = run.extra["visits"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "walls": walls,
        "visits": visits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": run.checks.as_dict(),
        "digest": run.extra.get("digest"),
    }
    if "delays" in run.extra:
        result["delays"] = run.extra["delays"]
    if tracer:
        units = run.extra.get("fetched_pages", visits)
        result["layers"] = layer_numbers(run, tracer, units, synth_s)
        tracer.write_spans(args.work / "spans.jsonl")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
