"""Command line interface.

    specload synth --out trace.jsonl --seed 7 --visits 2000
    specload sim-cache --trace trace.jsonl --capacity 6MB --out cache.csv
    specload sim-prefetch --trace trace.jsonl --train-days 30 --top-k 10 --out pf.csv
    specload sim-speculative --trace trace.jsonl --cache-state empty --oracle --out sim.csv
    specload graph build --trace trace.jsonl --out repo.bin --trim-days 30
    specload fetch --fixture fixture.json --url /index.html --mode tempo
    specload report sim.csv

Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
from pathlib import Path

from . import __version__, report as rpt
from .cache import CacheStore, replay_cache_sim
from .errors import SpecloadError
from .fixture import fixture_server, load_fixture_spec
from .graph import DAY_S, MetadataRepository, load_repo, repo_stats, save_repo, trim
from .har import import_har
from .live import FetchSession, fetch_page
from .predict import replay_predictor, score_predictions
from .prefetch import evaluate_prefetch
from .sim import EMPTY, EXPIRED, FRESH, NetworkParams, simulate_trace
from .synth import SynthParams, generate_synthetic
from .trace import Trace, load_trace, save_trace


def parse_capacity(text: str) -> float:
    """Capacity strings: '6MB', '32MB', '64MB' (MiB), or 'inf'.

    Only the literal 'inf' is unbounded; a size that is not a finite
    number of bytes ('nanMB', '1e400MB') is rejected, since a NaN
    capacity would silently never evict.
    """
    t = text.strip().lower()
    if t == "inf":
        return math.inf
    if t.endswith("mb"):
        try:
            size = float(t[:-2]) * 1024 * 1024
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad capacity: {text!r}")
        if not math.isfinite(size):
            raise argparse.ArgumentTypeError(
                f"bad capacity: {text!r} (not finite; use 'inf' for an unbounded cache)"
            )
        if size <= 0:
            raise argparse.ArgumentTypeError("capacity must be positive")
        return size
    raise argparse.ArgumentTypeError(
        f"bad capacity: {text!r} (expected e.g. 6MB, 32MB, 64MB, or inf)"
    )


def _bounded(convert, what: str, ok, rule: str):
    """An argparse type that converts with ``convert`` and keeps only values
    for which ``ok`` holds; a usage error names ``what`` and the ``rule``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what}: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"bad {what}: {text!r} ({rule})")
        return value

    return parse


# One connection is held for the main resource.  A NaN or infinite
# window would silently never trim, and a negative one would forget
# visits from the future.  NaN or negative times make nonsense delays.
parse_connections = _bounded(int, "connection count", lambda n: n >= 2, "must be >= 2")
parse_top_k = _bounded(int, "top-k", lambda n: n >= 1, "must be >= 1")
parse_repeat = _bounded(int, "repeat count", lambda n: n >= 1, "must be >= 1")
parse_trim_days = _bounded(
    float, "trim window", lambda d: 0 <= d < math.inf, "must be finite and >= 0"
)
parse_train_days = _bounded(
    float, "training window", lambda d: 0 < d < math.inf, "must be finite and > 0"
)
parse_time_ms = _bounded(float, "time", lambda t: 0 <= t < math.inf, "must be finite and >= 0")


def _net_from(args) -> NetworkParams:
    return NetworkParams(
        rtt_ms=args.rtt_ms,
        parse_ms=args.parse_ms,
    )


def _cache_state_from(args):
    name = args.cache_state
    if name == "fresh":
        return FRESH
    if name == "expired":
        return EXPIRED
    if name == "empty":
        return EMPTY
    return CacheStore(args.capacity)


def _flags_of(args) -> dict:
    skip = {"func", "command", "action"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _emit(args, header, rows) -> None:
    """Write CSV + sidecar when --out given, else print the table."""
    if getattr(args, "out", None):
        rpt.write_csv(args.out, header, rows)
        rpt.write_sidecar(args.out, args.command, _flags_of(args))
        print(f"wrote {args.out}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([rpt.format_cell(c) for c in row] for row in rows)


def cmd_ingest(args) -> int:
    visits = import_har(args.har)
    save_trace(Trace(visits=visits), args.out)
    print(f"wrote {len(visits)} visits to {args.out}")
    return 0


def cmd_synth(args) -> int:
    params = SynthParams(
        n_sites=args.sites,
        pages_per_site=args.pages_per_site,
        subresources_per_page=args.subs_per_page,
        shared_fraction=args.shared_fraction,
        new_visit_rate=args.new_visit_rate,
        churn_rate_per_day=args.churn_rate,
        visits=args.visits,
        seed=args.seed,
    )
    trace = generate_synthetic(params)
    save_trace(trace, args.out)
    print(f"wrote {len(trace.visits)} visits to {args.out}")
    return 0


def cmd_sim_cache(args) -> int:
    trace = load_trace(args.trace)
    result = replay_cache_sim(trace, capacity_bytes=args.capacity)
    _emit(args, rpt.CACHE_HEADER, rpt.rows_for_cache(result))
    return 0


def cmd_sim_prefetch(args) -> int:
    trace = load_trace(args.trace)
    result = evaluate_prefetch(
        trace,
        training_window_s=args.train_days * DAY_S,
        top_k=args.top_k,
        net=_net_from(args),
    )
    _emit(args, rpt.PREFETCH_HEADER, rpt.rows_for_prefetch(result))
    return 0


def cmd_sim_speculative(args) -> int:
    # Absent unless given, so the sidecar of an untrimmed run is unchanged.
    trim_days = getattr(args, "trim_days", None)
    trace = load_trace(args.trace)
    result = simulate_trace(
        trace,
        net=_net_from(args),
        cache_state=_cache_state_from(args),
        with_predictor=not args.oracle,
        max_connections=args.connections,
        trim_days=trim_days,
    )
    _emit(args, rpt.SIM_HEADER, rpt.rows_for_sim(result, per_page=not args.summary_only))
    if args.metrics_out:
        if args.oracle:
            replay = replay_predictor(trace, trim_days=trim_days)
        else:
            replay = score_predictions(trace.visits, [p.prediction for p in result.pages])
        rpt.write_csv(args.metrics_out, rpt.PREDICTOR_HEADER, rpt.rows_for_predictor(replay))
        rpt.write_sidecar(args.metrics_out, args.command, _flags_of(args))
    return 0


def _build_repo(trace: Trace, trim_days: float | None) -> MetadataRepository:
    repo = MetadataRepository(trim_days)
    for visit in trace.visits:
        repo.learn(visit)
    return repo


def cmd_graph(args) -> int:
    if args.action == "build":
        trace = load_trace(args.trace)
        repo = _build_repo(trace, args.trim_days)
        stats = repo_stats(repo, serialized_size_bytes=save_repo(repo, args.out))
        print(
            f"wrote {args.out}: {stats.n_websites} websites, "
            f"{stats.n_webpages} pages, {stats.n_subresources} subresources, "
            f"{stats.serialized_size_bytes} bytes"
        )
        return 0
    repo = load_repo(args.repo)
    if args.action == "stats":
        _emit(args, rpt.STATS_HEADER, rpt.rows_for_repo_stats(repo_stats(repo)))
        return 0
    # trim
    newest = max(
        (node.last_visit for graph in repo.graphs.values() for node in graph.nodes.values()),
        default=0.0,
    )
    removed = trim(
        repo, now=newest, max_age_days=args.trim_days if args.trim_days is not None else 30.0
    )
    out = args.out or args.repo
    save_repo(repo, out)
    print(f"removed {removed} nodes; wrote {out}")
    return 0


def cmd_fetch(args) -> int:
    def run(base_url: str | None) -> int:
        session = FetchSession(max_connections=args.connections)
        url = args.url
        if base_url and url.startswith("/"):
            url = base_url + url
        rows = []
        delays = []
        for i in range(args.repeat):
            result = fetch_page(session, url, mode=args.mode)
            rows.extend(rpt.rows_for_load_report(result, run=i))
            delays.append(result.delay_ms)
            print(
                f"run {i}: {result.mode} delay {result.delay_ms:.1f} ms, "
                f"{result.total_bytes} bytes, {result.overhead_bytes} wasted"
            )
        if args.repeat > 1:
            print(f"median delay {statistics.median(delays):.1f} ms")
        if args.out:
            rpt.write_csv(args.out, rpt.FETCH_HEADER, rows)
            rpt.write_sidecar(args.out, args.command, _flags_of(args))
        return 0

    if args.fixture:
        spec = load_fixture_spec(args.fixture)
        with fixture_server(spec) as server:
            return run(f"http://127.0.0.1:{server.port}")
    return run(None)


def cmd_report(args) -> int:
    for path in args.paths:
        if not Path(path).exists():
            raise SpecloadError(f"no such report: {path}")
        print(rpt.render_table(path))
        print()
    return 0


def _add_net_flags(p: argparse.ArgumentParser, parse_ms: bool = True) -> None:
    p.add_argument(
        "--rtt-ms", type=parse_time_ms, default=200.0, help="round trip time (default: 200)"
    )
    if parse_ms:
        p.add_argument(
            "--parse-ms", type=parse_time_ms, default=100.0, help="HTML parse time (default: 100)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specload",
        description="Speculative resource loading: learn, predict, simulate, fetch.",
    )
    parser.add_argument("--version", action="version", version=f"specload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a HAR capture to a trace file")
    p.add_argument("har", help="HAR file to import")
    p.add_argument("--out", required=True, help="trace JSONL output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic browsing trace")
    p.add_argument("--out", required=True, help="trace JSONL output path")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--visits", type=int, default=2000, help="total visits (default: 2000)")
    p.add_argument("--sites", type=int, default=10, help="number of websites (default: 10)")
    p.add_argument("--pages-per-site", type=int, default=200, help="default: 200")
    p.add_argument("--subs-per-page", type=int, default=20, help="default: 20")
    p.add_argument("--shared-fraction", type=float, default=0.76, help="default: 0.76")
    p.add_argument("--new-visit-rate", type=float, default=0.75, help="default: 0.75")
    p.add_argument("--churn-rate", type=float, default=0.10, help="per day (default: 0.10)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sim-cache", help="replay a trace through the cache model")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--capacity",
        type=parse_capacity,
        default=6 * 1024 * 1024,
        help="cache size: 6MB, 32MB, 64MB, or inf (default: 6MB)",
    )
    p.add_argument("--out", help="CSV output path (prints to stdout if omitted)")
    p.set_defaults(func=cmd_sim_cache)

    p = sub.add_parser("sim-prefetch", help="evaluate most-popular prefetching")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--train-days", type=parse_train_days, default=30.0, help="training window (default: 30)"
    )
    p.add_argument("--top-k", type=parse_top_k, default=10, help="pages to prefetch (default: 10)")
    _add_net_flags(p, parse_ms=False)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sim_prefetch, parse_ms=100.0)

    p = sub.add_parser("sim-speculative", help="simulate legacy vs speculative page loads")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--cache-state",
        choices=["fresh", "expired", "empty", "realistic"],
        default="empty",
        help="cache assumption per visit (default: empty)",
    )
    p.add_argument(
        "--capacity",
        type=parse_capacity,
        default=6 * 1024 * 1024,
        help="cache size for --cache-state realistic (default: 6MB)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use perfect predictions instead of the learned graph",
    )
    p.add_argument(
        "--connections", type=parse_connections, default=4, help="connection bound (default: 4)"
    )
    _add_net_flags(p)
    p.add_argument("--summary-only", action="store_true", help="omit per-page rows")
    p.add_argument(
        "--trim-days",
        type=parse_trim_days,
        default=argparse.SUPPRESS,
        help="predict from a history window of this many days, trimmed once a day "
        "(default: keep everything)",
    )
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--metrics-out", help="also write predictor hit ratio / usefulness CSV")
    p.set_defaults(func=cmd_sim_speculative)

    p = sub.add_parser("graph", help="build, inspect, or trim a metadata repository")
    p.add_argument("action", choices=["build", "stats", "trim"])
    p.add_argument("--trace", help="trace to build from (build)")
    p.add_argument("--repo", help="repository file (stats, trim)")
    p.add_argument("--out", help="output path (build, trim; trim defaults to --repo)")
    p.add_argument(
        "--trim-days",
        type=parse_trim_days,
        default=None,
        help="history window in days (trim default: 30; build keeps everything if omitted)",
    )
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("fetch", help="fetch a page live, legacy or tempo")
    p.add_argument("--url", required=True, help="absolute URL, or a path with --fixture")
    p.add_argument("--fixture", help="fixture spec JSON; serves it on localhost first")
    p.add_argument(
        "--mode", choices=["legacy", "tempo"], default="legacy", help="default: legacy"
    )
    p.add_argument(
        "--connections", type=parse_connections, default=4, help="connection bound (default: 4)"
    )
    p.add_argument(
        "--repeat", type=parse_repeat, default=1, help="fetch this many times (default: 1)"
    )
    p.add_argument("--out", help="per-resource CSV output path")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("report", help="print a saved CSV report as a table")
    p.add_argument("paths", nargs="+", help="CSV report files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "graph":
        if args.action == "build" and (not args.trace or not args.out):
            parser.error("graph build requires --trace and --out")
        if args.action in ("stats", "trim") and not args.repo:
            parser.error(f"graph {args.action} requires --repo")
    try:
        return args.func(args)
    except SpecloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
