"""Report writing: CSV tables plus a JSON sidecar per run.

Outputs are deterministic: floats always format as %.6f, rows come out
in a fixed order, and the sidecar records the command, its flags, and
the package version but never a wall-clock timestamp.  Re-running the
same seeded command must produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from . import __version__
from .cache import CacheSimReport
from .graph import RepoStats
from .live import LoadReport
from .predict import PredictorReplayResult
from .prefetch import PrefetchReport
from .sim import SimResult


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6f}"
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def write_sidecar(csv_path: str | Path, command: str, flags: dict) -> Path:
    """Write ``<csv>.meta.json`` next to the CSV.  No timestamps."""
    meta = {
        "command": command,
        "flags": flags,
        "version": __version__,
    }
    side = Path(str(csv_path) + ".meta.json")
    side.write_text(json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n")
    return side


CACHE_HEADER = [
    "segment",
    "requests",
    "fresh_hits",
    "revalidations",
    "misses",
    "fresh_fraction",
    "revalidation_fraction",
    "miss_fraction",
    "network_activity_fraction",
    "bytes_fetched",
    "bytes_saved_by_304",
]


def rows_for_cache(report: CacheSimReport) -> list[list]:
    """A row per site, then the TOTAL row, the only one that counts bytes."""
    rows: list[list] = []
    for segment, c in (*sorted(report.per_site.items()), ("TOTAL", report.counters)):
        total = c is report.counters
        rows.append(
            [
                segment,
                c.requests,
                c.fresh_hits,
                c.revalidations,
                c.misses,
                c.fresh_fraction,
                c.revalidation_fraction,
                c.miss_fraction,
                c.network_activity_fraction,
                c.bytes_fetched if total else None,
                c.bytes_saved_by_304 if total else None,
            ]
        )
    return rows


SIM_HEADER = [
    "url",
    "timestamp",
    "visit_class",
    "legacy_ms",
    "speculative_ms",
    "reduction_ms",
    "reduction_fraction",
]


def rows_for_sim(result: SimResult, per_page: bool = True) -> list[list]:
    rows: list[list] = []
    if per_page:
        for p in result.pages:
            rows.append(
                [
                    p.url,
                    p.timestamp,
                    p.visit_class.name.lower() if p.visit_class else "",
                    p.legacy_ms,
                    p.speculative_ms,
                    p.reduction_ms,
                    p.reduction_fraction,
                ]
            )
    rows.append(
        [
            "MEAN",
            None,
            "",
            result.mean_legacy_ms,
            result.mean_speculative_ms,
            result.mean_reduction_ms,
            result.reduction_fraction,
        ]
    )
    return rows


PREFETCH_HEADER = [
    "hit_ratio",
    "usefulness",
    "unnecessary_bytes_fraction",
    "upper_bound_delay_reduction_fraction",
    "n_intervals",
    "n_eval_visits",
    "prefetched_bytes",
]


def rows_for_prefetch(report: PrefetchReport) -> list[list]:
    return [
        [
            report.hit_ratio,
            report.usefulness,
            report.unnecessary_bytes_fraction,
            report.upper_bound_delay_reduction_fraction,
            report.n_intervals,
            report.n_eval_visits,
            report.prefetched_bytes,
        ]
    ]


PREDICTOR_HEADER = ["bucket", "index", "n_predictions", "hit_ratio", "usefulness"]


def rows_for_predictor(result: PredictorReplayResult) -> list[list]:
    rows: list[list] = []
    for b in result.weekly:
        rows.append(["weekly", b.index, b.n_predictions, b.hit_ratio, b.usefulness])
    for b in result.monthly:
        rows.append(["monthly", b.index, b.n_predictions, b.hit_ratio, b.usefulness])
    rows.append(
        ["overall", 0, len(result.per_visit), result.mean_hit_ratio, result.mean_usefulness]
    )
    return rows


STATS_HEADER = [
    "n_websites",
    "n_subdomains",
    "n_webpages",
    "n_subresources",
    "serialized_size_bytes",
]


def rows_for_repo_stats(stats: RepoStats) -> list[list]:
    return [
        [
            stats.n_websites,
            stats.n_subdomains,
            stats.n_webpages,
            stats.n_subresources,
            stats.serialized_size_bytes,
        ]
    ]


FETCH_HEADER = [
    "run",
    "page",
    "mode",
    "resource",
    "kind",
    "outcome",
    "bytes",
    "t_start_ms",
    "t_end_ms",
]


def rows_for_load_report(report: LoadReport, run: int = 0) -> list[list]:
    rows: list[list] = []
    for r in report.resources:
        rows.append(
            [
                run,
                report.url,
                report.mode,
                r.url,
                r.kind,
                r.outcome,
                r.bytes,
                r.t_start_ms,
                r.t_end_ms,
            ]
        )
    return rows


def render_table(csv_path: str | Path) -> str:
    """Plain-text rendering of a CSV report, for the terminal."""
    with Path(csv_path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return "(empty report)"
    widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    side = Path(str(csv_path) + ".meta.json")
    if side.exists():
        meta = json.loads(side.read_text())
        flags = " ".join(f"{k}={v}" for k, v in sorted(meta.get("flags", {}).items()))
        lines.append("")
        lines.append(f"command: {meta.get('command')}  version: {meta.get('version')}")
        if flags:
            lines.append(f"flags: {flags}")
    return "\n".join(lines)
