"""Report writing: CSV tables, and a JSON sidecar beside every output file.

Outputs are deterministic: floats always format as %.6f, rows come out
in a fixed order, and the sidecar records the command, its flags, and
the package version but never a wall-clock timestamp.  Re-running the
same seeded command must produce byte-identical files.

A CSV's header is its schema: each column after the row's labels names
the attribute of the result object that fills it, read by ``cells``.
"""

from __future__ import annotations

import csv
import json
import math
from enum import Enum
from itertools import zip_longest
from pathlib import Path

from . import __version__
from .cache import CacheSimReport
from .errors import SchemaError
from .live import LoadReport
from .predict import PredictorReplayResult
from .sim import SimResult


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6f}"
    if isinstance(value, Enum):
        return value.name.lower()
    return str(value)


def write_rows(fh, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(cell) for cell in row] for row in rows)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        write_rows(fh, header, rows)


def write_sidecar(path: str | Path, command: str, flags: dict) -> Path:
    """Write ``<path>.meta.json`` next to an output file.  No timestamps."""
    meta = {"command": command, "flags": flags, "version": __version__}
    side = Path(str(path) + ".meta.json")
    side.write_text(json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n")
    return side


def cells(obj, columns: list[str]) -> list:
    """The row of ``obj``: its attribute named by each column, in order."""
    return [getattr(obj, column) for column in columns]


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
    rows = [
        [site, *cells(c, CACHE_HEADER[1:-2]), None, None]
        for site, c in sorted(report.per_site.items())
    ]
    return rows + [["TOTAL", *cells(report.counters, CACHE_HEADER[1:])]]


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
    """A row per page, then MEAN: the page whose delays are the means."""
    return [cells(p, SIM_HEADER) for p in (*(result.pages if per_page else ()), result.mean)]


PREFETCH_HEADER = [
    "hit_ratio",
    "usefulness",
    "unnecessary_bytes_fraction",
    "upper_bound_delay_reduction_fraction",
    "n_intervals",
    "n_eval_visits",
    "prefetched_bytes",
]


PREDICTOR_HEADER = ["bucket", "index", "n_predictions", "hit_ratio", "usefulness"]


def rows_for_predictor(result: PredictorReplayResult) -> list[list]:
    """Weekly and monthly buckets, then one overall bucket of every visit."""
    labels = ["weekly"] * len(result.weekly) + ["monthly"] * len(result.monthly) + ["overall"]
    buckets = (*result.weekly, *result.monthly, result.overall)
    return [[label, *cells(b, PREDICTOR_HEADER[1:])] for label, b in zip(labels, buckets)]


STATS_HEADER = [
    "n_websites",
    "n_subdomains",
    "n_webpages",
    "n_subresources",
    "serialized_size_bytes",
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
    return [
        [run, report.url, report.mode, r.url, *cells(r, FETCH_HEADER[4:])]
        for r in report.resources
    ]


def render_table(csv_path: str | Path) -> str:
    """Plain-text rendering of a CSV report, for the terminal; a row may be
    longer or shorter than the header.  Raises ``SchemaError`` naming the
    CSV or its sidecar when that file cannot be read."""
    try:
        with Path(csv_path).open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{csv_path}: not a CSV report ({exc})") from exc
    if not rows:
        return "(empty report)"
    widths = [max(map(len, column)) for column in zip_longest(*rows, fillvalue="")]
    lines = []
    for idx, row in enumerate(rows):
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    side = Path(str(csv_path) + ".meta.json")
    if side.exists():
        try:
            meta = json.loads(side.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"{side}: not a JSON sidecar ({exc})") from exc
        flags = meta.get("flags", {}) if isinstance(meta, dict) else None
        if not isinstance(flags, dict):
            raise SchemaError(f"{side}: expected a JSON object whose flags are an object")
        lines.append("")
        lines.append(f"command: {meta.get('command')}  version: {meta.get('version')}")
        if flags:
            lines.append("flags: " + " ".join(f"{k}={v}" for k, v in sorted(flags.items())))
    return "\n".join(lines)
