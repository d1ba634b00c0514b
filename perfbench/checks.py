"""Output checks for the benchmark workloads.

CSV outputs are read by column name, never as raw bytes, so a later
change that adds a column still passes.  ``Checks`` counts every check
made and every one that failed; the counts feed the run's ``attempted``
and ``failed`` numbers.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

# Ratios are written with six decimals, so sums of them carry rounding.
FRACTION_SUM_TOLERANCE = 1e-5


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages}


def read_rows(path) -> list[dict[str, str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def column_digest(*tables: tuple[list[dict[str, str]], tuple[str, ...]]) -> str:
    """sha256 over the named columns of every row of each (rows,
    columns) table, in row order."""
    h = hashlib.sha256()
    for rows, columns in tables:
        for row in rows:
            h.update("\x1f".join(row[c] for c in columns).encode())
            h.update(b"\n")
        h.update(b"\x1e")
    return h.hexdigest()


def in_unit_interval(text: str) -> bool:
    return 0.0 <= float(text) <= 1.0


def check_sim(checks: Checks, rows: list[dict[str, str]], visits: int) -> None:
    """One row per visit plus the MEAN row; every delay positive."""
    pages = [r for r in rows if r["url"] != "MEAN"]
    checks.check(len(pages) == visits, f"sim rows {len(pages)} != visits {visits}")
    for r in pages:
        checks.check(
            float(r["legacy_ms"]) > 0 and float(r["speculative_ms"]) > 0,
            f"non-positive delay for {r['url']} at {r['timestamp']}",
        )


def check_predictor(checks: Checks, rows: list[dict[str, str]], visits: int) -> None:
    """Weekly and monthly bucket counts each sum to the evaluated visits;
    every ratio lies in [0, 1]."""
    overall = [r for r in rows if r["bucket"] == "overall"]
    checks.check(len(overall) == 1, "predictor CSV has no single overall row")
    evaluated = int(overall[0]["n_predictions"]) if overall else -1
    checks.check(evaluated == visits, f"predictor evaluated {evaluated} of {visits} visits")
    for bucket in ("weekly", "monthly"):
        total = sum(int(r["n_predictions"]) for r in rows if r["bucket"] == bucket)
        checks.check(total == evaluated, f"{bucket} buckets sum to {total}, not {evaluated}")
    for r in rows:
        checks.check(
            in_unit_interval(r["hit_ratio"]) and in_unit_interval(r["usefulness"]),
            f"predictor ratio out of [0, 1] in {r['bucket']} {r['index']}",
        )


def check_cache(checks: Checks, rows: list[dict[str, str]], requests: int) -> None:
    """Per segment the three outcome fractions sum to 1 and the outcome
    counts to the requests; the TOTAL row covers every request."""
    for r in rows:
        fractions = sum(
            float(r[c]) for c in ("fresh_fraction", "revalidation_fraction", "miss_fraction")
        )
        checks.check(
            abs(fractions - 1.0) <= FRACTION_SUM_TOLERANCE,
            f"cache fractions of {r['segment']} sum to {fractions}",
        )
        counted = int(r["fresh_hits"]) + int(r["revalidations"]) + int(r["misses"])
        checks.check(
            counted == int(r["requests"]), f"cache outcomes of {r['segment']} miscounted"
        )
    total = [r for r in rows if r["segment"] == "TOTAL"]
    checks.check(
        len(total) == 1 and int(total[0]["requests"]) == requests,
        f"cache TOTAL does not cover the trace's {requests} requests",
    )


def check_prefetch(checks: Checks, rows: list[dict[str, str]]) -> None:
    checks.check(len(rows) == 1, f"prefetch CSV has {len(rows)} rows, expected 1")
    for r in rows:
        for c in (
            "hit_ratio",
            "usefulness",
            "unnecessary_bytes_fraction",
            "upper_bound_delay_reduction_fraction",
        ):
            checks.check(in_unit_interval(r[c]), f"prefetch {c} = {r[c]} out of [0, 1]")
        checks.check(int(r["n_eval_visits"]) > 0, "prefetch evaluated no visits")
