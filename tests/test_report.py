from __future__ import annotations

import io
import json
import math
import re
from statistics import fmean

import pytest

from specload.cache import replay_cache_sim
from specload.errors import SchemaError
from specload.live import LoadReport, ResourceLoad
from specload.predict import BucketStats, VisitClass, replay, replay_predictor, score_predictions
from specload.report import (
    CACHE_HEADER,
    FETCH_HEADER,
    PREDICTOR_HEADER,
    format_cell,
    render_table,
    rows_for_cache,
    rows_for_load_report,
    rows_for_predictor,
    rows_for_sim,
    write_csv,
    write_rows,
    write_sidecar,
)
from specload.sim import SimResult, simulate_trace
from specload.synth import SynthParams, generate_synthetic

from conftest import visit, trace_of


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(0.5) == "0.500000"
    assert format_cell(1 / 3) == "0.333333"
    assert format_cell(math.inf) == "inf"
    assert format_cell(7) == "7"
    assert format_cell("TOTAL") == "TOTAL"
    assert format_cell(VisitClass.NEW_VISIT_SUBDOMAIN_KNOWN) == "new_visit_subdomain_known"


def test_write_csv_is_deterministic(tmp_path):
    header = ["a", "b"]
    rows = [[1.0, None], ["x", 2 / 7]]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "sub" / "r2.csv"
    write_csv(p1, header, rows)
    write_csv(p2, header, rows)  # creates parent dir
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "a,b\n1.000000,\nx,0.285714\n"


def test_sidecar_shape(tmp_path):
    csv_path = tmp_path / "out.csv"
    csv_path.write_text("a\n")
    side = write_sidecar(csv_path, "sim-cache", {"seed": 7, "capacity": None})
    assert side == tmp_path / "out.csv.meta.json"
    meta = json.loads(side.read_text())
    assert set(meta) == {"command", "flags", "version"}
    assert meta["command"] == "sim-cache"
    assert meta["flags"] == {"seed": 7, "capacity": None}
    # byte-identical on re-write: nothing time-dependent inside
    first = side.read_bytes()
    write_sidecar(csv_path, "sim-cache", {"capacity": None, "seed": 7})
    assert side.read_bytes() == first


def _mini_trace():
    subs = ["http://s.example/a.js", "http://s.example/b.css"]
    return trace_of(
        visit("http://s.example/p", subs, ts=0.0, max_age=1000),
        visit("http://s.example/p", subs, ts=10.0, max_age=1000),
        visit("http://t.example/q", [], ts=20.0, max_age=1000),
    )


def test_cache_rows_layout():
    rows = rows_for_cache(replay_cache_sim(_mini_trace()))
    assert [r[0] for r in rows] == ["s.example", "t.example", "TOTAL"]
    total = rows[-1]
    assert total[1] == 7  # 3 + 3 + 1 requests
    assert total[2] == 3  # second visit of p is all fresh
    assert total[4] == 4
    assert len(CACHE_HEADER) == len(total)
    # per-site rows leave the byte columns blank
    assert rows[0][-2:] == [None, None]


def test_sim_rows_and_summary_mode():
    result = simulate_trace(_mini_trace())
    rows = rows_for_sim(result)
    assert len(rows) == 4 and rows[-1][0] == "MEAN"
    assert rows_for_sim(result, per_page=False) == [rows[-1]]
    legacy = sum(p.legacy_ms for p in result.pages) / len(result.pages)
    speculative = sum(p.speculative_ms for p in result.pages) / len(result.pages)
    reduction = legacy - speculative
    assert rows[-1][3:] == [legacy, speculative, reduction, reduction / legacy]
    # No pages: every mean reads 0, not a ZeroDivisionError.
    assert rows_for_sim(SimResult()) == [["MEAN", None, None, 0.0, 0.0, 0.0, 0.0]]


def test_predictor_rows_end_with_overall():
    rows = rows_for_predictor(replay_predictor(_mini_trace()))
    assert rows[-1][0] == "overall"
    assert rows[-1][2] == 3
    buckets = [r[0] for r in rows[:-1]]
    assert set(buckets) <= {"weekly", "monthly"}
    assert "weekly" in buckets and "monthly" in buckets


def test_the_overall_bucket_holds_every_visit():
    out = io.StringIO()
    write_rows(out, PREDICTOR_HEADER, rows_for_predictor(score_predictions([], [])))
    assert out.getvalue().splitlines()[-1] == "overall,0,0,0.000000,0.000000"

    visits = generate_synthetic(SynthParams(visits=300, seed=2, n_sites=3)).visits
    predictions = [prediction for _, prediction in replay(visits)]
    result = score_predictions(visits, predictions)
    assert len(result.weekly) >= 2
    rows = result.per_visit
    every_visit = BucketStats(
        0, len(rows), fmean(r.hit_ratio for r in rows), fmean(r.usefulness for r in rows)
    )
    assert result.overall == every_visit
    # Out of timestamp order, every visit is still in the one bucket.
    assert score_predictions(visits[::-1], predictions[::-1]).overall.n_predictions == len(rows)


def test_load_report_rows_carry_run_index():
    report = LoadReport(
        url="http://s.example/p",
        mode="tempo",
        delay_ms=42.0,
        resources=[
            ResourceLoad("http://s.example/p", "fetched", 100, 0.0, 40.0, kind="html"),
            ResourceLoad("http://s.example/a.js", "mispredicted", 30, 1.0, 20.0),
        ],
        overhead_bytes=30,
    )
    rows = rows_for_load_report(report, run=3)
    assert len(rows) == 2
    assert all(r[0] == 3 and r[1] == "http://s.example/p" for r in rows)
    assert rows[1][5] == "mispredicted"
    assert len(rows[0]) == len(FETCH_HEADER)


def test_render_table_alignment_and_footer(tmp_path):
    csv_path = tmp_path / "t.csv"
    write_csv(csv_path, ["name", "value"], [["long-row-name", 1.0], ["b", 22]])
    text = render_table(csv_path)
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert "long-row-name  1.000000" in text
    assert "command:" not in text  # no sidecar yet

    write_sidecar(csv_path, "synth", {"seed": 1})
    text = render_table(csv_path)
    assert "command: synth" in text
    assert "flags: seed=1" in text


def test_render_table_takes_widths_over_the_widest_row(tmp_path):
    csv_path = tmp_path / "ragged.csv"
    csv_path.write_text("a,b\nlong,2,extra\n1\n")
    assert render_table(csv_path).splitlines() == [
        "a     b",
        "----  -  -----",
        "long  2  extra",
        "1",
    ]


@pytest.mark.parametrize(
    "csv_bytes, sidecar, bad",
    [
        (b"a,b\n\xff\xfe,1\n", None, "t.csv"),  # not UTF-8
        (b"a\n" + b"x" * 200_000 + b"\n", None, "t.csv"),  # past csv's field limit
        (b"a\n1\n", b"\xff{}", "t.csv.meta.json"),  # not UTF-8
        (b"a\n1\n", b"{not json", "t.csv.meta.json"),
        (b"a\n1\n", b"[1, 2]", "t.csv.meta.json"),  # not an object
        (b"a\n1\n", b'{"flags": ["seed"]}', "t.csv.meta.json"),  # flags not an object
    ],
    ids=["csv-not-utf8", "csv-field-limit", "sidecar-not-utf8", "sidecar-not-json",
         "sidecar-not-object", "flags-not-object"],
)
def test_render_table_names_the_file_it_cannot_read(tmp_path, csv_bytes, sidecar, bad):
    csv_path = tmp_path / "t.csv"
    csv_path.write_bytes(csv_bytes)
    if sidecar is not None:
        (tmp_path / "t.csv.meta.json").write_bytes(sidecar)
    with pytest.raises(SchemaError, match=re.escape(str(tmp_path / bad))):
        render_table(csv_path)
