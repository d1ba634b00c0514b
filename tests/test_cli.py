from __future__ import annotations

import argparse
import csv
import json
import math
import socket
import struct
from pathlib import Path

import pytest

import specload.graph as graph_module
from specload.cli import main, parse_capacity, parse_connections, parse_trim_days
from specload.graph import _MAGIC, NodeType
from specload.predict import replay_predictor
from specload.report import (
    CACHE_HEADER,
    FETCH_HEADER,
    PREDICTOR_HEADER,
    PREFETCH_HEADER,
    rows_for_predictor,
    write_csv,
)
from specload.trace import load_trace

from conftest import DEV_FIXTURE, run_dev


def run(*argv):
    return main(list(argv))


def read_rows(path: Path) -> list[list[str]]:
    with path.open() as fh:
        return list(csv.reader(fh))


# --- flag parsing ------------------------------------------------------


def test_parse_capacity():
    assert parse_capacity("6MB") == 6 * 1024 * 1024 == 6291456
    assert parse_capacity("32mb") == 32 * 1024 * 1024
    assert parse_capacity("1.5MB") == 1.5 * 1024 * 1024
    assert parse_capacity("inf") == math.inf
    for bad in ("6GB", "0MB", "-2MB", "lots", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_capacity(bad)


@pytest.mark.parametrize("text", ["nanMB", "1e400MB", "infMB", "-infMB", "1e308MB"])
def test_non_finite_capacity_is_a_usage_error(text):
    # Only the literal 'inf' means unbounded; NaN would never evict.
    with pytest.raises(argparse.ArgumentTypeError):
        parse_capacity(text)
    with pytest.raises(SystemExit) as exc:
        run("sim-cache", "--trace", "t", "--capacity", text)
    assert exc.value.code == 2


_TRIM_DAYS_COMMANDS = [
    ("graph", "build", "--trace", "t", "--out", "o"),
    ("graph", "trim", "--repo", "r"),
    ("sim-speculative", "--trace", "t"),
]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "-1", "-0.5", "week"])
@pytest.mark.parametrize("argv", _TRIM_DAYS_COMMANDS)
def test_bad_trim_days_is_a_usage_error(argv, text, capsys):
    # A NaN or infinite window never trims; a negative one forgets the future.
    with pytest.raises(argparse.ArgumentTypeError):
        parse_trim_days(text)
    with pytest.raises(SystemExit) as exc:
        run(*argv, f"--trim-days={text}")
    assert exc.value.code == 2
    assert "bad trim window" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1", "0", "-3", "two", "2.5"])
@pytest.mark.parametrize(
    "argv", [("fetch", "--url", "/p.html"), ("sim-speculative", "--trace", "t")]
)
def test_fewer_than_two_connections_is_a_usage_error(argv, text, capsys):
    # One connection is held for the main resource, so 2 is the least.
    with pytest.raises(argparse.ArgumentTypeError):
        parse_connections(text)
    with pytest.raises(SystemExit) as exc:
        run(*argv, f"--connections={text}")
    assert exc.value.code == 2
    assert "bad connection count" in capsys.readouterr().err
    assert parse_connections("2") == 2


def test_zero_and_fractional_trim_days_are_valid(tmp_path, trace_path):
    assert parse_trim_days("0") == 0.0 and parse_trim_days("0.5") == 0.5
    repo = tmp_path / "repo.bin"
    for text in ("0", "0.5"):
        assert run("graph", "build", "--trace", str(trace_path), "--out", str(repo),
                   "--trim-days", text) == 0
        assert run("graph", "trim", "--repo", str(repo), "--trim-days", text) == 0
        out = tmp_path / f"sim{text}.csv"
        assert run("sim-speculative", "--trace", str(trace_path), "--summary-only",
                   "--trim-days", text, "--out", str(out)) == 0


def test_sim_speculative_trim_days(tmp_path, trace_path):
    plain, trimmed = tmp_path / "plain.csv", tmp_path / "trimmed.csv"
    metrics = tmp_path / "metrics.csv"
    assert run("sim-speculative", "--trace", str(trace_path), "--out", str(plain)) == 0
    assert run("sim-speculative", "--trace", str(trace_path), "--out", str(trimmed),
               "--trim-days", "0.5", "--metrics-out", str(metrics)) == 0
    # Without the flag the sidecar is what it was before the flag existed.
    assert "trim_days" not in json.loads(Path(str(plain) + ".meta.json").read_text())["flags"]
    meta = json.loads(Path(str(trimmed) + ".meta.json").read_text())
    assert meta["flags"]["trim_days"] == 0.5
    expected = tmp_path / "expected.csv"
    replay = replay_predictor(load_trace(trace_path), trim_days=0.5)
    write_csv(expected, PREDICTOR_HEADER, rows_for_predictor(replay))
    assert metrics.read_bytes() == expected.read_bytes()
    assert replay != replay_predictor(load_trace(trace_path))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "specload 0.1.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("sim-cache",),  # missing --trace
        ("graph",),  # missing the action
        ("graph", "build"),  # missing --trace/--out
        ("graph", "stats"),  # missing --repo
        ("graph", "trim"),  # missing --repo
        # Each action takes only its own flags.
        ("graph", "stats", "--repo", "r", "--trim-days", "5"),
        ("graph", "build", "--trace", "t", "--out", "o", "--repo", "r"),
        ("graph", "stats", "--repo", "r", "--trace", "t"),
        ("graph", "trim", "--repo", "r", "--trace", "t"),
        ("sim-cache", "--trace", "t", "--capacity", "9GB"),
        ("sim-speculative", "--trace", "t", "--rtt-ms", "nan"),
        ("sim-speculative", "--trace", "t", "--parse-ms", "-100"),
        ("sim-speculative", "--trace", "t", "--rtt-ms", "inf"),
        ("fetch", "--url", "/index.html", "--repeat", "0"),
        ("fetch", "--url", "/index.html", "--repeat", "-1"),
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert run("sim-cache", "--trace", str(tmp_path / "missing.jsonl")) == 1
    assert "error:" in capsys.readouterr().err
    assert run("report", str(tmp_path / "missing.csv")) == 1


def test_report_of_an_unreadable_csv_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n\xff,1\n")
    assert run("report", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("size", ["1e400", "1" + "0" * 400], ids=["1e400", "10**400"])
@pytest.mark.parametrize("command", ["sim-cache", "sim-speculative"])
def test_a_size_beyond_float_range_is_one_error_line(tmp_path, capsys, command, size):
    trace = tmp_path / "t.jsonl"
    trace.write_text(
        '{"user": "u", "ts": 1.0, "subs": [],'
        f' "main": {{"url": "http://a.com/", "kind": "html", "size": {size}}}}}\n'
    )
    assert run(command, "--trace", str(trace), "--out", str(tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and err.count("\n") == 1 and "Traceback" not in err


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        run("sim-speculative", "--help")
    out = capsys.readouterr().out
    assert "default: 4" in out  # connections
    assert "default: 200" in out  # rtt
    assert "default: 100" in out  # parse
    assert "6MB" in out

    with pytest.raises(SystemExit):
        run("sim-prefetch", "--help")
    out = capsys.readouterr().out
    assert "default: 30" in out
    assert "default: 10" in out

    with pytest.raises(SystemExit):
        run("synth", "--help")
    out = capsys.readouterr().out
    assert "default: 0.75" in out and "default: 200" in out


# --- end-to-end command flow -------------------------------------------


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert run("synth", "--out", str(path), "--visits", "60", "--seed", "3") == 0
    return path


def test_synth_writes_deterministic_trace(tmp_path, trace_path, capsys):
    other = tmp_path / "again.jsonl"
    assert run("synth", "--out", str(other), "--visits", "60", "--seed", "3") == 0
    assert other.read_bytes() == trace_path.read_bytes()
    assert len(load_trace(trace_path).visits) == 60

    different = tmp_path / "seed4.jsonl"
    assert run("synth", "--out", str(different), "--visits", "60", "--seed", "4") == 0
    assert different.read_bytes() != trace_path.read_bytes()


def test_sim_cache_csv_and_sidecar(tmp_path, trace_path, capsys):
    out = tmp_path / "cache.csv"
    assert run("sim-cache", "--trace", str(trace_path), "--out", str(out)) == 0
    assert "wrote" in capsys.readouterr().out

    rows = read_rows(out)
    assert rows[0] == CACHE_HEADER
    assert rows[-1][0] == "TOTAL"

    meta = json.loads((tmp_path / "cache.csv.meta.json").read_text())
    assert meta["command"] == "sim-cache"
    assert meta["flags"]["capacity"] == 6291456.0
    assert meta["flags"]["trace"] == str(trace_path)
    assert "timestamp" not in json.dumps(meta).lower()

    # re-running the same command rewrites identical bytes
    first_csv = out.read_bytes()
    first_meta = (tmp_path / "cache.csv.meta.json").read_bytes()
    assert run("sim-cache", "--trace", str(trace_path), "--out", str(out)) == 0
    assert out.read_bytes() == first_csv
    assert (tmp_path / "cache.csv.meta.json").read_bytes() == first_meta


def test_sim_cache_stdout_when_no_out(trace_path, capsys):
    assert run("sim-cache", "--trace", str(trace_path), "--capacity", "inf") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CACHE_HEADER)
    assert "TOTAL" in out


def test_sim_speculative_summary_and_metrics(tmp_path, trace_path):
    out = tmp_path / "sim.csv"
    metrics = tmp_path / "pred.csv"
    assert (
        run(
            "sim-speculative",
            "--trace", str(trace_path),
            "--oracle",
            "--summary-only",
            "--out", str(out),
            "--metrics-out", str(metrics),
        )
        == 0
    )
    rows = read_rows(out)
    assert len(rows) == 2  # header + MEAN
    assert rows[1][0] == "MEAN"
    mrows = read_rows(metrics)
    assert mrows[0] == ["bucket", "index", "n_predictions", "hit_ratio", "usefulness"]
    assert mrows[-1][0] == "overall"
    assert (tmp_path / "pred.csv.meta.json").exists()

    # determinism across re-runs
    body = out.read_bytes()
    assert (
        run(
            "sim-speculative",
            "--trace", str(trace_path),
            "--oracle",
            "--summary-only",
            "--out", str(out),
            "--metrics-out", str(metrics),
        )
        == 0
    )
    assert out.read_bytes() == body


def test_sim_speculative_metrics_match_a_separate_replay(tmp_path, trace_path):
    # In predictor mode the metrics score the predictions the simulation
    # already made; they must equal a second, separate learning pass.
    metrics = tmp_path / "pred.csv"
    assert (
        run(
            "sim-speculative",
            "--trace", str(trace_path),
            "--cache-state", "realistic",
            "--out", str(tmp_path / "sim.csv"),
            "--metrics-out", str(metrics),
        )
        == 0
    )
    expected = tmp_path / "expected.csv"
    replay = replay_predictor(load_trace(trace_path))
    write_csv(expected, PREDICTOR_HEADER, rows_for_predictor(replay))
    assert metrics.read_bytes() == expected.read_bytes()


def test_sim_prefetch(tmp_path, trace_path):
    out = tmp_path / "pf.csv"
    assert (
        run(
            "sim-prefetch",
            "--trace", str(trace_path),
            "--train-days", "1",
            "--top-k", "3",
            "--out", str(out),
        )
        == 0
    )
    rows = read_rows(out)
    assert rows[0] == PREFETCH_HEADER
    assert len(rows) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--train-days", "nan"),
        ("--train-days", "-1"),
        ("--top-k", "-1"),
        ("--top-k", "0"),
        ("--train-days", "0"),
        ("--train-days", "inf"),
        ("--top-k", "2.5"),
        ("--rtt-ms", "-200"),
        ("--rtt-ms", "nan"),
    ],
)
def test_bad_prefetch_parameters_exit_2(tmp_path, trace_path, flags, capsys):
    # The trace spans more than a day, so only the flag under test is bad.
    out = tmp_path / "pf.csv"
    good = ("--train-days", "1", "--top-k", "3")
    with pytest.raises(SystemExit) as exc:
        run("sim-prefetch", "--trace", str(trace_path), *good, *flags, "--out", str(out))
    assert exc.value.code == 2
    assert f"argument {flags[0]}: bad" in capsys.readouterr().err
    assert not out.exists()


def test_graph_build_stats_trim(tmp_path, trace_path, capsys):
    repo = tmp_path / "repo.bin"
    assert run("graph", "build", "--trace", str(trace_path), "--out", str(repo)) == 0
    assert "websites" in capsys.readouterr().out
    assert repo.exists()

    stats_csv = tmp_path / "stats.csv"
    assert run("graph", "stats", "--repo", str(repo), "--out", str(stats_csv)) == 0
    rows = read_rows(stats_csv)
    assert rows[0][0] == "n_websites"
    assert int(rows[1][0]) >= 1

    trimmed = tmp_path / "trimmed.bin"
    assert (
        run("graph", "trim", "--repo", str(repo), "--trim-days", "0.5", "--out", str(trimmed))
        == 0
    )
    assert "removed" in capsys.readouterr().out
    assert trimmed.exists()


def test_graph_sidecars_name_their_action(tmp_path, trace_path):
    def flags(path):
        meta = json.loads(Path(f"{path}.meta.json").read_text())
        assert meta["command"] == "graph"
        return meta["flags"]

    repo, stats = tmp_path / "r.bin", tmp_path / "stats.csv"
    assert run("graph", "build", "--trace", str(trace_path), "--out", str(repo)) == 0
    assert flags(repo) == {
        "action": "build", "out": str(repo), "trace": str(trace_path), "trim_days": None
    }
    assert run("graph", "stats", "--repo", str(repo), "--out", str(stats)) == 0
    assert flags(stats) == {"action": "stats", "out": str(stats), "repo": str(repo)}
    # Trimmed in place, the repository's sidecar is rewritten to say so,
    # with the default window it was trimmed to.
    assert run("graph", "trim", "--repo", str(repo)) == 0
    assert flags(repo) == {"action": "trim", "out": None, "repo": str(repo), "trim_days": 30.0}


@pytest.mark.parametrize("node_type", ["SUBRESOURCE", "SUBDOMAIN"])
def test_graph_stats_and_trim_reject_an_unlinked_node(tmp_path, capsys, node_type):
    # A page with one subresource, and node 4, which has no parent
    # (a subresource) or no child (a subdomain).
    nodes = [
        {"i": 0, "y": 0, "u": "a.com", "k": "", "v": 1, "t": 0.0},
        {"i": 1, "y": 1, "u": "a.com", "k": "", "v": 1, "t": 0.0},
        {"i": 2, "y": 2, "u": "http://a.com/", "k": "html", "v": 1, "t": 0.0},
        {"i": 3, "y": 3, "u": "http://a.com/x.js", "k": "script", "v": 1, "t": 0.0},
        {"i": 4, "y": int(NodeType[node_type]), "u": "x.test", "k": "", "v": 1, "t": 0.0},
    ]
    edges = [[0, 1, None], [1, 2, None], [2, 3, 0.0]]
    if node_type == "SUBDOMAIN":
        edges.append([0, 4, None])
    body = json.dumps({"site": "a.com", "nodes": nodes, "edges": edges}).encode()
    data = _MAGIC + struct.pack(">II", 1, len(body)) + body
    repo = tmp_path / "repo.bin"
    repo.write_bytes(data)
    for action in ("stats", "trim"):
        assert run("graph", action, "--repo", str(repo)) == 1
        assert f"error: unlinked {node_type} x.test" in capsys.readouterr().err
    assert repo.read_bytes() == data


def _two_page_repo(website_t: float = 40 * 86400.0, edge_t: float = 0.0) -> bytes:
    """A file whose page /old (with /x.js) is 40 days older than /new."""
    day40 = 40 * 86400.0
    nodes = [
        {"i": 0, "y": 0, "u": "a.com", "k": "", "v": 2, "t": website_t},
        {"i": 1, "y": 1, "u": "a.com", "k": "", "v": 2, "t": day40},
        {"i": 2, "y": 2, "u": "http://a.com/old", "k": "html", "v": 1, "t": 0.0},
        {"i": 3, "y": 3, "u": "http://a.com/x.js", "k": "script", "v": 1, "t": 0.0},
        {"i": 4, "y": 2, "u": "http://a.com/new", "k": "html", "v": 1, "t": day40},
    ]
    edges = [[0, 1, None], [1, 2, None], [1, 4, None], [2, 3, edge_t]]
    body = json.dumps({"site": "a.com", "nodes": nodes, "edges": edges}).encode()
    return _MAGIC + struct.pack(">II", 1, len(body)) + body


def test_graph_trim_takes_the_newest_timestamp_for_now(tmp_path, capsys):
    repo = tmp_path / "repo.bin"
    repo.write_bytes(_two_page_repo())
    assert run("graph", "trim", "--repo", str(repo)) == 0
    assert "removed 2 nodes" in capsys.readouterr().out  # /old and /x.js


@pytest.mark.parametrize(
    "where, value",
    [("node", math.nan), ("node", math.inf), ("edge", math.nan), ("edge", -math.inf)],
)
def test_graph_trim_rejects_a_non_finite_timestamp(tmp_path, capsys, where, value):
    # Read as it is, a NaN node timestamp becomes trim's ``now``, and the
    # trim silently removes nothing.
    data = _two_page_repo(**{"website_t" if where == "node" else "edge_t": value})
    repo = tmp_path / "repo.bin"
    repo.write_bytes(data)
    assert run("graph", "trim", "--repo", str(repo)) == 1
    assert f"error: non-finite {where} timestamp" in capsys.readouterr().err
    assert repo.read_bytes() == data


def test_graph_build_serialises_once_and_reports_the_file_size(
    tmp_path, trace_path, capsys, monkeypatch
):
    calls = []
    real = graph_module.dumps_repo

    def counting(repo):
        calls.append(repo)
        return real(repo)

    monkeypatch.setattr(graph_module, "dumps_repo", counting)
    repo = tmp_path / "repo.bin"
    assert run("graph", "build", "--trace", str(trace_path), "--out", str(repo)) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.rstrip().endswith(f", {repo.stat().st_size} bytes")


def test_ingest_har(tmp_path, capsys):
    har = tmp_path / "cap.har"
    har.write_text(
        json.dumps(
            {
                "log": {
                    "pages": [{"id": "p1", "startedDateTime": "2024-03-01T10:00:00.000Z"}],
                    "entries": [
                        {
                            "pageref": "p1",
                            "startedDateTime": "2024-03-01T10:00:00.000Z",
                            "time": 100,
                            "request": {"url": "http://site.test/"},
                            "response": {
                                "headers": [],
                                "content": {"size": 500, "mimeType": "text/html"},
                            },
                        }
                    ],
                }
            }
        )
    )
    out = tmp_path / "har.jsonl"
    assert run("ingest", str(har), "--out", str(out)) == 0
    assert "wrote 1 visits" in capsys.readouterr().out
    assert len(load_trace(out).visits) == 1


def test_ingest_of_a_max_age_too_large_for_a_float_loads_again(tmp_path, capsys):
    # The max-age clamps to 2**31 at ingest, so the trace it writes is one
    # that load_trace accepts.
    entry = {
        "pageref": "p",
        "request": {"url": "http://site.test/"},
        "response": {
            "headers": [{"name": "Cache-Control", "value": "max-age=1" + "0" * 400}],
            "content": {"size": 500, "mimeType": "text/html"},
        },
    }
    har, out = tmp_path / "cap.har", tmp_path / "har.jsonl"
    har.write_text(json.dumps({"log": {"pages": [{"id": "p"}], "entries": [entry]}}))
    assert run("ingest", str(har), "--out", str(out)) == 0
    assert json.loads(out.read_text())["main"]["cc"]["max_age"] == 2147483648
    assert run("sim-cache", "--trace", str(out), "--out", str(tmp_path / "cache.csv")) == 0
    assert "error" not in capsys.readouterr().err


def test_ingest_of_a_malformed_har_exits_1(tmp_path, capsys):
    har = tmp_path / "cap.har"
    har.write_text("[]")
    out = tmp_path / "har.jsonl"
    assert run("ingest", str(har), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: not a HAR file")
    assert not out.exists()
    # A page list item that is not an object; a size no float holds.
    entry = {
        "pageref": "p",
        "request": {"url": "http://a.com/"},
        "response": {"content": {"size": 10**400, "mimeType": "text/html"}},
    }
    for doc in ({"pages": [1], "entries": []}, {"pages": [{"id": "p"}], "entries": [entry]}):
        har.write_text(json.dumps({"log": doc}))
        assert run("ingest", str(har), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def test_fetch_against_fixture(tmp_path, capsys):
    spec = tmp_path / "fixture.json"
    spec.write_text(
        json.dumps(
            {
                "delay_ms": 0,
                "pages": {"/index.html": {"subresources": ["/a.js"]}},
                "resources": {"/a.js": {"size": 100}},
            }
        )
    )
    out = tmp_path / "fetch.csv"
    assert (
        run(
            "fetch",
            "--fixture", str(spec),
            "--url", "/index.html",
            "--mode", "tempo",
            "--repeat", "2",
            "--out", str(out),
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "run 0:" in printed and "run 1:" in printed
    assert "median delay" in printed

    rows = read_rows(out)
    assert rows[0] == FETCH_HEADER
    assert {r[0] for r in rows[1:]} == {"0", "1"}
    assert all(r[2] == "tempo" for r in rows[1:])


def test_fetch_in_dev_mode(tmp_path):
    spec = tmp_path / "fixture.json"
    spec.write_text(json.dumps(DEV_FIXTURE))
    run_dev(
        "-m", "specload.cli", "fetch", "--fixture", str(spec), "--url", "/index.html",
        "--mode", "tempo", "--repeat", "3",
    )


def test_fetch_from_a_closed_port_is_one_error_line_in_dev_mode():
    # No traceback, and no warning of a leaked socket or thread.
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    url = f"http://127.0.0.1:{port}/index.html"
    err = run_dev("-m", "specload.cli", "fetch", "--url", url, "--mode", "tempo", status=1).stderr
    assert err.startswith("error: main resource failed: ") and err.count("\n") == 1, err


def test_fetch_with_a_bad_fixture_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "fixture.json"
    spec.write_text(json.dumps({"pages": {"/a.html": 1}}))
    assert run("fetch", "--fixture", str(spec), "--url", "/a.html") == 1
    assert capsys.readouterr().err == "error: page /a.html must be an object\n"


def test_report_renders_saved_csv(tmp_path, trace_path, capsys):
    out = tmp_path / "cache.csv"
    assert run("sim-cache", "--trace", str(trace_path), "--out", str(out)) == 0
    capsys.readouterr()
    assert run("report", str(out)) == 0
    text = capsys.readouterr().out
    assert "TOTAL" in text
    assert "command: sim-cache" in text
