from __future__ import annotations

import math
from collections import Counter

import pytest

from specload.errors import EmptyWindow, InsufficientTrace, InvalidParams
from specload.prefetch import PrefetchReport, evaluate_prefetch, predict_pages, train
from specload.sim import EMPTY, simulate_page
from specload.synth import SynthParams, generate_synthetic
from specload.trace import Trace
from specload.urls import normalize_url

from conftest import visit, trace_of


def test_train_window_and_tie_break():
    t = trace_of(
        visit("http://s.example/a", [], ts=10.0),
        visit("http://s.example/a", [], ts=20.0),
        visit("http://s.example/a", [], ts=30.0),
        visit("http://s.example/c", [], ts=40.0),
        visit("http://s.example/c", [], ts=50.0),
        visit("http://s.example/b", [], ts=60.0),
        visit("http://s.example/b", [], ts=70.0),
        visit("http://s.example/d", [], ts=99.0),
        visit("http://s.example/z", [], ts=100.0),  # at window_end: excluded
    )
    counts = train(t, window_end=100.0, training_window_s=100.0)
    assert counts["http://s.example/a"] == 3
    assert "http://s.example/z" not in counts
    # b and c tie at 2: URL ascending breaks it
    assert predict_pages(counts, 3) == [
        "http://s.example/a",
        "http://s.example/b",
        "http://s.example/c",
    ]

    # top_k above the universe size returns everything
    assert len(predict_pages(counts, 50)) == 4

    with pytest.raises(EmptyWindow):
        train(t, window_end=5.0, training_window_s=5.0)


def test_insufficient_trace():
    with pytest.raises(InsufficientTrace):
        evaluate_prefetch(Trace(visits=[]))
    short = trace_of(
        visit("http://s.example/a", [], ts=0.0),
        visit("http://s.example/a", [], ts=100.0),
    )
    with pytest.raises(InsufficientTrace):
        evaluate_prefetch(short, training_window_s=100.0)


@pytest.mark.parametrize(
    "params",
    [
        {"top_k": 0},
        {"top_k": -1},
        {"training_window_s": 0.0},
        {"training_window_s": -86400.0},
        {"training_window_s": math.nan},
        {"training_window_s": math.inf},
        {"refresh_interval_s": 0.0},
        {"refresh_interval_s": -1.0},
        {"refresh_interval_s": math.nan},
        {"refresh_interval_s": math.inf},
    ],
)
def test_bad_parameters_are_rejected(params):
    # Unchecked, a non-positive refresh interval loops forever, a NaN
    # window ends in StopIteration, a negative one gives an all-zero
    # report, and a negative top_k prefetches every page but one.  The
    # trace spans more than the one-day window, so only the parameter
    # under test is bad.
    trace = generate_synthetic(SynthParams(visits=100, seed=1, n_sites=3))
    good = {"training_window_s": 86400.0, "top_k": 3, "refresh_interval_s": 86400.0}
    with pytest.raises(InvalidParams):
        evaluate_prefetch(trace, **{**good, **params})
    evaluate_prefetch(trace, **good)


def test_hand_traced_report():
    p = "http://pf.example/p"
    q = "http://pf.example/q"
    t = trace_of(
        visit(p, [p + "/s.js"], ts=100.0, size=500),
        visit(p, [p + "/s.js"], ts=101.0, size=500),
        visit(p, [p + "/s.js"], ts=102.0, size=500),
        visit(p, [p + "/s.js"], ts=200.0, size=500),
        visit(q, [], ts=310.0, size=2000),
        visit(q, [], ts=360.0, size=2000),
    )
    rep = evaluate_prefetch(
        t, training_window_s=200.0, top_k=2, refresh_interval_s=50.0
    )
    # interval 1 (boundary 300, window [100,300)): predicted {p}; visits: q -> miss
    # interval 2 (boundary 350, window [150,350)): predicted {p, q}; visits: q -> hit
    assert rep.n_intervals == 2
    assert rep.n_eval_visits == 2
    assert rep.usefulness == 0.5
    assert rep.hit_ratio == pytest.approx(1 / 3)
    # p (1000 bytes) charged in both intervals, never requested;
    # q (2000 bytes) charged once, requested
    assert rep.prefetched_bytes == 4000
    assert rep.unnecessary_bytes_fraction == 0.5
    # both evaluated loads are the same page, one of them prefetched
    assert rep.upper_bound_delay_reduction_fraction == 0.5


def test_a_gap_longer_than_the_window_predicts_nothing_across_it():
    p = "http://pf.example/p"
    q = "http://pf.example/q"
    t = trace_of(
        visit(p, [], ts=0.0, size=500),
        visit(p, [], ts=10.0, size=500),
        visit(q, [], ts=400.0, size=700),
        visit(q, [], ts=420.0, size=700),
    )
    rep = evaluate_prefetch(t, training_window_s=100.0, top_k=2, refresh_interval_s=50.0)
    # The window ending at 100 predicts {p}; the six ending at 150 ... 400
    # hold no visit (EmptyWindow) and predict nothing, so both q visits,
    # in the last interval, miss.
    assert rep.n_intervals == 7
    assert rep.n_eval_visits == 2
    assert rep.prefetched_bytes == 500
    assert (rep.hit_ratio, rep.usefulness, rep.unnecessary_bytes_fraction) == (0.0, 0.0, 1.0)


def test_counters_match_independent_recount():
    trace = generate_synthetic(SynthParams(visits=400, seed=5, n_sites=3))
    window, refresh, k = 3 * 86400.0, 86400.0, 5
    rep = evaluate_prefetch(
        trace, training_window_s=window, top_k=k, refresh_interval_s=refresh
    )

    visits = trace.visits
    boundaries = []
    b = visits[0].timestamp + window
    while b <= visits[-1].timestamp:
        boundaries.append(b)
        b += refresh
    assert rep.n_intervals == len(boundaries)

    predictions = []
    for b in boundaries:
        counts = _window_counts(trace, b, window)
        predictions.append(set(sorted(counts, key=lambda url: (-counts[url], url))[:k]))

    matched = evaluated = 0
    requested = [set() for _ in boundaries]
    for v in visits:
        if v.timestamp < boundaries[0]:
            continue
        idx = int((v.timestamp - boundaries[0]) // refresh)
        evaluated += 1
        requested[idx].add(v.main.url)
        if normalize_url(v.main.url) in predictions[idx]:
            matched += 1
    assert rep.n_eval_visits == evaluated
    assert rep.usefulness == matched / evaluated

    # A prefetched page costs its bytes as last seen before the refresh.
    charged = unnecessary = 0
    for b, predicted, seen in zip(boundaries, predictions, requested):
        last = {}
        for v in visits:
            if v.timestamp < b:
                last[v.main.url] = v.main.size_bytes + sum(r.size_bytes for r in v.subresources)
        charged += sum(last[url] for url in predicted)
        unnecessary += sum(last[url] for url in predicted - seen)
    assert rep.prefetched_bytes == charged
    assert rep.unnecessary_bytes_fraction == unnecessary / charged


def test_mostly_new_visits_cap_usefulness():
    trace = generate_synthetic(SynthParams(visits=600, seed=0))
    rep = evaluate_prefetch(trace, training_window_s=5 * 86400.0)
    assert rep.usefulness <= 0.25


def _window_counts(trace, window_end, window):
    """Page-URL visit counts over [window_end - window, window_end),
    counted directly."""
    return Counter(
        v.main.url for v in trace.visits if window_end - window <= v.timestamp < window_end
    )


def _evaluate_naively(trace, window, k, refresh) -> PrefetchReport:
    """``evaluate_prefetch`` written out the slow way: ``train`` at every
    refresh, an ``EmptyWindow`` predicting nothing, and each interval's
    visits and each page's last seen bytes found by a scan of the trace."""
    visits = trace.visits
    predicted_sum = matched_pages = matched_visits = evaluated = charged = unnecessary = 0
    delay_total = delay_matched = 0.0
    n_intervals = 0
    boundary = visits[0].timestamp + window
    while boundary <= visits[-1].timestamp:
        try:
            predicted = set(predict_pages(train(trace, boundary, window), k))
        except EmptyWindow:
            predicted = set()
        interval = [v for v in visits if boundary <= v.timestamp < boundary + refresh]
        for v in interval:
            delay = simulate_page(v, None, EMPTY)
            delay_total += delay
            if v.main.url in predicted:
                matched_visits += 1
                delay_matched += delay
        evaluated += len(interval)
        requested = {v.main.url for v in interval}
        last = {
            v.main.url: v.main.size_bytes + sum(r.size_bytes for r in v.subresources)
            for v in visits
            if v.timestamp < boundary
        }
        predicted_sum += len(predicted)
        matched_pages += len(predicted & requested)
        charged += sum(last[url] for url in predicted)
        unnecessary += sum(last[url] for url in predicted - requested)
        n_intervals += 1
        boundary += refresh
    return PrefetchReport(
        hit_ratio=matched_pages / predicted_sum if predicted_sum else 0.0,
        usefulness=matched_visits / evaluated if evaluated else 0.0,
        unnecessary_bytes_fraction=unnecessary / charged if charged else 0.0,
        upper_bound_delay_reduction_fraction=delay_matched / delay_total if delay_total else 0.0,
        n_intervals=n_intervals,
        n_eval_visits=evaluated,
        prefetched_bytes=charged,
    )


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize(
    "window_days,refresh_days",
    [(3.0, 1.0), (1.0, 1.0), (0.01, 0.37), (2.0, 5.0), (0.0, 1.0), (-1.0, 1.0)],
)
def test_sliding_window_equals_train_at_every_boundary(seed, window_days, refresh_days):
    trace = generate_synthetic(SynthParams(visits=300, seed=seed, n_sites=4))
    # A gap of quiet days, so some windows are empty.
    later = [
        visit(v.main.url, [], ts=v.timestamp + 20 * 86400.0)
        for v in trace.visits[-40:]
    ]
    trace = Trace(visits=trace.visits + later)
    window, refresh, k = window_days * 86400.0, refresh_days * 86400.0, 3
    boundary = trace.visits[0].timestamp + window
    empty = 0
    while boundary <= trace.visits[-1].timestamp:
        expected = _window_counts(trace, boundary, window)
        if not expected:
            empty += 1
            with pytest.raises(EmptyWindow):
                train(trace, boundary, window)
        else:
            got = train(trace, boundary, window)
            assert got == expected
            assert 0 not in got.values()
            ranked = sorted(expected, key=lambda url: (-expected[url], url))
            assert predict_pages(got, k) == ranked[:k]
        boundary += refresh
    assert empty > 0
    if window > 0:
        # The one pass ranks at each refresh what ``train`` counts there.
        got = evaluate_prefetch(trace, window, k, refresh)
        assert got == _evaluate_naively(trace, window, k, refresh)
        assert got.prefetched_bytes > 0
