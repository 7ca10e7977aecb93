"""Tests for the :mod:`repro.perf` metrics plane: exact counters and
timings, thread binding and process-wide collections, latency
histograms, snapshots, and the metrics each debug server owns."""

from __future__ import annotations

import json
import threading

import pytest

from repro import perf
from repro.core.interleave import interleave_flows
from repro.server import ServeContext, ServerConfig, ServerThread

THREADS = 8
PER_THREAD = 100_000


@pytest.fixture
def context(cc_flow) -> ServeContext:
    traced = (
        cc_flow.message_by_name("ReqE"),
        cc_flow.message_by_name("GntE"),
    )
    return ServeContext.from_components(
        interleave_flows([cc_flow], copies=2), traced, name="cc-test"
    )


def hammer(work) -> None:
    """Run ``work(index)`` on :data:`THREADS` threads released together."""
    barrier = threading.Barrier(THREADS)

    def run(index: int) -> None:
        barrier.wait(timeout=30)
        work(index)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


class TestMetrics:
    def test_add_and_get(self):
        metrics = perf.Metrics()
        metrics.add("x")
        metrics.add("x", 4)
        assert metrics.get("x") == 5
        assert metrics.get("missing") == 0

    def test_add_time_sums(self):
        metrics = perf.Metrics()
        metrics.add_time("stage", 0.25)
        metrics.add_time("stage", 0.25)
        assert metrics.timings["stage"] == 0.5

    def test_as_dict_is_json_serializable(self):
        metrics = perf.Metrics()
        metrics.add("b", 2)
        metrics.add("a", 1)
        metrics.add_time("t", 0.1)
        payload = json.loads(json.dumps(metrics.as_dict()))
        assert payload["counters"] == {"a": 1, "b": 2}
        assert payload["wall_s"]["t"] == 0.1

    def test_format_lists_all_entries(self):
        metrics = perf.Metrics()
        metrics.add("events", 1234)
        metrics.add_time("stage", 1.5)
        text = metrics.format()
        assert "events" in text
        assert "1,234" in text
        assert "stage" in text


class TestCollection:
    def test_noop_when_inactive(self):
        assert not perf.enabled()
        perf.add("ignored")  # must not raise or record anywhere
        with perf.timed("ignored"):
            pass
        assert not perf.enabled()

    def test_collect_gathers_increments(self):
        with perf.collect() as counters:
            assert perf.enabled()
            perf.add("events", 3)
            with perf.timed("stage"):
                pass
        assert counters.get("events") == 3
        assert counters.timings["stage"] >= 0.0
        assert not perf.enabled()

    def test_nested_collections_both_see_increments(self):
        with perf.collect() as outer:
            perf.add("events")
            with perf.collect() as inner:
                perf.add("events")
        assert outer.get("events") == 2
        assert inner.get("events") == 1

    def test_instrumented_selection_reports_stages(self):
        from repro.core.flow import linear_flow
        from repro.core.indexing import index_flows
        from repro.core.interleave import interleave
        from repro.core.message import Message
        from repro.selection.selector import select_messages

        flow = linear_flow(
            "F",
            ["s0", "s1", "s2"],
            [Message("a", 4), Message("b", 4)],
        )
        with perf.collect() as counters:
            interleaved = interleave(index_flows([flow, flow]))
            select_messages(interleaved, 8, method="exhaustive")
        assert counters.get("interleave_states_expanded") == (
            interleaved.num_states
        )
        assert counters.get("interleave_transitions") == (
            interleaved.num_transitions
        )
        assert counters.get("combinations_scored") > 0
        assert counters.get("coverage_queries") > 0
        assert "interleave" in counters.timings
        assert "select_exhaustive" in counters.timings

    def test_bound_metrics_count_only_their_threads(self):
        metrics = perf.Metrics()
        with perf.bound(metrics):
            assert perf.enabled()
            perf.add("mine")
            with perf.timed("stage"):
                pass
        perf.add("elsewhere")  # unbound again: lands nowhere
        assert metrics.counters == {"mine": 1}
        assert "stage" in metrics.timings
        assert not perf.enabled()

    def test_concurrent_increments_are_exact(self):
        server = perf.Metrics()

        def work(index: int) -> None:
            if index % 2:  # half the threads serve a bound instance
                perf.bind(server)
            try:
                for _ in range(PER_THREAD):
                    perf.add("x")
            finally:
                perf.bind(None)

        with perf.collect() as observed:
            hammer(work)
        assert server.get("x") == THREADS // 2 * PER_THREAD
        assert observed.get("x") == THREADS * PER_THREAD

    def test_concurrent_timings_are_exact(self):
        metrics = perf.Metrics()

        def work(index: int) -> None:
            for _ in range(PER_THREAD):
                metrics.add_time("stage", 0.5)

        hammer(work)
        assert metrics.timings["stage"] == THREADS * PER_THREAD * 0.5


def test_counter_accumulates():
    metrics = perf.Metrics()
    metrics.add("requests")
    metrics.add("requests", 5)
    assert metrics.get("requests") == 6


# ----------------------------------------------------------------------
# run records
class TestRecordProfile:
    def test_lands_in_telemetry(self):
        metrics = perf.Metrics()
        metrics.add("events", 7)
        metrics.add_time("stage", 0.5)
        record = perf.record_run(perf.RunRecord(
            name="profile:test", wall_time_s=0.5, extra=metrics.as_dict()
        ))
        assert record.name == "profile:test"
        assert record.wall_time_s == 0.5
        assert record.extra["counters"]["events"] == 7
        assert json.loads(record.to_json())["extra"]["wall_s"]["stage"] == 0.5
        assert any(
            r.name == "profile:test"
            for r in perf.recent_runs(name_prefix="profile:")
        )


# ----------------------------------------------------------------------
# latency histograms and snapshots
def test_histogram_percentiles():
    metrics = perf.Metrics()
    for value in range(1, 101):  # 0.001 .. 0.100
        metrics.observe("lat", value / 1000)
    s = metrics.snapshot()["histograms"]["lat"]
    assert s["count"] == 100
    assert s["p50_s"] == pytest.approx(0.050)
    assert s["p95_s"] == pytest.approx(0.095)
    assert s["p99_s"] == pytest.approx(0.099)
    assert s["max_s"] == pytest.approx(0.100)
    assert s["mean_s"] == pytest.approx(0.0505)


def test_histogram_window_bounds_memory():
    metrics = perf.Metrics(window=4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        metrics.observe("lat", value)
    s = metrics.snapshot()["histograms"]["lat"]
    # lifetime stats are exact; the percentile window holds the last 4
    assert s["count"] == 6
    assert s["window"] == 4
    assert s["max_s"] == 6.0
    assert s["p50_s"] in (3.0, 4.0, 5.0)  # recent observations only


def test_histogram_rejects_bad_window():
    with pytest.raises(ValueError):
        perf.Metrics(window=0)


def test_empty_histogram_summary():
    metrics = perf.Metrics()
    metrics.declare(histograms=("lat",))
    s = metrics.snapshot()["histograms"]["lat"]
    assert s["count"] == 0
    assert s["mean_s"] == 0.0
    assert s["p99_s"] == 0.0


def test_declared_metrics_appear_before_first_event():
    metrics = perf.Metrics()
    metrics.declare(("requests",), histograms=("lat",))
    assert metrics.snapshot()["counters"] == {"requests": 0}
    metrics.add("requests", 2)
    metrics.declare(("requests",))  # re-declaring keeps the count
    snap = metrics.snapshot()
    assert snap["counters"] == {"requests": 2}
    assert snap["histograms"]["lat"]["window"] == 0


def test_snapshot_shape():
    metrics = perf.Metrics()
    metrics.add("requests", 3)
    metrics.add_time("stage", 0.5)
    metrics.observe("lat", 0.01)
    metrics.add_collector("extra", lambda: {"k": "v"})
    snap = metrics.snapshot()
    assert snap["counters"] == {"requests": 3}
    assert snap["wall_s"] == {"stage": 0.5}
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["extra"] == {"k": "v"}


def test_collector_errors_do_not_fail_scrape():
    metrics = perf.Metrics()

    def broken():
        raise RuntimeError("collector exploded")

    metrics.add_collector("broken", broken)
    snap = metrics.snapshot()
    assert snap["broken"] == {"error": "collector exploded"}


# ----------------------------------------------------------------------
# the metrics a debug server owns
def test_runtime_cache_collector_reports_hit_miss(context):
    from repro.server.core import SessionHost

    stats = SessionHost(context).metrics.snapshot()["runtime_cache"]
    for key in ("hits", "misses", "hit_rate", "directory"):
        assert key in stats


def test_server_exports_localize_table_stats(context):
    from repro.server.server import DebugServer

    server = DebugServer(context)  # wiring happens at construction
    snap = server.metrics.snapshot()
    tables = snap["localize_tables"]
    for key in (
        "tables",
        "hits",
        "misses",
        "evictions",
        "disk_hits",
        "disk_rejects",
        "bytes",
        "closure_entries",
        "step_memo_entries",
        "backend",
    ):
        assert key in tables
    assert tables["backend"] in ("numpy", "python")


def test_in_process_host_counts_its_own_kernel_work(context, monkeypatch):
    from repro.selection.kernels import ENGINE_ENV
    from repro.server import InProcessClient, SessionHost
    from repro.server.loadgen import render_session_chunks

    monkeypatch.setenv(ENGINE_ENV, "dense")  # the engine with batches
    host = SessionHost(context)
    client = InProcessClient(host)
    sid = client.open_session("local")
    client.feed(sid, 0, render_session_chunks(context, seed=0)[0])
    assert host.metrics.get("localize_kernel_batches") >= 1
    assert not perf.enabled()  # the binding ended with the call


def test_each_server_counts_only_its_own_work(monkeypatch):
    from repro.selection.kernels import ENGINE_ENV
    from repro.server.loadgen import run_load_test

    monkeypatch.setenv(ENGINE_ENV, "dense")  # the engine with batches
    context = ServeContext.from_scenario(1)
    with perf.collect() as observed:
        a = ServerThread(context, ServerConfig(shards=2))
        b = ServerThread(context, ServerConfig(shards=2))
        target = a.start()
        b.start()
        try:
            report = run_load_test(target, context, sessions=8, seed=3)
        finally:
            a.stop()
            b.stop()
    assert not report.failures
    mine, other = a.metrics.counters, b.metrics.counters
    assert other["feeds_total"] == 0
    assert "localize_kernel_batches" not in other
    assert mine["feeds_total"] > 0
    assert mine["localize_kernel_batches"] >= mine["feeds_total"]
    assert observed.get("localize_kernel_batches") == (
        mine["localize_kernel_batches"]
    )
