"""Synthetic workloads and the in-process shell of the debug service:
isolation under concurrency and the load-test harness, with every
session hosted by a :class:`SessionHost`."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, StreamError
from repro.perf import clear_runs, percentile, recent_runs
from repro.selection.localization import PathLocalizer
from repro.server import (
    InProcessClient,
    ServeContext,
    ServerConfig,
    SessionFeed,
    SessionHost,
    run_load_test,
)
from repro.server.loadgen import render_session_chunks
from repro.stream.service import chunked, synthetic_session_records


@pytest.fixture(autouse=True)
def _clean_telemetry():
    clear_runs()
    yield
    clear_runs()


@pytest.fixture
def context(cc_interleaved, traced) -> ServeContext:
    return ServeContext.from_components(cc_interleaved, tuple(traced))


def host_for(context, sessions=64) -> SessionHost:
    return SessionHost(context, ServerConfig(max_sessions=sessions))


def batch_result(context, seed):
    """What batch localization says about one load-test session."""
    records = synthetic_session_records(
        context.interleaved, context.traced, seed, scenario_name="loadgen"
    )
    batch = PathLocalizer(context.interleaved, context.traced)
    return batch.localize([r.message for r in records])


class TestHelpers:
    def test_chunked_covers_everything_in_order(self):
        items = list(range(10))
        chunks = chunked(items, 4)
        assert chunks == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert chunked([], 4) == []
        with pytest.raises(StreamError, match="chunk size"):
            chunked(items, 0)

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.95) == 95.0
        assert percentile([3.0], 0.95) == 3.0
        assert percentile([], 0.95) == 0.0

    def test_synthetic_records_are_visible_only(
        self, cc_interleaved, traced
    ):
        records = synthetic_session_records(cc_interleaved, traced, seed=4)
        localizer = PathLocalizer(cc_interleaved, traced)
        assert records
        assert all(localizer.is_visible(r.message) for r in records)


class TestService:
    def test_run_session_matches_batch(self, context):
        chunks = render_session_chunks(context, seed=7, chunk_records=2)
        with InProcessClient(host_for(context)) as client:
            feed = SessionFeed(client)
            replies = feed.feed_chunks(chunks)
            snapshot = feed.snapshot()
            closed = feed.close()
        assert snapshot.result == batch_result(context, 7)
        assert closed.status == "closed"
        assert closed.result == snapshot.result
        assert closed.records == sum(r.consumed for r in replies) > 0
        assert client.retries == 0

    def test_bad_workers(self, context):
        with pytest.raises(ReproError, match="threads"):
            run_load_test(host_for(context), context, threads=0)
        with pytest.raises(ReproError, match="worker processes"):
            run_load_test(host_for(context), context, processes=2)


class TestLoadTest:
    def test_32_sessions_no_cross_session_leakage(self, context):
        report = run_load_test(
            host_for(context),
            context,
            sessions=32,
            threads=8,
            chunk_records=2,
            seed=100,
        )
        assert len(report.outcomes) == 32
        assert not report.failures
        assert {o.status for o in report.outcomes} == {"closed"}
        # per-session results equal an independent batch analysis
        for i, outcome in enumerate(report.outcomes):
            assert outcome.session_id == f"lg-{100 + i:04d}"
            assert outcome.result == batch_result(context, 100 + i), (
                outcome.session_id
            )
        # one telemetry record per closed session
        assert len(recent_runs(name_prefix="stream:lg-")) == 32

    def test_report_shape(self, context):
        report = run_load_test(
            host_for(context), context, sessions=3, threads=2,
            chunk_records=4,
        )
        summary = report.as_dict()
        assert summary["sessions"] == 3
        assert summary["total_records"] == report.total_records > 0
        assert summary["records_per_s"] > 0
        assert summary["statuses"] == {"closed": 3}
        assert summary["failures"] == []
        assert len(summary["fractions"]) == 3
        assert (
            summary["p50_feed_latency_s"]
            <= summary["p95_feed_latency_s"]
            <= summary["max_feed_latency_s"]
        )

    def test_determinism_across_worker_counts(self, context):
        wide = run_load_test(
            host_for(context), context, sessions=6, threads=6,
            chunk_records=3,
        )
        narrow = run_load_test(
            host_for(context), context, sessions=6, threads=1,
            chunk_records=3,
        )
        assert [o.result for o in wide.outcomes] == [
            o.result for o in narrow.outcomes
        ]

    def test_bad_sessions(self, context):
        with pytest.raises(ReproError, match="sessions"):
            run_load_test(host_for(context), context, sessions=0)
