"""Load-generator tests: workload construction, the networked run
(inline-thread path), and equivalence with the in-process shell -- one
load test drives both, so their localization outcomes must be
identical per seed."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.server import ServerConfig, SessionHost
from repro.server.loadgen import (
    build_session_jobs,
    render_session_chunks,
    run_load_test,
)
from tests.server.conftest import start_server


def test_chunks_reassemble_to_the_exact_tracefile(context):
    chunks = render_session_chunks(context, seed=3, chunk_records=2)
    text = b"".join(chunks).decode("utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# repro-trace v1")
    # every chunk ends on a record-line boundary
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    assert all(len(c.decode().splitlines()) <= 2 for c in chunks)


def test_render_rejects_bad_chunking(context):
    with pytest.raises(ReproError, match="chunk_records"):
        render_session_chunks(context, seed=0, chunk_records=0)


def test_build_session_jobs_assigns_distinct_seeded_ids(context):
    jobs = build_session_jobs(context, sessions=3, seed=5)
    assert [sid for sid, _ in jobs] == ["lg-0005", "lg-0006", "lg-0007"]
    assert len({chunks for _, chunks in jobs}) >= 1
    with pytest.raises(ReproError, match="sessions"):
        build_session_jobs(context, sessions=0)


def test_networked_load_test_inline(running):
    report = run_load_test(
        (running.host, running.port),
        running.context,
        sessions=4,
        processes=0,
        threads=2,
        chunk_records=2,
        seed=0,
    )
    assert report.sessions == 4
    assert not report.failures
    assert report.retries == 0
    assert report.total_records > 0
    assert report.records_per_s > 0
    summary = report.as_dict()
    assert summary["statuses"] == {"closed": 4}
    assert "p50_feed_latency_s" in summary
    assert "p99_feed_latency_s" in summary


def test_networked_matches_in_process_outcomes(running):
    """Same seeds, same chunking -> identical per-session outcomes,
    whether sessions run in-process or over the wire."""
    kwargs = dict(
        sessions=3, processes=0, threads=1, chunk_records=2, seed=9
    )
    networked = run_load_test(
        (running.host, running.port), running.context, **kwargs
    )
    in_process = run_load_test(
        SessionHost(running.context), running.context, **kwargs
    )

    def summary(report):
        return [
            (o.session_id, o.result, o.status, o.records)
            for o in report.outcomes
        ]

    assert summary(networked) == summary(in_process)
    assert networked.total_records == in_process.total_records > 0


def test_load_test_failures_are_reported_not_raised(context):
    # a server with no session capacity: every session fails after
    # retries, and the report says so instead of blowing up
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=0)
    )
    try:
        from repro.server import RetryPolicy

        report = run_load_test(
            (handle.host, handle.port),
            context,
            sessions=2,
            processes=0,
            threads=1,
            chunk_records=2,
            seed=0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
        )
        assert len(report.failures) == 2
        assert report.sessions == 0
        assert report.retries > 0
    finally:
        handle.thread.stop()
