"""Streaming service throughput: many concurrent localization sessions.

Asserts the qualitative shape the paper's debug loop relies on: the
service's session core, driven in process, sustains the synthetic
fleet, every session completes cleanly, and the streamed results are
identical whatever the concurrency -- scheduling never leaks between
sessions.
"""

from __future__ import annotations

from repro.server import (
    ServeContext,
    ServerConfig,
    SessionHost,
    run_load_test,
)

SESSIONS = 16
CHUNK = 8


def test_stream_throughput(once):
    context = ServeContext.from_scenario(1)

    def run(threads):
        host = SessionHost(context, ServerConfig(max_sessions=SESSIONS))
        return run_load_test(
            host,
            context,
            sessions=SESSIONS,
            threads=threads,
            chunk_records=CHUNK,
        )

    report = once(run, 4)

    assert len(report.outcomes) == SESSIONS
    assert not report.failures
    assert {o.status for o in report.outcomes} == {"closed"}
    assert report.total_records > 0
    assert report.records_per_s > 0
    assert 0 <= report.p95_feed_latency_s <= report.max_feed_latency_s

    # concurrency never changes the analysis: a serial re-run of each
    # session produces the same localization fractions
    serial = run(1)
    assert [o.result for o in serial.outcomes] == [
        o.result for o in report.outcomes
    ]
