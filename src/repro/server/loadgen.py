"""The load generator: one load test for either shell of the service.

:func:`run_load_test` replays simulator-produced trace files, one
:class:`~repro.server.client.SessionFeed` per session, against a running
server's ``(host, port)`` -- over TCP, from threads or ``spawn``
worker processes -- or against a :class:`~repro.server.core.
SessionHost` in this process through :class:`~repro.server.client.
InProcessClient`.  Both legs run the same feed, retry and reply code
against the same core, so their numbers differ only by framing, TCP
and the event loop (``benchmarks/server_bench.py`` gates both).

Each session is one seeded failing run of the simulator, projected
onto the traced message set, rendered to the Figure-4 trace-file text
and cut into chunks at record-line boundaries.  Chunks are rendered in
the parent, so worker processes need nothing but bytes.
"""

from __future__ import annotations

import io
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.perf import percentile
from repro.selection.localization import LocalizationResult
from repro.server.client import (
    DebugClient,
    InProcessClient,
    RetryPolicy,
    SessionFeed,
)
from repro.server.core import SessionHost
from repro.sim.tracefile import write_trace_file

#: One pre-rendered session workload: ``(session_id, chunk bytes...)``.
SessionJob = Tuple[str, Tuple[bytes, ...]]
#: Where sessions go: a server's ``(host, port)`` or a local core.
Target = Union[Tuple[str, int], SessionHost]


# ----------------------------------------------------------------------
# workload construction (parent process)
def render_session_chunks(
    context: "object",
    seed: int,
    chunk_records: int = 16,
    scenario_name: str = "loadgen",
) -> Tuple[bytes, ...]:
    """One session's wire chunks: a seeded simulated run projected onto
    the traced set, rendered to trace-file text, split at record-line
    boundaries (header rides in the first chunk; every chunk ends on a
    newline, so text parsing never waits on EOF)."""
    from repro.stream.service import synthetic_session_records

    records = synthetic_session_records(
        context.interleaved,  # type: ignore[attr-defined]
        context.traced,  # type: ignore[attr-defined]
        seed,
        scenario_name=scenario_name,
    )
    buffer = io.StringIO()
    write_trace_file(
        buffer, records, scenario=scenario_name, seed=seed
    )
    lines = buffer.getvalue().splitlines(keepends=True)
    if chunk_records < 1:
        raise ReproError(
            f"chunk_records must be >= 1, got {chunk_records}"
        )
    chunks = [
        "".join(lines[i : i + chunk_records]).encode("utf-8")
        for i in range(0, len(lines), chunk_records)
    ]
    return tuple(chunks) if chunks else (b"",)


def build_session_jobs(
    context: "object",
    sessions: int,
    seed: int = 0,
    chunk_records: int = 16,
    scenario_name: str = "loadgen",
) -> Tuple[SessionJob, ...]:
    """Pre-render every session's chunks (seeds ``seed..seed+n-1``)."""
    if sessions < 1:
        raise ReproError(f"sessions must be >= 1, got {sessions}")
    return tuple(
        (
            f"lg-{seed + i:04d}",
            render_session_chunks(
                context, seed + i, chunk_records, scenario_name
            ),
        )
        for i in range(sessions)
    )


# ----------------------------------------------------------------------
# driving (runs in a spawned process, or inline when processes=0)
@dataclass(frozen=True)
class SessionOutcome:
    """What one driven session produced (``failure`` set, and the
    localization fields empty, when it could not complete)."""

    session_id: str
    result: Optional[LocalizationResult]
    status: str
    records: int
    feed_latencies_s: Tuple[float, ...]
    retries: int
    recoveries: int
    failure: Optional[str] = None


def _drive_session(
    target: Target, job: SessionJob, mode: str, policy: RetryPolicy
) -> SessionOutcome:
    """Open, feed every chunk in order, snapshot, close -- with per-feed
    wall time measured around each :meth:`SessionFeed.feed`."""
    session_id, chunks = job
    if isinstance(target, SessionHost):
        client: DebugClient = InProcessClient(target, policy=policy)
    else:
        client = DebugClient(target[0], target[1], policy=policy)
    feed: Optional[SessionFeed] = None
    latencies: List[float] = []
    records = 0
    try:
        feed = SessionFeed(client, session_id=session_id, mode=mode)
        try:
            for chunk in chunks:
                started = perf_counter()
                records += feed.feed(chunk).consumed
                latencies.append(perf_counter() - started)
            result = feed.snapshot().result
        finally:
            status = feed.close().status
        return SessionOutcome(
            session_id, result, status, records, tuple(latencies),
            client.retries, feed.recoveries,
        )
    except ReproError as exc:
        return SessionOutcome(
            session_id, None, "failed", records, tuple(latencies),
            client.retries, feed.recoveries if feed is not None else 0,
            failure=f"{type(exc).__name__}: {exc}",
        )
    finally:
        client.close()


def _drive_jobs(
    target: Target,
    jobs: Sequence[SessionJob],
    mode: str,
    threads: int,
    policy: RetryPolicy,
) -> List[SessionOutcome]:
    """Drive *jobs* on up to *threads* threads, one client per session
    (clients are not thread-safe)."""
    if threads <= 1 or len(jobs) <= 1:
        return [_drive_session(target, job, mode, policy) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(
            pool.map(lambda job: _drive_session(target, job, mode, policy),
                     jobs)
        )


def _warm_worker(_index: int) -> int:
    """Force the spawned worker's imports before the timed window --
    interpreter start-up is not part of the server's throughput."""
    import repro.server.client  # noqa: F401

    return _index


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadTestReport:
    """Aggregate numbers from one multi-session load test.

    ``sessions`` counts the sessions that completed; the others are
    listed in ``failures``."""

    sessions: int
    workers: int
    chunk_size: int
    mode: str
    total_records: int
    wall_s: float
    records_per_s: float
    p50_feed_latency_s: float
    p95_feed_latency_s: float
    p99_feed_latency_s: float
    max_feed_latency_s: float
    retries: int
    recoveries: int
    failures: Tuple[str, ...]
    outcomes: Tuple[SessionOutcome, ...]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (per-session payloads reduced to the
        numbers dashboards plot)."""
        return {
            "sessions": self.sessions,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "mode": self.mode,
            "total_records": self.total_records,
            "wall_s": round(self.wall_s, 6),
            "records_per_s": round(self.records_per_s, 3),
            "p50_feed_latency_s": round(self.p50_feed_latency_s, 6),
            "p95_feed_latency_s": round(self.p95_feed_latency_s, 6),
            "p99_feed_latency_s": round(self.p99_feed_latency_s, 6),
            "max_feed_latency_s": round(self.max_feed_latency_s, 6),
            "retries": self.retries,
            "recoveries": self.recoveries,
            "failures": list(self.failures),
            "statuses": {
                status: sum(1 for o in self.outcomes if o.status == status)
                for status in sorted({o.status for o in self.outcomes})
            },
            "fractions": [
                round(o.result.fraction, 8) for o in self.outcomes
            ],
        }


def run_load_test(
    target: Target,
    context: "object",
    sessions: int = 8,
    processes: int = 0,
    threads: int = 2,
    chunk_records: int = 16,
    seed: int = 0,
    mode: str = "prefix",
    policy: Optional[RetryPolicy] = None,
    scenario_name: str = "loadgen",
) -> LoadTestReport:
    """Replay *sessions* simulated trace files against *target*.

    Sessions are dealt round-robin over *processes* worker processes
    (``processes=0`` → this process; required for a
    :class:`SessionHost` target), each driving up to *threads*
    sessions concurrently.  The wall clock covers the full span, so
    ``records_per_s`` is end-to-end throughput.  Localization results
    depend only on the seeds, never on the shell or the scheduling.
    """
    if threads < 1:
        raise ReproError(f"threads must be >= 1, got {threads}")
    if processes > 0 and isinstance(target, SessionHost):
        raise ReproError(
            "an in-process SessionHost cannot be driven from worker "
            "processes; use processes=0"
        )
    jobs = build_session_jobs(
        context, sessions, seed, chunk_records, scenario_name
    )
    if policy is None:
        policy = RetryPolicy()
    if processes <= 0:
        started = perf_counter()
        rows = _drive_jobs(target, jobs, mode, threads, policy)
        wall_s = perf_counter() - started
    else:
        shares: List[List[SessionJob]] = [[] for _ in range(processes)]
        for i, job in enumerate(jobs):
            shares[i % processes].append(job)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=processes) as pool:
            pool.map(_warm_worker, range(processes))
            started = perf_counter()
            parts = pool.starmap(
                _drive_jobs,
                [
                    (target, share, mode, threads, policy)
                    for share in shares
                    if share
                ],
            )
            wall_s = perf_counter() - started
        rows = [row for part in parts for row in part]

    outcomes = tuple(row for row in rows if row.failure is None)
    latencies = sorted(
        latency for o in outcomes for latency in o.feed_latencies_s
    )
    total_records = sum(o.records for o in outcomes)
    return LoadTestReport(
        sessions=len(outcomes),
        workers=(processes if processes > 0 else 1) * threads,
        chunk_size=chunk_records,
        mode=mode,
        total_records=total_records,
        wall_s=wall_s,
        records_per_s=total_records / wall_s if wall_s > 0 else 0.0,
        p50_feed_latency_s=percentile(latencies, 0.50),
        p95_feed_latency_s=percentile(latencies, 0.95),
        p99_feed_latency_s=percentile(latencies, 0.99),
        max_feed_latency_s=latencies[-1] if latencies else 0.0,
        retries=sum(row.retries for row in rows),
        recoveries=sum(row.recoveries for row in rows),
        failures=tuple(
            f"{row.session_id}: {row.failure}"
            for row in rows
            if row.failure is not None
        ),
        outcomes=outcomes,
    )
