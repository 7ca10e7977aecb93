"""The load generator: one process, one thread per connection, each
with its own :class:`DebugClient`.

A session is what a validator does with one failing run's capture:
OPEN, FEED every chunk (the next one once the previous is acked),
SNAPSHOT, CLOSE.  In the open loop, sessions arrive at seeded Poisson
times and are dealt round-robin to ``OPEN_CONNECTIONS`` connections;
every request is
timed from the moment it was due -- a session's OPEN from its arrival,
each later request from the reply before it -- so a connection still
busy with an earlier session shows up as latency, not as a lower
offered rate.  In the closed loop each of ``CONNECTIONS`` connections
runs sessions back to back, which measures the saturated record rate.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from common import CONNECTIONS, MODE, OPEN_CONNECTIONS, Capture

perf_counter = time.perf_counter


@dataclass
class Tally:
    """What one phase (or one connection of it) observed."""

    feed_s: List[float] = field(default_factory=list)
    session_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    sessions: int = 0
    requests: int = 0
    failures: List[str] = field(default_factory=list)
    retries: int = 0
    backlog_end: int = 0
    #: ``(ack time, records)`` per FEED, for windowed throughput
    acks: List[Tuple[float, int]] = field(default_factory=list)
    #: closed loop: records acked per second in each window of the phase
    rates: List[float] = field(default_factory=list)
    #: ``(capture index, consistent_paths, total_paths)`` per snapshot
    results: List[Tuple[int, int, int]] = field(default_factory=list)

    def merge(self, other: "Tally") -> None:
        self.feed_s += other.feed_s
        self.session_s += other.session_s
        self.late_s += other.late_s
        self.sessions += other.sessions
        self.requests += other.requests
        self.failures += other.failures
        self.retries += other.retries
        self.backlog_end += other.backlog_end
        self.acks += other.acks
        self.results += other.results


def run_session(
    client,
    captures: Sequence[Capture],
    index: int,
    due: float,
    tally: Tally,
) -> None:
    """One validator session on capture ``index % len(captures)``;
    latencies are measured from *due*."""
    from repro.errors import ReproError
    from repro.server import SessionFeed

    index %= len(captures)
    tally.sessions += 1
    chunks = captures[index].chunks
    retries_before = client.retries
    try:
        feed = SessionFeed(client, mode=MODE, transport="text")
        tally.requests += 1
        previous = perf_counter()
        for k, chunk in enumerate(chunks):
            tally.requests += 1
            reply = feed.feed(chunk, eof=k == len(chunks) - 1)
            done = perf_counter()
            tally.feed_s.append(done - previous)
            tally.acks.append((done, reply.consumed))
            previous = done
        tally.requests += 1
        snap = feed.snapshot()
        done = perf_counter()
        tally.session_s.append(done - due)
        tally.results.append(
            (index, snap.result.consistent_paths, snap.result.total_paths)
        )
        tally.requests += 1
        feed.close()
    except ReproError as exc:
        tally.failures.append(f"session {index}: {type(exc).__name__}: {exc}")
    tally.retries += client.retries - retries_before


def _run_threads(
    target: Callable[[int, Tally], None], connections: int
) -> Tally:
    """Run *target* on each of *connections* connections; re-raises a
    thread's error."""
    tallies = [Tally() for _ in range(connections)]
    errors: List[BaseException] = []

    def guarded(which: int) -> None:
        try:
            target(which, tallies[which])
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total


def open_loop(
    host: str,
    port: int,
    captures: Sequence[Capture],
    rate: float,
    duration: float,
    rng: random.Random,
    first_index: int = 0,
) -> Tally:
    """Poisson session arrivals at *rate*/s for *duration* seconds."""
    from repro.server import DebugClient

    arrivals: List[float] = []
    clock = rng.expovariate(rate)
    while clock < duration:
        arrivals.append(clock)
        clock += rng.expovariate(rate)
    start = perf_counter() + 0.05
    end = start + duration

    def connection(which: int, tally: Tally) -> None:
        client = DebugClient(host, port)
        free_at = start
        try:
            for n in range(which, len(arrivals), OPEN_CONNECTIONS):
                due = start + arrivals[n]
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = perf_counter()
                # the generator's own lateness: how far past the moment
                # it could have sent (due, and the connection free) it
                # actually sent
                tally.late_s.append(max(0.0, sent - max(due, free_at)))
                if sent > end:
                    tally.backlog_end += 1
                run_session(client, captures, first_index + n, due, tally)
                free_at = perf_counter()
        finally:
            client.close()

    return _run_threads(connection, OPEN_CONNECTIONS)


def closed_loop(
    host: str,
    port: int,
    captures: Sequence[Capture],
    duration: float,
    first_index: int,
) -> Tally:
    """Every connection runs sessions back to back for *duration*."""
    from repro.server import DebugClient

    lock = threading.Lock()
    counter = [first_index]
    start = perf_counter()
    end = start + duration

    def connection(which: int, tally: Tally) -> None:
        client = DebugClient(host, port)
        try:
            while perf_counter() < end:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                run_session(client, captures, index, perf_counter(), tally)
        finally:
            client.close()

    total = _run_threads(connection, CONNECTIONS)
    total.rates = windowed_rate(total.acks, start, end)
    return total


def first_feed(host: str, port: int, capture: Capture) -> float:
    """OPEN, FEED the first chunk, CLOSE; returns when the FEED was
    acked."""
    from repro.server import DebugClient, SessionFeed

    with DebugClient(host, port) as client:
        feed = SessionFeed(client, mode=MODE, transport="text")
        feed.feed(capture.chunks[0])
        acked = perf_counter()
        feed.close()
    return acked


def windowed_rate(acks: Sequence[Tuple[float, int]], start: float,
                  end: float, window: float = 0.5) -> List[float]:
    """Records acked per second in each of the equal windows, about
    *window* seconds long, that tile ``[start, end)``."""
    count = max(1, int((end - start) / window))
    width = (end - start) / count
    bins = [0] * count
    for at, records in acks:
        slot = int((at - start) / width)
        if 0 <= slot < count:
            bins[slot] += records
    return [records / width for records in bins]


def check_results(tally: Tally, expected: Dict[int, Tuple[int, int]]) -> int:
    """Mismatches between the snapshots and the offline oracle."""
    return sum(
        1
        for index, consistent, total in tally.results
        if expected[index] != (consistent, total)
    )
