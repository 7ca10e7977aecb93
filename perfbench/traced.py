"""The traced run: per-layer metrics of one workload.

Sources, all driven from outside the program:

* a networked phase of wire-prefix traffic against a ``repro serve``
  subprocess, read from client timings and the server's STATS
  histograms (client, server lanes, load generator): first an open
  loop, then sessions one at a time on one connection, interleaved
  with the in-process replay below;
* an in-process replay of the same captures through the public
  functions in the order the server applies them -- ``encode_frame``,
  ``FrameAssembler`` and ``decode_feed_payload``, the text parser,
  ``SessionManager.feed``, and ``encode_json`` of the reply; then
  ``SessionManager.snapshot`` per session.  Spans are recorded around
  each call and kept in memory; a layer's self time is its span minus
  its children's.  The layers inside the server's FEED window must
  account for the FEED time the server itself measured over the same
  sessions (``COVERAGE_RANGE``);
* on embedded-cold, the embedded host itself with spans around
  ``SessionManager.feed`` and ``snapshot`` (``embedded.py --trace``):
  cold tables, two threads, then a closed loop;
* a set-up probe in a fresh interpreter (``python3 perfbench/traced.py
  --probe``): scenario selection, interleaving, and two concurrent cold
  ``SessionManager.warm`` calls against the table registry;
* layers neither workload has on its path, measured on the same
  captures: ``SessionStore`` appends, snapshots and
  ``recover_directory``; compressed ingest; the window DP.

The networked phase and the wire replay also run on embedded-cold,
which has no wire: there they measure the wire layers off its path.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from common import (
    BENCH_DIR,
    MODE,
    OPEN_RATE,
    POOL,
    ROOT,
    WIRE_CPUS,
    WORK,
    WORKLOADS,
    child_env,
    cpus,
    fresh_dir,
    median,
    percentile,
    setup_paths,
)

perf_counter = time.perf_counter

#: The layers the server runs inside its FEED window (``feed_latency_s``
#: starts once the request is queued for a shard lane and ends when the
#: reply is ready).
SERVER_FEED_LAYERS = ("ingest.text", "session.feed", "protocol.reply")
#: The median per-FEED sum of their self times over the server's own
#: FEED p50 on the same sessions must fall in this range.  Medians,
#: because the mean is set by the few wide DP steps, whose cost
#: depends on what the bounded step memo still holds.  Below 1 by the
#: lane hand-off (queue, executor thread, event loop), which the
#: replay leaves out, and whose cost follows the host's load: measured
#: 0.60-0.95 on a shared 2-core machine.  A step the server adds to
#: FEED and the replay does not reproduce pulls it under the floor once
#: it costs about half a FEED.
COVERAGE_RANGE = (0.4, 1.25)
#: Sessions of the replay, and of the one-at-a-time server phase that
#: runs the same captures, in this many interleaved blocks; enough
#: FEEDs to fill the server's latency window (``repro.server.metrics``
#: keeps the last 2048 observations of a histogram).
REPLAY_SESSIONS = 192
BLOCKS = 4
HISTOGRAM_WINDOW = 2048


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional["Span"]
    session: int
    child_time: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Records spans in memory (one stack per thread);
    ``enabled=False`` makes ``span`` a plain call."""

    def __init__(self, enabled: bool = True) -> None:
        self.spans: List[Span] = []
        self.enabled = enabled
        self.session = 0
        self._local = threading.local()

    def span(self, name: str, call: Callable, *args, **kwargs):
        if not self.enabled:
            return call(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.session)
        stack.append(span)
        try:
            return call(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.end - span.start
            self.spans.append(span)

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def overhead_s(self, spans_per_feed: int, calls: int = 5000) -> float:
        """What tracing adds to one FEED: *spans_per_feed* times the
        median cost of a traced call minus that of a plain one, timed
        on a no-op with a scratch tracer.  Timed per call because the
        difference of whole traced and untraced runs (a few us per
        FEED) lies below their run-to-run noise and read negative."""
        scratch = Tracer()

        def noop() -> None:
            return None

        traced, plain = [], []
        for _ in range(calls):
            t0 = perf_counter()
            scratch.span("noop", noop)
            t1 = perf_counter()
            noop()
            t2 = perf_counter()
            traced.append(t1 - t0)
            plain.append(t2 - t1)
        return spans_per_feed * (median(traced) - median(plain))


# ----------------------------------------------------------------------
# in-process replay of the wire path
class Replay:
    """A warmed :class:`SessionManager` (as a server shard has) fed
    through the server's apply order, with every call in a span."""

    def __init__(self, ctx, tracer: Tracer) -> None:
        from repro.stream.session import SessionLimits, SessionManager

        self.ctx = ctx
        self.tracer = tracer
        self.manager = SessionManager(
            ctx.interleaved, ctx.traced, mode=MODE,
            limits=SessionLimits(max_sessions=64),
        ).warm()
        self.records = self.feeds = self.frame_bytes = self.peak_frontier = 0
        self.results: List[tuple] = []

    def session(self, index: int, capture) -> None:
        import codecs

        from repro.stream.ingest import IncrementalTraceParser

        tracer = self.tracer
        tracer.session = index
        sid = self.manager.open(mode=MODE)
        parser = IncrementalTraceParser(self.ctx.catalog)
        decoder = codecs.getincrementaldecoder("utf-8")("replace")
        for chunk_index, chunk in enumerate(capture.chunks):
            eof = chunk_index == len(capture.chunks) - 1
            tracer.span("feed", self.feed, sid, chunk_index, chunk, eof,
                        parser, decoder)
        result = tracer.span("session.snapshot", self.manager.snapshot, sid)
        self.manager.close(sid)
        self.results.append(
            (index, result.consistent_paths, result.total_paths)
        )

    def feed(self, sid, chunk_index, chunk, eof, parser, decoder) -> None:
        from repro.server import protocol

        tracer = self.tracer

        def encode():
            payload = protocol.encode_feed_payload(sid, chunk_index, chunk, eof)
            return protocol.encode_frame(
                protocol.FEED_CHUNK, chunk_index, payload
            )

        frame = tracer.span("protocol.encode", encode)
        self.frame_bytes += len(frame)
        assembler = protocol.FrameAssembler()

        def assemble():
            (wire,) = assembler.feed(frame)
            return protocol.decode_feed_payload(wire.payload)

        _, _, eof, data = tracer.span("protocol.assemble", assemble)

        def ingest():
            records = list(parser.feed(decoder.decode(data, final=eof)))
            if eof:
                records.extend(parser.close())
            return records

        records = tracer.span("ingest.text", ingest)
        outcome = tracer.span(
            "session.feed", self.manager.feed, sid, records,
            drop_invisible=True,
        )
        tracer.span("protocol.reply", protocol.encode_json, {
            "session_id": sid,
            "chunk_index": chunk_index,
            "duplicate": False,
            "consumed": outcome.consumed,
            "records": len(records),
            "status": outcome.status,
            "observed_length": outcome.observed_length,
            "frontier_size": outcome.frontier_size,
            "next_chunk": chunk_index + 1,
        })
        self.records += len(records)
        self.feeds += 1
        self.peak_frontier = max(self.peak_frontier, outcome.frontier_size)


#: Spans per replayed FEED: the ``feed`` span and its five children.
WIRE_SPANS_PER_FEED = 6


def wire_layers(ctx, pool, seed: int, seconds: float, out) -> Dict:
    """The networked layers and the wire replay (see the module
    docstring); returns the replay's figures."""
    import loadgen
    from common import ServerProcess
    from repro import perf
    from repro.server import DebugClient

    sessions = pool[:REPLAY_SESSIONS]
    tracer = Tracer()
    replay = Replay(ctx, tracer)
    one_by_one = loadgen.Tally()
    with ServerProcess() as server:
        tally = loadgen.open_loop(
            server.host, server.port, pool, OPEN_RATE, seconds * 0.5,
            random.Random(seed),
        )
        with DebugClient(server.host, server.port) as client:
            stats = client.stats()
            block = len(sessions) // BLOCKS
            with perf.collect() as counters:
                for start in range(0, len(sessions), block):
                    for index in range(start, start + block):
                        replay.session(index, sessions[index])
                    for index in range(start, start + block):
                        loadgen.run_session(
                            client, sessions, index, perf_counter(),
                            one_by_one,
                        )
            final = client.stats()
    # the latency window now holds only the one-at-a-time FEEDs
    one_by_one_feeds = final["histograms"]["feed_latency_s"]

    from run import expected_results

    phases = (tally, one_by_one)
    results = [r for t in phases for r in t.results] + replay.results
    expected = expected_results(ctx, pool, [r[0] for r in results])
    mismatches = sum(
        1 for index, *found in results if tuple(found) != expected[index]
    )
    out.attempted += sum(t.requests for t in phases)
    out.failed += sum(len(t.failures) + t.retries for t in phases)
    out.failed += mismatches
    out.failed += int(final["counters"].get("retry_later_total", 0))
    for t in phases:
        out.problems += t.failures
    if mismatches:
        out.problems.append(f"{mismatches} result(s) differ from the oracle")

    histograms = stats["histograms"]
    feed_server = histograms["feed_latency_s"]
    put = out.put
    put("client.rtt_overhead_ms",
        (median(tally.feed_s) - feed_server["p50_s"]) * 1e3, "ms")
    served = WORKLOADS["wire-prefix"]
    put("client.feed_tail_ms",
        percentile(tally.feed_s, served.feed_tail) * 1e3, "ms")
    put("client.session_tail_ms",
        percentile(tally.session_s, served.session_tail) * 1e3, "ms")
    put("server.feed_service_p50_ms", feed_server["p50_s"] * 1e3, "ms")
    put("server.feed_service_p99_ms", feed_server["p99_s"] * 1e3, "ms")
    put("server.request_p99_ms",
        histograms["request_latency_s"]["p99_s"] * 1e3, "ms")
    put("loadgen.late_p99_ms", percentile(tally.late_s, 0.99) * 1e3, "ms")

    # coverage: the replay's server-side layers per FEED against the
    # FEED time the server measured over the same sessions
    if one_by_one_feeds["count"] - feed_server["count"] < HISTOGRAM_WINDOW:
        out.problems.append("too few one-at-a-time FEEDs for coverage")
    server_p50 = one_by_one_feeds["p50_s"]
    per_feed: Dict[int, float] = {}
    for span in tracer.spans:
        if span.name in SERVER_FEED_LAYERS:
            key = id(span.parent)
            per_feed[key] = per_feed.get(key, 0.0) + span.self_s
    layers_p50 = median(list(per_feed.values()))
    coverage = layers_p50 / server_p50
    low, high = COVERAGE_RANGE
    if not low <= coverage <= high:
        out.problems.append(
            f"the layer table covers {coverage:.1%} of the server's FEED "
            f"time (p50 {layers_p50 * 1e6:.0f} of {server_p50 * 1e6:.0f} "
            f"us), outside {low:.0%}-{high:.0%}"
        )
    put("trace.coverage", coverage, "ratio")
    put("protocol.encode_us",
        tracer.self_total("protocol.encode") / replay.feeds * 1e6, "us")
    put("protocol.assemble_us",
        tracer.self_total("protocol.assemble") / replay.feeds * 1e6, "us")
    put("protocol.reply_us",
        tracer.self_total("protocol.reply") / replay.feeds * 1e6, "us")
    put("protocol.bytes_per_feed", replay.frame_bytes / replay.feeds,
        "bytes")
    put("ingest.text_us_per_record",
        tracer.self_total("ingest.text") / replay.records * 1e6, "us")
    return {
        "session.feed_us_per_record":
            tracer.self_total("session.feed") / replay.records * 1e6,
        "session.snapshot_ms":
            median(tracer.durations("session.snapshot")) * 1e3,
        "session.peak_frontier": replay.peak_frontier,
        "kernels.memo_hits":
            counters.counters.get("localize_step_memo_hits", 0),
        "trace.overhead_us_per_feed":
            tracer.overhead_s(WIRE_SPANS_PER_FEED) * 1e6,
        "detail": {
            "server_feed_p50_us": server_p50 * 1e6,
            "layers_feed_p50_us": layers_p50 * 1e6,
            "server_feeds": one_by_one_feeds["count"] - feed_server["count"],
            "replay_feeds": replay.feeds,
            "layer_self_s": {
                name: tracer.self_total(name)
                for name in sorted({s.name for s in tracer.spans})
            },
        },
    }


def embedded_layers(ctx, pool, seconds: float, out) -> Dict:
    """embedded-cold's own layers, from the traced embedded host."""
    from run import check_embedded, embedded_child, write_pool

    host = embedded_child(write_pool(pool), seconds=seconds, trace=True)
    mismatches = check_embedded(ctx, pool, [host])
    out.attempted += host["requests"]
    out.failed += mismatches
    if mismatches:
        out.problems.append(f"{mismatches} result(s) differ from the oracle")
    return host["layers"]


# ----------------------------------------------------------------------
# layers off both workloads' paths
def store_layers(ctx, captures, out) -> None:
    """``SessionStore`` on the captures' FEEDs, as a durable server logs
    them (fsync always), then ``recover_directory`` on a copy of the
    store as a crash leaves it."""
    from repro.selection.localization import PathLocalizer
    from repro.store import SessionStore, recover_directory

    fingerprint = PathLocalizer(ctx.interleaved, ctx.traced).fingerprint()
    tracer = Tracer()
    store_dir = fresh_dir("replay-store")
    killed = WORK / "replay-store-killed"
    store = SessionStore(store_dir, fsync="always")
    store.open()
    records = 0
    try:
        for n, capture in enumerate(captures):
            sid = f"s{n}"
            store.log_open(sid, MODE, "text")
            for index, chunk in enumerate(capture.chunks):
                tracer.span("wal.append", store.log_feed, sid, index, chunk,
                            index == len(capture.chunks) - 1)
            records += len(capture.records)
            store.log_close(sid)
            if store.should_snapshot():
                tracer.span("store.snapshot", store.write_snapshot,
                            [], fingerprint, ctx.name, MODE, n)
        shutil.rmtree(killed, ignore_errors=True)
        shutil.copytree(store_dir, killed)
        # a drained server writes a final checkpoint too
        tracer.span("store.snapshot", store.write_snapshot,
                    [], fingerprint, ctx.name, MODE, len(captures))
    finally:
        store.close()
    appends = tracer.durations("wal.append")
    store_stats = store.stats()
    put = out.put
    put("wal.append_ms_p50", median(appends) * 1e3, "ms")
    put("wal.append_ms_p99", percentile(appends, 0.99) * 1e3, "ms")
    put("wal.bytes_per_record", store_stats["wal_bytes_appended"] / records,
        "bytes")
    put("wal.fsyncs", store_stats["wal_fsyncs"], "count")
    put("snapshot.write_ms",
        median(tracer.durations("store.snapshot")) * 1e3, "ms")
    started = perf_counter()
    recovered = recover_directory(killed)
    put("recovery.replay_s", perf_counter() - started, "s")
    put("recovery.replay_records", recovered.replay_records, "count")


def compress_layers(ctx, captures, out) -> None:
    """Compressed ingest and the compression of the captures."""
    from repro.compress.encoder import uncompressed_capture_bits
    from repro.stream.ingest import CompressedTraceIngester

    records = 0
    started = perf_counter()
    for capture in captures:
        ingester = CompressedTraceIngester(ctx.catalog)
        records += len(ingester.feed(capture.ctrace)) + len(ingester.close())
    out.put("ingest.ctrace_us_per_record",
            (perf_counter() - started) / records * 1e6, "us")
    bits = [len(c.ctrace) * 8 for c in captures]
    raw = [uncompressed_capture_bits(c.records) for c in captures]
    out.put("compress.bits_per_record",
            sum(bits) / sum(len(c.records) for c in captures), "bits")
    out.put("compress.ratio", sum(raw) / sum(bits), "ratio")


def window_layers(ctx, captures, out) -> None:
    """``PathLocalizer.window_count`` on two captures, then on both
    again (answered from the window memo)."""
    from repro import perf
    from repro.selection.localization import PathLocalizer

    localizer = PathLocalizer(ctx.interleaved, ctx.traced)
    windows = [tuple(r.message for r in c.records) for c in captures[:2]]
    cold = []
    with perf.collect() as counters:
        for window in windows:
            started = perf_counter()
            localizer.window_count(window)
            cold.append(perf_counter() - started)
        for window in windows:
            localizer.window_count(window)
    out.put("localize.window_count_ms", median(cold) * 1e3, "ms")
    out.put("localize.window_memo_hits",
            counters.counters.get("localize_window_memo_hits", 0), "count")


# ----------------------------------------------------------------------
# set-up probe (runs in a fresh interpreter)
def probe() -> Dict[str, float]:
    """Time the set-up components of a host; two managers warm at once,
    as two cold callers of the shared table registry."""
    from common import BUFFER, INSTANCES, SCENARIO
    from repro import perf
    from repro.experiments.common import scenario_selection
    from repro.selection import kernels
    from repro.stream.session import SessionManager

    started = perf_counter()
    bundle = scenario_selection(SCENARIO, instances=INSTANCES,
                                buffer_width=BUFFER)
    selected = perf_counter()
    interleaved = bundle.scenario.interleaved()
    interleaved_at = perf_counter()
    traced = tuple(bundle.with_packing.traced)
    managers = [SessionManager(interleaved, traced) for _ in range(2)]
    barrier = threading.Barrier(len(managers))

    def warm(manager) -> None:
        barrier.wait()
        manager.warm()

    with perf.collect() as counters:
        threads = [threading.Thread(target=warm, args=(m,)) for m in managers]
        warm_start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        warmed = perf_counter()
    registry = kernels.default_registry().stats()
    return {
        "setup.selection_s": selected - started,
        "setup.interleave_s": interleaved_at - selected,
        "setup.warm_s": warmed - warm_start,
        "kernels.table_misses": registry["misses"],
        "kernels.table_bytes": registry["bytes"],
        "kernels.compile_s": counters.timings.get("localize_compile", 0.0),
    }


def run_probe() -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "traced.py"), "--probe"],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
        timeout=170, check=True,
    )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


UNITS = {"session.feed_us_per_record": "us", "session.snapshot_ms": "ms",
         "session.peak_frontier": "count", "kernels.memo_hits": "count",
         "trace.overhead_us_per_feed": "us"}


def run(workload, seed: int, seconds: float):
    from run import Outcome, prepare

    out = Outcome()
    ctx, captures = prepare(seed)
    pool = captures[:POOL]
    with cpus(WIRE_CPUS):
        on_path = wire_layers(ctx, pool, seed, seconds, out)
    out.detail = on_path.pop("detail")
    if not workload.networked:
        on_path = embedded_layers(ctx, pool, seconds * 0.3, out)
    for name, value in on_path.items():
        out.put(name, value, UNITS[name])
    for name, value in run_probe().items():
        out.put(name, value, "s" if name.endswith("_s") else
                "bytes" if name.endswith("bytes") else "count")
    store_layers(ctx, pool[:64], out)
    compress_layers(ctx, pool[:64], out)
    window_layers(ctx, pool, out)
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--probe"]:
        print("usage: traced.py --probe", file=sys.stderr)
        raise SystemExit(2)
    setup_paths()
    import inject

    inject.apply_from_env()
    print(json.dumps(probe()))
