"""Durable-store benchmark -- writes ``BENCH_store.json``.

Measures the two costs :mod:`repro.store` adds to the debug service:

* **feed overhead** -- the same seeded networked load
  (:func:`repro.server.loadgen.run_load_test`) runs against an
  in-memory server and against a durable one (write-ahead log with
  ``--fsync interval``, the group-commit default); the headline gate
  is the ratio of p50 feed latencies (``--max-overhead``, default
  1.3x).
* **recovery time** -- a durable server is populated with open
  sessions, killed without warning (the abort path drops everything
  in memory), and restarted on the same data directory; the snapshot +
  WAL-tail recovery wall time is reported normalized per 1k sessions,
  and every session must come back.

Stdlib only::

    PYTHONPATH=src python benchmarks/store_bench.py \
        --out BENCH_store.json \
        --check-against benchmarks/BENCH_store_baseline.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=16,
                        help="concurrent load-test sessions per run")
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--chunk", type=int, default=16,
                        help="trace records per wire chunk")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3),
                        default=3,
                        help="scenario 3's larger product graph gives "
                        "each record real DP weight, so the WAL cost "
                        "is measured against real work")
    parser.add_argument("--mode",
                        choices=("prefix", "exact", "window"),
                        default="prefix")
    parser.add_argument("--buffer", type=int, default=32)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=2,
                        help="measured runs per configuration; the "
                        "one with the lowest p50 wins (scheduler "
                        "noise dwarfs the WAL cost in a single run)")
    parser.add_argument("--fsync",
                        choices=("always", "interval", "off"),
                        default="interval")
    parser.add_argument("--snapshot-every", type=int, default=64)
    parser.add_argument("--recovery-sessions", type=int, default=32,
                        help="open sessions to populate before the "
                        "simulated crash")
    parser.add_argument("--data-dir", default=None,
                        help="data directory (default: a fresh "
                        "temporary one, removed afterwards)")
    parser.add_argument("--out", default="BENCH_store.json")
    parser.add_argument(
        "--max-overhead", type=float, default=1.3,
        help="fail when the durable p50 feed latency exceeds the "
        "in-memory p50 by more than this factor",
    )
    parser.add_argument(
        "--min-throughput", type=float, default=50.0,
        help="fail below this many durable records/s (absolute floor)",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="baseline BENCH_store.json to compare throughput to",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=20.0,
        help="fail when durable records/s falls below baseline "
        "divided by this factor",
    )
    args = parser.parse_args(argv)

    from repro.server import (
        DebugClient,
        ServeContext,
        ServerConfig,
        ServerThread,
    )
    from repro.server.loadgen import render_session_chunks, run_load_test

    context = ServeContext.from_scenario(
        args.scenario,
        instances=args.instances,
        buffer_width=args.buffer,
        mode=args.mode,
    )
    max_sessions = max(args.sessions, args.recovery_sessions) + 4

    def run_once(config: ServerConfig):
        thread = ServerThread(context, config)
        host, port = thread.start()
        try:
            report = run_load_test(
                (host, port),
                context,
                sessions=args.sessions,
                processes=0,
                threads=args.threads,
                chunk_records=args.chunk,
                seed=args.seed,
                mode=args.mode,
            )
            metrics = thread.metrics.snapshot()
        finally:
            thread.stop()
        return report, metrics

    def run_load(config: ServerConfig):
        best = None
        for _ in range(max(1, args.repeats)):
            candidate = run_once(config)
            if (
                best is None
                or candidate[0].p50_feed_latency_s
                < best[0].p50_feed_latency_s
            ):
                best = candidate
        return best

    # -- warm-up (compiled tables, code paths, listener machinery) -----
    # unmeasured: without it the first measured run eats one-time
    # costs and the overhead ratio reads as noise
    run_once(ServerConfig(shards=args.shards, max_sessions=max_sessions))

    # -- in-memory reference -------------------------------------------
    memory_report, memory_metrics = run_load(
        ServerConfig(shards=args.shards, max_sessions=max_sessions)
    )

    # -- the same load, durable ----------------------------------------
    data_dir = args.data_dir
    cleanup = data_dir is None
    if data_dir is None:
        data_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    durable_config = ServerConfig(
        shards=args.shards,
        max_sessions=max_sessions,
        data_dir=data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    try:
        durable_report, durable_metrics = run_load(durable_config)

        # -- crash recovery --------------------------------------------
        thread = ServerThread(context, durable_config)
        host, port = thread.start()
        with DebugClient(host, port) as client:
            for i in range(args.recovery_sessions):
                sid = f"bench-{i:04d}"
                client.open_session(sid, mode=args.mode)
                chunks = render_session_chunks(
                    context, seed=args.seed + i,
                    chunk_records=args.chunk,
                )
                for index, chunk in enumerate(chunks):
                    client.feed(sid, index, chunk)
        thread.stop(abort=True)  # simulated crash: nothing is flushed

        thread = ServerThread(context, durable_config)
        thread.start()
        recovery = thread.server.recovery_info
        recovered_open = thread.metrics.snapshot()["server"]["open_sessions"]
        thread.stop()
    finally:
        if cleanup:
            shutil.rmtree(data_dir, ignore_errors=True)

    store_totals = durable_metrics.get("store", {}).get("totals", {})
    memory_p50 = memory_report.p50_feed_latency_s
    durable_p50 = durable_report.p50_feed_latency_s
    overhead = (durable_p50 / memory_p50) if memory_p50 else None
    recovery_wall = float(recovery.get("wall_s", 0.0))
    per_1k = (
        recovery_wall / args.recovery_sessions * 1000.0
        if args.recovery_sessions
        else 0.0
    )
    memory_wire = memory_report.as_dict()
    durable_wire = durable_report.as_dict()
    for wire in (memory_wire, durable_wire):
        wire.pop("fractions", None)
    payload = {
        "scenario": args.scenario,
        "buffer": args.buffer,
        "instances": args.instances,
        "shards": args.shards,
        "sessions": args.sessions,
        "chunk_records": args.chunk,
        "fsync": args.fsync,
        "snapshot_every": args.snapshot_every,
        "in_memory": memory_wire,
        "durable": durable_wire,
        "records_per_s": durable_wire["records_per_s"],
        "p50_overhead": round(overhead, 4) if overhead else None,
        "wal": {
            "appends": store_totals.get("wal_appends", 0),
            "bytes_appended": store_totals.get("wal_bytes_appended", 0),
            "fsyncs": store_totals.get("wal_fsyncs", 0),
            "snapshots_written": store_totals.get(
                "snapshots_written", 0
            ),
            "append_latency": durable_metrics.get("histograms", {}).get(
                "wal_append_s", {}
            ),
        },
        "recovery": {
            "sessions": args.recovery_sessions,
            "recovered_open_sessions": recovered_open,
            "replayed_records": recovery.get("replayed_records", 0),
            "wall_s": round(recovery_wall, 6),
            "per_1k_sessions_s": round(per_1k, 6),
        },
    }
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(
        f"wrote {args.out}: durable {durable_wire['records_per_s']} "
        f"records/s vs in-memory {memory_wire['records_per_s']} "
        f"records/s; p50 {durable_p50 * 1e3:.3f}ms vs "
        f"{memory_p50 * 1e3:.3f}ms "
        f"(overhead {payload['p50_overhead']}x); recovery of "
        f"{recovered_open} session(s) in {recovery_wall:.4f}s "
        f"({per_1k:.4f}s/1k)"
    )

    # -- gates ---------------------------------------------------------
    failures = []
    for label, wire in (("in-memory", memory_wire),
                        ("durable", durable_wire)):
        if wire["failures"]:
            failures.append(f"{label} failed sessions: {wire['failures']}")
        if wire["statuses"] != {"closed": args.sessions}:
            failures.append(
                f"{label} unexpected statuses: {wire['statuses']}"
            )
    if overhead is not None and overhead > args.max_overhead:
        failures.append(
            f"durable p50 feed latency is {payload['p50_overhead']}x "
            f"the in-memory p50 (limit {args.max_overhead}x)"
        )
    if recovered_open != args.recovery_sessions:
        failures.append(
            f"recovered {recovered_open} of {args.recovery_sessions} "
            "session(s) -- durable sessions were lost"
        )
    if durable_wire["records_per_s"] < args.min_throughput:
        failures.append(
            f"durable {durable_wire['records_per_s']} records/s below "
            f"the {args.min_throughput} floor"
        )
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as stream:
            baseline = json.load(stream)
        floor = baseline["records_per_s"] / args.max_slowdown
        if durable_wire["records_per_s"] < floor:
            failures.append(
                f"durable {durable_wire['records_per_s']} records/s "
                f"below 1/{args.max_slowdown} of the baseline "
                f"{baseline['records_per_s']}"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
