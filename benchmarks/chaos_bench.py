"""Recovery-under-faults benchmark -- writes ``BENCH_chaos.json``.

Boots an in-process :class:`~repro.server.server.ServerThread`, puts a
:class:`~repro.chaos.network.ChaosProxy` in front of it dropping (and
optionally corrupting) a deterministic fraction of request frames, and
drives seeded sessions through retrying clients.  Every session's
converged localization is compared against its offline batch
reference, so the headline gate is *correctness under faults*: zero
acked-chunk loss -- a chunk the client saw acknowledged must be
reflected in the final result, every time.

Gates (CI smoke):

* every session closes and matches its batch reference exactly
  (records, consistent paths, total paths) -- zero acked-chunk loss,
* p95 feed latency under the configured frame-loss rate stays below
  ``--max-p95-ms`` and, against a committed baseline,
  ``--check-against``/``--max-slowdown``.

Stdlib only::

    PYTHONPATH=src python benchmarks/chaos_bench.py \
        --sessions 16 --frame-loss 0.10 --out BENCH_chaos.json \
        --check-against benchmarks/BENCH_chaos_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=16)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--chunk", type=int, default=4,
                        help="trace records per wire chunk (small "
                        "chunks mean many frames, so the loss rate "
                        "actually bites)")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3),
                        default=1)
    parser.add_argument("--mode",
                        choices=("prefix", "exact", "window"),
                        default="prefix")
    parser.add_argument("--buffer", type=int, default=32)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frame-loss", type=float, default=0.10,
                        help="request-frame drop probability at the "
                        "proxy (content-keyed: the retransmit of a "
                        "dropped frame always passes)")
    parser.add_argument("--frame-corrupt", type=float, default=0.02,
                        help="request-frame corruption probability")
    parser.add_argument("--out", default="BENCH_chaos.json")
    parser.add_argument(
        "--max-p95-ms", type=float, default=2000.0,
        help="fail when p95 feed latency (including retransmits of "
        "dropped frames) exceeds this many milliseconds",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="baseline BENCH_chaos.json to compare p95 latency to",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=5.0,
        help="fail when p95 feed latency exceeds the baseline times "
        "this factor",
    )
    args = parser.parse_args(argv)

    from repro.chaos import ChaosProxy, FaultDecider, batch_reference
    from repro.chaos.faults import FaultPlan, FaultSpec
    from repro.perf import percentile
    from repro.server import (
        DebugClient,
        RetryPolicy,
        ServeContext,
        ServerConfig,
        ServerThread,
        SessionFeed,
    )
    from repro.server.loadgen import render_session_chunks

    context = ServeContext.from_scenario(
        args.scenario,
        instances=args.instances,
        buffer_width=args.buffer,
        mode=args.mode,
    )

    # -- seeded sessions and their offline ground truth ----------------
    jobs = {
        f"bench-{args.seed + i:04d}": render_session_chunks(
            context, seed=args.seed + i, chunk_records=args.chunk
        )
        for i in range(args.sessions)
    }
    references = {
        sid: batch_reference(context, chunks, mode=args.mode)
        for sid, chunks in jobs.items()
    }

    # -- server behind a lossy proxy -----------------------------------
    thread = ServerThread(
        context,
        ServerConfig(
            shards=args.shards, max_sessions=args.sessions + 4
        ),
    )
    host, port = thread.start()
    specs = [FaultSpec("network", "drop", args.frame_loss)]
    if args.frame_corrupt:
        specs.append(
            FaultSpec("network", "corrupt", args.frame_corrupt)
        )
    decider = FaultDecider(args.seed, FaultPlan(specs=tuple(specs)))
    proxy = ChaosProxy(host, port, decider)
    proxy.start()

    policy = RetryPolicy(
        max_attempts=10,
        base_delay_s=0.02,
        max_delay_s=0.25,
        timeout_s=0.5,
        breaker_cooldown_s=0.05,
        breaker_max_cooldown_s=0.2,
    )
    lock = threading.Lock()
    latencies = []
    rows = {}
    retries = [0]
    recoveries = [0]
    errors = []

    def drive(sid: str, chunks) -> None:
        try:
            with DebugClient(
                proxy.host, proxy.port, policy=policy
            ) as client:
                feed = SessionFeed(client, session_id=sid)
                local = []
                for i, chunk in enumerate(chunks):
                    start = time.perf_counter()
                    feed.feed(chunk, eof=(i == len(chunks) - 1))
                    local.append(time.perf_counter() - start)
                reply = feed.close()
                with lock:
                    latencies.extend(local)
                    retries[0] += client.retries
                    recoveries[0] += feed.recoveries
                    rows[sid] = {
                        "status": reply.status,
                        "records": reply.records,
                        "consistent_paths":
                            reply.result.consistent_paths,
                        "total_paths": reply.result.total_paths,
                    }
        except Exception as exc:  # noqa: BLE001 - reported as a gate
            with lock:
                errors.append(f"{sid}: {exc!r}")

    wall_start = time.perf_counter()
    workers = [
        threading.Thread(target=drive, args=(sid, chunks), daemon=True)
        for sid, chunks in jobs.items()
    ]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall_s = time.perf_counter() - wall_start
        proxy_stats = proxy.stats()
        metrics = thread.metrics.snapshot()
    finally:
        proxy.stop()
        thread.stop()

    lost = []
    for sid, reference in sorted(references.items()):
        row = rows.get(sid)
        if row is None:
            lost.append(f"{sid}: never closed")
        elif row["status"] != "closed":
            lost.append(f"{sid}: status {row['status']}")
        elif (
            row["records"] != reference["records"]
            or row["consistent_paths"] != reference["consistent_paths"]
            or row["total_paths"] != reference["total_paths"]
        ):
            lost.append(
                f"{sid}: converged {row['records']} records "
                f"({row['consistent_paths']} consistent paths) vs "
                f"reference {reference['records']} "
                f"({reference['consistent_paths']})"
            )

    ordered = sorted(latencies)
    total_records = sum(ref["records"] for ref in references.values())
    p95_ms = round(percentile(ordered, 0.95) * 1e3, 3)
    payload = {
        "scenario": args.scenario,
        "buffer": args.buffer,
        "instances": args.instances,
        "shards": args.shards,
        "sessions": args.sessions,
        "chunk_records": args.chunk,
        "frame_loss": args.frame_loss,
        "frame_corrupt": args.frame_corrupt,
        "wall_s": round(wall_s, 6),
        "records_per_s": round(total_records / wall_s, 3)
        if wall_s
        else None,
        "total_records": total_records,
        "feeds": len(ordered),
        "p50_feed_latency_ms": round(
            percentile(ordered, 0.50) * 1e3, 3
        ),
        "p95_feed_latency_ms": p95_ms,
        "p99_feed_latency_ms": round(
            percentile(ordered, 0.99) * 1e3, 3
        ),
        "max_feed_latency_ms": round(ordered[-1] * 1e3, 3)
        if ordered
        else None,
        "client_retries": retries[0],
        "feed_recoveries": recoveries[0],
        "acked_chunk_loss": len(lost),
        "proxy": {key: proxy_stats[key] for key in sorted(proxy_stats)},
        "faults": decider.stats(),
        "protocol_errors_total":
            metrics["counters"]["protocol_errors_total"],
    }
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(
        f"wrote {args.out}: {args.sessions} sessions under "
        f"{args.frame_loss:.0%} frame loss, "
        f"{payload['client_retries']} retransmit(s), "
        f"p95 feed {p95_ms}ms, acked-chunk loss "
        f"{payload['acked_chunk_loss']}"
    )

    # -- gates ---------------------------------------------------------
    failures = list(errors)
    failures.extend(lost)
    if args.frame_loss and not payload["client_retries"]:
        failures.append(
            "frame loss configured but no client retransmitted: the "
            "fault plane did not engage"
        )
    if p95_ms > args.max_p95_ms:
        failures.append(
            f"p95 feed latency {p95_ms}ms above the "
            f"{args.max_p95_ms}ms ceiling"
        )
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as stream:
            baseline = json.load(stream)
        ceiling = baseline["p95_feed_latency_ms"] * args.max_slowdown
        if p95_ms > ceiling:
            failures.append(
                f"p95 feed latency {p95_ms}ms above "
                f"{args.max_slowdown}x the baseline "
                f"{baseline['p95_feed_latency_ms']}ms"
            )
        if baseline.get("acked_chunk_loss", 0) != 0:
            failures.append(
                "baseline itself records acked-chunk loss: refusing "
                "to compare against a broken reference"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
