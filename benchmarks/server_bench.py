"""Networked debug-service benchmark -- writes ``BENCH_serve.json``.

Runs one load test (:func:`repro.server.loadgen.run_load_test`)
against both shells of the same session core: first a
:class:`~repro.server.core.SessionHost` in this process (the
transport-free leg), then a :class:`~repro.server.server.ServerThread`
over TCP.  Both legs ingest the same seeded trace text through the
same core and client code, so the throughput ratio isolates the cost
of the wire (framing, TCP, the event loop and lane hand-off).  Records
end-to-end records/sec plus p50/p95/p99 feed latency for both legs.

Gates (CI smoke):

* zero protocol errors and zero failed sessions on either leg,
* networked throughput within ``--max-wire-slowdown`` of in-process,
* absolute throughput floor via ``--min-throughput`` and, against a
  committed baseline, ``--check-against``/``--max-slowdown`` -- applied
  to each leg against that leg's baseline records/sec.

Stdlib only::

    PYTHONPATH=src python benchmarks/server_bench.py \
        --sessions 8 --out BENCH_serve.json \
        --check-against benchmarks/BENCH_serve_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--processes", type=int, default=0,
                        help="loadgen worker processes (0 = inline "
                        "threads; keeps CI runners predictable)")
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--chunk", type=int, default=16,
                        help="trace records per wire chunk")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3),
                        default=3,
                        help="scenario 3's larger product graph gives "
                        "each record enough DP weight that the wire "
                        "cost is measured against real work, not "
                        "microsecond no-ops")
    parser.add_argument("--mode",
                        choices=("prefix", "exact", "window"),
                        default="prefix")
    parser.add_argument("--buffer", type=int, default=32)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--min-throughput", type=float, default=50.0,
        help="fail below this many networked records/s (an absolute "
        "sanity floor -- the real load is sub-millisecond per feed)",
    )
    parser.add_argument(
        "--max-wire-slowdown", type=float, default=3.0,
        help="fail when networked throughput falls below in-process "
        "divided by this factor (measured 2.2-2.7x on the default "
        "workload on a shared 2-CPU host, where the load generator's "
        "threads share the server's GIL)",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="baseline BENCH_serve.json to compare throughput to",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=20.0,
        help="fail when either leg's records/s falls below its "
        "baseline divided by this factor",
    )
    args = parser.parse_args(argv)

    from repro.server import (
        ServeContext,
        ServerConfig,
        ServerThread,
        SessionHost,
        run_load_test,
    )

    context = ServeContext.from_scenario(
        args.scenario,
        instances=args.instances,
        buffer_width=args.buffer,
        mode=args.mode,
    )
    config = ServerConfig(
        shards=args.shards, max_sessions=args.sessions + 4
    )

    def leg(target, processes=0):
        return run_load_test(
            target,
            context,
            sessions=args.sessions,
            processes=processes,
            threads=args.threads,
            chunk_records=args.chunk,
            seed=args.seed,
            mode=args.mode,
        )

    # -- in-process shell (no wire) ------------------------------------
    # an untimed first pass fills the process-wide step memo, so
    # neither timed leg pays for the other's first use of it
    leg(SessionHost(context, config))
    in_process = leg(SessionHost(context, config))

    # -- the same sessions over the wire -------------------------------
    thread = ServerThread(context, config)
    host, port = thread.start()
    try:
        networked = leg((host, port), args.processes)
        metrics = thread.metrics.snapshot()
    finally:
        thread.stop()

    legs = {
        "in_process": in_process.as_dict(),
        "networked": networked.as_dict(),
    }
    for summary in legs.values():
        # the per-session fractions array is diagnostic noise in a
        # committed baseline (it bloats every diff); the aggregate
        # percentiles carry the regression signal
        summary.pop("fractions", None)
    local, wire = legs["in_process"], legs["networked"]
    protocol_errors = metrics["counters"]["protocol_errors_total"]
    payload = {
        "scenario": args.scenario,
        "buffer": args.buffer,
        "instances": args.instances,
        "shards": args.shards,
        "sessions": args.sessions,
        "chunk_records": args.chunk,
        "in_process": local,
        "networked": wire,
        "records_per_s": wire["records_per_s"],
        "wire_slowdown": round(
            local["records_per_s"] / wire["records_per_s"], 3
        )
        if wire["records_per_s"]
        else None,
        "protocol_errors": protocol_errors,
        "retry_later_total": metrics["counters"]["retry_later_total"],
        "server_feed_latency": metrics["histograms"]["feed_latency_s"],
    }
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(
        f"wrote {args.out}: networked {payload['records_per_s']} "
        f"records/s vs in-process "
        f"{payload['in_process']['records_per_s']} records/s "
        f"(slowdown {payload['wire_slowdown']}x), "
        f"p95 wire feed {wire['p95_feed_latency_s'] * 1e3:.3f}ms"
    )

    # -- gates ---------------------------------------------------------
    failures = []
    if protocol_errors:
        failures.append(f"{protocol_errors} protocol error(s) on the wire")
    for name, summary in legs.items():
        if summary["failures"]:
            failures.append(
                f"{name} failed sessions: {summary['failures']}"
            )
        if summary["statuses"] != {"closed": args.sessions}:
            failures.append(
                f"{name} session statuses: {summary['statuses']}"
            )
    if wire["records_per_s"] < args.min_throughput:
        failures.append(
            f"networked {wire['records_per_s']} records/s below the "
            f"{args.min_throughput} floor"
        )
    wire_floor = local["records_per_s"] / args.max_wire_slowdown
    if wire["records_per_s"] < wire_floor:
        failures.append(
            f"networked {wire['records_per_s']} records/s below "
            f"1/{args.max_wire_slowdown} of in-process "
            f"{local['records_per_s']}"
        )
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as stream:
            baseline = json.load(stream)
        for name, summary in legs.items():
            reference = baseline[name]["records_per_s"]
            if summary["records_per_s"] < reference / args.max_slowdown:
                failures.append(
                    f"{name} {summary['records_per_s']} records/s below "
                    f"1/{args.max_slowdown} of the baseline {reference}"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
