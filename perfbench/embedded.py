"""The embedded-cold host: a fresh interpreter with one
:class:`SessionManager` and no wire, store or service front end.

``THREADS`` threads start at once, each running one session against
cold localization tables, so concurrent cold callers of the table
registry are on the measured path; the first acked feed marks set-up.
With ``--seconds`` > 0 the threads then run sessions back to back
(closed loop) for that long.  A session feeds its capture one record
per ``feed`` call, then snapshots and closes.

With ``--trace`` the host records spans around ``SessionManager.feed``
and ``SessionManager.snapshot`` (``traced.Tracer``) and reports the
per-layer figures of its closed loop instead of latencies.

Usage (``run.py`` launches it)::

    python3 perfbench/embedded.py CAPTURES.json --launched T --seconds S [--trace]

``CAPTURES.json`` is a list of trace-file texts.  It prints one JSON
object: latencies or layer figures, per-capture results and the
process's peak RSS.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import threading
import time

from common import MODE, ROUNDS, median, setup_paths, vm_hwm_mb

THREADS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("captures")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    setup_paths()
    import inject

    inject.apply_from_env()
    from common import context
    from loadgen import windowed_rate
    from repro import perf
    from repro.selection import kernels
    from repro.sim.tracefile import read_trace_file
    from repro.stream.session import SessionLimits, SessionManager
    from traced import Tracer

    ctx = context()
    with open(args.captures, encoding="utf-8") as stream:
        pool = [
            read_trace_file(io.StringIO(text), ctx.catalog)[0]
            for text in json.load(stream)
        ]
    manager = SessionManager(
        ctx.interleaved, ctx.traced, mode=MODE,
        limits=SessionLimits(max_sessions=64),
    )
    tracer = Tracer(enabled=args.trace)
    out = {"feed_s": [[] for _ in range(ROUNDS)],
           "session_s": [[] for _ in range(ROUNDS)],
           "records": 0, "requests": 0, "results": {}}
    lock = threading.Lock()
    barrier = threading.Barrier(THREADS)
    first_ack, window, acks, errors = [], [], [], []
    counter = [0]
    peak_frontier = [0]

    def round_of(at: float) -> int:
        """The round (equal slice of the closed loop) a sample falls in."""
        if not window:
            return 0
        return min(ROUNDS - 1, int((at - window[0]) * ROUNDS / args.seconds))

    def session(stats: dict) -> None:
        with lock:
            index = counter[0] % len(pool)
            counter[0] += 1
        started = time.perf_counter()
        sid = manager.open(mode=MODE)
        previous = started
        for record in pool[index]:
            outcome = tracer.span(
                "session.feed", manager.feed, sid, [record],
                drop_invisible=True,
            )
            done = time.perf_counter()
            if not first_ack:
                with lock:
                    if not first_ack:
                        first_ack.append(time.monotonic())
            stats["records"] += outcome.consumed
            stats["acks"].append((done, outcome.consumed))
            stats["feed_s"][round_of(done)].append(done - previous)
            stats["peak_frontier"] = max(
                stats["peak_frontier"], outcome.frontier_size
            )
            previous = done
        result = tracer.span("session.snapshot", manager.snapshot, sid)
        manager.close(sid)
        stats["results"].setdefault(index, set()).add(
            (result.consistent_paths, result.total_paths)
        )
        done = time.perf_counter()
        stats["session_s"][round_of(done)].append(done - started)
        stats["requests"] += len(pool[index]) + 3

    def worker(which: int) -> None:
        try:
            run_worker(which)
        except BaseException as exc:  # reported, and the host exits 1
            errors.append(f"{type(exc).__name__}: {exc}")
            barrier.abort()
            raise

    def run_worker(which: int) -> None:
        cold = {"feed_s": [[]], "session_s": [[]], "records": 0,
                "requests": 0, "results": {}, "acks": [],
                "peak_frontier": 0}
        barrier.wait()
        session(cold)  # against cold tables, concurrently
        stats = {"feed_s": [[] for _ in range(ROUNDS)],
                 "session_s": [[] for _ in range(ROUNDS)],
                 "records": 0, "requests": 0, "results": dict(cold["results"]),
                 "acks": [], "peak_frontier": 0}
        stats["requests"] += cold["requests"]
        barrier.wait()
        with lock:
            if not window:
                window.append(time.perf_counter())
                # the closed loop's spans only: the cold sessions'
                # compile time is set-up, not a per-record cost
                tracer.spans.clear()
        barrier.wait()
        while time.perf_counter() < window[0] + args.seconds:
            session(stats)
        with lock:
            window.append(time.perf_counter())
            for key in ("feed_s", "session_s"):
                for mine, theirs in zip(out[key], stats[key]):
                    mine += theirs
            for key in ("records", "requests"):
                out[key] += stats[key]
            for key, found in stats["results"].items():
                out["results"].setdefault(str(key), []).extend(
                    list(pair) for pair in found
                )
            acks.extend(stats["acks"])
            peak_frontier[0] = max(peak_frontier[0], stats["peak_frontier"])

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    with perf.collect() as counters:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                errors.append("worker did not finish")
    if errors:
        print(f"embedded host failed: {errors}", file=sys.stderr)
        return 1
    out["setup_s"] = first_ack[0] - args.launched
    if args.seconds:
        out["rates"] = windowed_rate(acks, window[0], window[0] + args.seconds)
    out["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    out["kernels"] = kernels.default_registry().stats()
    if args.trace:
        feeds = tracer.durations("session.feed")
        out["layers"] = {
            "session.feed_us_per_record":
                sum(feeds) / out["records"] * 1e6,
            "session.snapshot_ms":
                median(tracer.durations("session.snapshot")) * 1e3,
            "session.peak_frontier": peak_frontier[0],
            "kernels.memo_hits":
                counters.counters.get("localize_step_memo_hits", 0),
            # one span per feed call
            "trace.overhead_us_per_feed": tracer.overhead_s(1) * 1e6,
        }
        del out["feed_s"], out["session_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
