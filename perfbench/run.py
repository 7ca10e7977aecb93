"""The debug service's benchmark: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload end to end and prints its
``end_to_end`` metrics; ``--trace 1`` prints the ``per_layer`` metrics
of the same workload (``traced.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``BENCHMARK.json`` at the repository root lists the gated
workloads and the metrics; ``layers.json`` here records every
workload's shape and which end-to-end metric each layer should move.

Every session's snapshot is checked against the offline
``PathLocalizer.localize`` of its capture in the same mode; a mismatch
fails the run.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    OPEN_RATE,
    OPEN_SHARE,
    POOL,
    ROOT,
    ROUNDS,
    WARM_S,
    WIRE_CPUS,
    WORK,
    WORKLOADS,
    ServerProcess,
    child_env,
    context,
    cpus,
    make_captures,
    median,
    oracle,
    percentile,
    setup_paths,
    write_json,
)

#: Fresh host processes started per run; setup_s is the median over
#: them.
STARTS = 3
#: Generator lateness (p99) above which the load generator, not the
#: server, limited the run -- the run is then invalid.
MAX_LATE_P99_S = 0.02


class Outcome:
    """What a run prints: metrics plus the operation accounting."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.detail: Dict[str, object] = {}
        #: Printed and kept in the run report, not in the result line:
        #: the load generator's lateness and end backlog (run validity),
        #: the session latency and the latency tails.  On a shared
        #: 2-core machine their run-to-run spread on wire-prefix
        #: (0.3-0.6 of the median in ten-seed trials) was past the
        #: largest bound allowed; FEED p50 and the saturated rate held
        #: about 0.2.  The traced run reports client.*_tail_ms.
        self.ungated: Dict[str, Tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def result(self) -> Dict[str, object]:
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def prepare(seed: int):
    """Scenario context (primes the benchmark's runtime cache) and the
    run's captures: the session pool, then one for set-up probes."""
    ctx = context()
    return ctx, make_captures(ctx, seed, POOL + 1)


def expected_results(ctx, captures, used) -> Dict[int, Tuple[int, int]]:
    indices = sorted(set(used))
    return dict(zip(indices, oracle(ctx, [captures[i] for i in indices])))


# ----------------------------------------------------------------------
# wire-prefix
def measure(server, pool, seconds: float, rng):
    """A warm-up closed loop (checked, not timed), then the measured
    traffic: ROUNDS rounds of an open loop followed by a closed loop.
    Returns the warm-up tally and the open and the closed tallies, one
    per round: each statistic is taken per round and then the median
    across rounds, so a stall of the shared machine that hits one or
    two rounds does not decide the run."""
    import loadgen

    warm = loadgen.closed_loop(
        server.host, server.port, pool, WARM_S, first_index=0
    )
    opens, closeds = [], []
    first = warm.sessions
    for _ in range(ROUNDS):
        opens.append(loadgen.open_loop(
            server.host, server.port, pool, OPEN_RATE,
            seconds * OPEN_SHARE / ROUNDS, rng, first_index=first,
        ))
        first += opens[-1].sessions
        closeds.append(loadgen.closed_loop(
            server.host, server.port, pool,
            seconds * (1 - OPEN_SHARE) / ROUNDS, first_index=first,
        ))
        first += closeds[-1].sessions
    return warm, opens, closeds


def round_median(tallies, samples, q: float) -> float:
    """The median over rounds of each round's *q*-quantile."""
    return median([percentile(samples(t), q) for t in tallies])


def run_networked(workload, seed: int, seconds: float) -> Outcome:
    import loadgen
    from repro.server import DebugClient

    out = Outcome()
    ctx, captures = prepare(seed)
    pool, probe = captures[:POOL], captures[POOL]
    rng = random.Random(seed)

    # STARTS fresh launches, each timed to its first acked FEED; the
    # middle one also serves the measured traffic
    setups = []
    for launch in range(STARTS):
        with ServerProcess() as server:
            setups.append(
                loadgen.first_feed(server.host, server.port, probe)
                - server.launched
            )
            if launch == STARTS // 2:
                warm, opens, closeds = measure(server, pool, seconds, rng)
                with DebugClient(server.host, server.port) as client:
                    stats = client.stats()
                rss_mb = server.rss_mb
    tallies = [warm] + opens + closeds

    used = [r[0] for t in tallies for r in t.results]
    expected = expected_results(ctx, pool, used)
    mismatches = sum(loadgen.check_results(t, expected) for t in tallies)
    failures = sum(len(t.failures) for t in tallies)
    retries = sum(t.retries for t in tallies)
    retry_later = int(stats["counters"].get("retry_later_total", 0))
    out.attempted = sum(t.requests for t in tallies)
    out.failed = failures + retries + retry_later + mismatches
    for t in tallies:
        out.problems += t.failures
    if mismatches:
        out.problems.append(f"{mismatches} result(s) differ from the oracle")
    if out.failed:
        out.problems.append(f"{out.failed} failed operation(s)")

    late = [x for t in opens for x in t.late_s]
    late_p99 = percentile(late, 0.99)
    if late_p99 > MAX_LATE_P99_S:
        out.problems.append(
            f"invalid run: the load generator ran late (p99 "
            f"{late_p99 * 1e3:.2f} ms), so it, not the server, set the pace"
        )
    # the median half-second of the closed loops
    rates = [rate for t in closeds for rate in t.rates]
    out.put("setup_s", median(setups), "s")
    out.put("feed_p50_ms",
            round_median(opens, lambda t: t.feed_s, 0.5) * 1e3, "ms")
    out.ungated["feed_tail_ms"] = (round_median(
        opens, lambda t: t.feed_s, workload.feed_tail) * 1e3, "ms")
    out.ungated["session_p50_ms"] = (
        round_median(opens, lambda t: t.session_s, 0.5) * 1e3, "ms")
    out.ungated["session_tail_ms"] = (round_median(
        opens, lambda t: t.session_s, workload.session_tail) * 1e3, "ms")
    out.put("saturated_rec_s", median(rates), "rec/s")
    out.put("peak_rss_mb", rss_mb, "MB")
    # run validity, not speed
    out.ungated["loadgen.late_p99_ms"] = (late_p99 * 1e3, "ms")
    out.ungated["loadgen.backlog_end"] = (
        sum(t.backlog_end for t in opens), "count")
    out.detail = {
        "setup_samples_s": setups,
        "feed_p50_ms_per_round": [
            percentile(t.feed_s, 0.5) * 1e3 for t in opens
        ],
        "saturated_rec_s_per_round": [median(t.rates) for t in closeds],
        "feed_samples_per_round": [len(t.feed_s) for t in opens],
        "session_samples_per_round": [len(t.session_s) for t in opens],
        "closed_loop_records": sum(r for t in closeds for _, r in t.acks),
        "client.retries": retries,
        "server.retry_later": retry_later,
        "mismatches": mismatches,
        "failed_op_frac": out.failed / max(1, out.attempted),
    }
    return out


# ----------------------------------------------------------------------
# embedded-cold
def embedded_child(captures_path, seconds: float = 0.0, trace: bool = False):
    argv = [
        sys.executable, str(BENCH_DIR / "embedded.py"), str(captures_path),
        "--launched", repr(time.monotonic()), "--seconds", repr(seconds),
    ]
    if trace:
        argv.append("--trace")
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
        timeout=170, check=True,
    )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def write_pool(pool) -> Path:
    """The captures as trace-file texts, for an embedded host."""
    path = WORK / "captures.json"
    write_json(path, [c.text for c in pool])
    return path


def check_embedded(ctx, pool, runs) -> int:
    """Mismatches between the embedded hosts' snapshots and the
    offline oracle."""
    expected = dict(enumerate(oracle(ctx, pool)))
    return sum(
        1
        for child in runs
        for key, found in child["results"].items()
        for pair in found
        if tuple(pair) != expected[int(key)]
    )


def run_embedded(workload, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    ctx, captures = prepare(seed)
    pool = captures[:POOL]
    path = write_pool(pool)
    # every child is a fresh host; the last one also runs the measured
    # closed loop
    runs = [embedded_child(path) for _ in range(STARTS - 1)]
    runs.append(embedded_child(path, seconds=seconds))
    measured = runs[-1]

    mismatches = check_embedded(ctx, pool, runs)
    out.attempted = sum(r["requests"] for r in runs)
    out.failed = mismatches
    if mismatches:
        out.problems.append(f"{mismatches} result(s) differ from the oracle")
    out.put("setup_s", median([r["setup_s"] for r in runs]), "s")
    feeds, sessions = measured["feed_s"], measured["session_s"]
    out.put("feed_p50_ms", round_median(feeds, list, 0.5) * 1e3, "ms")
    out.ungated["feed_tail_ms"] = (
        round_median(feeds, list, workload.feed_tail) * 1e3, "ms")
    out.ungated["session_p50_ms"] = (
        round_median(sessions, list, 0.5) * 1e3, "ms")
    out.ungated["session_tail_ms"] = (
        round_median(sessions, list, workload.session_tail) * 1e3, "ms")
    out.put("saturated_rec_s", median(measured["rates"]), "rec/s")
    out.put("peak_rss_mb", max(r["peak_rss_mb"] for r in runs), "MB")
    out.detail = {
        "setup_samples_s": [r["setup_s"] for r in runs],
        "feed_samples_per_round": [len(r) for r in feeds],
        "session_samples_per_round": [len(r) for r in sessions],
        "kernels": measured["kernels"],
        "mismatches": mismatches,
    }
    return out


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_paths()
    # a SIGTERM unwinds like an error, so every server is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import inject

    inject.apply_from_env()
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        import traced

        outcome = traced.run(workload, args.seed, args.seconds)
    elif workload.networked:
        with cpus(WIRE_CPUS):
            outcome = run_networked(workload, args.seed, args.seconds)
    else:
        outcome = run_embedded(workload, args.seed, args.seconds)

    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(outcome.ungated.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit} (not gated)")
    for problem in outcome.problems:
        print(f"{args.workload} PROBLEM: {problem}", file=sys.stderr)
    write_json(
        WORK / f"report-{args.workload}-trace{args.trace}.json",
        {"args": vars(args), "detail": outcome.detail,
         "not_gated": outcome.ungated, "result": outcome.result()},
    )
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
