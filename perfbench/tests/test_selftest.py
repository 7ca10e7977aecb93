"""The benchmark's self-test: an injected single-layer slowdown must be
caught where the layer table predicts, and only there.

The injected layer is text ingest: ``IncrementalTraceParser.feed``
sleeps 2 ms per call (about 2x the ~1 ms FEED it sits in).  The
predictions, written down before measuring:

* ``ingest.text_us_per_record`` (traced run) rises by at least 1.5 ms;
* ``feed_p50_ms`` on ``wire-prefix``, which parses every FEED, rises by
  at least 1.5 ms;
* ``feed_p50_ms`` on ``embedded-cold``, which feeds records and never
  parses text on its path, stays within 30 %.

A second case slows only the server, in a step of its FEED that the
traced run's replay does not reproduce (``Counter.inc``, twice per
FEED): the coverage check must then fail the traced run.

Each case runs the real benchmark in a subprocess, short (3 s), so the
whole file takes a few minutes::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DELAY = "repro.stream.ingest:IncrementalTraceParser.feed=0.002"
SERVER_DELAY = "repro.server.metrics:Counter.inc=0.001"


def bench(workload: str, trace: int, **delays: str) -> dict:
    """One benchmark run; *delays* maps ``PERFBENCH_DELAY`` and
    ``PERFBENCH_SERVER_DELAY`` to their specs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env.update(delays)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "3", "--trace", str(trace)],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])
    # the run prints exactly the metrics BENCHMARK.json lists
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        m["name"]: m["unit"]
        for m in listed["per_layer" if trace else "end_to_end"]
    }
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    return result


def values(result: dict) -> dict:
    assert result["correct"], result
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace, workload, metric, min_rise_ms", [
    (1, "wire-prefix", "ingest.text_us_per_record", 1.5),
    (0, "wire-prefix", "feed_p50_ms", 1.5),
])
def test_slowdown_moves_predicted_metric(trace, workload, metric, min_rise_ms):
    base = values(bench(workload, trace))[metric]
    slowed = values(bench(workload, trace, PERFBENCH_DELAY=DELAY))[metric]
    scale = 1e3 if metric.endswith("_us_per_record") else 1.0
    print(f"{workload} {metric}: {base:.4g} -> {slowed:.4g}")
    assert (slowed - base) / scale >= min_rise_ms, (base, slowed)


def test_slowdown_leaves_bypassing_workload_unchanged():
    base = values(bench("embedded-cold", 0))["feed_p50_ms"]
    slowed = values(
        bench("embedded-cold", 0, PERFBENCH_DELAY=DELAY)
    )["feed_p50_ms"]
    print(f"embedded-cold feed_p50_ms: {base:.4g} -> {slowed:.4g}")
    assert abs(slowed - base) <= 0.3 * base, (base, slowed)


def test_coverage_catches_server_work_the_replay_leaves_out():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from traced import COVERAGE_RANGE

    result = bench("wire-prefix", 1, PERFBENCH_SERVER_DELAY=SERVER_DELAY)
    coverage = result["metrics"]["trace.coverage"]["value"]
    print(f"wire-prefix trace.coverage with a slowed server: {coverage:.3f}")
    assert coverage < COVERAGE_RANGE[0]
    assert not result["correct"]
