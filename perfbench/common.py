"""Shared pieces of the service benchmark: paths, the workload table,
seeded captures, the offline result oracle, server processes, and the
statistics every workload reports.

Everything here drives the system from outside: captures are rendered
before timing starts, servers are ``repro serve`` subprocesses, and
results are checked against ``PathLocalizer.localize`` of the same
capture in the same mode.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import select
import signal
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CACHE = WORK / "runtime-cache"

#: Every workload serves scenario 3 with two instances per flow at a
#: 32-bit trace buffer, on two shards, sized for a 2-core machine.
SCENARIO = 3
INSTANCES = 2
BUFFER = 32
SHARDS = 2
#: Connections (load-generator threads) in the closed loop; the open
#: loop uses ``OPEN_CONNECTIONS``, so its FEEDs never queue behind
#: another connection's requests.
CONNECTIONS = 2
OPEN_CONNECTIONS = 1
SCENARIO_NAME = "perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    networked: bool  # served by ``repro serve``, or hosted in process
    feed_tail: float  # fixed tail percentile for FEED latency
    session_tail: float  # fixed tail percentile for session latency


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wire-prefix", True, 0.99, 0.9),
        Workload("embedded-cold", False, 0.99, 0.99),
    )
}

#: Both workloads localize in prefix mode, one record per FEED.
MODE = "prefix"
#: Captures per run; sessions cycle through them.
POOL = 256
#: wire-prefix's open loop: Poisson session arrivals per second, and
#: the share of --seconds it takes (the closed loop takes the rest).
OPEN_RATE = 30.0
OPEN_SHARE = 0.6
#: The measured traffic is cut into this many rounds; a statistic is
#: the median of its per-round values.
ROUNDS = 5
#: wire-prefix runs a closed loop this long on the measured server
#: before timing (about one pass over the captures), so the rounds
#: measure a server whose step memo and caches are warm.
WARM_S = 3.0


#: A networked run keeps the load generator and the server on one CPU.
#: A FEED round trip is then a pair of context switches on that CPU;
#: split across two CPUs it also waits for the idle one to wake.  On a
#: shared 2-core host, with the server on the other CPU, FEED p50 and
#: the saturated rate spread 0.26-0.36 of the median over ten seeds;
#: on one CPU, with the one-connection open loop and the warm-up, 0.09.
WIRE_CPUS = {sorted(os.sched_getaffinity(0))[0]}


@contextlib.contextmanager
def cpus(allowed):
    """Run the block (and any process it starts) on *allowed* CPUs."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, allowed)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def setup_paths() -> None:
    """Make ``repro`` importable from the checkout; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_CACHE_DIR"] = str(CACHE)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(CACHE)
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of *pid* in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# captures and the offline oracle
@dataclass(frozen=True)
class Capture:
    """One simulated failing run, rendered for every transport."""

    records: tuple  # TraceRecords, projected onto the traced set
    text: str  # the Figure-4 trace file
    chunks: Tuple[bytes, ...]  # text wire chunks: header, then 1 record each
    ctrace: bytes  # repro.compress bitstream of the same records (the
    # traced run measures compressed ingest on it, off the workloads' path)


def context():
    from repro.server import ServeContext

    return ServeContext.from_scenario(
        SCENARIO, instances=INSTANCES, buffer_width=BUFFER, mode=MODE
    )


def make_captures(ctx, seed: int, count: int) -> List[Capture]:
    """*count* distinct captures derived from *seed* (same seed, same
    bytes)."""
    from repro.compress import encode_records
    from repro.sim.tracefile import write_trace_file
    from repro.stream.service import synthetic_session_records

    captures = []
    for i in range(count):
        sim_seed = seed * 100_003 + i
        records = synthetic_session_records(
            ctx.interleaved, ctx.traced, sim_seed, SCENARIO_NAME
        )
        buffer = io.StringIO()
        write_trace_file(buffer, records, scenario=SCENARIO_NAME, seed=sim_seed)
        text = buffer.getvalue()
        chunks = tuple(
            line.encode("utf-8") for line in text.splitlines(keepends=True)
        )
        encoded = encode_records(
            records, scenario=SCENARIO_NAME, seed=sim_seed, traced=ctx.traced
        )
        captures.append(Capture(records, text, chunks, encoded.data))
    return captures


def oracle(ctx, captures: Sequence[Capture]) -> List[Tuple[int, int]]:
    """Offline ``(consistent_paths, total_paths)`` of every capture."""
    from repro.selection.localization import PathLocalizer

    localizer = PathLocalizer(ctx.interleaved, ctx.traced)
    results = []
    for capture in captures:
        result = localizer.localize(
            [r.message for r in capture.records], mode=MODE
        )
        results.append((result.consistent_paths, result.total_paths))
    return results


# ----------------------------------------------------------------------
# server processes
class ServerProcess:
    """``repro serve`` in a subprocess (through ``serve.py``, which can
    inject a layer delay for the benchmark's self-test)."""

    def __init__(self) -> None:
        argv = [
            sys.executable, str(BENCH_DIR / "serve.py"), "serve",
            "--scenario", str(SCENARIO), "--instances", str(INSTANCES),
            "--buffer", str(BUFFER), "--mode", MODE,
            "--shards", str(SHARDS), "--port", "0",
        ]
        WORK.mkdir(parents=True, exist_ok=True)
        self._log = open(WORK / "server.log", "ab")
        self.launched = time.perf_counter()
        with cpus(WIRE_CPUS):  # the server inherits the mask
            self.proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=self._log,
                env=child_env(),
                cwd=str(ROOT),
            )
        self.host, self.port = self._await_listening(timeout=120.0)

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        pending = b""
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            data = os.read(stdout.fileno(), 4096)
            if not data:
                break
            pending += data
            for line in pending.decode("utf-8", "replace").splitlines():
                if "listening on " in line:
                    address = line.split("listening on ", 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
        self.stop()
        raise RuntimeError("server did not start listening")

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
