"""The one metrics plane: exact counters, stage timings, latency
windows, scrape-time collectors and run records.

The hot paths of the library (product construction, coverage bitsets,
the selection knapsack, the localization kernels) report *aggregate*
stage counters -- states expanded, bitset ORs, DP steps, wall time per
stage -- through :func:`add` and :func:`timed`.  An increment lands in

* the :class:`Metrics` *bound* to the calling thread (:func:`bind`,
  :func:`bound`): a debug server binds its own instance on the threads
  that do its work, so kernel and table counters show up in that
  server's ``STATS`` and in no other server's;
* every active :func:`collect` observer.  Observers are process-wide:
  a profiling block also sees increments from threads it did not
  start.

With neither, :func:`add` and :func:`timed` are near-zero-cost no-ops,
so the counters stay in the production code paths permanently.  Every
:class:`Metrics` update takes the instance's one lock, so concurrent
increments are exact.

Usage::

    from repro import perf

    with perf.collect() as counters:
        interleaved = interleave(instances)
        select_messages(interleaved, 32)
    print(counters.format())

A server's :class:`Metrics` also holds latency histograms (exact
lifetime count/sum/max, percentiles over a window of recent samples)
and scrape-time collectors; :meth:`Metrics.snapshot` is what ``STATS``
and ``--metrics-port`` serve.  Finished runs land as :class:`RunRecord`
in a small process-wide ring that ``repro cache stats`` prints.

Localization-kernel counters (reported by :mod:`repro.selection.
kernels` and the dense engine seam in :mod:`repro.selection.
localization`):

* ``localize_kernel_batches`` / ``localize_kernel_symbols`` -- batched
  ``advance_many`` invocations and symbols they consumed;
* ``localize_kernel_edges`` -- product edges touched by the gather/
  scatter kernels (visible step plus closure expansion);
* ``localize_kernel_promotions`` -- steps the int64-overflow guard
  promoted to the exact pure-Python kernels;
* ``localize_step_memo_hits`` / ``localize_step_memo_misses`` -- the
  content-keyed per-step memo shared across sessions;
* ``localize_table_hits`` / ``localize_table_misses`` /
  ``localize_table_waits`` / ``localize_table_compiles`` /
  ``localize_table_bytes`` -- the cross-shard
  :class:`~repro.selection.kernels.TableRegistry`;
* ``localize_table_disk_hits`` / ``localize_table_disk_rejects`` --
  tables the registry loaded from the runtime artifact cache, and
  persisted entries it rejected (checksum or format) and recompiled;
* ``localize_window_memo_hits`` -- reused window-mode count tables;
* ``localize_dp_steps`` -- the reference engine's dict-walk steps
  (kept for before/after comparisons);
* timed stages ``localize_compile`` -- table compilation wall time
  (real compiles only) -- and ``localize_table_load`` -- reading
  persisted tables from the runtime artifact cache.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

#: Sampled at scrape time (see :meth:`Metrics.add_collector`).
Collector = Callable[[], Dict[str, object]]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class _Window:
    """One latency histogram (guarded by its :class:`Metrics` lock)."""

    __slots__ = ("ring", "next", "count", "total", "peak")

    def __init__(self) -> None:
        self.ring: List[float] = []
        self.next = 0
        self.count = 0
        self.total = 0.0
        self.peak = 0.0


class Metrics:
    """Counters, stage timings, latency histograms and collectors
    behind one lock."""

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._window = window
        #: Event counts, e.g. ``interleave_states_expanded``.
        self.counters: Dict[str, int] = {}
        #: Wall seconds per named stage, summed over its entries.
        self.timings: Dict[str, float] = {}
        self._histograms: Dict[str, _Window] = {}
        self._collectors: Dict[str, Collector] = {}

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.timings[stage] = self.timings.get(stage, 0.0) + seconds

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def observe(self, name: str, seconds: float) -> None:
        """Add one observation to latency histogram *name*."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Window()
            hist.count += 1
            hist.total += seconds
            if seconds > hist.peak:
                hist.peak = seconds
            if len(hist.ring) < self._window:
                hist.ring.append(seconds)
            else:
                hist.ring[hist.next] = seconds
                hist.next = (hist.next + 1) % self._window

    def declare(
        self, counters: Iterable[str] = (), histograms: Iterable[str] = ()
    ) -> None:
        """Report *counters* (as 0) and *histograms* (empty) in every
        snapshot, before their first event."""
        with self._lock:
            for name in counters:
                self.counters.setdefault(name, 0)
            for name in histograms:
                self._histograms.setdefault(name, _Window())

    def add_collector(self, name: str, collector: Collector) -> None:
        """Register *collector*; its dict lands under key *name* in
        every :meth:`snapshot` (errors surface as ``{"error": ...}``
        instead of failing the scrape)."""
        with self._lock:
            self._collectors[name] = collector

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            counters = sorted(self.counters.items())
            timings = sorted(self.timings.items())
        return {
            "counters": dict(counters),
            "wall_s": {stage: round(seconds, 6) for stage, seconds in timings},
        }

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready view: counters, stage timings, histogram
        summaries and every collector's dict."""
        payload = self.as_dict()
        with self._lock:
            windows = [
                (name, list(h.ring), h.count, h.total, h.peak)
                for name, h in sorted(self._histograms.items())
            ]
            collectors = sorted(self._collectors.items())
        payload["histograms"] = {
            name: _summary(sorted(ring), count, total, peak)
            for name, ring, count, total, peak in windows
        }
        for name, collector in collectors:
            try:
                payload[name] = collector()
            except Exception as exc:  # scrape must never take the
                payload[name] = {"error": str(exc)}  # service down
        return payload

    def format(self) -> str:
        """Human-readable two-column table (for the CLI)."""
        with self._lock:
            counters = sorted(self.counters.items())
            timings = sorted(self.timings.items())
        width = max((len(name) for name, _ in counters + timings), default=0)
        return "\n".join(
            [f"{name:<{width}}  {count:>14,}" for name, count in counters]
            + [f"{name:<{width}}  {secs:>13.4f}s" for name, secs in timings]
        )


def _summary(
    retained: List[float], count: int, total: float, peak: float
) -> Dict[str, float]:
    return {
        "count": count,
        "sum_s": round(total, 6),
        "mean_s": round(total / count, 6) if count else 0.0,
        "p50_s": round(percentile(retained, 0.50), 6),
        "p95_s": round(percentile(retained, 0.95), 6),
        "p99_s": round(percentile(retained, 0.99), 6),
        "max_s": round(peak, 6),
        "window": len(retained),
    }


class _Binding(threading.local):
    metrics: Optional[Metrics] = None


_binding = _Binding()

#: Active :func:`collect` observers.  Replaced whole, never mutated, so
#: :func:`add` iterates a stable tuple without taking a lock.
_observers: Tuple[Metrics, ...] = ()
_observers_lock = threading.Lock()


def bind(metrics: Optional[Metrics]) -> Optional[Metrics]:
    """Send the calling thread's library counters to *metrics* (``None``
    unbinds) and return the previous binding.  Fits a thread pool's
    ``initializer``."""
    previous = _binding.metrics
    _binding.metrics = metrics
    return previous


@contextmanager
def bound(metrics: Metrics) -> Iterator[Metrics]:
    """:func:`bind` *metrics* to the calling thread for the block."""
    previous = bind(metrics)
    try:
        yield metrics
    finally:
        bind(previous)


def enabled() -> bool:
    """Whether an increment here would land anywhere (for guarding
    costly summaries)."""
    return bool(_observers) or _binding.metrics is not None


def add(name: str, amount: int = 1) -> None:
    """Increment counter *name* in the thread's bound :class:`Metrics`
    and in every active collection (no-op when there are none)."""
    target = _binding.metrics
    if target is not None:
        target.add(name, amount)
    for observer in _observers:
        observer.add(name, amount)


@contextmanager
def collect() -> Iterator[Metrics]:
    """Observe every increment in the process, from any thread, for
    the block.  Collections nest: each sees all increments made while
    it is active."""
    global _observers
    observer = Metrics()
    with _observers_lock:
        _observers = _observers + (observer,)
    try:
        yield observer
    finally:
        with _observers_lock:
            _observers = tuple(o for o in _observers if o is not observer)


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Time the block and add it to stage *stage* wherever :func:`add`
    would count.  With nowhere to count, nothing is timed."""
    target = _binding.metrics
    if target is None and not _observers:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if target is not None:
            target.add_time(stage, elapsed)
        for observer in _observers:
            observer.add_time(stage, elapsed)


# ----------------------------------------------------------------------
# run records

#: How many recent run records the process keeps.
HISTORY = 64


@dataclass
class RunRecord:
    """What one finished run did: how wide, how long, how many tasks
    failed, and what the artifact cache did for it."""

    name: str
    jobs: int = 1
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_failed: int = 0
    wall_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    started_at: float = field(default_factory=time.time)
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["wall_time_s"] = round(self.wall_time_s, 6)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


_RECORDS: Deque[RunRecord] = deque(maxlen=HISTORY)


def record_run(record: RunRecord) -> RunRecord:
    """Append *record* to the process history and return it."""
    _RECORDS.append(record)
    return record


def recent_runs(
    limit: Optional[int] = None, name_prefix: Optional[str] = None
) -> List[RunRecord]:
    """Most recent records, oldest first.

    *name_prefix* keeps only records whose ``name`` starts with it --
    e.g. ``name_prefix="stream:"`` isolates per-session streaming
    records from table-regeneration runs sharing the ring buffer.
    """
    records = list(_RECORDS)
    if name_prefix is not None:
        records = [r for r in records if r.name.startswith(name_prefix)]
    if limit is not None:
        records = records[-limit:]
    return records


def clear_runs() -> None:
    _RECORDS.clear()
