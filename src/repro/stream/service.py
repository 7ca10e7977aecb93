"""Synthetic validator workloads for the streaming service.

Each session of a load test follows one seeded simulated failing run:
:func:`synthetic_session_records` produces its capture, and
:func:`chunked` cuts a record sequence into feed-sized pieces.  The
sessions themselves are hosted by :class:`repro.server.core.
SessionHost` and driven by :func:`repro.server.loadgen.run_load_test`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import StreamError
from repro.sim.engine import TraceRecord, TransactionSimulator
from repro.stream.incremental import Observable

__all__ = ["chunked", "synthetic_session_records"]


def synthetic_session_records(
    interleaved: InterleavedFlow,
    traced: Iterable[Message],
    seed: int,
    scenario_name: str = "stream-demo",
) -> Tuple[TraceRecord, ...]:
    """One simulated failing run's capture: a seeded golden run
    projected onto the traced set (what the buffer would hold)."""
    simulator = TransactionSimulator(interleaved, scenario_name)
    trace = simulator.run(seed=seed)
    return trace.project(tuple(traced))


def chunked(
    records: Sequence[Observable], size: int
) -> List[Tuple[Observable, ...]]:
    """Split *records* into feed-sized chunks (last one may be short)."""
    if size < 1:
        raise StreamError(f"chunk size must be >= 1, got {size}")
    return [
        tuple(records[i : i + size]) for i in range(0, len(records), size)
    ]
