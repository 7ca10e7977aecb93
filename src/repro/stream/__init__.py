"""Streaming trace analysis: incremental ingestion and online
localization (the service layer over Section 5.2).

- :mod:`repro.stream.ingest` -- chunk-tolerant trace-file parsing with
  structured diagnostics,
- :mod:`repro.stream.incremental` -- the localization DP carried
  across captures,
- :mod:`repro.stream.session` -- per-validator sessions with limits,
  overflow status, idle eviction, and telemetry,
- :mod:`repro.stream.service` -- seeded synthetic validator workloads.

Sessions are hosted by one core, :class:`repro.server.core.
SessionHost`, behind either the TCP server or an in-process client;
``repro stream`` follows a single trace file with this package alone.
"""

from repro.stream.incremental import IncrementalLocalizer
from repro.stream.ingest import (
    CompressedTraceIngester,
    IncrementalTraceParser,
    ParseDiagnostic,
)
from repro.stream.service import chunked, synthetic_session_records
from repro.stream.session import (
    FeedOutcome,
    SessionLimits,
    SessionManager,
    StreamSession,
)

__all__ = [
    "CompressedTraceIngester",
    "IncrementalLocalizer",
    "IncrementalTraceParser",
    "ParseDiagnostic",
    "SessionLimits",
    "SessionManager",
    "StreamSession",
    "FeedOutcome",
    "chunked",
    "synthetic_session_records",
]
