"""Networked post-silicon debug service.

The paper's debug loop -- select observable messages, capture a
failing run's trace, localize the failure to a small set of consistent
flow paths -- runs here as a long-lived, shared service: validators
stream trace chunks at a central debug server as runs fail, instead of
shipping whole trace files around.

The pieces:

* :mod:`repro.server.protocol` -- the length-prefixed, versioned,
  CRC-validated binary wire format (the CRC machinery is
  :mod:`repro.compress.framing`'s, shared with on-chip trace frames).
* :mod:`repro.server.core` -- the one session core,
  :class:`SessionHost`: request payload in, reply payload out.  It
  routes sessions by consistent hash onto shards and owns ingest,
  localization, idempotent chunk cursors, durability, quarantine and
  recovery; it knows nothing of sockets.  Each core owns one
  :class:`repro.perf.Metrics`, served on the ``STATS`` frame and over
  HTTP.
* :mod:`repro.server.server` -- the asyncio TCP shell around the core:
  framing, admission control that answers overload with structured
  ``RETRY_LATER`` (never a deadlock, never a dropped accepted
  session), deadlines, one lane thread per shard, idle sweeps, and a
  graceful SIGINT/SIGTERM drain.
* :mod:`repro.server.client` -- the synchronous client: timeouts,
  retry with exponential backoff and jitter, and a streaming feed that
  replays its history if the server loses the session.  Its
  :class:`InProcessClient` is the in-process shell: the same client,
  calling the core directly.
* :mod:`repro.server.loadgen` -- the load generator replaying
  simulator-produced trace files against either shell.

``repro serve``, ``repro loadgen`` and ``repro serve-demo`` (the
in-process shell) are the CLI front ends.
"""

from repro.server.client import (
    CircuitBreaker,
    DebugClient,
    FeedReply,
    InProcessClient,
    RetryPolicy,
    SessionFeed,
)
from repro.server.core import SessionHost
from repro.server.loadgen import LoadTestReport, run_load_test
from repro.server.protocol import (
    FrameAssembler,
    WireFrame,
    encode_frame,
)
from repro.server.server import (
    DebugServer,
    ServeContext,
    ServerConfig,
    ServerThread,
)

__all__ = [
    "CircuitBreaker",
    "DebugClient",
    "DebugServer",
    "FeedReply",
    "FrameAssembler",
    "InProcessClient",
    "LoadTestReport",
    "RetryPolicy",
    "ServeContext",
    "ServerConfig",
    "ServerThread",
    "SessionFeed",
    "SessionHost",
    "WireFrame",
    "encode_frame",
    "run_load_test",
]
