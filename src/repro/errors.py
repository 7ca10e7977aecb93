"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``
et al.) propagate.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class FlowValidationError(ReproError):
    """A flow definition violates Definition 1 of the paper.

    Raised, for example, when a stop state is also atomic, when a
    transition references an unknown state, or when the transition
    relation contains a cycle (flows must be DAGs).
    """


class IndexingError(ReproError):
    """Two flow instances are not legally indexed (Definition 4)."""


class InterleavingError(ReproError):
    """The interleaving product could not be constructed."""


class SelectionError(ReproError):
    """Message selection failed (e.g. no combination fits the buffer)."""


class TraceBufferError(ReproError):
    """Invalid trace buffer configuration or overflowing write."""


class NetlistError(ReproError):
    """Structural problem in a gate-level circuit definition."""


class SimulationError(ReproError):
    """The transaction-level or gate-level simulation failed."""


class DebugSessionError(ReproError):
    """A post-silicon debugging session was mis-configured."""


class RootCauseError(ReproError):
    """Root-cause catalog inconsistency (unknown message, cause, ...)."""


class ArtifactKeyError(ReproError):
    """A value cannot be canonicalized into a content-addressed key."""


class StreamError(ReproError):
    """The streaming analysis layer was misused (unknown session,
    session table full, service already shut down, ...)."""


class SessionTableFullError(StreamError):
    """A session manager refused an open or adopt because its table is
    at ``max_sessions`` -- back-pressure a client may retry, unlike a
    taken session id."""


class FrontierOverflowError(StreamError):
    """An incremental localizer's DP frontier outgrew its configured
    bound; the session must fall back to batch analysis or widen the
    limit."""


class ProtocolError(ReproError):
    """A debug-service wire frame is malformed (bad magic, unsupported
    version, CRC mismatch, oversized payload, undecodable body)."""


class ServerError(ReproError):
    """The debug server replied with a structured ERROR frame.

    Attributes
    ----------
    code:
        Machine-readable error code (``"unknown-session"``,
        ``"chunk-gap"``, ``"bad-request"``, ...).
    extra:
        Any further structured fields the ERROR body carried (e.g. a
        ``chunk-gap`` reply's ``expected`` chunk index).
    """

    def __init__(
        self, code: str, message: str, extra: Optional[dict] = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = message
        self.extra: dict = dict(extra) if extra else {}


class ServerUnavailableError(ReproError):
    """The client exhausted its retry budget (connection refused/reset
    or RETRY_LATER backpressure) without completing the request."""


class OrchestrationError(ReproError):
    """Parallel task execution failed (timeout, worker crash, ...)."""


class CompressionError(ReproError):
    """Trace-stream encoding or decoding failed (value too wide for its
    dictionary slot, malformed frame, corrupt bitstream, ...)."""


class StoreError(ReproError):
    """The durable session store is unusable (corrupt segment beyond
    the torn tail, snapshot fingerprint mismatch, missing data
    directory, ...)."""


class StoreWriteError(StoreError):
    """A physical write to the store failed (ENOSPC, an I/O error, a
    failed fsync, a torn append).  Distinguishes disk faults from
    logic bugs so the server can degrade the shard explicitly instead
    of crash-looping.

    Attributes
    ----------
    path:
        The segment or snapshot file the write targeted (``None`` when
        the failure happened before a file was chosen).
    lsn:
        The LSN the failed append would have carried (``None`` for
        non-WAL writes such as snapshots).
    """

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        lsn: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.lsn = lsn


class MiningError(ReproError):
    """Flow-specification mining failed (empty corpus, a mined message
    missing from the catalog, no sequence above the support
    threshold, ...)."""
