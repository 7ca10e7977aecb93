"""The transport-free session core of the debug service.

:class:`SessionHost` turns one request payload into one reply payload
and knows nothing of asyncio, sockets or frames.  Two thin shells put
it behind a transport: :class:`~repro.server.server.DebugServer` (TCP)
and :class:`~repro.server.client.InProcessClient` (a direct
:meth:`SessionHost.call`), so a capture is localized by one code path
however it arrives.

* **Sharding** -- a consistent-hash ring (:class:`HashRing`) maps each
  session id onto one :class:`Shard`, whose operations run serialized
  (on the TCP shell's lane thread, or under the shard's lock), so
  per-session ordering needs no per-request locking.
* **Sessions** -- each shard warms its manager's compiled tables at
  construction and keeps per-session ingest state (text parser or
  compressed-trace ingester) with a chunk cursor that makes feeds
  idempotent.
* **Durability** (opt-in via ``ServerConfig.data_dir``) -- each shard
  owns a :class:`repro.store.SessionStore`: feeds are written to a
  CRC-framed WAL *before* they are applied (an acked chunk survives a
  crash), frontier snapshots bound replay, idle eviction spills state
  instead of discarding it, and :meth:`SessionHost.recover` restores
  every session bit-identical to an uninterrupted run.  A failed store
  write degrades the shard to memory-only mode with an alert; a
  session whose feeds keep crashing the apply is quarantined.
"""

from __future__ import annotations

import base64
import bisect
import codecs
import json
import threading
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import perf
from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import (
    ProtocolError,
    SelectionError,
    SessionTableFullError,
    StoreError,
    StoreWriteError,
    StreamError,
)
from repro.runtime.cache import default_cache
from repro.selection import kernels
from repro.server import protocol
from repro.store import wal as wal_mod
from repro.store.inspect import (
    META_FORMAT,
    read_meta,
    shard_directory,
    write_meta,
)
from repro.store.store import SessionStore
from repro.stream.ingest import CompressedTraceIngester, IncrementalTraceParser
from repro.stream.session import SessionLimits, SessionManager

#: Session transports: text trace-file chunks, or framed compressed
#: bitstream chunks (decoded by :class:`CompressedTraceIngester`).
TRANSPORTS = ("text", "ctrace")

#: One reply: ``(response frame type, payload bytes)``.
Reply = Tuple[int, bytes]


@dataclass(frozen=True)
class ServeContext:
    """What the server serves: one usage scenario's analysis context."""

    name: str
    interleaved: InterleavedFlow
    traced: Tuple[Message, ...]
    catalog: Mapping[str, Message]
    mode: str = "prefix"
    max_frontier: Optional[int] = 4096

    @classmethod
    def from_scenario(
        cls,
        number: int,
        instances: int = 1,
        buffer_width: int = 32,
        mode: str = "prefix",
        max_frontier: Optional[int] = 4096,
    ) -> "ServeContext":
        """Build the context for a T2 scenario (cached selection)."""
        from repro.experiments.common import scenario_selection

        bundle = scenario_selection(
            number, instances=instances, buffer_width=buffer_width
        )
        sc = bundle.scenario
        return cls(
            name=sc.name,
            interleaved=sc.interleaved(),
            traced=tuple(bundle.with_packing.traced),
            catalog=dict(sc.catalog.messages),
            mode=mode,
            max_frontier=max_frontier,
        )

    @classmethod
    def from_components(
        cls,
        interleaved: InterleavedFlow,
        traced: Tuple[Message, ...],
        catalog: Optional[Mapping[str, Message]] = None,
        name: str = "custom",
        mode: str = "prefix",
        max_frontier: Optional[int] = 4096,
    ) -> "ServeContext":
        if catalog is None:
            catalog = {m.name: m for m in interleaved.messages}
        return cls(
            name=name,
            interleaved=interleaved,
            traced=tuple(traced),
            catalog=dict(catalog),
            mode=mode,
            max_frontier=max_frontier,
        )


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of one debug service (its core and its TCP
    shell)."""

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    max_sessions: int = 64
    max_queue_depth: int = 64
    max_inflight: int = 32
    max_payload_bytes: int = protocol.DEFAULT_MAX_PAYLOAD
    idle_timeout_s: float = 300.0
    idle_sweep_s: float = 10.0
    retry_after_s: float = 0.05
    metrics_port: Optional[int] = None
    #: Durability (repro.store): a data directory enables the per-shard
    #: write-ahead log + frontier snapshots; ``None`` keeps the server
    #: purely in-memory (the pre-store behavior, bit for bit).
    data_dir: Optional[str] = None
    fsync: str = "interval"
    fsync_interval_s: float = 0.05
    snapshot_every: int = 256
    segment_bytes: int = wal_mod.DEFAULT_SEGMENT_BYTES
    #: Consecutive poisonous feeds (apply-time crashes that are not
    #: ordinary stream errors) a session survives before the server
    #: quarantines it -- retiring it with a structured
    #: ``session-quarantined`` error instead of letting a client retry
    #: a payload that can never succeed.
    quarantine_after: int = 3


class HashRing:
    """Consistent hashing of session ids onto shard indices.

    Each shard owns ``replicas`` points on a 32-bit ring (CRC-32 of a
    shard-replica label -- deterministic across processes and hash
    seeds); a session id lands on the first point at or after its own
    hash.  Adding a shard therefore remaps only ~1/N of the id space,
    and the spread is even without any coordination.
    """

    def __init__(self, shards: int, replicas: int = 32) -> None:
        if shards < 1:
            raise StreamError(f"shards must be >= 1, got {shards}")
        points: List[Tuple[int, int]] = []
        for index in range(shards):
            for replica in range(replicas):
                label = f"shard-{index}#{replica}".encode("ascii")
                points.append((zlib.crc32(label) & 0xFFFFFFFF, index))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, session_id: str) -> int:
        key = zlib.crc32(session_id.encode("utf-8")) & 0xFFFFFFFF
        position = bisect.bisect_left(self._hashes, key)
        if position == len(self._hashes):
            position = 0
        return self._shards[position]


class _ServerSession:
    """Per-session state outside the manager: the ingest pipeline and
    the idempotency cursor (touched only by the owning shard's
    serialized operations)."""

    __slots__ = (
        "session_id", "transport", "parser", "ingester", "decoder",
        "next_chunk", "records", "wire_bytes", "raw_bits", "last_status",
        "observed_length", "frontier_size", "failures",
    )

    def __init__(
        self,
        session_id: str,
        transport: str,
        catalog: Mapping[str, Message],
    ) -> None:
        self.session_id = session_id
        self.transport = transport
        self.parser = IncrementalTraceParser(catalog)
        self.ingester = (
            CompressedTraceIngester(catalog, parser=self.parser)
            if transport == "ctrace"
            else None
        )
        # chunk payloads may split a multi-byte character; decode
        # incrementally so a torn codepoint survives the chunk boundary
        self.decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self.next_chunk = 0
        self.records = 0
        self.wire_bytes = 0
        self.raw_bits = 0
        self.last_status = "active"
        self.observed_length = 0
        self.frontier_size = 0
        #: Consecutive apply-time crashes (poison payloads); reset on
        #: every successful feed, compared against
        #: ``ServerConfig.quarantine_after``.  Deliberately transient:
        #: a restart wipes the strike count, not the session.
        self.failures = 0

    def capture(self, manager_state: dict) -> dict:
        """Merge the manager's durable export with this wrapper's own
        state into one JSON-able snapshot entry."""
        state = dict(manager_state)
        buffered, flag = self.decoder.getstate()
        state.update(
            transport=self.transport,
            next_chunk=self.next_chunk,
            wire_bytes=self.wire_bytes,
            raw_bits=self.raw_bits,
            last_status=self.last_status,
            observed_length=self.observed_length,
            frontier_size=self.frontier_size,
            text_decoder=[
                base64.b64encode(buffered).decode("ascii"), flag
            ],
        )
        if self.transport == "ctrace":
            state["ingester"] = self.ingester.export_state()
        else:
            state["parser"] = self.parser.export_state()
        return state

    @classmethod
    def restore(
        cls, state: dict, catalog: Mapping[str, Message]
    ) -> "_ServerSession":
        """The inverse of :meth:`capture` (the manager side is restored
        separately via :meth:`SessionManager.adopt`)."""
        session = cls(
            str(state["session_id"]),
            str(state.get("transport", "text")),
            catalog,
        )
        session.next_chunk = int(state.get("next_chunk", 0))
        session.records = int(state.get("records", 0))
        session.wire_bytes = int(state.get("wire_bytes", 0))
        session.raw_bits = int(state.get("raw_bits", 0))
        session.last_status = str(state.get("last_status", "active"))
        session.observed_length = int(state.get("observed_length", 0))
        session.frontier_size = int(state.get("frontier_size", 0))
        buffered, flag = state.get("text_decoder", ["", 0])
        session.decoder.setstate(
            (base64.b64decode(buffered), int(flag))
        )
        if session.transport == "ctrace":
            session.ingester.restore_state(state["ingester"])
        else:
            session.parser.restore_state(state["parser"])
        return session


class Shard:
    """One shard: a warmed manager, its session wrappers, and (with a
    data directory) its store."""

    def __init__(
        self, index: int, context: ServeContext, config: ServerConfig
    ) -> None:
        self.index = index
        self.manager = SessionManager(
            context.interleaved,
            context.traced,
            mode=context.mode,
            limits=SessionLimits(
                max_sessions=config.max_sessions,
                max_frontier=context.max_frontier,
                idle_timeout_s=config.idle_timeout_s,
            ),
        )
        # every shard owns a manager over the same scenario; warming at
        # construction resolves the compiled localization tables
        # through the content-addressed registry before any request
        # arrives -- the first shard compiles, every later shard gets
        # the same read-only tables back by fingerprint
        self.manager.warm()
        self.sessions: Dict[str, _ServerSession] = {}
        #: Serializes :meth:`SessionHost.call` on this shard (the TCP
        #: shell serializes through its single lane thread instead).
        self.lock = threading.Lock()
        self.store: Optional[SessionStore] = None
        if config.data_dir is not None:
            self.store = SessionStore(
                shard_directory(config.data_dir, index),
                fsync=config.fsync,
                fsync_interval_s=config.fsync_interval_s,
                snapshot_every=config.snapshot_every,
                segment_bytes=config.segment_bytes,
            )
        #: Set when a physical store write fails: the shard keeps
        #: serving from memory but stops promising durability (and
        #: stops touching the broken store), with an alert raised --
        #: explicit degradation instead of a crash loop.
        self.degraded = False

    @property
    def durable(self) -> bool:
        """Whether this shard still honors the acked-means-durable
        contract (a store is attached and no write has failed)."""
        return self.store is not None and not self.degraded

    def sweep(self) -> Tuple[str, ...]:
        """Evict idle sessions and drop their ingest state (serialized
        with the shard's operations).  With a store attached, evicted
        sessions are spilled -- their full state is parked in the store
        and folded into the next snapshot instead of being lost."""
        spill = None
        if self.durable:
            def spill(manager_state: dict) -> None:
                wrapper = self.sessions.get(manager_state["session_id"])
                if wrapper is not None:
                    self.store.spill(wrapper.capture(manager_state))
        evicted = self.manager.evict_idle(spill=spill)
        live = set(self.manager.session_ids())
        for sid in list(self.sessions):
            if sid not in live:
                del self.sessions[sid]
        return evicted

    def capture_states(self) -> List[dict]:
        """Every live session's durable state, id-sorted (snapshot
        path)."""
        states: List[dict] = []
        for sid in self.manager.session_ids():
            wrapper = self.sessions.get(sid)
            if wrapper is None:  # pragma: no cover - defensive
                continue
            try:
                manager_state = self.manager.export_session(sid)
            except StreamError:  # pragma: no cover - raced retirement
                continue
            states.append(wrapper.capture(manager_state))
        return sorted(states, key=lambda s: s["session_id"])

    def close_all(self) -> int:
        """Retire every remaining session (drain path)."""
        closed = 0
        for sid in self.manager.session_ids():
            try:
                self.manager.close(sid)
                closed += 1
            except StreamError:
                pass
        self.sessions.clear()
        return closed

    def stats(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"shard": self.index}
        payload.update(self.manager.stats())
        payload["degraded"] = self.degraded
        return payload


class SessionHost:
    """Hosts the debug sessions of one scenario, transport-free.

    :meth:`route` decodes a request and returns the shard it belongs
    to plus the operation to run there; a shell runs that operation
    serialized with the shard's other work.  :meth:`call` does both
    under the shard's lock -- the in-process shell.

    The host owns its :attr:`metrics` and binds them to the calling
    thread (:func:`repro.perf.bound`) while it warms its shards and in
    :meth:`call`, so library counters such as the localization kernels'
    land in this host's ``STATS``; the TCP shell binds its lane threads
    and its :meth:`recover` call the same way.
    """

    def __init__(
        self,
        context: ServeContext,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.context = context
        self.config = config if config is not None else ServerConfig()
        self.metrics = perf.Metrics()
        self.metrics.declare(
            (
                "feeds_total", "records_fed_total", "opens_total",
                "closes_total", "protocol_errors_total",
                "compressed_wire_bytes", "compressed_raw_bits",
                "wal_degraded_total", "snapshot_failures_total",
                "sessions_quarantined_total",
            ),
            histograms=("wal_append_s",),
        )
        self.ring = HashRing(self.config.shards)
        with perf.bound(self.metrics):
            self.shards = [
                Shard(i, context, self.config)
                for i in range(self.config.shards)
            ]
        # every shard resolved the same compiled tables by content hash;
        # the fingerprint ties durable state to this exact scenario
        self.fingerprint = (
            self.shards[0].manager.shared_localizer.fingerprint()
        )
        #: Summary of the last :meth:`recover` (empty without a store).
        self.recovery: Dict[str, object] = {}
        #: Structured operational alerts (WAL degradation, snapshot
        #: failures, quarantines) -- newest last, bounded.
        self.alerts: List[Dict[str, object]] = []
        self._session_counter = 0
        self._id_lock = threading.Lock()
        self.metrics.add_collector("store", self.store_stats)
        self.metrics.add_collector("runtime_cache", _runtime_cache_stats)
        self.metrics.add_collector(
            "localize_tables",
            lambda: kernels.default_registry().stats(),
        )

    # -- lookup ----------------------------------------------------------
    def shard_for(self, session_id: str) -> Shard:
        """The shard that hosts *session_id*."""
        return self.shards[self.ring.shard_for(session_id)]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def open_sessions(self) -> int:
        return sum(len(s.manager) for s in self.shards)

    def compression_ratio(self) -> float:
        """Raw capture bits per compressed wire bit over every ctrace
        feed so far (0 before the first)."""
        wire_bytes = self.metrics.get("compressed_wire_bytes")
        raw_bits = self.metrics.get("compressed_raw_bits")
        return round(raw_bits / (wire_bytes * 8), 4) if wire_bytes else 0.0

    def retry_later(self, reason: str) -> Reply:
        """A ``RETRY_LATER`` reply: the request had no effect."""
        return (
            protocol.RETRY_LATER,
            protocol.retry_later_payload(reason, self.config.retry_after_s),
        )

    def protocol_error(self, exc: ProtocolError) -> Reply:
        """The terminal reply to a malformed request or frame."""
        self.metrics.add("protocol_errors_total")
        return protocol.ERROR, protocol.error_payload("protocol", str(exc))

    # -- requests ----------------------------------------------------------
    def call(self, frame_type: int, payload: bytes) -> Reply:
        """Serve one request in this process: route it, then run its
        operation under the shard's lock."""
        reply = self.inline(frame_type)
        if reply is not None:
            return reply
        try:
            shard, op, _is_feed, _deadline_ms = self.route(
                frame_type, payload
            )
        except ProtocolError as exc:
            return self.protocol_error(exc)
        except StreamError as exc:
            return self.retry_later(str(exc))
        with shard.lock, perf.bound(self.metrics):
            try:
                return op()
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                return (
                    protocol.ERROR,
                    protocol.error_payload("internal", str(exc)),
                )

    def inline(self, frame_type: int) -> Optional[Reply]:
        """The reply to a request no shard serves -- an unknown type,
        ``STATS`` or ``PING`` -- or ``None`` for a session request.
        Shells answer these before admission control, so metrics and
        health work even when every shard is saturated."""
        if frame_type not in protocol.REQUEST_TYPES:
            self.metrics.add("protocol_errors_total")
            return (
                protocol.ERROR,
                protocol.error_payload(
                    "bad-request",
                    f"unknown request type {frame_type:#04x}",
                ),
            )
        if frame_type == protocol.STATS:
            return (
                protocol.OK,
                protocol.encode_json(self.metrics.snapshot()),
            )
        if frame_type == protocol.PING:
            return (
                protocol.OK,
                protocol.encode_json(
                    {"version": protocol.PROTOCOL_VERSION,
                     "scenario": self.context.name}
                ),
            )
        return None

    def route(
        self, frame_type: int, payload: bytes
    ) -> Tuple[Shard, Callable[[], Reply], bool, Optional[int]]:
        """Decode one session request into ``(shard, operation,
        is_feed, deadline_ms)``; the operation must run serialized with
        the shard's other work, and ``deadline_ms`` is the request's
        relative deadline (``None`` when the client sent none).

        Raises :class:`ProtocolError` for malformed payloads and
        :class:`StreamError` for global-capacity refusals (answered
        with ``RETRY_LATER``).
        """
        if frame_type == protocol.FEED_CHUNK:
            sid, chunk_index, eof, data, deadline_ms = (
                protocol.decode_feed_payload_ex(payload)
            )
            shard = self.shard_for(sid)
            return (
                shard,
                lambda: self._op_feed(shard, sid, chunk_index, eof, data),
                True,
                deadline_ms,
            )
        body = protocol.decode_json(payload)
        deadline_ms = self._body_deadline(body)
        sid = body.get("session_id")
        opening = frame_type == protocol.OPEN_SESSION
        if sid is None and opening:
            sid = self._generate_session_id()
        if not isinstance(sid, str) or not sid:
            raise ProtocolError("session_id must be a non-empty string")
        shard = self.shard_for(sid)
        if opening:
            mode = body.get("mode")
            transport = body.get("transport", "text")
            if transport not in TRANSPORTS:
                raise ProtocolError(
                    f"unknown transport {transport!r}; choose "
                    f"{' or '.join(TRANSPORTS)}"
                )
            if self.open_sessions() >= self.config.max_sessions:
                raise StreamError("session-table-full")
            op = partial(self._op_open, shard, sid, mode, str(transport))
        elif frame_type == protocol.SNAPSHOT:
            op = partial(self._op_snapshot, shard, sid)
        else:
            op = partial(self._op_close, shard, sid)
        return shard, op, False, deadline_ms

    def _generate_session_id(self) -> str:
        with self._id_lock:
            self._session_counter += 1
            return f"g{self._session_counter:06d}"

    @staticmethod
    def _body_deadline(body: Dict[str, object]) -> Optional[int]:
        """The optional ``deadline_ms`` field of a JSON request body."""
        deadline = body.get("deadline_ms")
        if deadline is None:
            return None
        if not isinstance(deadline, int) or isinstance(deadline, bool):
            raise ProtocolError("deadline_ms must be an integer")
        if not 0 <= deadline <= 0xFFFFFFFF:
            raise ProtocolError(f"deadline {deadline}ms out of range")
        return deadline

    # -- shard operations ----------------------------------------------------
    def _op_open(
        self, shard: Shard, sid: str, mode: Optional[object],
        transport: str,
    ) -> Reply:
        revived = self._revive(shard, sid)
        if revived is None:
            try:
                self._apply_open(shard, sid, mode, transport)
            except SessionTableFullError:
                return self.retry_later("session-table-full")
            except StreamError as exc:
                return (
                    protocol.ERROR,
                    protocol.error_payload("session-exists", str(exc)),
                )
            except SelectionError as exc:
                return (
                    protocol.ERROR,
                    protocol.error_payload("bad-request", str(exc)),
                )
            if shard.durable:
                # logged *after* the apply: a crash in between loses
                # only an un-acked open, which the client retries
                self._wal_append(
                    shard,
                    lambda: shard.store.log_open(
                        sid, shard.manager.session(sid).mode, transport
                    ),
                )
        self.metrics.add("opens_total")
        body: Dict[str, object] = {
            "session_id": sid,
            "shard": shard.index,
            "transport": shard.sessions[sid].transport,
            "mode": shard.manager.session(sid).mode,
        }
        if revived is not None:
            # reopening a spilled session resumes it; next_chunk tells
            # the client where the durable high-watermark is so it
            # replays only the tail
            body.update(resumed=True, next_chunk=revived.next_chunk)
        return protocol.OK, protocol.encode_json(body)

    def _op_feed(
        self, shard: Shard, sid: str, chunk_index: int, eof: bool,
        data: bytes,
    ) -> Reply:
        session = shard.sessions.get(sid)
        if session is None:
            session = self._revive(shard, sid)
        if session is None:
            return self._unknown_session(shard, sid)
        if chunk_index < session.next_chunk:
            # a retransmit of an already-applied chunk (the response
            # was lost); acknowledge without re-feeding
            return self._feed_reply(session, chunk_index, True, 0, 0)
        if chunk_index > session.next_chunk:
            return (
                protocol.ERROR,
                protocol.error_payload(
                    "chunk-gap",
                    f"expected chunk {session.next_chunk}, "
                    f"got {chunk_index}",
                    expected=session.next_chunk,
                ),
            )
        if shard.durable:
            # log-before-apply: once the client sees this chunk's OK,
            # the chunk is on disk.  A crash between the append and the
            # apply is safe -- replay applies it, the un-acked client
            # retransmits, and idempotency answers with a duplicate-ack
            self._wal_append(
                shard,
                lambda: shard.store.log_feed(sid, chunk_index, data, eof),
            )
        try:
            record_count, outcome = self._apply_feed(
                shard, session, chunk_index, eof, data
            )
        except StreamError:
            return self._unknown_session(shard, sid)
        except Exception as exc:  # noqa: BLE001 - poison payload
            return self._poisoned_feed(shard, session, exc)
        session.failures = 0
        self.metrics.add("feeds_total")
        self.metrics.add("records_fed_total", outcome.consumed)
        reply = self._feed_reply(
            session, chunk_index, False, outcome.consumed, record_count
        )
        if shard.durable and shard.store.should_snapshot():
            try:
                self.snapshot_shard(shard)
            except StoreWriteError as exc:
                # a failed checkpoint costs replay time, not data: the
                # WAL still has everything, so alert and keep serving
                self.metrics.add("snapshot_failures_total")
                self._alert(
                    "snapshot-failed",
                    shard=shard.index,
                    reason=str(exc),
                    path=exc.path,
                )
        return reply

    @staticmethod
    def _feed_reply(
        session: _ServerSession, chunk_index: int, duplicate: bool,
        consumed: int, records: int,
    ) -> Reply:
        return (
            protocol.OK,
            protocol.encode_json(
                {
                    "session_id": session.session_id,
                    "chunk_index": chunk_index,
                    "duplicate": duplicate,
                    "consumed": consumed,
                    "records": records,
                    "status": session.last_status,
                    "observed_length": session.observed_length,
                    "frontier_size": session.frontier_size,
                    "next_chunk": session.next_chunk,
                }
            ),
        )

    def _poisoned_feed(
        self, shard: Shard, session: _ServerSession, exc: Exception
    ) -> Reply:
        """Answer a feed whose apply crashed in a way no retry can fix.

        Strikes accumulate per session; past
        ``ServerConfig.quarantine_after`` the session is forcibly
        retired with a terminal ``session-quarantined`` error (logged
        to the WAL so a restart does not resurrect it), because letting
        a client retry a poisonous payload forever is an availability
        bug, not fault tolerance."""
        sid = session.session_id
        session.failures += 1
        if session.failures < self.config.quarantine_after:
            return (
                protocol.ERROR,
                protocol.error_payload(
                    "poison-payload",
                    f"feed to session {sid!r} failed to apply: {exc}",
                    failures=session.failures,
                    quarantine_after=self.config.quarantine_after,
                ),
            )
        try:
            shard.manager.quarantine(sid)
        except StreamError:  # pragma: no cover - raced retirement
            pass
        shard.sessions.pop(sid, None)
        if shard.durable:
            # a WAL close retires the session at replay time too --
            # otherwise recovery would faithfully rebuild the poisoned
            # session and the next feed would re-strike it
            shard.store.drop_spilled(sid)
            self._wal_append(shard, lambda: shard.store.log_close(sid))
        self.metrics.add("sessions_quarantined_total")
        self._alert(
            "session-quarantined",
            shard=shard.index,
            session_id=sid,
            reason=str(exc),
        )
        return (
            protocol.ERROR,
            protocol.error_payload(
                "session-quarantined",
                f"session {sid!r} was quarantined after "
                f"{session.failures} consecutive poisonous feeds "
                f"(last: {exc})",
            ),
        )

    def _op_snapshot(self, shard: Shard, sid: str) -> Reply:
        if sid not in shard.sessions:
            self._revive(shard, sid)
        try:
            result = shard.manager.snapshot(sid)
            session = shard.manager.session(sid)
            status = session.status
            observed = session.localizer.observed_length
        except StreamError:
            return self._unknown_session(shard, sid)
        wrapper = shard.sessions.get(sid)
        return (
            protocol.OK,
            protocol.encode_json(
                {
                    "session_id": sid,
                    "consistent_paths": result.consistent_paths,
                    "total_paths": result.total_paths,
                    "fraction": result.fraction,
                    "status": status,
                    "observed_length": observed,
                    # the chunk cursor lets a client detect a server
                    # that recovered without its acked tail (e.g. the
                    # shard degraded before a crash) and replay it
                    "next_chunk": (
                        wrapper.next_chunk if wrapper is not None else 0
                    ),
                }
            ),
        )

    def _op_close(self, shard: Shard, sid: str) -> Reply:
        if sid not in shard.sessions:
            self._revive(shard, sid)
        wrapper = shard.sessions.get(sid)
        next_chunk = wrapper.next_chunk if wrapper is not None else 0
        try:
            record = shard.manager.close(sid)
        except StreamError:
            return self._unknown_session(shard, sid)
        shard.sessions.pop(sid, None)
        if shard.durable:
            shard.store.drop_spilled(sid)
            self._wal_append(shard, lambda: shard.store.log_close(sid))
        self.metrics.add("closes_total")
        extra = record.extra
        return (
            protocol.OK,
            protocol.encode_json(
                {
                    "session_id": sid,
                    "status": str(extra["status"]),
                    "records": extra["records"],
                    "observed_length": extra["observed_length"],
                    "consistent_paths": extra["consistent_paths"],
                    "total_paths": extra["total_paths"],
                    "fraction": extra["fraction"],
                    "next_chunk": next_chunk,
                }
            ),
        )

    @staticmethod
    def _unknown_session(shard: Shard, sid: str) -> Reply:
        shard.sessions.pop(sid, None)
        return (
            protocol.ERROR,
            protocol.error_payload(
                "unknown-session",
                f"session {sid!r} is not open on this server "
                "(closed, evicted, or lost to a restart)",
            ),
        )

    # -- apply helpers (shared by live ops and WAL replay) -----------------
    def _apply_open(
        self, shard: Shard, sid: str, mode: Optional[object],
        transport: str,
    ) -> None:
        shard.manager.open(sid, mode=mode if mode is None else str(mode))
        shard.sessions[sid] = _ServerSession(
            sid, transport, self.context.catalog
        )

    def _apply_feed(
        self,
        shard: Shard,
        session: _ServerSession,
        chunk_index: int,
        eof: bool,
        data: bytes,
    ):
        """Ingest one chunk and advance the session; returns
        ``(record_count, FeedOutcome)``.  Both live traffic and WAL
        replay run through here -- that sharing is what makes a
        recovered session bit-identical to an uninterrupted one."""
        if session.transport == "ctrace":
            records = list(session.ingester.feed(data))
            if eof:
                records.extend(session.ingester.close())
            session.wire_bytes += len(data)
            self.metrics.add("compressed_wire_bytes", len(data))
            if records:
                from repro.compress.encoder import uncompressed_capture_bits

                added_bits = uncompressed_capture_bits(records)
                session.raw_bits += added_bits
                self.metrics.add("compressed_raw_bits", added_bits)
        else:
            text = session.decoder.decode(data, final=eof)
            records = list(session.parser.feed(text))
            if eof:
                records.extend(session.parser.close())
        outcome = shard.manager.feed(
            session.session_id, records, drop_invisible=True
        )
        session.next_chunk = chunk_index + 1
        session.records += outcome.consumed
        session.last_status = outcome.status
        session.observed_length = outcome.observed_length
        session.frontier_size = outcome.frontier_size
        return len(records), outcome

    # -- durability (repro.store) -------------------------------------------
    def _alert(self, kind: str, **fields: object) -> None:
        """Record one structured operational alert (bounded buffer)."""
        alert: Dict[str, object] = {"kind": kind}
        alert.update(fields)
        self.alerts.append(alert)
        del self.alerts[:-64]

    def _wal_append(
        self, shard: Shard, append: Callable[[], int]
    ) -> Optional[int]:
        """Run one store append; a physical write failure degrades the
        shard (memory-only mode, structured alert, metric) instead of
        killing the request -- returns ``None`` in that case."""
        started = time.perf_counter()
        try:
            lsn = append()
        except StoreWriteError as exc:
            self._degrade_shard(shard, exc)
            return None
        self.metrics.observe("wal_append_s", time.perf_counter() - started)
        return lsn

    def _degrade_shard(self, shard: Shard, exc: StoreWriteError) -> None:
        """Flip a shard into explicit memory-only mode after a store
        write failure.  The shard keeps serving -- every session stays
        live -- but durability promises stop, the health collector
        reports ``degraded``, and an alert records exactly what broke.
        Sticky by design: the WAL never resynchronizes past a torn
        record, so resuming appends after a failure could silently
        strand acked data behind an unreadable tail."""
        if shard.degraded:
            return
        shard.degraded = True
        self.metrics.add("wal_degraded_total")
        self._alert(
            "wal-degraded",
            shard=shard.index,
            reason=str(exc),
            path=exc.path,
            lsn=exc.lsn,
        )

    def _install_state(
        self, shard: Shard, state: dict
    ) -> Optional[_ServerSession]:
        """Adopt one captured session (snapshot entry or spilled state)
        back into the shard; ``None`` when the table is full."""
        sid = str(state["session_id"])
        # spill anything idle first so adopt's internal eviction can
        # never silently drop a session the store should have kept
        shard.sweep()
        try:
            shard.manager.adopt(
                sid,
                mode=state.get("mode"),
                status=str(state.get("status", "active")),
                feeds=int(state.get("feeds", 0)),
                records=int(state.get("records", 0)),
                localizer_state=state.get("localizer"),
            )
        except StreamError:
            return None
        wrapper = _ServerSession.restore(state, self.context.catalog)
        shard.sessions[sid] = wrapper
        return wrapper

    def _revive(self, shard: Shard, sid: str) -> Optional[_ServerSession]:
        """Bring a spilled (evicted-but-durable) session back live."""
        if not shard.durable:
            return None
        state = shard.store.take_spilled(sid)
        if state is None:
            return None
        wrapper = self._install_state(shard, state)
        if wrapper is None:
            shard.store.spill(state)  # table full: park it again
        return wrapper

    def snapshot_shard(self, shard: Shard) -> None:
        """Checkpoint one shard (serialized with its operations)."""
        shard.store.write_snapshot(
            shard.capture_states(),
            fingerprint=self.fingerprint or "",
            scenario=self.context.name,
            mode=self.context.mode,
            session_counter=self._session_counter,
        )

    def close_shard(self, shard: Shard) -> None:
        """Shut one shard down (serialized with its operations).

        A durable shard is checkpointed and its WAL sealed; sessions
        are *not* retired -- they come back on the next start.  A write
        failure here degrades instead of raising: the WAL already holds
        everything an acked request needs, so the next start just
        replays a longer tail.  A memory-only (or degraded -- its store
        cannot be trusted with another write) shard retires its
        sessions."""
        if not shard.durable:
            shard.close_all()
            return
        try:
            try:
                self.snapshot_shard(shard)
            finally:
                shard.store.close()
        except StoreWriteError as exc:
            self._degrade_shard(shard, exc)

    def _note_session_id(self, sid: str) -> None:
        """Keep the generated-id counter past every durable id, so a
        restarted server never re-issues one."""
        if sid.startswith("g") and sid[1:].isdigit():
            self._session_counter = max(
                self._session_counter, int(sid[1:])
            )

    def recover(self) -> None:
        """Rebuild every shard from the data directory: newest valid
        snapshot, then the WAL tail through the same apply path live
        traffic takes.  Refuses state from a different scenario."""
        started = time.perf_counter()
        data_dir = self.config.data_dir
        meta = read_meta(data_dir)
        if meta is None:
            write_meta(
                data_dir,
                {
                    "format": META_FORMAT,
                    "scenario": self.context.name,
                    "mode": self.context.mode,
                    "fingerprint": self.fingerprint,
                    "shards": len(self.shards),
                },
            )
        else:
            if meta.get("fingerprint") not in (None, self.fingerprint):
                raise StoreError(
                    f"data directory {data_dir} belongs to a different "
                    f"scenario (stored fingerprint "
                    f"{meta.get('fingerprint')!r}, serving "
                    f"{self.fingerprint!r})"
                )
            if int(meta.get("shards", len(self.shards))) != len(
                self.shards
            ):
                raise StoreError(
                    f"data directory {data_dir} was written with "
                    f"{meta.get('shards')} shard(s); this server runs "
                    f"{len(self.shards)} -- session routing would break"
                )
        sessions = replayed = 0
        diagnostics: List[str] = []
        for shard in self.shards:
            shard_started = time.perf_counter()
            recovered = shard.store.open()
            diagnostics.extend(recovered.diagnostics)
            snap = recovered.snapshot
            if snap is not None:
                snap_fp = snap.get("fingerprint")
                if snap_fp not in (None, "", self.fingerprint):
                    raise StoreError(
                        f"shard {shard.index} snapshot was taken on a "
                        f"different scenario (fingerprint {snap_fp!r})"
                    )
                self._session_counter = max(
                    self._session_counter,
                    int(snap.get("session_counter", 0)),
                )
                for state in snap.get("sessions", ()):
                    self._note_session_id(str(state["session_id"]))
                    self._install_state(shard, state)
                for sid in shard.store.spilled_ids():
                    self._note_session_id(sid)
            for record in recovered.tail:
                self._replay_record(shard, record)
                replayed += 1
            # what actually came back: live sessions (snapshot +
            # WAL-replayed opens) plus revivable spilled ones
            sessions += len(shard.manager) + len(
                shard.store.spilled_ids()
            )
            shard.store.recovered_sessions = len(shard.manager)
            shard.store.recovered_records = recovered.replay_records
            shard.store.recovery_wall_s = (
                time.perf_counter() - shard_started
            )
        self.recovery = {
            "sessions": sessions,
            "replayed_records": replayed,
            "wall_s": round(time.perf_counter() - started, 6),
            "diagnostics": diagnostics,
        }

    def _replay_record(
        self, shard: Shard, record: wal_mod.WalRecord
    ) -> None:
        """Apply one trusted WAL tail record at recovery time."""
        if record.rec_type == wal_mod.WAL_OPEN:
            body = json.loads(record.payload.decode("utf-8"))
            sid = str(body["session_id"])
            self._note_session_id(sid)
            if sid in shard.sessions:  # pragma: no cover - defensive
                return
            try:
                self._apply_open(
                    shard,
                    sid,
                    body.get("mode"),
                    str(body.get("transport", "text")),
                )
            except (StreamError, SelectionError):  # pragma: no cover
                pass
        elif record.rec_type == wal_mod.WAL_FEED:
            sid, chunk_index, eof, data = protocol.decode_feed_payload(
                record.payload
            )
            session = shard.sessions.get(sid)
            if session is None:
                session = self._revive(shard, sid)
            if session is None or chunk_index != session.next_chunk:
                # orphaned or already-folded feed: nothing to redo
                return
            try:
                self._apply_feed(shard, session, chunk_index, eof, data)
            except Exception:  # noqa: BLE001 - incl. poison payloads
                # a feed that crashed the apply live (and was logged
                # before the crash surfaced) must not crash recovery;
                # the quarantine close that followed it retires the
                # session a few records later in the same tail
                pass
        elif record.rec_type == wal_mod.WAL_CLOSE:
            sid = str(
                json.loads(record.payload.decode("utf-8"))["session_id"]
            )
            if sid in shard.sessions:
                try:
                    shard.manager.close(sid)
                except StreamError:  # pragma: no cover - defensive
                    pass
                shard.sessions.pop(sid, None)
            else:
                shard.store.drop_spilled(sid)

    def store_stats(self) -> Dict[str, object]:
        if self.config.data_dir is None:
            return {"enabled": False}
        per_shard = [
            dict(shard.store.stats(), shard=shard.index)
            for shard in self.shards
            if shard.store is not None
        ]
        totals: Dict[str, object] = {}
        for stats in per_shard:
            for key, value in stats.items():
                if key == "shard" or not isinstance(value, (int, float)):
                    continue
                totals[key] = totals.get(key, 0) + value
        return {
            "enabled": True,
            "data_dir": self.config.data_dir,
            "fsync": self.config.fsync,
            "snapshot_every": self.config.snapshot_every,
            "fingerprint": self.fingerprint,
            "recovery": dict(self.recovery),
            "totals": totals,
            "shards": per_shard,
        }


def _runtime_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the process-wide artifact cache."""
    cache = default_cache()
    stats = cache.stats.as_dict()
    stats["directory"] = str(cache.directory)
    return stats
