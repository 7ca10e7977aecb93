"""The asyncio debug server: the TCP shell around the session core.

Architecture::

                    +-- lane 0: queue -> 1-thread executor -+
    TCP conns ------+-- lane 1: queue -> 1-thread executor -+-> SessionHost
     (asyncio)      +-- ...  (one lane per core shard)      -+   (core.py)

:class:`~repro.server.core.SessionHost` owns everything transport-free
-- routing, sessions, ingest, durability, quarantine, recovery.  This
module adds only what a network needs:

* **Framing** -- each connection runs a
  :class:`~repro.server.protocol.FrameAssembler`; requests are decoded
  and routed on the event loop, then the core's operation runs (and
  encodes its reply) on the shard's lane thread, which serializes a
  session's operations without any per-request lock.
* **Admission control** -- the core's global open-session cap, a
  per-shard queue depth cap, a per-connection in-flight cap and the
  request's propagated deadline each answer overload with a structured
  ``RETRY_LATER`` frame, which always means the request had no effect.
* **Idle sweeps and graceful drain** -- a sweeper task retires (or
  spills) idle sessions on each lane; SIGINT/SIGTERM stop the accept
  loop, flush every queued operation's response, then checkpoint
  (durable) or retire the remaining sessions.
* **Metrics** -- the core's one :class:`repro.perf.Metrics`: exact
  request, byte and error counters and request/feed latency
  histograms written on the serving path, the library's kernel and
  table counters from this server's own lane threads, and per-shard,
  health, store and cache figures sampled at scrape time; served over
  the ``STATS`` frame or the plain-HTTP ``--metrics-port`` listener.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro import perf
from repro.errors import ProtocolError, StreamError
from repro.server import protocol
from repro.server.core import Reply, ServeContext, ServerConfig, SessionHost


class _Lane:
    """One shard's serialized work lane: a request queue drained by a
    single-thread executor (owned by the event loop), whose thread
    counts the library's work into the server's metrics."""

    __slots__ = ("queue", "executor")

    def __init__(self, index: int, metrics: perf.Metrics) -> None:
        #: ``(operation, reply future)`` pairs, drained in order.
        self.queue: asyncio.Queue = asyncio.Queue()
        self.executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"repro-shard{index}",
            initializer=perf.bind,
            initargs=(metrics,),
        )


class _Connection:
    """Per-connection bookkeeping (owned by the event loop)."""

    __slots__ = ("writer", "write_lock", "inflight", "assembler")

    def __init__(self, writer: asyncio.StreamWriter, max_payload: int) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight = 0
        self.assembler = protocol.FrameAssembler(max_payload=max_payload)


class DebugServer:
    """The networked post-silicon debug service (one scenario)."""

    def __init__(
        self,
        context: ServeContext,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.context = context
        self.config = config if config is not None else ServerConfig()
        self.core = SessionHost(context, self.config)
        self.metrics = self.core.metrics
        self._lanes: List[_Lane] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._consumers: List[asyncio.Task] = []
        #: In-flight ``_respond`` tasks, each with the reply future it
        #: awaits; a task removes itself when done.
        self._responders: Dict[asyncio.Task, asyncio.Future] = {}
        self._sweeper: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._draining = False
        self._stopped = False
        self._started_at = 0.0
        self.host = self.config.host
        self.port = self.config.port
        self.metrics_port = self.config.metrics_port
        self.metrics.declare(
            (
                "requests_total", "retry_later_total", "error_replies_total",
                "connections_total", "wire_bytes_in", "wire_bytes_out",
                "deadline_exceeded_total",
            ),
            histograms=("feed_latency_s", "request_latency_s"),
        )
        self.metrics.add_collector("server", self._server_stats)
        self.metrics.add_collector("health", self._health)
        self.metrics.add_collector("shards", self._shard_stats)

    def _server_stats(self) -> Dict[str, object]:
        return {
            "scenario": self.context.name,
            "mode": self.context.mode,
            "host": self.host,
            "port": self.port,
            "shards": len(self._lanes),
            "uptime_s": round(
                time.monotonic() - self._started_at
                if self._started_at
                else 0.0,
                3,
            ),
            "draining": self._draining,
            "open_connections": len(self._connections),
            "open_sessions": self.core.open_sessions(),
            "max_sessions": self.config.max_sessions,
            "compression_ratio": self.core.compression_ratio(),
        }

    def _shard_stats(self) -> Dict[str, object]:
        return {
            "shards": [
                dict(shard.stats(), queue_depth=lane.queue.qsize())
                for shard, lane in zip(self.core.shards, self._lanes)
            ]
        }

    def _health(self) -> Dict[str, object]:
        """Readiness summary: ``ok`` serves durably, ``degraded``
        serves with at least one shard in memory-only mode,
        ``draining`` refuses new work."""
        degraded = [s.index for s in self.core.shards if s.degraded]
        if self._draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded_shards": degraded,
            "alerts": [dict(alert) for alert in self.core.alerts],
        }

    @property
    def recovery_info(self) -> Dict[str, object]:
        """Summary of the last start's recovery (empty without a
        store): sessions restored, records replayed, wall time."""
        return dict(self.core.recovery)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Recover durable state, bind, start shard lanes and the
        sweeper; returns the bound ``(host, port)`` (port 0 resolves to
        an ephemeral one)."""
        if self._server is not None:
            raise StreamError("server already started")
        loop = asyncio.get_running_loop()
        if self.config.data_dir is not None:
            with perf.bound(self.metrics):
                self.core.recover()
        self._lanes = [
            _Lane(shard.index, self.metrics) for shard in self.core.shards
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._consumers = [
            loop.create_task(self._consume(lane)) for lane in self._lanes
        ]
        self._sweeper = loop.create_task(self._sweep_loop())
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics,
                self.config.host,
                self.config.metrics_port,
            )
            msock = self._metrics_server.sockets[0].getsockname()
            self.metrics_port = msock[1]
        self._started_at = time.monotonic()
        return self.host, self.port

    async def stop(self, drain: bool = True, abort: bool = False) -> None:
        """Stop serving.

        ``drain=True`` (the graceful path) finishes every queued
        operation, flushes its response, then checkpoints (durable) or
        retires the remaining sessions.  ``abort=True`` simulates a crash:
        connections are torn down immediately and queued work is
        dropped -- the client-retry soak test drives this path.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if abort:
            for connection in list(self._connections):
                transport = connection.writer.transport
                if transport is not None:
                    transport.abort()
        elif drain:
            for lane in self._lanes:
                try:
                    await asyncio.wait_for(lane.queue.join(), timeout=30.0)
                except asyncio.TimeoutError:  # pragma: no cover - defensive
                    pass
        if self._sweeper is not None:
            self._sweeper.cancel()
        for task in self._consumers:
            task.cancel()
        await asyncio.gather(
            *self._consumers,
            *((self._sweeper,) if self._sweeper else ()),
            return_exceptions=True,
        )
        # a reply the cancelled consumers never produced would leave
        # its responder pending forever: cancel those futures, then let
        # every responder finish (or fail) its send
        for future in self._responders.values():
            future.cancel()
        try:
            await asyncio.wait_for(
                asyncio.gather(*self._responders, return_exceptions=True),
                timeout=30.0,
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        if not abort:
            loop = asyncio.get_running_loop()
            for shard, lane in zip(self.core.shards, self._lanes):
                await loop.run_in_executor(
                    lane.executor, self.core.close_shard, shard
                )
        for connection in list(self._connections):
            try:
                connection.writer.close()
            except Exception:  # pragma: no cover - defensive
                pass
        for lane in self._lanes:
            lane.executor.shutdown(wait=True)

    async def run(
        self,
        duration: Optional[float] = None,
        on_ready: Optional[Callable[["DebugServer"], None]] = None,
    ) -> None:
        """Start, serve until SIGINT/SIGTERM (or *duration* seconds),
        then drain gracefully."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        installed: List[signal.Signals] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            if duration is None:
                await stop_event.wait()
            else:
                try:
                    await asyncio.wait_for(stop_event.wait(), duration)
                except asyncio.TimeoutError:
                    pass
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop(drain=True)

    # -- background tasks ----------------------------------------------
    async def _consume(self, lane: _Lane) -> None:
        loop = asyncio.get_running_loop()
        while True:
            fn, future = await lane.queue.get()
            try:
                result = await loop.run_in_executor(lane.executor, fn)
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                result = (
                    protocol.ERROR,
                    protocol.error_payload("internal", str(exc)),
                )
            if not future.cancelled():
                future.set_result(result)
            lane.queue.task_done()

    async def _sweep_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.idle_sweep_s)
            for shard, lane in zip(self.core.shards, self._lanes):
                await loop.run_in_executor(lane.executor, shard.sweep)

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer, self.config.max_payload_bytes)
        self._connections.add(connection)
        self.metrics.add("connections_total")
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self.metrics.add("wire_bytes_in", len(data))
                try:
                    frames = connection.assembler.feed(data)
                except ProtocolError as exc:
                    await self._send(
                        connection, 0, self.core.protocol_error(exc)
                    )
                    break
                for frame in frames:
                    await self._accept_frame(connection, frame)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(connection)
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    async def _accept_frame(
        self, connection: _Connection, frame: protocol.WireFrame
    ) -> None:
        """Admission-check one request and hand it to its shard."""
        self.metrics.add("requests_total")
        # unknown types and metrics/health requests are served inline:
        # they must work even when every shard queue is saturated
        reply = self.core.inline(frame.frame_type)
        if reply is not None:
            await self._send(connection, frame.seq, reply)
            return
        if self._draining:
            await self._retry_later(connection, frame.seq, "draining")
            return
        if connection.inflight >= self.config.max_inflight:
            await self._retry_later(connection, frame.seq, "inflight-cap")
            return
        try:
            shard, op, is_feed, deadline_ms = self.core.route(
                frame.frame_type, frame.payload
            )
        except ProtocolError as exc:
            await self._send(
                connection, frame.seq, self.core.protocol_error(exc)
            )
            return
        except StreamError as exc:
            await self._retry_later(connection, frame.seq, str(exc))
            return
        lane = self._lanes[shard.index]
        if lane.queue.qsize() >= self.config.max_queue_depth:
            await self._retry_later(connection, frame.seq, "queue-full")
            return
        if deadline_ms is not None:
            op = self._guard_deadline(op, deadline_ms)
        connection.inflight += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await lane.queue.put((op, future))
        responder = asyncio.get_running_loop().create_task(
            self._respond(connection, frame.seq, future, is_feed)
        )
        self._responders[responder] = future
        responder.add_done_callback(self._responders.pop)

    async def _respond(
        self,
        connection: _Connection,
        seq: int,
        future: "asyncio.Future",
        is_feed: bool,
    ) -> None:
        started = time.perf_counter()
        try:
            reply = await future
        finally:
            connection.inflight -= 1
        elapsed = time.perf_counter() - started
        self.metrics.observe("request_latency_s", elapsed)
        if is_feed:
            self.metrics.observe("feed_latency_s", elapsed)
        if reply[0] == protocol.ERROR:
            self.metrics.add("error_replies_total")
        await self._send(connection, seq, reply)

    async def _retry_later(
        self, connection: _Connection, seq: int, reason: str
    ) -> None:
        self.metrics.add("retry_later_total")
        await self._send(connection, seq, self.core.retry_later(reason))

    async def _send(
        self, connection: _Connection, seq: int, reply: Reply
    ) -> None:
        data = protocol.encode_frame(
            reply[0], seq, reply[1],
            max_payload=self.config.max_payload_bytes,
        )
        self.metrics.add("wire_bytes_out", len(data))
        async with connection.write_lock:
            try:
                connection.writer.write(data)
                await connection.writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    def _guard_deadline(
        self,
        op: Callable[[], Reply],
        deadline_ms: int,
    ) -> Callable[[], Reply]:
        """Wrap a shard operation so that, by the time the shard's
        lane dequeues it, an already-expired request budget is
        answered with ``RETRY_LATER`` *before* anything is applied --
        the client has given up waiting, so doing the work would break
        the no-effect promise its retransmit relies on."""
        expires_at = time.monotonic() + deadline_ms / 1000.0

        def guarded() -> Reply:
            if time.monotonic() >= expires_at:
                self.metrics.add("deadline_exceeded_total")
                return self.core.retry_later("deadline-exceeded")
            return op()

        return guarded

    # -- metrics plane -------------------------------------------------
    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except Exception:
            writer.close()
            return
        body = json.dumps(
            self.metrics.snapshot(), indent=2, sort_keys=True
        ).encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode("ascii")
            + b"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()


class ServerThread:
    """Runs a :class:`DebugServer` on a background event-loop thread.

    The blocking-world adapter used by tests, ``benchmarks/
    server_bench.py``, and anything else that wants a live server
    without owning an event loop.  ``stop(abort=True)`` simulates a
    crash (connections torn down, queued work dropped) -- the
    client-retry soak test kills and restarts a server this way.
    """

    def __init__(
        self,
        context: ServeContext,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.server = DebugServer(context, config=config)
        self.metrics = self.server.metrics
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._release: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise StreamError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise StreamError("server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._release = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._release.wait()

    def stop(self, drain: bool = True, abort: bool = False) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive() and self._startup_error is None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain, abort=abort), self._loop
            )
            future.result(timeout=60.0)
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._release.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
