"""End-to-end server tests over the real wire: session lifecycle,
idempotent feeds, admission control under overload, robustness against
malformed frames and mid-chunk disconnects, metrics, and drain."""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import threading
import time
import urllib.request

import pytest

from repro.errors import ServerError, ServerUnavailableError
from repro.server import (
    DebugClient,
    RetryPolicy,
    ServerConfig,
    SessionFeed,
    protocol,
)
from repro.server.loadgen import render_session_chunks
from tests.server.conftest import start_server


def feed_all(client, session_id, chunks):
    replies = []
    for i, chunk in enumerate(chunks):
        replies.append(
            client.feed(
                session_id, i, chunk, eof=(i == len(chunks) - 1)
            )
        )
    return replies


def test_session_lifecycle_over_the_wire(running, client):
    chunks = render_session_chunks(running.context, seed=1, chunk_records=4)
    sid = client.open_session("wire-1")
    assert sid == "wire-1"
    replies = feed_all(client, sid, chunks)
    assert all(not r.duplicate for r in replies)
    fed = sum(r.consumed for r in replies)
    assert fed > 0
    snap = client.snapshot(sid)
    assert snap.observed_length == fed
    assert 0 < snap.result.consistent_paths <= snap.result.total_paths
    close = client.close_session(sid)
    assert close.status == "closed"
    assert close.records == fed
    assert close.result == snap.result


def test_generated_session_ids_are_unique(running, client):
    first = client.open_session()
    second = client.open_session()
    assert first != second
    client.close_session(first)
    client.close_session(second)


def test_duplicate_open_is_an_error(running, client):
    client.open_session("dup")
    with pytest.raises(ServerError) as excinfo:
        client.open_session("dup")
    assert excinfo.value.code == "session-exists"


def test_unknown_session_operations_fail_structurally(running, client):
    for operation in (
        lambda: client.feed("ghost", 0, b"x"),
        lambda: client.snapshot("ghost"),
        lambda: client.close_session("ghost"),
    ):
        with pytest.raises(ServerError) as excinfo:
            operation()
        assert excinfo.value.code == "unknown-session"


def test_duplicate_chunk_is_acknowledged_not_reapplied(running, client):
    chunks = render_session_chunks(running.context, seed=2, chunk_records=4)
    sid = client.open_session("idem")
    first = client.feed(sid, 0, chunks[0])
    replay = client.feed(sid, 0, chunks[0])  # retransmit
    assert replay.duplicate
    assert replay.consumed == 0
    assert replay.observed_length == first.observed_length
    snap = client.snapshot(sid)
    assert snap.observed_length == first.observed_length


def test_chunk_gap_is_rejected(running, client):
    chunks = render_session_chunks(running.context, seed=2, chunk_records=4)
    sid = client.open_session("gap")
    client.feed(sid, 0, chunks[0])
    with pytest.raises(ServerError) as excinfo:
        client.feed(sid, 5, chunks[1])
    assert excinfo.value.code == "chunk-gap"


def test_bad_transport_rejected(running, client):
    with pytest.raises(ServerError) as excinfo:
        client.open_session("bad", transport="carrier-pigeon")
    assert excinfo.value.code == "protocol"


def test_ping_and_stats(running, client):
    pong = client.ping()
    assert pong["version"] == protocol.PROTOCOL_VERSION
    assert pong["scenario"] == "cc-test"
    sid = client.open_session("stats")
    chunks = render_session_chunks(running.context, seed=0, chunk_records=4)
    client.feed(sid, 0, chunks[0])
    stats = client.stats()
    counters = stats["counters"]
    assert counters["opens_total"] >= 1
    assert counters["feeds_total"] >= 1
    assert stats["server"]["open_sessions"] >= 1
    assert "shards" in stats and "runtime_cache" in stats
    # the lane thread counts the localization engine's work here
    assert (
        counters.get("localize_kernel_batches", 0)
        + counters.get("localize_dp_steps", 0)
    ) > 0
    client.close_session(sid)


def test_session_routing_is_deterministic(running, client):
    # the same id always lands on the same shard (consistent hashing)
    sid = client.open_session("routed")
    shard = running.server.core.shard_for(sid)
    for _ in range(3):
        assert running.server.core.shard_for(sid) is shard
    client.close_session(sid)


# ----------------------------------------------------------------------
# admission control
def test_session_table_full_returns_retry_later(context):
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=1)
    )
    try:
        with DebugClient(handle.host, handle.port) as holder:
            holder.open_session("occupier")
            fast = RetryPolicy(max_attempts=3, base_delay_s=0.01)
            with DebugClient(
                handle.host, handle.port, policy=fast
            ) as second:
                with pytest.raises(ServerUnavailableError, match="RETRY"):
                    second.open_session("blocked")
                assert second.retries == 2
            assert (
                handle.metrics.get("retry_later_total") >= 3
            )
            # capacity freed -> the same open converges
            holder.close_session("occupier")
            with DebugClient(handle.host, handle.port) as third:
                assert third.open_session("blocked") == "blocked"
    finally:
        handle.thread.stop()


def test_stats_served_even_when_saturated(context):
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=0)
    )
    try:
        with DebugClient(handle.host, handle.port) as client:
            # no session can be admitted, but the metrics plane answers
            assert "counters" in client.stats()
            assert client.ping()["scenario"] == "cc-test"
    finally:
        handle.thread.stop()


# ----------------------------------------------------------------------
# wire-level robustness (raw sockets, no client conveniences)
def _raw_connection(handle):
    sock = socket.create_connection((handle.host, handle.port), timeout=5)
    sock.settimeout(5)
    return sock


def _read_one_frame(sock):
    assembler = protocol.FrameAssembler()
    while True:
        data = sock.recv(65536)
        if not data:
            raise EOFError("server closed the connection")
        frames = assembler.feed(data)
        if frames:
            return frames[0]


def test_garbage_bytes_get_error_reply_then_close(running):
    sock = _raw_connection(running)
    try:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        body = json.loads(frame.payload)
        assert body["error"] == "protocol"
        assert sock.recv(65536) == b""  # connection closed
    finally:
        sock.close()


def test_crc_corrupted_frame_is_fatal_for_connection(running):
    sock = _raw_connection(running)
    try:
        raw = bytearray(protocol.encode_frame(protocol.PING, 1))
        raw[-1] ^= 0xFF
        sock.sendall(bytes(raw))
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert json.loads(frame.payload)["error"] == "protocol"
    finally:
        sock.close()


def test_oversized_payload_rejected(running):
    sock = _raw_connection(running)
    try:
        header = (
            protocol.MAGIC
            + bytes((protocol.PROTOCOL_VERSION, protocol.PING))
            + (1).to_bytes(4, "big")
            + (1 << 30).to_bytes(4, "big")
        )
        sock.sendall(header)
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert "exceeds" in json.loads(frame.payload)["message"]
    finally:
        sock.close()


def test_unknown_request_type_gets_structured_error(running):
    sock = _raw_connection(running)
    try:
        sock.sendall(protocol.encode_frame(0x7F, 9, b""))
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert frame.seq == 9
        assert json.loads(frame.payload)["error"] == "bad-request"
    finally:
        sock.close()


def test_mid_frame_disconnect_does_not_wedge_server(running):
    # drop the connection halfway through a frame, then verify the
    # server still serves a fresh client
    raw = protocol.encode_frame(
        protocol.FEED_CHUNK,
        1,
        protocol.encode_feed_payload("torn", 0, b"x" * 512),
    )
    sock = _raw_connection(running)
    sock.sendall(raw[: len(raw) // 2])
    sock.close()
    with DebugClient(running.host, running.port) as client:
        assert client.ping()["scenario"] == "cc-test"


def test_mid_chunk_disconnect_preserves_session_state(running):
    # a session fed from a connection that dies survives: a new
    # connection picks it up where the last applied chunk left it
    chunks = render_session_chunks(running.context, seed=4, chunk_records=4)
    first = DebugClient(running.host, running.port)
    sid = first.open_session("torn-session")
    reply = first.feed(sid, 0, chunks[0])
    first._sock.close()  # simulate the validator host dying
    with DebugClient(running.host, running.port) as second:
        snap = second.snapshot(sid)
        assert snap.observed_length == reply.observed_length
        second.feed(sid, 1, chunks[1])
        second.close_session(sid)


# ----------------------------------------------------------------------
def test_http_metrics_endpoint(context):
    handle = start_server(
        context, ServerConfig(shards=1, metrics_port=0)
    )
    try:
        port = handle.server.metrics_port
        assert port
        body = urllib.request.urlopen(
            f"http://{handle.host}:{port}/metrics", timeout=5
        ).read()
        doc = json.loads(body)
        assert "counters" in doc
        assert doc["server"]["scenario"] == "cc-test"
    finally:
        handle.thread.stop()


def test_graceful_drain_with_open_sessions(context):
    handle = start_server(context, ServerConfig(shards=2))
    client = DebugClient(handle.host, handle.port)
    feed = SessionFeed(client, session_id="draining")
    chunks = render_session_chunks(context, seed=5, chunk_records=4)
    feed.feed(chunks[0])
    client.close()
    # stop() drains: must complete promptly without deadlocking even
    # though a session is still open
    handle.thread.stop(drain=True)
    assert handle.server._draining


def queue_feed_behind_busy_lane(handle, context):
    """Occupy the one lane thread of *handle*'s server until the
    returned event is set, then send a FEED that waits behind it;
    returns ``(socket, event)`` once the FEED's responder exists."""
    server = handle.server
    with DebugClient(handle.host, handle.port) as client:
        sid = client.open_session("queued")
    release = threading.Event()
    server._lanes[0].executor.submit(release.wait)
    chunk = render_session_chunks(context, seed=0, chunk_records=4)[0]
    sock = socket.create_connection((handle.host, handle.port))
    sock.sendall(protocol.encode_frame(
        protocol.FEED_CHUNK, 1, protocol.encode_feed_payload(sid, 0, chunk)
    ))
    deadline = time.monotonic() + 10.0
    while not server._responders:
        assert time.monotonic() < deadline, "FEED never queued"
        time.sleep(0.01)
    return sock, release


def stop_freeing_lane(handle, release, **how):
    """``ServerThread.stop(**how)``; stop joins the lane thread, so the
    lane is freed only once stop is under way."""
    freer = threading.Timer(0.5, release.set)
    freer.start()
    handle.thread.stop(**how)
    freer.join()


def test_abort_leaves_no_responder_pending(context, caplog):
    """A FEED queued behind a busy lane gets no reply when the server
    is aborted; its responder must still finish before the loop
    closes, not be destroyed while pending."""
    gc.collect()  # only this test's leftovers may reach the log below
    handle = start_server(context, ServerConfig(shards=1))
    server = handle.server
    sock, release = queue_feed_behind_busy_lane(handle, context)
    with sock:
        stop_freeing_lane(handle, release, abort=True)
    pending = []
    for task in gc.get_objects():
        if isinstance(task, asyncio.Task) and not task.done():
            coro_frame = getattr(task.get_coro(), "cr_frame", None)
            if coro_frame and coro_frame.f_locals.get("self") is server:
                pending.append(task)
    assert not pending
    del handle, server, pending
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        gc.collect()  # destroys whatever the closed loop left behind
    assert "Task was destroyed" not in caplog.text


def test_drain_answers_feed_queued_behind_busy_lane(context):
    handle = start_server(context, ServerConfig(shards=1))
    sock, release = queue_feed_behind_busy_lane(handle, context)
    with sock:
        stop_freeing_lane(handle, release, drain=True)
        sock.settimeout(10.0)
        assembler = protocol.FrameAssembler()
        frames = []
        while not frames:
            data = sock.recv(65536)
            assert data, "connection closed before the FEED's reply"
            frames = assembler.feed(data)
    assert frames[0].frame_type == protocol.OK
    assert frames[0].seq == 1
    assert not handle.server._responders


def test_sessions_idle_evicted(context):
    handle = start_server(
        context,
        ServerConfig(
            shards=1, idle_timeout_s=0.05, idle_sweep_s=0.02
        ),
    )
    try:
        import time

        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("idler")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                shard_stats = handle.server.core.shards[0].manager.stats()
                if shard_stats["evicted"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("idle session was never evicted")
            with pytest.raises(ServerError) as excinfo:
                client.snapshot(sid)
            assert excinfo.value.code == "unknown-session"
    finally:
        handle.thread.stop()


def test_full_session_table_is_backpressure_not_a_taken_id(context):
    """Two opens routed before either applies (as concurrent TCP
    requests are) pass the global cap; the shard's full table then
    answers the second with RETRY_LATER, while reopening a live id is
    the terminal ``session-exists`` error."""
    from repro.server import SessionHost, protocol

    host = SessionHost(context, ServerConfig(shards=1, max_sessions=1))

    def open_op(sid):
        _shard, op, _is_feed, _deadline = host.route(
            protocol.OPEN_SESSION,
            protocol.encode_json({"session_id": sid}),
        )
        return op

    first, second = open_op("a"), open_op("b")
    assert first()[0] == protocol.OK
    frame_type, payload = second()
    assert frame_type == protocol.RETRY_LATER
    assert protocol.decode_json(payload)["reason"] == "session-table-full"
    # with room in the table, reopening a live id is terminal
    roomy = SessionHost(context, ServerConfig(shards=1))
    request = protocol.encode_json({"session_id": "a"})
    assert roomy.call(protocol.OPEN_SESSION, request)[0] == protocol.OK
    frame_type, payload = roomy.call(protocol.OPEN_SESSION, request)
    assert frame_type == protocol.ERROR
    assert protocol.decode_json(payload)["error"] == "session-exists"


def test_generated_session_ids_are_unique_across_threads(context):
    """In-process callers open sessions from many threads at once; the
    core's generated ids must never collide."""
    import sys
    import threading

    from repro.server import InProcessClient, SessionHost

    host = SessionHost(context, ServerConfig(shards=2, max_sessions=64))
    opened = []

    def opener():
        with InProcessClient(host) as client:
            for _ in range(8):
                opened.append(client.open_session())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=opener) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(opened) == len(set(opened)) == 64
    assert host.open_sessions() == 64
