"""Acceptance: networked snapshot parity.

For every prefix of a simulator-produced trace file fed over the wire,
the server's ``SNAPSHOT`` must be byte-identical (the same
``consistent_paths/total_paths`` integers) to batch
:func:`~repro.selection.localization.localize_trace` on the visible
prefix AND to an in-process
:class:`~repro.stream.incremental.IncrementalLocalizer` -- across all
three usage scenarios.  The wire adds framing, sharding, thread
hand-offs, and an incremental UTF-8/line parser; none of that may
change a single path count.
"""

from __future__ import annotations

import pytest

from repro.selection.localization import PathLocalizer, localize_trace
from repro.server import DebugClient, ServeContext, ServerConfig
from repro.server.loadgen import render_session_chunks
from repro.stream import IncrementalLocalizer
from repro.stream.service import synthetic_session_records
from tests.server.conftest import start_server


@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_wire_snapshots_match_batch_and_incremental(scenario):
    context = ServeContext.from_scenario(
        scenario, instances=1, buffer_width=16
    )
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=11
    )
    chunks = render_session_chunks(
        context, seed=11, chunk_records=3, scenario_name="loadgen"
    )
    incremental = IncrementalLocalizer(
        mode=context.mode,
        max_frontier=context.max_frontier,
        localizer=PathLocalizer(context.interleaved, context.traced),
    )
    handle = start_server(context, ServerConfig(shards=2))
    try:
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session(f"parity-{scenario}")
            fed = 0
            for index, chunk in enumerate(chunks):
                client.feed(
                    sid, index, chunk, eof=(index == len(chunks) - 1)
                )
                wire = client.snapshot(sid)
                # the in-process incremental localizer follows the
                # exact same record prefix
                incremental.feed(
                    r.message for r in records[fed : wire.observed_length]
                )
                fed = wire.observed_length
                inc = incremental.snapshot()
                batch = localize_trace(
                    context.interleaved,
                    context.traced,
                    tuple(r.message for r in records[:fed]),
                    mode=context.mode,
                )
                assert (
                    wire.result.consistent_paths,
                    wire.result.total_paths,
                ) == (batch.consistent_paths, batch.total_paths), (
                    f"scenario {scenario}, prefix {fed}: wire != batch"
                )
                assert (
                    inc.consistent_paths,
                    inc.total_paths,
                ) == (batch.consistent_paths, batch.total_paths), (
                    f"scenario {scenario}, prefix {fed}: "
                    "incremental != batch"
                )
            assert fed == len(records)
            close = client.close_session(sid)
            assert close.result.consistent_paths == incremental.snapshot().consistent_paths
    finally:
        handle.thread.stop()


def test_ctrace_transport_parity(context):
    """The compressed-bitstream transport localizes identically to the
    text transport for the same underlying records."""
    from repro.compress.encoder import encode_records

    records = synthetic_session_records(
        context.interleaved, context.traced, seed=7
    )
    encoded = encode_records(
        records, scenario="parity", seed=7, traced=context.traced
    )
    batch = localize_trace(
        context.interleaved,
        context.traced,
        tuple(r.message for r in records),
        mode=context.mode,
    )
    handle = start_server(context, ServerConfig(shards=2))
    try:
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("ct", transport="ctrace")
            blob = encoded.data
            step = max(1, len(blob) // 5)
            pieces = [
                blob[i : i + step] for i in range(0, len(blob), step)
            ]
            for index, piece in enumerate(pieces):
                client.feed(
                    sid, index, piece, eof=(index == len(pieces) - 1)
                )
            wire = client.snapshot(sid)
            assert (
                wire.result.consistent_paths,
                wire.result.total_paths,
            ) == (batch.consistent_paths, batch.total_paths)
            client.close_session(sid)
    finally:
        handle.thread.stop()


def test_in_process_and_tcp_replies_are_byte_identical(context):
    """One request sequence through :meth:`SessionHost.call` and through
    a live TCP server: every reply payload must match byte for byte --
    both shells run the same core."""
    import socket

    from repro.compress.encoder import encode_records
    from repro.server import SessionHost, protocol

    text = render_session_chunks(context, seed=5, chunk_records=2)
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=5
    )
    blob = encode_records(
        records, scenario="parity", seed=5, traced=context.traced
    ).data
    step = max(1, len(blob) // 3)
    ctrace = [blob[i : i + step] for i in range(0, len(blob), step)]

    def body(**fields):
        return protocol.encode_json(fields)

    def feed(sid, index, data, eof=False):
        return (
            protocol.FEED_CHUNK,
            protocol.encode_feed_payload(sid, index, data, eof),
        )

    requests = [(protocol.OPEN_SESSION, body(session_id="pt"))]
    requests += [
        feed("pt", i, chunk, eof=i == len(text) - 1)
        for i, chunk in enumerate(text)
    ]
    requests += [
        feed("pt", 0, text[0]),  # duplicate
        feed("pt", len(text) + 3, b"x\n"),  # chunk gap
        (protocol.SNAPSHOT, body(session_id="pt")),
        (protocol.CLOSE_SESSION, body(session_id="pt")),
        (protocol.OPEN_SESSION, body(transport="ctrace")),  # generated id
    ]
    requests += [
        feed("g000001", i, piece, eof=i == len(ctrace) - 1)
        for i, piece in enumerate(ctrace)
    ]
    requests += [
        (protocol.SNAPSHOT, body(session_id="g000001")),
        (protocol.CLOSE_SESSION, body(session_id="g000001")),
        (protocol.SNAPSHOT, body(session_id="g000001")),  # unknown now
    ]

    config = ServerConfig(shards=2)
    host = SessionHost(context, config)
    local = [host.call(frame_type, payload) for frame_type, payload in
             requests]

    handle = start_server(context, config)
    wire = []
    try:
        with socket.create_connection((handle.host, handle.port)) as sock:
            assembler = protocol.FrameAssembler()
            for seq, (frame_type, payload) in enumerate(requests, 1):
                sock.sendall(protocol.encode_frame(frame_type, seq, payload))
                frames = []
                while not frames:
                    frames = assembler.feed(sock.recv(65536))
                assert frames[0].seq == seq
                wire.append((frames[0].frame_type, frames[0].payload))
    finally:
        handle.thread.stop()

    assert wire == local
    codes = [
        protocol.decode_json(payload).get("error")
        for frame_type, payload in local
        if frame_type == protocol.ERROR
    ]
    assert codes == ["chunk-gap", "unknown-session"]
    assert protocol.decode_json(local[len(text) + 1][1])["duplicate"]
    closes = [
        protocol.decode_json(payload)
        for (frame_type, _), (_, payload) in zip(requests, local)
        if frame_type == protocol.CLOSE_SESSION
    ]
    # both transports localized the same capture
    assert closes[0]["records"] == closes[1]["records"] > 0
    assert closes[0]["fraction"] == closes[1]["fraction"]
