import ast
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import pemkit
from pemkit import (
    ErrorDistribution,
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PemClient,
    PemModel,
    PemServer,
    RemoteError,
    TransitionMatrix,
    apply_pem,
    load_model,
    polar_from_xy,
    serve_in_thread,
    session_rng,
    xy_from_polar,
)
from pemkit import protocol
from pemkit.cli import build_parser
from pemkit.client import ServerGone, conformance_requests, record_transcript
from pemkit.inject import InjectorSession
from pemkit.server import MAX_LINE_BYTES, Session
from pemkit.sim import ModelSource


def stochastic_model():
    return PemModel.uniform(
        GridSpec(),
        TransitionMatrix(0.6, 0.85),
        ErrorDistribution(1.05, 0.01, 0.05, 0.02, 0.3),
        "m",
    )


@pytest.fixture(scope="module")
def server():
    srv, _thread = serve_in_thread({"m": stochastic_model()})
    yield srv
    srv.shutdown()
    srv.close()


def client_for(server):
    host, port = server.address
    return PemClient(host, port)


OBJS = [
    {"id": 1, "x": -4.0, "y": 25.0, "occ": 3},
    {"id": 2, "x": 10.0, "y": 40.0, "occ": 2},
]


def test_frame_before_init(server):
    with client_for(server) as client:
        with pytest.raises(RemoteError) as err:
            client.frame(0, OBJS)
        assert err.value.code == "not_initialized"


def test_unknown_model(server):
    with client_for(server) as client:
        with pytest.raises(RemoteError) as err:
            client.init("nope", 1)
        assert err.value.code == "unknown_model"


def test_happy_path_and_error_recovery(server):
    with client_for(server) as client:
        assert client.init("m", 42) == {"type": "ack", "of": "init"}
        reply = client.frame(0, OBJS)
        assert all(set(o) == {"source_id", "x", "y"} for o in reply)
        assert {o["source_id"] for o in reply} <= {1, 2}

        # malformed line -> one error, session survives
        raw = client.exchange_raw(b"this is not json\n")
        doc = json.loads(raw)
        assert doc["type"] == "error" and doc["code"] == "malformed"

        # time regression
        with pytest.raises(RemoteError) as err:
            client.frame(0, OBJS)
        assert err.value.code == "time_regression"

        # duplicate ids
        with pytest.raises(RemoteError) as err:
            client.frame(1, [OBJS[0], OBJS[0]])
        assert err.value.code == "duplicate_id"

        # still alive
        assert isinstance(client.frame(2, OBJS), list)
        assert isinstance(client.frame(3, []), list)


def test_response_cardinality_and_source_ids(server):
    with client_for(server) as client:
        client.init("m", 7)
        for t in range(20):
            reply = client.frame(t, OBJS)
            assert len(reply) <= len(OBJS)
            assert {o["source_id"] for o in reply} <= {o["id"] for o in OBJS}


def test_session_stream_matches_local_apply(server):
    # The server's per-session stream is exactly apply_pem with session_rng(seed, 0).
    model = stochastic_model()
    seed = 99
    world = [
        GroundTruthObject(o["id"], polar_from_xy(o["x"], o["y"]), OcclusionLevel(o["occ"]))
        for o in OBJS
    ]
    rng = session_rng(seed, 0)
    tracks = {}
    expected = []
    for _ in range(10):
        perceived, tracks = apply_pem(model, world, tracks, rng)
        expected.append([(p.source_id, *xy_from_polar(p.position)) for p in perceived])

    with client_for(server) as client:
        client.init("m", seed)
        got = [[(o["source_id"], o["x"], o["y"]) for o in client.frame(t, OBJS)] for t in range(10)]
    assert got == expected


def test_reset_reseeds_deterministically(server):
    with client_for(server) as client:
        client.init("m", 5)
        first = [client.frame(t, OBJS) for t in range(5)]
        assert client.reset() == {"type": "ack", "of": "reset"}
        after_reset = [client.frame(t, OBJS) for t in range(5)]

    # After the k-th reset the stream runs from session_rng(seed, k).
    model = stochastic_model()
    rng = session_rng(5, 1)
    tracks = {}
    world = [
        GroundTruthObject(o["id"], polar_from_xy(o["x"], o["y"]), OcclusionLevel(o["occ"]))
        for o in OBJS
    ]
    expected = []
    for _ in range(5):
        perceived, tracks = apply_pem(model, world, tracks, rng)
        expected.append([{"source_id": p.source_id, **dict(zip("xy", xy_from_polar(p.position)))} for p in perceived])
    assert after_reset == expected
    assert first != after_reset  # reseeded stream differs


def test_reset_on_fresh_session_requires_init(server):
    with client_for(server) as client:
        with pytest.raises(RemoteError) as err:
            client.reset()
        assert err.value.code == "not_initialized"


def test_concurrent_sessions_are_independent(server):
    with client_for(server) as a, client_for(server) as b:
        a.init("m", 1)
        b.init("m", 2)
        ra1 = a.frame(0, OBJS)
        rb1 = b.frame(0, OBJS)
        ra2 = a.frame(1, OBJS)
        rb2 = b.frame(1, OBJS)
    # same requests on fresh sessions with the same seeds reproduce exactly
    with client_for(server) as a2:
        a2.init("m", 1)
        assert a2.frame(0, OBJS) == ra1
        assert a2.frame(1, OBJS) == ra2
    with client_for(server) as b2:
        b2.init("m", 2)
        assert b2.frame(0, OBJS) == rb1
        assert b2.frame(1, OBJS) == rb2


def test_two_servers_byte_identical():
    model = stochastic_model()
    replies = []
    for _ in range(2):
        srv, _t = serve_in_thread({"m": model})
        try:
            host, port = srv.address
            with PemClient(host, port) as client:
                lines = [client.exchange_raw(protocol.encode(protocol.init_msg("m", 11, 2.0)))]
                for t in range(5):
                    lines.append(client.exchange_raw(protocol.encode(protocol.frame_msg(t, OBJS))))
            replies.append(b"".join(lines))
        finally:
            srv.shutdown()
            srv.close()
    assert replies[0] == replies[1]


def test_malformed_occ_and_bad_fields(server):
    with client_for(server) as client:
        client.init("m", 3)
        bad = [{"id": 1, "x": 0.0, "y": 5.0, "occ": 9}]
        with pytest.raises(RemoteError) as err:
            client.frame(0, bad)
        assert err.value.code == "malformed"
        with pytest.raises(RemoteError):
            client.request({"type": "frame", "t": "zero", "objects": []})
        with pytest.raises(RemoteError):
            client.request({"type": "teleport"})


def test_shutdown_message_stops_server():
    srv, thread = serve_in_thread({"m": stochastic_model()})
    host, port = srv.address
    with PemClient(host, port) as client:
        assert client.shutdown_server() == {"type": "ack", "of": "shutdown"}
    thread.join(timeout=5)
    assert not thread.is_alive()
    srv.close()


def test_server_requires_models():
    with pytest.raises(ValueError):
        PemServer({})


def test_bind_failure_is_startup_error():
    srv, _t = serve_in_thread({"m": stochastic_model()})
    host, port = srv.address
    try:
        with pytest.raises(OSError):
            PemServer({"m": stochastic_model()}, host=host, port=port)
    finally:
        srv.shutdown()
        srv.close()


@pytest.mark.parametrize(
    "line",
    [
        b'{"type":"frame","t":0,"objects":[{"id":1,"x":NaN,"y":10.0,"occ":3}]}\n',
        b'{"type":"frame","t":0,"objects":[{"id":1,"x":-4.0,"y":Infinity,"occ":3}]}\n',
        b'{"type":"frame","t":0,"objects":[{"id":1,"x":1e999,"y":10.0,"occ":3}]}\n',
        b'{"type":"init","model":"m","seed":3,"rate_hz":NaN}\n',
        b'{"type":"init","model":"m","seed":3,"rate_hz":-Infinity}\n',
    ],
)
def test_non_finite_numbers_are_malformed_and_session_survives(server, line):
    with client_for(server) as client:
        client.init("m", 3)
        doc = json.loads(client.exchange_raw(line))
        assert doc["type"] == "error" and doc["code"] == "malformed"
        assert isinstance(client.frame(0, OBJS), list)


NOT_NUMBERS = "frame object x and y must be numbers"


@pytest.mark.parametrize(
    "obj, message",
    [
        (b'{"id":1,"x":1' + b"0" * 400 + b',"y":10.0,"occ":3}', NOT_NUMBERS),
        (b'{"id":1,"x":-4.0,"y":-1' + b"0" * 400 + b',"occ":3}', NOT_NUMBERS),
        (b'{"id":1,"x":1' + b"0" * 5000 + b',"y":10.0,"occ":3}', "line holds an integer too long to decode"),
    ],
    ids=["x", "y", "beyond-digit-limit"],
)
def test_huge_integer_coordinates_are_malformed_and_session_survives(server, obj, message):
    frame0 = protocol.encode(protocol.frame_msg(0, OBJS))
    with client_for(server) as fresh:
        fresh.init("m", 5)
        expected = fresh.exchange_raw(frame0)
    with client_for(server) as client:
        client.init("m", 5)
        reply = client.exchange_raw(b'{"type":"frame","t":0,"objects":[' + obj + b"]}\n")
        assert json.loads(reply) == {"type": "error", "code": "malformed", "message": message}
        assert client.exchange_raw(frame0) == expected


@pytest.mark.parametrize(
    "line",
    [b"[" * 100_000 + b"\n", b'{"type":"frame","t":0,"objects":' + b'[{"x":' * 50_000 + b"\n"],
    ids=["bare-arrays", "inside-a-frame"],
)
def test_deeply_nested_line_is_malformed_and_session_survives(server, line):
    """A line nested deeper than the decoder's stack gets a malformed reply; the session goes on."""
    frame0 = protocol.encode(protocol.frame_msg(0, OBJS))
    with client_for(server) as fresh:
        fresh.init("m", 5)
        expected = fresh.exchange_raw(frame0)
    with client_for(server) as client:
        client.init("m", 5)
        reply = json.loads(client.exchange_raw(line))
        assert reply == {"type": "error", "code": "malformed", "message": "line is nested too deeply to decode"}
        assert client.exchange_raw(frame0) == expected


def test_duplicate_id_reply_names_first_repeated_id(server):
    objs = [{"id": i, "x": 1.0 + i, "y": 10.0, "occ": 3} for i in (1, 2, 2, 1)]
    with client_for(server) as client:
        client.init("m", 3)
        reply = client.exchange_raw(protocol.encode(protocol.frame_msg(0, objs)))
        assert reply == b'{"code":"duplicate_id","message":"duplicate object id 1","type":"error"}\n'
        client.frame(1, OBJS)
        reply = client.exchange_raw(protocol.encode(protocol.frame_msg(1, OBJS)))
        assert reply == b'{"code":"time_regression","message":"frame t 1 not greater than 1","type":"error"}\n'


def test_rejected_frames_leave_the_stream_untouched(server):
    dup = [OBJS[0], OBJS[1], OBJS[0]]
    with client_for(server) as client:
        client.init("m", 21)
        got = [client.frame(0, OBJS), client.frame(1, OBJS)]
        for t, objs in ((2, dup), (1, OBJS), (0, dup)):
            with pytest.raises(RemoteError):
                client.frame(t, objs)
        got += [client.frame(2, OBJS), client.frame(3, OBJS)]
        client.reset()
        with pytest.raises(RemoteError):
            client.frame(0, dup)
        got += [client.frame(0, OBJS), client.frame(1, OBJS)]
    with client_for(server) as client:
        client.init("m", 21)
        expected = [client.frame(t, OBJS) for t in range(4)]
        client.reset()
        expected += [client.frame(t, OBJS) for t in range(2)]
    assert got == expected


def test_server_session_and_model_source_share_one_stream():
    model = stochastic_model()
    worlds = [[(o["id"], o["x"] + 0.3 * t, o["y"] - t, o["occ"]) for o in OBJS] for t in range(8)]
    frame = lambda t: protocol.parse_request(protocol.frame_line(t, worlds[t]))
    as_tuples = lambda reply: [(o["source_id"], o["x"], o["y"]) for o in json.loads(reply)["objects"]]

    session = Session({"m": model})
    session.handle({"type": "init", "model": "m", "seed": 13, "rate_hz": 2.0})
    wire = [as_tuples(session.handle(frame(t))) for t in range(8)]
    assert session.handle({"type": "reset"}) == protocol.encode({"type": "ack", "of": "reset"})
    wire_after_reset = [as_tuples(session.handle(frame(t))) for t in range(8)]

    source = ModelSource(model)
    runs = []
    for _ in range(2):  # each run restarts the stream from (seed, 0)
        source.begin_run(13)
        runs.append([source.perceive(t, worlds[t]) for t in range(8)])
    injector = InjectorSession(model, 13)
    injector.reset()
    local_after_reset = [injector.frame(t, worlds[t]) for t in range(8)]

    assert runs[0] == runs[1] == wire
    assert local_after_reset == wire_after_reset
    assert wire != wire_after_reset


FRAME0 = protocol.encode(protocol.frame_msg(0, OBJS))


def padded(size: int, end: bytes = b"\n") -> bytes:
    """FRAME0 padded with whitespace to ``size`` bytes, ``end`` included: only the cap can reject it."""
    return FRAME0[:-1] + b" " * (size + 1 - len(FRAME0) - len(end)) + end


@pytest.mark.parametrize(
    "writes, end_input, replies",
    [
        ([padded(MAX_LINE_BYTES)], False, ["frame"]),
        ([padded(MAX_LINE_BYTES + 1), FRAME0], False, ["cap", "frame"]),
        ([padded(2 * MAX_LINE_BYTES), FRAME0], False, ["cap", "frame"]),
        ([padded(MAX_LINE_BYTES - 1, b"")], True, ["frame"]),
        ([padded(MAX_LINE_BYTES, b"")], True, ["cap"]),
        ([padded(MAX_LINE_BYTES + 1) + FRAME0], False, ["cap", "frame"]),
        ([padded(MAX_LINE_BYTES + 1) * 2, FRAME0], False, ["cap", "cap", "frame"]),
        ([padded(MAX_LINE_BYTES + 1, b"")], True, ["cap"]),
    ],
    ids=["0", "1", "1048576", "tail-one-under-cap", "tail-at-cap", "valid-request-in-same-write",
         "two-over-long-lines", "over-long-tail"],
)
def test_request_line_cap(server, writes, end_input, replies):
    with client_for(server) as fresh:
        fresh.init("m", 4)
        expected = {"frame": fresh.exchange_raw(FRAME0)}
    message = f"request line longer than {MAX_LINE_BYTES} bytes"
    expected["cap"] = protocol.encode({"type": "error", "code": "malformed", "message": message})
    expected = [protocol.encode(protocol.ack_msg("init"))] + [expected[reply] for reply in replies]
    with raw_session(server) as sock:
        sock.sendall(protocol.encode(protocol.init_msg("m", 4)))
        for data in writes:
            sock.sendall(data)
        if end_input:
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as rfile:
                assert rfile.read() == b"".join(expected)  # each reply once, then the server closes
        else:
            assert read_lines(sock, len(expected)) == expected  # the session goes on unchanged


def test_conformance_requests_are_the_shipped_transcripts_requests():
    transcript = Path(__file__).resolve().parent.parent / "conformance" / "transcript.jsonl"
    entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines() if line]
    assert [entry["line"] for entry in entries if entry["dir"] == "c2s"] == conformance_requests()


def test_record_transcript_rebuilds_the_shipped_transcript(tmp_path):
    conformance = Path(__file__).resolve().parent.parent / "conformance"
    srv, _thread = serve_in_thread({"conformance": load_model(conformance / "model.json")})
    try:
        record_transcript(*srv.address, conformance_requests(), tmp_path / "transcript.jsonl")
    finally:
        srv.shutdown()
        srv.close()
    assert (tmp_path / "transcript.jsonl").read_bytes() == (conformance / "transcript.jsonl").read_bytes()


# --- one event loop: framing, pipelining, back-pressure, fault isolation -----

WIRE_REQUESTS = [
    protocol.encode(protocol.init_msg("m", 31)),
    *(protocol.encode(protocol.frame_msg(t, OBJS)) for t in range(6)),
    b"not json\n",
    protocol.encode(protocol.frame_msg(3, OBJS)),  # time regression
    protocol.encode({"type": "reset"}),
    *(protocol.encode(protocol.frame_msg(t, OBJS)) for t in range(3)),
]


def raw_session(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_lines(sock: socket.socket, n: int) -> list[bytes]:
    with sock.makefile("rb") as rfile:
        return [rfile.readline() for _ in range(n)]


def one_request_per_write(server, requests: list[bytes]) -> list[bytes]:
    with client_for(server) as client:
        return [client.exchange_raw(line) for line in requests]


def in_process_replies(requests: list[bytes]) -> list[bytes]:
    session = Session({"m": stochastic_model()})
    replies = []
    for line in requests:
        try:
            reply = session.handle(protocol.parse_request(line))
        except protocol.ProtocolError as exc:
            reply = protocol.encode(protocol.error_msg(exc.code, exc.message))
        replies.append(reply)
    return replies


def frame_lines(objects: list[dict], count: int) -> list[bytes]:
    return [protocol.encode(protocol.frame_msg(t, objects)) for t in range(count)]


@pytest.mark.parametrize("framing", ["byte-by-byte", "all-in-one-write", "tail-without-newline"])
def test_replies_do_not_depend_on_how_requests_are_split(server, framing):
    expected = one_request_per_write(server, WIRE_REQUESTS)
    assert expected == in_process_replies(WIRE_REQUESTS)
    stream = b"".join(WIRE_REQUESTS)
    with raw_session(server) as sock:
        if framing == "byte-by-byte":
            for i in range(len(stream)):
                sock.sendall(stream[i : i + 1])
            assert read_lines(sock, len(WIRE_REQUESTS)) == expected
        elif framing == "all-in-one-write":
            sock.sendall(stream)
            assert read_lines(sock, len(WIRE_REQUESTS)) == expected
        else:
            sock.sendall(stream[:-1])
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as rfile:
                assert rfile.read() == b"".join(expected)  # every reply, then the server closes


def test_pipelined_frames_come_back_in_order_while_another_session_is_served(server):
    requests = [protocol.encode(protocol.init_msg("m", 17))] + frame_lines(OBJS, 2000)
    other = WIRE_REQUESTS[:7]
    expected_other = one_request_per_write(server, other)
    with raw_session(server) as pipelined:
        sender = threading.Thread(target=pipelined.sendall, args=(b"".join(requests),))
        sender.start()
        assert one_request_per_write(server, other) == expected_other
        assert read_lines(pipelined, len(requests)) == in_process_replies(requests)
        sender.join(timeout=30)
        assert not sender.is_alive()


def test_a_client_that_never_reads_is_paused_and_delays_no_one(server):
    # 48-object frames: a stalled client's unread replies soon pass the server's
    # cap and the kernel buffers, so the server must stop reading it.
    many = [{"id": i, "x": -20.0 + i, "y": 5.0 + i, "occ": i % 4} for i in range(48)]
    lines = frame_lines(many, 20000)
    sent = []

    def flood(sock):
        try:
            sock.sendall(protocol.encode(protocol.init_msg("m", 3)))
            for line in lines:
                sock.sendall(line)
                sent.append(1)
        except OSError:  # the test shut the socket down under the blocked send
            pass

    expected = one_request_per_write(server, WIRE_REQUESTS)
    staller = raw_session(server)
    flooder = threading.Thread(target=flood, args=(staller,))
    flooder.start()
    try:
        deadline = time.monotonic() + 60
        seen = -1
        while len(sent) != seen and time.monotonic() < deadline:  # until the server stops reading it
            seen = len(sent)
            time.sleep(0.3)
        assert seen < len(lines) and flooder.is_alive()
        for _ in range(2):
            assert one_request_per_write(server, WIRE_REQUESTS) == expected
    finally:
        staller.shutdown(socket.SHUT_RDWR)
        staller.close()
        flooder.join(timeout=30)
    assert not flooder.is_alive()
    assert one_request_per_write(server, WIRE_REQUESTS) == expected


def test_a_client_that_reads_late_gets_every_reply_in_order():
    # Small kernel buffers at both ends, so unread replies soon pass the cap:
    # the server stops reading this client, then resumes once it reads.
    srv, thread = serve_in_thread({"m": stochastic_model()})
    many = [{"id": i, "x": -20.0 + i, "y": 5.0 + i, "occ": i % 4} for i in range(48)]
    requests = [protocol.encode(protocol.init_msg("m", 9))] + frame_lines(many, 1500)
    sent = []

    def send_all(sock):
        for line in requests:
            sock.sendall(line)
            sent.append(1)
        sock.shutdown(socket.SHUT_WR)

    try:
        with socket.socket() as sock:
            for end in (srv._listener, sock):  # accepted sockets inherit the listener's sizes
                end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
                end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
            sock.connect(srv.address)
            sender = threading.Thread(target=send_all, args=(sock,))
            sender.start()
            seen = -1
            while len(sent) != seen:  # until the server stops reading it
                seen = len(sent)
                time.sleep(0.3)
            assert seen < len(requests)
            with sock.makefile("rb") as rfile:
                assert rfile.read() == b"".join(in_process_replies(requests))
            sender.join(timeout=30)
            assert not sender.is_alive()
    finally:
        srv.shutdown()
        srv.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_failing_handler_closes_only_its_connection(monkeypatch, capsys):
    srv, thread = serve_in_thread({"m": stochastic_model()})
    try:
        expected = one_request_per_write(srv, WIRE_REQUESTS)
        handle = Session.handle

        def failing(self, msg):
            if msg["type"] == "init" and msg["seed"] == 666:
                self.doomed = True
            if getattr(self, "doomed", False) and msg["type"] == "frame":
                raise RuntimeError("injected handler fault")
            return handle(self, msg)

        monkeypatch.setattr(Session, "handle", failing)
        with client_for(srv) as live, client_for(srv) as doomed:
            got = [live.exchange_raw(line) for line in WIRE_REQUESTS[:4]]
            assert doomed.init("m", 666) == {"type": "ack", "of": "init"}
            with pytest.raises(ServerGone):
                doomed.frame(0, OBJS)
            got += [live.exchange_raw(line) for line in WIRE_REQUESTS[4:]]
        assert got == expected
        assert one_request_per_write(srv, WIRE_REQUESTS) == expected  # new connections are still accepted
        assert thread.is_alive()
        err = capsys.readouterr().err
        assert "Exception occurred during processing of request from" in err
        assert "RuntimeError: injected handler fault" in err
    finally:
        srv.shutdown()
        srv.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_serve_forever_runs_again_after_shutdown():
    srv = PemServer({"m": stochastic_model()}, port=0)
    try:
        for _ in range(2):
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            assert one_request_per_write(srv, WIRE_REQUESTS) == in_process_replies(WIRE_REQUESTS)
            srv.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()
    finally:
        srv.close()


# --- design guards -----------------------------------------------------------


def test_one_thread_serves_every_connection():
    before = threading.active_count()
    srv, thread = serve_in_thread({"m": stochastic_model()})
    try:
        assert threading.active_count() == before + 1
        clients = [client_for(srv) for _ in range(8)]
        try:
            for seed, client in enumerate(clients):
                client.init("m", seed)
            for t in range(3):
                for client in clients:
                    client.frame(t, OBJS)
            assert threading.active_count() == before + 1
        finally:
            for client in clients:
                client.close()
    finally:
        srv.shutdown()
        srv.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_no_socketserver_no_environment_and_no_new_serve_option():
    src = Path(pemkit.__file__).resolve().parent
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                assert "socketserver" not in {alias.name for alias in node.names}, path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "socketserver", path
        assert "environ" not in text and "getenv" not in text, path
    options = vars(build_parser().parse_args(["serve", "--model", "m.json"]))
    assert set(options) == {"config", "command", "model", "host", "port", "func"}


def test_importing_pemkit_leaves_asyncio_unloaded():
    # Only a constructed PemServer imports asyncio; simulate and learn never pay for it.
    check = "import sys, pemkit, pemkit.cli; assert 'asyncio' not in sys.modules, 'asyncio imported'"
    subprocess.run([sys.executable, "-c", check], check=True, timeout=60)
