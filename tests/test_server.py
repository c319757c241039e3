import json

import pytest

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
    polar_from_xy,
    serve_in_thread,
    session_rng,
    xy_from_polar,
)
from pemkit import protocol
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
    frame = lambda t: {"type": "frame", "t": t, "objects": [dict(zip(("id", "x", "y", "occ"), o)) for o in worlds[t]]}
    as_tuples = lambda reply: [(o["source_id"], o["x"], o["y"]) for o in reply["objects"]]

    session = Session({"m": model})
    session.handle({"type": "init", "model": "m", "seed": 13, "rate_hz": 2.0})
    wire = [as_tuples(session.handle(frame(t))) for t in range(8)]
    assert session.handle({"type": "reset"}) == {"type": "ack", "of": "reset"}
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


@pytest.mark.parametrize("extra", [0, 1, 1 << 20])
def test_request_line_cap(server, extra):
    # A valid frame padded with whitespace to MAX_LINE_BYTES + extra bytes: only the cap can reject it.
    frame0 = protocol.encode(protocol.frame_msg(0, OBJS))
    padded = frame0[:-1] + b" " * (MAX_LINE_BYTES + extra - len(frame0)) + b"\n"
    with client_for(server) as fresh:
        fresh.init("m", 4)
        expected = fresh.exchange_raw(frame0)
    with client_for(server) as client:
        client.init("m", 4)
        reply = client.exchange_raw(padded)
        if extra == 0:
            assert reply == expected
        else:
            message = f"request line longer than {MAX_LINE_BYTES} bytes"
            assert json.loads(reply) == {"type": "error", "code": "malformed", "message": message}
            assert client.exchange_raw(frame0) == expected  # one reply; the session goes on unchanged
