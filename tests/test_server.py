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
