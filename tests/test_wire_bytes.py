"""Wire replies, byte for byte, against an oracle of the path they replaced.

The server writes each ``response`` line directly and converts, checks and
bins a frame's objects in one pass (``InjectorSession.frame``), and the
client writes each ``frame`` line directly. The oracle below is the earlier
path, kept verbatim: ``oracle_parse`` checks every rule on every object, the
frame goes through ``inject.apply_pem`` on ``GroundTruthObject``s, and every
reply through ``json.dumps(sort_keys=True)``. Thousands of seeded frames,
with every malformed-object form mixed in, must get the same bytes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemkit import protocol
from pemkit.checks import is_int, is_number
from pemkit.geometry import N_OCCLUSION_LEVELS, GridSpec, OcclusionLevel, polar_from_xy, xy_from_polar
from pemkit.inject import DuplicateIdError, GroundTruthObject, apply_pem, session_rng
from pemkit.model import MAX_ERROR_PARAM, ErrorDistribution, ModelFormatError, PemModel, TransitionMatrix
from pemkit.protocol import ERR_MALFORMED, ProtocolError
from pemkit.server import Session

# --- the oracle ----------------------------------------------------------------


def _reject_constant(name):
    raise ProtocolError(ERR_MALFORMED, f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def oracle_parse(line: bytes) -> dict:
    """``protocol.parse_request`` as it was before its exact-type fast path."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(ERR_MALFORMED, "line is not valid UTF-8")
    try:
        msg = _DECODER.decode(text)
    except json.JSONDecodeError:
        raise ProtocolError(ERR_MALFORMED, "line is not valid JSON")
    except ValueError:
        raise ProtocolError(ERR_MALFORMED, "line holds an integer too long to decode")
    except RecursionError:
        raise ProtocolError(ERR_MALFORMED, "line is nested too deeply to decode")
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError(ERR_MALFORMED, "request must be an object with a type field")
    kind = msg["type"]
    if kind == "init":
        if not isinstance(msg.get("model"), str):
            raise ProtocolError(ERR_MALFORMED, "init.model must be a string")
        if not is_int(msg.get("seed")) or msg["seed"] < 0:
            raise ProtocolError(ERR_MALFORMED, "init.seed must be a non-negative integer")
        if not is_number(msg.get("rate_hz")) or msg["rate_hz"] <= 0:
            raise ProtocolError(ERR_MALFORMED, "init.rate_hz must be a positive number")
        return msg
    if kind == "frame":
        if not is_int(msg.get("t")):
            raise ProtocolError(ERR_MALFORMED, "frame.t must be an integer")
        objects = msg.get("objects")
        if not isinstance(objects, list):
            raise ProtocolError(ERR_MALFORMED, "frame.objects must be a list")
        for obj in objects:
            if not isinstance(obj, dict):
                raise ProtocolError(ERR_MALFORMED, "frame object must be an object")
            if not is_int(obj.get("id")):
                raise ProtocolError(ERR_MALFORMED, "frame object id must be an integer")
            if not is_number(obj.get("x")) or not is_number(obj.get("y")):
                raise ProtocolError(ERR_MALFORMED, "frame object x and y must be numbers")
            if not is_int(obj.get("occ")) or not (0 <= obj["occ"] < N_OCCLUSION_LEVELS):
                raise ProtocolError(ERR_MALFORMED, "frame object occ must be an integer in [0,4)")
        return msg
    if kind in ("reset", "shutdown"):
        return msg
    raise ProtocolError(ERR_MALFORMED, f"unknown request type {kind!r}")


def oracle_encode(msg: dict) -> bytes:
    return (json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class OracleSession:
    """One connection's replies by the object path: ``apply_pem`` on ``GroundTruthObject``s."""

    def __init__(self, models):
        self.models = models
        self.model = None

    def _error(self, code, message):
        return oracle_encode({"type": "error", "code": code, "message": message})

    def reply(self, line: bytes) -> bytes:
        try:
            msg = oracle_parse(line)
        except ProtocolError as exc:
            return self._error(exc.code, exc.message)
        kind = msg["type"]
        if kind == "init":
            if msg["model"] not in self.models:
                return self._error("unknown_model", f"no model named {msg['model']!r}")
            self.model, self.seed, self.resets = self.models[msg["model"]], msg["seed"], 0
            self.tracks, self.last_t, self.rng = {}, None, session_rng(self.seed, 0)
            return oracle_encode({"type": "ack", "of": "init"})
        if self.model is None:
            return self._error("not_initialized", f"{kind} before init")
        if kind == "reset":
            self.resets += 1
            self.tracks, self.last_t, self.rng = {}, None, session_rng(self.seed, self.resets)
            return oracle_encode({"type": "ack", "of": "reset"})
        t = msg["t"]
        if self.last_t is not None and t <= self.last_t:
            return self._error("time_regression", f"frame t {t} not greater than {self.last_t}")
        world = [
            GroundTruthObject(o["id"], polar_from_xy(o["x"], o["y"]), OcclusionLevel(o["occ"]))
            for o in msg["objects"]
        ]
        try:
            perceived, self.tracks = apply_pem(self.model, world, self.tracks, self.rng)
        except DuplicateIdError as exc:
            return self._error("duplicate_id", str(exc))
        self.last_t = t
        objects = []
        for p in perceived:
            x, y = xy_from_polar(p.position)
            objects.append({"source_id": p.source_id, "x": x, "y": y})
        return oracle_encode({"type": "response", "t": t, "objects": objects})


# --- the replayed stream -------------------------------------------------------


def varied_model():
    """Detection falls with range and occlusion; every cell's parameters differ."""
    grid = GridSpec()
    rng = np.random.default_rng(5)
    n = grid.n_conditions
    return PemModel(
        grid=grid,
        metadata="varied",
        a01=rng.uniform(0.05, 0.95, n),
        a11=rng.uniform(0.3, 0.99, n),
        mu_r=rng.uniform(0.9, 1.1, n),
        mu_theta=rng.uniform(-0.05, 0.05, n),
        sigma_r=rng.uniform(0.01, 0.3, n),
        sigma_theta=rng.uniform(0.005, 0.2, n),
        rho=rng.uniform(-0.9, 0.9, n),
    )


def overflowing_model():
    """Finite parameters whose range ratio would overflow, so perceived coordinates would come out infinite."""
    return PemModel.uniform(GridSpec(), TransitionMatrix(0.9, 0.9), ErrorDistribution(1e308, 0.0, 1.0, 0.01, 0.0))


def largest_accepted_model():
    """Every error parameter at the largest magnitude ``PemModel`` accepts."""
    top = MAX_ERROR_PARAM
    return PemModel.uniform(GridSpec(), TransitionMatrix(0.9, 0.9), ErrorDistribution(top, -top, top, top, 0.5))


# Each malformed form as (what replaces a good object, or one of its fields).
# Values that JSON cannot write from a Python value are spliced in as text.
MALFORMED = [
    ("object", [1, 2]),
    ("object", "an object"),
    ("object", 7),
    ("id", True),
    ("id", 3.0),
    ("id", "@10**400@"),
    ("x", "3.0"),
    ("y", True),
    ("x", "@1e999@"),
    ("y", "@-1e999@"),
    ("x", "@10**400@"),
    ("occ", 4),
    ("occ", -1),
    ("occ", True),
    ("occ", 2.0),
    ("missing", "id"),
    ("missing", "x"),
    ("missing", "y"),
    ("missing", "occ"),
]
_SPLICES = {'"@10**400@"': "1" + "0" * 400, '"@1e999@"': "1e999", '"@-1e999@"': "-1e999"}


def request_line(msg: dict) -> bytes:
    text = json.dumps(msg)
    for placeholder, literal in _SPLICES.items():
        text = text.replace(placeholder, literal)
    return (text + "\n").encode()


def random_objects(rng, n):
    """``n`` objects in a +/-130 m box, so some lie beyond the 100 m grid; a few coordinates are integers."""
    ids = rng.choice(1000, size=n, replace=False).tolist()
    xs, ys = rng.uniform(-130.0, 130.0, size=(2, n)).tolist()
    occ = rng.integers(0, N_OCCLUSION_LEVELS, size=n).tolist()
    objects = [{"id": i, "x": x, "y": y, "occ": o} for i, x, y, o in zip(ids, xs, ys, occ)]
    for obj in objects:
        if rng.random() < 0.03:
            obj["x"] = int(obj["x"])
        if rng.random() < 0.02:
            obj["y"] = 0.0  # on the x axis: a bearing of +/-pi/2, on a sector edge
    return objects


def stream(seed, n_frames):
    """Request lines of one connection: mostly frames, with resets, duplicate ids, t regressions and bad objects."""
    rng = np.random.default_rng(seed)
    lines = [request_line(protocol.frame_msg(0, [])), request_line(protocol.init_msg("nope", 1))]
    lines.append(request_line(protocol.init_msg("m", seed)))
    t = 0
    for _ in range(n_frames):
        u = rng.random()
        objects = random_objects(rng, int(rng.integers(0, 49)))
        if u < 0.02:
            lines.append(request_line({"type": "reset"}))
            t = 0
            continue
        if u < 0.05 and objects:
            objects.insert(int(rng.integers(0, len(objects) + 1)), dict(objects[int(rng.integers(0, len(objects)))]))
        elif u < 0.08:
            lines.append(request_line(protocol.frame_msg(t - int(rng.integers(0, 3)), objects)))  # t regression
            continue
        elif u < 0.16:
            for _ in range(int(rng.integers(1, 3))):  # of two bad objects, the first names the error
                where, value = MALFORMED[int(rng.integers(0, len(MALFORMED)))]
                good = [k for k, obj in enumerate(objects) if isinstance(obj, dict)]
                if where == "object" or not good:
                    objects.insert(int(rng.integers(0, len(objects) + 1)), value)
                else:
                    k = good[int(rng.integers(0, len(good)))]
                    objects[k] = bad = dict(objects[k])
                    if where == "missing":
                        del bad[value]
                    else:
                        bad[where] = value
        elif u < 0.17:
            lines.append(b"not json\n")
            continue
        t += int(rng.integers(1, 3))
        lines.append(request_line(protocol.frame_msg(t, objects)))
    return lines


def session_replies(models, lines):
    session = Session(models)
    replies = []
    for line in lines:
        try:
            replies.append(session.handle(protocol.parse_request(line)))
        except ProtocolError as exc:
            replies.append(protocol.encode(protocol.error_msg(exc.code, exc.message)))
    return replies


@pytest.mark.parametrize("seed, n_frames", [(1, 1600), (2, 1600)])
def test_replies_match_the_oracle_byte_for_byte(seed, n_frames):
    models = {"m": varied_model()}
    lines = stream(seed, n_frames)
    oracle = OracleSession(models)
    expected = [oracle.reply(line) for line in lines]
    got = session_replies(models, lines)
    assert sum(b'"type": "frame"' in line for line in lines) >= 1500  # over both seeds, at least 3,000 frames
    assert len(got) == len(expected)
    mismatches = [(line, a, b) for line, a, b in zip(lines, got, expected) if a != b]
    assert not mismatches, mismatches[:3]
    kinds = {json.loads(reply).get("code", json.loads(reply)["type"]) for reply in expected}
    assert kinds == {"response", "ack", "malformed", "unknown_model", "not_initialized",
                     "time_regression", "duplicate_id"}
    messages = {json.loads(reply)["message"] for reply in expected if b'"malformed"' in reply}
    assert messages >= {"frame object must be an object", "frame object id must be an integer",
                        "frame object x and y must be numbers", "frame object occ must be an integer in [0,4)"}


def test_overflowing_errors_are_refused_and_the_largest_accepted_stay_finite():
    with pytest.raises(ModelFormatError, match="mu_r must lie within"):
        overflowing_model()
    models = {"m": largest_accepted_model()}
    lines = stream(3, 200)
    got = session_replies(models, lines)
    oracle = OracleSession(models)
    expected = [oracle.reply(line) for line in lines]
    assert got == expected
    assert sum(len(json.loads(reply).get("objects", [])) for reply in got) > 1000
    assert not any(b"Infinity" in reply or b"NaN" in reply for reply in got)


# --- the directly written lines -------------------------------------------------

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**6), 10**6))
world = st.lists(st.tuples(st.integers(-(2**63), 2**63), finite, finite, st.integers(0, 3)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**63), 2**63), world)
def test_frame_line_is_the_encoded_frame(t, objects):
    dicts = [{"id": oid, "x": x, "y": y, "occ": occ} for oid, x, y, occ in objects]
    assert protocol.frame_line(t, objects) == protocol.encode(protocol.frame_msg(t, dicts))


def test_frame_line_writes_levels_as_integers():
    objects = [(1, 2.5, -0.0, OcclusionLevel.VIS3)]
    dicts = [{"id": 1, "x": 2.5, "y": -0.0, "occ": OcclusionLevel.VIS3}]
    assert protocol.frame_line(4, objects) == protocol.encode(protocol.frame_msg(4, dicts))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(2**63), 2**63),
    st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=8,
    ),
)
def test_response_line_is_the_encoded_response(t, perceived):
    dicts = [{"source_id": sid, "x": x, "y": y} for sid, x, y in perceived]
    assert protocol.response_line(t, perceived) == protocol.encode(protocol.response_msg(t, dicts))
