"""Line-delimited JSON wire protocol between a simulator and the model server.

One JSON document per newline-terminated UTF-8 line. Requests are init /
frame / reset / shutdown; replies are response / error / ack. Encoding is
canonical (sorted keys, no whitespace) so a given reply is byte-stable.
"""

from __future__ import annotations

import json
import math

from .geometry import N_OCCLUSION_LEVELS

DEFAULT_PORT = 9223

ERR_MALFORMED = "malformed"
ERR_UNKNOWN_MODEL = "unknown_model"
ERR_NOT_INITIALIZED = "not_initialized"
ERR_TIME_REGRESSION = "time_regression"
ERR_DUPLICATE_ID = "duplicate_id"


class ProtocolError(ValueError):
    """A request line failed validation; carries the wire error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def encode(msg: dict) -> bytes:
    return (json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def error_msg(code: str, message: str) -> dict:
    return {"type": "error", "code": code, "message": message}


def ack_msg(of: str) -> dict:
    return {"type": "ack", "of": of}


def response_msg(t: int, objects: list[dict]) -> dict:
    return {"type": "response", "t": t, "objects": objects}


def init_msg(model: str, seed: int, rate_hz: float = 2.0) -> dict:
    return {"type": "init", "model": model, "seed": seed, "rate_hz": rate_hz}


def frame_msg(t: int, objects: list[dict]) -> dict:
    return {"type": "frame", "t": t, "objects": objects}


def _reject_constant(name: str):
    raise ProtocolError(ERR_MALFORMED, f"non-finite number {name} is not allowed")


# One decoder for every line: json.loads with keyword arguments would build a
# new decoder per call. NaN and +/-Infinity are not JSON numbers; reject them.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _is_number(v) -> bool:
    """An int (not bool) or a finite float; literals such as 1e999 overflow to inf."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def parse_request(line: bytes | str) -> dict:
    """Decode and structurally validate one request line.

    Raises ProtocolError with a stable error code and message; the caller
    turns that into an error reply without dropping the session.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError(ERR_MALFORMED, "line is not valid UTF-8")
    try:
        msg = _DECODER.decode(line)
    except json.JSONDecodeError:
        raise ProtocolError(ERR_MALFORMED, "line is not valid JSON")
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError(ERR_MALFORMED, "request must be an object with a type field")
    kind = msg["type"]
    if kind == "init":
        if not isinstance(msg.get("model"), str):
            raise ProtocolError(ERR_MALFORMED, "init.model must be a string")
        if not _is_int(msg.get("seed")) or msg["seed"] < 0:
            raise ProtocolError(ERR_MALFORMED, "init.seed must be a non-negative integer")
        if not _is_number(msg.get("rate_hz")) or msg["rate_hz"] <= 0:
            raise ProtocolError(ERR_MALFORMED, "init.rate_hz must be a positive number")
        return msg
    if kind == "frame":
        if not _is_int(msg.get("t")):
            raise ProtocolError(ERR_MALFORMED, "frame.t must be an integer")
        objects = msg.get("objects")
        if not isinstance(objects, list):
            raise ProtocolError(ERR_MALFORMED, "frame.objects must be a list")
        for obj in objects:
            if not isinstance(obj, dict):
                raise ProtocolError(ERR_MALFORMED, "frame object must be an object")
            if not _is_int(obj.get("id")):
                raise ProtocolError(ERR_MALFORMED, "frame object id must be an integer")
            if not _is_number(obj.get("x")) or not _is_number(obj.get("y")):
                raise ProtocolError(ERR_MALFORMED, "frame object x and y must be numbers")
            if not _is_int(obj.get("occ")) or not (0 <= obj["occ"] < N_OCCLUSION_LEVELS):
                raise ProtocolError(ERR_MALFORMED, "frame object occ must be an integer in [0,4)")
        return msg
    if kind in ("reset", "shutdown"):
        return msg
    raise ProtocolError(ERR_MALFORMED, f"unknown request type {kind!r}")
