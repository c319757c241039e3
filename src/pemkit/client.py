"""Client side of the wire protocol, plus conformance-transcript tooling."""

from __future__ import annotations

import json
import socket
from pathlib import Path

from . import protocol
from .checks import require


class RemoteError(RuntimeError):
    """The server answered with an error reply."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ServerGone(ConnectionError):
    """The connection dropped mid-exchange."""


class PemClient:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PemClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def exchange_raw(self, line: bytes) -> bytes:
        """Send one raw line and read one raw reply line (both newline-terminated)."""
        self._sock.sendall(line)
        reply = self._rfile.readline()
        if not reply:
            raise ServerGone("server closed the connection")
        return reply

    def request(self, msg: dict) -> dict:
        reply = require(json.loads(self.exchange_raw(protocol.encode(msg))), "server reply", dict)
        if reply.get("type") == "error":
            raise RemoteError(reply.get("code", "?"), reply.get("message", ""))
        return reply

    def init(self, model: str, seed: int, rate_hz: float = 2.0) -> dict:
        return self.request(protocol.init_msg(model, seed, rate_hz))

    def frame(self, t: int, objects: list[dict]) -> list[dict]:
        return self.request(protocol.frame_msg(t, objects))["objects"]

    def reset(self) -> dict:
        return self.request({"type": "reset"})

    def shutdown_server(self) -> dict:
        return self.request({"type": "shutdown"})


def conformance_requests(model_name: str = "conformance") -> list[str]:
    """The scripted request lines behind the shipped conformance transcript.

    Exercises the happy path, every error code, reset reseeding, and session
    survival after malformed input, all under a fixed seed.
    """
    enc = lambda msg: protocol.encode(msg).decode("utf-8").rstrip("\n")
    objs3 = [
        {"id": 1, "x": -4.0, "y": 25.0, "occ": 3},
        {"id": 2, "x": 10.0, "y": 40.0, "occ": 2},
        {"id": 3, "x": 0.5, "y": 80.0, "occ": 0},
    ]
    dup = [{"id": 7, "x": 0.0, "y": 10.0, "occ": 3}, {"id": 7, "x": 1.0, "y": 12.0, "occ": 3}]
    far = [{"id": 9, "x": 0.0, "y": 150.0, "occ": 3}]
    return [
        enc(protocol.frame_msg(0, objs3)),  # before init
        enc(protocol.init_msg("no-such-model", 1, 2.0)),
        enc(protocol.init_msg(model_name, 42, 2.0)),
        enc(protocol.frame_msg(0, objs3)),
        enc(protocol.frame_msg(1, objs3)),
        "this is not json",
        enc(protocol.frame_msg(1, objs3)),  # time regression
        enc(protocol.frame_msg(2, dup)),
        enc(protocol.frame_msg(3, objs3)),  # session survived
        enc(protocol.frame_msg(4, far)),  # out of range: empty response
        enc(protocol.frame_msg(5, [])),
        enc({"type": "reset"}),
        enc(protocol.frame_msg(0, objs3)),  # restarted clock, reseeded stream
        enc(protocol.frame_msg(1, objs3)),
    ]


def record_transcript(host: str, port: int, requests: list[str], path: str | Path) -> None:
    """Run the requests against a live server and store request/reply pairs."""
    lines = []
    with PemClient(host, port) as client:
        for req in requests:
            reply = client.exchange_raw((req + "\n").encode("utf-8"))
            lines.append({"dir": "c2s", "line": req})
            lines.append({"dir": "s2c", "line": reply.decode("utf-8").rstrip("\n")})
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in lines:
            fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")


def replay_transcript(path: str | Path, host: str, port: int) -> list[str]:
    """Replay a transcript against a live server; return byte-level mismatches."""
    entries = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    mismatches = []
    with PemClient(host, port) as client:
        i = 0
        while i < len(entries):
            entry = entries[i]
            if entry["dir"] != "c2s":
                raise ValueError(f"transcript entry {i} should be c2s")
            expected = None
            if i + 1 < len(entries) and entries[i + 1]["dir"] == "s2c":
                expected = entries[i + 1]["line"]
            reply = client.exchange_raw((entry["line"] + "\n").encode("utf-8"))
            got = reply.decode("utf-8").rstrip("\n")
            if expected is not None and got != expected:
                mismatches.append(f"request {entry['line']!r}: expected {expected!r}, got {got!r}")
            i += 2 if expected is not None else 1
    return mismatches
