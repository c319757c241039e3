"""TCP server exposing loaded models to an external simulator process.

Each connection adapts the wire protocol to one ``inject.InjectorSession``,
the object a local ``ModelSource`` drives in-process; the model registry is
read-only after startup, so sessions never share mutable state. Protocol
violations produce one error reply and leave the session running.
"""

from __future__ import annotations

import socketserver
import threading

from . import protocol
from .inject import DuplicateIdError, InjectorSession, TimeRegressionError
from .inject import apply_pem  # noqa: F401  kept resolvable: perfbench wraps server.apply_pem
from .model import PemModel

# Longest request line accepted, newline included: room for ~15,000 objects.
MAX_LINE_BYTES = 1 << 20


class Session:
    """Per-connection protocol state: the injector session opened by ``init``."""

    def __init__(self, models: dict[str, PemModel]):
        self._models = models
        self.injector: InjectorSession | None = None

    def handle(self, msg: dict) -> dict:
        kind = msg["type"]
        if kind == "init":
            name = msg["model"]
            if name not in self._models:
                return protocol.error_msg(protocol.ERR_UNKNOWN_MODEL, f"no model named {name!r}")
            self.injector = InjectorSession(self._models[name], msg["seed"])
            return protocol.ack_msg("init")
        if self.injector is None:
            return protocol.error_msg(protocol.ERR_NOT_INITIALIZED, f"{kind} before init")
        if kind == "reset":
            self.injector.reset()
            return protocol.ack_msg("reset")
        if kind == "frame":
            try:
                perceived = self.injector.frame(msg["t"], [(o["id"], o["x"], o["y"], o["occ"]) for o in msg["objects"]])
            except TimeRegressionError as exc:
                return protocol.error_msg(protocol.ERR_TIME_REGRESSION, str(exc))
            except DuplicateIdError as exc:
                return protocol.error_msg(protocol.ERR_DUPLICATE_ID, str(exc))
            return protocol.response_msg(msg["t"], [{"source_id": sid, "x": x, "y": y} for sid, x, y in perceived])
        raise AssertionError(f"unroutable message {kind}")  # parse_request screens types


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        session = Session(self.server.models)  # type: ignore[attr-defined]
        while raw := self.rfile.readline(MAX_LINE_BYTES):
            if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                message = f"request line longer than {MAX_LINE_BYTES} bytes"
                self.wfile.write(protocol.encode(protocol.error_msg(protocol.ERR_MALFORMED, message)))
                while (rest := self.rfile.readline(MAX_LINE_BYTES)) and not rest.endswith(b"\n"):
                    pass  # discard the rest of the line
                continue
            try:
                msg = protocol.parse_request(raw)
            except protocol.ProtocolError as exc:
                self.wfile.write(protocol.encode(protocol.error_msg(exc.code, exc.message)))
                continue
            if msg["type"] == "shutdown":
                self.wfile.write(protocol.encode(protocol.ack_msg("shutdown")))
                self.wfile.flush()
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            self.wfile.write(protocol.encode(session.handle(msg)))


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class PemServer:
    """Serves a read-only model registry; one session per connection.

    Binds on construction (so bind failures surface as startup errors);
    ``serve_forever`` blocks until ``shutdown`` is called or a client sends a
    shutdown request.
    """

    def __init__(self, models: dict[str, PemModel], host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT):
        if not models:
            raise ValueError("at least one model is required")
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.models = dict(models)  # type: ignore[attr-defined]

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._tcp.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        self._tcp.shutdown()

    def close(self) -> None:
        self._tcp.server_close()

    def __enter__(self) -> "PemServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.close()


def serve_in_thread(models: dict[str, PemModel], host: str = "127.0.0.1", port: int = 0) -> tuple[PemServer, threading.Thread]:
    """Start a server on a background thread (port 0 picks a free port)."""
    server = PemServer(models, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
