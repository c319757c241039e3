"""TCP server exposing loaded models to an external simulator process.

Each connection adapts the wire protocol to one ``inject.InjectorSession``,
the object a local ``ModelSource`` drives in-process; the model registry is
read-only after startup, so sessions never share mutable state. Protocol
violations produce one error reply and leave the session running.

One thread, the one that calls ``PemServer.serve_forever``, serves every
connection from an asyncio event loop: it accepts, reads, parses, handles and
writes. Replies on a connection go out in request order. A connection whose
unsent replies pass ``MAX_PENDING_BYTES`` is not read until they drain, so a
client that stops reading holds a bounded amount of server memory and delays
no other session.
"""

from __future__ import annotations

import socket
import sys
import threading
import traceback

from . import protocol
from .inject import DuplicateIdError, InjectorSession, TimeRegressionError
from .inject import apply_pem  # noqa: F401  kept resolvable: perfbench wraps server.apply_pem
from .model import PemModel

# Longest request line accepted, newline included: room for ~15,000 objects.
MAX_LINE_BYTES = 1 << 20
# Unsent reply bytes past which a connection's requests are left unread.
MAX_PENDING_BYTES = 1 << 20
_OVERLONG = protocol.error_msg(protocol.ERR_MALFORMED, f"request line longer than {MAX_LINE_BYTES} bytes")


class Session:
    """Per-connection protocol state: the injector session opened by ``init``."""

    def __init__(self, models: dict[str, PemModel]):
        self._models = models
        self.injector: InjectorSession | None = None

    def handle(self, msg: dict) -> bytes:
        """The reply line to a request that ``protocol.parse_request`` accepted."""
        kind = msg["type"]
        if kind == "frame" and self.injector is not None:
            try:
                perceived = self.injector.frame(msg["t"], msg["objects"])
            except TimeRegressionError as exc:
                return protocol.encode(protocol.error_msg(protocol.ERR_TIME_REGRESSION, str(exc)))
            except DuplicateIdError as exc:
                return protocol.encode(protocol.error_msg(protocol.ERR_DUPLICATE_ID, str(exc)))
            return protocol.response_line(msg["t"], perceived)
        if kind == "init":
            name = msg["model"]
            if name not in self._models:
                return protocol.encode(protocol.error_msg(protocol.ERR_UNKNOWN_MODEL, f"no model named {name!r}"))
            self.injector = InjectorSession(self._models[name], msg["seed"])
            return protocol.encode(protocol.ack_msg("init"))
        if self.injector is None:
            return protocol.encode(protocol.error_msg(protocol.ERR_NOT_INITIALIZED, f"{kind} before init"))
        if kind == "reset":
            self.injector.reset()
            return protocol.encode(protocol.ack_msg("reset"))
        raise AssertionError(f"unroutable message {kind}")  # parse_request screens types


class _Connection:
    """Protocol callbacks for one client: its session, unparsed input and reply transport.

    The event loop calls these methods by name, so the class need not
    subclass ``asyncio.Protocol`` and the module need not import asyncio.
    """

    __slots__ = ("server", "transport", "session", "inbuf", "scanned", "skipping", "eof", "stops_server")

    def __init__(self, server: "PemServer"):
        self.server = server
        self.session = Session(server._models)
        self.inbuf = bytearray()
        self.scanned = 0  # inbuf[:scanned] holds no newline: a line read in many pieces is scanned once
        self.skipping = False  # dropping the rest of an over-long line
        self.eof = False  # the client shut down its side: no more requests
        self.stops_server = False  # sent the shutdown request; the server stops once this closes

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(high=MAX_PENDING_BYTES, low=MAX_PENDING_BYTES)
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        if self.stops_server:
            self.server._loop.stop()

    def data_received(self, data: bytes) -> None:
        self.inbuf += data
        self._answer_lines()

    def eof_received(self) -> bool:
        self.eof = True
        self._answer_lines()
        return True  # kept open until the last reply is queued; _answer_lines closes it

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        self._answer_lines()

    def _answer_lines(self) -> None:
        """Answer buffered requests until none is complete or unsent replies pass the cap.

        Lines are cut as ``readline(MAX_LINE_BYTES)`` cuts them: a longer
        line gets one malformed reply and is dropped through its newline,
        and an unterminated tail at end of input is a line. A failure is
        confined to this connection: it is closed and the rest are served on.
        """
        buf = self.inbuf
        try:
            while self.transport.is_reading():  # False while paused by the reply cap, or once closing
                if self.skipping:
                    end = buf.find(b"\n")
                    if end < 0:
                        buf.clear()
                    else:
                        del buf[: end + 1]
                        self.skipping = False
                end = buf.find(b"\n", self.scanned, MAX_LINE_BYTES)
                if end >= 0:
                    line = bytes(buf[: end + 1])
                    del buf[: end + 1]
                elif len(buf) >= MAX_LINE_BYTES:
                    del buf[:MAX_LINE_BYTES]
                    self.skipping = True
                    self.scanned = 0
                    self.transport.write(protocol.encode(_OVERLONG))
                    continue
                elif self.eof and buf:
                    line = bytes(buf)
                    buf.clear()
                elif self.eof:
                    self.transport.close()  # after the queued replies are sent
                    return
                else:
                    self.scanned = len(buf)
                    return
                self.scanned = 0
                self._answer(line)
        except Exception:
            peer = self.transport.get_extra_info("peername")
            print("-" * 40, file=sys.stderr)
            print(f"Exception occurred during processing of request from {peer}", file=sys.stderr)
            traceback.print_exc()
            print("-" * 40, file=sys.stderr)
            self.transport.abort()

    def _answer(self, line: bytes) -> None:
        try:
            msg = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            self.transport.write(protocol.encode(protocol.error_msg(exc.code, exc.message)))
            return
        if msg["type"] == "shutdown":
            self.transport.write(protocol.encode(protocol.ack_msg("shutdown")))
            self.stops_server = True
            self.transport.close()
            return
        self.transport.write(self.session.handle(msg))


class PemServer:
    """Serves a read-only model registry; one session per connection.

    Binds on construction (so bind failures surface as startup errors);
    ``serve_forever`` blocks until ``shutdown`` is called or a client sends a
    shutdown request, and then closes every connection. It may be called
    again after it returns, until ``close``.
    """

    def __init__(self, models: dict[str, PemModel], host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT):
        if not models:
            raise ValueError("at least one model is required")
        self._models = dict(models)
        self._listener = socket.create_server((host, port))
        import asyncio  # here, not at module level: simulate and learn never pay for its import

        self._loop = asyncio.new_event_loop()
        # Made once: asyncio closes a listening socket when its server closes,
        # and serve_forever may run again after shutdown.
        listening = self._loop.create_server(lambda: _Connection(self), sock=self._listener)
        self._server = self._loop.run_until_complete(listening)
        self._connections: set[_Connection] = set()
        self._loop_thread: int | None = None
        self._idle = threading.Event()
        self._idle.set()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        import asyncio  # already loaded by the constructor

        self._loop_thread = threading.get_ident()
        self._idle.clear()
        try:
            self._loop.run_forever()
        finally:
            # Abort every connection, then run the loop a step: that runs the
            # connection_lost callbacks and finishes accepts still in flight.
            while self._connections or asyncio.all_tasks(self._loop):
                for conn in list(self._connections):
                    conn.transport.abort()
                self._loop.call_soon(self._loop.stop)
                self._loop.run_forever()
            self._loop_thread = None
            self._idle.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever``; from another thread, wait until it has returned.

        Safe to call on the serving thread itself, e.g. from a signal handler.
        """
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:  # the server is closed
            return
        if self._loop_thread not in (None, threading.get_ident()):
            self._idle.wait()

    def close(self) -> None:
        self._server.close()
        self._loop.close()

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
