"""TCP server exposing loaded models to an external simulator process.

Each connection adapts the wire protocol to one ``inject.InjectorSession``,
the object a local ``ModelSource`` drives in-process; the model registry is
read-only after startup, so sessions never share mutable state. Protocol
violations produce one error reply and leave the session running.

One thread, the one that calls ``PemServer.serve_forever``, serves every
connection from a ``selectors`` loop over non-blocking sockets: it accepts,
reads, parses, handles and writes. Replies on a connection go out in request
order. A connection whose unsent replies pass ``MAX_PENDING_BYTES`` is not
read until they drain, so a client that stops reading holds a bounded amount
of server memory and delays no other session.
"""

from __future__ import annotations

import selectors
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
# Most bytes taken from a socket per read.
RECV_BYTES = 1 << 16
_OVERLONG = protocol.error_msg(protocol.ERR_MALFORMED, f"request line longer than {MAX_LINE_BYTES} bytes")


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


class _Connection:
    """One client socket with its session, unparsed input and unsent replies."""

    __slots__ = ("sock", "peer", "session", "inbuf", "scanned", "skipping", "out", "eof", "stops_server", "events")

    def __init__(self, sock: socket.socket, peer, session: Session):
        self.sock = sock
        self.peer = peer
        self.session = session
        self.inbuf = bytearray()
        self.scanned = 0  # inbuf[:scanned] holds no newline: a line read in many pieces is scanned once
        self.skipping = False  # dropping the rest of an over-long line
        self.out = bytearray()
        self.eof = False  # no more requests: the client shut down its side, or asked the server to stop
        self.stops_server = False  # sent the shutdown request; the server stops once this closes
        self.events = selectors.EVENT_READ


class PemServer:
    """Serves a read-only model registry; one session per connection.

    Binds on construction (so bind failures surface as startup errors);
    ``serve_forever`` blocks until ``shutdown`` is called or a client sends a
    shutdown request, and then closes every connection.
    """

    def __init__(self, models: dict[str, PemModel], host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT):
        if not models:
            raise ValueError("at least one model is required")
        self._models = dict(models)
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._stop = False
        self._loop_thread: int | None = None
        self._idle = threading.Event()
        self._idle.set()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        self._loop_thread = threading.get_ident()
        self._idle.clear()
        sel = selectors.DefaultSelector()
        try:
            sel.register(self._listener, selectors.EVENT_READ)
            sel.register(self._wake_r, selectors.EVENT_READ)
            while not self._stop:
                for key, mask in sel.select():
                    if key.data is not None:
                        self._service(sel, key.data, mask)
                    elif key.fileobj is self._listener:
                        self._accept(sel)
                    else:
                        self._wake_r.recv(4096)
        finally:
            for key in list(sel.get_map().values()):
                if key.data is not None:
                    self._close(sel, key.data)
            sel.close()
            self._stop = False
            self._loop_thread = None
            self._idle.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever``; from another thread, wait until it has returned.

        Safe to call on the serving thread itself, e.g. from a signal handler.
        """
        self._stop = True
        try:
            self._wake_w.send(b"\0")
        except OSError:  # the wake-up buffer is full (a wake-up is pending), or the server is closed
            pass
        if self._loop_thread not in (None, threading.get_ident()):
            self._idle.wait()

    def close(self) -> None:
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def __enter__(self) -> "PemServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.close()

    def _accept(self, sel: selectors.BaseSelector) -> None:
        try:
            sock, peer = self._listener.accept()
        except OSError:  # the client gave up before the accept, or no descriptor is free
            return
        sock.setblocking(False)
        conn = _Connection(sock, peer, Session(self._models))
        sel.register(sock, conn.events, conn)

    def _service(self, sel: selectors.BaseSelector, conn: _Connection, mask: int) -> None:
        """Read what ``conn`` sent, answer every complete request and write what the socket takes.

        A failure is confined to this connection: it is closed and the rest
        are served on.
        """
        try:
            if mask & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(RECV_BYTES)
                except BlockingIOError:  # a spurious wake-up
                    data = None
                if data:
                    conn.inbuf += data
                elif data is not None:
                    conn.eof = True
            while True:
                capped = self._handle_lines(conn)
                if conn.out:
                    try:
                        del conn.out[: conn.sock.send(conn.out)]
                    except BlockingIOError:
                        pass
                if conn.out or not capped:
                    break  # the socket is full (write again when it drains), or every complete request is answered
        except ConnectionError:  # the client reset or closed while replies were due
            self._close(sel, conn)
            return
        except Exception:
            print("-" * 40, file=sys.stderr)
            print(f"Exception occurred during processing of request from {conn.peer}", file=sys.stderr)
            traceback.print_exc()
            print("-" * 40, file=sys.stderr)
            self._close(sel, conn)
            return
        events = selectors.EVENT_WRITE if conn.out else 0
        if not conn.eof and len(conn.out) <= MAX_PENDING_BYTES:
            events |= selectors.EVENT_READ
        if not events:
            self._close(sel, conn)
        elif events != conn.events:
            conn.events = events
            sel.modify(conn.sock, events, conn)

    def _handle_lines(self, conn: _Connection) -> bool:
        """Answer buffered requests until none is complete or unsent replies pass the cap.

        Lines are cut as ``readline(MAX_LINE_BYTES)`` cuts them: a longer
        line gets one malformed reply and is dropped through its newline,
        and an unterminated tail at end of input is a line. Returns True when
        the cap stopped it.
        """
        buf = conn.inbuf
        while len(conn.out) <= MAX_PENDING_BYTES:
            if conn.skipping:
                end = buf.find(b"\n")
                if end < 0:
                    buf.clear()
                    return False
                del buf[: end + 1]
                conn.skipping = False
            end = buf.find(b"\n", conn.scanned, MAX_LINE_BYTES)
            if end >= 0:
                line = bytes(buf[: end + 1])
                del buf[: end + 1]
            elif len(buf) >= MAX_LINE_BYTES:
                del buf[:MAX_LINE_BYTES]
                conn.skipping = True
                conn.out += protocol.encode(_OVERLONG)
                conn.scanned = 0
                continue
            elif conn.eof and buf:
                line = bytes(buf)
                buf.clear()
            else:
                conn.scanned = len(buf)
                return False
            conn.scanned = 0
            self._answer(conn, line)
        return True

    def _answer(self, conn: _Connection, line: bytes) -> None:
        try:
            msg = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            conn.out += protocol.encode(protocol.error_msg(exc.code, exc.message))
            return
        if msg["type"] == "shutdown":
            conn.out += protocol.encode(protocol.ack_msg("shutdown"))
            conn.inbuf.clear()
            conn.eof = conn.stops_server = True
            return
        conn.out += protocol.encode(conn.session.handle(msg))

    def _close(self, sel: selectors.BaseSelector, conn: _Connection) -> None:
        sel.unregister(conn.sock)
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:  # the client is already gone
            pass
        conn.sock.close()
        if conn.stops_server:
            self._stop = True


def serve_in_thread(models: dict[str, PemModel], host: str = "127.0.0.1", port: int = 0) -> tuple[PemServer, threading.Thread]:
    """Start a server on a background thread (port 0 picks a free port)."""
    server = PemServer(models, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
