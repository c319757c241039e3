"""Lifecycle of a real ``pemkit serve`` process: start, wait, stop over the wire.

The server is stopped only with the protocol's ``{"type":"shutdown"}``
request. A signal is not used: ``cmd_serve`` installs SIGINT/SIGTERM
handlers that call ``socketserver.shutdown()`` on the thread that runs
``serve_forever``, so the process deadlocks on either signal (see NOTES.md).
A server that does not exit after the shutdown request is killed and
reported as a failure.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``pemkit serve`` child on 127.0.0.1.

    ``argv_prefix`` is the interpreter command that runs the CLI, e.g.
    ``[python, "-m", "pemkit.cli"]`` or a launcher script that installs
    tracing first; ``models`` maps a model name to its JSON path.
    """

    def __init__(self, argv_prefix: list[str], models: dict[str, Path], env: dict, cwd: Path, log_path: Path):
        self.port = free_port()
        argv = list(argv_prefix) + ["serve", "--host", "127.0.0.1", "--port", str(self.port)]
        for name, path in models.items():
            argv += ["--model", f"{name}={path}"]
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> None:
        """Block until the server accepts a TCP connection."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start with code {self.proc.returncode}")
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server not accepting on port {self.port} after {timeout} s")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) from /proc, in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = STOP_TIMEOUT_S) -> bool:
        """Send the wire shutdown request; return True if the process exited cleanly."""
        clean = False
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as sock:
                sock.sendall(b'{"type":"shutdown"}\n')
                reply = sock.makefile("rb").readline()
            clean = json.loads(reply) == {"type": "ack", "of": "shutdown"}
        except (OSError, ValueError) as exc:
            print(f"shutdown request failed: {exc}", file=sys.stderr)
        try:
            code = self.proc.wait(timeout=timeout)
            clean = clean and code == 0
        except subprocess.TimeoutExpired:
            print(f"server pid {self.proc.pid} did not exit after shutdown; killing it", file=sys.stderr)
            self.proc.kill()
            self.proc.wait()
            clean = False
        self._log.close()
        return clean

    def kill(self) -> None:
        """Last resort for error paths: the process must not outlive the benchmark."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def child_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
