"""Run ``pemkit serve`` with span recording installed.

Usage: python3 serve_launcher.py SUMMARY_JSON serve [serve options...]

Installs the server wrappers, then calls ``pemkit.cli.main`` with the
remaining arguments. When a client sends the wire shutdown request and
``serve`` returns, it writes the span summary, the per-connection busy time
of every request (parse + handle + encode) and the span archive.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from spans import Tracer, install_server


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    install_server(tracer)
    import pemkit.cli

    code = pemkit.cli.main(sys.argv[2:])
    spans, counts, _ = tracer.summary()
    connections = {}
    first, last = np.inf, -np.inf
    for log in tracer.logs:
        busy = log.samples.get("busy")
        if "peer_port" in log.tags and busy:
            connections[str(log.tags["peer_port"])] = busy
        if len(log.start):
            first = min(first, log.start[0])
            last = max(last, max(log.end))
    summary = {
        "code": code,
        "spans": spans,
        "counts": dict(counts),
        "connections": connections,
        "window_s": float(last - first) if connections else 0.0,
    }
    out.write_text(json.dumps(summary), encoding="utf-8")
    tracer.save_spans(out.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
