"""One ``pemkit learn`` call in a fresh process, timed apart from its imports.

Usage: python3 learn_worker.py RESULT_JSON TRACE(0|1) learn [learn options...]

A fresh process per call keeps costs that every ``pemkit learn`` user pays,
such as the first threaded BLAS solve, inside the timed part, while the
interpreter start and imports stay outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, install_learn


def main() -> int:
    out = Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    import pemkit.cli

    tracer = None
    if traced:
        tracer = Tracer()
        install_learn(tracer)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = pemkit.cli.main(sys.argv[3:])
        learn_s = time.perf_counter() - t0
    result = {
        "code": code,
        "learn_s": learn_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans, counts, samples = tracer.summary()
        tags = {k: v for log in tracer.logs for k, v in log.tags.items()}
        result.update(spans=spans, counts=dict(counts), samples=dict(samples), tags=tags)
        tracer.save_spans(out.with_suffix(".npz"))
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
