"""Every attribute the benchmark's tracer wraps still resolves to a callable.

``perfbench/spans.py`` replaces module and class attributes such as
``pemkit.sim.runner.compute_occlusion`` at run time. Removing one of them (a
re-export kept only for the tracer, say) breaks the benchmark, so the install
functions run here against a stub tracer that only looks each target up.
"""

import importlib.util
import socketserver
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class StubTracer:
    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, name, after=None):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} ({name})"
        self.targets.append((owner, attr))


def test_every_wrapped_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # install_server replaces this method; monkeypatch puts the original back afterwards.
    monkeypatch.setattr(
        socketserver.ThreadingMixIn, "process_request_thread", socketserver.ThreadingMixIn.process_request_thread
    )
    tracer = StubTracer()
    spans.install_sim(tracer)
    spans.install_server(tracer)
    spans.install_learn(tracer)
    assert len(tracer.targets) == 26
