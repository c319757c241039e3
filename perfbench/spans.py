"""Spans recorded from outside the program, by wrapping module attributes.

Each wrapped call records a span (name, start, end, parent) in a per-thread
log held in compact arrays; self time is a span's duration minus the time
its direct children cover. Counts recorded at the same boundaries (objects
injected, matrix cells matched, ...) go into per-thread counters, so server
threads never share a mutable counter. Nothing here changes program code:
``install_*`` functions replace attributes that callers look up at call
time, such as ``pemkit.sim.runner.compute_occlusion``.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class ThreadLog:
    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tags: dict[str, object] = {}


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[ThreadLog] = []

    def thread_log(self) -> ThreadLog:
        """The calling thread's log, created on first use."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog()
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(log, args, kwargs, result, seconds)`` runs outside the span
        and may add counts or samples to the calling thread's log.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            log = self.thread_log()
            idx = len(log.start)
            log.name.append(name_id)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.stack.append(idx)
            log.end.append(0.0)
            t0 = clock()
            log.start.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                log.end[idx] = t1
                log.stack.pop()
            if after is not None:
                after(log, args, kwargs, result, t1 - t0)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def summary(self) -> tuple[dict[str, dict[str, float]], Counter, dict[str, list[float]]]:
        """Per span name: calls, inclusive seconds, self seconds; plus merged counts and samples."""
        calls = np.zeros(len(self._names))
        incl = np.zeros(len(self._names))
        self_s = np.zeros(len(self._names))
        counts: Counter = Counter()
        samples: dict[str, list[float]] = defaultdict(list)
        for log in self.logs:
            counts.update(log.counts)
            for key, values in log.samples.items():
                samples[key].extend(values)
            if not len(log.start):
                continue
            names = np.frombuffer(log.name, dtype=np.uint16)
            parent = np.frombuffer(log.parent, dtype=np.int_)
            dur = np.frombuffer(log.end, dtype=float) - np.frombuffer(log.start, dtype=float)
            child = np.zeros_like(dur)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            n = len(self._names)
            calls += np.bincount(names, minlength=n)
            incl += np.bincount(names, weights=dur, minlength=n)
            self_s += np.bincount(names, weights=dur - child, minlength=n)
        spans = {
            name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self._names)
        }
        return spans, counts, samples

    def save_spans(self, path) -> None:
        """Write every span (thread, name, start, end, parent) as a compressed NumPy archive."""
        arrays = {"names": np.array(self._names)}
        for i, log in enumerate(self.logs):
            arrays[f"t{i}_name"] = np.frombuffer(log.name, dtype=np.uint16)
            arrays[f"t{i}_parent"] = np.frombuffer(log.parent, dtype=np.int_)
            arrays[f"t{i}_start"] = np.frombuffer(log.start, dtype=float)
            arrays[f"t{i}_end"] = np.frombuffer(log.end, dtype=float)
        np.savez_compressed(path, **arrays)


# --- what each process wraps -------------------------------------------------


def _count_inject(log, args, kwargs, result, seconds):
    log.counts["inject.objects"] += len(args[1])
    log.counts["inject.detected"] += len(result[0])


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulate path as ``pemkit simulate`` reaches it in-process."""
    import pemkit.cli as cli
    import pemkit.client as client
    import pemkit.sim.experiment as experiment
    import pemkit.sim.runner as runner

    def after_run(log, args, kwargs, result, seconds):
        log.counts["sim.runner.ticks"] += len(result.ticks)
        log.samples[f"sim.run_ms.{result.scenario_id}"].append(seconds * 1e3)

    def after_frame(log, args, kwargs, result, seconds):
        log.samples["client.frame_us"].append(seconds * 1e6)

    def after_exchange(log, args, kwargs, result, seconds):
        # Keyed by the client's local port, which the server sees as its peer.
        client_obj = args[0]
        port = getattr(client_obj, "_perfbench_port", None)
        if port is None:
            port = client_obj._perfbench_port = client_obj._sock.getsockname()[1]
        log.samples[f"client.rtt_us.{port}"].append(seconds * 1e6)

    tracer.wrap(cli, "cmd_simulate", "cli.simulate")
    tracer.wrap(cli, "write_manifest", "cli.write_manifest")
    tracer.wrap(cli, "run_experiment", "sim.experiment.run_experiment")
    tracer.wrap(experiment, "run_once", "sim.runner.run_once", after_run)
    tracer.wrap(experiment, "min_distance", "sim.metrics.min_distance")
    tracer.wrap(experiment, "perception_metrics", "sim.metrics.perception_metrics")
    tracer.wrap(runner.ModelSource, "perceive", "sim.runner.perceive")
    tracer.wrap(runner.RemoteSource, "perceive", "sim.runner.perceive")
    tracer.wrap(runner, "compute_occlusion", "sim.occlusion.compute_occlusion")
    tracer.wrap(runner, "driving_policy", "sim.policy.driving_policy")
    tracer.wrap(runner, "rect_distance", "sim.metrics.rect_distance")
    tracer.wrap(runner, "apply_pem", "inject.apply_pem", _count_inject)
    tracer.wrap(client.PemClient, "frame", "client.frame", after_frame)
    tracer.wrap(client.PemClient, "exchange_raw", "client.exchange_raw", after_exchange)


def install_server(tracer: Tracer) -> None:
    """Wrap the server's per-request path: parse, handle (inject), encode."""
    import socketserver

    import pemkit.protocol as protocol
    import pemkit.server as server

    def after_parse(log, args, kwargs, result, seconds):
        log.counts["serve.bytes_in"] += len(args[0])
        log.samples["busy"].append(seconds)

    def after_handle(log, args, kwargs, result, seconds):
        log.samples["busy"][-1] += seconds

    def after_encode(log, args, kwargs, result, seconds):
        log.counts["serve.bytes_out"] += len(result)
        msg = args[0]
        if msg.get("type") == "error":
            log.counts[f"serve.errors.{msg['code']}"] += 1
        busy = log.samples["busy"]
        if busy:
            busy[-1] += seconds

    serve_connection = socketserver.ThreadingMixIn.process_request_thread

    def process_request_thread(self, request, client_address):
        tracer.thread_log().tags["peer_port"] = client_address[1]
        return serve_connection(self, request, client_address)

    tracer.wrap(protocol, "parse_request", "protocol.parse_request", after_parse)
    tracer.wrap(protocol, "encode", "protocol.encode", after_encode)
    tracer.wrap(server.Session, "handle", "server.Session.handle", after_handle)
    tracer.wrap(server, "apply_pem", "inject.apply_pem", _count_inject)
    socketserver.ThreadingMixIn.process_request_thread = process_request_thread


def install_learn(tracer: Tracer) -> None:
    """Wrap the learn path: load, match and count, estimate, smooth, save."""
    import pemkit.cli as cli
    import pemkit.learn as learn
    import pemkit.stats as stats

    def after_match(log, args, kwargs, result, seconds):
        log.counts["matching.cost_cells"] += len(args[0]) * len(args[1])
        log.counts["matching.matched"] += len(result.assignments)
        log.counts["matching.unmatched_gt"] += len(result.unmatched_gt)
        log.counts["matching.unmatched_det"] += len(result.unmatched_det)

    def after_fit(log, args, kwargs, result, seconds):
        field = kwargs.get("field_name", args[2] if len(args) > 2 else "field")
        log.samples[f"car.fit_car.s.{field}"].append(seconds)
        log.samples[f"car.iterations.{field}"].append(result.iterations)
        n = args[1].adjacency.shape[0]
        log.tags["car.hessian_mb"] = n * n * 8 / 1e6

    tracer.wrap(cli, "load_dataset", "dataset.load_dataset")
    tracer.wrap(cli, "save_model", "model.save_model")
    tracer.wrap(cli, "write_manifest", "cli.write_manifest")
    tracer.wrap(learn, "accumulate_stats", "stats.accumulate_stats")
    tracer.wrap(learn, "estimate_mle", "stats.estimate_mle")
    tracer.wrap(learn, "fit_car", "car.fit_car", after_fit)
    tracer.wrap(stats, "match_frame", "matching.match_frame", after_match)
    tracer.wrap(stats, "condition_of", "geometry.condition_of")
