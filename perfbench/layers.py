"""Per-layer metrics of a traced run, named as in BENCHMARK.json.

Every traced run reports every metric; a layer the workload does not reach
reports 0 calls and 0 seconds. Times are totals over the traced pass, whose
amount of work is fixed, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics

from pemkit import protocol
from pemkit.stats import FIELD_NAMES as FIELDS

from workloads import SCENARIOS, Pass, percentile

ERROR_CODES = (
    protocol.ERR_MALFORMED,
    protocol.ERR_UNKNOWN_MODEL,
    protocol.ERR_NOT_INITIALIZED,
    protocol.ERR_TIME_REGRESSION,
    protocol.ERR_DUPLICATE_ID,
)

PER_LAYER: list[tuple[str, str]] = [
    ("sim.experiment.run_experiment.s", "s"),
    ("sim.runner.run_once.self_s", "s"),
    ("sim.runner.ticks", "count"),
    ("sim.runner.perceive.calls", "count"),
    ("sim.runner.perceive.self_s", "s"),
    ("sim.occlusion.compute_occlusion.calls", "count"),
    ("sim.occlusion.compute_occlusion.s", "s"),
    ("sim.policy.driving_policy.calls", "count"),
    ("sim.policy.driving_policy.s", "s"),
    ("sim.metrics.rect_distance.calls", "count"),
    ("sim.metrics.rect_distance.s", "s"),
    ("sim.metrics.min_distance.s", "s"),
    ("sim.metrics.perception_metrics.s", "s"),
    *[(f"sim.run_ms_p50.{sc}", "ms") for sc in SCENARIOS],
    ("cli.simulate.self_s", "s"),
    ("inject.apply_pem.calls", "count"),
    ("inject.apply_pem.s", "s"),
    ("inject.objects", "count"),
    ("inject.detected", "count"),
    ("protocol.parse_request.calls", "count"),
    ("protocol.parse_request.s", "s"),
    ("server.Session.handle.self_s", "s"),
    ("protocol.encode.s", "s"),
    ("server.busy_frac", "1"),
    ("serve.wait_us_p50", "us"),
    ("serve.bytes_in", "bytes"),
    ("serve.bytes_out", "bytes"),
    *[(f"serve.errors.{code}", "count") for code in ERROR_CODES],
    ("serve.frame_ms_p99", "ms"),
    ("client.frame.calls", "count"),
    ("client.frame_us_p50", "us"),
    ("client.frame_us_p99", "us"),
    ("dataset.load_dataset.s", "s"),
    ("stats.accumulate_stats.self_s", "s"),
    ("matching.match_frame.calls", "count"),
    ("matching.match_frame.s", "s"),
    ("matching.cost_cells", "count"),
    ("matching.matched", "count"),
    ("matching.unmatched_gt", "count"),
    ("matching.unmatched_det", "count"),
    ("geometry.condition_of.calls", "count"),
    ("geometry.condition_of.s", "s"),
    ("stats.estimate_mle.s", "s"),
    *[(f"car.fit_car.s.{f}", "s") for f in FIELDS],
    *[(f"car.iterations.{f}", "count") for f in FIELDS],
    ("car.hessian_mb", "MB"),
    ("model.save_model.s", "s"),
    ("cli.write_manifest.s", "s"),
    ("learn.pi1_rmse", "1"),
    ("trace.overhead.throughput_per_s", "1/s"),
    ("trace.overhead.latency_ms_p50", "ms"),
    ("trace.overhead_frac", "1"),
]


def _merge_spans(*span_sets: dict) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for spans in span_sets:
        for name, fig in spans.items():
            into = merged.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += fig[key]
    return merged


def _wait_us(rtt_us: dict[str, list[float]], connections: dict[str, list[float]]) -> list[float]:
    """Client round trip minus server busy time, request by request, per connection."""
    waits = []
    for port, rtts in rtt_us.items():
        busy = connections.get(port)
        if busy is not None and len(busy) == len(rtts):
            waits.extend(r - b * 1e6 for r, b in zip(rtts, busy))
    return waits


def per_layer(untraced: Pass, traced: Pass, server: dict | None) -> dict[str, float]:
    server = server or {}
    spans = _merge_spans(traced.spans, server.get("spans", {}))
    counts = dict(traced.counts)
    for key, value in server.get("counts", {}).items():
        counts[key] = counts.get(key, 0) + value
    samples = traced.samples

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            values[name] = span(base, key)
        elif name in counts:
            values[name] = float(counts[name])
        else:
            values[name] = 0.0

    for sc in SCENARIOS:
        runs = samples.get(f"sim.run_ms.{sc}", [])
        values[f"sim.run_ms_p50.{sc}"] = statistics.median(runs) if runs else 0.0
    frame_us = samples.get("client.frame_us", [])
    values["client.frame_us_p50"] = percentile(frame_us, 50)
    values["client.frame_us_p99"] = percentile(frame_us, 99)

    for f in FIELDS:
        values[f"car.fit_car.s.{f}"] = float(sum(samples.get(f"car.fit_car.s.{f}", [])))
        values[f"car.iterations.{f}"] = float(sum(samples.get(f"car.iterations.{f}", [])))
    values["car.hessian_mb"] = float(traced.tags.get("car.hessian_mb", 0.0))

    connections = server.get("connections", {})
    busy_total = sum(sum(b) for b in connections.values())
    window = server.get("window_s", 0.0)
    values["server.busy_frac"] = busy_total / window if window > 0 else 0.0
    rtt_us = dict(traced.artifacts.get("rtt_us", {}))
    for key, rtts in samples.items():
        if key.startswith("client.rtt_us."):
            rtt_us[key.rpartition(".")[2]] = rtts
    waits = _wait_us(rtt_us, connections)
    values["serve.wait_us_p50"] = percentile(waits, 50)

    values["serve.frame_ms_p99"] = float(untraced.artifacts.get("p99_ms", 0.0))
    values["learn.pi1_rmse"] = float(untraced.artifacts.get("pi1_rmse") or 0.0)
    values["trace.overhead.throughput_per_s"] = traced.throughput_per_s - untraced.throughput_per_s
    values["trace.overhead.latency_ms_p50"] = traced.latency_ms_p50 - untraced.latency_ms_p50
    values["trace.overhead_frac"] = 1.0 - traced.throughput_per_s / untraced.throughput_per_s
    return values
