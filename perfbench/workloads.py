"""The four workloads, each driven through pemkit's public entry points.

``simulate`` and ``learn`` run through ``pemkit.cli.main`` (learn in a fresh
worker process per call); ``serve`` is a real ``pemkit serve`` process that
the benchmark drives over TCP as an external simulator would. Every
workload has a time-bounded pass (end-to-end metrics), a fixed-work pass
(traced runs, so counts repeat exactly) and output checks that run after
the timed part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import selectors
import socket
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pemkit import protocol

import inputs
from serverctl import ServerProcess
from spans import Tracer, install_sim

SCENARIOS = ("TC1", "TC2", "TC3")
LEARN_GRID = ["--sector-deg", "15", "--ring-depth-m", "10", "--max-radius-m", "100"]
# Cells with fewer observed transitions are too noisy to score recovery on.
PI1_MIN_TRANSITIONS = 50
# Seeds 0-9 score 0.029-0.036 at this size; well above that means the fit is broken.
PI1_TOLERANCE = 0.06
WORKER_TIMEOUT_S = 170.0


@dataclass
class Ctx:
    root: Path
    work: Path
    trace_dir: Path
    seed: int
    smoke: bool
    python: str
    env: dict


@dataclass
class Pass:
    """What one measured pass produced: figures, failures and check inputs."""

    attempted: int = 0
    failed: int = 0
    throughput_per_s: float = 0.0
    latency_ms_p50: float = 0.0
    peak_rss_mb: float = 0.0
    report: dict = field(default_factory=dict)  # figures under their own names: name -> (value, unit)
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _median_rate(done_at: list[float], start: float, end: float, window_s: float = 0.5) -> float:
    """Completions per second: the median over consecutive windows of window_s.

    A median over windows keeps a stall of the shared machine, which hits a
    few windows, from deciding the figure. Runs shorter than two windows
    fall back to the overall rate.
    """
    n_windows = int((end - start) // window_s)
    if n_windows < 2:
        return len(done_at) / (end - start)
    counts = np.bincount(((np.asarray(done_at) - start) // window_s).astype(int), minlength=n_windows + 1)
    return float(np.median(counts[:n_windows])) / window_s


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    uses_server = False

    def __init__(self):
        self.server: ServerProcess | None = None
        self.server_trace: Path | None = None
        self.server_failures = 0
        self.server_stops = 0

    def make_inputs(self, ctx: Ctx) -> None:
        raise NotImplementedError

    def measure(self, ctx: Ctx, seconds: float | None, traced: bool) -> Pass:
        """seconds=None runs the fixed amount of work used by traced runs."""
        raise NotImplementedError

    def check(self, ctx: Ctx, p: Pass) -> list[str]:
        raise NotImplementedError

    # --- server lifecycle, shared by the two serve workloads ---

    def start_server(self, ctx: Ctx, traced: bool) -> None:
        if traced:
            # Kept after the run, next to its span archive (same stem, .npz).
            self.server_trace = ctx.trace_dir / f"{self.name}-server.json"
            self.server_trace.unlink(missing_ok=True)
            prefix = [ctx.python, str(Path(__file__).with_name("serve_launcher.py")), str(self.server_trace)]
        else:
            self.server_trace = None
            prefix = [ctx.python, "-m", "pemkit.cli"]
        self.server = ServerProcess(
            prefix, {"varied": ctx.work / "model.json"}, ctx.env, ctx.root, ctx.work / "server.log"
        )
        self.server.wait_ready()

    def stop_server(self) -> dict | None:
        """Stop over the wire; return the traced server's summary, if any."""
        if self.server is None:
            return None
        self.server_stops += 1
        if not self.server.stop():
            self.server_failures += 1
        self.server = None
        if self.server_trace is not None and self.server_trace.exists():
            return json.loads(self.server_trace.read_text(encoding="utf-8"))
        return None

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


# ----------------------------------------------------------------- simulate


class _Simulate(Workload):
    scenarios: tuple[str, ...] = SCENARIOS
    runs_per_cmd = 20  # runs per scenario in one simulate command
    fixed_cmds = 8

    def make_inputs(self, ctx: Ctx) -> None:
        from pemkit.model import save_model

        save_model(inputs.varied_model(ctx.seed), ctx.work / "model.json")

    def _sources(self, ctx: Ctx) -> list[str]:
        raise NotImplementedError

    def _argv(self, ctx: Ctx, i: int) -> list[str]:
        argv = ["simulate"]
        for sc in self.scenarios:
            argv += ["--scenario", sc]
        return argv + self._sources(ctx) + [
            "--runs", str(self._runs(ctx)),
            "--seed", str(self._base_seed(ctx, i)),
            "--out-dir", str(ctx.work / "sim_out"),
        ]

    def _runs(self, ctx: Ctx) -> int:
        return 1 if ctx.smoke else self.runs_per_cmd

    def _base_seed(self, ctx: Ctx, i: int) -> int:
        # Consecutive commands run consecutive, distinct seed ranges.
        return ctx.seed * 100_000 + i * self._runs(ctx)

    def _run_cmd(self, ctx: Ctx, i: int) -> tuple[int, float, bytes | None]:
        """One in-process ``pemkit simulate``; returns (exit code, seconds, report.json)."""
        import pemkit.cli as cli

        report_path = ctx.work / "sim_out" / "report.json"
        report_path.unlink(missing_ok=True)
        argv = self._argv(ctx, i)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        return code, seconds, report_path.read_bytes() if report_path.exists() else None

    def measure(self, ctx: Ctx, seconds: float | None, traced: bool) -> Pass:
        p = Pass()
        tracer = None
        if traced:
            tracer = Tracer()
            install_sim(tracer)
        n_fixed = 1 if ctx.smoke else self.fixed_cmds
        times, codes, reports = [], [], []
        start = time.perf_counter()
        while True:
            code, dt, report = self._run_cmd(ctx, len(times))
            times.append(dt)
            codes.append(code)
            reports.append(report)
            if seconds is None:
                if len(times) >= n_fixed:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        runs_per_cmd = self._runs(ctx) * len(self.scenarios)
        p.attempted = runs_per_cmd * len(times)
        for code, report in zip(codes, reports):
            if report is None:
                p.failed += runs_per_cmd
            else:
                p.failed += sum(c["n_aborted"] for c in json.loads(report)["cells"])
        # Medians over commands, so a stall of the shared machine in one
        # command does not decide the figure.
        p.latency_ms_p50 = statistics.median(times) * 1e3
        p.throughput_per_s = runs_per_cmd / statistics.median(times)
        p.peak_rss_mb = self._peak_rss_mb()
        p.report = {
            "runs_per_s": (p.throughput_per_s, "runs/s"),
            "simulate_cmd_ms_p50": (p.latency_ms_p50, "ms"),
            "simulate_cmds": (len(times), "count"),
        }
        p.artifacts = {"codes": codes, "reports": reports}
        if tracer is not None:
            p.spans, p.counts, p.samples = tracer.summary()
            tracer.save_spans(ctx.trace_dir / f"{self.name}-simulate.npz")
        return p

    def _peak_rss_mb(self) -> float:
        return _peak_rss_self_mb()

    def _check_reports(self, p: Pass) -> list[str]:
        problems = []
        for i, (code, report) in enumerate(zip(p.artifacts["codes"], p.artifacts["reports"])):
            if code != 0 or report is None:
                problems.append(f"simulate command {i} exited {code}")
            elif any(c["n_aborted"] for c in json.loads(report)["cells"]):
                problems.append(f"simulate command {i} aborted runs")
        return problems


class SimLocal(_Simulate):
    name = "sim_local"

    def _sources(self, ctx: Ctx) -> list[str]:
        return ["--model", f"varied={ctx.work / 'model.json'}"]

    def check(self, ctx: Ctx, p: Pass) -> list[str]:
        problems = self._check_reports(p)
        code, _, again = self._run_cmd(ctx, 0)
        first = p.artifacts["reports"][0]
        if again is None or first is None or _sha256(again) != _sha256(first):
            problems.append("report.json of a repeated simulate command differs")
        else:
            p.report["report_sha256"] = (_sha256(first), "sha256")
        return problems


class SimRemote(_Simulate):
    name = "sim_remote"
    uses_server = True
    scenarios = ("TC3",)
    runs_per_cmd = 16
    fixed_cmds = 8

    def _sources(self, ctx: Ctx) -> list[str]:
        return ["--server", f"127.0.0.1:{self.server.port}:varied"]

    def _peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def check(self, ctx: Ctx, p: Pass) -> list[str]:
        from pemkit.model import load_model
        from pemkit.sim import ModelSource, make_scenario, run_experiment

        problems = self._check_reports(p)
        source = ModelSource(load_model(ctx.work / "model.json"), label="local")
        spec = make_scenario("TC3")
        reports = p.artifacts["reports"]
        # The first and the last command: replaying every seed locally would
        # cost as much as the timed part.
        for i in sorted({0, len(reports) - 1}):
            if reports[i] is None:
                continue
            remote = json.loads(reports[i])["cells"][0]["min_distances_m"]
            local = run_experiment(spec, source, self._runs(ctx), self._base_seed(ctx, i)).cells[0]
            if remote != local.min_distances:
                problems.append(f"simulate command {i}: remote TC3 min distances differ from a local run")
        return problems


# -------------------------------------------------------------------- serve


class ServeStream(Workload):
    name = "serve_stream"
    uses_server = True
    sessions = 2
    cycle = 4000  # pre-generated frames per session, replayed with rising t
    fixed_frames = 8000  # frames per session in a fixed-work pass

    def make_inputs(self, ctx: Ctx) -> None:
        from pemkit.model import save_model

        save_model(inputs.varied_model(ctx.seed), ctx.work / "model.json")
        n = 50 if ctx.smoke else self.cycle
        self.frames = [inputs.frame_stream(ctx.seed, s, n) for s in range(self.sessions)]
        self.encoded = [[inputs.encode_objects(f) for f in frames] for frames in self.frames]

    def session_seed(self, ctx: Ctx, s: int) -> int:
        return ctx.seed * self.sessions + s

    def measure(self, ctx: Ctx, seconds: float | None, traced: bool) -> Pass:
        n_fixed = 100 if ctx.smoke else self.fixed_frames
        socks = [socket.create_connection(("127.0.0.1", self.server.port), timeout=30.0) for _ in range(self.sessions)]
        ports = [str(sock.getsockname()[1]) for sock in socks]
        bufs = [bytearray() for _ in socks]
        rtts = [[] for _ in socks]
        replies = [[] for _ in socks]
        next_t = [0] * len(socks)
        sent_at = [0.0] * len(socks)

        def read_line(s: int) -> bytes:
            while b"\n" not in bufs[s]:
                data = socks[s].recv(1 << 20)
                if not data:
                    raise ConnectionError(f"server closed session {s}")
                bufs[s] += data
            nl = bufs[s].index(b"\n") + 1
            line = bytes(bufs[s][:nl])
            del bufs[s][:nl]
            return line

        init_rtts = []
        try:
            for s, sock in enumerate(socks):
                init = {"model": "varied", "rate_hz": 2.0, "seed": self.session_seed(ctx, s), "type": "init"}
                t0 = time.perf_counter()
                sock.sendall(json.dumps(init).encode() + b"\n")
                ack = read_line(s)
                init_rtts.append(time.perf_counter() - t0)
                if json.loads(ack) != {"type": "ack", "of": "init"}:
                    raise RuntimeError(f"session {s}: init refused: {ack!r}")

            def send(s: int) -> None:
                k = next_t[s]
                line = inputs.frame_line(self.encoded[s][k % len(self.encoded[s])], k)
                sent_at[s] = time.perf_counter()
                socks[s].sendall(line)

            sel = selectors.DefaultSelector()
            for s, sock in enumerate(socks):
                sel.register(sock, selectors.EVENT_READ, s)
            done_at = []
            start = time.perf_counter()
            last = start
            for s in range(len(socks)):
                send(s)
            active = len(socks)
            while active:
                events = sel.select(timeout=30.0)
                if not events:
                    raise RuntimeError("no reply from the server within 30 s")
                for key, _ in events:
                    s = key.data
                    line = read_line(s)
                    last = time.perf_counter()
                    done_at.append(last)
                    rtts[s].append(last - sent_at[s])
                    replies[s].append(line)
                    next_t[s] += 1
                    more = next_t[s] < n_fixed if seconds is None else last - start < seconds
                    if more:
                        send(s)
                    else:
                        active -= 1
            sel.close()
        finally:
            for sock in socks:
                sock.close()

        p = Pass()
        all_rtts = [r for session in rtts for r in session]
        p.attempted = len(all_rtts)
        p.throughput_per_s = _median_rate(done_at, start, last)
        p.latency_ms_p50 = percentile(all_rtts, 50) * 1e3
        p99 = percentile(all_rtts, 99) * 1e3
        p.peak_rss_mb = self.server.peak_rss_mb()
        p.report = {
            "frames_per_s": (p.throughput_per_s, "frames/s"),
            "frame_ms_p50": (p.latency_ms_p50, "ms"),
            "frame_ms_p99": (p99, "ms"),
            "frame_samples": (len(all_rtts), "count"),
        }
        # Round trips by the session's local port (the server's peer port),
        # init included, to line up with the traced server's busy times.
        rtt_us = {port: [r * 1e6 for r in [init_rtts[s]] + rtts[s]] for s, port in enumerate(ports)}
        p.artifacts = {"replies": replies, "p99_ms": p99, "rtt_us": rtt_us}
        return p

    def check(self, ctx: Ctx, p: Pass) -> list[str]:
        from pemkit.geometry import OcclusionLevel, polar_from_xy, xy_from_polar
        from pemkit.inject import GroundTruthObject, apply_pem, session_rng
        from pemkit.model import load_model

        problems = []
        bad = 0
        for s, replies in enumerate(p.artifacts["replies"]):
            frames = self.frames[s]
            for k, line in enumerate(replies):
                msg = json.loads(line)
                ids = set(frames[k % len(frames)][0].tolist())
                if (
                    msg.get("type") != "response"
                    or msg.get("t") != k
                    or not all(o["source_id"] in ids for o in msg["objects"])
                ):
                    bad += 1
        if bad:
            problems.append(f"{bad} replies are not responses echoing t with sent source ids")
        p.failed += bad

        # Session 0, replayed in-process under the session seeding rule.
        model = load_model(ctx.work / "model.json")
        rng = session_rng(self.session_seed(ctx, 0), 0)
        tracks = {}
        frames = self.frames[0]
        for k, line in enumerate(p.artifacts["replies"][0]):
            ids, xs, ys, occ = frames[k % len(frames)]
            world = [
                GroundTruthObject(int(i), polar_from_xy(float(x), float(y)), OcclusionLevel(int(o)))
                for i, x, y, o in zip(ids, xs, ys, occ)
            ]
            perceived, tracks = apply_pem(model, world, tracks, rng)
            out = []
            for obj in perceived:
                x, y = xy_from_polar(obj.position)
                out.append({"source_id": obj.source_id, "x": x, "y": y})
            if protocol.encode(protocol.response_msg(k, out)) != line:
                problems.append(f"session 0 frame {k}: reply differs from the in-process replay")
                p.failed += 1
                break
        return problems


# -------------------------------------------------------------------- learn


class Learn(Workload):
    name = "learn"

    def make_inputs(self, ctx: Ctx) -> None:
        from pemkit.dataset import save_dataset
        from pemkit.geometry import GridSpec
        from pemkit.model import save_model

        grid = GridSpec(15.0, 10.0, 100.0)
        truth = inputs.learn_truth_model(ctx.seed, grid)
        size = dict(scenes=3, frames=10, objects=8) if ctx.smoke else {}
        dataset = inputs.learn_dataset(truth, ctx.seed, **size)
        save_model(truth, ctx.work / "truth.json")
        save_dataset(dataset, ctx.work / "dataset.jsonl")
        self.n_frames = dataset.n_frames

    def _call(self, ctx: Ctx, traced: bool) -> dict:
        result = ctx.work / "learn_result.json"
        result.unlink(missing_ok=True)
        argv = [
            ctx.python, str(Path(__file__).with_name("learn_worker.py")), str(result), "1" if traced else "0",
            "learn", "--dataset", str(ctx.work / "dataset.jsonl"), "--out", str(ctx.work / "learned" / "model.json"),
            *LEARN_GRID,
        ]
        subprocess.run(argv, cwd=ctx.root, env=ctx.env, check=True, timeout=WORKER_TIMEOUT_S)
        doc = json.loads(result.read_text(encoding="utf-8"))
        model = ctx.work / "learned" / "model.json"
        doc["model_sha256"] = _sha256(model.read_bytes()) if doc["code"] == 0 else None
        if traced:
            result.with_suffix(".npz").replace(ctx.trace_dir / "learn-worker.npz")
        return doc

    def measure(self, ctx: Ctx, seconds: float | None, traced: bool) -> Pass:
        calls = []
        start = time.perf_counter()
        while True:
            calls.append(self._call(ctx, traced))
            if seconds is None or time.perf_counter() - start >= seconds:
                break
        p = Pass()
        p.attempted = len(calls)
        p.failed = sum(1 for c in calls if c["code"] != 0)
        learn_s = [c["learn_s"] for c in calls]
        p.latency_ms_p50 = statistics.median(learn_s) * 1e3
        p.throughput_per_s = self.n_frames / statistics.median(learn_s)
        p.peak_rss_mb = statistics.median(c["peak_rss_mb"] for c in calls)
        p.report = {
            "learn_s_per_kframe": (statistics.median(learn_s) / (self.n_frames / 1000.0), "s"),
            "learn_calls": (len(calls), "count"),
        }
        p.artifacts = {"calls": calls}
        if traced:
            last = calls[-1]
            p.spans, p.counts, p.samples, p.tags = last["spans"], last["counts"], last["samples"], last["tags"]
        p.artifacts["pi1_rmse"] = self._pi1_rmse(ctx) if calls[-1]["code"] == 0 else None
        if p.artifacts["pi1_rmse"] is not None:
            p.report["pi1_rmse"] = (p.artifacts["pi1_rmse"], "1")
        return p

    def _pi1_rmse(self, ctx: Ctx) -> float:
        from pemkit.model import load_model

        learned_dir = ctx.work / "learned"
        diagnostics = json.loads((learned_dir / "model.diagnostics.json").read_text(encoding="utf-8"))
        transitions = np.array(diagnostics["per_condition"]["transitions"])
        min_transitions = 1 if ctx.smoke else PI1_MIN_TRANSITIONS
        return inputs.pi1_rmse(
            load_model(learned_dir / "model.json"), load_model(ctx.work / "truth.json"), transitions, min_transitions
        )

    def check(self, ctx: Ctx, p: Pass) -> list[str]:
        problems = []
        calls = p.artifacts["calls"]
        if any(c["code"] != 0 for c in calls):
            problems.append("a learn call failed")
        digests = {c["model_sha256"] for c in calls}
        if len(digests) != 1:
            problems.append("learn calls on the same dataset wrote different model.json files")
        else:
            p.report["model_sha256"] = (digests.pop(), "sha256")
        rmse = p.artifacts["pi1_rmse"]
        if not ctx.smoke and (rmse is None or rmse > PI1_TOLERANCE):
            problems.append(f"pi1_rmse {rmse} exceeds the tolerance {PI1_TOLERANCE}")
            p.failed = p.attempted
        return problems


WORKLOADS = {cls.name: cls for cls in (SimLocal, SimRemote, ServeStream, Learn)}
