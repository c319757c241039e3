import contextlib
import json
import math
import multiprocessing
import os
import re
import socketserver
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from pemkit import (
    ErrorDistribution,
    GridSpec,
    PemModel,
    TransitionMatrix,
    never_detect_model,
    perfect_model,
    save_model,
    serve_in_thread,
)
from pemkit.sim import (
    ActorState,
    CellPlan,
    GroundTruthSource,
    ModelSource,
    RemoteSource,
    RunLog,
    load_runlog,
    make_scenario,
    make_tc1,
    make_tc2,
    make_tc3,
    min_distance,
    perception_metrics,
    rect_distance,
    run_cells,
    run_experiment,
    run_once,
    save_runlog,
)
from pemkit.sim.runner import PerceptionRecord, TickRow


# Simulate forks its worker pool; it must never do so beside other threads.
pytestmark = pytest.mark.usefixtures("no_fork_from_threads")


def stochastic_model():
    return PemModel.uniform(
        GridSpec(), TransitionMatrix(0.5, 0.8), ErrorDistribution(1.02, 0.01, 0.04, 0.02, 0.1), "m"
    )


# ---------------- rectangle distance ----------------


def rect(x, y, heading=math.pi / 2, length=4.0, width=2.0):
    return ActorState("a", "vehicle", x, y, heading, 0.0, length, width)


def test_rect_distance_axis_aligned():
    a = rect(0, 0)
    assert rect_distance(a, rect(0, 10)) == pytest.approx(6.0)  # 10 - 2 - 2
    assert rect_distance(a, rect(5, 0)) == pytest.approx(3.0)  # 5 - 1 - 1
    assert rect_distance(a, rect(5, 10)) == pytest.approx(math.hypot(3.0, 6.0))
    assert rect_distance(a, rect(1, 1)) == 0.0  # overlap


def test_rect_distance_heading_rotation():
    a = rect(0, 0)
    b = rect(0, 10, heading=0.0)  # length now along x: half-extent in y is 1
    assert rect_distance(a, b) == pytest.approx(7.0)


def test_rect_distance_general_heading_matches_axis_case():
    a = rect(0, 0)
    b45 = rect(0, 10, heading=math.pi / 4, length=2.0, width=2.0)
    # a square rotated 45 degrees: nearest corner at y = 10 - sqrt(2)
    assert rect_distance(a, b45) == pytest.approx(10 - math.sqrt(2) - 2.0, abs=1e-9)
    inside = rect(0, 2.5, heading=1.0, length=3.0, width=1.0)
    assert rect_distance(a, inside) == 0.0


# ---------------- fabricated logs for metric arithmetic ----------------


def fabricate_log(detected, ranges=None, perception_rate=2):
    """One obstacle named 'ped'; one tick per perception frame."""
    n = len(detected)
    ranges = ranges if ranges is not None else [50.0] * n
    log = RunLog(
        scenario_id="TCX",
        seed=0,
        source_label="fab",
        tick_rate_hz=perception_rate,
        perception_rate_hz=perception_rate,
        ego_dims=(4.5, 1.8),
        obstacles=[{"name": "ped", "kind": "pedestrian", "length": 0.5, "width": 0.5}],
        policy={},
    )
    for k, (d, r) in enumerate(zip(detected, ranges)):
        log.ticks.append(
            TickRow(
                t=k / perception_rate,
                ego_x=0.0,
                ego_y=0.0,
                ego_speed=0.0,
                ego_accel=0.0,
                actors=[(0.0, r, math.pi, 0.0)],
                perception=PerceptionRecord(
                    perceived=[(1, 0.0, r)] if d else [],
                    detected={"ped": bool(d)},
                    ranges={"ped": r},
                    visibility={"ped": 1.0},
                ),
            )
        )
    return log


def test_metrics_all_detected():
    assert perception_metrics(fabricate_log([1] * 8)) == (1.0, 0.0)


def test_metrics_never_detected():
    freq, gap = perception_metrics(fabricate_log([0] * 10))
    assert freq == 0.0
    assert gap == pytest.approx(5.0)  # 10 ticks at 2 Hz


def test_metrics_mixed_pattern():
    freq, gap = perception_metrics(fabricate_log([1, 0, 0, 1, 0]))
    assert freq == pytest.approx(0.4)
    assert gap == pytest.approx(1.0)


def test_metrics_eligibility_range():
    # ticks beyond 100 m are ignored and break non-detection runs
    detected = [0, 0, 1, 0, 0]
    ranges = [150.0, 99.0, 99.0, 150.0, 99.0]
    freq, gap = perception_metrics(fabricate_log(detected, ranges))
    assert freq == pytest.approx(1 / 3)
    assert gap == pytest.approx(0.5)


def test_metrics_undefined_without_eligible_ticks():
    assert perception_metrics(fabricate_log([1, 1], ranges=[200.0, 150.0])) == (None, None)


def test_min_distance_hand_geometry():
    # Ego passes a pedestrian offset 4.15 m laterally: clearance
    # 4.15 - 0.9 (ego half width) - 0.25 (ped half width) = 3.0.
    log = RunLog(
        scenario_id="TCX",
        seed=0,
        source_label="fab",
        tick_rate_hz=10,
        perception_rate_hz=2,
        ego_dims=(4.5, 1.8),
        obstacles=[{"name": "ped", "kind": "pedestrian", "length": 0.5, "width": 0.5}],
        policy={},
    )
    for k in range(41):
        y = -20.0 + k
        log.ticks.append(
            TickRow(t=0.1 * k, ego_x=0.0, ego_y=y, ego_speed=10.0, ego_accel=0.0,
                    actors=[(4.15, 0.0, math.pi, 0.0)], perception=None)
        )
    assert min_distance(log) == pytest.approx(3.0, abs=1e-9)


def test_min_distance_overlap_is_zero():
    log = fabricate_log([1])
    log.ticks[0].actors = [(0.0, 1.0, math.pi, 0.0)]
    assert min_distance(log) == 0.0


def test_min_distance_stationary_far():
    log = fabricate_log([1], ranges=[50.0])
    # center distance 50 along +y; bumper-to-bumper = 50 - 2.25 - 0.25
    assert min_distance(log) == pytest.approx(47.5)


# ---------------- scenario runs ----------------


def test_tc1_baseline_brakes_for_pedestrian():
    log = run_once(make_tc1(), GroundTruthSource(), seed=0)
    assert not log.collision
    assert min_distance(log) >= 1.0


def test_tc1_never_detect_collides():
    log = run_once(make_tc1(), ModelSource(never_detect_model()), seed=0)
    assert log.collision
    assert min_distance(log) < 1.0
    freq, gap = perception_metrics(log)
    assert freq == 0.0
    assert gap > 0


def test_runs_are_deterministic():
    spec = make_tc1()
    a = run_once(spec, ModelSource(stochastic_model()), seed=5)
    b = run_once(spec, ModelSource(stochastic_model()), seed=5)
    assert a.ticks == b.ticks
    assert min_distance(a) == min_distance(b)


def test_kinematic_consistency():
    spec = make_tc2()
    log = run_once(spec, ModelSource(stochastic_model()), seed=1)
    dt = 1.0 / spec.tick_rate_hz
    bound = 0.5 * 6.0 * dt * dt + 1e-12
    for prev, cur in zip(log.ticks, log.ticks[1:]):
        assert abs((cur.ego_y - prev.ego_y) - prev.ego_speed * dt) <= bound
        for (x0, y0, h0, v0), (x1, y1, _h1, _v1) in zip(prev.actors, cur.actors):
            dx_expected = v0 * math.cos(h0) * dt
            dy_expected = v0 * math.sin(h0) * dt
            assert abs((x1 - x0) - dx_expected) <= bound
            assert abs((y1 - y0) - dy_expected) <= bound


def test_perceived_entries_only_on_perception_ticks():
    spec = make_tc1()
    log = run_once(spec, GroundTruthSource(), seed=0)
    stride = spec.tick_rate_hz // spec.perception_rate_hz
    for k, row in enumerate(log.ticks):
        assert (row.perception is not None) == (k % stride == 0)


def test_response_subset_of_world():
    log = run_once(make_tc3(), ModelSource(stochastic_model()), seed=2)
    for row in log.ticks:
        if row.perception is not None:
            assert len(row.perception.perceived) <= len(log.obstacles)
            sids = {sid for sid, _x, _y in row.perception.perceived}
            assert sids <= set(range(1, len(log.obstacles) + 1))


def test_tc3_occlusion_varies():
    log = run_once(make_tc3(), GroundTruthSource(), seed=0)
    fractions = {
        round(row.perception.visibility["pedestrian"], 3)
        for row in log.ticks
        if row.perception is not None
    }
    assert min(fractions) < 1.0  # the lead hides the pedestrian at some point
    assert max(fractions) == 1.0


def test_runlog_roundtrip(tmp_path):
    log = run_once(make_tc1(), ModelSource(stochastic_model()), seed=3)
    path = tmp_path / "run.jsonl"
    save_runlog(log, path)
    loaded = load_runlog(path)
    assert loaded.ticks == log.ticks
    assert loaded.min_distance_m == log.min_distance_m
    assert (loaded.detection_freq, loaded.max_gap_s) == (log.detection_freq, log.max_gap_s) != (None, None)
    assert loaded.scenario_id == log.scenario_id


RUNLOG_DAMAGE = {
    "meta-without-keys": (0, '{"type":"meta"}', "missing field: scenario"),
    "meta-seed-not-int": (0, None, "seed must be an integer, got 'x'"),
    "row-without-type": (1, '{"t":0.1}', "missing field: type"),
    "json-list": (1, "[1, 2]", "document must be an object, got [1, 2]"),
    "not-json": (2, "{", "Expecting property name"),
    "unknown-type": (2, '{"type":"tock"}', "type must be one of meta, tick, outcome, got 'tock'"),
    "short-ego": (1, '{"type":"tick","t":0.1,"ego":[1,2],"actors":[]}', "not enough values to unpack"),
    "perc-without-objs": (1, '{"type":"tick","t":0.1,"ego":[1,2,3,4],"actors":[],"perc":{}}',
                          "missing field: perc.objs"),
    "outcome-without-aborted": (-1, '{"type":"outcome","collision":false,"min_distance_m":1.0,"end_reason":"x",'
                                    '"abort_reason":""}', "missing field: aborted"),
}


@pytest.mark.parametrize("index, line, message", RUNLOG_DAMAGE.values(), ids=RUNLOG_DAMAGE.keys())
def test_malformed_runlog_line_names_file_and_line(tmp_path, index, line, message):
    path = tmp_path / "run.jsonl"
    save_runlog(run_once(make_tc1(), ModelSource(stochastic_model()), seed=3), path)
    lines = path.read_text().splitlines()
    lines[index] = line if line is not None else lines[index].replace('"seed":3', '"seed":"x"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as error:
        load_runlog(path)
    assert str(error.value).startswith(f"{path}:{index % len(lines) + 1}: {message}")


def test_runlog_tick_before_meta_names_file_and_line(tmp_path):
    path = tmp_path / "run.jsonl"
    save_runlog(run_once(make_tc1(), ModelSource(stochastic_model()), seed=3), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: tick line before the meta line$"):
        load_runlog(path)


def test_make_scenario_lookup():
    assert make_scenario("tc2").scenario_id == "TC2"
    with pytest.raises(ValueError):
        make_scenario("TC9")


# ---------------- experiments ----------------


def test_run_experiment_bins_and_fractions():
    report = run_experiment(make_tc1(), ModelSource(never_detect_model()), n_runs=3, base_seed=0)
    cell = report.cells[0]
    assert cell.n_runs == 3
    assert cell.fraction_below_1m == 1.0
    assert cell.fraction_below_1m + cell.fraction_at_least_1m == pytest.approx(1.0)


def test_perfect_model_matches_baseline_bins():
    base = run_experiment(make_tc1(), GroundTruthSource(), n_runs=3, base_seed=0, baseline=True)
    pem = run_experiment(make_tc1(), ModelSource(perfect_model()), n_runs=3, base_seed=0)
    assert base.cells[0].fraction_below_1m == pem.cells[0].fraction_below_1m == 0.0
    for a, b in zip(base.cells[0].min_distances, pem.cells[0].min_distances):
        assert a == pytest.approx(b, abs=1e-9)


def test_unreachable_server_aborts_run():
    source = RemoteSource("127.0.0.1", 1, "m")  # nothing listens on port 1
    log = run_once(make_tc1(), source, seed=0)
    assert log.aborted
    assert log.end_reason == "aborted"
    report = run_experiment(make_tc1(), source, n_runs=2, base_seed=0)
    assert report.cells[0].n_aborted == 2
    assert report.cells[0].min_distances == []


def test_local_and_remote_runs_identical(tmp_path):
    model = stochastic_model()
    server, _t = serve_in_thread({"m": model})
    try:
        host, port = server.address
        local = run_once(make_tc1(), ModelSource(model, label="m"), seed=9)
        remote_source = RemoteSource(host, port, "m", label="m")
        remote = run_once(make_tc1(), remote_source, seed=9)
        remote_source.close()
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_runlog(local, pa)
        save_runlog(remote, pb)
        assert pa.read_bytes() == pb.read_bytes()
    finally:
        server.shutdown()
        server.close()


@pytest.mark.parametrize("make", [make_tc1, make_tc2, make_tc3])
def test_run_experiment_min_distances_match_post_hoc_metric(make):
    logs = []
    report = run_experiment(make(), ModelSource(stochastic_model()), n_runs=4, base_seed=3,
                            log_sink=lambda seed, log: logs.append(log))
    assert report.cells[0].min_distances == [min_distance(log) for log in logs]


def start_serve(model_path, port):
    proc = subprocess.Popen(
        [sys.executable, "-m", "pemkit.cli", "serve", "--model", f"m={model_path}", "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    assert "serving" in line, proc.stderr.read()
    return proc, int(line.rsplit(":", 1)[1])


def stop_serve(proc):
    proc.terminate()
    proc.communicate(timeout=10)


def test_remote_source_reconnects_after_server_restart(tmp_path):
    model = stochastic_model()
    model_path = tmp_path / "m.json"
    save_model(model, model_path)
    proc, port = start_serve(model_path, 0)
    source = RemoteSource("127.0.0.1", port, "m", label="m")
    try:
        assert not run_once(make_tc1(), source, seed=1).aborted
        stop_serve(proc)
        assert run_once(make_tc1(), source, seed=2).aborted  # the connection is gone
        proc, _ = start_serve(model_path, port)
        remote = run_once(make_tc1(), source, seed=3)
    finally:
        source.close()
        if proc.poll() is None:
            stop_serve(proc)
    local = run_once(make_tc1(), ModelSource(model, label="m"), seed=3)
    assert not remote.aborted
    pa, pb = tmp_path / "local.jsonl", tmp_path / "remote.jsonl"
    save_runlog(local, pa)
    save_runlog(remote, pb)
    assert pa.read_bytes() == pb.read_bytes()


class FakeServer(socketserver.ThreadingTCPServer):
    """Answers each init line with ``init_reply`` and every other line with ``frame_reply``."""

    daemon_threads = True

    def __init__(self, init_reply: bytes, frame_reply: bytes):
        self.init_reply, self.frame_reply = init_reply, frame_reply
        super().__init__(("127.0.0.1", 0), FakeHandler)


class FakeHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            self.wfile.write(self.server.init_reply if b'"init"' in line else self.server.frame_reply)


@contextlib.contextmanager
def fake_server(init_reply=b'{"type":"ready"}\n', frame_reply=b'{"objects":[],"type":"frame"}\n'):
    server = FakeServer(init_reply, frame_reply)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


BAD_FRAME_REPLIES = {
    "not-json": b"this is not json\n",
    "not-utf8": b"\xff\n",
    "not-an-object": b"[1, 2]\n",
    "no-objects": b'{"type":"frame"}\n',
    "objects-not-a-list": b'{"objects":5,"type":"frame"}\n',
    "no-source-id": b'{"objects":[{"x":1.0,"y":2.0}],"type":"frame"}\n',
}


@pytest.mark.parametrize("reply", BAD_FRAME_REPLIES.values(), ids=BAD_FRAME_REPLIES.keys())
def test_bad_frame_reply_aborts_the_run(reply):
    with fake_server(frame_reply=reply) as port:
        source = RemoteSource("127.0.0.1", port, "m")
        log = run_once(make_tc1(), source, seed=0)
        assert log.aborted and log.end_reason == "aborted"
        assert log.abort_reason.startswith("bad frame reply: ")
        assert source._client is None  # the next run connects again
        report = run_experiment(make_tc1(), source, n_runs=2, base_seed=0)
    assert report.cells[0].n_aborted == 2


def test_bad_init_reply_aborts_the_run():
    with fake_server(init_reply=b"not json\n") as port:
        log = run_once(make_tc1(), RemoteSource("127.0.0.1", port, "m"), seed=0)
    assert log.aborted and "init against" in log.abort_reason


def test_simulate_exits_4_on_bad_frame_replies(tmp_path, capsys):
    from pemkit.cli import EXIT_IO, main

    out = tmp_path / "sim"
    with fake_server(frame_reply=BAD_FRAME_REPLIES["no-source-id"]) as port:
        code = main(["simulate", "--scenario", "TC1", "--server", f"127.0.0.1:{port}:m", "--runs", "2",
                     "--out-dir", str(out)])
    assert code == EXIT_IO
    assert "2 aborted runs" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["cells"][0]["n_aborted"] == 2


def test_scenario_from_config_document(tmp_path):
    from pemkit.sim import scenario_from_dict

    spec = scenario_from_dict({"id": "tc1", "pedestrian_y": 200.0, "road_length_m": 260.0, "duration_s": 40.0})
    assert spec.scenario_id == "TC1"
    assert spec.road_length_m == 260.0
    log = run_once(spec, GroundTruthSource(), seed=0)
    assert not log.collision and min_distance(log) >= 1.0

    with pytest.raises(ValueError, match="unknown key 'lasers'"):
        scenario_from_dict({"id": "TC2", "lasers": True})
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_from_dict({"id": "TC9"})


# ---------------- batches over worker processes ----------------


def plans(log_dir=None):
    sink = None
    if log_dir is not None:
        sink = lambda seed, log: (log_dir / f"{log.scenario_id}_{log.source_label}_{seed}").write_text(str(os.getpid()))
    model = stochastic_model()
    return [
        CellPlan(make_tc1(), ModelSource(model, label="m"), 5, 0, log_sink=sink),
        CellPlan(make_tc3(), ModelSource(model, label="m"), 4, 7, log_sink=sink),
        CellPlan(make_tc2(), GroundTruthSource(), 3, 2, baseline=True, log_sink=sink),
    ]


def join_other_threads():
    """Let server threads of earlier tests finish, so that run_cells may fork."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=10)
    assert threading.active_count() == 1


forks_workers = pytest.mark.skipif(sys.platform != "linux", reason="run_cells forks workers on Linux only")


@forks_workers
def test_run_cells_reports_do_not_depend_on_jobs(tmp_path):
    expected = [report.to_dict() for report in run_cells(plans(), jobs=1)]
    assert expected[0] == run_experiment(make_tc1(), ModelSource(stochastic_model(), label="m"), 5, 0).to_dict()
    join_other_threads()
    for jobs in (2, 3):
        log_dir = tmp_path / f"jobs{jobs}"
        log_dir.mkdir()
        assert [report.to_dict() for report in run_cells(plans(log_dir), jobs)] == expected
        assert multiprocessing.active_children() == []
        pids = {path.read_text() for path in log_dir.iterdir()}
        assert len(list(log_dir.iterdir())) == 12
        assert str(os.getpid()) not in pids  # every run went to a worker
    few = lambda: [CellPlan(make_tc1(), GroundTruthSource(), 3, 4, baseline=True)]
    assert run_cells(few(), jobs=64)[0].to_dict() == run_cells(few(), jobs=1)[0].to_dict()  # 3 workers at most


def test_run_cells_stays_in_process_while_other_threads_run(tmp_path):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        reports = run_cells(plans(tmp_path), jobs=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in run_cells(plans(), jobs=1)]
    assert {path.read_text() for path in tmp_path.iterdir()} == {str(os.getpid())}


@forks_workers
def test_run_cells_reports_a_dead_worker():
    def die_at_seed_3(seed, log):
        if seed == 3:
            os._exit(9)

    join_other_threads()
    with pytest.raises(BrokenProcessPool):
        run_cells([CellPlan(make_tc1(), GroundTruthSource(), 6, 0, log_sink=die_at_seed_3)], jobs=2)
    assert multiprocessing.active_children() == []


def test_run_cells_rejects_bad_jobs_and_runs():
    for jobs in (0, 2.5, True):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_cells(plans(), jobs=jobs)
    with pytest.raises(ValueError, match="n_runs must be >= 1"):
        CellPlan(make_tc1(), GroundTruthSource(), 0, 0)
