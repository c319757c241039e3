import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pemkit import (
    ErrorDistribution,
    GridSpec,
    PemClient,
    PemModel,
    TransitionMatrix,
    load_model,
    never_detect_model,
    perfect_model,
    save_dataset,
    save_model,
    serve_in_thread,
    synthesize_dataset,
)
from pemkit import SyntheticDatasetConfig
from pemkit import cli, parallel
from pemkit.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from pemkit.model import IDENTITY_EMISSION
from pemkit.sim import experiment

# Simulate forks its worker pool; it must never do so beside other threads.
pytestmark = pytest.mark.usefixtures("no_fork_from_threads")


GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)


def small_truth():
    n = GRID.n_conditions
    rng = np.random.default_rng(8)
    return PemModel(
        grid=GRID,
        metadata="truth",
        a01=rng.uniform(0.3, 0.7, n),
        a11=rng.uniform(0.6, 0.9, n),
        mu_r=np.full(n, 1.01),
        mu_theta=np.full(n, 0.005),
        sigma_r=np.full(n, 0.03),
        sigma_theta=np.full(n, 0.02),
        rho=np.full(n, 0.1),
    )


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dataset.jsonl"
    cfg = SyntheticDatasetConfig(
        true_model=small_truth(), n_scenes=8, frames_per_scene=30,
        objects_per_scene=16, occlusion_levels=(0, 1), seed=21,
    )
    save_dataset(synthesize_dataset(cfg), path)
    return path


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_learn_writes_model_and_manifest(dataset_path, tmp_path):
    out = tmp_path / "model.json"
    code = main([
        "learn", "--dataset", str(dataset_path), "--out", str(out),
        "--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20",
    ])
    assert code == EXIT_OK
    model = load_model(out)
    assert model.grid == GRID
    assert (tmp_path / "manifest.json").exists()
    assert out.with_suffix(".diagnostics.json").exists()
    diag = json.loads(out.with_suffix(".diagnostics.json").read_text())
    assert all(f["converged"] for f in diag["fields"].values())


def test_learn_is_byte_reproducible(dataset_path, tmp_path):
    out = tmp_path / "model.json"
    args = [
        "learn", "--dataset", str(dataset_path), "--out", str(out),
        "--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20",
    ]
    assert main(args) == EXIT_OK
    first = snapshot(tmp_path)
    assert main(args) == EXIT_OK
    assert snapshot(tmp_path) == first
    diag_path = out.with_suffix(".diagnostics.json")
    assert diag_path.read_bytes() == first[diag_path.name]
    coverage = json.loads(diag_path.read_text())["coverage"]
    assert coverage["matched"] > 0
    assert set(coverage["empty_cells"]) == {"a01", "a11", "mu_r", "mu_theta", "sigma_r", "sigma_theta", "rho"}


def test_learn_prints_stage_timings_outside_reproducible_outputs(dataset_path, tmp_path, capsys):
    out = tmp_path / "model.json"
    args = [
        "learn", "--dataset", str(dataset_path), "--out", str(out),
        "--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20",
    ]
    snapshots = []
    for _ in range(2):
        assert main(args) == EXIT_OK
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("learn timings: ")]
        assert len(lines) == 1
        stages = [part.rsplit(" ", 1)[0] for part in lines[0].removeprefix("learn timings: ").split(", ")]
        fits = ["fit " + f for f in ("a01", "a11", "mu_r", "mu_theta", "sigma_r", "sigma_theta", "rho")]
        assert stages == ["load", "match+count", "estimate", *fits]
        snapshots.append(snapshot(tmp_path))
    assert snapshots[0] == snapshots[1]
    assert not any(b"timings" in content for content in snapshots[0].values())


def test_learn_empty_dataset_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["learn", "--dataset", str(empty), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert "no observations" in capsys.readouterr().err


def test_learn_undecodable_dataset_is_data_error_naming_its_line(dataset_path, tmp_path, capsys):
    lines = dataset_path.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines[:2]) + b'{"scene": "\xff"}\n' + b"".join(lines[2:]))
    code = main(["learn", "--dataset", str(bad), "--out", str(tmp_path / "out" / "m.json")])
    assert code == EXIT_DATA
    assert "line 3: not valid UTF-8: invalid start byte" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_learn_single_scene_dataset_succeeds(tmp_path):
    path = tmp_path / "one.jsonl"
    cfg = SyntheticDatasetConfig(
        true_model=small_truth(), n_scenes=1, frames_per_scene=20,
        objects_per_scene=8, occlusion_levels=(0,), seed=3,
    )
    save_dataset(synthesize_dataset(cfg), path)
    code = main([
        "learn", "--dataset", str(path), "--out", str(tmp_path / "m.json"),
        "--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20",
    ])
    assert code == EXIT_OK
    load_model(tmp_path / "m.json").validate()


def test_inspect_outputs(tmp_path):
    model_path = tmp_path / "m.json"
    model = PemModel.uniform(GRID, TransitionMatrix(0.25, 0.75), IDENTITY_EMISSION, "u")
    save_model(model, model_path)
    out = tmp_path / "inspect"
    assert main(["inspect", "--model", str(model_path), "--parameter", "a01", "--out-dir", str(out)]) == EXIT_OK
    # 4 CSVs for a01, 4 for pi1, one frontal cone
    for occ in range(4):
        a01 = (out / f"a01_vis{occ}.csv").read_text().splitlines()
        assert len(a01) == 1 + GRID.n_rings * GRID.n_sectors
        assert a01[1].split(",")[2] == "0.25"
        pi1 = (out / f"pi1_vis{occ}.csv").read_text().splitlines()
        assert pi1[1].split(",")[2] == "0.5"  # 0.25 / (1 + 0.25 - 0.75)
    cone = (out / "a01_frontal_cone.csv").read_text().splitlines()
    assert len(cone) == 1 + GRID.n_rings


def test_inspect_rejects_unknown_parameter(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(GRID), model_path)
    code = main(["inspect", "--model", str(model_path), "--parameter", "bogus", "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "pi1" in capsys.readouterr().err  # lists the valid names


def test_simulate_and_report_roundtrip(tmp_path):
    model_path = tmp_path / "never.json"
    from pemkit import never_detect_model

    save_model(never_detect_model(), model_path)
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenario", "TC1", "--model", f"never={model_path}",
        "--baseline", "--runs", "2", "--baseline-runs", "2",
        "--seed", "0", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["cells"]) == 2
    by_source = {c["source"]: c for c in report["cells"]}
    assert by_source["never"]["fraction_below_1m"] == 1.0
    assert by_source["groundtruth"]["fraction_below_1m"] == 0.0
    table = (out / "table.txt").read_text()
    assert "TC1 <1m" in table and "never" in table

    rep_out = tmp_path / "rep"
    assert main(["report", "--run-dir", str(out), "--out-dir", str(rep_out)]) == EXIT_OK
    assert (rep_out / "table.txt").read_text() == table
    runs_csv = (rep_out / "runs_never__TC1.csv").read_text().splitlines()
    assert len(runs_csv) == 3  # header + 2 runs


def test_simulate_is_byte_reproducible(tmp_path):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    out = tmp_path / "sim"
    args = [
        "simulate", "--scenario", "TC1", "--model", f"m={model_path}",
        "--runs", "1", "--seed", "7", "--save-logs", "--out-dir", str(out),
    ]
    assert main(args) == EXIT_OK
    first = snapshot(out)
    assert main(args) == EXIT_OK
    assert snapshot(out) == first
    assert any("runs/run_000007.jsonl" in k for k in first)


def test_simulate_usage_error(tmp_path, capsys):
    code = main(["simulate", "--scenario", "TC1", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "sources, label",
    [
        (["--model", "a={p}", "--model", "a={n}"], "a"),
        (["--model", "{p}", "--model", "{other}/p.json"], "p"),
        (["--server", "127.0.0.1:1:m", "--server", "127.0.0.1:2:m"], "remote:m"),
        (["--model", "remote:m={p}", "--server", "127.0.0.1:1:m"], "remote:m"),
        (["--model", "groundtruth={p}", "--baseline"], "groundtruth"),
        (["--model", "={p}", "--model", "perfect={n}"], "perfect"),  # an empty name labels by model metadata
    ],
    ids=["model-name", "file-stem", "server-model", "model-and-server", "baseline", "metadata"],
)
def test_simulate_rejects_repeated_source_labels(tmp_path, capsys, sources, label):
    (tmp_path / "other").mkdir()
    paths = {"p": tmp_path / "p.json", "n": tmp_path / "n.json", "other": tmp_path / "other"}
    save_model(perfect_model(), paths["p"])
    save_model(never_detect_model(), paths["n"])
    save_model(never_detect_model(), paths["other"] / "p.json")
    out = tmp_path / "sim"
    args = [a.format(**paths) for a in sources]
    code = main(["simulate", "--scenario", "TC1", *args, "--runs", "2", "--out-dir", str(out)])
    assert code == EXIT_USAGE
    assert repr(label) in capsys.readouterr().err
    assert not out.exists()  # rejected before any run


@pytest.mark.parametrize(
    "sources, metadata, code, label",
    [
        (["--model", "../escape={p}"], "m", EXIT_USAGE, "../escape"),
        (["--model", "..={p}"], "m", EXIT_USAGE, ".."),
        (["--model", "a\\b={p}"], "m", EXIT_USAGE, "a\\b"),
        (["--model", "a\0b={p}"], "m", EXIT_USAGE, "a\0b"),
        (["--server", "127.0.0.1:1:../escape"], "m", EXIT_USAGE, "remote:../escape"),
        (["--model", "={p}"], "../escape", EXIT_DATA, "../escape"),  # no NAME: the model file labels it
    ],
    ids=["model-name", "dot-dot", "backslash", "nul", "server-model", "model-metadata"],
)
def test_simulate_rejects_labels_that_are_not_file_names(tmp_path, capsys, sources, metadata, code, label):
    model_path = tmp_path / "models" / "p.json"
    model_path.parent.mkdir()
    save_model(perfect_model(metadata=metadata), model_path)
    out = tmp_path / "models" / "sim"
    args = [a.format(p=model_path) for a in sources]
    assert main(["simulate", "--scenario", "TC1", *args, "--runs", "1", "--out-dir", str(out)]) == code
    assert f"source label must be a plain file name, got {label!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["models", "p.json"]  # nothing written


def test_simulate_manifest_lists_model_paths(tmp_path):
    save_model(perfect_model(), tmp_path / "p.json")
    save_model(never_detect_model(), tmp_path / "n.json")
    out = tmp_path / "sim"
    args = ["--model", f"a={tmp_path / 'p.json'}", "--model", str(tmp_path / "n.json")]
    assert main(["simulate", "--scenario", "TC1", *args, "--runs", "1", "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == [str(tmp_path / "n.json"), str(tmp_path / "p.json")]
    assert {c["source"] for c in json.loads((out / "report.json").read_text())["cells"]} == {"a", "n"}


def test_serve_subprocess_and_shutdown(tmp_path):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pemkit.cli", "serve", "--model", f"m={model_path}", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "serving" in line
        port = int(line.rsplit(":", 1)[1])
        with PemClient("127.0.0.1", port) as client:
            client.init("m", 1)
            assert client.frame(0, [{"id": 1, "x": 0.0, "y": 10.0, "occ": 3}])
            client.shutdown_server()
        assert proc.wait(timeout=10) == EXIT_OK
    finally:
        if proc.poll() is None:
            proc.kill()


def test_serve_stops_on_sigterm(tmp_path):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pemkit.cli", "serve", "--model", f"m={model_path}", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert "serving" in proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        out, _err = proc.communicate(timeout=10)
        assert proc.returncode == EXIT_OK
        assert "server stopped" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_serve_bind_conflict_is_io_error(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    server, _t = serve_in_thread({"m": perfect_model()})
    try:
        host, port = server.address
        code = main(["serve", "--model", f"m={model_path}", "--host", host, "--port", str(port)])
        assert code == EXIT_IO
    finally:
        server.shutdown()
        server.close()


def test_config_file_provides_defaults(dataset_path, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sector_deg": 90.0, "ring_depth_m": 10.0, "max_radius_m": 20.0,
        "dataset": str(dataset_path), "out": str(tmp_path / "m.json"),
    }))
    assert main(["--config", str(config), "learn"]) == EXIT_OK
    assert load_model(tmp_path / "m.json").grid == GRID
    (tmp_path / "m.json").unlink()
    assert main([f"--config={config}", "learn"]) == EXIT_OK  # the = form is read too
    assert load_model(tmp_path / "m.json").grid == GRID


def test_config_without_path_is_usage_error(capsys):
    assert main(["learn", "--config"]) == EXIT_USAGE
    assert "argument --config: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"id": "TC1", "perception_rate_hz": 0}, "perception_rate_hz must be an integer >= 1, got 0"),
        ({"id": "TC1", "tick_rate_hz": 0}, "tick_rate_hz must be an integer >= 1, got 0"),
        ({"id": "TC1", "tick_rate_hz": 10.5}, "tick_rate_hz must be an integer >= 1, got 10.5"),
        ({"id": "TC1", "duration_s": -5}, "duration_s must last a finite number of ticks, at least one, got -5"),
        ({"id": "TC1", "duration_s": 0.01}, "duration_s must last a finite number of ticks, at least one, got 0.01"),
        ({"id": "TC1", "duration_s": float("inf")}, "scenario option duration_s must be a finite number, got inf"),
        ({"id": "TC1", "pedestrian_y": "200"}, "scenario option pedestrian_y must be a finite number, got '200'"),
        ({"id": "TC3", "walk_speed": True}, "scenario option walk_speed must be a finite number > 0, got True"),
        ({"id": "TC1", "pedestrian_y": 10**400}, "scenario option pedestrian_y must be a finite number, got 1000"),
        ({"id": "TC1", "duration_s": 1e308}, "duration_s must last a finite number of ticks, at least one, got 1e+308"),
        ({"id": "TC1", "cruise_speed": -5.0}, "scenario option cruise_speed must be a finite number >= 0, got -5.0"),
        ({"id": "TC2", "lead_speed": -1}, "scenario option lead_speed must be a finite number >= 0, got -1"),
        ({"id": "TC3", "walk_speed": 0}, "scenario option walk_speed must be a finite number > 0, got 0"),
        ({"id": "TC1", "walk_speed": -1.0}, "scenario option walk_speed must be a finite number > 0, got -1.0"),
        ({"id": "TC2", "road_length_m": 0.0}, "scenario option road_length_m must be a finite number > 0, got 0.0"),
        ({"id": "TC2", "lasers": 1}, "scenario TC2: unknown key 'lasers'"),
    ],
    ids=["zero-perception-rate", "zero-tick-rate", "fractional-tick-rate", "negative-duration",
         "duration-below-one-tick", "infinite-duration", "string-position", "bool-speed", "overflowing-position",
         "overflowing-tick-count", "negative-cruise-speed", "negative-lead-speed", "zero-walk-speed",
         "negative-walk-speed", "zero-road-length", "unknown-option"],
)
def test_simulate_rejects_bad_scenario_rates(tmp_path, capsys, doc, message):
    """Rates, and every other scenario override value, are checked before any run."""
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario), "--model", f"m={model_path}", "--runs", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any run


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"headway": 2.0}, "unknown key 'headway'"),
        ([1, 2], "must be an object, got [1, 2]"),
        ({"comfort_accel": "2"}, "comfort_accel must be a finite number, got '2'"),
        ({"corridor_half_width_m": -1.0}, "corridor_half_width_m must be a finite number >= 0, got -1.0"),
        ({"headway_s": -5}, "headway_s must be a finite number >= 0, got -5"),
        ({"standstill_m": float("inf")}, "standstill_m must be a finite number >= 0, got inf"),
        ({"headway_s": 10**400}, "headway_s must be a finite number >= 0, got 1000"),
        ({"max_decel": 10**400}, "max_decel must be a finite number, got 1000"),
        ({"max_decel": float("inf")}, "max_decel must be a finite number, got inf"),
    ],
    ids=["unknown-key", "not-an-object", "not-a-number", "negative-corridor", "negative-headway",
         "infinite-standstill", "overflowing-headway", "overflowing-decel", "infinite-decel"],
)
def test_simulate_rejects_bad_policy_file(tmp_path, capsys, doc, message):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "TC1", "--model", f"m={model_path}", "--policy", str(policy),
                 "--runs", "1", "--out-dir", str(out)])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


def stochastic_model():
    return PemModel.uniform(
        GridSpec(), TransitionMatrix(0.5, 0.8), ErrorDistribution(1.02, 0.01, 0.04, 0.02, 0.1), "m"
    )


def test_simulate_outputs_do_not_depend_on_workers(tmp_path, monkeypatch):
    model_path = tmp_path / "m.json"
    save_model(stochastic_model(), model_path)
    out = tmp_path / "sim"
    args = [
        "simulate", "--scenario", "TC1", "--scenario", "TC3", "--model", f"m={model_path}", "--baseline",
        "--runs", "5", "--baseline-runs", "2", "--seed", "11", "--save-logs", "--out-dir", str(out),
    ]
    snapshots = []
    default = cli.usable_workers
    for workers in (lambda: 1, lambda: 2, lambda: 3, default):
        monkeypatch.setattr(cli, "usable_workers", workers)
        assert main(args) == EXIT_OK
        assert multiprocessing.active_children() == []
        snapshots.append(snapshot(out))
        shutil.rmtree(out)
    assert len(snapshots[0]) == 3 + 4 * 1 + (2 * 5 + 2 * 2)  # manifest, report, table; a report and logs per cell
    assert all(snap == snapshots[0] for snap in snapshots[1:])


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_simulate_workers_follow_cpu_affinity_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert cli.usable_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert cli.usable_workers() == parallel.MAX_WORKERS


def test_simulate_data_error_in_runs_leaves_no_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "usable_workers", lambda: 2)
    run_once = experiment.run_once

    def failing_run_once(spec, source, seed, *args, **kwargs):
        if seed == 2:
            raise ValueError(f"run {seed} failed")
        return run_once(spec, source, seed, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_once", failing_run_once)  # the forked workers inherit it
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    code = main(["simulate", "--scenario", "TC1", "--model", f"m={model_path}", "--runs", "4",
                 "--out-dir", str(tmp_path / "sim")])
    assert code == EXIT_DATA
    assert "run 2 failed" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_simulate_against_stopped_server_aborts_and_leaves_no_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "usable_workers", lambda: 2)
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pemkit.cli", "serve", "--model", f"m={model_path}", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline().rsplit(":", 1)[1])
        with PemClient("127.0.0.1", port) as client:
            client.shutdown_server()
        assert proc.wait(timeout=10) == EXIT_OK
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "TC1", "--server", f"127.0.0.1:{port}:m", "--runs", "3",
                 "--out-dir", str(out)])
    assert code == EXIT_IO
    assert "3 aborted runs" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["cells"][0]["n_aborted"] == 3
    assert multiprocessing.active_children() == []


def test_simulate_accepts_scenario_config_file(tmp_path):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    scenario = tmp_path / "short_tc1.json"
    scenario.write_text(json.dumps({"id": "TC1", "pedestrian_y": 200.0, "road_length_m": 260.0, "duration_s": 40.0}))
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenario", str(scenario), "--model", f"m={model_path}",
        "--runs", "1", "--seed", "0", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["cells"][0]["scenario"] == "TC1"
    assert report["cells"][0]["fraction_below_1m"] == 0.0


def test_report_flags_mixed_grids(tmp_path, capsys):
    from pemkit import GridSpec as GS, never_detect_model

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, grid_kw in ((out_a, {}), (out_b, dict(sector_width_deg=90.0, max_radius_m=20.0))):
        model_path = tmp_path / f"m_{out.name}.json"
        save_model(never_detect_model(GS(**grid_kw)), model_path)
        assert main([
            "simulate", "--scenario", "TC1", "--model", f"m{out.name}={model_path}",
            "--runs", "1", "--seed", "0", "--out-dir", str(out),
        ]) == EXIT_OK
    rep = tmp_path / "rep"
    assert main(["report", "--run-dir", str(out_a), "--run-dir", str(out_b), "--out-dir", str(rep)]) == EXIT_OK
    assert "different model grids" in capsys.readouterr().err
    doc = json.loads((rep / "report.json").read_text())
    assert doc["warnings"]


def bad_model_doc(edit):
    from pemkit.model import model_to_dict

    doc = model_to_dict(never_detect_model(GRID))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["conditions"][5].update(sector=1.9), "conditions[5].sector must be an integer, got 1.9"),
        (lambda d: d["conditions"][0].update(occ=0.0), "conditions[0].occ must be an integer, got 0.0"),
        (lambda d: d["conditions"][2].update(ring=True), "conditions[2].ring must be an integer, got True"),
        (lambda d: d["conditions"][3].pop("a11"), "missing field: conditions[3].a11"),
        (lambda d: d["grid"].update(ring_depth_m=float("inf")), "grid.ring_depth_m must be a finite number, got inf"),
        (lambda d: d["grid"].update(sector_width_deg=1e-6), "grid has 2.88e+09 conditions, more than 1000000"),
    ],
    ids=["fractional-sector", "float-occ", "bool-ring", "missing-field", "infinite-ring-depth", "oversized-grid"],
)
def test_model_file_values_are_checked_before_any_output(tmp_path, capsys, edit, message):
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(bad_model_doc(edit)))
    out = tmp_path / "out"
    for argv in (["inspect", "--model", str(model_path), "--out-dir", str(out)],
                 ["simulate", "--scenario", "TC1", "--model", str(model_path), "--runs", "1", "--out-dir", str(out)]):
        assert main(argv) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--gate-m", "nan"], "option gate_m must be a finite number > 0, got nan"),
        (["--gate-m", "-1"], "option gate_m must be a finite number > 0, got -1.0"),
        (["--frame-rate-hz", "0"], "option frame_rate_hz must be a finite number > 0, got 0.0"),
        (["--frame-rate-hz", "inf"], "option frame_rate_hz must be a finite number > 0, got inf"),
        (["--sector-deg", "nan"], "option sector_deg must be a finite number, got nan"),
    ],
    ids=["nan-gate", "negative-gate", "zero-frame-rate", "infinite-frame-rate", "nan-sector"],
)
def test_learn_rejects_bad_options_before_any_output(dataset_path, tmp_path, capsys, options, message):
    out = tmp_path / "out"
    code = main(["learn", "--dataset", str(dataset_path), "--out", str(out / "m.json"), *options])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "options, config, message",
    [
        (["--runs", "0"], None, "option runs must be an integer >= 1, got 0"),
        (["--baseline", "--baseline-runs", "0"], None, "option baseline_runs must be an integer >= 1, got 0"),
        (["--seed", "-1"], None, "option seed must be an integer >= 0, got -1"),
        (["--baseline"], {"baseline_runs": 2.5}, "option baseline_runs must be an integer >= 1, got 2.5"),
        ([], {"seed": 1.5}, "option seed must be an integer >= 0, got 1.5"),
        ([], {"runs": True}, "option runs must be an integer >= 1, got True"),
        ([], {"baseline": "yes"}, "option baseline must be true or false, got 'yes'"),
        ([], {"policy": 1}, "option policy must be a string, got 1"),
        ([], {"scenario": "TC1"}, "option scenario must be a list, got 'TC1'"),
        ([], {"scenario": [1]}, "option scenario[0] must be a string, got 1"),
    ],
    ids=["zero-runs", "zero-baseline-runs", "negative-seed", "config-fractional-runs", "config-fractional-seed",
         "config-bool-runs", "config-string-flag", "config-number-path", "config-string-list", "config-number-item"],
)
def test_simulate_rejects_bad_options_before_any_output(tmp_path, capsys, options, config, message):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    argv = ["simulate", "--model", f"m={model_path}", "--out-dir", str(tmp_path / "sim")]
    if config is None:
        argv += ["--scenario", "TC1", "--runs", "1", *options]
    else:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "config.json"), *argv, *options]
        if "scenario" not in config:
            argv += ["--scenario", "TC1"]
    assert main(argv) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_rejects_port_out_of_range(tmp_path, capsys, port):
    model_path = tmp_path / "m.json"
    save_model(perfect_model(), model_path)
    assert main(["serve", "--model", str(model_path), "--port", port]) == EXIT_DATA
    assert f"option port must be an integer in [0, 65535], got {port}" in capsys.readouterr().err
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "TC1", "--server", f"127.0.0.1:{port}:m", "--runs", "1", "--out-dir", str(out)])
    assert code == EXIT_DATA
    assert f"option server port must be an integer in [0, 65535], got {port}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    assert main(["--config", str(config), "learn"]) == EXIT_DATA
    assert f"--config file {config} must be an object, got [1]" in capsys.readouterr().err


def simulated_report(tmp_path) -> dict:
    model_path = tmp_path / "m.json"
    save_model(never_detect_model(), model_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "TC1", "--model", f"m={model_path}", "--runs", "2",
                 "--out-dir", str(out)]) == EXIT_OK
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.clear(), "missing field: cells"),
        (lambda d: d.update(cells={}), "cells must be a list, got {}"),
        (lambda d: d["cells"].append(1), "cells[1] must be an object, got 1"),
        (lambda d: d["cells"][0].pop("source"), "missing field: cells[0].source"),
        (lambda d: d["cells"][0].update(n_runs="2"), "cells[0].n_runs must be an integer, got '2'"),
        (lambda d: d["cells"][0].update(baseline=0), "cells[0].baseline must be true or false, got 0"),
        (lambda d: d["cells"][0]["min_distances_m"].append(None), "cells[0]: min_distances_m, detection_freqs"),
        (lambda d: d["cells"][0]["min_distances_m"].__setitem__(0, None),
         "cells[0].min_distances_m must be a finite number, got None"),
        (lambda d: d["cells"][0].update(grid={"ring_depth_m": "10"}), "cells[0].grid must be a finite number"),
        (lambda d: d["cells"][0].update(source="../escape"),
         "cells[0].source must be a plain file name, got '../escape'"),
        (lambda d: d["cells"][0].update(scenario=".."), "cells[0].scenario must be a plain file name, got '..'"),
        (lambda d: d["cells"][0].update(source="a\\b"), "cells[0].source must be a plain file name, got 'a\\\\b'"),
    ],
    ids=["empty", "cells-object", "cell-number", "missing-source", "string-runs", "number-baseline",
         "uneven-runs", "null-distance", "string-grid", "escaping-source", "dot-dot-scenario", "backslash-source"],
)
def test_report_rejects_bad_report_file_before_any_output(tmp_path, capsys, edit, message):
    doc = simulated_report(tmp_path)
    edit(doc)
    run_dir = tmp_path / "bad"
    run_dir.mkdir()
    (run_dir / "report.json").write_text(json.dumps(doc))
    out = tmp_path / "rep"
    assert main(["report", "--run-dir", str(run_dir), "--out-dir", str(out)]) == EXIT_DATA
    assert f"{run_dir / 'report.json'}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_report_of_a_list_is_a_data_error(tmp_path, capsys):
    (tmp_path / "report.json").write_text("[1]")
    assert main(["report", "--run-dir", str(tmp_path), "--out-dir", str(tmp_path / "rep")]) == EXIT_DATA
    assert "report.json: document must be an object, got [1]" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_outputs_reject_non_finite_values():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._canonical_json({"fraction": float("nan")})
