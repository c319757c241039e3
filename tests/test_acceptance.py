"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pemkit import (
    CarSpec,
    ErrorDistribution,
    FieldObservation,
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PemModel,
    PolarCoord,
    SyntheticDatasetConfig,
    TransitionMatrix,
    fit_car,
    learn_pem,
    match_frame,
    perfect_model,
    save_dataset,
    serve_in_thread,
    session_rng,
    synthesize_dataset,
    wrap_angle,
)
from pemkit.client import replay_transcript
from pemkit.inject import checked_cells, perceive
from pemkit.matching import brute_force_match
from pemkit.model import IDENTITY_EMISSION
from pemkit.cli import EXIT_OK, main
from pemkit.sim import (
    GroundTruthSource,
    ModelSource,
    RemoteSource,
    RunLog,
    make_tc1,
    make_tc2,
    make_tc3,
    perception_metrics,
    run_experiment,
    run_once,
    save_runlog,
)
from pemkit.sim.runner import PerceptionRecord, TickRow

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:2d}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


# ---------------------------------------------------------------- criterion 1


def test_01_model_recovery():
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
    n = grid.n_conditions
    rng = np.random.default_rng(3)
    truth = PemModel(
        grid=grid,
        metadata="truth",
        a01=rng.uniform(0.25, 0.75, n),
        a11=rng.uniform(0.55, 0.95, n),
        mu_r=rng.uniform(0.99, 1.01, n),
        mu_theta=rng.uniform(-0.015, 0.015, n),
        sigma_r=rng.uniform(0.02, 0.03, n),
        sigma_theta=rng.uniform(0.01, 0.03, n),
        rho=rng.uniform(-0.4, 0.4, n),
    )
    cfg = SyntheticDatasetConfig(
        true_model=truth,
        n_scenes=200,
        frames_per_scene=50,
        objects_per_scene=32,
        occlusion_levels=(0, 1),
        seed=11,
    )
    t0 = time.monotonic()
    dataset = synthesize_dataset(cfg)
    from pemkit import accumulate_stats

    stats = accumulate_stats(dataset, grid)
    model, diag = learn_pem(dataset, grid)
    elapsed = time.monotonic() - t0

    active = np.zeros(n, bool)
    active[: 2 * grid.n_rings * grid.n_sectors] = True
    per_cond = stats.transitions.sum(axis=(1, 2))[active]
    errs = {
        "a01": np.abs(model.a01[active] - truth.a01[active]).max(),
        "a11": np.abs(model.a11[active] - truth.a11[active]).max(),
        "mu_r": np.abs(model.mu_r[active] - truth.mu_r[active]).max(),
        "mu_theta": np.abs(model.mu_theta[active] - truth.mu_theta[active]).max(),
        "sigma_r_rel": np.abs(model.sigma_r[active] / truth.sigma_r[active] - 1).max(),
        "sigma_theta_rel": np.abs(model.sigma_theta[active] / truth.sigma_theta[active] - 1).max(),
        "rho": np.abs(model.rho[active] - truth.rho[active]).max(),
    }
    ok = (
        per_cond.min() >= 10_000
        and errs["a01"] <= 0.02
        and errs["a11"] <= 0.02
        and errs["mu_r"] <= 0.01
        and errs["mu_theta"] <= 0.01
        and errs["sigma_r_rel"] <= 0.05
        and errs["sigma_theta_rel"] <= 0.05
        and errs["rho"] <= 0.05
        and elapsed < 120.0
    )
    detail = (
        f"min transitions/cond {per_cond.min()}, "
        + ", ".join(f"{k}={v:.4f}" for k, v in errs.items())
        + f", {elapsed:.1f}s"
    )
    report(1, "model recovery from synthetic dataset", ok, detail)


# ---------------------------------------------------------------- criterion 2


def test_02_car_limits():
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
    spec = CarSpec.for_grid(grid, alpha=0.95)
    n = grid.n_conditions

    values = np.full(n, 0.6)
    weights = np.full(n, 1e6)
    empty = np.zeros(n, bool)
    empty[5], weights[5] = True, 0.0
    fit = fit_car(FieldObservation("mean", values, weights, empty, scale=1.0), spec)
    dev_a = abs(fit.values[5] - 0.95 * 0.6)

    values = np.full(n, 0.9)
    values[5] = 0.3
    fit = fit_car(FieldObservation("binomial", values, np.full(n, 1e6), np.zeros(n, bool)), spec)
    dev_b = abs(fit.values[5] - 0.3)

    dev_c = 0.0
    for kind, value in (("mean", 0.37), ("binomial", 0.3)):
        obs = FieldObservation(kind, np.full(n, value), np.full(n, 1e7), np.zeros(n, bool), scale=1.0)
        fit = fit_car(obs, spec)
        dev_c = max(dev_c, float(np.abs(fit.values - value).max()))

    ok = dev_a <= 1e-3 and dev_b <= 0.01 and dev_c <= 1e-6
    report(2, "CAR smoothing limit behaviors", ok, f"empty={dev_a:.2e}, heavy={dev_b:.2e}, uniform={dev_c:.2e}")


# ---------------------------------------------------------------- criterion 3


def test_03_stationary_detection_grid():
    # 100 independent chains in one condition, 1,000 frames each, all starting undetected.
    grid = GridSpec()
    world = [(i, 20.0, 0.0, OcclusionLevel.VIS3) for i in range(100)]
    worst = 0.0
    for a01 in (0.1, 0.5, 0.9):
        for a11 in (0.1, 0.5, 0.9):
            model = PemModel.uniform(grid, TransitionMatrix(a01, a11), IDENTITY_EMISSION)
            rng = session_rng(int(1000 * a01 + 100 * a11))
            tracks = {}
            hits = 0
            for _ in range(1000):
                _, tracks = perceive(model, checked_cells(model, world), tracks, rng)
                hits += sum(tracks.values())
            expected = a01 / (1.0 + a01 - a11)
            worst = max(worst, abs(hits / (100 * 1000) - expected))
    report(3, "stationary detection frequency over 9 parameter pairs", worst <= 0.02, f"worst dev {worst:.4f}")


# ---------------------------------------------------------------- criterion 4


def test_04_matching_oracle():
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(0, 6))
        m = int(rng.integers(0, 6))
        gt = [
            GroundTruthObject(i, PolarCoord(float(rng.uniform(0.5, 40)), float(rng.uniform(-3.1, 3.1))), OcclusionLevel.VIS3)
            for i in range(n)
        ]
        det = [PolarCoord(float(rng.uniform(0.5, 40)), float(rng.uniform(-3.1, 3.1))) for _ in range(m)]
        result = match_frame(gt, det)
        card, cost = brute_force_match(gt, det)
        if len(result.assignments) != card or result.total_cost != cost:
            mismatches += 1
    report(4, "matching equals exhaustive optimum on 1000 random frames", mismatches == 0, f"{mismatches} mismatches")


# ---------------------------------------------------------------- criterion 5


def test_05_identity_pem_transparency():
    worst = 0.0
    for make in (make_tc1, make_tc2, make_tc3):
        spec = make()
        base = run_once(spec, GroundTruthSource(), seed=0)
        pem = run_once(spec, ModelSource(perfect_model()), seed=0)
        same_len = len(base.ticks) == len(pem.ticks)
        if not same_len:
            report(5, "identity-model trajectories equal ground-truth baseline", False, f"{spec.scenario_id} tick counts differ")
        for rb, rp in zip(base.ticks, pem.ticks):
            worst = max(
                worst,
                abs(rb.ego_x - rp.ego_x),
                abs(rb.ego_y - rp.ego_y),
                abs(rb.ego_speed - rp.ego_speed),
            )
    report(5, "identity-model trajectories equal ground-truth baseline", worst <= 1e-9, f"worst dev {worst:.2e}")


# ---------------------------------------------------------------- criterion 6


def frontal_rate_model(p: float) -> PemModel:
    """Detection probability p (stationary) in sectors within 60 deg of the
    heading, 0 elsewhere; identity emissions."""
    grid = GridSpec()
    a01 = np.zeros(grid.n_conditions)
    per_occ = grid.n_rings * grid.n_sectors
    for occ in range(4):
        for ring in range(grid.n_rings):
            for sector in range(grid.n_sectors):
                center = (sector + 0.5) * grid.sector_width_rad
                if abs(wrap_angle(center)) <= math.radians(60.0):
                    a01[occ * per_occ + ring * grid.n_sectors + sector] = p
    model = PemModel.uniform(grid, TransitionMatrix(0.0, 0.0), IDENTITY_EMISSION, f"frontal-{p}")
    return replace(model, a01=a01, a11=a01)


def test_06_safety_ordering_with_detection_rate():
    fractions = []
    for p in (0.0, 0.5, 1.0):
        model = frontal_rate_model(p)
        report_exp = run_experiment(make_tc1(), ModelSource(model), n_runs=200, base_seed=100)
        fractions.append(report_exp.cells[0].fraction_below_1m)
    ok = (
        fractions[0] == 1.0
        and fractions[-1] == 0.0
        and all(a >= b for a, b in zip(fractions, fractions[1:]))
    )
    report(6, "collision fraction monotone in frontal detection rate", ok, f"fractions {fractions}")


# ---------------------------------------------------------------- criterion 7


def test_07_baseline_safety():
    worst = math.inf
    total_below = 0
    for make in (make_tc1, make_tc2, make_tc3):
        rep = run_experiment(make(), GroundTruthSource(), n_runs=250, base_seed=0, baseline=True)
        cell = rep.cells[0]
        total_below += sum(1 for d in cell.min_distances if d < 1.0)
        worst = min(worst, min(cell.min_distances))
    report(7, "error-free baseline never gets closer than 1 m", total_below == 0, f"0 of 750 runs below; min {worst:.2f} m")


# ---------------------------------------------------------------- criterion 8


def test_08_server_equivalence_and_conformance(tmp_path):
    model = PemModel.uniform(
        GridSpec(),
        TransitionMatrix(0.6, 0.85),
        ErrorDistribution(1.05, 0.01, 0.05, 0.02, 0.3),
        "m",
    )
    server, _t = serve_in_thread({"m": model})
    try:
        host, port = server.address
        local = run_once(make_tc1(), ModelSource(model, label="m"), seed=5)
        remote_source = RemoteSource(host, port, "m", label="m")
        remote = run_once(make_tc1(), remote_source, seed=5)
        remote_source.close()
        pa, pb = tmp_path / "local.jsonl", tmp_path / "remote.jsonl"
        save_runlog(local, pa)
        save_runlog(remote, pb)
        identical = pa.read_bytes() == pb.read_bytes()
    finally:
        server.shutdown()
        server.close()

    from pemkit import load_model

    conf_model = load_model(REPO_ROOT / "conformance" / "model.json")
    server, _t = serve_in_thread({"conformance": conf_model})
    try:
        host, port = server.address
        mismatches = replay_transcript(REPO_ROOT / "conformance" / "transcript.jsonl", host, port)
    finally:
        server.shutdown()
        server.close()
    ok = identical and not mismatches
    report(8, "remote perception equals local; conformance transcript replays", ok,
           f"logs identical={identical}, transcript mismatches={len(mismatches)}")


# ---------------------------------------------------------------- criterion 9


def fabricated(detected, ranges=None):
    n = len(detected)
    ranges = ranges if ranges is not None else [50.0] * n
    log = RunLog(
        scenario_id="TCX", seed=0, source_label="fab", tick_rate_hz=2, perception_rate_hz=2,
        ego_dims=(4.5, 1.8),
        obstacles=[{"name": "ped", "kind": "pedestrian", "length": 0.5, "width": 0.5}],
        policy={},
    )
    for k, (d, r) in enumerate(zip(detected, ranges)):
        log.ticks.append(
            TickRow(t=k / 2, ego_x=0.0, ego_y=0.0, ego_speed=0.0, ego_accel=0.0,
                    actors=[(0.0, r, math.pi, 0.0)],
                    perception=PerceptionRecord(
                        perceived=[(1, 0.0, r)] if d else [],
                        detected={"ped": bool(d)},
                        ranges={"ped": r},
                        visibility={"ped": 1.0},
                    ))
        )
    return log


def test_09_metric_arithmetic():
    far = 150.0
    cases = [
        # (detected pattern, ranges or None, expected freq, expected gap seconds)
        ([1, 0, 0, 1, 0], None, 0.4, 1.0),
        ([1] * 8, None, 1.0, 0.0),
        ([0] * 10, None, 0.0, 5.0),
        ([1], None, 1.0, 0.0),
        ([0], None, 0.0, 0.5),
        ([1, 1, 0, 0, 0, 1], None, 0.5, 1.5),
        ([0, 1, 0, 1, 0, 1], None, 0.5, 0.5),
        ([0, 0, 1, 1, 0, 0], None, 1 / 3, 1.0),
        ([1, 0, 1, 0, 1, 0, 1], None, 4 / 7, 0.5),
        ([0, 0, 0, 1], None, 0.25, 1.5),
        ([1, 1, 1, 0], None, 0.75, 0.5),
        ([1, 0, 0, 0, 1, 0, 0, 1], None, 3 / 8, 1.5),
        ([0, 1, 1, 1, 1, 0], None, 4 / 6, 0.5),
        ([1, 0, 1], [50.0, far, 50.0], 1.0, 0.0),  # far tick ineligible
        ([0, 0, 1], [50.0, far, 50.0], 0.5, 0.5),  # gap broken by ineligible tick
        ([0, 0, 0, 0], [far, 50.0, 50.0, far], 0.0, 1.0),
        ([1, 1, 1, 1], [far, far, far, 50.0], 1.0, 0.0),
        ([1, 0, 0, 1, 0], [50.0] * 4 + [far], 0.5, 1.0),
        ([0, 1, 0, 0, 1, 0, 0, 0, 1], None, 1 / 3, 1.5),
        ([1, 0, 0, 1, 1, 0, 0, 0, 0, 1], None, 0.4, 2.0),
    ]
    failures = []
    for i, (pattern, ranges, want_freq, want_gap) in enumerate(cases):
        freq, gap = perception_metrics(fabricated(pattern, ranges))
        if not (freq == pytest.approx(want_freq, abs=1e-12) and gap == pytest.approx(want_gap, abs=1e-12)):
            failures.append((i, pattern, freq, gap, want_freq, want_gap))
    report(9, "perception metrics match 20 hand-computed patterns", not failures, f"{len(failures)} failures: {failures[:3]}")


# --------------------------------------------------------------- criterion 10


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_10_cli_determinism(tmp_path):
    grid_args = ["--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20"]
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
    truth = PemModel.uniform(grid, TransitionMatrix(0.6, 0.8), ErrorDistribution(1.02, 0.0, 0.03, 0.02, 0.0), "t")
    ds_path = tmp_path / "dataset.jsonl"
    cfg = SyntheticDatasetConfig(true_model=truth, n_scenes=6, frames_per_scene=20,
                                 objects_per_scene=16, occlusion_levels=(0, 1), seed=2)
    save_dataset(synthesize_dataset(cfg), ds_path)
    model_path = tmp_path / "learn" / "model.json"

    runs = {
        "learn": ["learn", "--dataset", str(ds_path), "--out", str(model_path), *grid_args],
        "inspect": None,  # filled after learn exists
        "simulate": None,
        "report": None,
    }
    stable = True
    details = []

    out_learn = tmp_path / "learn"
    assert main(runs["learn"]) == EXIT_OK
    first = snapshot(out_learn)
    assert main(runs["learn"]) == EXIT_OK
    stable &= snapshot(out_learn) == first
    details.append("learn")

    out_inspect = tmp_path / "inspect"
    args = ["inspect", "--model", str(model_path), "--parameter", "a11", "--out-dir", str(out_inspect)]
    assert main(args) == EXIT_OK
    first = snapshot(out_inspect)
    assert main(args) == EXIT_OK
    stable &= snapshot(out_inspect) == first
    details.append("inspect")

    out_sim = tmp_path / "sim"
    args = [
        "simulate", "--scenario", "TC1", "--model", f"m={model_path}", "--baseline",
        "--runs", "2", "--baseline-runs", "1", "--seed", "0", "--save-logs", "--out-dir", str(out_sim),
    ]
    assert main(args) == EXIT_OK
    first = snapshot(out_sim)
    assert main(args) == EXIT_OK
    stable &= snapshot(out_sim) == first
    details.append("simulate")

    out_rep = tmp_path / "rep"
    args = ["report", "--run-dir", str(out_sim), "--out-dir", str(out_rep)]
    assert main(args) == EXIT_OK
    first = snapshot(out_rep)
    assert main(args) == EXIT_OK
    stable &= snapshot(out_rep) == first
    details.append("report")

    report(10, "subcommands re-run byte-identically", stable, "+".join(details))
