import numpy as np
import pytest

from pemkit import (
    CarSpec,
    EmptyDatasetError,
    GridSpec,
    PemModel,
    PerceptionDataset,
    Scene,
    SyntheticDatasetConfig,
    accumulate_stats,
    estimate_mle,
    fit_car,
    learn_pem,
    perfect_model,
    synthesize_dataset,
)
from pemkit.stats import FIELD_NAMES

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)


def heterogeneous_truth(seed=3, grid=GRID):
    n = grid.n_conditions
    rng = np.random.default_rng(seed)
    return PemModel(
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


def test_small_scale_recovery():
    truth = heterogeneous_truth()
    cfg = SyntheticDatasetConfig(
        true_model=truth,
        n_scenes=30,
        frames_per_scene=50,
        objects_per_scene=32,
        occlusion_levels=(0, 1),
        seed=11,
    )
    dataset = synthesize_dataset(cfg)
    model, diag = learn_pem(dataset, GRID)
    active = np.zeros(GRID.n_conditions, bool)
    active[: 2 * GRID.n_rings * GRID.n_sectors] = True
    assert np.abs(model.a01[active] - truth.a01[active]).max() < 0.05
    assert np.abs(model.a11[active] - truth.a11[active]).max() < 0.04
    assert np.abs(model.mu_r[active] - truth.mu_r[active]).max() < 0.01
    assert np.abs(model.mu_theta[active] - truth.mu_theta[active]).max() < 0.01
    assert np.abs(model.sigma_r[active] / truth.sigma_r[active] - 1).max() < 0.08
    assert np.abs(model.rho[active] - truth.rho[active]).max() < 0.08
    assert all(fit.converged for fit in diag.fits.values())


def test_learn_is_deterministic():
    cfg = SyntheticDatasetConfig(
        true_model=heterogeneous_truth(),
        n_scenes=4,
        frames_per_scene=20,
        objects_per_scene=16,
        occlusion_levels=(0, 1),
        seed=2,
    )
    dataset = synthesize_dataset(cfg)
    m1, _ = learn_pem(dataset, GRID)
    m2, _ = learn_pem(dataset, GRID)
    assert m1 == m2


def test_unvisited_cells_match_standalone_smoother():
    # Objects only in occlusion level 0; the learned model's other cells must
    # equal what fit_car alone produces on the same raw field.
    cfg = SyntheticDatasetConfig(
        true_model=heterogeneous_truth(),
        n_scenes=6,
        frames_per_scene=30,
        objects_per_scene=8,
        occlusion_levels=(0,),
        seed=5,
    )
    dataset = synthesize_dataset(cfg)
    model, _ = learn_pem(dataset, GRID)

    stats = accumulate_stats(dataset, GRID)
    estimates = estimate_mle(stats)
    spec = CarSpec.for_grid(GRID)
    for name in FIELD_NAMES:
        fit = fit_car(estimates[name], spec, field_name=name)
        assert np.array_equal(getattr(model, name), fit.values)


def test_empty_cells_count_each_observations_empty_conditions():
    cfg = SyntheticDatasetConfig(
        true_model=heterogeneous_truth(),
        n_scenes=3,
        frames_per_scene=10,
        objects_per_scene=4,
        occlusion_levels=(0, 2),
        seed=11,
    )
    dataset = synthesize_dataset(cfg)
    _, diagnostics = learn_pem(dataset, GRID)
    observations = estimate_mle(accumulate_stats(dataset, GRID))
    assert diagnostics.empty_cells == {name: int(obs.empty.sum()) for name, obs in observations.items()}
    assert list(diagnostics.empty_cells) == list(FIELD_NAMES)
    # Sparse data: some conditions are empty, and never all of them.
    assert 0 < diagnostics.empty_cells["rho"] < GRID.n_conditions


def test_perfect_dataset_degenerates_cleanly():
    cfg = SyntheticDatasetConfig(
        true_model=perfect_model(GRID),
        n_scenes=3,
        frames_per_scene=20,
        objects_per_scene=16,
        occlusion_levels=(0, 1),
        seed=7,
    )
    dataset = synthesize_dataset(cfg)
    model, _ = learn_pem(dataset, GRID)
    active = np.zeros(GRID.n_conditions, bool)
    active[: 2 * GRID.n_rings * GRID.n_sectors] = True
    assert model.a11[active].min() > 0.99
    assert np.abs(model.mu_r[active] - 1.0).max() < 1e-3
    assert np.abs(model.mu_theta[active]).max() < 1e-3


def test_rejects_dataset_with_no_observations():
    dataset = PerceptionDataset([Scene(0, [])])
    with pytest.raises(EmptyDatasetError, match="no observations"):
        learn_pem(dataset, GRID)


def test_frontal_camera_like_dataset_shows_frontal_fov():
    # Truth detects well only in the two sectors facing the heading; the
    # learned stationary detection probability must preserve that contrast.
    import math

    from pemkit import stationary_detection, wrap_angle

    n = GRID.n_conditions
    a = np.full(n, 0.05)
    per_occ = GRID.n_rings * GRID.n_sectors
    frontal_sectors = [
        s for s in range(GRID.n_sectors)
        if abs(wrap_angle((s + 0.5) * GRID.sector_width_rad)) < math.pi / 2
    ]
    for occ in range(4):
        for ring in range(GRID.n_rings):
            for s in frontal_sectors:
                a[occ * per_occ + ring * GRID.n_sectors + s] = 0.9
    truth = PemModel(
        grid=GRID, metadata="frontal",
        a01=a, a11=a,
        mu_r=np.full(n, 1.0), mu_theta=np.zeros(n),
        sigma_r=np.full(n, 0.02), sigma_theta=np.full(n, 0.01), rho=np.zeros(n),
    )
    cfg = SyntheticDatasetConfig(
        true_model=truth, n_scenes=20, frames_per_scene=40,
        objects_per_scene=32, occlusion_levels=(0, 1), seed=13,
    )
    model, _ = learn_pem(synthesize_dataset(cfg), GRID)
    rear_sectors = [s for s in range(GRID.n_sectors) if s not in frontal_sectors]
    for occ in (0, 1):
        for ring in range(GRID.n_rings):
            front = min(
                stationary_detection(model.a01[occ * per_occ + ring * GRID.n_sectors + s],
                                     model.a11[occ * per_occ + ring * GRID.n_sectors + s])
                for s in frontal_sectors
            )
            rear = max(
                stationary_detection(model.a01[occ * per_occ + ring * GRID.n_sectors + s],
                                     model.a11[occ * per_occ + ring * GRID.n_sectors + s])
                for s in rear_sectors
            )
            assert front > rear + 0.3
