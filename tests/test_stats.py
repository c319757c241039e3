import numpy as np
import pytest

from pemkit import (
    DuplicateIdError,
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PerceptionDataset,
    PolarCoord,
    Scene,
    accumulate_stats,
    estimate_mle,
)
from pemkit.dataset import Frame
from pemkit.stats import FIELD_KINDS, FIELD_NAMES, PartitionStats

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)


def with_samples(stats, cells, pairs):
    """Set the three parallel sample arrays of ``stats``, in the given order."""
    stats.sample_cell = np.asarray(cells, dtype=np.int64)
    stats.eps_r = np.array([er for er, _ in pairs], dtype=float)
    stats.eps_theta = np.array([et for _, et in pairs], dtype=float)
    return stats


def obj(oid=0, r=5.0, theta=0.3, occ=OcclusionLevel.VIS3):
    return GroundTruthObject(oid, PolarCoord(r, theta), occ)


def scene_from_detection_pattern(pattern, r=5.0, theta=0.3, det_offset=(1.0, 0.0)):
    """One static object; frame t has a detection iff pattern[t] is 1."""
    frames = []
    for bit in pattern:
        det = []
        if bit:
            det = [PolarCoord(r * det_offset[0], theta + det_offset[1])]
        frames.append(Frame(gt=[obj(r=r, theta=theta)], det=det))
    return Scene(0, frames)


def test_all_detected_counts():
    ds = PerceptionDataset([scene_from_detection_pattern([1, 1, 1, 1, 1])])
    stats = accumulate_stats(ds, GRID)
    w = stats.transitions.sum(axis=0)
    assert w[1, 1] == 4
    assert w[0, 1] == w[0, 0] == w[1, 0] == 0


def test_mixed_sequence_counts():
    ds = PerceptionDataset([scene_from_detection_pattern([0, 1, 1, 0])])
    stats = accumulate_stats(ds, GRID)
    w = stats.transitions.sum(axis=0)
    assert w[0, 1] == 1 and w[1, 1] == 1 and w[1, 0] == 1 and w[0, 0] == 0


def test_error_sample_arithmetic():
    # gt r=10, matched detection r=11 with bearing offset 0.02.
    frame = Frame(gt=[obj(r=10.0, theta=0.5)], det=[PolarCoord(11.0, 0.52)])
    ds = PerceptionDataset([Scene(0, [frame])])
    stats = accumulate_stats(ds, GRID)
    cond_samples = list(zip(stats.eps_r.tolist(), stats.eps_theta.tolist()))
    assert len(cond_samples) == 1
    eps_r, eps_theta = cond_samples[0]
    assert eps_r == pytest.approx(1.1)
    assert eps_theta == pytest.approx(0.02)


def test_first_frame_contributes_no_transition():
    ds = PerceptionDataset([scene_from_detection_pattern([1])])
    stats = accumulate_stats(ds, GRID)
    assert stats.total_transitions == 0
    assert stats.total_samples == 1


def test_gap_in_presence_breaks_transition_chain():
    base = obj(oid=0)
    frames = [
        Frame(gt=[base], det=[base.position]),
        Frame(gt=[], det=[]),  # object missing for one frame
        Frame(gt=[base], det=[base.position]),
    ]
    ds = PerceptionDataset([Scene(0, frames)])
    stats = accumulate_stats(ds, GRID)
    assert stats.total_transitions == 0


def test_out_of_range_frames_contribute_nothing():
    far = obj(r=50.0)  # beyond the 20 m grid
    frames = [Frame(gt=[far], det=[far.position]), Frame(gt=[far], det=[far.position])]
    ds = PerceptionDataset([Scene(0, frames)])
    stats = accumulate_stats(ds, GRID)
    assert stats.total_transitions == 0
    assert stats.total_samples == 0


def test_count_conservation():
    rng = np.random.default_rng(0)
    scenes = []
    expected = 0
    for s in range(4):
        n_frames = int(rng.integers(2, 8))
        n_objs = int(rng.integers(1, 5))
        frames = []
        for t in range(n_frames):
            gt = [obj(oid=i, r=3.0 + 4 * i, theta=0.1 * i) for i in range(n_objs)]
            frames.append(Frame(gt=gt, det=[o.position for o in gt if rng.random() < 0.6]))
        expected += n_objs * (n_frames - 1)
        scenes.append(Scene(s, frames))
    stats = accumulate_stats(PerceptionDataset(scenes), GRID)
    assert stats.total_transitions == expected


def test_duplicate_gt_ids_rejected():
    frame = Frame(gt=[obj(oid=1), obj(oid=1, r=8.0)], det=[])
    with pytest.raises(DuplicateIdError):
        accumulate_stats(PerceptionDataset([Scene(0, [frame])]), GRID)


def test_merge_is_additive():
    ds1 = PerceptionDataset([scene_from_detection_pattern([1, 1, 0])])
    ds2 = PerceptionDataset([scene_from_detection_pattern([0, 1])])
    merged = accumulate_stats(ds1, GRID).merge(accumulate_stats(ds2, GRID))
    both = accumulate_stats(PerceptionDataset(ds1.scenes + ds2.scenes), GRID)
    assert np.array_equal(merged.transitions, both.transitions)
    assert merged.total_samples == both.total_samples


def test_mle_transition_ratio():
    stats = PartitionStats.empty(GRID)
    stats.transitions[3, 1, 1] = 8
    stats.transitions[3, 1, 0] = 2
    est = estimate_mle(stats)
    assert est["a11"].values[3] == pytest.approx(0.8)
    assert not est["a11"].empty[3]
    assert est["a01"].empty[3]  # no 0-row data


def test_mle_row_sums_where_defined():
    rng = np.random.default_rng(1)
    stats = PartitionStats.empty(GRID)
    stats.transitions[:] = rng.integers(0, 20, size=stats.transitions.shape)
    est = estimate_mle(stats)
    a01 = est["a01"].values
    row0 = stats.transitions[:, 0, :].sum(axis=1)
    defined = row0 > 0
    # a00 = 1 - a01 by construction; the ratio matches the counts
    assert np.allclose(a01[defined], stats.transitions[defined, 0, 1] / row0[defined])


def test_mle_moments():
    stats = with_samples(PartitionStats.empty(GRID), [2, 2], [(1.0, 0.0), (1.2, 0.1)])
    est = estimate_mle(stats)
    assert est["mu_r"].values[2] == pytest.approx(1.1)
    assert est["mu_theta"].values[2] == pytest.approx(0.05)
    assert est["sigma_r"].values[2] == pytest.approx(np.std([1.0, 1.2], ddof=1))
    # two points are perfectly correlated; the estimate is clamped inside (-1, 1)
    assert abs(est["rho"].values[2]) <= 0.999


def test_mle_empty_condition_flags():
    stats = with_samples(PartitionStats.empty(GRID), [0], [(1.05, 0.01)])  # one sample: mean defined, spread not
    est = estimate_mle(stats)
    assert not est["mu_r"].empty[0]
    assert est["sigma_r"].empty[0]
    assert est["rho"].empty[0]
    assert all(obs.empty[1] for obs in est.values())  # untouched condition fully empty


def test_mle_returns_one_observation_per_field_in_order():
    est = estimate_mle(PartitionStats.empty(GRID))
    assert list(est) == list(FIELD_NAMES)
    assert [obs.kind for obs in est.values()] == [
        "binomial",
        "binomial",
        "mean",
        "mean",
        "log_scale",
        "log_scale",
        "fisher_z",
    ]
    assert {name: obs.kind for name, obs in est.items()} == FIELD_KINDS
    for obs in est.values():
        assert obs.values.shape == obs.weights.shape == obs.empty.shape == (GRID.n_conditions,)


def test_mle_scale_is_pooled_deviation_for_the_mean_fields():
    # Cell 1 holds three samples, cell 4 two, cell 6 one (no spread, so it
    # adds nothing to the pool); the pool has (3 - 1) + (2 - 1) = 3 degrees
    # of freedom.
    cells = [1, 4, 1, 6, 4, 1]
    pairs = [(1.0, 0.01), (0.9, -0.02), (1.2, 0.03), (1.5, 0.5), (1.1, 0.0), (1.1, -0.01)]
    est = estimate_mle(with_samples(PartitionStats.empty(GRID), cells, pairs))
    by_cell = {c: np.array([p for cc, p in zip(cells, pairs) if cc == c]) for c in (1, 4)}
    ss = sum(((a - a.mean(axis=0)) ** 2).sum(axis=0) for a in by_cell.values())
    expected = np.sqrt(ss / 3)
    assert est["mu_r"].scale == pytest.approx(expected[0], rel=1e-12)
    assert est["mu_theta"].scale == pytest.approx(expected[1], rel=1e-12)
    for name in ("a01", "a11", "sigma_r", "sigma_theta", "rho"):
        assert est[name].scale == 1.0
    # Without two samples in any condition the pool is empty and the scale floors.
    lone = estimate_mle(with_samples(PartitionStats.empty(GRID), [6], [(1.5, 0.5)]))
    assert lone["mu_r"].scale == lone["mu_theta"].scale == 1e-6


def test_match_coverage_totals_and_merge():
    # Frame 0: one match, one far-off clutter detection. Frame 1: gt beyond
    # the grid and undetected still counts as unmatched ground truth.
    frames = [
        Frame(gt=[obj(oid=1, r=5.0)], det=[PolarCoord(5.0, 0.3), PolarCoord(15.0, -2.0)]),
        Frame(gt=[obj(oid=1, r=5.0), obj(oid=2, r=50.0)], det=[PolarCoord(5.0, 0.3)]),
    ]
    ds = PerceptionDataset([Scene(0, frames)])
    stats = accumulate_stats(ds, GRID)
    assert (stats.matched, stats.unmatched_gt, stats.unmatched_det) == (2, 1, 1)
    merged = stats.merge(accumulate_stats(PerceptionDataset([scene_from_detection_pattern([1, 0])]), GRID))
    assert (merged.matched, merged.unmatched_gt, merged.unmatched_det) == (3, 2, 1)
