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
from pemkit.stats import FIELD_NAMES, PartitionStats

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)


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
    cond_samples = [s for samples in stats.samples for s in samples]
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
    assert est.values[FIELD_NAMES.index("a11"), 3] == pytest.approx(0.8)
    assert not est.empty[FIELD_NAMES.index("a11"), 3]
    assert est.empty[FIELD_NAMES.index("a01"), 3]  # no 0-row data


def test_mle_row_sums_where_defined():
    rng = np.random.default_rng(1)
    stats = PartitionStats.empty(GRID)
    stats.transitions[:] = rng.integers(0, 20, size=stats.transitions.shape)
    est = estimate_mle(stats)
    a01 = est.values[0]
    row0 = stats.transitions[:, 0, :].sum(axis=1)
    defined = row0 > 0
    # a00 = 1 - a01 by construction; the ratio matches the counts
    assert np.allclose(a01[defined], stats.transitions[defined, 0, 1] / row0[defined])


def test_mle_moments():
    stats = PartitionStats.empty(GRID)
    stats.samples[2] = [(1.0, 0.0), (1.2, 0.1)]
    est = estimate_mle(stats)
    assert est.values[FIELD_NAMES.index("mu_r"), 2] == pytest.approx(1.1)
    assert est.values[FIELD_NAMES.index("mu_theta"), 2] == pytest.approx(0.05)
    assert est.values[FIELD_NAMES.index("sigma_r"), 2] == pytest.approx(np.std([1.0, 1.2], ddof=1))
    # two points are perfectly correlated; the estimate is clamped inside (-1, 1)
    assert abs(est.values[FIELD_NAMES.index("rho"), 2]) <= 0.999


def test_mle_empty_condition_flags():
    stats = PartitionStats.empty(GRID)
    stats.samples[0] = [(1.05, 0.01)]  # one sample: mean defined, spread not
    est = estimate_mle(stats)
    assert not est.empty[FIELD_NAMES.index("mu_r"), 0]
    assert est.empty[FIELD_NAMES.index("sigma_r"), 0]
    assert est.empty[FIELD_NAMES.index("rho"), 0]
    assert est.empty[:, 1].all()  # untouched condition fully empty


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
