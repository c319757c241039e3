"""The columnar learn path against the object-based implementation it replaced.

``oracle_match_frame`` and ``oracle_accumulate`` are the previous per-object
``match_frame`` and ``accumulate_stats``, kept verbatim apart from reading
frame times from ``Frame.t``: the oracle matcher always runs the tie loop,
and the oracle counter walks Python objects frame by frame.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from pemkit import (
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PerceptionDataset,
    Scene,
    accumulate_stats,
    condition_of,
    match_frame,
    polar_from_xy,
    wrap_angle,
    xy_from_polar,
)
from pemkit.dataset import Frame
from pemkit.matching import _canonicalize_ties, _tie_move_possible, MatchResult

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=4.0, max_radius_m=8.0)
GATE_M = 3.0
_INFEASIBLE = 1.0e9


def _cartesian(points):
    if not points:
        return np.zeros((0, 2))
    return np.array([xy_from_polar(p) for p in points])


def oracle_match_frame(gt, detections, gate_m):
    order = sorted(range(len(gt)), key=lambda k: gt[k].id)
    gt_ids = [gt[k].id for k in order]
    gp = _cartesian([gt[k].position for k in order])
    dp = _cartesian(detections)
    n, m = len(gt_ids), len(detections)
    if n == 0 or m == 0:
        return MatchResult({}, list(gt_ids), list(range(m)), 0.0)

    diff = gp[:, None, :] - dp[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    feasible = dist <= gate_m
    cost = np.where(feasible, dist, _INFEASIBLE)

    rows, cols = linear_sum_assignment(cost)
    match = {int(r): int(c) for r, c in zip(rows, cols) if feasible[r, c]}
    match = _canonicalize_ties(match, dist, feasible, n, m)

    assignments = {gt_ids[r]: c for r, c in match.items()}
    unmatched_gt = [gt_ids[r] for r in range(n) if r not in match]
    matched_cols = set(match.values())
    unmatched_det = [c for c in range(m) if c not in matched_cols]
    total = float(sum(dist[r, match[r]] for r in sorted(match)))
    return MatchResult(assignments, unmatched_gt, sorted(unmatched_det), total)


def oracle_accumulate(dataset, grid, gate_m):
    """(transitions, [(cell, eps_r, eps_theta)] in insertion order, (matched, unmatched_gt, unmatched_det))."""
    transitions = np.zeros((grid.n_conditions, 2, 2), dtype=np.int64)
    samples = []
    coverage = [0, 0, 0]
    for scene in dataset.scenes:
        last = {}
        for frame in scene.frames:
            t = frame.t
            result = oracle_match_frame(frame.gt, frame.det, gate_m)
            coverage[0] += len(result.assignments)
            coverage[1] += len(result.unmatched_gt)
            coverage[2] += len(result.unmatched_det)
            for obj in frame.gt:
                det_idx = result.assignments.get(obj.id)
                v = 1 if det_idx is not None else 0
                cond = condition_of(obj.position, obj.occlusion, grid)
                if cond is not None:
                    prev = last.get(obj.id)
                    if prev is not None and prev[0] == t - 1:
                        transitions[cond.index, prev[1], v] += 1
                    if det_idx is not None and obj.position.r > 1e-9:
                        det = frame.det[det_idx]
                        samples.append(
                            (cond.index, det.r / obj.position.r, wrap_angle(det.theta - obj.position.theta))
                        )
                last[obj.id] = (t, v)
    return transitions, samples, tuple(coverage)


# Positions on a half-metre lattice: exact distance ties are common, some
# objects sit at the origin (r = 0) and some beyond the 8 m grid.
lattice = st.integers(-20, 20).map(lambda k: k * 0.5)
point = st.tuples(lattice, lattice)


@st.composite
def frames(draw, ids=st.integers(0, 7)):
    gt_ids = draw(st.lists(ids, unique=True, max_size=6))  # drawn unsorted
    gt = [
        GroundTruthObject(i, polar_from_xy(*draw(point)), OcclusionLevel(draw(st.integers(0, 3))))
        for i in gt_ids
    ]
    det = [polar_from_xy(*draw(point)) for _ in range(draw(st.integers(0, 6)))]
    return gt, det


@st.composite
def datasets(draw):
    scenes = []
    for s in range(draw(st.integers(1, 3))):
        # Frame times with gaps; ids leave and return between frames.
        steps = draw(st.lists(st.integers(1, 3), max_size=6))
        times = np.cumsum([0] + steps).tolist()
        scenes.append(Scene(draw(st.integers(0, 2)), [Frame(*draw(frames()), t) for t in times]))
    return PerceptionDataset(scenes)


def _flat_samples(stats):
    return list(zip(stats.sample_cell.tolist(), stats.eps_r.tolist(), stats.eps_theta.tolist()))


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_accumulate_matches_object_oracle(dataset):
    transitions, samples, coverage = oracle_accumulate(dataset, GRID, GATE_M)
    stats = accumulate_stats(dataset, GRID, GATE_M)
    assert np.array_equal(stats.transitions, transitions)
    assert _flat_samples(stats) == samples  # exact values, insertion order
    assert (stats.matched, stats.unmatched_gt, stats.unmatched_det) == coverage
    for c in range(GRID.n_conditions):
        assert stats.samples[c] == [(er, et) for cell, er, et in samples if cell == c]


@settings(max_examples=500, deadline=None)
@given(frames())
def test_match_frame_matches_always_running_the_tie_loop(frame):
    gt, det = frame
    assert match_frame(gt, det, GATE_M) == oracle_match_frame(gt, det, GATE_M)


def test_tie_probe_covers_both_branches_on_lattice_frames():
    """Seeded lattice frames: the loop is skipped on some, needed on others, and every answer agrees."""
    rng = np.random.default_rng(4)
    skipped = changed = 0
    for _ in range(400):
        n, m = rng.integers(1, 7, size=2)
        gt = [
            GroundTruthObject(int(i), polar_from_xy(*(rng.integers(-6, 7, 2) * 0.5)), OcclusionLevel.VIS3)
            for i in rng.permutation(10)[:n]
        ]
        det = [polar_from_xy(*(rng.integers(-6, 7, 2) * 0.5)) for _ in range(m)]
        assert match_frame(gt, det, GATE_M) == oracle_match_frame(gt, det, GATE_M)

        gp = _cartesian([o.position for o in sorted(gt, key=lambda o: o.id)])
        diff = gp[:, None, :] - _cartesian(det)[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        rows, cols = linear_sum_assignment(np.where(dist <= GATE_M, dist, _INFEASIBLE))
        keep = dist[rows, cols] <= GATE_M
        rows, cols = rows[keep], cols[keep]
        initial = dict(zip(rows.tolist(), cols.tolist()))
        looped = _canonicalize_ties(dict(initial), dist, dist <= GATE_M, n, m)
        if not _tie_move_possible(rows, cols, dist):
            skipped += 1
            assert looped == initial
        elif looped != initial:
            changed += 1
    assert skipped > 0 and changed > 0
