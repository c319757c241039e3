"""Sufficient statistics per condition and the smoother's per-field observations.

``accumulate_stats`` matches every frame and counts, per condition,
detection-state transitions and positional error samples. ``estimate_mle``
turns those counts into one closed-form estimate per model field and
condition, packaged as the ``car.FieldObservation`` that ``fit_car``
smooths; ``FIELD_KINDS`` names the likelihood each field is smoothed under.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .car import FieldKind, FieldObservation
from .dataset import PerceptionDataset
from .geometry import GridSpec, conditions_of, wrap_angles, xy_from_polar_arrays
from .geometry import condition_of  # noqa: F401  (kept importable here: perfbench traces stats.condition_of)
from .inject import DuplicateIdError
from .matching import DEFAULT_GATE_M, match_points
from .matching import match_frame  # noqa: F401  (kept importable here: perfbench traces stats.match_frame)
from .model import PARAM_NAMES

FIELD_NAMES = PARAM_NAMES

# Correlations estimated from very few samples hit exactly +/-1; keep them
# inside the open interval so the Fisher-z transform stays finite.
_RHO_CLAMP = 0.999
_SIGMA_FLOOR = 1e-12


@dataclass(slots=True)
class PartitionStats:
    """Per-condition transition counts and positional error samples.

    ``transitions[c, k, l]`` counts observed detection-state moves k -> l for
    objects sitting in condition c at the destination frame. Error samples
    from matched frames are three parallel arrays in insertion order: the
    condition ``sample_cell`` and the pair ``eps_r``, ``eps_theta``.
    ``matched``, ``unmatched_gt`` and ``unmatched_det`` total the frame
    matching outcomes, over every frame and whether or not an object lies
    inside the grid.
    """

    grid: GridSpec
    transitions: np.ndarray
    sample_cell: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    eps_r: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eps_theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    matched: int = 0
    unmatched_gt: int = 0
    unmatched_det: int = 0

    @classmethod
    def empty(cls, grid: GridSpec) -> "PartitionStats":
        return cls(grid=grid, transitions=np.zeros((grid.n_conditions, 2, 2), dtype=np.int64))

    def merge(self, other: "PartitionStats") -> "PartitionStats":
        if self.grid != other.grid:
            raise ValueError("cannot merge stats over different grids")
        return PartitionStats(
            grid=self.grid,
            transitions=self.transitions + other.transitions,
            sample_cell=np.concatenate([self.sample_cell, other.sample_cell]),
            eps_r=np.concatenate([self.eps_r, other.eps_r]),
            eps_theta=np.concatenate([self.eps_theta, other.eps_theta]),
            matched=self.matched + other.matched,
            unmatched_gt=self.unmatched_gt + other.unmatched_gt,
            unmatched_det=self.unmatched_det + other.unmatched_det,
        )

    @property
    def total_transitions(self) -> int:
        return int(self.transitions.sum())

    @property
    def total_samples(self) -> int:
        return len(self.sample_cell)

    def sample_counts(self) -> np.ndarray:
        return np.bincount(self.sample_cell, minlength=self.grid.n_conditions)


def _check_unique_ids(dataset: PerceptionDataset, frame_of_gt: np.ndarray, by_id: np.ndarray) -> None:
    """Raise DuplicateIdError for the first frame, in dataset order, that repeats a gt id."""
    frame, ids = frame_of_gt[by_id], dataset.gt_id[by_id]
    repeats = (frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])
    if not repeats.any():
        return
    f = int(frame[1:][repeats].min())
    s = int(np.searchsorted(dataset.scene_offsets, f, side="right")) - 1
    seen: set[int] = set()
    for oid in dataset.gt_id[dataset.gt_offsets[f] : dataset.gt_offsets[f + 1]].tolist():
        if oid in seen:
            scene_id = int(dataset.scene_ids[s])
            raise DuplicateIdError(f"scene {scene_id} frame {f - int(dataset.scene_offsets[s])}: duplicate gt id {oid}")
        seen.add(oid)


def _match_frames(dataset: PerceptionDataset, by_id: np.ndarray, gate_m: float) -> np.ndarray:
    """Each gt object's matched detection index into the dataset, or -1."""
    gt_xy = np.column_stack(xy_from_polar_arrays(dataset.gt_r, dataset.gt_theta))[by_id]
    det_xy = np.column_stack(xy_from_polar_arrays(dataset.det_r, dataset.det_theta))
    det_of_sorted = np.full(len(by_id), -1, dtype=np.int64)
    gt_off, det_off = dataset.gt_offsets.tolist(), dataset.det_offsets.tolist()
    for f in range(dataset.n_frames):
        a, b, c, d = gt_off[f], gt_off[f + 1], det_off[f], det_off[f + 1]
        if a < b and c < d:
            rows, cols, _ = match_points(gt_xy[a:b], det_xy[c:d], gate_m)
            det_of_sorted[a + rows] = c + cols
    det_of = np.empty_like(det_of_sorted)
    det_of[by_id] = det_of_sorted
    return det_of


def accumulate_stats(
    dataset: PerceptionDataset,
    grid: GridSpec,
    gate_m: float = DEFAULT_GATE_M,
) -> PartitionStats:
    """Match every frame and count transitions / collect error samples.

    The first appearance of an object (in a scene, or after a gap in its id's
    presence or in the frame times ``t``) contributes no transition; frames
    where the object is outside the grid contribute nothing. Scenes are
    independent and their statistics merge additively.
    """
    ds = dataset
    frame_of_gt = np.repeat(np.arange(ds.n_frames), np.diff(ds.gt_offsets))
    # Within each frame, ground truth in ascending id: the matcher's preference order.
    by_id = np.lexsort((ds.gt_id, frame_of_gt))
    _check_unique_ids(ds, frame_of_gt, by_id)
    det_of = _match_frames(ds, by_id, gate_m)

    stats = PartitionStats.empty(grid)
    v = det_of >= 0
    stats.matched = int(v.sum())
    stats.unmatched_gt = len(v) - stats.matched
    stats.unmatched_det = len(ds.det_r) - stats.matched

    # Each object's previous appearance: the entry before it in (scene, id, frame) order.
    cell = conditions_of(ds.gt_r, ds.gt_theta, ds.gt_occ, grid)
    scene_of_gt = np.repeat(np.arange(len(ds.scene_ids)), np.diff(ds.gt_offsets[ds.scene_offsets]))
    track = np.lexsort((frame_of_gt, ds.gt_id, scene_of_gt))
    t = ds.t[frame_of_gt[track]]
    prev, cur = track[:-1], track[1:]
    follows = (scene_of_gt[prev] == scene_of_gt[cur]) & (ds.gt_id[prev] == ds.gt_id[cur]) & (t[:-1] + 1 == t[1:])
    prev, cur = prev[follows], cur[follows]
    counted = cell[cur] >= 0
    prev, cur = prev[counted], cur[counted]
    keys = cell[cur] * 4 + v[prev] * 2 + v[cur]
    stats.transitions += np.bincount(keys, minlength=4 * grid.n_conditions).reshape(-1, 2, 2)

    sampled = np.flatnonzero(v & (cell >= 0) & (ds.gt_r > 1e-9))
    det = det_of[sampled]
    stats.sample_cell = cell[sampled]
    stats.eps_r = ds.det_r[det] / ds.gt_r[sampled]
    stats.eps_theta = wrap_angles(ds.det_theta[det] - ds.gt_theta[sampled])
    return stats


# The likelihood and fitting scale of each field (see car.FieldObservation),
# in FIELD_NAMES order: transition ratios, error means, deviations, correlation.
FIELD_KINDS: dict[str, FieldKind] = dict(
    zip(FIELD_NAMES, ("binomial", "binomial", "mean", "mean", "log_scale", "log_scale", "fisher_z"))
)


def estimate_mle(stats: PartitionStats) -> dict[str, FieldObservation]:
    """Closed-form per-condition estimates as the smoother's observations.

    Returns one ``FieldObservation`` per name in ``FIELD_NAMES``, in that
    order, of kind ``FIELD_KINDS[name]``. ``a01`` and ``a11`` are transition
    ratios weighted by their row counts. The error fields are the sample
    mean, the ddof=1 deviation (floored above zero) and the clamped
    correlation of (eps_r, eps_theta), weighted by the condition's sample
    count. Transition rows with no observations are flagged empty, as are
    deviations with fewer than two samples and correlations with fewer than
    two samples or a zero deviation. ``scale`` is the pooled within-condition sample
    deviation for ``mu_r`` and ``mu_theta`` and 1.0 for the other fields.
    Emptiness is data for the spatial smoother, not an error.
    """
    n = stats.grid.n_conditions
    values = np.zeros((7, n))
    weights = np.zeros((7, n))
    empty = np.ones((7, n), dtype=bool)

    row0 = stats.transitions[:, 0, :].sum(axis=1)
    row1 = stats.transitions[:, 1, :].sum(axis=1)
    has0 = row0 > 0
    has1 = row1 > 0
    values[0, has0] = stats.transitions[has0, 0, 1] / row0[has0]
    values[1, has1] = stats.transitions[has1, 1, 1] / row1[has1]
    weights[0] = row0
    weights[1] = row1
    empty[0] = ~has0
    empty[1] = ~has1

    pooled_ss = [0.0, 0.0]
    pooled_df = 0
    # Contiguous (k, 2) blocks per condition, insertion order kept within each.
    by_cell = np.argsort(stats.sample_cell, kind="stable")
    pairs = np.column_stack((stats.eps_r, stats.eps_theta))[by_cell]
    bounds = np.searchsorted(stats.sample_cell[by_cell], np.arange(n + 1)).tolist()
    for c in range(n):
        k = bounds[c + 1] - bounds[c]
        if k == 0:
            continue
        arr = pairs[bounds[c] : bounds[c + 1]]
        mean = arr.mean(axis=0)
        values[2, c], values[3, c] = mean
        weights[2, c] = weights[3, c] = k
        empty[2, c] = empty[3, c] = False
        if k >= 2:
            std = arr.std(axis=0, ddof=1)
            values[4, c] = max(std[0], _SIGMA_FLOOR)
            values[5, c] = max(std[1], _SIGMA_FLOOR)
            weights[4, c] = weights[5, c] = k
            empty[4, c] = empty[5, c] = False
            if std[0] > 0.0 and std[1] > 0.0:
                rho = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
                values[6, c] = float(np.clip(rho, -_RHO_CLAMP, _RHO_CLAMP))
                weights[6, c] = k
                empty[6, c] = False
            pooled_ss[0] += float(((arr[:, 0] - mean[0]) ** 2).sum())
            pooled_ss[1] += float(((arr[:, 1] - mean[1]) ** 2).sum())
            pooled_df += k - 1

    pooled_sd = [max(np.sqrt(ss / pooled_df if pooled_df > 0 else 0.0), 1e-6) for ss in pooled_ss]
    scales = [1.0, 1.0, *pooled_sd, 1.0, 1.0, 1.0]
    return {
        name: FieldObservation(kind, values[f], weights[f], empty[f], scales[f])
        for f, (name, kind) in enumerate(FIELD_KINDS.items())
    }
