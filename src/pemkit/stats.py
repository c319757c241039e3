"""Sufficient statistics per condition and their maximum-likelihood estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import PerceptionDataset
from .geometry import GridSpec, conditions_of, wrap_angle
from .geometry import condition_of  # noqa: F401  (kept importable here: perfbench traces stats.condition_of)
from .inject import DuplicateIdError
from .matching import DEFAULT_GATE_M, match_frame

FIELD_NAMES = ("a01", "a11", "mu_r", "mu_theta", "sigma_r", "sigma_theta", "rho")

# Correlations estimated from very few samples hit exactly +/-1; keep them
# inside the open interval so the Fisher-z transform stays finite.
_RHO_CLAMP = 0.999
_SIGMA_FLOOR = 1e-12


@dataclass(slots=True)
class PartitionStats:
    """Per-condition transition counts and positional error samples.

    ``transitions[c, k, l]`` counts observed detection-state moves k -> l for
    objects sitting in condition c at the destination frame. ``samples[c]``
    collects (eps_r, eps_theta) pairs from matched frames. ``matched``,
    ``unmatched_gt`` and ``unmatched_det`` total the frame matching outcomes,
    over every frame and whether or not an object lies inside the grid.
    """

    grid: GridSpec
    transitions: np.ndarray
    samples: list[list[tuple[float, float]]]
    matched: int = 0
    unmatched_gt: int = 0
    unmatched_det: int = 0

    @classmethod
    def empty(cls, grid: GridSpec) -> "PartitionStats":
        n = grid.n_conditions
        return cls(grid=grid, transitions=np.zeros((n, 2, 2), dtype=np.int64), samples=[[] for _ in range(n)])

    def merge(self, other: "PartitionStats") -> "PartitionStats":
        if self.grid != other.grid:
            raise ValueError("cannot merge stats over different grids")
        merged = PartitionStats.empty(self.grid)
        merged.transitions = self.transitions + other.transitions
        merged.samples = [a + b for a, b in zip(self.samples, other.samples)]
        merged.matched = self.matched + other.matched
        merged.unmatched_gt = self.unmatched_gt + other.unmatched_gt
        merged.unmatched_det = self.unmatched_det + other.unmatched_det
        return merged

    @property
    def total_transitions(self) -> int:
        return int(self.transitions.sum())

    @property
    def total_samples(self) -> int:
        return sum(len(s) for s in self.samples)

    def sample_counts(self) -> np.ndarray:
        return np.array([len(s) for s in self.samples], dtype=np.int64)


def accumulate_stats(
    dataset: PerceptionDataset,
    grid: GridSpec,
    gate_m: float = DEFAULT_GATE_M,
) -> PartitionStats:
    """Match every frame and count transitions / collect error samples.

    The first appearance of an object (in a scene, or after a gap in its id's
    presence) contributes no transition; frames where the object is outside
    the grid contribute nothing. Scenes are independent and their statistics
    merge additively.
    """
    stats = PartitionStats.empty(grid)
    for scene in dataset.scenes:
        # id -> (frame index, observed v) from the previous frame
        last: dict[int, tuple[int, int]] = {}
        for t, frame in enumerate(scene.frames):
            seen: set[int] = set()
            for obj in frame.gt:
                if obj.id in seen:
                    raise DuplicateIdError(f"scene {scene.scene_id} frame {t}: duplicate gt id {obj.id}")
                seen.add(obj.id)
            result = match_frame(frame.gt, frame.det, gate_m)
            stats.matched += len(result.assignments)
            stats.unmatched_gt += len(result.unmatched_gt)
            stats.unmatched_det += len(result.unmatched_det)
            cells = conditions_of(
                [obj.position.r for obj in frame.gt],
                [obj.position.theta for obj in frame.gt],
                [obj.occlusion for obj in frame.gt],
                grid,
            )
            for obj, cell in zip(frame.gt, cells.tolist()):
                det_idx = result.assignments.get(obj.id)
                v = 1 if det_idx is not None else 0
                if cell >= 0:
                    prev = last.get(obj.id)
                    if prev is not None and prev[0] == t - 1:
                        stats.transitions[cell, prev[1], v] += 1
                    if det_idx is not None and obj.position.r > 1e-9:
                        det = frame.det[det_idx]
                        eps_r = det.r / obj.position.r
                        eps_theta = wrap_angle(det.theta - obj.position.theta)
                        stats.samples[cell].append((eps_r, eps_theta))
                last[obj.id] = (t, v)
    return stats


@dataclass(slots=True)
class FieldEstimates:
    """Raw per-condition MLE values for the seven model fields.

    ``values[f, c]`` is field f's estimate in condition c, ``weights[f, c]``
    the data volume behind it (transition row counts or sample counts), and
    ``empty[f, c]`` marks conditions where the estimate is undefined.
    ``scales`` carries the pooled within-condition sample deviation used as
    the observation noise scale for the two mean fields.
    """

    grid: GridSpec
    values: np.ndarray
    weights: np.ndarray
    empty: np.ndarray
    scales: dict[str, float] = field(default_factory=dict)

    def field_index(self, name: str) -> int:
        return FIELD_NAMES.index(name)


def estimate_mle(stats: PartitionStats) -> FieldEstimates:
    """Closed-form per-condition estimates: transition ratios, moments, correlation.

    Transition rows with no observations are flagged empty, as are moment
    fields with fewer than two samples. Emptiness is data for the spatial
    smoother, not an error.
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

    pooled_ss = {"mu_r": 0.0, "mu_theta": 0.0}
    pooled_df = 0
    for c in range(n):
        samples = stats.samples[c]
        k = len(samples)
        if k == 0:
            continue
        arr = np.asarray(samples)
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
            pooled_ss["mu_r"] += float(((arr[:, 0] - mean[0]) ** 2).sum())
            pooled_ss["mu_theta"] += float(((arr[:, 1] - mean[1]) ** 2).sum())
            pooled_df += k - 1

    scales = {}
    for name in ("mu_r", "mu_theta"):
        var = pooled_ss[name] / pooled_df if pooled_df > 0 else 0.0
        scales[name] = max(np.sqrt(var), 1e-6)
    return FieldEstimates(grid=stats.grid, values=values, weights=weights, empty=empty, scales=scales)
