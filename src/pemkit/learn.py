"""End-to-end model fitting: match, count, estimate, smooth, assemble.

With ``jobs`` > 1, matching and counting run on contiguous scene ranges and
estimation and smoothing on two groups of fields, on forked workers
(``parallel.fork_map``). The statistics merge in dataset order and each
group runs the in-process arithmetic, so the model and its diagnostics do
not depend on ``jobs``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .car import CarFit, CarSpec, FieldObservation, fit_car
from .checks import require
from .dataset import PerceptionDataset
from .geometry import GridSpec
from .matching import DEFAULT_GATE_M
from .model import PemModel
from .parallel import fork_map
from .stats import PartitionStats, accumulate_stats, estimate_errors, estimate_transitions
from .stats import estimate_mle  # noqa: F401  kept resolvable: perfbench wraps learn.estimate_mle

# Below these sizes a stage runs in-process whatever ``jobs`` is. On a 2-CPU
# host (benchmark-style data, 2 workers against 1, alternating): matching and
# counting 31,200 ground-truth objects was faster on workers in 11 of 11 calls
# (median 62 vs 75 ms), and 24,000 in 1 of 9; estimating and smoothing a
# 192-condition grid won 7 of 9 (71 vs 86 ms), and 128 conditions 2 of 9.
MIN_SHARDED_OBJECTS = 30_000
MIN_SHARDED_CONDITIONS = 192


class EmptyDatasetError(ValueError):
    """Every condition is empty: there is nothing to fit."""


class StageTimes:
    """Wall-clock seconds per learn stage, in run order.

    For logs only: these values never enter the model, the diagnostics or the
    manifest, which stay byte-reproducible.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def line(self) -> str:
        return "learn timings: " + ", ".join(f"{name} {s:.3f}s" for name, s in self.seconds.items())


@dataclass(slots=True)
class LearnDiagnostics:
    """Per-field fit outcomes and data coverage; deterministic, never wall-clock.

    ``matched``, ``unmatched_gt`` and ``unmatched_det`` total the frame
    matching outcomes (the model has no clutter term, so unmatched detections
    are discarded); ``empty_cells`` counts each field's conditions without data.
    """

    fits: dict[str, CarFit]
    transition_counts: np.ndarray
    sample_counts: np.ndarray
    matched: int
    unmatched_gt: int
    unmatched_det: int
    empty_cells: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "coverage": {
                "matched": self.matched,
                "unmatched_gt": self.unmatched_gt,
                "unmatched_det": self.unmatched_det,
                "empty_cells": self.empty_cells,
            },
            "fields": {
                name: {
                    "converged": fit.converged,
                    "grad_norm": fit.grad_norm,
                    "iterations": fit.iterations,
                    "kappa": fit.kappa,
                }
                for name, fit in self.fits.items()
            },
            "per_condition": {
                "transitions": self.transition_counts.tolist(),
                "samples": self.sample_counts.tolist(),
            },
        }


def learn_pem(
    dataset: PerceptionDataset,
    grid: GridSpec | None = None,
    car_spec: CarSpec | None = None,
    gate_m: float = DEFAULT_GATE_M,
    metadata: str = "learned",
    timings: StageTimes | None = None,
    jobs: int = 1,
) -> tuple[PemModel, LearnDiagnostics]:
    """Build a model from a paired ground-truth / detection dataset.

    Raises EmptyDatasetError when the dataset contributes no transitions and
    no error samples at all; propagates CarConvergenceError from the smoother.
    ``timings``, when given, receives the wall time of each stage. ``jobs`` is
    the most worker processes a stage forks; the result does not depend on it.
    """
    grid = grid or GridSpec()
    timings = timings or StageTimes()
    with timings.stage("match+count"):
        parts = jobs if len(dataset.gt_id) >= MIN_SHARDED_OBJECTS else 1
        count = lambda scenes: accumulate_stats(dataset.scene_range(*scenes), grid, gate_m)
        stats = reduce(PartitionStats.merge, fork_map(count, _scene_ranges(dataset, parts), jobs))
    return learn_from_stats(stats, car_spec, metadata, timings, jobs)


def _scene_ranges(dataset: PerceptionDataset, parts: int) -> list[tuple[int, int]]:
    """Up to ``parts`` contiguous scene ranges, cut where the ground-truth objects split about evenly."""
    n = len(dataset.scene_ids)
    objects_before = dataset.gt_offsets[dataset.scene_offsets]
    cuts = np.searchsorted(objects_before, np.arange(1, parts) * (objects_before[-1] / parts)).tolist()
    bounds = [0, *sorted(set(cuts) - {0, n}), n]
    return list(zip(bounds, bounds[1:]))


def learn_from_stats(
    stats: PartitionStats,
    car_spec: CarSpec | None = None,
    metadata: str = "learned",
    timings: StageTimes | None = None,
    jobs: int = 1,
) -> tuple[PemModel, LearnDiagnostics]:
    """Estimate each field from merged statistics and smooth it into a model.

    The transition fields and the error fields are two groups, each
    estimated and smoothed on its own worker when ``jobs`` > 1.
    """
    require(jobs, "jobs", int, at_least=1)
    if stats.total_transitions == 0 and stats.total_samples == 0:
        raise EmptyDatasetError("no observations")
    timings = timings or StageTimes()
    spec = car_spec or CarSpec.for_grid(stats.grid)
    parts = jobs if stats.grid.n_conditions >= MIN_SHARDED_CONDITIONS else 1
    observations: dict[str, FieldObservation] = {}
    fits: dict[str, CarFit] = {}
    fit_group = lambda estimate: _fit_group(estimate, stats, spec)
    for group_observations, group_fits, seconds in fork_map(fit_group, (estimate_transitions, estimate_errors), parts):
        observations.update(group_observations)
        fits.update(group_fits)
        for name, s in seconds.items():
            timings.add(name, s)
    model = PemModel(grid=stats.grid, metadata=metadata, **{name: fit.values for name, fit in fits.items()})
    diagnostics = LearnDiagnostics(
        fits=fits,
        transition_counts=stats.transitions.reshape(stats.grid.n_conditions, 4).sum(axis=1),
        sample_counts=stats.sample_counts(),
        matched=stats.matched,
        unmatched_gt=stats.unmatched_gt,
        unmatched_det=stats.unmatched_det,
        empty_cells={name: int(obs.empty.sum()) for name, obs in observations.items()},
    )
    return model, diagnostics


def _fit_group(estimate, stats: PartitionStats, spec: CarSpec):
    """One group's observations, fits and stage seconds; the seconds are measured where the group runs."""
    times = StageTimes()
    with times.stage("estimate"):
        observations = estimate(stats)
    fits = {}
    for name, obs in observations.items():
        with times.stage(f"fit {name}"):
            fits[name] = fit_car(obs, spec, field_name=name)
    return observations, fits, times.seconds
