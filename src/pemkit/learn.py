"""End-to-end model fitting: match, count, estimate, smooth, assemble."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .car import CarFit, CarSpec, FieldObservation, fit_car
from .dataset import PerceptionDataset
from .geometry import GridSpec
from .matching import DEFAULT_GATE_M
from .model import PemModel
from .stats import FIELD_NAMES, FieldEstimates, PartitionStats, accumulate_stats, estimate_mle

_FIELD_KINDS = {
    "a01": "binomial",
    "a11": "binomial",
    "mu_r": "mean",
    "mu_theta": "mean",
    "sigma_r": "log_scale",
    "sigma_theta": "log_scale",
    "rho": "fisher_z",
}


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
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

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


def field_observation(estimates: FieldEstimates, name: str) -> FieldObservation:
    """Package one field of the raw estimates for the smoother."""
    f = estimates.field_index(name)
    return FieldObservation(
        kind=_FIELD_KINDS[name],
        values=estimates.values[f],
        weights=estimates.weights[f],
        empty=estimates.empty[f],
        scale=estimates.scales.get(name, 1.0),
    )


def fit_fields(
    estimates: FieldEstimates, spec: CarSpec, timings: StageTimes | None = None
) -> tuple[dict[str, np.ndarray], dict[str, CarFit]]:
    """Smooth each of the seven fields independently."""
    timings = timings or StageTimes()
    values: dict[str, np.ndarray] = {}
    fits: dict[str, CarFit] = {}
    for name in FIELD_NAMES:
        with timings.stage(f"fit {name}"):
            fit = fit_car(field_observation(estimates, name), spec, field_name=name)
        values[name] = fit.values
        fits[name] = fit
    return values, fits


def learn_pem(
    dataset: PerceptionDataset,
    grid: GridSpec | None = None,
    car_spec: CarSpec | None = None,
    gate_m: float = DEFAULT_GATE_M,
    metadata: str = "learned",
    timings: StageTimes | None = None,
) -> tuple[PemModel, LearnDiagnostics]:
    """Build a model from a paired ground-truth / detection dataset.

    Raises EmptyDatasetError when the dataset contributes no transitions and
    no error samples at all; propagates CarConvergenceError from the smoother.
    ``timings``, when given, receives the wall time of each stage.
    """
    grid = grid or GridSpec()
    timings = timings or StageTimes()
    with timings.stage("match+count"):
        stats = accumulate_stats(dataset, grid, gate_m)
    return learn_from_stats(stats, car_spec, metadata, timings)


def learn_from_stats(
    stats: PartitionStats,
    car_spec: CarSpec | None = None,
    metadata: str = "learned",
    timings: StageTimes | None = None,
) -> tuple[PemModel, LearnDiagnostics]:
    if stats.total_transitions == 0 and stats.total_samples == 0:
        raise EmptyDatasetError("no observations")
    timings = timings or StageTimes()
    spec = car_spec or CarSpec.for_grid(stats.grid)
    with timings.stage("estimate"):
        estimates = estimate_mle(stats)
    values, fits = fit_fields(estimates, spec, timings)
    model = PemModel(grid=stats.grid, metadata=metadata, **values)
    diagnostics = LearnDiagnostics(
        fits=fits,
        transition_counts=stats.transitions.reshape(stats.grid.n_conditions, 4).sum(axis=1),
        sample_counts=stats.sample_counts(),
        matched=stats.matched,
        unmatched_gt=stats.unmatched_gt,
        unmatched_det=stats.unmatched_det,
        empty_cells={name: int(estimates.empty[f].sum()) for f, name in enumerate(FIELD_NAMES)},
    )
    return model, diagnostics
