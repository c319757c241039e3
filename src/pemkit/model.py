"""The learned model artifact: per-condition detection chains and error distributions."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import read_json, require_object
from .geometry import (
    N_OCCLUSION_LEVELS,
    Condition,
    GridSpec,
    condition_from_index,
    condition_index,
)


class ModelFormatError(ValueError):
    """A model file is malformed or violates a parameter invariant."""


@dataclass(frozen=True, slots=True)
class TransitionMatrix:
    """Two-state detection chain; rows of the implied 2x2 matrix sum to 1.

    a01 is the probability of an undetected object becoming detected,
    a11 of a detected object staying detected.
    """

    a01: float
    a11: float

    def __post_init__(self):
        for name in ("a01", "a11"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} out of [0,1]: {v}")

    @property
    def a00(self) -> float:
        return 1.0 - self.a01

    @property
    def a10(self) -> float:
        return 1.0 - self.a11

    def stationary(self) -> float:
        """Long-run detection probability a01 / (1 + a01 - a11)."""
        return stationary_detection(self.a01, self.a11)


def stationary_detection(a01: float, a11: float) -> float:
    denom = 1.0 + a01 - a11
    if denom <= 1e-12:
        # Only reachable with a01 = 0 and a11 = 1; objects start undetected.
        return 0.0 if a01 == 0.0 else 1.0
    return a01 / denom


@dataclass(frozen=True, slots=True)
class ErrorDistribution:
    """Bivariate Gaussian over (eps_r, eps_theta).

    eps_r is a dimensionless radial ratio (perceived r = true r * eps_r),
    eps_theta an additive bearing offset in radians.
    """

    mu_r: float
    mu_theta: float
    sigma_r: float
    sigma_theta: float
    rho: float

    def __post_init__(self):
        if self.sigma_r <= 0.0:
            raise ValueError(f"sigma_r must be > 0: {self.sigma_r}")
        if self.sigma_theta <= 0.0:
            raise ValueError(f"sigma_theta must be > 0: {self.sigma_theta}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho out of (-1,1): {self.rho}")

    def covariance(self) -> np.ndarray:
        sr, st, rho = self.sigma_r, self.sigma_theta, self.rho
        return np.array([[sr * sr, rho * sr * st], [rho * sr * st, st * st]])


PARAM_NAMES = ("a01", "a11", "mu_r", "mu_theta", "sigma_r", "sigma_theta", "rho")


@dataclass(eq=False)
class PemModel:
    """Grid spec plus one (TransitionMatrix, ErrorDistribution) pair per condition.

    Parameters are stored as flat float arrays indexed by condition index; the
    model is immutable after construction and safe to share across sessions.
    """

    grid: GridSpec
    metadata: str
    a01: np.ndarray
    a11: np.ndarray
    mu_r: np.ndarray
    mu_theta: np.ndarray
    sigma_r: np.ndarray
    sigma_theta: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        self.validate()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PemModel):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.metadata == other.metadata
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in PARAM_NAMES)
        )

    def validate(self) -> None:
        n = self.grid.n_conditions
        for name in PARAM_NAMES:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ModelFormatError(f"{name} must have {n} entries, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ModelFormatError(f"{name} contains non-finite values")
        for name in ("a01", "a11"):
            arr = getattr(self, name)
            bad = (arr < 0.0) | (arr > 1.0)
            if bad.any():
                idx = int(np.argmax(bad))
                raise ModelFormatError(f"condition {idx}: {name} out of [0,1]: {arr[idx]}")
        for name in ("sigma_r", "sigma_theta"):
            arr = getattr(self, name)
            if (arr <= 0.0).any():
                idx = int(np.argmax(arr <= 0.0))
                raise ModelFormatError(f"condition {idx}: {name} must be > 0: {arr[idx]}")
        bad = np.abs(self.rho) >= 1.0
        if bad.any():
            idx = int(np.argmax(bad))
            raise ModelFormatError(f"condition {idx}: rho out of (-1,1): {self.rho[idx]}")

    @property
    def n_conditions(self) -> int:
        return self.grid.n_conditions

    def transition(self, cond: Condition) -> TransitionMatrix:
        i = cond.index
        return TransitionMatrix(float(self.a01[i]), float(self.a11[i]))

    def emission(self, cond: Condition) -> ErrorDistribution:
        i = cond.index
        return ErrorDistribution(
            float(self.mu_r[i]),
            float(self.mu_theta[i]),
            float(self.sigma_r[i]),
            float(self.sigma_theta[i]),
            float(self.rho[i]),
        )

    @classmethod
    def uniform(
        cls,
        grid: GridSpec,
        transition: TransitionMatrix,
        emission: ErrorDistribution,
        metadata: str = "",
    ) -> "PemModel":
        """Model with the same parameters in every condition."""
        n = grid.n_conditions
        full = lambda v: np.full(n, float(v))
        return cls(
            grid=grid,
            metadata=metadata,
            a01=full(transition.a01),
            a11=full(transition.a11),
            mu_r=full(emission.mu_r),
            mu_theta=full(emission.mu_theta),
            sigma_r=full(emission.sigma_r),
            sigma_theta=full(emission.sigma_theta),
            rho=full(emission.rho),
        )


# Emission spread small enough that a "perfect" model reproduces ground truth
# to well below 1e-9 over a full scenario, yet still a valid (> 0) sigma.
_NEAR_ZERO_SIGMA = 1e-13

IDENTITY_EMISSION = ErrorDistribution(
    mu_r=1.0, mu_theta=0.0, sigma_r=_NEAR_ZERO_SIGMA, sigma_theta=_NEAR_ZERO_SIGMA, rho=0.0
)


def perfect_model(grid: GridSpec | None = None, metadata: str = "perfect") -> PemModel:
    """Always-detect model with a degenerate identity error distribution."""
    return PemModel.uniform(grid or GridSpec(), TransitionMatrix(1.0, 1.0), IDENTITY_EMISSION, metadata)


def never_detect_model(grid: GridSpec | None = None, metadata: str = "never-detect") -> PemModel:
    """Model that never reports any object."""
    return PemModel.uniform(grid or GridSpec(), TransitionMatrix(0.0, 0.0), IDENTITY_EMISSION, metadata)


def model_to_dict(model: PemModel) -> dict:
    conditions = []
    for index in range(model.n_conditions):
        cond = condition_from_index(index, model.grid)
        entry = {"occ": cond.occ, "ring": cond.ring, "sector": cond.sector}
        for name in PARAM_NAMES:
            entry[name] = float(getattr(model, name)[index])
        conditions.append(entry)
    return {
        "metadata": model.metadata,
        "grid": asdict(model.grid),
        "conditions": conditions,
    }


_GRID_KEYS = tuple(GridSpec.__dataclass_fields__)  # as model_to_dict writes them
_CELL_KEYS = ("occ", "ring", "sector")
_CELL_FIELDS = {**dict.fromkeys(_CELL_KEYS, int), **dict.fromkeys(PARAM_NAMES, float)}


def model_from_dict(doc: dict) -> PemModel:
    try:
        require_object(doc, "", {"metadata": str, "grid": dict, "conditions": list})
        grid_doc = require_object(doc["grid"], "grid", dict.fromkeys(_GRID_KEYS, float))
        grid = GridSpec(**{key: float(grid_doc[key]) for key in _GRID_KEYS})
        n = grid.n_conditions
        arrays = {name: np.full(n, np.nan) for name in PARAM_NAMES}
        seen = np.zeros(n, dtype=bool)
        for pos, entry in enumerate(doc["conditions"]):
            occ, ring, sector = map(require_object(entry, f"conditions[{pos}]", _CELL_FIELDS).get, _CELL_KEYS)
            if not (0 <= occ < N_OCCLUSION_LEVELS and 0 <= ring < grid.n_rings and 0 <= sector < grid.n_sectors):
                raise ValueError(f"conditions[{pos}]: cell ({occ},{ring},{sector}) outside grid")
            index = condition_index(occ, ring, sector, grid)
            if seen[index]:
                raise ValueError(f"conditions[{pos}]: duplicate cell ({occ},{ring},{sector})")
            seen[index] = True
            for name in PARAM_NAMES:
                arrays[name][index] = entry[name]
        if not seen.all():
            missing = int(np.argmax(~seen))
            raise ValueError(f"conditions not exhaustive: index {missing} missing ({n - int(seen.sum())} absent)")
        return PemModel(grid=grid, metadata=doc["metadata"], **arrays)
    except ValueError as exc:  # ModelFormatError from PemModel.validate included
        raise ModelFormatError(str(exc)) from exc


def save_model(model: PemModel, path: str | Path) -> None:
    """Write the model as a single JSON document; load_model(save_model(m)) == m bit-for-bit."""
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> PemModel:
    try:
        doc = read_json(path)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return model_from_dict(doc)
