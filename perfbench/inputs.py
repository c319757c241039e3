"""Deterministic benchmark inputs: every generator takes the benchmark seed.

The same seed gives the same model, frame streams and dataset, byte for
byte, so a run can be repeated and checked.
"""

from __future__ import annotations

import json
import math

import numpy as np

from pemkit.geometry import N_OCCLUSION_LEVELS, GridSpec
from pemkit.model import PemModel, stationary_detection
from pemkit.synthetic import SyntheticDatasetConfig, synthesize_dataset

# Visible-fraction levels VIS0..VIS3: heavily occluded objects are seen least.
_OCC_DETECTION = (0.35, 0.6, 0.8, 0.95)


def _cell_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(occ, ring, sector) of every condition index, occlusion-major."""
    occ, rest = np.divmod(np.arange(grid.n_conditions), grid.n_rings * grid.n_sectors)
    ring, sector = np.divmod(rest, grid.n_sectors)
    return occ, ring, sector


def varied_model(seed: int, grid: GridSpec | None = None) -> PemModel:
    """A model whose detection falls with range and occlusion.

    The structure is fixed and the seed only jitters each cell slightly, so
    every seed meets the same kind of detection gaps in the scenarios.
    """
    grid = grid or GridSpec()
    rng = np.random.default_rng([seed, 1])
    occ, ring, _ = _cell_axes(grid)
    n = grid.n_conditions
    far = ring / max(grid.n_rings - 1, 1)
    q = np.asarray(_OCC_DETECTION)[occ] * (1.0 - 0.4 * far)
    jitter = lambda scale: rng.uniform(-scale, scale, size=n)
    return PemModel(
        grid=grid,
        metadata=f"varied-{seed}",
        a01=np.clip(0.7 * q + jitter(0.03), 0.02, 0.98),
        a11=np.clip(0.6 + 0.39 * q + jitter(0.02), 0.05, 0.995),
        mu_r=1.0 + jitter(0.01),
        mu_theta=jitter(0.003),
        sigma_r=0.02 + 0.03 * far + rng.uniform(0.0, 0.005, size=n),
        sigma_theta=0.004 + 0.01 * far + rng.uniform(0.0, 0.002, size=n),
        rho=jitter(0.2),
    )


def learn_truth_model(seed: int, grid: GridSpec) -> PemModel:
    """A spatially smooth generating model for the learn workload.

    Detection varies smoothly over bearing (a seeded phase) and falls with
    range and occlusion, so the CAR prior has structure to recover.
    """
    rng = np.random.default_rng([seed, 2])
    occ, ring, sector = _cell_axes(grid)
    far = ring / max(grid.n_rings - 1, 1)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    bearing = (sector + 0.5) * grid.sector_width_rad
    wave = 0.5 + 0.5 * np.cos(bearing - phase)
    q = np.asarray(_OCC_DETECTION)[occ] * (1.0 - 0.4 * far) * (0.75 + 0.25 * wave)
    return PemModel(
        grid=grid,
        metadata=f"truth-{seed}",
        a01=0.1 + 0.6 * q,
        a11=0.5 + 0.45 * q,
        mu_r=1.0 + 0.02 * (wave - 0.5),
        mu_theta=0.004 * (wave - 0.5),
        sigma_r=0.02 + 0.02 * far,
        sigma_theta=0.005 + 0.005 * far,
        rho=0.2 * (wave - 0.5),
    )


def learn_dataset(truth: PemModel, seed: int, scenes: int = 50, frames: int = 50, objects: int = 48):
    """Constant-velocity objects placed uniformly, so every cell gets data."""
    cfg = SyntheticDatasetConfig(
        true_model=truth,
        n_scenes=scenes,
        frames_per_scene=frames,
        objects_per_scene=objects,
        motion="constant_velocity",
        placement="uniform",
        seed=seed,
    )
    return synthesize_dataset(cfg)


def pi1_rmse(learned: PemModel, truth: PemModel, transitions: np.ndarray, min_transitions: int) -> float:
    """RMSE of the stationary detection probability over well-observed cells."""
    mask = np.asarray(transitions) >= min_transitions
    if not mask.any():
        raise ValueError("no cell has enough transitions to score")
    pi = lambda m: np.array([stationary_detection(a, b) for a, b in zip(m.a01[mask], m.a11[mask])])
    return float(np.sqrt(np.mean((pi(learned) - pi(truth)) ** 2)))


def frame_stream(seed: int, session: int, n_frames: int, population: int = 64, max_objects: int = 48):
    """Frames for one serve session: (ids, x, y, occ) arrays per frame.

    A population of ``population`` ids moves at constant velocity inside a
    +/-130 m box (wrapping at its edges), so some objects lie beyond the
    default 100 m grid. Each frame shows 0..max_objects of them (mean half
    of max_objects), each at a random visibility level.
    """
    rng = np.random.default_rng([seed, 3, session])
    half = 130.0
    pos = rng.uniform(-half, half, size=(population, 2))
    heading = rng.uniform(0.0, 2.0 * math.pi, size=population)
    speed = rng.uniform(0.0, 15.0, size=population)
    step = 0.5 * speed[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    frames = []
    for _ in range(n_frames):
        k = int(rng.integers(0, max_objects + 1))
        ids = np.sort(rng.choice(population, size=k, replace=False))
        occ = rng.integers(0, N_OCCLUSION_LEVELS, size=k)
        frames.append((ids, pos[ids, 0].copy(), pos[ids, 1].copy(), occ))
        pos = (pos + step + half) % (2.0 * half) - half
    return frames


def encode_objects(frame) -> bytes:
    """The frame's object list as canonical JSON (the server's own encoding)."""
    ids, xs, ys, occ = frame
    objects = [{"id": int(i), "x": float(x), "y": float(y), "occ": int(o)} for i, x, y, o in zip(ids, xs, ys, occ)]
    return json.dumps(objects, sort_keys=True, separators=(",", ":")).encode("utf-8")


def frame_line(objects_json: bytes, t: int) -> bytes:
    """A canonical frame request: keys sorted as protocol.encode sorts them."""
    return b'{"objects":' + objects_json + b',"t":' + str(t).encode() + b',"type":"frame"}\n'
