"""Desk-scale synthetic perception datasets for learning-recovery checks.

Simulates objects around the ego, pushes them through a known model, and
records the resulting (ground truth, detections) stream. Learning from such
a dataset should approximately recover the generating model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetBuilder, PerceptionDataset
from .geometry import N_OCCLUSION_LEVELS, PolarCoord, polar_from_xy_arrays, wrap_angle, xy_from_polar
from .inject import checked_cells, perceive, session_rng
from .model import PemModel


@dataclass(slots=True)
class SyntheticDatasetConfig:
    true_model: PemModel
    n_scenes: int = 10
    frames_per_scene: int = 50
    objects_per_scene: int = 8
    motion: str = "static"  # "static" or "constant_velocity"
    speed_mps: float = 2.0
    placement: str = "stratified"  # "stratified" (round-robin over cells) or "uniform"
    occlusion_levels: tuple[int, ...] = tuple(range(N_OCCLUSION_LEVELS))
    frame_rate_hz: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_scenes, self.frames_per_scene, self.objects_per_scene) < 1:
            raise ValueError("scene, frame, and object counts must all be >= 1")
        if self.motion not in ("static", "constant_velocity"):
            raise ValueError(f"unknown motion {self.motion!r}")
        if self.placement not in ("stratified", "uniform"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if not self.occlusion_levels:
            raise ValueError("occlusion_levels must be non-empty")


def _place_objects(cfg: SyntheticDatasetConfig, rng: np.random.Generator) -> list[tuple[float, float, int]]:
    """(r, theta, occ) of each object, in id order."""
    grid = cfg.true_model.grid
    objects = []
    if cfg.placement == "stratified":
        levels = list(cfg.occlusion_levels)
        cells = [
            (occ_idx, ring, sector)
            for occ_idx in range(len(levels))
            for ring in range(grid.n_rings)
            for sector in range(grid.n_sectors)
        ]
        # Objects cycle round-robin over cells. Cells that share a (ring,
        # sector) but differ in occlusion get distinct bearings, and repeat
        # visits to the same cell get distinct radial slots, so no two objects
        # are ever close enough for realistic errors to confuse the matcher.
        slot_fractions = (0.3, 0.7, 0.4, 0.6, 0.5, 0.35, 0.65, 0.45)
        for i in range(cfg.objects_per_scene):
            occ_idx, ring, sector = cells[i % len(cells)]
            slot = (i // len(cells)) % len(slot_fractions)
            r = (ring + slot_fractions[slot]) * grid.ring_depth_m
            angular_fraction = (occ_idx + 0.5) / len(levels)
            theta = wrap_angle((sector + angular_fraction) * grid.sector_width_rad)
            objects.append((r, theta, levels[occ_idx]))
    else:
        for _ in range(cfg.objects_per_scene):
            r = rng.uniform(0.5, grid.max_radius_m * 0.999)
            theta = wrap_angle(rng.uniform(0.0, 2.0 * np.pi))
            objects.append((r, theta, int(rng.choice(cfg.occlusion_levels))))
    return objects


def synthesize_dataset(cfg: SyntheticDatasetConfig) -> PerceptionDataset:
    """Deterministic given the seed: simulate scenes and apply the true model."""
    rng = session_rng(cfg.seed, 0)
    dt = 1.0 / cfg.frame_rate_hz
    builder = DatasetBuilder()
    for s in range(cfg.n_scenes):
        builder.add_scene(s)
        objects = _place_objects(cfg, rng)
        ids = list(range(len(objects)))
        occ = [o for _, _, o in objects]
        if cfg.motion == "constant_velocity":
            headings = rng.uniform(0.0, 2.0 * np.pi, size=len(objects))
            velocities = cfg.speed_mps * np.column_stack([np.cos(headings), np.sin(headings)])
        else:
            velocities = np.zeros((len(objects), 2))
        positions = np.array([xy_from_polar(PolarCoord(r, theta)) for r, theta, _ in objects])
        tracks: dict[int, int] = {}
        for _t in range(cfg.frames_per_scene):
            r, theta = (a.tolist() for a in polar_from_xy_arrays(*positions.T.tolist()))
            world = list(zip(ids, r, theta, occ))
            perceived, tracks = perceive(cfg.true_model, checked_cells(cfg.true_model, world), tracks, rng)
            det = [(pr, ptheta) for _, pr, ptheta in perceived]
            if len(det) > 1:
                det = [det[i] for i in rng.permutation(len(det))]
            builder.add_frame(world, det)
            positions = positions + velocities * dt
    return builder.build()
