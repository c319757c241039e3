"""Ego-relative polar geometry and the condition grid.

Conventions used throughout the package: the ego vehicle sits at the origin
facing the +y axis; bearings are measured counterclockwise from the ego
heading and wrapped to (-pi, pi]; distances are meters.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from numpy.typing import ArrayLike

from .checks import require

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to the half-open interval (-pi, pi]."""
    w = math.fmod(theta, TWO_PI)
    if w > math.pi:
        w -= TWO_PI
    elif w <= -math.pi:
        w += TWO_PI
    return w


@dataclass(frozen=True, slots=True)
class PolarCoord:
    """Position in the ego-relative polar frame: range r [m], bearing theta [rad]."""

    r: float
    theta: float

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if not (-math.pi < self.theta <= math.pi):
            raise ValueError(f"theta must lie in (-pi, pi], got {self.theta}")


def polar(x: float, y: float) -> tuple[float, float]:
    """Ego-relative Cartesian (x right, y forward) to plain (r, theta), unchecked."""
    return math.hypot(x, y), wrap_angle(math.atan2(y, x) - 0.5 * math.pi)


def cartesian(r: float, theta: float) -> tuple[float, float]:
    """Plain polar back to ego-relative Cartesian (x right, y forward)."""
    return -r * math.sin(theta), r * math.cos(theta)


def polar_from_xy(x: float, y: float) -> PolarCoord:
    """Ego-relative Cartesian (x right, y forward) to polar."""
    return PolarCoord(*polar(x, y))


def xy_from_polar(p: PolarCoord) -> tuple[float, float]:
    """Polar back to ego-relative Cartesian (x right, y forward)."""
    return cartesian(p.r, p.theta)


# The array conversions below evaluate the transcendental functions with
# ``math`` rather than NumPy: np.hypot, np.arctan2 and the SIMD np.sin/np.cos
# can differ from libm in the last bit, and every learned model depends on
# these values. The remaining arithmetic is IEEE-exact in both.


def wrap_angles(theta: ArrayLike) -> np.ndarray:
    """Vectorised ``wrap_angle`` with the same ``fmod`` and comparisons."""
    w = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(w > math.pi, w - TWO_PI, np.where(w <= -math.pi, w + TWO_PI, w))


def polar_from_xy_arrays(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``polar_from_xy``: (r, theta) arrays, bit-identical element by element."""
    n = len(x)
    r = np.fromiter(map(math.hypot, x, y), dtype=float, count=n)
    theta = wrap_angles(np.fromiter(map(math.atan2, y, x), dtype=float, count=n) - 0.5 * math.pi)
    return r, theta


def xy_from_polar_arrays(r: ArrayLike, theta: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``xy_from_polar``: (x, y) arrays, bit-identical element by element."""
    angles = np.asarray(theta, dtype=float).tolist()
    sin = np.fromiter(map(math.sin, angles), dtype=float, count=len(angles))
    cos = np.fromiter(map(math.cos, angles), dtype=float, count=len(angles))
    r = np.asarray(r, dtype=float)
    return -r * sin, r * cos


class OcclusionLevel(IntEnum):
    """Binned visible fraction of an object as seen from the ego."""

    VIS0 = 0  # [0.0, 0.4) visible
    VIS1 = 1  # [0.4, 0.6)
    VIS2 = 2  # [0.6, 0.8)
    VIS3 = 3  # [0.8, 1.0]

    @classmethod
    def from_fraction(cls, fraction: float) -> "OcclusionLevel":
        f = min(max(fraction, 0.0), 1.0)
        if f < 0.4:
            return cls.VIS0
        if f < 0.6:
            return cls.VIS1
        if f < 0.8:
            return cls.VIS2
        return cls.VIS3


N_OCCLUSION_LEVELS = 4

# Seven float arrays of 10**6 conditions take 56 MB; a 5 deg x 1 m x 100 m grid has 28,800.
MAX_CONDITIONS = 10**6


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Polar partitioning of the ego surroundings.

    The angular width is stored in degrees so that model files round-trip
    bit-for-bit; use ``sector_width_rad`` for math.
    """

    sector_width_deg: float = 30.0
    ring_depth_m: float = 10.0
    max_radius_m: float = 100.0

    def __post_init__(self):
        for name in ("sector_width_deg", "ring_depth_m", "max_radius_m"):
            require(getattr(self, name), name, float, above=0)
        ns = 360.0 / self.sector_width_deg
        nr = self.max_radius_m / self.ring_depth_m
        if not N_OCCLUSION_LEVELS * ns * nr < MAX_CONDITIONS + 0.5:  # also when it overflows to inf
            raise ValueError(f"grid has {N_OCCLUSION_LEVELS * ns * nr:.4g} conditions, more than {MAX_CONDITIONS}")
        if abs(ns - round(ns)) > 1e-9 or round(ns) < 1:
            raise ValueError(f"sector_width_deg must divide 360 evenly, got {self.sector_width_deg}")
        if abs(nr - round(nr)) > 1e-9 or round(nr) < 1:
            raise ValueError(
                f"max_radius_m must be an integer multiple of ring_depth_m, got {self.max_radius_m}/{self.ring_depth_m}"
            )

    @property
    def n_sectors(self) -> int:
        return round(360.0 / self.sector_width_deg)

    @property
    def n_rings(self) -> int:
        return round(self.max_radius_m / self.ring_depth_m)

    @property
    def sector_width_rad(self) -> float:
        return math.radians(self.sector_width_deg)

    @property
    def n_conditions(self) -> int:
        return N_OCCLUSION_LEVELS * self.n_rings * self.n_sectors


@dataclass(frozen=True, slots=True)
class Condition:
    """One model partition: an (occlusion level, ring, sector) cell.

    ``index`` is occlusion-major: occ * (n_rings * n_sectors) + ring * n_sectors
    + sector, which fixes the on-disk ordering of model files.
    """

    index: int
    occ: int
    ring: int
    sector: int


def sector_of(theta: float, grid: GridSpec) -> int:
    """Sector index for a bearing; sector 0 starts at the ego heading and counts counterclockwise."""
    return sector_index(theta, grid.sector_width_rad, grid.n_sectors)


def sector_index(theta: float, sector_width_rad: float, n_sectors: int) -> int:
    """``sector_of`` on a grid's plain numbers."""
    return min(int(theta % TWO_PI // sector_width_rad), n_sectors - 1)  # guard against float edge at 2*pi


def cell_of(
    r: float,
    theta: float,
    max_radius_m: float,
    ring_depth_m: float,
    n_rings: int,
    sector_width_rad: float,
    n_sectors: int,
) -> tuple[int, int] | None:
    """(ring, sector) containing a position, or None when r >= max_radius, on a grid's plain numbers.

    The one scalar bin lookup: ``condition_of`` calls it, and the injector
    calls it with the grid's numbers read once per frame.
    """
    if r >= max_radius_m:
        return None
    return min(int(r // ring_depth_m), n_rings - 1), sector_index(theta, sector_width_rad, n_sectors)


def condition_index(occ: int, ring: int, sector: int, grid: GridSpec) -> int:
    return occ * (grid.n_rings * grid.n_sectors) + ring * grid.n_sectors + sector


def condition_from_index(index: int, grid: GridSpec) -> Condition:
    """Inverse of the occlusion-major indexing."""
    per_occ = grid.n_rings * grid.n_sectors
    if not (0 <= index < N_OCCLUSION_LEVELS * per_occ):
        raise ValueError(f"condition index {index} out of range for grid")
    occ, rest = divmod(index, per_occ)
    ring, sector = divmod(rest, grid.n_sectors)
    return Condition(index, occ, ring, sector)


def condition_of(position: PolarCoord, occlusion: OcclusionLevel, grid: GridSpec) -> Condition | None:
    """Resolve the condition containing a position, or None when r >= max_radius.

    The outer boundary is exclusive: an object exactly at max_radius is
    outside the grid.
    """
    cell = cell_of(
        position.r, position.theta, grid.max_radius_m, grid.ring_depth_m, grid.n_rings, grid.sector_width_rad,
        grid.n_sectors,
    )
    if cell is None:
        return None
    occ = int(occlusion)
    return Condition(condition_index(occ, *cell, grid), occ, *cell)


def conditions_of(r: ArrayLike, theta: ArrayLike, occ: ArrayLike, grid: GridSpec) -> np.ndarray:
    """Vectorised ``condition_of``: condition indices, -1 where r >= max_radius.

    Uses the same float ``//`` and ``%`` as the scalar lookup, so both agree
    element by element, bin edges included.
    """
    r = np.asarray(r, dtype=float)
    inside = r < grid.max_radius_m
    ring = np.minimum(np.where(inside, r, 0.0) // grid.ring_depth_m, grid.n_rings - 1).astype(np.int64)
    sector = np.minimum((np.asarray(theta, dtype=float) % TWO_PI) // grid.sector_width_rad, grid.n_sectors - 1)
    index = condition_index(np.asarray(occ, dtype=np.int64), ring, sector.astype(np.int64), grid)
    return np.where(inside, index, -1)
