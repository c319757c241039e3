"""Error injection: turn a ground-truth world into a perceived world.

Each object carries a binary detection state v that evolves as a two-state
Markov chain per condition; detected objects get a bivariate Gaussian error
on range ratio and bearing. One loop, ``perceive``, applies this rule to
checked ``(id, r, theta, cell)`` tuples, where ``cell`` is the condition
index, with the model's ``param_lists``. ``checked_cells`` makes them from
``(id, r, theta, occ)`` for ``apply_pem`` (the object form) and
``synthesize_dataset``; ``InjectorSession`` (serve and simulate) makes them
from Cartesian objects in one pass that raises the same errors.

Random-number consumption is fixed so that two processes running the same
model, world sequence, and seed produce identical perceived sequences:
per in-range object one uniform for the detection step, then two standard
normals if and only if it was detected. Out-of-range objects consume nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import N_OCCLUSION_LEVELS, TWO_PI, GridSpec, OcclusionLevel, PolarCoord, cell_of, wrap_angle
from .model import PemModel

# Perceived range is clamped here; a Gaussian radial ratio can go non-positive.
MIN_PERCEIVED_RANGE_M = 0.01
_HALF_PI = 0.5 * math.pi  # geometry.polar's bearing offset


class DuplicateIdError(ValueError):
    """A frame contained the same object id twice."""


class TimeRegressionError(ValueError):
    """A frame's t did not increase on the previous accepted frame's t."""


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """An actor's true state in the ego-relative frame."""

    id: int
    position: PolarCoord
    occlusion: OcclusionLevel


@dataclass(frozen=True, slots=True)
class PerceivedObject:
    """An error-corrupted detection, tied back to the ground-truth object it came from."""

    source_id: int
    position: PolarCoord


def session_rng(seed: int, reset_count: int = 0) -> np.random.Generator:
    """The one seeding rule shared by local injection and the wire server.

    Reseeding after the k-th reset of a session uses (seed, k); a fresh
    session is reset_count 0.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, reset_count]))


def _bins(grid: GridSpec) -> tuple[float, float, int, float, int]:
    """The grid's numbers in ``geometry.cell_of``'s order: max radius, ring depth, rings, sector width, sectors."""
    return grid.max_radius_m, grid.ring_depth_m, grid.n_rings, grid.sector_width_rad, grid.n_sectors


def _check_unique_ids(world: list[tuple]) -> None:
    """Raise DuplicateIdError naming the repeated id that appears first, if an entry's id (its item 0) repeats."""
    if len({obj[0] for obj in world}) != len(world):
        dup = next(i for i, n in Counter(obj[0] for obj in world).items() if n > 1)
        raise DuplicateIdError(f"duplicate object id {dup}")


def checked_cells(model: PemModel, world: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float, int]]:
    """(id, r, theta, cell) per (id, r, theta, occ), for ``perceive``; ``cell`` is the condition index, -1 outside the grid.

    A repeated id raises DuplicateIdError, naming the repeated id that appears
    first; then an invalid position or occlusion level raises ValueError.
    """
    _check_unique_ids(world)
    bins = _bins(model.grid)
    n_rings, n_sectors = bins[2], bins[4]
    cells = []
    for oid, r, theta, occ in world:
        if not (r >= 0.0 and -math.pi < theta <= math.pi):
            PolarCoord(r, theta)  # raises PolarCoord's error; a NaN range passes its check
        if type(occ) is not int or not 0 <= occ < N_OCCLUSION_LEVELS:
            occ = int(OcclusionLevel(occ))
        cell = cell_of(r, theta, *bins)  # condition_of as an index
        cells.append((oid, r, theta, -1 if cell is None else (occ * n_rings + cell[0]) * n_sectors + cell[1]))
    return cells


def perceive(
    model: PemModel,
    world: list[tuple[int, float, float, int]],
    tracks: dict[int, int],
    rng: np.random.Generator,
) -> tuple[list[tuple[int, float, float]], dict[int, int]]:
    """Process one frame of checked (id, r, theta, cell): step every object's chain and emit the detected ones.

    ``world`` is ``checked_cells``' output, or the same entries from a caller
    that checked them: unique ids, and r and theta go unread where ``cell`` is
    -1. ``tracks`` maps each id of the previous frame to its detection state;
    ids not in it start undetected, and objects outside the grid are never
    detected. Returns (id, r, theta) per detected object in world order, plus
    the new track state, which holds exactly this frame's ids.
    """
    a01, a11, mu_r, mu_theta, sigma_r, sigma_theta, rho = model.param_lists
    random, normal, was_detected, sqrt = rng.random, rng.standard_normal, tracks.get, math.sqrt

    perceived: list[tuple[int, float, float]] = []
    new_tracks: dict[int, int] = {}
    for oid, r, theta, i in world:
        if i < 0:
            new_tracks[oid] = 0
            continue
        p_detect = a11[i] if was_detected(oid, 0) else a01[i]
        detected = new_tracks[oid] = 1 if random() < p_detect else 0
        if detected:
            z0, z1 = normal(2).tolist()
            c = rho[i]
            eps_r = mu_r[i] + sigma_r[i] * z0
            eps_theta = mu_theta[i] + sigma_theta[i] * (c * z0 + sqrt(1.0 - c * c) * z1)
            perceived.append((oid, max(r * eps_r, MIN_PERCEIVED_RANGE_M), wrap_angle(theta + eps_theta)))
    return perceived, new_tracks


def apply_pem(
    model: PemModel,
    world: list[GroundTruthObject],
    tracks: dict[int, int],
    rng: np.random.Generator,
) -> tuple[list[PerceivedObject], dict[int, int]]:
    """``perceive`` for ground-truth objects: returns perceived objects and the new track state."""
    plain = [(obj.id, obj.position.r, obj.position.theta, obj.occlusion) for obj in world]
    perceived, new_tracks = perceive(model, checked_cells(model, plain), tracks, rng)
    return [PerceivedObject(oid, PolarCoord(r, theta)) for oid, r, theta in perceived], new_tracks


class InjectorSession:
    """One seeded stream of frames through a model, in ego-relative Cartesian coordinates.

    A rejected frame changes no state and uses no draws.
    """

    def __init__(self, model: PemModel, seed: int):
        self.model = model
        self.bins = _bins(model.grid)
        self.seed = seed
        self.reset_count = -1
        self.reset()

    def reset(self) -> None:
        """Clear tracks and the frame clock; the k-th reset reseeds from (seed, k), a new session is k = 0."""
        self.reset_count += 1
        self.tracks: dict[int, int] = {}
        self.last_t: int | None = None
        self.rng = session_rng(self.seed, self.reset_count)

    def frame(self, t: int, objects: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        """Perceive one frame of (id, x, y, occ); returns (source_id, x, y) in object order.

        One pass with ``geometry.polar``'s and ``cell_of``'s arithmetic; a level ``OcclusionLevel`` accepts
        counts as its int. Errors, the first that applies: a ``t`` regression, a NaN x or y (the first), a
        repeated id, a level ``OcclusionLevel`` refuses (the first). An infinite position is outside the grid.
        """
        if self.last_t is not None and t <= self.last_t:
            raise TimeRegressionError(f"frame t {t} not greater than {self.last_t}")
        max_r, depth, n_rings, width, n_sectors = self.bins
        hypot, atan2, fmod, pi = math.hypot, math.atan2, math.fmod, math.pi
        world = []
        bad_level = None
        for oid, x, y, occ in objects:
            if type(occ) is not int or not 0 <= occ < N_OCCLUSION_LEVELS:
                try:
                    occ = int(OcclusionLevel(occ))
                except ValueError as exc:
                    bad_level = bad_level or exc
                    occ = 0  # any int: the frame is refused after the pass
            r = hypot(x, y)
            if r < max_r:
                theta = fmod(atan2(y, x) - _HALF_PI, TWO_PI)
                if theta > pi:
                    theta -= TWO_PI
                elif theta <= -pi:
                    theta += TWO_PI
                ring = int(r // depth)
                sector = int(theta % TWO_PI // width)
                if ring >= n_rings:
                    ring = n_rings - 1
                if sector >= n_sectors:  # a float edge at 2 pi
                    sector = n_sectors - 1
                world.append((oid, r, theta, (occ * n_rings + ring) * n_sectors + sector))
            elif x == x and y == y:  # outside the grid, an infinite position too
                world.append((oid, r, 0.0, -1))
            else:
                PolarCoord(r, math.nan)  # raises: a NaN coordinate has a NaN bearing
        _check_unique_ids(world)
        if bad_level is not None:
            raise bad_level
        perceived, self.tracks = perceive(self.model, world, self.tracks, self.rng)
        self.last_t = t
        sin, cos = math.sin, math.cos
        return [(oid, -r * sin(theta), r * cos(theta)) for oid, r, theta in perceived]  # geometry.cartesian
