"""Error injection: turn a ground-truth world into a perceived world.

Each object carries a binary detection state v that evolves as a two-state
Markov chain per condition; detected objects get a bivariate Gaussian error
on range ratio and bearing. One loop, ``perceive``, applies this rule to plain
``(id, r, theta, occ)`` tuples; ``InjectorSession`` (serve and simulate) and
``synthesize_dataset`` call it, and ``apply_pem`` is its object form.

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

from .geometry import N_OCCLUSION_LEVELS, OcclusionLevel, PolarCoord, cartesian, cell_of, polar, wrap_angle
from .model import PARAM_NAMES, PemModel

# Perceived range is clamped here; a Gaussian radial ratio can go non-positive.
MIN_PERCEIVED_RANGE_M = 0.01


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


def param_lists(model: PemModel) -> tuple[list[float], ...]:
    """The model's parameter arrays as Python lists, in PARAM_NAMES order.

    Indexing a list is several times cheaper than indexing an array and
    gives the same float. The lists are a copy: build them once per session
    or batch, not per frame.
    """
    return tuple(getattr(model, name).tolist() for name in PARAM_NAMES)


def perceive(
    model: PemModel,
    world: list[tuple[int, float, float, int]],
    tracks: dict[int, int],
    rng: np.random.Generator,
    params: tuple[list[float], ...] | None = None,
) -> tuple[list[tuple[int, float, float]], dict[int, int]]:
    """Process one frame of (id, r, theta, occ): step every object's chain and emit the detected ones.

    ``tracks`` maps each id of the previous frame to its detection state;
    ids not in it start undetected, and objects at or beyond the grid's max
    radius are never detected. Returns (id, r, theta) per detected object in
    world order, plus the new track state, which holds exactly this frame's
    ids. A repeated id raises DuplicateIdError, naming the repeated id that
    appears first, and an invalid position or occlusion level raises
    ValueError; both before any draw. ``params`` is ``param_lists(model)``,
    built here when not given.
    """
    ids = [obj[0] for obj in world]
    if len(ids) != len(set(ids)):
        dup = next(i for i, n in Counter(ids).items() if n > 1)  # the repeated id seen first
        raise DuplicateIdError(f"duplicate object id {dup}")
    grid = model.grid
    n_rings, n_sectors = grid.n_rings, grid.n_sectors
    bins = (grid.max_radius_m, grid.ring_depth_m, n_rings, grid.sector_width_rad, n_sectors)
    cells = []  # condition_of(PolarCoord(r, theta), OcclusionLevel(occ), grid) as an index, -1 outside the grid
    for _, r, theta, occ in world:
        if not (r >= 0.0 and -math.pi < theta <= math.pi):
            PolarCoord(r, theta)  # raises PolarCoord's error; a NaN range passes its check
        if type(occ) is not int or not 0 <= occ < N_OCCLUSION_LEVELS:
            occ = int(OcclusionLevel(occ))
        cell = cell_of(r, theta, *bins)
        cells.append(-1 if cell is None else (occ * n_rings + cell[0]) * n_sectors + cell[1])
    a01, a11, mu_r, mu_theta, sigma_r, sigma_theta, rho = param_lists(model) if params is None else params

    perceived: list[tuple[int, float, float]] = []
    new_tracks: dict[int, int] = {}
    for (oid, r, theta, _), i in zip(world, cells):
        if i < 0:
            new_tracks[oid] = 0
            continue
        p_detect = a11[i] if tracks.get(oid, 0) else a01[i]
        detected = new_tracks[oid] = 1 if rng.random() < p_detect else 0
        if detected:
            z0, z1 = rng.standard_normal(2).tolist()
            c = rho[i]
            eps_r = mu_r[i] + sigma_r[i] * z0
            eps_theta = mu_theta[i] + sigma_theta[i] * (c * z0 + math.sqrt(1.0 - c * c) * z1)
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
    perceived, new_tracks = perceive(model, plain, tracks, rng)
    return [PerceivedObject(oid, PolarCoord(r, theta)) for oid, r, theta in perceived], new_tracks


class InjectorSession:
    """One seeded stream of frames through a model, in ego-relative Cartesian coordinates.

    A rejected frame (``t`` not increasing, or a repeated id) changes no state and uses no draws.
    The session reads the model's parameters as they were when it was created.
    """

    def __init__(self, model: PemModel, seed: int):
        self.model = model
        self.params = param_lists(model)
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
        """Perceive one frame of (id, x, y, occ); returns (source_id, x, y) in object order."""
        if self.last_t is not None and t <= self.last_t:
            raise TimeRegressionError(f"frame t {t} not greater than {self.last_t}")
        world = []
        for oid, x, y, occ in objects:
            r, theta = polar(x, y)
            if theta != theta:  # a NaN coordinate fails here, before the duplicate-id check
                PolarCoord(r, theta)
            world.append((oid, r, theta, occ))
        perceived, self.tracks = perceive(self.model, world, self.tracks, self.rng, self.params)
        self.last_t = t
        return [(oid, *cartesian(r, theta)) for oid, r, theta in perceived]
