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

from .geometry import OcclusionLevel, PolarCoord, condition_of, polar_from_xy, wrap_angle, xy_from_polar
from .model import PemModel

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


def perceive(
    model: PemModel,
    world: list[tuple[int, float, float, int]],
    tracks: dict[int, int],
    rng: np.random.Generator,
) -> tuple[list[tuple[int, float, float]], dict[int, int]]:
    """Process one frame of (id, r, theta, occ): step every object's chain and emit the detected ones.

    ``tracks`` maps each id of the previous frame to its detection state;
    ids not in it start undetected, and objects at or beyond the grid's max
    radius are never detected. Returns (id, r, theta) per detected object in
    world order, plus the new track state, which holds exactly this frame's
    ids. A repeated id raises DuplicateIdError, naming the repeated id that
    appears first, and an invalid position or occlusion level raises
    ValueError; both before any draw.
    """
    ids = [obj[0] for obj in world]
    if len(ids) != len(set(ids)):
        dup = next(i for i, n in Counter(ids).items() if n > 1)  # the repeated id seen first
        raise DuplicateIdError(f"duplicate object id {dup}")
    grid = model.grid
    cells = [condition_of(PolarCoord(r, theta), OcclusionLevel(occ), grid) for _, r, theta, occ in world]

    perceived: list[tuple[int, float, float]] = []
    new_tracks: dict[int, int] = {}
    for (oid, r, theta, _), cond in zip(world, cells):
        if cond is None:
            new_tracks[oid] = 0
            continue
        i = cond.index
        p_detect = model.a11[i] if tracks.get(oid, 0) else model.a01[i]
        detected = new_tracks[oid] = 1 if rng.random() < p_detect else 0
        if detected:
            z = rng.standard_normal(2)
            rho = model.rho[i]
            eps_r = float(model.mu_r[i] + model.sigma_r[i] * z[0])
            z_theta = rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]
            eps_theta = float(model.mu_theta[i] + model.sigma_theta[i] * z_theta)
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
    """

    def __init__(self, model: PemModel, seed: int):
        self.model = model
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
        polar = [polar_from_xy(x, y) for _, x, y, _ in objects]
        world = [(obj[0], p.r, p.theta, obj[3]) for obj, p in zip(objects, polar)]
        perceived, self.tracks = perceive(self.model, world, self.tracks, self.rng)
        self.last_t = t
        return [(oid, *xy_from_polar(PolarCoord(r, theta))) for oid, r, theta in perceived]
