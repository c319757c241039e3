"""Error injection: turn a ground-truth world into a perceived world.

Each object carries a binary detection state v that evolves as a two-state
Markov chain per condition; detected objects get a positional error draw.
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

from .geometry import Condition, GridSpec, OcclusionLevel, PolarCoord, condition_of, polar_from_xy, wrap_angle, xy_from_polar
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


# Detection states of the ids seen in the previous frame; ids absent from the
# current frame are evicted on every apply_pem call.
TrackState = dict[int, int]


def session_rng(seed: int, reset_count: int = 0) -> np.random.Generator:
    """The one seeding rule shared by local injection and the wire server.

    Reseeding after the k-th reset of a session uses (seed, k); a fresh
    session is reset_count 0.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, reset_count]))


def step_detection(model: PemModel, cond: Condition, prev_v: int, rng: np.random.Generator) -> int:
    """Advance one object's detection chain by one frame; consumes one uniform draw."""
    p = model.a11[cond.index] if prev_v else model.a01[cond.index]
    return 1 if rng.random() < p else 0


def sample_error(model: PemModel, cond: Condition, rng: np.random.Generator) -> tuple[float, float]:
    """Draw (eps_r, eps_theta) from the condition's bivariate Gaussian.

    Only meaningful for detected objects; undetected objects get no emission.
    Consumes exactly two standard-normal draws.
    """
    z = rng.standard_normal(2)
    i = cond.index
    eps_r = model.mu_r[i] + model.sigma_r[i] * z[0]
    rho = model.rho[i]
    eps_theta = model.mu_theta[i] + model.sigma_theta[i] * (rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1])
    return float(eps_r), float(eps_theta)


def apply_pem(
    model: PemModel,
    world: list[GroundTruthObject],
    tracks: TrackState,
    rng: np.random.Generator,
) -> tuple[list[PerceivedObject], TrackState]:
    """Process one frame: step every object's chain and emit detected objects.

    Objects at or beyond the grid's max radius are never detected; ids not in
    ``tracks`` start undetected. Returns the perceived objects in world order
    plus the new track state, which holds exactly the current frame's ids.
    """
    seen: set[int] = set()
    for obj in world:
        if obj.id in seen:
            raise DuplicateIdError(f"duplicate object id {obj.id} in frame")
        seen.add(obj.id)

    perceived: list[PerceivedObject] = []
    new_tracks: TrackState = {}
    grid: GridSpec = model.grid
    for obj in world:
        cond = condition_of(obj.position, obj.occlusion, grid)
        if cond is None:
            new_tracks[obj.id] = 0
            continue
        v = step_detection(model, cond, tracks.get(obj.id, 0), rng)
        new_tracks[obj.id] = v
        if v:
            eps_r, eps_theta = sample_error(model, cond, rng)
            r = max(obj.position.r * eps_r, MIN_PERCEIVED_RANGE_M)
            theta = wrap_angle(obj.position.theta + eps_theta)
            perceived.append(PerceivedObject(obj.id, PolarCoord(r, theta)))
    return perceived, new_tracks


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
        self.tracks: TrackState = {}
        self.last_t: int | None = None
        self.rng = session_rng(self.seed, self.reset_count)

    def frame(self, t: int, objects: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        """Perceive one frame of (id, x, y, occ); returns (source_id, x, y) in object order."""
        if self.last_t is not None and t <= self.last_t:
            raise TimeRegressionError(f"frame t {t} not greater than {self.last_t}")
        ids = [obj[0] for obj in objects]
        if len(ids) != len(set(ids)):
            dup = next(i for i, n in Counter(ids).items() if n > 1)  # the repeated id seen first
            raise DuplicateIdError(f"duplicate object id {dup}")
        world = [GroundTruthObject(oid, polar_from_xy(x, y), OcclusionLevel(occ)) for oid, x, y, occ in objects]
        perceived, self.tracks = apply_pem(self.model, world, self.tracks, self.rng)
        self.last_t = t
        return [(p.source_id, *xy_from_polar(p.position)) for p in perceived]
