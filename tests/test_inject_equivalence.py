"""The plain-value injection loop against the object-based injector it replaced.

``oracle_step_detection``, ``oracle_sample_error`` and ``oracle_apply_pem``
are the previous per-object functions, kept verbatim. ``OracleSession`` and
``oracle_synthesize`` are the previous ``InjectorSession.frame`` and
``synthesize_dataset`` loops over them; object placement is shared, since
``_place_objects`` only changed the shape of what it returns.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemkit import (
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PemModel,
    PerceivedObject,
    PerceptionDataset,
    PolarCoord,
    Scene,
    SyntheticDatasetConfig,
    condition_of,
    polar_from_xy,
    session_rng,
    synthesize_dataset,
    wrap_angle,
    xy_from_polar,
)
from pemkit.dataset import Frame
from pemkit.inject import (
    MIN_PERCEIVED_RANGE_M,
    DuplicateIdError,
    InjectorSession,
    TimeRegressionError,
)
from pemkit.synthetic import _place_objects

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=4.0, max_radius_m=8.0)


def oracle_step_detection(model, cond, prev_v, rng):
    """Advance one object's detection chain by one frame; consumes one uniform draw."""
    p = model.a11[cond.index] if prev_v else model.a01[cond.index]
    return 1 if rng.random() < p else 0


def oracle_sample_error(model, cond, rng):
    """Draw (eps_r, eps_theta) from the condition's bivariate Gaussian."""
    z = rng.standard_normal(2)
    i = cond.index
    eps_r = model.mu_r[i] + model.sigma_r[i] * z[0]
    rho = model.rho[i]
    eps_theta = model.mu_theta[i] + model.sigma_theta[i] * (rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1])
    return float(eps_r), float(eps_theta)


def oracle_apply_pem(model, world, tracks, rng):
    ids = [obj.id for obj in world]
    if len(ids) != len(set(ids)):
        dup = next(i for i, n in Counter(ids).items() if n > 1)  # the repeated id seen first
        raise DuplicateIdError(f"duplicate object id {dup}")

    perceived = []
    new_tracks = {}
    grid = model.grid
    for obj in world:
        cond = condition_of(obj.position, obj.occlusion, grid)
        if cond is None:
            new_tracks[obj.id] = 0
            continue
        v = oracle_step_detection(model, cond, tracks.get(obj.id, 0), rng)
        new_tracks[obj.id] = v
        if v:
            eps_r, eps_theta = oracle_sample_error(model, cond, rng)
            r = max(obj.position.r * eps_r, MIN_PERCEIVED_RANGE_M)
            theta = wrap_angle(obj.position.theta + eps_theta)
            perceived.append(PerceivedObject(obj.id, PolarCoord(r, theta)))
    return perceived, new_tracks


class OracleSession:
    def __init__(self, model, seed):
        self.model = model
        self.seed = seed
        self.reset_count = -1
        self.reset()

    def reset(self):
        self.reset_count += 1
        self.tracks = {}
        self.last_t = None
        self.rng = session_rng(self.seed, self.reset_count)

    def frame(self, t, objects):
        if self.last_t is not None and t <= self.last_t:
            raise TimeRegressionError(f"frame t {t} not greater than {self.last_t}")
        world = [GroundTruthObject(oid, polar_from_xy(x, y), OcclusionLevel(occ)) for oid, x, y, occ in objects]
        perceived, self.tracks = oracle_apply_pem(self.model, world, self.tracks, self.rng)
        self.last_t = t
        return [(p.source_id, *xy_from_polar(p.position)) for p in perceived]


def oracle_synthesize(cfg):
    rng = session_rng(cfg.seed, 0)
    dt = 1.0 / cfg.frame_rate_hz
    scenes = []
    for s in range(cfg.n_scenes):
        objects = [
            GroundTruthObject(i, PolarCoord(r, theta), OcclusionLevel(occ))
            for i, (r, theta, occ) in enumerate(_place_objects(cfg, rng))
        ]
        if cfg.motion == "constant_velocity":
            headings = rng.uniform(0.0, 2.0 * np.pi, size=len(objects))
            velocities = cfg.speed_mps * np.column_stack([np.cos(headings), np.sin(headings)])
        else:
            velocities = np.zeros((len(objects), 2))
        positions = np.array([xy_from_polar(o.position) for o in objects])
        tracks = {}
        frames = []
        for t in range(cfg.frames_per_scene):
            world = [
                GroundTruthObject(obj.id, polar_from_xy(x, y), obj.occlusion)
                for obj, (x, y) in zip(objects, positions)
            ]
            perceived, tracks = oracle_apply_pem(cfg.true_model, world, tracks, rng)
            det = [p.position for p in perceived]
            if len(det) > 1:
                det = [det[i] for i in rng.permutation(len(det))]
            frames.append(Frame(world, det, t))
            positions = positions + velocities * dt
        scenes.append(Scene(s, frames))
    return PerceptionDataset(scenes)


def random_model(seed, grid=GRID):
    """Every cell different, detection probabilities including the absorbing 0 and 1."""
    rng = np.random.default_rng(seed)
    n = grid.n_conditions
    a = lambda: np.where(rng.random(n) < 0.2, rng.integers(0, 2, n).astype(float), rng.random(n))
    return PemModel(
        grid=grid,
        metadata=f"random-{seed}",
        a01=a(),
        a11=a(),
        mu_r=rng.uniform(-0.5, 1.5, n),  # negative ratios reach the range clamp
        mu_theta=rng.uniform(-4.0, 4.0, n),  # large offsets exercise the angle wrap
        sigma_r=rng.uniform(0.01, 0.5, n),
        sigma_theta=rng.uniform(0.01, 1.0, n),
        rho=rng.uniform(-0.99, 0.99, n),
    )


# Positions on a half-metre lattice: some objects sit at the origin (r = 0)
# and some on or beyond the 8 m grid edge.
lattice = st.integers(-20, 20).map(lambda k: k * 0.5)


@st.composite
def frame_objects(draw):
    ids = draw(st.lists(st.integers(0, 9), unique=True, max_size=7))  # drawn unsorted
    if ids and draw(st.booleans()) and draw(st.booleans()):
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))  # a repeated id
    return [(i, draw(lattice), draw(lattice), draw(st.integers(0, 3))) for i in ids]


# One stream event: ("frame", t step, objects), where a step <= 0 regresses t, or ("reset",).
events = st.one_of(
    st.tuples(st.just("frame"), st.integers(-1, 3), frame_objects()),
    st.just(("reset",)),
)


def _outcome(session, t, objects):
    """What a frame call gives: the reply, or the error type and message."""
    try:
        return session.frame(t, objects)
    except (TimeRegressionError, DuplicateIdError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.lists(events, max_size=25))
def test_session_frames_match_object_oracle(model_seed, seed, stream):
    model = random_model(model_seed)
    session, oracle = InjectorSession(model, seed), OracleSession(model, seed)
    t = 0
    for event in stream:
        if event[0] == "reset":
            session.reset()
            oracle.reset()
            t = 0
            continue
        _, step, objects = event
        t += step
        before = (dict(session.tracks), session.last_t, session.rng.bit_generator.state)
        got = _outcome(session, t, objects)
        assert repr(got) == repr(_outcome(oracle, t, objects))  # byte for byte, signed zeros included
        if isinstance(got, tuple):  # rejected: no state change, no draws
            assert (session.tracks, session.last_t, session.rng.bit_generator.state) == before
        else:
            assert session.rng.bit_generator.state == oracle.rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.builds(
        dict,
        n_scenes=st.integers(1, 3),
        frames_per_scene=st.integers(1, 8),
        objects_per_scene=st.integers(1, 12),
        motion=st.sampled_from(["static", "constant_velocity"]),
        speed_mps=st.sampled_from([2.0, 9.0]),  # 9 m/s carries objects off the 8 m grid
        placement=st.sampled_from(["stratified", "uniform"]),
        occlusion_levels=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True).map(tuple),
        seed=st.integers(0, 1000),
    ),
)
def test_synthesize_matches_object_oracle(model_seed, options):
    cfg = SyntheticDatasetConfig(true_model=random_model(model_seed), **options)
    got, expected = synthesize_dataset(cfg), oracle_synthesize(cfg)
    for name in PerceptionDataset.__slots__[1:]:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# A frame's rejections and their precedence: a t regression first; then, in object order, a NaN
# coordinate; then a repeated id (the one seen first); then the first invalid level. A level that
# OcclusionLevel accepts is used as its int value, and an infinite position lies outside the grid.
# Each outcome was recorded from the session's earlier two-path frame, after WARM at t = 0.
WARM = [(1, 1.0, 1.0, 3), (2, 2.0, 1.0, 2), (5, -3.0, 2.0, 0)]
NAN_ERROR = ("ValueError", "theta must lie in (-pi, pi], got nan")
REJECTIONS = {
    "bad-level": (1, [(1, 1.0, 1.0, 3), (2, 2.0, 1.0, 4)], ("ValueError", "4 is not a valid OcclusionLevel")),
    "nan-after-bad-level": (1, [(1, 1.0, 1.0, 4), (2, math.nan, 1.0, 3)], NAN_ERROR),
    "nan-with-repeated-id": (1, [(1, 1.0, 1.0, 3), (1, 2.0, math.nan, 3)], NAN_ERROR),
    "repeated-id-after-nan": (1, [(3, math.nan, 1.0, 3), (1, 2.0, 1.0, 3), (1, 2.0, 1.0, 3)], NAN_ERROR),
    "nan-with-infinite-coordinate": (1, [(1, math.nan, math.inf, 3)], NAN_ERROR),
    "repeated-id-with-bad-level": (1, [(1, 1.0, 1.0, 4), (1, 2.0, 1.0, 3)], ("DuplicateIdError", "duplicate object id 1")),
    "bad-level-before-repeated-id": (
        1, [(3, 1.0, 1.0, -1), (2, 2.0, 1.0, 3), (2, 3.0, 1.0, 3)], ("DuplicateIdError", "duplicate object id 2")
    ),
    "two-bad-levels": (1, [(1, 1.0, 1.0, 3.5), (2, 2.0, 1.0, "3")], ("ValueError", "3.5 is not a valid OcclusionLevel")),
    "bad-level-outside-grid": (1, [(1, 100.0, 1.0, 7)], ("ValueError", "7 is not a valid OcclusionLevel")),
    "t-regression-with-nan": (0, [(1, math.nan, 1.0, 3)], ("TimeRegressionError", "frame t 0 not greater than 0")),
    "level-enum": (
        1,
        [(1, 1.0, 1.0, OcclusionLevel.VIS3), (2, 2.0, 1.0, 3)],
        [(1, -0.005707435434585834, 0.00821128374616503), (2, -0.0012136869634896113, 0.009926074952097397)],
    ),
    "level-true": (
        1,
        [(1, 1.0, 1.0, True), (2, 2.0, 1.0, 3)],
        [(1, -0.42253465546482855, -0.9573588367213103), (2, -0.0012136869634896113, 0.009926074952097397)],
    ),
    "level-float": (
        1,
        [(1, 1.0, 1.0, 3.0), (2, 2.0, 1.0, 3)],
        [(1, -0.005707435434585834, 0.00821128374616503), (2, -0.0012136869634896113, 0.009926074952097397)],
    ),
    "infinite-coordinate": (
        1,
        [(1, math.inf, 1.0, 3), (2, 2.0, 1.0, 3), (5, -math.inf, -math.inf, 0)],
        [(2, -0.002817912756313117, 0.009594757302704838)],
    ),
}


@pytest.mark.parametrize("t, objects, expected", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_session_rejections_and_odd_levels(t, objects, expected):
    session = InjectorSession(random_model(7), 0)
    session.frame(0, WARM)
    before = (dict(session.tracks), session.last_t, session.rng.bit_generator.state)
    try:
        got = session.frame(t, objects)
    except ValueError as exc:  # DuplicateIdError and TimeRegressionError included
        got = (type(exc).__name__, str(exc))
        assert (session.tracks, session.last_t, session.rng.bit_generator.state) == before  # no state change, no draws
    assert repr(got) == repr(expected)
