import math

import numpy as np
import pytest

from pemkit import (
    DuplicateIdError,
    ErrorDistribution,
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PemModel,
    PolarCoord,
    TransitionMatrix,
    apply_pem,
    perfect_model,
    session_rng,
)
from pemkit.inject import perceive
from pemkit.model import IDENTITY_EMISSION

GRID = GridSpec()


def uniform_model(a01, a11, emission=IDENTITY_EMISSION):
    return PemModel.uniform(GRID, TransitionMatrix(a01, a11), emission)


def at_20m(*ids, occ=OcclusionLevel.VIS3):
    """A plain world of objects 20 m straight ahead, all in one condition."""
    return [(i, 20.0, 0.0, occ) for i in ids]


def test_step_detection_absorbing_states():
    rng = session_rng(1)
    always = uniform_model(0.0, 1.0)
    never = uniform_model(0.0, 0.0)
    tracks = {0: 1}
    for _ in range(100):
        perceived, tracks = perceive(always, at_20m(0), tracks, rng)
        assert tracks == {0: 1} and len(perceived) == 1
    tracks = {}
    for _ in range(100):
        perceived, tracks = perceive(never, at_20m(0), tracks, rng)
        assert tracks == {0: 0} and perceived == []


def test_step_detection_frequency_from_undetected():
    # From v=0 each step detects with probability a01 = 0.3.
    n = 100_000
    _, tracks = perceive(uniform_model(0.3, 0.9), at_20m(*range(n)), {}, session_rng(7))
    assert sum(tracks.values()) / n == pytest.approx(0.3, abs=0.01)


def test_step_detection_stationary_frequency():
    # Long-run frequency of the two-state chain: a01 / (1 + a01 - a11).
    model = uniform_model(0.2, 0.7)
    rng = session_rng(3)
    tracks = {}
    hits = 0
    n = 100_000
    for _ in range(n):
        _, tracks = perceive(model, at_20m(0), tracks, rng)
        hits += tracks[0]
    assert hits / n == pytest.approx(0.2 / (1 + 0.2 - 0.7), abs=0.02)


def error_draws(emission, n, seed):
    """(eps_r, eps_theta) of n detected objects at r = 20 m, theta = 0."""
    perceived, _ = perceive(uniform_model(1.0, 1.0, emission), at_20m(*range(n)), {}, session_rng(seed))
    assert len(perceived) == n
    return np.array([(r / 20.0, theta) for _, r, theta in perceived])


def test_sample_error_degenerate_identity():
    (eps_r, eps_theta), = error_draws(IDENTITY_EMISSION, 1, 5)
    assert eps_r == pytest.approx(1.0, abs=1e-9)
    assert eps_theta == pytest.approx(0.0, abs=1e-9)


def test_sample_error_means():
    draws = error_draws(ErrorDistribution(1.1, 0.05, 0.1, 0.02, 0.0), 100_000, 11)
    assert draws[:, 0].mean() == pytest.approx(1.1, abs=0.005)
    assert draws[:, 1].mean() == pytest.approx(0.05, abs=0.005)


def test_sample_error_correlation():
    draws = error_draws(ErrorDistribution(1.0, 0.0, 0.1, 0.05, 0.8), 100_000, 13)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert corr == pytest.approx(0.8, abs=0.02)
    assert draws[:, 0].std(ddof=1) == pytest.approx(0.1, rel=0.02)
    assert draws[:, 1].std(ddof=1) == pytest.approx(0.05, rel=0.02)


def world_of(*positions, occ=OcclusionLevel.VIS3):
    return [GroundTruthObject(i, p, occ) for i, p in enumerate(positions)]


def test_apply_empty_world():
    perceived, tracks = apply_pem(perfect_model(GRID), [], {}, session_rng(0))
    assert perceived == [] and tracks == {}


def test_apply_perfect_model_is_identity():
    world = world_of(PolarCoord(10.0, 0.5), PolarCoord(80.0, -2.0), PolarCoord(0.5, 3.0))
    perceived, tracks = apply_pem(perfect_model(GRID), world, {}, session_rng(2))
    assert len(perceived) == len(world)
    for obj, p in zip(world, perceived):
        assert p.source_id == obj.id
        assert p.position.r == pytest.approx(obj.position.r, abs=1e-9)
        assert p.position.theta == pytest.approx(obj.position.theta, abs=1e-9)
    assert tracks == {0: 1, 1: 1, 2: 1}


def test_apply_long_run_detection_frequency():
    model = uniform_model(0.5, 0.5)
    world = world_of(PolarCoord(30.0, 1.0))
    rng = session_rng(21)
    tracks = {}
    detected = 0
    n = 10_000
    for _ in range(n):
        perceived, tracks = apply_pem(model, world, tracks, rng)
        detected += len(perceived)
    assert detected / n == pytest.approx(0.5, abs=0.02)


def test_apply_rejects_duplicate_ids():
    world = [
        GroundTruthObject(5, PolarCoord(10.0, 0.0), OcclusionLevel.VIS3),
        GroundTruthObject(5, PolarCoord(20.0, 0.0), OcclusionLevel.VIS3),
    ]
    with pytest.raises(DuplicateIdError):
        apply_pem(perfect_model(GRID), world, {}, session_rng(0))
    # The message names the repeated id that appears first, not the first repeat.
    world = [GroundTruthObject(i, PolarCoord(10.0 + i, 0.0), OcclusionLevel.VIS3) for i in (1, 2, 2, 1)]
    with pytest.raises(DuplicateIdError, match=r"^duplicate object id 1$"):
        apply_pem(perfect_model(GRID), world, {}, session_rng(0))


def test_apply_out_of_range_never_detected():
    world = world_of(PolarCoord(100.0, 0.0), PolarCoord(250.0, 1.0))
    perceived, tracks = apply_pem(perfect_model(GRID), world, {}, session_rng(0))
    assert perceived == []
    assert tracks == {0: 0, 1: 0}


def test_apply_no_emission_without_detection_and_size_bound():
    model = uniform_model(0.4, 0.6)
    rng = session_rng(17)
    tracks = {}
    world = world_of(*(PolarCoord(5.0 + 7 * i, 0.3 * i - 1.0) for i in range(8)))
    for _ in range(200):
        perceived, tracks = apply_pem(model, world, tracks, rng)
        assert len(perceived) <= len(world)
        detected_ids = {p.source_id for p in perceived}
        for oid, v in tracks.items():
            assert (oid in detected_ids) == (v == 1)


def test_apply_track_eviction():
    model = perfect_model(GRID)
    rng = session_rng(1)
    w1 = world_of(PolarCoord(10.0, 0.0), PolarCoord(20.0, 0.0))
    _, tracks = apply_pem(model, w1, {}, rng)
    assert set(tracks) == {0, 1}
    w2 = [GroundTruthObject(1, PolarCoord(20.0, 0.0), OcclusionLevel.VIS3)]
    _, tracks = apply_pem(model, w2, tracks, rng)
    assert set(tracks) == {1}


def test_apply_deterministic_and_angles_wrapped():
    model = uniform_model(0.7, 0.8, ErrorDistribution(1.0, 0.0, 0.1, 0.8, -0.3))
    world = world_of(PolarCoord(50.0, 3.1), PolarCoord(50.0, -3.1))
    runs = []
    for _ in range(2):
        rng = session_rng(9)
        tracks = {}
        seq = []
        for _ in range(50):
            perceived, tracks = apply_pem(model, world, tracks, rng)
            for p in perceived:
                assert -math.pi < p.position.theta <= math.pi
                assert p.position.r > 0
            seq.append([(p.source_id, p.position.r, p.position.theta) for p in perceived])
        runs.append(seq)
    assert runs[0] == runs[1]


def test_apply_range_clamp():
    # A huge negative radial ratio cannot produce a non-positive range.
    model = uniform_model(1.0, 1.0, ErrorDistribution(-5.0, 0.0, 1e-6, 1e-6, 0.0))
    world = world_of(PolarCoord(10.0, 0.0))
    perceived, _ = apply_pem(model, world, {}, session_rng(0))
    assert perceived[0].position.r == pytest.approx(0.01)


def test_session_rng_rule():
    a = session_rng(42, 0).random(4)
    b = session_rng(42, 0).random(4)
    c = session_rng(42, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
