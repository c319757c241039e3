import json
import math

import numpy as np
import pytest

from pemkit import (
    ErrorDistribution,
    GridSpec,
    ModelFormatError,
    PemModel,
    TransitionMatrix,
    load_model,
    never_detect_model,
    perfect_model,
    save_model,
    stationary_detection,
)
from pemkit import protocol
from pemkit.inject import InjectorSession
from pemkit.model import MAX_ERROR_PARAM, MAX_GRID_RADIUS_M, model_to_dict
from pemkit.server import Session


def random_model(seed=0, grid=None):
    grid = grid or GridSpec()
    n = grid.n_conditions
    rng = np.random.default_rng(seed)
    return PemModel(
        grid=grid,
        metadata="random",
        a01=rng.uniform(0, 1, n),
        a11=rng.uniform(0, 1, n),
        mu_r=rng.uniform(0.9, 1.1, n),
        mu_theta=rng.uniform(-0.05, 0.05, n),
        sigma_r=rng.uniform(0.01, 0.2, n),
        sigma_theta=rng.uniform(0.01, 0.1, n),
        rho=rng.uniform(-0.9, 0.9, n),
    )


def test_roundtrip_identity(tmp_path):
    model = random_model()
    assert model.n_conditions == 480
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model


def test_transition_matrix_invariants():
    tm = TransitionMatrix(0.25, 0.75)
    assert tm.a00 == 0.75 and tm.a10 == 0.25
    assert tm.stationary() == pytest.approx(0.5)
    with pytest.raises(ValueError, match="a11 out of"):
        TransitionMatrix(0.5, 1.2)


def test_stationary_edge_cases():
    assert stationary_detection(0.0, 1.0) == 0.0  # objects start undetected
    assert stationary_detection(1.0, 1.0) == pytest.approx(1.0)
    assert stationary_detection(0.25, 0.75) == pytest.approx(0.5)


def test_error_distribution_covariance():
    dist = ErrorDistribution(1.0, 0.0, 0.1, 0.05, 0.5)
    cov = dist.covariance()
    assert cov[0, 0] == pytest.approx(0.01)
    assert cov[1, 1] == pytest.approx(0.0025)
    assert cov[0, 1] == pytest.approx(0.5 * 0.1 * 0.05)
    assert np.all(np.linalg.eigvalsh(cov) > 0)
    with pytest.raises(ValueError):
        ErrorDistribution(1.0, 0.0, 0.0, 0.05, 0.0)
    with pytest.raises(ValueError):
        ErrorDistribution(1.0, 0.0, 0.1, 0.05, 1.0)


def test_load_rejects_out_of_range_probability(tmp_path):
    doc = model_to_dict(random_model())
    doc["conditions"][17]["a11"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"a11 out of \[0,1\]"):
        load_model(path)


def test_load_rejects_missing_grid(tmp_path):
    doc = model_to_dict(random_model())
    del doc["grid"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="grid"):
        load_model(path)


def test_load_rejects_non_exhaustive(tmp_path):
    doc = model_to_dict(random_model())
    doc["conditions"] = doc["conditions"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="exhaustive"):
        load_model(path)


def test_load_rejects_duplicate_cell(tmp_path):
    doc = model_to_dict(random_model())
    doc["conditions"][1] = dict(doc["conditions"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(path)


def test_builtin_models_validate():
    for model in (perfect_model(), never_detect_model()):
        model.validate()
    assert perfect_model().a11[0] == 1.0
    assert never_detect_model().a01.max() == 0.0


def test_condition_accessors():
    model = random_model()
    from pemkit import OcclusionLevel, PolarCoord, condition_of

    cond = condition_of(PolarCoord(42.0, 1.0), OcclusionLevel.VIS2, model.grid)
    tm = model.transition(cond)
    em = model.emission(cond)
    assert tm.a01 == model.a01[cond.index]
    assert em.sigma_theta == model.sigma_theta[cond.index]


def bounded_model(mu_sign: float, rho: float) -> PemModel:
    """Always detects, with every error parameter and the grid radius at their largest accepted values."""
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=MAX_GRID_RADIUS_M, max_radius_m=MAX_GRID_RADIUS_M)
    full = lambda v: np.full(grid.n_conditions, v)
    return PemModel(
        grid=grid, metadata="bounds", a01=full(1.0), a11=full(1.0),
        mu_r=full(mu_sign * MAX_ERROR_PARAM), mu_theta=full(mu_sign * MAX_ERROR_PARAM),
        sigma_r=full(MAX_ERROR_PARAM), sigma_theta=full(MAX_ERROR_PARAM), rho=full(rho),
    )


@pytest.mark.parametrize("mu_sign", [1.0, -1.0])
@pytest.mark.parametrize("rho", [0.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(-1.0, 0.0))])
def test_largest_accepted_model_perceives_finite_values(mu_sign, rho):
    model = bounded_model(mu_sign, rho)
    far = 0.99 * MAX_GRID_RADIUS_M
    objects = [(1, 0.0, far), (2, -far, -1.0), (3, 0.3, -0.2), (4, far / 2**0.5, far / 2**0.5)]
    injector = InjectorSession(model, 5)
    session = Session({"m": model})
    session.handle(protocol.parse_request(protocol.encode(protocol.init_msg("m", 5))))
    for t in range(200):
        world = [(oid, x, y, t % 4) for oid, x, y in objects]
        perceived = injector.frame(t, world)
        assert len(perceived) == len(objects)
        assert all(math.isfinite(v) for obj in perceived for v in obj[1:])
        reply = session.handle(protocol.parse_request(protocol.frame_line(t, world)))
        doc = json.loads(reply, parse_constant=lambda name: pytest.fail(f"reply holds {name}"))
        assert [(o["source_id"], o["x"], o["y"]) for o in doc["objects"]] == perceived


@pytest.mark.parametrize("field", ["mu_r", "mu_theta", "sigma_r", "sigma_theta"])
def test_error_parameters_beyond_the_bound_are_refused(tmp_path, field):
    doc = model_to_dict(random_model())
    doc["conditions"][3][field] = 2 * MAX_ERROR_PARAM
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"condition 3: {field} must lie within"):
        load_model(path)
    if field.startswith("mu"):
        doc["conditions"][3][field] = -2 * MAX_ERROR_PARAM
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"condition 3: {field}"):
            load_model(path)


def test_grid_radius_beyond_the_bound_is_refused():
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=2 * MAX_GRID_RADIUS_M, max_radius_m=2 * MAX_GRID_RADIUS_M)
    with pytest.raises(ModelFormatError, match="max_radius_m must be at most"):
        never_detect_model(grid)
