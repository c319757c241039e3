"""The sparse CAR solve against a dense reference, and a grid too fine for a dense one."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from pemkit import CarSpec, FieldObservation, GridSpec, build_adjacency, fit_car, sparse_adjacency
from pemkit.car import GRAD_TOL, MAX_ITERATIONS, _from_fitting_scale, _to_fitting_scale
from pemkit.geometry import N_OCCLUSION_LEVELS

SMALL = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
DEFAULT = GridSpec()


def loop_adjacency(grid: GridSpec) -> np.ndarray:
    """Reference adjacency built cell by cell."""
    n = grid.n_conditions
    nr, ns = grid.n_rings, grid.n_sectors
    b = np.zeros((n, n), dtype=np.int8)

    def idx(occ, ring, sector):
        return occ * (nr * ns) + ring * ns + sector

    for occ in range(N_OCCLUSION_LEVELS):
        for ring in range(nr):
            for sector in range(ns):
                c = idx(occ, ring, sector)
                if ns > 2:
                    b[c, idx(occ, ring, (sector + 1) % ns)] = 1
                    b[c, idx(occ, ring, (sector - 1) % ns)] = 1
                elif ns == 2:
                    b[c, idx(occ, ring, 1 - sector)] = 1
                if ring + 1 < nr:
                    b[c, idx(occ, ring + 1, sector)] = 1
                if ring > 0:
                    b[c, idx(occ, ring - 1, sector)] = 1
    return b


def dense_fit(obs: FieldObservation, b: np.ndarray, alpha: float = 0.95, gamma_shape=1.0, gamma_rate=1.0):
    """Reference MAP fit: damped Newton with a dense Hessian and dense solve.

    Returns (natural-scale values, iterations, kappa).
    """
    b = np.asarray(b, dtype=float)
    deg = b.sum(axis=1)
    q0 = np.diag(deg) - alpha * b
    n_eff = int((deg > 0).sum())
    active = ~np.asarray(obs.empty, dtype=bool)
    binomial = obs.kind == "binomial"
    if binomial:
        _, succ, trials = _to_fitting_scale(obs)
    else:
        z_obs, prec, _ = _to_fitting_scale(obs)

    def data_terms(y):
        if binomial:
            nll = float(np.sum(trials * np.logaddexp(0.0, y) - succ * y))
            p = expit(y)
            return nll, trials * p - succ, trials * p * (1.0 - p)
        resid = y - z_obs
        return 0.5 * float(np.sum(prec * resid * resid)), prec * resid, prec

    def kappa_star(y):
        num = 0.5 * n_eff + gamma_shape - 1.0
        return max(num, 1e-12) / (0.5 * float(y @ q0 @ y) + gamma_rate)

    def objective(y, kappa):
        return 0.5 * kappa * float(y @ q0 @ y) + data_terms(y)[0]

    if binomial:
        ratio = np.where(trials > 0, succ / np.maximum(trials, 1.0), 0.5)
        clipped = np.clip(ratio, 1e-6, 1 - 1e-6)
        y = np.where(active, np.log(clipped / (1 - clipped)), 0.0)
    else:
        y = np.where(active, z_obs, 0.0)

    for iterations in range(MAX_ITERATIONS):
        kappa = kappa_star(y)
        nll, g_data, h_data = data_terms(y)
        grad = kappa * (q0 @ y) + g_data
        if float(np.linalg.norm(grad)) < GRAD_TOL:
            return _from_fitting_scale(obs.kind, y), iterations, kappa
        hess = kappa * q0 + np.diag(h_data)
        lonely = (deg == 0) & ~active
        hess[lonely, lonely] += 1.0
        step = np.linalg.solve(hess, grad)
        f0 = 0.5 * kappa * float(y @ q0 @ y) + nll
        slope = float(grad @ step)
        scale = 1.0
        if slope > 1e-11 * max(1.0, abs(f0)):
            for _ in range(60):
                if objective(y - scale * step, kappa) <= f0 - 1e-4 * scale * slope:
                    break
                scale *= 0.5
        y = y - scale * step
    raise AssertionError("dense reference did not converge")


def random_observation(kind: str, n: int, seed: int, empty_frac: float = 0.3) -> FieldObservation:
    rng = np.random.default_rng(seed)
    empty = rng.random(n) < empty_frac
    counts = rng.integers(2, 60, n).astype(float)
    if kind == "binomial":
        values = rng.uniform(0.0, 1.0, n)
    elif kind == "mean":
        values = rng.normal(1.0, 0.05, n)
    elif kind == "log_scale":
        values = rng.uniform(0.01, 0.3, n)
    else:
        values = rng.uniform(-0.9, 0.9, n)
    values = np.where(empty, 0.0, values)
    weights = np.where(empty, 0.0, counts)
    return FieldObservation(kind, values, weights, empty, scale=0.05)


def with_isolated_cells(grid: GridSpec, cells: list[int]) -> np.ndarray:
    b = build_adjacency(grid).copy()
    b[cells, :] = 0
    b[:, cells] = 0
    return b


KINDS = ("binomial", "mean", "log_scale", "fisher_z")


def assert_matches_dense(obs: FieldObservation, b_dense: np.ndarray, spec: CarSpec):
    fit = fit_car(obs, spec)
    ref_values, ref_iterations, ref_kappa = dense_fit(obs, b_dense, alpha=spec.alpha)
    assert fit.converged
    assert fit.iterations == ref_iterations
    assert np.max(np.abs(fit.values - ref_values)) <= 1e-12
    assert fit.kappa == pytest.approx(ref_kappa, rel=1e-12)


@pytest.mark.parametrize("grid", [SMALL, DEFAULT], ids=["small", "default"])
@pytest.mark.parametrize("kind", KINDS)
def test_sparse_fit_matches_dense_reference(grid, kind):
    n = grid.n_conditions
    spec = CarSpec.for_grid(grid)
    b = build_adjacency(grid)
    for seed, empty_frac in ((1, 0.3), (2, 0.9), (3, 1.0)):
        assert_matches_dense(random_observation(kind, n, seed, empty_frac), b, spec)


@pytest.mark.parametrize("grid", [SMALL, DEFAULT], ids=["small", "default"])
@pytest.mark.parametrize("kind", KINDS)
def test_sparse_fit_matches_dense_reference_with_isolated_cells(grid, kind):
    obs = random_observation(kind, grid.n_conditions, seed=4)
    # Two isolated cells without data (their Hessian rows are pinned) and one with data.
    isolated = [*np.flatnonzero(obs.empty)[:2], np.flatnonzero(~obs.empty)[0]]
    b = with_isolated_cells(grid, isolated)
    assert_matches_dense(obs, b, CarSpec(adjacency=b))


@pytest.mark.parametrize("kind", KINDS)
def test_sparse_fit_matches_dense_reference_without_edges(kind):
    grid = GridSpec(sector_width_deg=360.0, ring_depth_m=50.0, max_radius_m=50.0)  # one cell per level
    obs = random_observation(kind, grid.n_conditions, seed=5, empty_frac=0.5)
    assert_matches_dense(obs, build_adjacency(grid), CarSpec.for_grid(grid))


@pytest.mark.parametrize(
    "grid",
    [
        SMALL,
        DEFAULT,
        GridSpec(sector_width_deg=180.0, ring_depth_m=10.0, max_radius_m=30.0),  # two sectors
        GridSpec(sector_width_deg=360.0, ring_depth_m=10.0, max_radius_m=30.0),  # one sector
        GridSpec(sector_width_deg=120.0, ring_depth_m=50.0, max_radius_m=50.0),  # one ring
    ],
)
def test_adjacency_matches_loop_reference(grid):
    sparse = sparse_adjacency(grid)
    assert sp.issparse(sparse)
    assert np.array_equal(build_adjacency(grid), loop_adjacency(grid))
    assert build_adjacency(grid).dtype == np.int8


def test_car_spec_accepts_dense_and_sparse_adjacency():
    dense = CarSpec(adjacency=build_adjacency(DEFAULT))
    sparse = CarSpec.for_grid(DEFAULT)
    for spec in (dense, sparse):
        assert sp.issparse(spec.adjacency)
        assert spec.adjacency.shape == (DEFAULT.n_conditions, DEFAULT.n_conditions)
    assert (dense.adjacency != sparse.adjacency).nnz == 0
    with pytest.raises(ValueError, match="symmetric"):
        b = build_adjacency(SMALL)
        b[0, 2] = 1 - b[2, 0]
        CarSpec(adjacency=sp.csr_array(b))
    with pytest.raises(ValueError, match="diagonal"):
        CarSpec(adjacency=sp.identity(4, format="csr"))
    with pytest.raises(ValueError, match="square"):
        CarSpec(adjacency=np.zeros((3, 4)))


def test_fine_grid_fit_in_bounded_memory():
    grid = GridSpec(sector_width_deg=10.0, ring_depth_m=2.0, max_radius_m=100.0)
    n = grid.n_conditions
    assert n == 7200  # a dense float64 Hessian alone would be n * n * 8 = 415 MB
    obs = random_observation("binomial", n, seed=6)
    tracemalloc.start()
    try:
        fit = fit_car(obs, CarSpec.for_grid(grid), field_name="a01")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert np.all((fit.values > 0) & (fit.values < 1))
    assert peak < 64 * 2**20
