"""Spatial smoothing of per-condition estimates with a conditional autoregressive prior.

The latent field y (one value per condition, on a transformed scale chosen per
field) gets the proper CAR prior with joint precision

    Q = kappa * (D - alpha * B)

where B is the 0/1 adjacency between conditions, D = diag(row sums of B), and
alpha in (0, 1) is the spatial dependence. The implied full conditionals are

    y_c | y_rest ~ Normal(alpha * mean of y over c's neighbors, 1 / (kappa * d_c))

i.e. row-normalized neighbor weights with a per-partition conditional
precision kappa * d_c; kappa carries a Gamma(1, 1) prior and is profiled out
in closed form. Fields with bounded domains are fitted on transformed scales
(log-odds for probabilities, log for deviations, Fisher-z for correlations)
so smoothed values respect the model invariants by construction.

The posterior mode over (y, kappa) is found by damped Newton iterations with
the exact Hessian; the data terms are convex on the fitting scales, so each
inner step is a descent step on a strictly convex objective.

Everything stays sparse. B links each cell only to its edge-sharing
neighbours (at most four) and never links occlusion levels, so the Hessian
kappa * (D - alpha * B) + diag(data curvature) has O(n) nonzeros: four
ring-by-sector lattice blocks that only the shared kappa couples. Each Newton
step solves it with a sparse LU factorisation, the Gaussian Markov random
field approach of Rue & Held (2005), so memory grows with the number of
conditions rather than its square and fine grids such as 5 degree x 1 m
(28,800 conditions) stay learnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.special import expit

from .geometry import GridSpec, N_OCCLUSION_LEVELS

GRAD_TOL = 1e-6
MAX_ITERATIONS = 10_000
GAMMA_SHAPE, GAMMA_RATE = 1.0, 1.0  # the Gamma(shape, rate) prior on the precision kappa

# Degenerate observations (zero-variance data) would demand more precision
# than float64 gradients can express; cap so convergence stays checkable.
_PRECISION_CAP = 1e9


class CarConvergenceError(RuntimeError):
    def __init__(self, field: str, grad_norm: float, iterations: int):
        super().__init__(
            f"CAR fit for {field} did not converge: |grad| = {grad_norm:.3e} after {iterations} iterations"
        )
        self.field = field
        self.grad_norm = grad_norm
        self.iterations = iterations

    def __reduce__(self):  # a fit on a worker process raises this in the parent
        return type(self), (self.field, self.grad_norm, self.iterations)


def sparse_adjacency(grid: GridSpec) -> sp.csr_array:
    """0/1 adjacency over conditions: same occlusion level, edge-sharing grid cells.

    Two cells share an edge when they sit in the same ring and adjacent
    sectors (wrapping across the +/-pi seam), or in the same sector and
    adjacent rings. Occlusion levels are never linked, so each level forms
    its own connected component.
    """
    n = grid.n_conditions
    cells = np.arange(n).reshape(N_OCCLUSION_LEVELS, grid.n_rings, grid.n_sectors)
    src = [cells[:, :-1, :].ravel()]
    dst = [cells[:, 1:, :].ravel()]
    if grid.n_sectors > 1:
        src.append(cells.ravel())
        dst.append(np.roll(cells, -1, axis=2).ravel())
    i = np.concatenate(src + dst)
    j = np.concatenate(dst + src)
    b = sp.csr_array((np.ones(i.size, dtype=np.int8), (i, j)), shape=(n, n))
    b.data[:] = 1  # with two sectors, both sector edges of a cell join the same pair
    return b


def build_adjacency(grid: GridSpec) -> np.ndarray:
    """Dense int8 form of ``sparse_adjacency``, for inspection and tests."""
    return sparse_adjacency(grid).toarray()


@dataclass(slots=True)
class CarSpec:
    """Prior configuration: spatial dependence and adjacency; the precision's prior is Gamma(GAMMA_SHAPE, GAMMA_RATE).

    ``adjacency`` may be given dense or sparse; it is stored as a float CSR array.
    """

    adjacency: sp.csr_array
    alpha: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        b = self.adjacency if sp.issparse(self.adjacency) else np.asarray(self.adjacency)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("adjacency must be square")
        b = sp.csr_array(b, dtype=float)
        if np.any(b.diagonal() != 0):
            raise ValueError("adjacency must have a zero diagonal")
        if (b - b.T).count_nonzero():
            raise ValueError("adjacency must be symmetric")
        self.adjacency = b

    @classmethod
    def for_grid(cls, grid: GridSpec, alpha: float = 0.95) -> "CarSpec":
        return cls(adjacency=sparse_adjacency(grid), alpha=alpha)


FieldKind = Literal["binomial", "mean", "log_scale", "fisher_z"]


@dataclass(slots=True)
class FieldObservation:
    """One field's per-condition data: natural-scale values, weights, empty mask.

    kind selects the likelihood and fitting scale:
      binomial  -- values are success ratios, weights trial counts; log-odds scale
      mean      -- values are sample means, weights sample counts, ``scale`` the
                   per-sample deviation; identity scale
      log_scale -- values are sample deviations (> 0), weights sample counts;
                   log scale with Var(log s_hat) ~ 1/(2n)
      fisher_z  -- values are correlations in (-1, 1), weights sample counts;
                   atanh scale with Var(z_hat) ~ 1/(n-3)
    """

    kind: FieldKind
    values: np.ndarray
    weights: np.ndarray
    empty: np.ndarray
    scale: float = 1.0


@dataclass(slots=True)
class CarFit:
    values: np.ndarray
    grad_norm: float
    iterations: int
    kappa: float
    converged: bool


def _to_fitting_scale(obs: FieldObservation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (observed z, successes, trials) for binomial, or (z, precision, _) otherwise."""
    active = ~obs.empty
    v = np.asarray(obs.values, dtype=float)
    w = np.asarray(obs.weights, dtype=float)
    z = np.zeros_like(v)
    if obs.kind == "binomial":
        succ = np.where(active, v * w, 0.0)
        trials = np.where(active, w, 0.0)
        return z, succ, trials
    if obs.kind == "mean":
        z_obs = np.where(active, v, 0.0)
        prec = np.where(active, w / (obs.scale * obs.scale), 0.0)
    elif obs.kind == "log_scale":
        z_obs = np.where(active, np.log(np.maximum(v, 1e-300)), 0.0)
        prec = np.where(active, 2.0 * w, 0.0)
    elif obs.kind == "fisher_z":
        z_obs = np.where(active, np.arctanh(np.clip(v, -0.999999, 0.999999)), 0.0)
        prec = np.where(active, np.maximum(w - 3.0, 1.0), 0.0)
    else:
        raise ValueError(f"unknown field kind {obs.kind!r}")
    prec = np.minimum(prec, _PRECISION_CAP)
    return z_obs, prec, np.array([])


def _from_fitting_scale(kind: FieldKind, z: np.ndarray) -> np.ndarray:
    if kind == "binomial":
        return expit(z)
    if kind == "mean":
        return z.copy()
    if kind == "log_scale":
        return np.exp(z)
    return np.tanh(z)


def fit_car(obs: FieldObservation, spec: CarSpec, field_name: str = "field") -> CarFit:
    """MAP estimate of one smoothed field.

    Conditions with no data take the prior's conditional mean (alpha times the
    neighbor average); conditions with heavy data stay at their own estimate.
    Raises CarConvergenceError if the gradient norm fails to drop below
    GRAD_TOL within MAX_ITERATIONS.
    """
    b = spec.adjacency
    deg = b.sum(axis=1)
    q0 = (sp.diags_array(deg) - spec.alpha * b).tocsr()  # prior precision up to kappa; PD when alpha < 1
    n_eff = int((deg > 0).sum())
    active = ~np.asarray(obs.empty, dtype=bool)
    # Isolated conditions with no data have an all-zero Hessian row; pin them.
    pin = ((deg == 0) & ~active).astype(float)

    binomial = obs.kind == "binomial"
    if binomial:
        _, succ, trials = _to_fitting_scale(obs)
        z_obs = prec = None
    else:
        z_obs, prec, _ = _to_fitting_scale(obs)
        succ = trials = None

    def data_terms(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        if binomial:
            nll = float(np.sum(trials * np.logaddexp(0.0, y) - succ * y))
            p = expit(y)
            grad = trials * p - succ
            hess = trials * p * (1.0 - p)
        else:
            resid = y - z_obs
            nll = 0.5 * float(np.sum(prec * resid * resid))
            grad = prec * resid
            hess = prec
        return nll, grad, hess

    def quad(y: np.ndarray) -> float:
        return float(y @ (q0 @ y))

    def kappa_star(y: np.ndarray) -> float:
        s = quad(y)
        num = 0.5 * n_eff + GAMMA_SHAPE - 1.0
        return max(num, 1e-12) / (0.5 * s + GAMMA_RATE)

    def objective(y: np.ndarray, kappa: float) -> float:
        return 0.5 * kappa * quad(y) + data_terms(y)[0]

    # Warm start at the observed values (zero where empty).
    if binomial:
        ratio = np.where(trials > 0, succ / np.maximum(trials, 1.0), 0.5)
        y = np.where(active, np.log(np.clip(ratio, 1e-6, 1 - 1e-6) / (1 - np.clip(ratio, 1e-6, 1 - 1e-6))), 0.0)
    else:
        y = np.where(active, z_obs, 0.0)

    iterations = 0
    grad_norm = np.inf
    kappa = kappa_star(y)
    while iterations < MAX_ITERATIONS:
        kappa = kappa_star(y)
        nll, g_data, h_data = data_terms(y)
        grad = kappa * (q0 @ y) + g_data
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRAD_TOL:
            return CarFit(
                values=_from_fitting_scale(obs.kind, y),
                grad_norm=grad_norm,
                iterations=iterations,
                kappa=kappa,
                converged=True,
            )
        hess = (kappa * q0 + sp.diags_array(h_data + pin)).tocsc()
        step = splu(hess).solve(grad)
        f0 = 0.5 * kappa * quad(y) + nll
        slope = float(grad @ step)
        if slope <= 1e-11 * max(1.0, abs(f0)):
            # Predicted decrease is below the float resolution of the
            # objective; the full Newton step is safe on a convex problem.
            scale = 1.0
        else:
            scale = 1.0
            for _ in range(60):
                if objective(y - scale * step, kappa) <= f0 - 1e-4 * scale * slope:
                    break
                scale *= 0.5
        y = y - scale * step
        iterations += 1

    raise CarConvergenceError(field_name, grad_norm, iterations)
