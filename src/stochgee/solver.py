"""Root-finding for estimating equations.

Damped Newton iteration on ``g(beta) = 0`` with a residual-norm line
search, plus the explicit weighted least-squares solution available for
the identity link with fixed proxy correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .estimating import (
    CorrelationTruth,
    EstimatingFunction,
    _checked_inverse,
    _evaluate,
    _stack_by_bucket,
    eval_g,  # unused here; bench/test_bench.py reads solver.eval_g
    freeze_proxy,
)
from .exceptions import (
    InvalidInputError,
    InvalidVarianceError,
    SingularDesignError,
    SingularJacobianError,
)
from .model import Dataset, as_beta, get_link


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver knobs; defaults suit the simulated scenarios."""

    tol_g: float = 1e-10
    tol_x: float = 1e-12
    max_iter: int = 100
    max_halvings: int = 30

    def __post_init__(self):
        if not (self.tol_g > 0 and self.tol_x > 0):
            raise InvalidInputError("tolerances must be positive")
        if self.max_iter < 1 or self.max_halvings < 0:
            raise InvalidInputError("iteration limits must be positive")


@dataclass(frozen=True)
class GeeFit:
    """Solver output: the root estimate and its convergence record."""

    beta_hat: np.ndarray
    converged: bool
    iterations: int
    final_residual_norm: float
    trace: tuple  # (beta, ||g||_inf, step norm) per accepted iterate


def default_init(dataset: Dataset, link) -> np.ndarray:
    """Least squares on link-inverted responses, else the zero vector.

    Rows whose response lies outside the link range are dropped; if fewer
    than p usable rows remain (or the reduced design is rank deficient)
    the zero vector is returned.
    """
    lk = get_link(link)
    xs = dataset.x
    z = lk.inverse(dataset.y)
    ok = np.isfinite(z)
    p = dataset.p
    if ok.sum() < p:
        return np.zeros(p)
    xs_ok, z_ok = xs[ok], z[ok]
    sol, _, rank, _ = np.linalg.lstsq(xs_ok, z_ok, rcond=None)
    if rank < p or not np.all(np.isfinite(sol)):
        return np.zeros(p)
    return sol


def _trial(kind, dataset, beta, link, frozen_corr):
    """g and its Jacobian at a line-search trial point, or None where the
    point leaves the link domain. A g that overflows there fails the
    residual test like any worse point, so the overflow is not warned of."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _evaluate(kind, dataset, beta, link, frozen_corr)
        except InvalidVarianceError:
            return None


def _newton(dataset, kind, link, config, init, frozen_corr):
    beta = init.copy()
    g, jac = _evaluate(kind, dataset, beta, link, frozen_corr)
    gnorm = float(np.max(np.abs(g)))
    last_step = 0.0
    trace = [(beta.copy(), gnorm, 0.0)]
    iterations = 0
    converged = False
    for _ in range(config.max_iter):
        if gnorm < config.tol_g and last_step < config.tol_x:
            converged = True
            break
        d = _newton_direction(jac(), g)
        if gnorm < config.tol_g and float(np.linalg.norm(d)) < config.tol_x:
            converged = True
            break
        t = 1.0
        accepted = None
        for _ in range(config.max_halvings + 1):
            candidate = beta + t * d
            trial = _trial(kind, dataset, candidate, link, frozen_corr)
            if trial is not None:
                g_try, j_try = trial
                gn_try = float(np.max(np.abs(g_try)))
                if gn_try < gnorm:
                    accepted = (candidate, g_try, gn_try, j_try)
                    break
            t *= 0.5
        if accepted is None:
            break  # stalled: no step decreases the residual
        new_beta, g, gnorm, jac = accepted
        last_step = float(np.linalg.norm(new_beta - beta))
        beta = new_beta
        iterations += 1
        trace.append((beta.copy(), gnorm, last_step))
    if not converged and gnorm < config.tol_g and last_step < config.tol_x:
        converged = True
    return GeeFit(
        beta_hat=beta,
        converged=converged,
        iterations=iterations,
        final_residual_norm=gnorm,
        trace=tuple(trace),
    )


def _newton_direction(d_mat, g):
    try:
        return np.linalg.solve(d_mat, g)
    except np.linalg.LinAlgError:
        pass
    # finite-sample information can be singular early; one ridge retry
    p = d_mat.shape[0]
    ridge = 1e-8 * max(abs(np.trace(d_mat)) / p, 1.0)
    try:
        return np.linalg.solve(d_mat + ridge * np.eye(p), g)
    except np.linalg.LinAlgError:
        raise SingularJacobianError(
            "Jacobian is singular even after ridge regularization"
        ) from None


def solve_gee(
    dataset: Dataset,
    kind: EstimatingFunction,
    link,
    config: Optional[SolverConfig] = None,
    init=None,
) -> GeeFit:
    """Solve ``g(beta) = 0`` by damped Newton iteration.

    Data-dependent proxy correlations are frozen during each Newton solve
    and refreshed once: an independence fit seeds the proxy, which is
    refolded at that estimate for the refit.
    """
    config = config or SolverConfig()
    lk = get_link(link)
    if init is None:
        beta0 = default_init(dataset, lk)
    else:
        beta0 = as_beta(init)
    if not (kind.variant == "gee_star" and kind.spec.depends_on_data):
        frozen = None
        if kind.variant != "general" and not kind.reduces_to_independence:
            frozen = freeze_proxy(kind, dataset, beta0, lk)
        return _newton(dataset, kind, lk, config, beta0, frozen)
    # staged fit: independence first, then refit under the refolded proxy
    stage_fit = _newton(
        dataset, EstimatingFunction.independence(), lk, config, beta0, None
    )
    frozen = freeze_proxy(kind, dataset, stage_fit.beta_hat, lk)
    return _newton(dataset, kind, lk, config, stage_fit.beta_hat, frozen)


def linear_closed_form(dataset: Dataset, r_sequence) -> np.ndarray:
    """Explicit weighted least-squares root for the identity link.

    ``r_sequence`` is either one SPD template (its leading principal
    submatrix weights each cluster) or a sequence of per-cluster SPD
    matrices. A normal matrix whose smallest eigenvalue is at most 1e-12
    times its largest raises ``SingularDesignError``; the test is relative,
    so it does not depend on the units of the regressors.
    """
    if isinstance(r_sequence, np.ndarray) and r_sequence.ndim == 2:
        template = CorrelationTruth(r_sequence)
        mats = [template.rbar(b.size) for b in dataset.buckets]
    else:
        mats = _stack_by_bucket(dataset, r_sequence)
    p = dataset.p
    normal = np.zeros((p, p))
    rhs = np.zeros(p)
    inverses = _checked_inverse(zip(mats, [b.positions for b in dataset.buckets]))
    for b, rinv in zip(dataset.buckets, inverses):
        xtr = np.swapaxes(b.x, 1, 2) @ rinv
        normal += (xtr @ b.x).sum(axis=0)
        rhs += (xtr @ b.y[..., None]).sum(axis=(0, 2))
    normal = 0.5 * (normal + normal.T)
    lam_min, lam_max = linalg.sym_eigen_extremes(normal)
    if lam_min <= 1e-12 * lam_max:
        raise SingularDesignError(
            f"normal matrix is singular (lambda_min={lam_min:.3e})",
            lambda_min=lam_min,
        )
    return linalg.spd_solve(normal, rhs)
