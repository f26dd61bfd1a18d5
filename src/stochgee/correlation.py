"""Working-correlation proxies and the true conditional correlation.

A proxy is kept as an ``m_max x m_max`` template that is measurable with
respect to the history through the previous cluster; the leading
``m_i x m_i`` principal submatrix is what multiplies cluster ``i``. This
resolves the dimension bookkeeping for variable cluster sizes while
keeping the proxy predictable.

The residual-moment proxies of a whole dataset come from one prefix sum
(``residual_moment_sums``) regularized in one batch
(``residual_moment_templates``). The one-cluster fold
(``PseudoLikelihoodState``, ``pseudo_likelihood_update``) is kept beside
it as the public incremental API: ``working_corr`` and
``corr_beta_derivative`` take its state, ``bench/tracing.py`` wraps
``pseudo_likelihood_update``, and ``BENCHMARK.json`` names per-layer
metrics after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .exceptions import (
    InconsistentMomentsError,
    InvalidInputError,
    InvalidVarianceError,
    NotPositiveDefiniteError,
)
from .linalg import EigenExtremes, sym_eigen_extremes, sym_eigenvalues
from .model import Cluster, Dataset, as_beta, conditional_moments, get_link

#: hard lower bound enforced on every emitted working correlation
MIN_EIGENVALUE = 1e-6

#: identity pseudo-observations per template dimension blended into the
#: residual-moment average (see _template)
SHRINK_PRIOR_FACTOR = 4

_KINDS = ("identity", "exchangeable", "ar1", "pseudo_likelihood", "fixed")


@dataclass(frozen=True)
class WorkingCorrelationSpec:
    """Tagged choice of working-correlation family.

    Use the classmethod constructors; they validate parameter ranges at
    construction time.
    """

    kind: str
    template_dim: int
    rho: Optional[float] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown working-correlation kind {self.kind!r}")
        if self.template_dim < 1:
            raise InvalidInputError("template_dim must be >= 1")

    @classmethod
    def identity(cls, m_max: int) -> "WorkingCorrelationSpec":
        return cls("identity", m_max)

    @classmethod
    def exchangeable(cls, rho: float, m_max: int) -> "WorkingCorrelationSpec":
        lo = -1.0 / (m_max - 1) if m_max > 1 else -1.0
        if not lo < rho < 1.0:
            raise InvalidInputError(
                f"exchangeable rho must lie in ({lo:.4g}, 1), got {rho}"
            )
        return cls("exchangeable", m_max, rho=float(rho))

    @classmethod
    def ar1(cls, rho: float, m_max: int) -> "WorkingCorrelationSpec":
        if not -1.0 < rho < 1.0:
            raise InvalidInputError(f"ar1 rho must lie in (-1, 1), got {rho}")
        return cls("ar1", m_max, rho=float(rho))

    @classmethod
    def pseudo_likelihood(cls, m_max: int) -> "WorkingCorrelationSpec":
        return cls("pseudo_likelihood", m_max)

    @classmethod
    def fixed(cls, matrix) -> "WorkingCorrelationSpec":
        m = linalg.symmetrize_checked(matrix)
        lam_min = float(sym_eigenvalues(m)[0])
        if lam_min <= 1e-10:
            raise NotPositiveDefiniteError(
                f"fixed working correlation is not PD (lambda_min={lam_min:.3e})",
                lambda_min=lam_min,
            )
        m = m.copy()
        m.setflags(write=False)
        return cls("fixed", m.shape[0], matrix=m)

    @property
    def depends_on_beta(self) -> bool:
        return self.kind == "pseudo_likelihood"

    @property
    def depends_on_data(self) -> bool:
        return self.kind == "pseudo_likelihood"


@dataclass(frozen=True)
class PseudoLikelihoodState:
    """Accumulated standardized-residual outer products.

    Clusters smaller than the template contribute to their leading block
    only; per-entry counts keep the averaging unbiased.
    """

    count: int
    running_sum: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        rs = np.asarray(self.running_sum, dtype=float).copy()
        ct = np.asarray(self.counts, dtype=np.int64).copy()
        if rs.shape != ct.shape or rs.ndim != 2 or rs.shape[0] != rs.shape[1]:
            raise InvalidInputError("state arrays must be square and congruent")
        if np.max(np.abs(rs - rs.T)) > 1e-12 * max(1.0, np.abs(rs).max(initial=1.0)):
            raise InvalidInputError("running_sum must be symmetric")
        if ct.max(initial=0) > self.count:
            raise InvalidInputError("per-entry count exceeds cluster count")
        rs.setflags(write=False)
        ct.setflags(write=False)
        object.__setattr__(self, "running_sum", rs)
        object.__setattr__(self, "counts", ct)

    @classmethod
    def empty(cls, m_max: int) -> "PseudoLikelihoodState":
        return cls(0, np.zeros((m_max, m_max)), np.zeros((m_max, m_max), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.running_sum.shape[0]

    def mean_matrix(self) -> np.ndarray:
        """Per-entry average; never-observed entries default to identity."""
        return _entry_means(self.running_sum, self.counts)


def pseudo_likelihood_update(
    state: PseudoLikelihoodState, cluster: Cluster, beta, link
) -> PseudoLikelihoodState:
    """Fold one cluster's standardized residual outer product into the state."""
    moments = conditional_moments(cluster, beta, get_link(link))
    scale = np.sqrt(moments.variance_diag)
    resid = (cluster.response - moments.mean) / scale
    if not np.all(np.isfinite(resid)):
        raise InvalidVarianceError(
            f"cluster {cluster.index}: residual standardization overflowed"
        )
    m = cluster.size
    rs = state.running_sum.copy()
    ct = state.counts.copy()
    rs[:m, :m] += np.outer(resid, resid)
    ct[:m, :m] += 1
    return PseudoLikelihoodState(state.count + 1, rs, ct)


def _entry_means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-entry averages, over any leading batch axes; entries never
    observed default to the identity."""
    seen = counts > 0
    means = sums / np.where(seen, counts, 1)
    np.copyto(means, np.eye(sums.shape[-1]), where=~seen)
    return means


def _shrinkage_keeps_floor(count, dim: int):
    """Whether the identity weight of the shrinkage alone keeps the floor.

    A blend (1 - eps) PSD + eps I has every eigenvalue >= eps, so an
    average of PSD outer products shrunk with eps = 4d / (count + 4d)
    needs no eigenvalue check while eps >= MIN_EIGENVALUE.
    """
    prior = SHRINK_PRIOR_FACTOR * dim
    return prior / (count + prior) >= MIN_EIGENVALUE


def _floor_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Blend in just enough identity to lift the smallest eigenvalue of
    each (d, d) matrix of ``t`` to MIN_EIGENVALUE."""
    lam = np.linalg.eigvalsh(t)[..., 0]
    low = lam < MIN_EIGENVALUE
    # only the matrices below the floor are blended: for a kept matrix with
    # lam >> 1 the blend weight is about -lam * 1e6 and would overflow
    lam = lam[low][:, None, None]
    nu = (MIN_EIGENVALUE - lam) / np.maximum(1.0 - lam, MIN_EIGENVALUE)
    out = np.array(t, dtype=float)
    out[low] = (1.0 - nu) * t[low] + nu * np.eye(t.shape[-1])
    return out


def residual_moment_templates(sums, counts, count) -> np.ndarray:
    """Regularized residual-moment templates, batched over leading axes.

    ``sums`` and ``counts`` are (..., k, d, d) accumulated
    standardized-residual outer products and their per-entry counts after
    ``count[j]`` clusters; ``counts`` may have fewer leading axes than
    ``sums`` and is then shared by every template of them. Each template
    is the per-entry mean shrunk toward the identity, then floored at
    MIN_EIGENVALUE; no clusters give the identity.
    """
    d = sums.shape[-1]
    count = np.asarray(count)
    # Count-based shrinkage toward the identity. The raw residual-moment
    # average is rank-deficient for small counts and its inverse is
    # heavy-tailed (no finite mean near count = dim), so the early
    # clusters would dominate every information-matrix sum they enter;
    # the prior weight of 4*dim identity pseudo-observations tempers the
    # inverse while vanishing at rate O(1/count).
    prior = SHRINK_PRIOR_FACTOR * d
    eps = (prior / (count + prior))[:, None, None]
    # in place: a stacked fold holds one template array at a time
    t = _entry_means(sums, counts)
    t *= 1.0 - eps
    t += eps * np.eye(d)
    # a homogeneous count matrix means the running sum is a true average
    # of PSD outer products, so the shrinkage alone may keep the floor
    lo, hi = counts.min(axis=(-2, -1)), counts.max(axis=(-2, -1))
    homogeneous = (lo == count) & (hi == count)
    check = ~(homogeneous & _shrinkage_keeps_floor(count, d))
    if check.any():
        t[..., check, :, :] = _floor_eigenvalues(t[..., check, :, :])
    return t


def residual_moment_terms(dataset: Dataset, resid) -> tuple:
    """The zero-padded residual outer products and their count masks.

    ``resid[b]`` holds the (..., k, m) standardized residuals of bucket
    ``b`` of ``dataset``, with the same leading axes in every bucket.
    Returns ``outer`` of shape (..., n+1, m_max, m_max) and ``mask`` of
    shape (n+1, m_max, m_max): row 0 is zero and row ``i + 1`` holds
    cluster ``i`` (0-based) in its leading m_i x m_i block.
    """
    shape = (dataset.n + 1, dataset.m_max, dataset.m_max)
    outer = np.zeros(resid[0].shape[:-2] + shape)
    mask = np.zeros(shape, dtype=np.int64)
    for b, r in zip(dataset.buckets, resid):
        outer[..., b.positions + 1, : b.size, : b.size] = r[..., None] * r[..., None, :]
        mask[b.positions + 1, : b.size, : b.size] = 1
    return outer, mask


def residual_moment_sums(dataset: Dataset, resid) -> tuple:
    """Prefix sums of ``residual_moment_terms`` along the clusters:
    ``(sums, counts)``, where row ``i`` is the fold over the first ``i``
    clusters, in cluster order. ``np.cumsum`` adds the rows one after
    another, so row ``i`` equals the sequential ``+=`` bit for bit.
    """
    outer, mask = residual_moment_terms(dataset, resid)
    return np.cumsum(outer, axis=-3), np.cumsum(mask, axis=0)


def residual_moment_stack(dataset: Dataset, resid) -> np.ndarray:
    """The proxy templates R_0 .. R_n of the residual-moment fold.

    Shape (..., n+1, m_max, m_max); ``R_{i-1}`` has seen clusters 1..i-1
    and its leading m_i x m_i block serves cluster ``i``. ``resid`` is
    laid out as for ``residual_moment_terms``; its leading axes (one per
    parameter point, say) carry over to the result.
    """
    sums, counts = residual_moment_sums(dataset, resid)
    return residual_moment_templates(sums, counts, np.arange(counts.shape[0]))


def _template(spec: WorkingCorrelationSpec, state: Optional[PseudoLikelihoodState]):
    d = spec.template_dim
    if spec.kind == "identity":
        return np.eye(d)
    if spec.kind == "exchangeable":
        t = np.full((d, d), spec.rho)
        np.fill_diagonal(t, 1.0)
        return t
    if spec.kind == "ar1":
        idx = np.arange(d)
        return spec.rho ** np.abs(idx[:, None] - idx[None, :])
    if spec.kind == "fixed":
        return spec.matrix.copy()
    # pseudo-likelihood
    if state is None:
        return np.eye(d)
    return residual_moment_templates(
        state.running_sum[None], state.counts[None], np.array([state.count])
    )[0]


def working_corr(
    spec: WorkingCorrelationSpec,
    state: Optional[PseudoLikelihoodState],
    target_size: int,
    beta=None,
) -> np.ndarray:
    """The m_i x m_i working correlation applied to a cluster of that size.

    Always the leading principal submatrix of the template; positive
    definiteness is enforced by the shrinkage/floor regularization.
    """
    if target_size < 1 or target_size > spec.template_dim:
        raise InvalidInputError(
            f"target size {target_size} outside 1..{spec.template_dim}"
        )
    return _template(spec, state)[:target_size, :target_size].copy()


@dataclass(frozen=True)
class TrueCorrelation:
    sigma: np.ndarray
    rbar: np.ndarray
    extremes: EigenExtremes


def true_correlation(sigma, variance_diag) -> TrueCorrelation:
    """Standardize a conditional covariance to its correlation matrix.

    The covariance diagonal must agree with the supplied conditional
    variances (relative 1e-8); the output has an exactly unit diagonal.
    """
    sigma = linalg.symmetrize_checked(np.asarray(sigma, dtype=float))
    var = np.asarray(variance_diag, dtype=float)
    if var.ndim != 1 or var.shape[0] != sigma.shape[0]:
        raise InvalidInputError("variance_diag shape mismatch")
    if np.any(var <= 0):
        raise InvalidVarianceError("variance_diag must be strictly positive")
    d = np.diag(sigma)
    if np.any(np.abs(d - var) > 1e-8 * np.maximum(np.abs(var), 1e-300)):
        raise InconsistentMomentsError(
            "covariance diagonal disagrees with variance_diag beyond rel tol 1e-8"
        )
    inv_sd = 1.0 / np.sqrt(d)
    rbar = sigma * np.outer(inv_sd, inv_sd)
    np.fill_diagonal(rbar, 1.0)
    return TrueCorrelation(sigma=sigma, rbar=rbar, extremes=sym_eigen_extremes(rbar))


def corr_beta_derivative(
    spec: WorkingCorrelationSpec,
    state_fn: Optional[Callable[[np.ndarray], Optional[PseudoLikelihoodState]]],
    size: int,
    beta,
    coord: int,
    step: Optional[float] = None,
) -> np.ndarray:
    """d R*(beta) / d beta_l by central differences, symmetrized.

    Only the pseudo-likelihood proxy actually depends on beta (through the
    refolded state); every template family returns an exact zero matrix.
    ``state_fn`` maps a parameter vector to the folded state at that
    parameter; passing None treats the state as frozen.
    """
    beta = as_beta(beta)
    if not 0 <= coord < beta.shape[0]:
        raise InvalidInputError(f"coordinate {coord} outside 0..{beta.shape[0]-1}")
    if spec.kind != "pseudo_likelihood" or state_fn is None:
        return np.zeros((size, size))
    if step is None:
        step = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(beta[coord]))
    bp = beta.copy()
    bm = beta.copy()
    bp[coord] += step
    bm[coord] -= step
    rp = working_corr(spec, state_fn(bp), size, bp)
    rm = working_corr(spec, state_fn(bm), size, bm)
    d = (rp - rm) / (2.0 * step)
    return 0.5 * (d + d.T)
