"""Working-correlation proxies.

A proxy is kept as an ``m_max x m_max`` template that is measurable with
respect to the history through the previous cluster; the leading
``m_i x m_i`` principal submatrix is what multiplies cluster ``i``. This
resolves the dimension bookkeeping for variable cluster sizes while
keeping the proxy predictable.

The residual-moment proxy of a whole dataset comes from one prefix sum
(``residual_moment_sums``) regularized in one batch
(``residual_moment_templates``); ``residual_moment_stack`` gives every
R_0 .. R_n at once. ``working_corr`` serves the data-independent
templates; for the pseudo-likelihood spec it gives R_0, the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .exceptions import InvalidInputError, NotPositiveDefiniteError
from .linalg import sym_eigenvalues
from .model import Dataset

#: hard lower bound enforced on every emitted residual-moment template
MIN_EIGENVALUE = 1e-6

#: identity pseudo-observations per template dimension blended into the
#: residual-moment average (see residual_moment_templates)
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
        m.setflags(write=False)
        return cls("fixed", m.shape[0], matrix=m)

    @property
    def depends_on_data(self) -> bool:
        return self.kind == "pseudo_likelihood"


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
    ``sums`` and is then shared by every template of them. The counts are
    those of leading blocks (``Dataset.fold_counts``), so the last
    diagonal entry is the least covered and the first the most. Each
    template is the per-entry mean shrunk toward the identity, then
    floored at MIN_EIGENVALUE; no clusters give the identity.
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
    lo, hi = counts[..., -1, -1], counts[..., 0, 0]
    homogeneous = (lo == count) & (hi == count)
    check = ~(homogeneous & _shrinkage_keeps_floor(count, d))
    if check.any():
        t[..., check, :, :] = _floor_eigenvalues(t[..., check, :, :])
    return t


def residual_moment_terms(dataset: Dataset, resid) -> np.ndarray:
    """The zero-padded residual outer products.

    ``resid[b]`` holds the (..., k, m) standardized residuals of bucket
    ``b`` of ``dataset``, with the same leading axes in every bucket.
    Returns shape (..., n+1, m_max, m_max): row 0 is zero and row ``i + 1``
    holds cluster ``i`` (0-based) in its leading m_i x m_i block. Their
    counts are ``dataset.fold_counts``.
    """
    shape = (dataset.n + 1, dataset.m_max, dataset.m_max)
    outer = np.zeros(resid[0].shape[:-2] + shape)
    for b, r in zip(dataset.buckets, resid):
        outer[..., b.positions + 1, : b.size, : b.size] = r[..., None] * r[..., None, :]
    return outer


def residual_moment_sums(dataset: Dataset, resid) -> tuple:
    """Prefix sums of ``residual_moment_terms`` along the clusters:
    ``(sums, counts)``, where row ``i`` is the fold over the first ``i``
    clusters, in cluster order, and ``counts`` are the dataset's
    ``fold_counts``. ``np.cumsum`` adds the rows one after another, so
    row ``i`` equals the sequential ``+=`` bit for bit.
    """
    sums = np.cumsum(residual_moment_terms(dataset, resid), axis=-3)
    return sums, dataset.fold_counts


def residual_moment_stack(dataset: Dataset, resid) -> np.ndarray:
    """The proxy templates R_0 .. R_n of the residual-moment fold.

    Shape (..., n+1, m_max, m_max); ``R_{i-1}`` has seen clusters 1..i-1
    and its leading m_i x m_i block serves cluster ``i``. ``resid`` is
    laid out as for ``residual_moment_terms``; its leading axes (one per
    parameter point, say) carry over to the result.
    """
    sums, counts = residual_moment_sums(dataset, resid)
    return residual_moment_templates(sums, counts, np.arange(counts.shape[0]))


def _template(spec: WorkingCorrelationSpec) -> np.ndarray:
    d = spec.template_dim
    if spec.kind == "exchangeable":
        t = np.full((d, d), spec.rho)
        np.fill_diagonal(t, 1.0)
        return t
    if spec.kind == "ar1":
        idx = np.arange(d)
        return spec.rho ** np.abs(idx[:, None] - idx[None, :])
    if spec.kind == "fixed":
        return spec.matrix
    # identity, and R_0 of the pseudo-likelihood proxy
    return np.eye(d)


def working_corr(spec: WorkingCorrelationSpec, target_size: int) -> np.ndarray:
    """The m_i x m_i working correlation applied to a cluster of that size.

    Always the leading principal submatrix of the spec's fixed template,
    which the spec constructors keep positive definite. A data-dependent
    proxy comes from ``residual_moment_stack``; here a pseudo-likelihood
    spec gives R_0, the identity.
    """
    if target_size < 1 or target_size > spec.template_dim:
        raise InvalidInputError(
            f"target size {target_size} outside 1..{spec.template_dim}"
        )
    return _template(spec)[:target_size, :target_size].copy()
