"""Estimating functions, Jacobians, information matrices, perturbations.

The central object is the cluster-summed estimating function
``g(beta) = sum_i C_i(beta) (y_i - mu_i(beta))`` whose coefficient
matrices are measurable with respect to the history before cluster
``i``. The working-correlation variant standardizes residuals, applies
the inverse proxy correlation, and rescales:
``C_i = X_i' A_i^{1/2} R_{i-1}^{-1} A_i^{-1/2}``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .correlation import (
    WorkingCorrelationSpec,
    residual_moment_stack,
    residual_moment_templates,
    residual_moment_terms,
    working_corr,
)
from .exceptions import (
    InvalidInputError,
    InvalidVarianceError,
    NotPositiveDefiniteError,
    SingularDenominatorError,
    SymmetryViolationError,
    UnsupportedMethodError,
)
from .model import Dataset, as_beta, get_link

_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def central_points(beta: np.ndarray):
    """(h, beta + h e_l, beta - h e_l) for each coordinate l, with the
    central-difference step ``h = cbrt(eps) * max(1, |beta_l|)``."""
    for l in range(beta.shape[0]):
        step = np.zeros_like(beta)
        step[l] = _FD_STEP * max(1.0, abs(beta[l]))
        yield step[l], beta + step, beta - step


# ---------------------------------------------------------------------------
# true-correlation sources


@dataclass(frozen=True)
class CorrelationTruth:
    """Supplier of the true conditional correlation for simulated data.

    Holds an ``m_max x m_max`` unit-diagonal SPD template; cluster ``i``
    of size ``m_i`` uses the leading principal submatrix. ``is_estimate``
    marks templates recovered by sampling rather than known exactly;
    ``is_plugin`` marks the working approximation that substitutes the
    model variances for the unknown covariance.
    """

    template: np.ndarray
    is_estimate: bool = False
    is_plugin: bool = False

    def __post_init__(self):
        t = linalg.symmetrize_checked(self.template)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "template", t)

    @classmethod
    def from_kind(cls, kind: str, rho: float, m_max: int) -> "CorrelationTruth":
        if kind == "independence":
            return cls(np.eye(m_max))
        if kind == "exchangeable":
            lo = -1.0 / (m_max - 1) if m_max > 1 else -1.0
            if not lo < rho < 1.0:
                raise InvalidInputError(
                    f"exchangeable correlation needs rho in ({lo:.4g}, 1), got {rho}"
                )
            t = np.full((m_max, m_max), rho)
            np.fill_diagonal(t, 1.0)
            return cls(t)
        if kind == "ar1":
            if not -1.0 < rho < 1.0:
                raise InvalidInputError(f"ar1 correlation needs |rho| < 1, got {rho}")
            idx = np.arange(m_max)
            return cls(rho ** np.abs(idx[:, None] - idx[None, :]))
        raise InvalidInputError(f"unknown truth-correlation kind {kind!r}")

    @classmethod
    def plugin(cls, m_max: int) -> "CorrelationTruth":
        return cls(np.eye(m_max), is_plugin=True)

    def rbar(self, size: int) -> np.ndarray:
        return self.template[:size, :size].copy()

    def sigma(self, variance_diag: np.ndarray) -> np.ndarray:
        sd = np.sqrt(np.asarray(variance_diag, dtype=float))
        size = sd.shape[0]
        return self.rbar(size) * np.outer(sd, sd)


# ---------------------------------------------------------------------------
# estimating-function variants


@dataclass(frozen=True)
class EstimatingFunction:
    """Tagged choice of estimating-function family.

    ``general`` takes a coefficient callback invoked as
    ``fn(history, x_i, beta) -> (p, m_i)`` where ``history`` is a
    read-only sequence view of the clusters strictly before ``i``; the
    interface only ever hands the callback past clusters, which enforces
    the measurability requirement structurally.
    """

    variant: str
    spec: Optional[WorkingCorrelationSpec] = None
    truth: Optional[CorrelationTruth] = None
    coefficients: Optional[Callable] = None

    def __post_init__(self):
        if self.variant not in ("independence", "gee_star", "quasi_score", "general"):
            raise InvalidInputError(f"unknown estimating variant {self.variant!r}")
        if self.variant == "gee_star" and self.spec is None:
            raise InvalidInputError("gee_star requires a working-correlation spec")
        if self.variant == "quasi_score" and self.truth is None:
            raise InvalidInputError("quasi_score requires a true-correlation source")
        if self.variant == "general" and self.coefficients is None:
            raise InvalidInputError("general requires a coefficient callback")

    @classmethod
    def independence(cls) -> "EstimatingFunction":
        return cls("independence")

    @classmethod
    def gee_star(cls, spec: WorkingCorrelationSpec) -> "EstimatingFunction":
        return cls("gee_star", spec=spec)

    @classmethod
    def quasi_score(cls, truth: CorrelationTruth) -> "EstimatingFunction":
        return cls("quasi_score", truth=truth)

    @classmethod
    def general(cls, coefficients: Callable) -> "EstimatingFunction":
        return cls("general", coefficients=coefficients)

    @property
    def reduces_to_independence(self) -> bool:
        # A^{1/2} I A^{-1/2} is exactly the identity, so the identity
        # working correlation shares the independence code path.
        return self.variant == "independence" or (
            self.variant == "gee_star" and self.spec.kind == "identity"
        )


def resolve_estimator(
    name: str, m_max: int, truth: Optional[CorrelationTruth] = None
) -> EstimatingFunction:
    """Build an estimating function from its command-line name.

    Recognized names: ``independence``, ``identity``, ``exchangeable:RHO``,
    ``ar1:RHO``, ``pseudo`` / ``pseudo_likelihood``, ``truth`` (fixed proxy
    equal to the scenario's true correlation) and ``quasi`` /
    ``quasi_score``; the last two need a true-correlation source.
    """
    base, _, arg = name.partition(":")
    base = base.strip().lower()
    if base == "independence":
        return EstimatingFunction.independence()
    if base == "identity":
        return EstimatingFunction.gee_star(WorkingCorrelationSpec.identity(m_max))
    if base in ("pseudo", "pseudo_likelihood"):
        return EstimatingFunction.gee_star(
            WorkingCorrelationSpec.pseudo_likelihood(m_max)
        )
    if base in ("exchangeable", "ar1"):
        try:
            rho = float(arg)
        except ValueError:
            raise InvalidInputError(
                f"estimator {name!r} needs a numeric parameter, e.g. {base}:0.4"
            ) from None
        ctor = getattr(WorkingCorrelationSpec, base)
        return EstimatingFunction.gee_star(ctor(rho, m_max))
    if base == "truth":
        if truth is None:
            raise InvalidInputError("estimator 'truth' needs a true-correlation source")
        return EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(truth.template))
    if base in ("quasi", "quasi_score"):
        if truth is None:
            raise InvalidInputError("estimator 'quasi' needs a true-correlation source")
        return EstimatingFunction.quasi_score(truth)
    raise InvalidInputError(f"unknown estimator name {name!r}")


# ---------------------------------------------------------------------------
# working-correlation trajectories (the predictable proxy sequence)


def proxy_stack(dataset: Dataset, beta, link) -> np.ndarray:
    """The residual-moment proxy templates R_0 .. R_n at ``beta``.

    Shape (n+1, m_max, m_max): ``R_{i-1}`` sees data through cluster
    ``i-1`` only, and its leading m_i x m_i block serves cluster ``i``.
    An (L, p) stack of points ``beta`` is folded in one batch into an
    (L, n+1, m_max, m_max) array whose row ``l`` equals the stack at
    point ``l`` bit for bit.
    """
    beta = as_beta(beta) if np.ndim(beta) < 2 else np.asarray(beta, dtype=float)
    resid = _pearson_residuals(dataset, beta, get_link(link))
    return residual_moment_stack(dataset, resid)


def corr_trajectory(
    dataset: Dataset,
    beta,
    link,
    spec: WorkingCorrelationSpec,
) -> list:
    """Per-cluster proxy correlations R_{i-1}, truncated to each m_i.

    The proxy for cluster ``i`` only sees data through cluster ``i-1``;
    a data-independent template repeats one matrix object per cluster
    size, a data-dependent one gives views into ``proxy_stack``.
    """
    if not spec.depends_on_data:
        by_size = {
            b.size: working_corr(spec, None, b.size, beta) for b in dataset.buckets
        }
        return [by_size[m] for m in dataset.sizes.tolist()]
    stack = proxy_stack(dataset, beta, link)
    return [r[:m, :m] for r, m in zip(stack, dataset.sizes.tolist())]


# ---------------------------------------------------------------------------
# the batched per-cluster kernel
#
# Once the proxy sequence R_{i-1} is fixed, every coefficient
# C_i = X_i' A_i^{1/2} R_{i-1}^{-1} A_i^{-1/2} can be formed at once: the
# clusters of one size are stacked (Dataset.buckets) and each size bucket
# is one batch of small matrix products.


@dataclass(frozen=True)
class FrozenProxy:
    """Inverse proxy correlations ``R_{i-1}^{-1}``, laid out by size bucket.

    Entry ``b`` of ``inverses`` serves bucket ``b`` of ``dataset``: one
    (m, m) inverse shared by every cluster of that size (a fixed template
    or the true correlation) or a (k, m, m) stack with one per cluster.
    Build it with ``freeze_proxy``; passed as ``frozen_corr`` it spares
    every evaluation the proxy fold and inversion.
    """

    dataset: Dataset
    inverses: tuple


def _invert_proxies(dataset: Dataset, mats) -> tuple:
    """Batched Cholesky positive-definiteness check, then batched inverse.

    ``mats[b]`` is (m, m) or (k, m, m) for bucket ``b``; a proxy that is
    not positive definite is reported for the first cluster, in cluster
    order, that uses one.
    """
    failed = []
    for bucket, m in zip(dataset.buckets, mats):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            for j, mat in enumerate(m.reshape((-1,) + m.shape[-2:])):
                try:
                    np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    failed.append((int(bucket.positions[j]) + 1, mat))
                    break
    if failed:
        cluster_index, mat = min(failed, key=lambda f: f[0])
        lam_min = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
        raise NotPositiveDefiniteError(
            f"working correlation for cluster {cluster_index} is not PD "
            f"(lambda_min={lam_min:.3e})",
            lambda_min=lam_min,
            cluster_index=cluster_index,
        )
    return tuple(np.linalg.inv(m) for m in mats)


def _stack_by_bucket(dataset: Dataset, corr_seq) -> list:
    """Per-cluster proxy matrices regrouped into (k, m, m) bucket stacks,
    after checking that they are finite and symmetric."""
    corr_seq = list(corr_seq)
    if len(corr_seq) != dataset.n:
        raise InvalidInputError(
            f"frozen correlation sequence has {len(corr_seq)} entries for "
            f"{dataset.n} clusters"
        )
    out = []
    for b in dataset.buckets:
        mats = [np.asarray(corr_seq[pos], dtype=float) for pos in b.positions]
        if any(m.shape != (b.size, b.size) for m in mats):
            raise InvalidInputError(
                f"proxy matrices of clusters of size {b.size} must be "
                f"{b.size} x {b.size}"
            )
        stack = np.stack(mats)
        if not np.all(np.isfinite(stack)):
            raise InvalidInputError("proxy matrices contain NaN or infinite entries")
        asym = float(np.max(np.abs(stack - np.swapaxes(stack, 1, 2))))
        if asym > linalg.SYMMETRY_TOL:
            raise SymmetryViolationError(
                f"proxy matrix is not symmetric: max asymmetry {asym:.3e}"
            )
        out.append(stack)
    return out


def _bucket_proxies(dataset: Dataset, stack: np.ndarray) -> list:
    """R_{i-1} of every cluster from a ``proxy_stack``, as (k, m, m)
    stacks per bucket."""
    return [stack[b.positions, : b.size, : b.size] for b in dataset.buckets]


def freeze_proxy(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    frozen_corr=None,
) -> FrozenProxy:
    """The inverse proxies ``eval_g`` applies at ``beta``, computed once.

    ``quasi_score`` takes the true correlation and a data-independent
    template its own matrix, one inverse per cluster size; a
    data-dependent proxy is folded at ``beta`` (or read from a
    ``frozen_corr`` sequence) and inverted in one batched call. A
    ``FrozenProxy`` for the same dataset passes through unchanged.
    """
    if isinstance(frozen_corr, FrozenProxy):
        if frozen_corr.dataset is not dataset:
            raise InvalidInputError("frozen proxy was prepared for another dataset")
        return frozen_corr
    if kind.variant == "quasi_score":
        mats = [kind.truth.rbar(b.size) for b in dataset.buckets]
    elif frozen_corr is not None:
        mats = _stack_by_bucket(dataset, frozen_corr)
    elif kind.spec.depends_on_data:
        mats = _bucket_proxies(dataset, proxy_stack(dataset, beta, link))
    else:
        mats = [working_corr(kind.spec, None, b.size, beta) for b in dataset.buckets]
    return FrozenProxy(dataset, _invert_proxies(dataset, mats))


def _first_offender(dataset: Dataset, bad_rows) -> Optional[int]:
    """1-based index of the first cluster, in cluster order, with a bad row."""
    buckets = zip(dataset.buckets, bad_rows)
    hits = [int(b.positions[bad.any(axis=1)][0]) for b, bad in buckets if bad.any()]
    return min(hits) + 1 if hits else None


def _moments(dataset: Dataset, beta: np.ndarray, lk) -> list:
    """Per-bucket (mean, variance) at ``beta``, each (k, m).

    Raises InvalidVarianceError for the first cluster with a non-finite
    moment or a nonpositive variance, as ``conditional_moments`` would.
    At an (L, p) stack of points each is (L, k, m), every point's linear
    predictor its own ``b.x @ point``; a stack is left for
    ``_pearson_residuals`` to check.
    """
    if dataset.p != beta.shape[-1]:
        raise InvalidInputError(
            f"cluster 1: regressor width {dataset.p} != len(beta) {beta.shape[-1]}"
        )
    out = []
    for b in dataset.buckets:
        eta = b.x @ beta if beta.ndim == 1 else np.stack([b.x @ pt for pt in beta])
        out.append((lk.eval(0, eta), lk.eval(1, eta)))
    if beta.ndim > 1:
        return out
    nonfinite = [~(np.isfinite(mean) & np.isfinite(var)) for mean, var in out]
    bad = [nf | (var <= 0.0) for nf, (_, var) in zip(nonfinite, out)]
    index = _first_offender(dataset, bad)
    if index is not None:
        if _first_offender(dataset, nonfinite) == index:
            raise InvalidVarianceError(
                f"cluster {index}: non-finite moments at beta={beta.tolist()}"
            )
        raise InvalidVarianceError(f"cluster {index}: nonpositive conditional variance")
    return out


def _link_variances(dataset: Dataset, xs, beta, lk, what: str) -> list:
    """Per-bucket variances at regressors ``xs``; InvalidInputError names
    the first cluster whose regressors leave the link domain."""
    out = [lk.eval(1, x @ beta) for x in xs]
    index = _first_offender(dataset, [~np.isfinite(v) | (v <= 0) for v in out])
    if index is not None:
        raise InvalidInputError(
            f"{what} of cluster {index} leave the link domain"
        )
    return out


def _pearson_residuals(dataset: Dataset, beta, lk, xs=None) -> list:
    """Standardized residuals (y_i - mu_i) / sqrt(var_i) per bucket, with
    the moments taken at the per-bucket regressors ``xs`` when given.

    At an (L, p) stack of points ``beta`` (no ``xs``) each bucket's
    residuals are (L, k, m). If a moment or residual is bad at any point,
    the points are standardized one at a time, in order, so that the
    first bad point raises the error it raises alone.
    """
    if xs is None:
        moments = _moments(dataset, beta, lk)
    else:
        variances = _link_variances(dataset, xs, beta, lk, "perturbed regressors")
        moments = [(lk.eval(0, x @ beta), v) for x, v in zip(xs, variances)]
    # only an unchecked stack of points can divide by zero or take the
    # root of a negative variance here
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = [
            (b.y - mean) / np.sqrt(var)
            for b, (mean, var) in zip(dataset.buckets, moments)
        ]
    if beta.ndim > 1:
        # a bad moment leaves a non-finite residual, or else an infinite
        # variance beside a finite mean
        if not all(
            np.isfinite(r).all() and np.isfinite(var).all()
            for r, (_, var) in zip(resid, moments)
        ):
            for point in beta:
                _pearson_residuals(dataset, point, lk)
        return resid
    index = _first_offender(dataset, [~np.isfinite(r) for r in resid])
    if index is not None:
        raise InvalidVarianceError(
            f"cluster {index}: residual standardization overflowed"
        )
    return resid


def _apply(mats, v: np.ndarray) -> np.ndarray:
    """M_i v_i for (m, m) or (k, m, m) matrices and (k, m) vectors."""
    return (mats @ v[..., None])[..., 0]


def _coefficients(x, sd, rinv) -> np.ndarray:
    """C_i = X_i' A_i^{1/2} R^{-1} A_i^{-1/2} per cluster, (k, p, m)."""
    return np.swapaxes(x * sd[..., None], 1, 2) @ (rinv / sd[:, None, :])


class _History(Sequence):
    """Read-only view of the clusters strictly before cluster ``i``.

    ``len`` is ``i - 1`` and no index reaches cluster ``i`` or later, so a
    coefficient callback sees the past only; the view costs O(1).
    """

    __slots__ = ("_clusters", "_stop")

    def __init__(self, clusters: tuple, stop: int):
        self._clusters = clusters
        self._stop = stop

    def __len__(self) -> int:
        return self._stop

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._clusters[j] for j in range(self._stop)[k])
        if not -self._stop <= k < self._stop:
            raise IndexError(
                f"history index {k} outside the {self._stop} past clusters"
            )
        return self._clusters[k % self._stop]


def _bucket_coefficients(kind, dataset, beta, lk, moments, frozen_corr=None) -> list:
    """C_i of every cluster, stacked by bucket as (k, p, m)."""
    if kind.reduces_to_independence:
        return [np.swapaxes(b.x, 1, 2) for b in dataset.buckets]
    if kind.variant != "general":
        proxy = freeze_proxy(kind, dataset, beta, lk, frozen_corr)
        return [
            _coefficients(b.x, np.sqrt(var), rinv)
            for b, (_, var), rinv in zip(dataset.buckets, moments, proxy.inverses)
        ]
    p = beta.shape[0]
    coeffs = []
    for c in dataset.clusters:
        history = _History(dataset.clusters, c.index - 1)
        coeff = np.asarray(
            kind.coefficients(history, c.regressors, beta), dtype=float
        )
        if coeff.shape != (p, c.size):
            raise InvalidInputError(
                f"coefficient callback returned shape {coeff.shape} for "
                f"cluster {c.index}, expected {(p, c.size)}"
            )
        coeffs.append(coeff)
    return [np.stack([coeffs[pos] for pos in b.positions]) for b in dataset.buckets]


def _total_score(dataset: Dataset, coeffs, moments) -> np.ndarray:
    """g = sum_i C_i (y_i - mu_i)."""
    return np.sum(
        [
            _apply(c, b.y - mean).sum(axis=0)
            for b, c, (mean, _) in zip(dataset.buckets, coeffs, moments)
        ],
        axis=0,
    )


def _sigma(truth: CorrelationTruth, size: int, sd: np.ndarray) -> np.ndarray:
    """Sigma_i = A_i^{1/2} Rbar A_i^{1/2} per cluster, (k, m, m)."""
    return truth.rbar(size) * (sd[:, :, None] * sd[:, None, :])


# ---------------------------------------------------------------------------
# estimating-function evaluation


def eval_g(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    frozen_corr=None,
) -> np.ndarray:
    """Evaluate the estimating function as an exact finite sum over clusters.

    ``frozen_corr`` bypasses the residual-moment fold of a
    pseudo-likelihood proxy and uses the given per-cluster proxy
    matrices, or a ``FrozenProxy`` prepared by ``freeze_proxy`` (the
    solver freezes proxies this way).
    """
    beta = as_beta(beta)
    lk = get_link(link)
    if kind.reduces_to_independence:
        mu = lk.eval(0, dataset.x @ beta)
        return dataset.x.T @ (dataset.y - mu)
    moments = _moments(dataset, beta, lk)
    coeffs = _bucket_coefficients(kind, dataset, beta, lk, moments, frozen_corr)
    return _total_score(dataset, coeffs, moments)


def _perturbed_regressors(dataset: Dataset, perturbation: "Perturbation", p: int):
    """(delta stack, per-bucket regressors X_i + delta_i') after checking
    the count and every shape, naming the first bad cluster in cluster
    order."""
    stack, sizes = perturbation.stack, perturbation.sizes
    if sizes.shape[0] != dataset.n:
        raise InvalidInputError(
            f"perturbation has {sizes.shape[0]} matrices for {dataset.n} clusters"
        )
    bad = (sizes != dataset.sizes) | (stack.shape[1] != p)
    if bad.any():
        i = int(np.argmax(bad))
        shape, expected = (stack.shape[1], int(sizes[i])), (p, int(dataset.sizes[i]))
        raise InvalidInputError(
            f"delta for cluster {i + 1} has shape {shape}, expected {expected}"
        )
    return stack, [
        b.x + np.swapaxes(stack[b.positions, :, : b.size], 1, 2)
        for b in dataset.buckets
    ]


def eval_g_perturbed(
    dataset: Dataset,
    beta,
    perturbation: "Perturbation",
    link,
    spec: WorkingCorrelationSpec,
) -> np.ndarray:
    """Working-correlation estimating function with misspecified regressors.

    Regressor rows, the variance factors, and any data-dependent proxy are
    recomputed at ``X_i + delta_i^T``; the residuals keep the unperturbed
    means.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    stack, xps = _perturbed_regressors(dataset, perturbation, beta.shape[0])
    kind = EstimatingFunction.gee_star(spec)
    if not stack.any():
        # exact zero perturbation: reproduce the plain evaluation bitwise
        return eval_g(kind, dataset, beta, lk)
    moments = _moments(dataset, beta, lk)
    if spec.kind == "identity":
        coeffs = [np.swapaxes(xp, 1, 2) for xp in xps]
    else:
        proxy = _perturbed_proxy(kind, dataset, beta, lk, xps)
        var_p = _link_variances(dataset, xps, beta, lk, "perturbed regressors")
        coeffs = [
            _coefficients(xp, np.sqrt(var), rinv)
            for xp, var, rinv in zip(xps, var_p, proxy.inverses)
        ]
    return _total_score(dataset, coeffs, moments)


def _perturbed_pseudo_trajectory(dataset, beta, lk, xps) -> np.ndarray:
    """``proxy_stack`` with residuals standardized at the perturbed
    per-bucket regressors ``xps``."""
    return residual_moment_stack(dataset, _pearson_residuals(dataset, beta, lk, xps))


def _perturbed_proxy(kind, dataset, beta, lk, xps) -> FrozenProxy:
    """The inverse proxies under a perturbation: a data-dependent proxy
    folds residuals standardized at the perturbed regressors ``xps``."""
    if not kind.spec.depends_on_data:
        return freeze_proxy(kind, dataset, beta, lk)
    stack = _perturbed_pseudo_trajectory(dataset, beta, lk, xps)
    mats = _bucket_proxies(dataset, stack)
    return FrozenProxy(dataset, _invert_proxies(dataset, mats))


# ---------------------------------------------------------------------------
# Jacobians


def _analytic_available(kind: EstimatingFunction, link, frozen_corr=None) -> bool:
    lk = get_link(link)
    if lk.kind not in ("identity", "log"):
        return False
    if kind.reduces_to_independence:
        return True
    if kind.variant == "quasi_score":
        return True
    if kind.variant == "gee_star":
        # a frozen proxy no longer moves with beta
        return frozen_corr is not None or not kind.spec.depends_on_beta
    return False


def jacobian(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    frozen_corr=None,
    method: Optional[str] = None,
) -> np.ndarray:
    """Negative derivative of the estimating function, -d g / d beta'.

    Analytic evaluation is implemented for identity/log links with
    beta-independent proxies, a ``frozen_corr`` included; anything else
    uses central differences with per-coordinate steps
    ``cbrt(eps) * max(1, |beta_l|)``.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    analytic = _analytic_available(kind, lk, frozen_corr)
    if method is None:
        method = "analytic" if analytic else "finite_difference"
    if method == "analytic":
        if not analytic:
            raise UnsupportedMethodError(
                "analytic Jacobian is only available for identity/log links "
                "with beta-independent working correlations"
            )
        return _analytic_jacobian(kind, dataset, beta, lk, frozen_corr)
    if method != "finite_difference":
        raise InvalidInputError(f"unknown jacobian method {method!r}")
    cols = []
    for h, bp, bm in central_points(beta):
        gp = eval_g(kind, dataset, bp, lk, frozen_corr)
        gm = eval_g(kind, dataset, bm, lk, frozen_corr)
        cols.append((gp - gm) / (2.0 * h))
    return -np.column_stack(cols)


def _analytic_jacobian(kind, dataset, beta, lk, frozen_corr):
    if kind.reduces_to_independence:
        w = lk.eval(1, dataset.x @ beta)
        return dataset.x.T @ (dataset.x * w[:, None])
    moments = _moments(dataset, beta, lk)
    proxy = freeze_proxy(kind, dataset, beta, lk, frozen_corr)
    p = beta.shape[0]
    total = np.zeros((p, p))
    log_link = lk.kind == "log"
    for b, (mean, var), rinv in zip(dataset.buckets, moments, proxy.inverses):
        sd = np.sqrt(var)
        rows = b.x.reshape(-1, p)
        # B = A^{1/2} R^{-1} A^{-1/2}; main term is X' B A X
        bmat = rinv * (sd[:, :, None] * (1.0 / sd)[:, None, :])
        total += rows.T @ (bmat @ (b.x * var[..., None])).reshape(-1, p)
        if log_link:
            # d b_jk / d beta_l = b_jk (x_jl - x_kl) / 2 for the log link;
            # contracted with the residual this is
            # (x_l o (B r) - B (x_l o r)) / 2, for every column l at once
            resid = b.y - mean
            corr_term = 0.5 * (
                b.x * _apply(bmat, resid)[..., None] - bmat @ (b.x * resid[..., None])
            )
            total -= rows.T @ corr_term.reshape(-1, p)
    return total


# ---------------------------------------------------------------------------
# information / covariance matrices of the section-4 comparison


@dataclass(frozen=True)
class OptimalityMatrices:
    """Ensemble estimates of the four comparison matrices.

    ``h_ind`` is the expected independence information, ``h_star`` the
    expected working information, ``m_bar`` the quasi-score covariance and
    ``m_star`` the working-score covariance. Expectations are ensemble
    means of per-path cluster sums; per-path totals are retained for
    single-replication diagnostics. ``*_increments`` hold the
    ensemble-mean per-cluster summands so partial sums over any cluster
    window are available.
    """

    h_ind: np.ndarray
    h_star: np.ndarray
    m_bar: np.ndarray
    m_star: np.ndarray
    h_ind_increments: np.ndarray
    k_star_increments: np.ndarray
    l_bar_increments: np.ndarray
    m_star_increments: np.ndarray
    per_path: tuple

    @property
    def n(self) -> int:
        return self.k_star_increments.shape[0]

    def partial(self, n0: int, n: int, which: str = "h_star") -> np.ndarray:
        """Sum of increments over clusters n0..n (1-based, inclusive)."""
        arrays = {
            "h_ind": self.h_ind_increments,
            "h_star": self.k_star_increments,
            "m_bar": self.l_bar_increments,
            "m_star": self.m_star_increments,
        }
        try:
            arr = arrays[which]
        except KeyError:
            raise InvalidInputError(f"unknown matrix family {which!r}") from None
        if not 1 <= n0 <= n <= self.n:
            raise InvalidInputError(f"window {n0}..{n} outside 1..{self.n}")
        return arr[n0 - 1 : n].sum(axis=0)

    def totals_at(self, n: int) -> dict:
        return {k: self.partial(1, n, k) for k in ("h_ind", "h_star", "m_bar", "m_star")}

    def det_ratios_at(self, n: int) -> tuple:
        t = self.totals_at(n)
        return (
            det_ratio(t["h_star"], t["m_bar"]),
            det_ratio(t["m_star"], t["m_bar"]),
        )


def path_information_increments(
    dataset: Dataset,
    beta,
    link,
    spec: WorkingCorrelationSpec,
    truth: CorrelationTruth,
    perturbation: Optional["Perturbation"] = None,
) -> dict:
    """Per-cluster summands of the four comparison matrices on one path.

    With a perturbation, the variance factors and any data-dependent proxy
    are evaluated at the misspecified regressors while the true
    correlation is untouched. Returns (n, p, p) arrays keyed by family.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    n, p = dataset.n, beta.shape[0]
    kind = EstimatingFunction.gee_star(spec)
    if perturbation is None:
        xs = [b.x for b in dataset.buckets]
        proxy = freeze_proxy(kind, dataset, beta, lk)
    else:
        _, xs = _perturbed_regressors(dataset, perturbation, p)
        proxy = _perturbed_proxy(kind, dataset, beta, lk, xs)
    rbar_inv = _invert_proxies(dataset, [truth.rbar(b.size) for b in dataset.buckets])
    variances = _link_variances(dataset, xs, beta, lk, "regressors")
    out = {k: np.empty((n, p, p)) for k in ("h_ind", "h_star", "m_bar", "m_star")}
    for b, x, var, rinv, tinv in zip(
        dataset.buckets, xs, variances, proxy.inverses, rbar_inv
    ):
        z = x * np.sqrt(var)[..., None]
        zt = np.swapaxes(z, 1, 2)
        v = rinv @ z
        out["h_ind"][b.positions] = zt @ z
        # h_star and m_bar take the same operations, so a proxy equal to
        # the truth gives bitwise equal matrices
        out["h_star"][b.positions] = zt @ v
        out["m_bar"][b.positions] = zt @ (tinv @ z)
        out["m_star"][b.positions] = np.swapaxes(v, 1, 2) @ (truth.rbar(b.size) @ v)
    return out


def optimality_matrices(
    ensemble: Sequence[Dataset],
    beta,
    link,
    spec: WorkingCorrelationSpec,
    truth: CorrelationTruth,
) -> OptimalityMatrices:
    """Ensemble-mean comparison matrices over dataset replications."""
    ensemble = list(ensemble)
    if not ensemble:
        raise InvalidInputError("ensemble must contain at least one dataset")
    n = ensemble[0].n
    if any(ds.n != n for ds in ensemble):
        raise InvalidInputError("all replications must have the same cluster count")
    beta = as_beta(beta)
    p = beta.shape[0]
    sums = {k: np.zeros((n, p, p)) for k in ("h_ind", "h_star", "m_bar", "m_star")}
    per_path = []
    for ds in ensemble:
        inc = path_information_increments(ds, beta, link, spec, truth)
        per_path.append({k: v.sum(axis=0) for k, v in inc.items()})
        for k in sums:
            sums[k] += inc[k]
    r = float(len(ensemble))
    means = {k: v / r for k, v in sums.items()}

    def _sym(a):
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    means = {k: _sym(v) for k, v in means.items()}
    totals = {k: v.sum(axis=0) for k, v in means.items()}
    return OptimalityMatrices(
        h_ind=totals["h_ind"],
        h_star=totals["h_star"],
        m_bar=totals["m_bar"],
        m_star=totals["m_star"],
        h_ind_increments=means["h_ind"],
        k_star_increments=means["h_star"],
        l_bar_increments=means["m_bar"],
        m_star_increments=means["m_star"],
        per_path=tuple(per_path),
    )


# ---------------------------------------------------------------------------
# conditional variance of the estimating function


@dataclass(frozen=True)
class ConditionalVariance:
    v_n: np.ndarray
    increments: np.ndarray  # (n, p, p), each PSD

    def at(self, n: int) -> np.ndarray:
        return self.increments[:n].sum(axis=0)


def score_increments(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    truth: CorrelationTruth,
) -> tuple:
    """Per-cluster increments of the estimating function and of its
    predictable covariation.

    Returns ``(q, v)``: ``q[i] = C_i (y_i - mu_i)`` of shape (n, p) and
    ``v[i] = C_i Sigma_i C_i'``, symmetrized, of shape (n, p, p), with the
    true conditional covariance ``Sigma_i`` from ``truth`` (or its plug-in
    approximation). Cumulative sums give ``g`` and ``V`` along ``n``.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    n, p = dataset.n, beta.shape[0]
    moments = _moments(dataset, beta, lk)
    coeffs = _bucket_coefficients(kind, dataset, beta, lk, moments)
    q = np.empty((n, p))
    v = np.empty((n, p, p))
    for b, coeff, (mean, var) in zip(dataset.buckets, coeffs, moments):
        inc = coeff @ _sigma(truth, b.size, np.sqrt(var)) @ np.swapaxes(coeff, 1, 2)
        v[b.positions] = 0.5 * (inc + np.swapaxes(inc, 1, 2))
        q[b.positions] = _apply(coeff, b.y - mean)
    return q, v


def conditional_variance(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    truth: CorrelationTruth,
) -> ConditionalVariance:
    """Cumulative predictable covariation of the estimating function.

    Each increment is ``C_i Sigma_i C_i'`` with the true conditional
    covariance from ``truth`` (or its plug-in approximation).
    """
    _, increments = score_increments(kind, dataset, beta, link, truth)
    return ConditionalVariance(v_n=increments.sum(axis=0), increments=increments)


# ---------------------------------------------------------------------------
# determinant ratios


def det_ratio(numerator: np.ndarray, denominator: np.ndarray) -> float:
    """det(numerator) / det(denominator) via LU-based determinants."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.shape != den.shape or num.ndim != 2 or num.shape[0] != num.shape[1]:
        raise InvalidInputError("det_ratio needs two square matrices of equal shape")
    dd = float(np.linalg.det(den))
    if abs(dd) <= 1e-300:
        raise SingularDenominatorError(
            f"denominator determinant {dd:.3e} is numerically singular"
        )
    return float(np.linalg.det(num)) / dd


# ---------------------------------------------------------------------------
# regressor perturbations


@dataclass(frozen=True, init=False, eq=False)
class Perturbation:
    """Per-cluster regressor misspecifications ``delta_i`` (p x m_i).

    Stored as one read-only (n, p, max m_i) ``stack``, each delta
    zero-padded on the right, with the column counts ``sizes``; the
    ``deltas`` are read-only views into the stack.
    """

    stack: np.ndarray
    sizes: np.ndarray
    bound: float

    def __init__(self, deltas, bound: float):
        deltas = [np.asarray(d, dtype=float) for d in deltas]
        if bound <= 0:
            raise InvalidInputError("perturbation bound must be positive")
        bad = next((i for i, d in enumerate(deltas, 1) if d.ndim != 2), None)
        if bad is not None:
            raise InvalidInputError(f"delta {bad} must be a matrix")
        p = deltas[0].shape[0] if deltas else 0
        bad = next((i for i, d in enumerate(deltas, 1) if d.shape[0] != p), None)
        if bad is not None:
            rows = deltas[bad - 1].shape[0]
            raise InvalidInputError(f"delta {bad} has {rows} rows, delta 1 has {p}")
        sizes = np.array([d.shape[1] for d in deltas], dtype=np.int64)
        stack = np.zeros((len(deltas), p, sizes.max(initial=0)))
        for padded, d in zip(stack, deltas):
            padded[:, : d.shape[1]] = d
        self._store(stack, sizes, bound)

    @classmethod
    def _of_stack(cls, stack, sizes, bound: float) -> "Perturbation":
        """The perturbation of a zero-padded (n, p, max m_i) stack and its
        column counts, checked against the bound; freezes both in place."""
        self = object.__new__(cls)
        self._store(stack, sizes, bound)
        return self

    def _store(self, stack, sizes, bound) -> None:
        over = np.flatnonzero(linalg.spectral_norm(stack) > bound * (1.0 + 1e-9))
        if over.size:
            raise InvalidInputError(
                f"delta {over[0] + 1} exceeds the declared spectral-norm bound"
            )
        stack.setflags(write=False)
        sizes.setflags(write=False)
        self.__dict__.update(stack=stack, sizes=sizes, bound=bound)

    @functools.cached_property
    def deltas(self) -> tuple:
        """delta_i as read-only (p, m_i) views into the stack."""
        return tuple(d[:, :m] for d, m in zip(self.stack, self.sizes.tolist()))

    @classmethod
    def zero(cls, dataset: Dataset) -> "Perturbation":
        shape = (dataset.n, dataset.p, dataset.buckets[-1].size)
        return cls._of_stack(np.zeros(shape), dataset.sizes, bound=1.0)


def _regressor_gaps(x, y0, delta, beta, lk) -> np.ndarray:
    """||(X_i + delta_i') A_i^{1/2} - y0_i||_2 for a (k, p, m) stack of
    deltas, with A_i taken at the perturbed regressors; inf where a
    perturbed variance is not positive and finite."""
    xp = x + np.swapaxes(delta, 1, 2)
    var = lk.eval(1, xp @ beta)
    ok = np.all((var > 0) & np.isfinite(var), axis=1)
    gaps = np.full(delta.shape[0], np.inf)
    gaps[ok] = linalg.spectral_norm(xp[ok] * np.sqrt(var[ok])[..., None] - y0[ok])
    return gaps


def _template_inverse(templates: np.ndarray, positions) -> np.ndarray:
    """Inverses of a (k, m, m) stack of perturbed proxy templates of the
    clusters at 0-based ``positions``; a numerically singular template
    raises NotPositiveDefiniteError naming the first such cluster."""
    try:
        return np.linalg.inv(templates)
    except np.linalg.LinAlgError as exc:
        for pos, r in zip(positions, templates):
            try:
                np.linalg.inv(r)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(
                    f"perturbed proxy template of cluster {pos + 1} is "
                    "numerically singular",
                    lambda_min=float(np.linalg.eigvalsh(r)[0]),
                    cluster_index=int(pos) + 1,
                ) from exc
        raise


def a2_schedule(
    dataset: Dataset,
    beta,
    link,
    spec: WorkingCorrelationSpec,
    seed: int,
    max_halvings: int = 40,
) -> tuple:
    """Construct the geometric perturbation schedule with norms <= 2^{-i}.

    Each delta is drawn with uniform(-1, 1) entries, rescaled to spectral
    norm 2^{-i}, then halved until both induced-difference inequalities
    (on the transformed regressor factor and on the inverse proxy) hold.
    For data-dependent proxies the inverse-proxy difference at step ``i``
    is fixed by the earlier deltas, so halving the current delta cannot
    always repair it; residual violations are reported, not raised. Nearly
    every cluster is reported (995 of 1000 on the 1000-cluster optimality
    scenario): that gap decays like 1/i, not 2^-i, so ``violations ~ n``.

    With a data-dependent proxy, each cluster chooses between its halved
    delta and that delta collapsed by the halvings left, and the chosen
    one enters the proxies of the clusters after it. That choice is made
    in cluster order up to ``K``, one past the last cluster whose two
    candidates give bitwise different standardized residuals; from ``K``
    on, ``x + delta`` rounds alike for both, so the proxies of the rest
    are one prefix sum and their choices one batch.

    Returns (Perturbation, report) where the report carries per-cluster
    halving counts, any remaining inequality violations and, as
    ``ordered_prefix``, the ``K`` of the pass in cluster order (0 for a
    data-independent proxy).
    """
    beta = as_beta(beta)
    lk = get_link(link)
    n, p, d = dataset.n, beta.shape[0], dataset.m_max
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**128 - 1)))
    # one stream in cluster order: cluster i takes the next p * m_i values
    draws = rng.uniform(-1.0, 1.0, size=p * dataset.x.shape[0])
    targets = np.ldexp(1.0, -np.arange(1, n + 1))
    xs = [b.x for b in dataset.buckets]
    variances = _link_variances(dataset, xs, beta, lk, "regressors")
    # per cluster, zero-padded to the largest size: the halved delta (0) and
    # that delta collapsed by the halvings left (1), their gaps; per bucket,
    # their regressors
    deltas = np.zeros((2, n, p, dataset.buckets[-1].size))
    gaps = np.empty((2, n))
    used = np.empty(n, dtype=np.int64)
    moved = []
    for b, var in zip(dataset.buckets, variances):
        target = targets[b.positions]
        start = p * dataset.offsets[b.positions]
        draw = draws[start[:, None] + np.arange(p * b.size)].reshape(-1, p, b.size)
        nrm = linalg.spectral_norm(draw)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = draw * (target * (1.0 - 1e-12) / nrm)[:, None, None]
        delta[(target == 0.0) | (nrm == 0.0)] = 0.0
        y0 = b.x * np.sqrt(var)[..., None]
        gap = _regressor_gaps(b.x, y0, delta, beta, lk)
        halvings = np.zeros(target.shape[0], dtype=np.int64)
        for _ in range(max_halvings):
            active = gap > target
            if not active.any():
                break
            delta[active] = 0.5 * delta[active]
            halvings[active] += 1
            gap[active] = _regressor_gaps(
                b.x[active], y0[active], delta[active], beta, lk
            )
        # the transform inequality is monotone in the scale, so the
        # exhausted halving loop collapses deterministically
        shrunk = delta * np.ldexp(1.0, halvings - max_halvings)[:, None, None]
        deltas[:, b.positions, :, : b.size] = delta, shrunk
        moved.append([b.x + np.swapaxes(dl, 1, 2) for dl in (delta, shrunk)])
        gaps[:, b.positions] = gap, _regressor_gaps(b.x, y0, shrunk, beta, lk)
        used[b.positions] = halvings
    collapsed = np.zeros(n, dtype=np.int64)
    gap_r = np.zeros(n)
    ordered = 0
    if spec.depends_on_data:
        kind = EstimatingFunction.gee_star(spec)
        rinv = dataset.in_cluster_order(freeze_proxy(kind, dataset, beta, lk).inverses)
        parts = [_pearson_residuals(dataset, beta, lk, xp) for xp in zip(*moved)]
        resid = [dataset.in_cluster_order(r) for r in parts]
        # the perturbed fold: the inverse-proxy gap of cluster i is fixed by
        # the deltas chosen before it, so this pass runs in cluster order,
        # but only up to one past the last cluster whose two candidates'
        # residuals differ bitwise; beyond it both fold the same residual
        differ = (resid[0].view(np.int64) != resid[1].view(np.int64)).any(axis=1)
        ordered = int(np.flatnonzero(differ)[-1]) + 1 if differ.any() else 0
        sums = np.zeros((1, d, d))
        counts = np.zeros((1, d, d), dtype=np.int64)
        for pos, m in enumerate(dataset.sizes[:ordered]):
            r_p = residual_moment_templates(sums, counts, np.array([pos]))[0]
            rinv_gap = _template_inverse(r_p[None, :m, :m], [pos])[0] - rinv[pos, :m, :m]
            gap_r[pos] = linalg.spectral_norm(rinv_gap)
            if gaps[0, pos] <= targets[pos] < gap_r[pos] and used[pos] < max_halvings:
                collapsed[pos] = 1
            r = resid[collapsed[pos]][pos, :m]
            sums[0, :m, :m] += np.outer(r, r)
            counts[0, :m, :m] += 1
        # the rest in one batch: a prefix sum from the state at `ordered`
        outer, mask = residual_moment_terms(dataset, parts[0])
        outer[ordered], mask[ordered] = sums[0], counts[0]
        tail = residual_moment_templates(
            np.cumsum(outer[ordered:n], axis=0),
            np.cumsum(mask[ordered:n], axis=0),
            np.arange(ordered, n),
        )
        singular = []
        for b in dataset.buckets:
            pos = b.positions[np.searchsorted(b.positions, ordered) :]
            try:
                inv = _template_inverse(tail[pos - ordered, : b.size, : b.size], pos)
            except NotPositiveDefiniteError as exc:
                singular.append(exc)
                continue
            gap_r[pos] = linalg.spectral_norm(inv - rinv[pos, : b.size, : b.size])
        if singular:
            raise min(singular, key=lambda exc: exc.cluster_index)
        rest = slice(ordered, n)
        collapsed[rest] = (
            (gaps[0, rest] <= targets[rest])
            & (targets[rest] < gap_r[rest])
            & (used[rest] < max_halvings)
        )
    used[collapsed == 1] = max_halvings
    checks = np.column_stack((gaps[collapsed, np.arange(n)], gap_r, targets)).tolist()
    report = {
        "halvings": used.tolist(),
        "violations": [
            {"cluster": i + 1, "gap_y": gy, "gap_r": gr, "target": t}
            for i, (gy, gr, t) in enumerate(checks)
            if gy > t or gr > t
        ],
        "max_halvings": max_halvings,
        "ordered_prefix": ordered,
    }
    chosen = deltas[collapsed, np.arange(n)]
    return Perturbation._of_stack(chosen, dataset.sizes, bound=0.5), report


# ---------------------------------------------------------------------------
# integrability certification (finite-sample surrogate)


def integrability_summary(
    kind: EstimatingFunction,
    ensemble: Sequence[Dataset],
    beta,
    link,
    truth: Optional[CorrelationTruth] = None,
) -> dict:
    """Empirical means certifying the square-integrability requirements.

    Returns the ensemble means of |c^{jk}|, |dc^{jk}/dbeta_l * resid_j|
    and |c^{jk} c^{rl} sigma^{kr}|; divergence of these means across
    growing ensembles flags an inadmissible coefficient choice.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise InvalidInputError("ensemble must contain at least one dataset")
    beta = as_beta(beta)
    lk = get_link(link)
    if truth is None:
        truth = CorrelationTruth.plugin(ensemble[0].m_max)

    def coeffs(ds, b):
        return _bucket_coefficients(kind, ds, b, lk, _moments(ds, b, lk))

    abs_c, abs_dc_resid, abs_ccv = [], [], []
    for ds in ensemble:
        base = coeffs(ds, beta)
        grads = [
            [(a - b) / (2.0 * h) for a, b in zip(coeffs(ds, bp), coeffs(ds, bm))]
            for h, bp, bm in central_points(beta)
        ]
        moments = _moments(ds, beta, lk)
        for j, (bk, (mean, var)) in enumerate(zip(ds.buckets, moments)):
            resid = bk.y - mean
            sigma = _sigma(truth, bk.size, np.sqrt(var))
            ci = base[j]
            abs_c.append(np.abs(ci).mean(axis=(1, 2)))
            for grad in grads:
                abs_dc_resid.append(
                    np.abs(grad[j] * resid[:, None, :]).mean(axis=(1, 2))
                )
            # |c^{jk} c^{lr} sigma^{kr}| averaged over all index combinations
            cross = np.einsum("ijk,ilr,ikr->ijlkr", ci, ci, sigma)
            abs_ccv.append(np.abs(cross).mean(axis=(1, 2, 3, 4)))
    return {
        "mean_abs_coefficient": float(np.mean(np.concatenate(abs_c))),
        "mean_abs_gradient_residual": float(np.mean(np.concatenate(abs_dc_resid))),
        "mean_abs_cross_moment": float(np.mean(np.concatenate(abs_ccv))),
    }
