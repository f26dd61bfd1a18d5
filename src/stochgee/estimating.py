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
from typing import Callable, NamedTuple, Optional

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
)
from .model import Dataset, LinkFunction, as_beta, get_link

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
    marks templates recovered by sampling rather than known exactly.
    """

    template: np.ndarray
    is_estimate: bool = False

    def __post_init__(self):
        t = linalg.symmetrize_checked(self.template)
        t.setflags(write=False)
        object.__setattr__(self, "template", t)

    @classmethod
    def from_kind(cls, kind: str, rho: float, m_max: int) -> "CorrelationTruth":
        if kind == "independence":
            spec = WorkingCorrelationSpec.identity(m_max)
        elif kind in ("exchangeable", "ar1"):
            spec = getattr(WorkingCorrelationSpec, kind)(rho, m_max)
        else:
            raise InvalidInputError(f"unknown truth-correlation kind {kind!r}")
        return cls(working_corr(spec, m_max))

    @classmethod
    def plugin(cls, m_max: int) -> "CorrelationTruth":
        return cls(np.eye(m_max))

    def rbar(self, size: int) -> np.ndarray:
        m = self.template.shape[0]
        if size > m:
            raise InvalidInputError(
                f"a {m} x {m} template cannot serve clusters of size {size}"
            )
        return self.template[:size, :size].copy()


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
    coefficients: Optional[Callable] = None

    def __post_init__(self):
        if self.variant not in ("independence", "gee_star", "general"):
            raise InvalidInputError(f"unknown estimating variant {self.variant!r}")
        if self.variant == "gee_star" and self.spec is None:
            raise InvalidInputError("gee_star requires a working-correlation spec")
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
        """The optimal estimating function: GEE whose proxy is the truth."""
        return cls.gee_star(WorkingCorrelationSpec.fixed(truth.template))

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


def needs_truth(name: str) -> bool:
    """Whether ``resolve_estimator(name, ...)`` needs a true-correlation source."""
    return name.partition(":")[0].strip().lower() in ("truth", "quasi", "quasi_score")


def resolve_estimator(
    name: str, m_max: int, truth: Optional[CorrelationTruth] = None
) -> EstimatingFunction:
    """Build an estimating function from its command-line name.

    Recognized names, case-insensitive: ``independence``, ``identity``,
    ``exchangeable:RHO``, ``ar1:RHO``, ``pseudo`` / ``pseudo_likelihood``
    and the quasi-score ``truth`` / ``quasi`` / ``quasi_score`` (the fixed
    proxy equal to the true correlation ``truth``).
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
    if needs_truth(name):
        if truth is None:
            raise InvalidInputError(f"estimator {name!r} needs the true correlation")
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
        by_size = {b.size: working_corr(spec, b.size) for b in dataset.buckets}
        return [by_size[m] for m in dataset.sizes.tolist()]
    stack = proxy_stack(dataset, beta, link)
    return [r[:m, :m] for r, m in zip(stack, dataset.sizes.tolist())]


# ---------------------------------------------------------------------------
# the whitened factors
#
# With the proxies R_{i-1} fixed, g = sum_i C_i (y_i - mu_i) and its
# analytic Jacobian come from z = A^{1/2} X, e = A^{-1/2} (y - mu) and
# R^{-1} e (the Jacobian adds v = R^{-1} z), each size bucket of clusters
# (Dataset.buckets) one batch of small matrix products. ``_evaluate``, the
# one place that chooses how g and its Jacobian are formed, gives g with a
# Jacobian that reuses them. ``score_increments`` reads the same factors
# as u_i = A_i^{1/2} C_i' (R^{-1} z, or z for independence). Explicit
# coefficients C_i = X_i' A_i^{1/2} R_{i-1}^{-1} A_i^{-1/2} are formed only
# where they are the input or the output: the callback (``general``)
# variant and ``integrability_summary``.


@dataclass(frozen=True)
class FrozenProxy:
    """Inverse proxy correlations ``R_{i-1}^{-1}``, laid out by size bucket.

    Entry ``b`` of ``inverses`` serves bucket ``b`` of ``dataset``: one
    (m, m) inverse shared by every cluster of that size (a fixed template
    or the true correlation) or a (k, m, m) stack with one per cluster.
    Build it with ``freeze_proxy``, or from the inverses that
    ``_a2_decide`` returns for the shifted dataset of its schedule; passed
    as ``frozen_corr`` it spares every evaluation the proxy fold and
    inversion.
    """

    dataset: Dataset
    inverses: tuple


class Lanes:
    """Datasets fitted in lockstep (``members``), their rows stacked in
    lane order as ``dataset``; a lone member is its own. Lane ``l`` holds
    the rows ``rows[l]`` and, in each size bucket it has, one run of
    clusters: ``cuts[l]`` lists ``(bucket, slice)``, the slice of the
    bucket's rows flattened to (k * m, ...). ``owners`` gives per bucket
    each cluster's lane (None for a lone member). Elementwise work runs
    once over the stack and every sum over clusters on one lane's runs,
    so each lane gets its member's bits whatever shares the stack.
    """

    def __init__(self, members):
        self.members = members = tuple(members)
        self.dataset, self.owners = members[0], None
        if len(members) == 1:
            return
        cat = [np.concatenate([getattr(d, a) for d in members]) for a in ("x", "y", "sizes")]
        self.dataset = Dataset._trusted(*cat, members[0].p, members[0].m_max)
        bounds = np.cumsum([0] + [d.x.shape[0] for d in members]).tolist()
        self.rows = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        lane = np.repeat(np.arange(len(members)), [d.sizes.shape[0] for d in members])
        self.owners = [lane[b.positions] for b in self.dataset.buckets]
        self.cuts = [[] for _ in members]
        for j, (b, owner) in enumerate(zip(self.dataset.buckets, self.owners)):
            ends = (np.searchsorted(owner, np.arange(len(members) + 1)) * b.size).tolist()
            for l, (lo, hi) in enumerate(zip(ends, ends[1:])):
                if hi > lo:
                    self.cuts[l].append((j, slice(lo, hi)))

    def freeze(self, proxies) -> "FrozenProxy":
        """The members' data-dependent ``FrozenProxy`` objects as one for
        the stack (of two or more members): per bucket the members'
        (k, m, m) stacks in lane order."""
        parts = [[] for _ in self.dataset.buckets]
        for cut, proxy in zip(self.cuts, proxies):
            for (j, _), inv in zip(cut, proxy.inverses):
                parts[j].append(inv)
        return FrozenProxy(self.dataset, tuple(np.concatenate(p) for p in parts))


def _checked_inverse(parts) -> list:
    """Batched Cholesky positive-definiteness check, then batched inverse.

    Each part is ``(mats, positions)``: an (m, m) matrix shared by the
    clusters at 0-based ``positions``, or a (k, m, m) stack with one per
    cluster. A matrix that Cholesky or the inverse rejects is reported for
    the first cluster, in cluster order, that uses one.
    """
    inverses, failed = [], []
    for mats, positions in parts:
        try:
            np.linalg.cholesky(mats)
            inverses.append(np.linalg.inv(mats))
        except np.linalg.LinAlgError:
            for pos, mat in zip(positions, mats.reshape((-1,) + mats.shape[-2:])):
                try:
                    np.linalg.cholesky(mat)
                    np.linalg.inv(mat)
                except np.linalg.LinAlgError:
                    failed.append((int(pos) + 1, mat))
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
    return inverses


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

    A data-independent template gives one inverse per cluster size; a
    data-dependent proxy is folded at ``beta`` (or read from a
    ``frozen_corr`` sequence) and inverted in one batched call. A
    ``FrozenProxy`` for the same dataset passes through unchanged.
    """
    if isinstance(frozen_corr, FrozenProxy):
        if frozen_corr.dataset is not dataset:
            raise InvalidInputError("frozen proxy was prepared for another dataset")
        return frozen_corr
    if frozen_corr is not None:
        mats = _stack_by_bucket(dataset, frozen_corr)
    elif kind.spec.depends_on_data:
        mats = _bucket_proxies(dataset, proxy_stack(dataset, beta, link))
    else:
        mats = [working_corr(kind.spec, b.size) for b in dataset.buckets]
    return _invert_proxies(dataset, mats)


def _invert_proxies(dataset: Dataset, mats) -> FrozenProxy:
    """The ``FrozenProxy`` of per-bucket proxies ``mats``, each an (m, m)
    template or a (k, m, m) stack, checked and inverted in one batch."""
    positions = [b.positions for b in dataset.buckets]
    return FrozenProxy(dataset, tuple(_checked_inverse(zip(mats, positions))))


def _first_offender(dataset: Dataset, bad_rows) -> Optional[int]:
    """1-based index of the first cluster, in cluster order, with a bad row."""
    buckets = zip(dataset.buckets, bad_rows)
    hits = [int(b.positions[bad.any(axis=1)][0]) for b, bad in buckets if bad.any()]
    return min(hits) + 1 if hits else None


def _check_width(dataset: Dataset, beta: np.ndarray) -> None:
    if dataset.p != beta.shape[-1]:
        raise InvalidInputError(
            f"cluster 1: regressor width {dataset.p} != len(beta) {beta.shape[-1]}"
        )


def _moments(dataset: Dataset, beta: np.ndarray, lk, owners=None) -> list:
    """Per-bucket (mean, variance) at ``beta``, each (k, m).

    Raises InvalidVarianceError for the first cluster, in cluster order,
    with a non-finite moment or a nonpositive variance.
    At an (L, p) stack of points each is (L, k, m), from one batched
    product whose matrices are each ``b.x @ point``; a stack is left for
    ``_pearson_residuals`` to check. With ``owners`` (``Lanes.owners``)
    the rows of ``beta`` are lane points instead: each cluster takes its
    own lane's, and the moments are (k, m) and checked.
    """
    _check_width(dataset, beta)
    out = []
    for j, b in enumerate(dataset.buckets):
        if owners is not None:
            eta = (b.x @ beta[owners[j]][..., None])[..., 0]
        elif beta.ndim == 1:
            eta = b.x @ beta
        else:
            eta = (b.x[None] @ beta[:, None, :, None])[..., 0]
        out.append((lk.eval(0, eta), lk.eval(1, eta)))
    if beta.ndim > 1 and owners is None:
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


def _pearson_residuals(dataset: Dataset, beta, lk) -> list:
    """Standardized residuals (y_i - mu_i) / sqrt(var_i) per bucket.

    At an (L, p) stack of points ``beta`` each bucket's residuals are
    (L, k, m). If a moment or residual is bad at any point, the points
    are standardized one at a time, in order, so that the first bad point
    raises the error it raises alone.
    """
    moments = _moments(dataset, beta, lk)
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


def _whiten(kind, dataset, beta, lk, frozen_corr=None, means=None, lanes=None) -> tuple:
    """g of the gee_star ``kind`` at ``beta`` and its whitened factors.

    The factors hold per size bucket X (k, m, p), the inverse proxies,
    ``z = A^{1/2} X`` (k, m, p), ``e = A^{-1/2} (y - mu)`` and
    ``re = R^{-1} e`` (k, m); ``g`` sums ``z' re`` over the buckets.
    ``means``, one (k, m) array per bucket, replaces the means the
    residuals are taken from (``eval_g_perturbed`` passes the unperturbed
    ones); the variances are always those of ``dataset``. With ``lanes``
    the factors are formed once for the stack and g is the (L, p) stack
    of the lanes' sums, each over the lane's own clusters.
    """
    moments = _moments(dataset, beta, lk, None if lanes is None else lanes.owners)
    proxy = freeze_proxy(kind, dataset, beta, lk, frozen_corr)
    if means is None:
        means = [mean for mean, _ in moments]
    parts = []
    for b, (_, var), mean, rinv in zip(dataset.buckets, moments, means, proxy.inverses):
        sd = np.sqrt(var)
        e = (b.y - mean) / sd
        parts.append((b.x, rinv, b.x * sd[..., None], e, _apply(rinv, e)))
    if lanes is None:
        g = sum(z.reshape(-1, z.shape[-1]).T @ re.ravel() for _, _, z, _, re in parts)
        return g, tuple(parts)
    flat = [(z.reshape(-1, z.shape[-1]), re.ravel()) for _, _, z, _, re in parts]
    g = [sum(flat[j][0][s].T @ flat[j][1][s] for j, s in cut) for cut in lanes.cuts]
    return np.array(g), tuple(parts)


def _whitened_jacobian(parts, lk, lanes=None) -> np.ndarray:
    """-dg/dbeta' from the factors of ``_whiten``, with the proxies held
    fixed (identity and log links); with ``lanes`` the (L, p, p) stack of
    the lanes' Jacobians, each summed over the lane's own clusters."""
    terms = []
    for x, rinv, z, e, re in parts:
        p = x.shape[-1]
        v = (rinv @ z).reshape(-1, p)
        x, z = x.reshape(-1, p), z.reshape(-1, p)
        # main term X' A^{1/2} R^{-1} A^{1/2} X = Z' V
        term = (z, v)
        if lk.kind == "log":
            # d A^{1/2}_j / d beta_l = x_jl A^{1/2}_j / 2 for the log link;
            # contracted with the Pearson residual e this is
            # (Z' (x_l o R^{-1} e) - V' (x_l o e)) / 2, every l at once
            term += (x * re.reshape(-1, 1), x * e.reshape(-1, 1))
        terms.append(term)
    if lanes is None:
        return _jacobian_sum(terms)
    return np.array(
        [_jacobian_sum([[a[s] for a in terms[j]] for j, s in cut]) for cut in lanes.cuts]
    )


def _jacobian_sum(terms):
    total = 0.0
    for z, v, *log in terms:
        total = total + z.T @ v
        if log:
            xre, xe = log
            total -= 0.5 * (z.T @ xre - v.T @ xe)
    return total


def _apply(mats, v: np.ndarray) -> np.ndarray:
    """M_i v_i for (m, m) or (k, m, m) matrices and (k, m) vectors."""
    return (mats @ v[..., None])[..., 0]


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


def _callback_coefficients(kind, dataset, beta) -> list:
    """C_i of the callback (``general``) variant, stacked by bucket as
    (k, p, m)."""
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


def _score_factors(kind, dataset, beta, lk, frozen_corr=None) -> list:
    """Per size bucket ``u = A^{1/2} C'`` (k, m, p) and the Pearson residuals
    ``e = A^{-1/2} (y - mu)`` (k, m), so that ``C (y - mu) = u' e``:
    ``u = R^{-1} z`` from ``_whiten`` for a gee_star kind, ``z`` for
    independence; only the callback variant forms ``C_i``."""
    if kind.variant == "gee_star" and not kind.reduces_to_independence:
        _, parts = _whiten(kind, dataset, beta, lk, frozen_corr)
        return [(rinv @ z, e) for _, rinv, z, e, _ in parts]
    moments = _moments(dataset, beta, lk)
    if kind.variant == "general":
        xs = [np.swapaxes(c, 1, 2) for c in _callback_coefficients(kind, dataset, beta)]
    else:
        xs = [b.x for b in dataset.buckets]
    out = []
    for b, x, (mean, var) in zip(dataset.buckets, xs, moments):
        sd = np.sqrt(var)
        out.append((x * sd[..., None], (b.y - mean) / sd))
    return out


# ---------------------------------------------------------------------------
# estimating-function evaluation


def _analytic(kind, lk, frozen_corr) -> bool:
    """Whether ``_evaluate`` gives the analytic Jacobian: identity and log
    links with a proxy that does not move with beta."""
    return lk.kind in ("identity", "log") and (
        kind.reduces_to_independence
        or kind.variant == "gee_star"
        and (frozen_corr is not None or not kind.spec.depends_on_data)
    )


def _evaluate(
    kind, dataset, beta, lk, frozen_corr=None, *, with_g=True, lanes=None
) -> tuple:
    """g at ``beta`` and a function giving -dg/dbeta' there.

    The one place that chooses how both are formed. The Jacobian is
    analytic for identity and log links with a proxy that does not move
    with beta (fixed, or frozen by ``frozen_corr``): the independence
    Jacobian ``X' diag(mu') X`` reuses ``eta``, and the gee_star one reads
    the whitened factors of this evaluation of g, so it takes no new
    moments, proxy or whitening. Anything else, the callback (``general``)
    variant included, takes central differences of g (``_fd_jacobian``);
    there g is needed only by a caller that reads it, so ``with_g=False``
    returns None for it and evaluates nothing at ``beta``.

    With ``lanes``, a ``Lanes`` whose stack is ``dataset``, ``beta`` holds
    one point per lane and the Jacobian must be analytic: the elementwise
    work runs once over the stack, and g and the Jacobian are (L, p) and
    (L, p, p) stacks whose rows are each lane's sums over its own rows,
    the bits of the lane's evaluation alone. An error is not attributed
    to a lane; the caller redoes the lanes one at a time.
    """
    analytic = _analytic(kind, lk, frozen_corr)
    fd = functools.partial(_fd_jacobian, kind, dataset, beta, lk, frozen_corr)
    if not (analytic or with_g):
        return None, fd
    if kind.reduces_to_independence:
        if lanes is None:
            eta = dataset.x @ beta
        else:
            eta = np.empty(dataset.x.shape[0])
            for rows, point in zip(lanes.rows, beta):
                np.matmul(dataset.x[rows], point, out=eta[rows])
        mean = lk.eval(0, eta)
        if not np.isfinite(mean).all():
            # rows are in cluster order, so the first bad row is in the
            # first bad cluster
            row = np.argmax(~np.isfinite(mean))
            index = int(np.searchsorted(dataset.offsets, row, side="right"))
            raise InvalidVarianceError(
                f"cluster {index}: non-finite moments at beta={beta.tolist()}"
            )
        if lanes is None:
            g = dataset.x.T @ (dataset.y - mean)
            if analytic:
                return g, lambda: dataset.x.T @ (dataset.x * lk.eval(1, eta)[:, None])
        else:
            g = _lane_cross(dataset.x, dataset.y - mean, lanes)
            return g, lambda: _lane_cross(
                dataset.x, dataset.x * lk.eval(1, eta)[:, None], lanes
            )
    elif kind.variant == "gee_star":
        g, parts = _whiten(kind, dataset, beta, lk, frozen_corr, lanes=lanes)
        if analytic:
            return g, lambda: _whitened_jacobian(parts, lk, lanes)
    else:
        moments = _moments(dataset, beta, lk)
        coeffs = _callback_coefficients(kind, dataset, beta)
        parts = zip(dataset.buckets, coeffs, moments)
        g = sum(_apply(c, b.y - mean).sum(axis=0) for b, c, (mean, _) in parts)
    return g, fd


def _lane_cross(a: np.ndarray, b: np.ndarray, lanes) -> np.ndarray:
    """The stack of each lane's a' b over its own rows."""
    return np.array([a[rows].T @ b[rows] for rows in lanes.rows])


def _fd_jacobian(kind, dataset, beta, lk, frozen_corr=None) -> np.ndarray:
    """-dg/dbeta' by central differences with per-coordinate steps
    ``cbrt(eps) * max(1, |beta_l|)``."""
    cols = []
    for h, bp, bm in central_points(beta):
        gp = _evaluate(kind, dataset, bp, lk, frozen_corr)[0]
        gm = _evaluate(kind, dataset, bm, lk, frozen_corr)[0]
        cols.append((gp - gm) / (2.0 * h))
    return -np.column_stack(cols)


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
    _check_width(dataset, beta)
    return _evaluate(kind, dataset, beta, get_link(link), frozen_corr)[0]


def jacobian(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    frozen_corr=None,
) -> np.ndarray:
    """Negative derivative of the estimating function, -d g / d beta'.

    Analytic for identity and log links with a proxy that does not move
    with beta, a ``frozen_corr`` included; central differences otherwise
    (``_evaluate`` decides); g itself is not formed at ``beta``.
    """
    beta, lk = as_beta(beta), get_link(link)
    _check_width(dataset, beta)
    return _evaluate(kind, dataset, beta, lk, frozen_corr, with_g=False)[1]()


def eval_g_perturbed(
    dataset: Dataset,
    beta,
    perturbation: "Perturbation",
    link,
    spec: WorkingCorrelationSpec,
) -> np.ndarray:
    """Working-correlation estimating function with misspecified regressors.

    The coefficients ``C_i`` of the shifted dataset
    ``perturbation.shift(dataset)``, with regressors ``X_i + delta_i'``
    (variance factors and any data-dependent proxy included), multiply
    the residuals of the unperturbed means: the whitened factors of the
    shifted dataset, with ``e`` taken from those means.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    shifted = perturbation.shift(dataset)
    _check_width(dataset, beta)
    kind = EstimatingFunction.gee_star(spec)
    if kind.reduces_to_independence:
        return shifted.x.T @ (dataset.y - lk.eval(0, dataset.x @ beta))
    means = [mean for mean, _ in _moments(dataset, beta, lk)]
    return _whiten(kind, shifted, beta, lk, means=means)[0]


# ---------------------------------------------------------------------------
# information / covariance matrices of the section-4 comparison


#: each comparison matrix as the product a'c of two factors (a, c) of
#: ``information_sums``, which are z, v, w and u in that order
_INFORMATION_PAIRS = {
    "h_ind": (0, 0),
    "h_star": (0, 1),
    "m_bar": (0, 2),
    "m_star": (1, 3),
}


def information_sums(
    dataset: Dataset,
    beta,
    link,
    spec: WorkingCorrelationSpec,
    truth: CorrelationTruth,
    n_grid,
    frozen_corr: Optional[FrozenProxy] = None,
) -> dict:
    """The section-4 comparison matrices summed over the first ``n``
    clusters at each checkpoint ``n`` of the increasing ``n_grid`` (the
    dense grid ``range(1, n + 1)`` gives every partial sum): (len(n_grid),
    p, p) arrays keyed by family, each a product a'c of two per-bucket
    factors (``_INFORMATION_PAIRS``) ``z = A^{1/2} X``, ``v = R^{-1} z``,
    ``w = Rbar^{-1} z`` and ``u = Rbar v``. No per-cluster matrix is
    formed: the clusters of a size bucket between two checkpoints are a
    run of rows, with one (p x rows)(rows x p) product per matrix; the
    buckets' products are added, in bucket order, and the segments
    summed. ``v`` and ``w`` take the same operation, so a proxy equal to
    the truth gives ``h_star`` and ``m_bar`` bitwise equal. A
    ``frozen_corr`` for ``dataset`` spares the proxy's fold and
    inversion. A perturbed path is ``perturbation.shift(dataset)``, whose
    variance factors and any data-dependent proxy move with the
    regressors while the truth does not.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    p = beta.shape[0]
    proxy = freeze_proxy(EstimatingFunction.gee_star(spec), dataset, beta, lk, frozen_corr)
    rbars = [truth.rbar(b.size) for b in dataset.buckets]
    rbar_inv = _checked_inverse(zip(rbars, [b.positions for b in dataset.buckets]))
    moments = _moments(dataset, beta, lk)
    cuts = np.concatenate(([0], n_grid))
    total = dict.fromkeys(_INFORMATION_PAIRS, 0.0)
    buckets = zip(dataset.buckets, moments, proxy.inverses, rbar_inv, rbars)
    for b, (_, var), rinv, tinv, rbar in buckets:
        z = b.x * np.sqrt(var)[..., None]
        v = rinv @ z
        rows = [f.reshape(-1, p) for f in (z, v, tinv @ z, rbar @ v)]
        # the bucket's rows of the clusters between two checkpoints
        at = (b.size * np.searchsorted(b.positions, cuts)).tolist()
        runs = [slice(lo, hi) for lo, hi in zip(at, at[1:])]
        for key, (a, c) in _INFORMATION_PAIRS.items():
            products = [rows[a][r].T @ rows[c][r] for r in runs]
            total[key] = total[key] + np.stack(products)
    return {key: np.cumsum(seg, axis=0) for key, seg in total.items()}


# ---------------------------------------------------------------------------
# conditional variance of the estimating function


def score_increments(
    kind: EstimatingFunction,
    dataset: Dataset,
    beta,
    link,
    truth: CorrelationTruth,
    frozen_corr=None,
) -> tuple:
    """Per-cluster increments of the estimating function and of its
    predictable covariation.

    Returns ``(q, v)``: ``q[i] = C_i (y_i - mu_i) = u_i' e_i`` of shape
    (n, p) and ``v[i] = C_i Sigma_i C_i' = u_i' Rbar u_i``, symmetrized, of
    shape (n, p, p), from ``_score_factors`` and the true correlation
    ``Rbar`` of ``truth`` (or its plug-in approximation). Cumulative sums
    give ``g`` and ``V`` along ``n``. ``frozen_corr`` is read as by ``eval_g``.
    """
    beta = as_beta(beta)
    lk = get_link(link)
    n, p = dataset.n, beta.shape[0]
    q = np.empty((n, p))
    v = np.empty((n, p, p))
    factors = _score_factors(kind, dataset, beta, lk, frozen_corr)
    for b, (u, e) in zip(dataset.buckets, factors):
        ut = np.swapaxes(u, 1, 2)
        inc = ut @ (truth.rbar(b.size) @ u)
        v[b.positions] = 0.5 * (inc + np.swapaxes(inc, 1, 2))
        q[b.positions] = _apply(ut, e)
    return q, v


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
    ``deltas`` are read-only views into the stack; ``shift`` applies
    them to a dataset, after checking that they fit it.
    """

    stack: np.ndarray
    sizes: np.ndarray
    bound: float

    def __init__(self, deltas, bound: float):
        deltas = [np.asarray(d, dtype=float) for d in deltas]
        if not bound > 0:
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
        over = np.flatnonzero(linalg.spectral_norm_exceeds(stack, bound * (1.0 + 1e-9)))
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

    def shift(self, dataset: Dataset) -> Dataset:
        """``dataset`` with regressors X_i + delta_i', after checking the
        count and every delta's shape against it, naming the first bad
        cluster in cluster order."""
        stack, sizes, p = self.stack, self.sizes, dataset.p
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
        return dataset.shifted(stack)

    @classmethod
    def zero(cls, dataset: Dataset) -> "Perturbation":
        shape = (dataset.n, dataset.p, dataset.buckets[-1].size)
        return cls._of_stack(np.zeros(shape), dataset.sizes, bound=1.0)


def _regressor_gaps(x, y0, delta, beta, lk) -> np.ndarray:
    """||(X_i + delta_i') A_i^{1/2} - y0_i||_2 for a (k, p, m) stack of
    deltas, with A_i taken at the perturbed regressors; inf where a
    perturbed variance is not positive and finite, and 0.0 with no SVD
    where the difference is exactly zero."""
    xp = x + np.swapaxes(delta, 1, 2)
    var = lk.eval(1, xp @ beta)
    ok = np.flatnonzero(np.all((var > 0) & np.isfinite(var), axis=1))
    diff = xp[ok] * np.sqrt(var[ok])[..., None] - y0[ok]
    moved = diff.any(axis=(1, 2))
    gaps = np.full(delta.shape[0], np.inf)
    gaps[ok] = 0.0
    gaps[ok[moved]] = linalg.spectral_norm(diff[moved])
    return gaps


#: halvings a delta may take before it collapses; the a2 report carries it
_MAX_HALVINGS = 40


@dataclass(frozen=True, eq=False)
class A2HalvingPass:
    """The spec-independent half of ``a2_schedule``, from ``a2_halving_pass``.

    Per cluster: the two candidate deltas, zero-padded to the largest
    size (``deltas[0]`` halved until the transform inequality holds,
    ``deltas[1]`` that delta collapsed by the halvings left), the gap of
    the halved one, the halvings and the target 2^-i; ``y0`` is the
    unperturbed ``X_i A_i^{1/2}`` per size bucket. All read-only.
    """

    dataset: Dataset
    beta: np.ndarray
    link: LinkFunction
    deltas: np.ndarray
    gaps: np.ndarray
    halvings: np.ndarray
    targets: np.ndarray
    y0: tuple


def a2_halving_pass(dataset: Dataset, beta, link, seed: int) -> A2HalvingPass:
    """The draws and halvings of ``a2_schedule``: each delta is drawn with
    uniform(-1, 1) entries, rescaled to spectral norm 2^{-i}, then halved
    until the transformed-regressor inequality holds or ``_MAX_HALVINGS``
    are spent."""
    beta = as_beta(beta)
    lk = get_link(link)
    key = int(seed) & (2**128 - 1)
    n, p = dataset.n, beta.shape[0]
    rng = np.random.Generator(np.random.Philox(key=key))
    # one stream in cluster order: cluster i takes the next p * m_i values
    draws = rng.uniform(-1.0, 1.0, size=p * dataset.x.shape[0])
    targets = np.ldexp(1.0, -np.arange(1, n + 1))
    moments = _moments(dataset, beta, lk)
    deltas = np.zeros((2, n, p, dataset.buckets[-1].size))
    gaps = np.empty(n)
    used = np.empty(n, dtype=np.int64)
    y0s = []
    for b, (_, var) in zip(dataset.buckets, moments):
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
        for _ in range(_MAX_HALVINGS):
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
        shrunk = delta * np.ldexp(1.0, halvings - _MAX_HALVINGS)[:, None, None]
        deltas[:, b.positions, :, : b.size] = delta, shrunk
        gaps[b.positions] = gap
        used[b.positions] = halvings
        y0s.append(y0)
    for a in (deltas, gaps, used, targets, *y0s):
        a.setflags(write=False)
    return A2HalvingPass(dataset, beta, lk, deltas, gaps, used, targets, tuple(y0s))


def _proxy_gap_window(fold, start: int, stop: int, state, guess) -> tuple:
    """Whether the inverse-proxy gaps of clusters ``start .. stop-1`` exceed
    their targets 2^-i when cluster ``i`` folds candidate ``guess[i]`` onto
    the residual-moment sums ``state`` of the clusters before ``start``;
    ``fold`` holds the dataset, both candidates' terms from
    ``residual_moment_terms``, the unperturbed inverse proxies in cluster
    order and the targets. Each gap is the spectral norm of the difference
    of the inverses, decided by ``linalg.spectral_norm_exceeds``. A
    template that is not PD or a difference that is not finite halves the
    window; a window of one cluster, which no guess touches, raises.
    Returns (stop, sums, exceeds, inverses), with the sums before each
    cluster and, per size bucket that the window meets, its index, the
    index in the bucket of its first cluster in the window and the
    inverses of the window's templates of its clusters."""
    dataset, outer, rinv, targets = fold
    rows = np.arange(start + 1, stop)
    sums = np.cumsum(np.concatenate((state[None], outer[guess[rows - 1], rows])), 0)
    counts = dataset.fold_counts[start:stop]
    templates = residual_moment_templates(sums, counts, np.arange(start, stop))
    window = []
    for j, b in enumerate(dataset.buckets):
        lo, hi = np.searchsorted(b.positions, (start, stop))
        if lo < hi:
            window.append((j, lo, b.size, b.positions[lo:hi]))
    try:
        inverses = _checked_inverse(
            (templates[i - start, :m, :m], i) for _, _, m, i in window
        )
        exceeds = np.empty(stop - start, dtype=bool)
        for (_, _, m, i), inv in zip(window, inverses):
            diff = inv - rinv[i, :m, :m]
            exceeds[i - start] = linalg.spectral_norm_exceeds(diff, targets[i])
    except (NotPositiveDefiniteError, InvalidInputError):
        if stop - start == 1:
            raise
        return _proxy_gap_window(fold, start, (start + stop) // 2, state, guess)
    parts = [(j, lo, inv) for (j, lo, _, _), inv in zip(window, inverses)]
    return stop, sums, exceeds, parts


class _A2Decisions(NamedTuple):
    """What ``_a2_decide`` settles: per cluster, whether the collapsed
    delta is chosen (0 or 1), the transform gap of the chosen one, whether
    its inverse-proxy gap exceeds the target 2^-i (decided by bounds, so
    the gap itself is not formed) and whether either gap does; ``K`` as
    ``ordered``, the passes, and for a data-dependent proxy the inverse
    perturbed proxies per size bucket."""

    collapsed: np.ndarray
    gap_y: np.ndarray
    over_r: np.ndarray
    violated: np.ndarray
    ordered: int
    passes: int
    inverses: Optional[tuple]


def _a2_decide(halving: A2HalvingPass, spec, frozen_corr=None) -> _A2Decisions:
    """The choices of ``a2_schedule`` between each halved delta and that
    delta collapsed by the halvings left, with the transform gaps and the
    inverse-proxy decisions.

    A data-independent proxy takes every halved delta. With a
    data-dependent proxy the chosen delta enters the proxies of the
    clusters after it. A pass guesses the choices of a window of
    clusters, folds them as one prefix sum and decides the window in one
    batch, each cluster by whether its inverse-proxy gap exceeds 2^-i
    (``_proxy_gap_window``; an SVD only where norm bounds cannot tell). A
    cluster's gap depends only on the choices before it, so
    every decision up to the first wrong guess is right, and the next pass
    starts there with these decisions as its guesses. Only a cluster
    before ``K``, one past the last cluster whose candidates give bitwise
    different standardized residuals, can guess wrong; from ``K`` on both
    fold alike, so one pass decides the rest. The templates of that
    decided prefix folded only chosen deltas, so their inverses are those
    of the shifted dataset's proxy, bit for bit as ``freeze_proxy`` forms
    them, and are returned as ``inverses``, laid out as its
    ``FrozenProxy``. The transform gap of a collapsed delta is computed
    only where chosen. A ``frozen_corr`` from ``freeze_proxy`` for the
    pass's dataset and beta spares the unperturbed proxy's fold and
    inversion.
    """
    dataset, beta, lk = halving.dataset, halving.beta, halving.link
    n, d = dataset.n, dataset.m_max
    deltas, targets = halving.deltas, halving.targets
    collapsed = np.zeros(n, dtype=np.int64)
    over_r = np.zeros(n, dtype=bool)
    ordered = passes = start = 0
    inverses = None
    if spec.depends_on_data:
        kind = EstimatingFunction.gee_star(spec)
        proxy = freeze_proxy(kind, dataset, beta, lk, frozen_corr)
        rinv = dataset.in_cluster_order(proxy.inverses)
        parts = [_pearson_residuals(dataset.shifted(dl), beta, lk) for dl in deltas]
        resid = [dataset.in_cluster_order(r) for r in parts]
        differ = (resid[0].view(np.int64) != resid[1].view(np.int64)).any(axis=1)
        ordered = int(np.flatnonzero(differ)[-1]) + 1 if differ.any() else 0
        outer = residual_moment_terms(dataset, [np.stack(r) for r in zip(*parts)])
        fold = (dataset, outer, rinv, targets)
        eligible = (halving.gaps <= targets) & (halving.halvings < _MAX_HALVINGS)
        state = np.zeros((d, d))
        inverses = [np.empty(b.x.shape[:2] + (b.size,)) for b in dataset.buckets]
        # `collapsed` holds the guesses, at first all halved; a pass keeps its
        # decisions up to its first wrong guess and the rest guess again
        while start < n:
            guess = collapsed.copy()
            stop = ordered if start < ordered else n
            stop, sums, over, window = _proxy_gap_window(fold, start, stop, state, guess)
            now = slice(start, stop)
            over_r[now] = over
            collapsed[now] = eligible[now] & over
            wrong = np.flatnonzero(differ[now] & (collapsed[now] != guess[now]))
            end = start + int(wrong[0]) + 1 if wrong.size else stop
            # what a wrong guess left past `end`, the next pass overwrites
            for j, lo, inv in window:
                inverses[j][lo : lo + len(inv)] = inv
            state = sums[end - start - 1] + outer[collapsed[end - 1], end]
            start, passes = end, passes + 1
        inverses = tuple(inverses)
    gap_y = halving.gaps.copy()
    for b, y0 in zip(dataset.buckets, halving.y0):
        pick = np.flatnonzero(collapsed[b.positions])
        if pick.size:
            pos = b.positions[pick]
            shrunk = deltas[1, pos, :, : b.size]
            gap_y[pos] = _regressor_gaps(b.x[pick], y0[pick], shrunk, beta, lk)
    violated = (gap_y > targets) | over_r
    return _A2Decisions(collapsed, gap_y, over_r, violated, ordered, passes, inverses)


def _scheduled_deltas(halving: A2HalvingPass, collapsed) -> np.ndarray:
    """The chosen deltas as a zero-padded (n, p, max m_i) stack."""
    if not collapsed.any():
        return halving.deltas[0]
    return halving.deltas[collapsed, np.arange(collapsed.shape[0])]


def a2_schedule(halving: A2HalvingPass, spec: WorkingCorrelationSpec) -> tuple:
    """Construct the geometric perturbation schedule with norms <= 2^{-i}.

    The deltas are drawn, scaled to 2^{-i} and halved against the
    transformed-regressor inequality by ``a2_halving_pass``, which does
    not depend on ``spec``, so one pass serves every spec on its dataset,
    beta and link. The spec then adds the inverse-proxy inequality. For
    data-dependent proxies its difference at step ``i`` is fixed by the
    earlier deltas, so halving the current delta cannot always repair it;
    residual violations are reported, not raised. Nearly every cluster is
    reported (995 of 1000 on the 1000-cluster optimality scenario): that
    gap decays like 1/i, not 2^-i, so ``violations ~ n``. Each cluster's
    choice between its halved delta and that delta collapsed by the
    halvings left is made by ``_a2_decide``, in passes over windows of
    clusters; the unperturbed proxy is frozen once, here, for both the
    decisions and the report.

    Returns (Perturbation, report) where the report carries per-cluster
    halving counts, any remaining inequality violations with both exact
    gaps (the inverse-proxy gap, 0.0 for a data-independent proxy, is
    formed only for these clusters: the spectral norm of the difference
    between the decisions' inverses and the unperturbed ones), ``K`` as
    ``ordered_prefix`` and the number of passes as ``ordered_passes``
    (both 0 for a data-independent proxy).
    """
    dataset = halving.dataset
    proxy = None
    if spec.depends_on_data:
        kind = EstimatingFunction.gee_star(spec)
        proxy = freeze_proxy(kind, dataset, halving.beta, halving.link)
    decided = _a2_decide(halving, spec, proxy)
    used = np.where(decided.collapsed == 1, _MAX_HALVINGS, halving.halvings)
    over = np.flatnonzero(decided.violated)
    gap_r = np.zeros(dataset.n)
    if decided.inverses is not None:
        for b, inv, plain in zip(dataset.buckets, decided.inverses, proxy.inverses):
            rows = np.flatnonzero(decided.violated[b.positions])
            diff = inv[rows] - plain[rows]
            gap_r[b.positions[rows]] = linalg.spectral_norm(diff)
    checks = np.column_stack((decided.gap_y, gap_r, halving.targets))[over]
    report = {
        "halvings": used.tolist(),
        "violations": [
            {"cluster": i + 1, "gap_y": gy, "gap_r": gr, "target": t}
            for i, (gy, gr, t) in zip(over.tolist(), checks.tolist())
        ],
        "max_halvings": _MAX_HALVINGS,
        "ordered_prefix": decided.ordered,
        "ordered_passes": decided.passes,
    }
    chosen = _scheduled_deltas(halving, decided.collapsed)
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
        # C_i read back from u_i = A_i^{1/2} C_i'
        factors = _score_factors(kind, ds, b, lk)
        moments = _moments(ds, b, lk)
        return [
            np.swapaxes(u, 1, 2) / np.sqrt(var)[:, None, :]
            for (u, _), (_, var) in zip(factors, moments)
        ]

    abs_c, abs_dc_resid, abs_ccv = [], [], []
    for ds in ensemble:
        moments = _moments(ds, beta, lk)
        base = coeffs(ds, beta)
        grads = [
            [(a - b) / (2.0 * h) for a, b in zip(coeffs(ds, bp), coeffs(ds, bm))]
            for h, bp, bm in central_points(beta)
        ]
        for j, (bk, (mean, var)) in enumerate(zip(ds.buckets, moments)):
            resid = bk.y - mean
            sd = np.sqrt(var)
            sigma = truth.rbar(bk.size) * (sd[:, :, None] * sd[:, None, :])
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
