"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own numerics: the
eigenvalue oracle works through the characteristic polynomial, norms come
from power iteration or brute-force grid search, determinants from
cofactor expansion, and the estimating-function quantities, the
perturbation schedule, the lattice curvature series and the scenario
generator from plain per-cluster loops. The dataset-file writer and
loader are the row-by-row versions, building datasets through the
public ``Cluster`` and ``Dataset`` constructors, and the dataset digest
hashes cluster by cluster. One reference instead keeps an earlier
evaluation order on the library's own numerics, to pin a reordering bit
for bit: the proxy lattice folded one point at a time.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from stochgee import Cluster, Dataset, DatasetParseError, InvalidInputError
from stochgee.estimating import _bucket_proxies, central_points, proxy_stack
from stochgee.model import sidecar_path


def cofactor_det(m):
    """Determinant by recursive cofactor expansion (small matrices only)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if n == 2:
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * cofactor_det(minor)
    return float(total)


def charpoly_coefficients(m):
    """Coefficients of det(lambda I - M) via the Faddeev-LeVerrier recurrence.

    Returns c with c[0] = 1 for lambda^n down to the constant term.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ work + coeffs[-1] * np.eye(n)
        coeffs.append(-float(np.trace(m @ work)) / k)
    return np.array(coeffs)


def eigenvalues_by_bisection(m, tol=1e-12):
    """All eigenvalues of a symmetric matrix as roots of its characteristic
    polynomial, located by sign-change bisection on a Gershgorin interval.

    Assumes distinct eigenvalues (almost sure for random symmetric input).
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = charpoly_coefficients(m)

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    radius = float(np.max(np.sum(np.abs(m), axis=1))) + 1.0
    grid = np.linspace(-radius, radius, 200001)
    vals = np.array([poly(x) for x in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            lo, hi, flo = a, b, fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = poly(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    assert len(roots) == n, f"bisection found {len(roots)} roots, expected {n}"
    return np.sort(np.array(roots))


def power_iteration_norm(m, iters=10000, tol=1e-14, seed=123):
    """Spectral norm via power iteration on M^T M."""
    m = np.asarray(m, dtype=float)
    gram = m.T @ m
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(gram.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = gram @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x_new = y / norm
        lam_new = float(x_new @ (gram @ x_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        x, lam = x_new, lam_new
    return float(np.sqrt(max(lam, 0.0)))


def quadratic_form_radius_2x2(m, n_grid=2_000_000):
    """sup |x' M x| over the real unit circle by dense grid search."""
    m = np.asarray(m, dtype=float)
    theta = np.linspace(0.0, np.pi, n_grid)
    c, s = np.cos(theta), np.sin(theta)
    val = (
        m[0, 0] * c * c
        + (m[0, 1] + m[1, 0]) * c * s
        + m[1, 1] * s * s
    )
    return float(np.max(np.abs(val)))


# ---------------------------------------------------------------------------
# per-cluster reference loops for the batched estimating-function kernel
#
# Each loop visits one cluster at a time, as the package did before its
# kernel was batched by cluster size. ``clusters`` is a list of (y_i, X_i)
# pairs; ``corr_seq`` holds the proxy R_{i-1} of every cluster, or is None
# for independence; ``rbar_of(m)`` gives the true correlation of size m.


def _link_moments(link, eta):
    if link == "identity":
        return eta + 0.0, np.ones_like(eta)
    if link == "log":
        return np.exp(eta), np.exp(eta)
    if link == "probit":
        from scipy.special import ndtr

        return ndtr(eta), np.exp(-0.5 * eta * eta) / math.sqrt(2.0 * math.pi)
    raise ValueError(f"no reference moments for link {link!r}")


def _loop_coefficient(x, var, r):
    # C = X' A^{1/2} R^{-1} A^{-1/2}
    if r is None:
        return x.T
    sd = np.sqrt(var)
    return (x * sd[:, None]).T @ (np.linalg.inv(r) / sd[None, :])


def loop_eval_g(clusters, beta, link, corr_seq=None, deltas=None):
    """sum_i C_i (y_i - mu_i), one cluster at a time; with ``deltas`` the
    coefficients use X_i + delta_i' while the means keep X_i."""
    g = np.zeros(beta.shape[0])
    for pos, (y, x) in enumerate(clusters):
        mean, var = _link_moments(link, x @ beta)
        if deltas is not None:
            x = x + deltas[pos].T
            _, var = _link_moments(link, x @ beta)
        r = None if corr_seq is None else corr_seq[pos]
        g += _loop_coefficient(x, var, r) @ (y - mean)
    return g


def loop_jacobian(clusters, beta, link, corr_seq=None):
    """-dg/dbeta' for a beta-independent proxy, one cluster at a time."""
    p = beta.shape[0]
    total = np.zeros((p, p))
    for pos, (y, x) in enumerate(clusters):
        mean, var = _link_moments(link, x @ beta)
        sd = np.sqrt(var)
        rinv = np.eye(len(y)) if corr_seq is None else np.linalg.inv(corr_seq[pos])
        b = rinv * np.outer(sd, 1.0 / sd)
        total += x.T @ (b @ (x * var[:, None]))
        if link == "log":
            resid = y - mean
            br = b @ resid
            for l in range(p):
                col = x[:, l]
                total[:, l] -= x.T @ (0.5 * (col * br - b @ (col * resid)))
    return total


def loop_information_increments(clusters, beta, link, corr_seq, rbar_of, deltas=None):
    """Per-cluster h_ind, h_star, m_bar and m_star, one cluster at a time."""
    out = {k: [] for k in ("h_ind", "h_star", "m_bar", "m_star")}
    for pos, (_, x) in enumerate(clusters):
        if deltas is not None:
            x = x + deltas[pos].T
        _, var = _link_moments(link, x @ beta)
        z = x * np.sqrt(var)[:, None]
        rbar = rbar_of(x.shape[0])
        v = np.linalg.inv(corr_seq[pos]) @ z
        out["h_ind"].append(z.T @ z)
        out["h_star"].append(z.T @ v)
        out["m_bar"].append(z.T @ (np.linalg.inv(rbar) @ z))
        out["m_star"].append(v.T @ (rbar @ v))
    return {k: np.array(v) for k, v in out.items()}


def loop_score_terms(clusters, beta, link, corr_seq):
    """Per-cluster C_i (y_i - mu_i), one cluster at a time."""
    out = []
    for pos, (y, x) in enumerate(clusters):
        mean, var = _link_moments(link, x @ beta)
        r = None if corr_seq is None else corr_seq[pos]
        out.append(_loop_coefficient(x, var, r) @ (y - mean))
    return np.array(out)


def loop_conditional_variance(clusters, beta, link, corr_seq, rbar_of):
    """Per-cluster C_i Sigma_i C_i', symmetrized, one cluster at a time."""
    out = []
    for pos, (_, x) in enumerate(clusters):
        _, var = _link_moments(link, x @ beta)
        r = None if corr_seq is None else corr_seq[pos]
        coeff = _loop_coefficient(x, var, r)
        sd = np.sqrt(var)
        inc = coeff @ (rbar_of(x.shape[0]) * np.outer(sd, sd)) @ coeff.T
        out.append(0.5 * (inc + inc.T))
    return np.array(out)


# ---------------------------------------------------------------------------
# the residual-moment proxy, one cluster at a time
#
# ``loop_pseudo_templates`` is the sole per-cluster reference for the
# package's prefix-sum proxy (``residual_moment_stack``, ``proxy_stack``):
# it folds one cluster's residual outer product into a running sum at a
# time. Below it, the per-cluster loop of the proxy-lattice diagnostics.

_MIN_EIGENVALUE = 1e-6
_SHRINK_PRIOR_FACTOR = 4


def _loop_template(total, counts, count):
    d = total.shape[0]
    if count < 1:
        return np.eye(d)
    raw = np.eye(d)
    seen = counts > 0
    raw[seen] = total[seen] / counts[seen]
    prior = _SHRINK_PRIOR_FACTOR * d
    eps = prior / (count + prior)
    t = (1.0 - eps) * raw + eps * np.eye(d)
    homogeneous = int(counts.min()) == int(counts.max()) == count
    if homogeneous and eps >= _MIN_EIGENVALUE:
        return t
    lam_min = float(np.linalg.eigvalsh(t)[0])
    if lam_min >= _MIN_EIGENVALUE:
        return t
    nu = (_MIN_EIGENVALUE - lam_min) / max(1.0 - lam_min, _MIN_EIGENVALUE)
    return (1.0 - nu) * t + nu * np.eye(d)


def loop_pseudo_templates(clusters, beta, link, m_max, deltas=None):
    """Templates R_0 .. R_n of the residual-moment proxy, folding one
    cluster's standardized residual outer product at a time; with
    ``deltas`` the residuals are standardized at X_i + delta_i'."""
    total = np.zeros((m_max, m_max))
    counts = np.zeros((m_max, m_max), dtype=np.int64)
    out = []
    for pos, (y, x) in enumerate(clusters):
        out.append(_loop_template(total, counts, pos))
        if deltas is not None:
            x = x + deltas[pos].T
        mean, var = _link_moments(link, x @ beta)
        resid = (y - mean) / np.sqrt(var)
        m = len(y)
        total[:m, :m] += np.outer(resid, resid)
        counts[:m, :m] += 1
    out.append(_loop_template(total, counts, len(clusters)))
    return out


def loop_proxy_lattice(clusters, beta, link, m_max, lattices, n_grid):
    """pi_n(r) and d_n(r) of the residual-moment proxy, one cluster and
    one lattice point at a time: the largest eigenvalue of
    sqrt(R_i(beta)) R_i(point)^{-1} sqrt(R_i(beta)) and the largest
    |eigenvalue| of the central-difference dR_i/dbeta_l, maximized over
    the points of each radius and run up to each checkpoint."""

    def trajectory(b):
        templates = loop_pseudo_templates(clusters, b, link, m_max)
        return [t[: len(y), : len(y)] for t, (y, _) in zip(templates, clusters)]

    def sym(m):
        return 0.5 * (m + m.T)

    roots = []
    for r in trajectory(beta):
        w, v = np.linalg.eigh(r)
        roots.append((v * np.sqrt(np.maximum(w, 0.0))) @ v.T)
    n = len(clusters)
    last = np.asarray(n_grid) - 1
    pi_out, d_out = {}, {}
    for radius, lattice in lattices.items():
        pi = np.zeros(n)
        d = np.zeros(n)
        for point in lattice:
            seq = trajectory(point)
            for pos in range(n):
                q = roots[pos] @ np.linalg.inv(seq[pos]) @ roots[pos]
                pi[pos] = max(pi[pos], float(np.linalg.eigvalsh(sym(q))[-1]))
            for l in range(point.shape[0]):
                step = np.zeros_like(point)
                step[l] = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(point[l]))
                seq_p = trajectory(point + step)
                seq_m = trajectory(point - step)
                for pos in range(n):
                    dmat = (seq_p[pos] - seq_m[pos]) / (2.0 * step[l])
                    w = np.linalg.eigvalsh(sym(dmat))
                    d[pos] = max(d[pos], abs(w[0]), abs(w[-1]))
        pi_out[radius] = np.maximum.accumulate(pi)[last]
        d_out[radius] = np.maximum.accumulate(d)[last]
    return pi_out, d_out


def point_proxy_lattice(dataset, beta, lk, lattices, n_grid):
    """pi_n(r) and d_n(r) of the residual-moment proxy as the package
    computed them before the lattice fold was batched: ``proxy_stack``
    once per distinct lattice point and once per central-difference
    neighbour, each cluster-size bucket in one batch. Same operations on
    the same arrays, so the batched fold must match it bit for bit."""

    def sym(m):
        return 0.5 * (m + np.swapaxes(m, -1, -2))

    roots = []
    for mats in _bucket_proxies(dataset, proxy_stack(dataset, beta, lk)):
        w, v = np.linalg.eigh(mats)
        root_w = np.sqrt(np.maximum(w, 0.0))[:, None, :]
        roots.append((v * root_w) @ np.swapaxes(v, 1, 2))

    terms: dict = {}

    def point_terms(point):
        """Per-cluster lambda_max of sqrt(R) R(point)^{-1} sqrt(R) and
        largest |eigenvalue| of dR/dbeta_l over l, at one lattice point."""
        key = point.tobytes()
        if key not in terms:
            lam = []
            mats = _bucket_proxies(dataset, proxy_stack(dataset, point, lk))
            for root, m in zip(roots, mats):
                q = root @ np.linalg.inv(m) @ root
                lam.append(np.linalg.eigvalsh(sym(q))[:, -1])
            d = np.zeros(dataset.n)
            for h, bp, bm in central_points(point):
                diff = proxy_stack(dataset, bp, lk) - proxy_stack(dataset, bm, lk)
                w = [
                    np.linalg.eigvalsh(sym(m))
                    for m in _bucket_proxies(dataset, diff / (2.0 * h))
                ]
                extremes = [np.abs(x[:, [0, -1]]).max(axis=1) for x in w]
                d = np.maximum(d, dataset.in_cluster_order(extremes))
            terms[key] = (dataset.in_cluster_order(lam), d)
        return terms[key]

    pi_out: dict = {}
    d_out: dict = {}
    last = np.asarray(n_grid) - 1
    for r in lattices:
        per_point = [point_terms(point) for point in lattices[r]]
        per_cluster_pi = np.max([t[0] for t in per_point], axis=0)
        per_cluster_d = np.max([t[1] for t in per_point], axis=0)
        # running maxima over the clusters, read at the checkpoints
        pi_out[r] = np.maximum.accumulate(per_cluster_pi)[last].tolist()
        d_out[r] = np.maximum.accumulate(per_cluster_d)[last].tolist()
    return pi_out, d_out


# ---------------------------------------------------------------------------
# the perturbation schedule and the lattice curvature series, one cluster
# at a time, as the package computed them before they ran on size buckets


def loop_a2_schedule(
    clusters, beta, link, m_max, data_dependent, seed, max_halvings=40
):
    """(deltas, halvings, violations) of the geometric perturbation schedule.

    Cluster i draws a (p, m_i) uniform(-1, 1) block from the Philox stream
    of ``seed``, scaled to spectral norm 2^-i, and halves it while the
    transformed-regressor gap exceeds 2^-i. With a ``data_dependent``
    proxy the inverse-proxy gap is set by the earlier deltas; when it
    exceeds 2^-i the delta collapses by the halvings left.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**128 - 1)))
    p = beta.shape[0]
    proxies = loop_pseudo_templates(clusters, beta, link, m_max)
    total = np.zeros((m_max, m_max))
    counts = np.zeros((m_max, m_max), dtype=np.int64)

    def transform_gap(x, delta, y0):
        xp = x + delta.T
        _, var = _link_moments(link, xp @ beta)
        if np.all(var > 0) and np.all(np.isfinite(var)):
            return float(np.linalg.norm(xp * np.sqrt(var)[:, None] - y0, 2))
        return np.inf

    deltas, halvings, violations = [], [], []
    for pos, (y, x) in enumerate(clusters):
        m = len(y)
        target = 2.0 ** -(pos + 1)
        draw = rng.uniform(-1.0, 1.0, size=(p, m))
        nrm = float(np.linalg.norm(draw, 2))
        if target == 0.0 or nrm == 0.0:
            delta = np.zeros((p, m))
        else:
            delta = draw * (target * (1.0 - 1e-12) / nrm)
        _, var0 = _link_moments(link, x @ beta)
        y0 = x * np.sqrt(var0)[:, None]
        gap_r = 0.0
        if data_dependent:
            r_p = _loop_template(total, counts, pos)
            gap_r = float(
                np.linalg.norm(
                    np.linalg.inv(r_p[:m, :m]) - np.linalg.inv(proxies[pos][:m, :m]), 2
                )
            )
        used = 0
        gap_y = transform_gap(x, delta, y0)
        while used < max_halvings and gap_y > target:
            delta = 0.5 * delta
            used += 1
            gap_y = transform_gap(x, delta, y0)
        if gap_y <= target < gap_r and used < max_halvings:
            delta = delta * 2.0 ** -(max_halvings - used)
            used = max_halvings
            gap_y = transform_gap(x, delta, y0)
        if gap_y > target or gap_r > target:
            violations.append(
                {"cluster": pos + 1, "gap_y": gap_y, "gap_r": gap_r, "target": target}
            )
        halvings.append(used)
        deltas.append(delta)
        if data_dependent:
            mean, var = _link_moments(link, (x + delta.T) @ beta)
            resid = (y - mean) / np.sqrt(var)
            total[:m, :m] += np.outer(resid, resid)
            counts[:m, :m] += 1
    return deltas, halvings, violations


def loop_lattice_curvature(clusters, link, lattices, n_grid):
    """k2, k3 and eta of each lattice, read at the checkpoints.

    Running maxima over the clusters of max |mu''/mu'| and |mu'''/mu'|
    over the lattice points and of max |sqrt(mu'(b) / mu'(a)) - 1| over
    pairs of points; Python's ``max`` skips a cluster whose maximum is NaN.
    A mu' that overflows to +inf, or a row whose mu' underflows to 0 at
    one point and is positive at another, makes the cluster's eta inf:
    the ratio of that pair is unbounded.
    """
    out = {k: {r: [] for r in lattices} for k in ("k2", "k3", "eta")}
    run = {k: dict.fromkeys(lattices, 0.0) for k in out}
    for pos, (_, x) in enumerate(clusters):
        for r, lattice in lattices.items():
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                _, d1 = _link_moments(link, x @ lattice.T)
                d2 = d3 = d1 if link == "log" else np.zeros_like(d1)
                ratio = np.sqrt(d1[:, None, :] / d1[:, :, None])
                underflow = ((d1 == 0.0).any(axis=1) & (d1 > 0.0).any(axis=1)).any()
                values = {
                    "k2": np.max(np.abs(d2 / d1)),
                    "k3": np.max(np.abs(d3 / d1)),
                    "eta": (
                        np.inf
                        if np.isposinf(d1).any() or underflow
                        else np.max(np.abs(ratio - 1.0))
                    ),
                }
            for k, v in values.items():
                run[k][r] = max(run[k][r], float(v))
        if pos + 1 in n_grid:
            for k in out:
                for r in lattices:
                    out[k][r].append(run[k][r])
    return out


# ---------------------------------------------------------------------------
# the scenario generator, one cluster at a time with a fresh Philox stream
# per cluster, as the package generated scenarios before its two-phase
# rewrite


class LinkDomainExit(Exception):
    """The generator's regressors left the link domain at ``cluster``."""

    def __init__(self, cluster):
        super().__init__(f"cluster {cluster}")
        self.cluster = cluster


_MASK64 = 2**64 - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _cluster_rng(rep_seed, index):
    tag = index << 3
    lo = _splitmix64(rep_seed ^ _splitmix64(tag))
    hi = _splitmix64((rep_seed + 0x9E3779B97F4A7C15) ^ _splitmix64(tag ^ _MASK64))
    return np.random.Generator(np.random.Philox(key=(hi << 64) | lo))


def _truth_matrix(kind, rho, m_max):
    if kind == "independence":
        return np.eye(m_max)
    if kind == "exchangeable":
        t = np.full((m_max, m_max), rho)
        np.fill_diagonal(t, 1.0)
        return t
    idx = np.arange(m_max)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def loop_simulate_scenario(config, replication=0):
    """(sizes, x, y) of one replication, with x (N, p) and y (N,) holding
    the clusters' rows in cluster order.

    Cluster i takes, from its own Philox stream and in this order, its
    size (random schedule only), the latent innovation (exogenous_ar1
    only), the (m_i, p) row jitter and the m_i response noises. Raises
    LinkDomainExit naming the first cluster whose moments leave the link
    domain.
    """
    from scipy.special import ndtr, ndtri
    from scipy.stats import poisson

    seed = config.seed
    rep_seed = seed if replication == 0 else seed ^ _splitmix64(replication)
    proc, sched = config.regressors, config.sizes
    beta0 = np.asarray(config.beta0, dtype=float)
    p = beta0.shape[0]
    truth = _truth_matrix(config.truth.kind, config.truth.rho, config.m_max)
    latent = np.zeros(p)
    prev_y_mean = 0.0
    sizes, xs, ys = [], [], []
    for i in range(1, config.n + 1):
        rng = _cluster_rng(rep_seed, i)
        if sched.kind == "constant":
            m = sched.m
        elif sched.kind == "cyclic":
            m = sched.sizes[(i - 1) % len(sched.sizes)]
        else:
            m = int(rng.integers(sched.lo, sched.hi + 1))
        if proc.kind == "exogenous_ar1":
            latent = proc.phi * latent + proc.scale * rng.standard_normal(p)
            base = proc.loc + latent
        elif proc.kind == "feedback":
            base = proc.loc + proc.gain * prev_y_mean
        else:
            base = proc.loc
        x = base + proc.scale * rng.standard_normal((m, p))
        eta = x @ beta0
        if config.link == "probit":
            with np.errstate(over="ignore"):
                mean, var = ndtr(eta), np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
        else:
            with np.errstate(over="ignore"):
                mean, var = _link_moments(config.link, eta)
        if np.any(var <= 0) or not np.all(np.isfinite(mean)) or not np.all(np.isfinite(x)):
            raise LinkDomainExit(i)
        z = np.linalg.cholesky(truth[:m, :m]) @ rng.standard_normal(m)
        if config.response_family == "gaussian_link_moments":
            y = mean + np.sqrt(var) * z
        elif config.response_family == "poisson_log":
            y = poisson.ppf(np.clip(ndtr(z), 1e-16, 1.0 - 1e-16), mean).astype(float)
        else:
            y = (z <= ndtri(np.clip(mean, 1e-12, 1.0 - 1e-12))).astype(float)
        sizes.append(m)
        xs.append(x)
        ys.append(y)
        prev_y_mean = float(np.mean(y))
    return np.array(sizes), np.concatenate(xs), np.concatenate(ys)


# ---------------------------------------------------------------------------
# dataset files: the row-by-row writer and loader, through the public
# Cluster and Dataset constructors

def loop_write_dataset(dataset: Dataset, path: str, fmt: str = "csv") -> None:
    """Write the long CSV (17 significant digits) and its metadata sidecar."""
    if fmt != "csv":
        raise InvalidInputError(f"unsupported dataset format {fmt!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "obs", "y"] + [f"x{j+1}" for j in range(dataset.p)])
        for c in dataset.clusters:
            for j in range(c.size):
                writer.writerow(
                    [c.index, j + 1, f"{c.response[j]:.17g}"]
                    + [f"{v:.17g}" for v in c.regressors[j]]
                )
    meta = {
        "n": dataset.n,
        "p": dataset.p,
        "m_max": dataset.m_max,
        "link": dataset.link,
        "beta0": None if dataset.beta0 is None else [float(v) for v in dataset.beta0],
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def loop_load_dataset(path: str, fmt: str = "csv") -> Dataset:
    """Load a long-CSV dataset; the sidecar declares m_max (never inferred)."""
    if fmt != "csv":
        raise InvalidInputError(f"unsupported dataset format {fmt!r}")
    meta_path = sidecar_path(path)
    if not os.path.exists(meta_path):
        raise DatasetParseError(f"missing metadata sidecar {meta_path}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"invalid metadata sidecar: {exc}") from None
    try:
        p = int(meta["p"])
        m_max = int(meta["m_max"])
    except (KeyError, TypeError, ValueError):
        raise DatasetParseError("sidecar must declare integer fields 'p', 'm_max'")
    link = meta.get("link")
    beta0 = meta.get("beta0")

    expected_header = ["cluster", "obs", "y"] + [f"x{j+1}" for j in range(p)]
    pairs = []
    cur_y: list = []
    cur_x: list = []
    cur_cluster = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError("empty dataset file", line=1) from None
        if header != expected_header:
            raise DatasetParseError(
                f"bad header {header!r}, expected {expected_header!r}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + p:
                raise DatasetParseError(
                    f"ragged row: {len(row)} fields, expected {3 + p}", line=lineno
                )
            try:
                cid = int(row[0])
                obs = int(row[1])
                vals = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DatasetParseError(f"unparseable value: {exc}", line=lineno)
            if not all(math.isfinite(v) for v in vals):
                raise DatasetParseError("non-finite value", line=lineno)
            if cid == cur_cluster + 1:
                if cur_cluster > 0:
                    pairs.append((cur_y, cur_x))
                cur_cluster = cid
                cur_y, cur_x = [], []
            elif cid != cur_cluster:
                raise DatasetParseError(
                    f"non-consecutive cluster index {cid} after {cur_cluster}",
                    line=lineno,
                )
            if obs != len(cur_y) + 1:
                raise DatasetParseError(
                    f"bad observation index {obs} in cluster {cid}", line=lineno
                )
            if obs > m_max:
                raise DatasetParseError(
                    f"cluster {cid} exceeds declared m_max={m_max}", line=lineno
                )
            cur_y.append(vals[0])
            cur_x.append(vals[1:])
    if cur_cluster == 0:
        raise DatasetParseError("dataset file has no data rows", line=2)
    pairs.append((cur_y, cur_x))
    clusters = tuple(
        Cluster(i + 1, np.array(y), np.array(x)) for i, (y, x) in enumerate(pairs)
    )
    return Dataset(
        clusters,
        p,
        m_max,
        link=link,
        beta0=None if beta0 is None else np.asarray(beta0, dtype=float),
    )


# ---------------------------------------------------------------------------
# the dataset digest, three hash updates per cluster


def loop_digest(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(f"{dataset.p},{dataset.m_max}".encode())
    x, y = dataset.x, dataset.y
    bounds = dataset.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        h.update(np.int64(hi - lo).tobytes())
        h.update(y[lo:hi].tobytes())
        h.update(x[lo:hi].tobytes())
    return h.hexdigest()
