"""Reference computations the benchmark checks stochgee's outputs against.

Nothing here imports stochgee. Every quantity is written from its
definition in plain NumPy (plus scipy.special for the normal and Poisson
distribution functions that define the copula draw), batched over
clusters of one common size ``m``:

* ``X`` has shape (n, m, p) and ``Y`` shape (n, m);
* the estimating function is ``g(beta) = sum_i C_i r_i`` with
  ``C_i = X_i' A_i^{1/2} R_i^{-1} A_i^{-1/2}`` and ``r_i = y_i - mu_i``;
* the pseudo-likelihood proxy for cluster ``i`` is the average of the
  standardized residual outer products of clusters ``1..i-1``, shrunk
  toward the identity with ``4 m`` prior pseudo-observations.

The scenario generator re-derives stochgee's documented seeding scheme
(Philox keyed by splitmix64 over the replication seed and the cluster
index) so that a study's replications can be regenerated independently.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, pdtr

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
SHRINK_PRIOR_FACTOR = 4
MIN_EIGENVALUE = 1e-6


# ---------------------------------------------------------------------------
# links


def moments(link: str, eta: np.ndarray):
    """Conditional mean mu(eta) and variance mu'(eta)."""
    if link == "log":
        mu = np.exp(eta)
        return mu, mu
    if link == "identity":
        return eta + 0.0, np.ones_like(eta)
    raise ValueError(f"reference supports the log and identity links, not {link!r}")


def exchangeable(rho: float, m: int) -> np.ndarray:
    r = np.full((m, m), float(rho))
    np.fill_diagonal(r, 1.0)
    return r


# ---------------------------------------------------------------------------
# scenario generator (independent re-derivation of the seeding contract)


def splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def replication_seed(seed: int, replication: int) -> int:
    if replication == 0:
        return seed & MASK64
    return (seed ^ splitmix64(replication)) & MASK64


def cluster_rng(rep_seed: int, index: int) -> np.random.Generator:
    tag = (index & MASK64) << 3
    lo = splitmix64(rep_seed ^ splitmix64(tag))
    hi = splitmix64((rep_seed + GOLDEN) ^ splitmix64(tag ^ MASK64))
    return np.random.Generator(np.random.Philox(key=(hi << 64) | lo))


def poisson_quantile(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Smallest k with P(K <= k) >= u for K ~ Poisson(mean), elementwise."""
    kmax = 32
    while True:
        ks = np.arange(kmax, dtype=float)[:, None]
        cdf = pdtr(ks, mean[None, :])
        hit = cdf >= u[None, :]
        if hit[-1].all():
            return np.argmax(hit, axis=0).astype(float)
        kmax *= 2


def generate(scenario: dict, replication: int, n: int):
    """Clusters 1..n of one replication of a constant-size scenario.

    ``scenario`` keys: link, beta0, m, seed, rho (exchangeable truth),
    family (gaussian_link_moments or poisson_log), regressors (kind iid or
    feedback, loc, scale, gain). Returns (X, Y).
    """
    link, m = scenario["link"], int(scenario["m"])
    beta0 = np.asarray(scenario["beta0"], dtype=float)
    p = beta0.shape[0]
    reg = scenario["regressors"]
    chol = np.linalg.cholesky(exchangeable(scenario["rho"], m))
    rep_seed = replication_seed(int(scenario["seed"]), replication)
    X = np.empty((n, m, p))
    Y = np.empty((n, m))
    prev_y_mean = 0.0
    for i in range(1, n + 1):
        rng = cluster_rng(rep_seed, i)
        if reg["kind"] == "feedback":
            base = reg["loc"] + reg["gain"] * prev_y_mean
        elif reg["kind"] == "iid":
            base = reg["loc"]
        else:
            raise ValueError(f"unsupported regressor process {reg['kind']!r}")
        x = base + reg["scale"] * rng.standard_normal((m, p))
        mean, var = moments(link, x @ beta0)
        z = chol @ rng.standard_normal(m)
        if scenario["family"] == "gaussian_link_moments":
            y = mean + np.sqrt(var) * z
        elif scenario["family"] == "poisson_log":
            y = poisson_quantile(np.clip(ndtr(z), 1e-16, 1.0 - 1e-16), mean)
        else:
            raise ValueError(f"unsupported family {scenario['family']!r}")
        X[i - 1] = x
        Y[i - 1] = y
        prev_y_mean = float(np.mean(y))
    return X, Y


# ---------------------------------------------------------------------------
# proxies and the estimating function


def pseudo_proxies(X, Y, beta, link: str) -> np.ndarray:
    """Per-cluster pseudo-likelihood proxies R_{i-1}, shape (n, m, m)."""
    n, m, _ = X.shape
    mu, var = moments(link, X @ beta)
    u = (Y - mu) / np.sqrt(var)
    outer = u[:, :, None] * u[:, None, :]
    # the proxy for cluster i sees clusters 1..i-1 only
    sums = np.concatenate([np.zeros((1, m, m)), np.cumsum(outer, axis=0)[:-1]])
    count = np.arange(n, dtype=float)[:, None, None]
    prior = SHRINK_PRIOR_FACTOR * m
    eps = prior / (count + prior)
    raw = np.where(count > 0, sums / np.maximum(count, 1.0), np.eye(m))
    r = (1.0 - eps) * raw + eps * np.eye(m)
    lam_min = np.linalg.eigvalsh(r)[:, 0]
    if np.any(lam_min < MIN_EIGENVALUE):
        nu = (MIN_EIGENVALUE - lam_min) / np.maximum(1.0 - lam_min, MIN_EIGENVALUE)
        nu = np.maximum(nu, 0.0)[:, None, None]
        r = (1.0 - nu) * r + nu * np.eye(m)
    return r


def proxies(estimator: str, X, Y, beta_fold, link: str) -> np.ndarray:
    """Proxy sequence of a named estimator, shape (n, m, m)."""
    n, m, _ = X.shape
    if estimator == "independence":
        return np.broadcast_to(np.eye(m), (n, m, m))
    if estimator.startswith("exchangeable:"):
        rho = float(estimator.split(":", 1)[1])
        return np.broadcast_to(exchangeable(rho, m), (n, m, m))
    if estimator == "pseudo":
        return pseudo_proxies(X, Y, beta_fold, link)
    raise ValueError(f"no reference proxy for {estimator!r}")


def estimating_function(X, Y, beta, link: str, R):
    """g(beta) and its scale sum_i |C_i r_i| (both shape (p,))."""
    mu, var = moments(link, X @ beta)
    sd = np.sqrt(var)
    w = np.linalg.solve(R, ((Y - mu) / sd)[..., None])[..., 0]
    terms = np.einsum("nmp,nm->np", X, sd * w)
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def newton_root(X, Y, link: str, R, start) -> np.ndarray:
    """Root of g for a frozen proxy sequence: Newton steps on a central-
    difference Jacobian, halving a step until max |g| decreases."""
    beta = np.asarray(start, dtype=float).copy()
    g, scale = estimating_function(X, Y, beta, link, R)
    for _ in range(60):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= 1e-14 * float(np.max(scale)):
            break
        p = beta.shape[0]
        jac = np.empty((p, p))
        for l in range(p):
            h = 1e-6 * max(1.0, abs(beta[l]))
            e = np.zeros(p)
            e[l] = h
            gp = estimating_function(X, Y, beta + e, link, R)[0]
            gm = estimating_function(X, Y, beta - e, link, R)[0]
            jac[:, l] = (gp - gm) / (2.0 * h)
        step = np.linalg.solve(jac, -g)
        t = 1.0
        for _ in range(40):
            cand = beta + t * step
            g_c, s_c = estimating_function(X, Y, cand, link, R)
            if float(np.max(np.abs(g_c))) < gnorm:
                break
            t *= 0.5
        else:
            break
        beta, g, scale = cand, g_c, s_c
    return beta


def fit_reference(estimator: str, X, Y, link: str, start) -> np.ndarray:
    """Independent root of a named estimator. The pseudo proxy is folded
    at the independence root, then frozen for the refit."""
    beta_ind = newton_root(X, Y, link, proxies("independence", X, Y, None, link), start)
    if estimator == "independence":
        return beta_ind
    R = proxies(estimator, X, Y, beta_ind, link)
    return newton_root(X, Y, link, R, beta_ind)


def sandwich_se(X, Y, beta, link: str, rbar: np.ndarray) -> np.ndarray:
    """Standard errors of the independence estimator when the true
    within-cluster correlation is ``rbar``: sqrt diag(H^-1 V H^-1)."""
    _, var = moments(link, X @ beta)
    sd = np.sqrt(var)
    z = X * sd[..., None]
    h = np.einsum("nmp,nmq->pq", z, z)
    v = np.einsum("nmp,mk,nkq->pq", z, rbar, z)
    hinv = np.linalg.inv(h)
    return np.sqrt(np.diag(hinv @ v @ hinv))


# ---------------------------------------------------------------------------
# condition-report quantities


def h_prime_extremes(X, beta, link: str, checkpoints):
    """Eigenvalue extremes of H'_n = sum_{i<=n} X_i' A_i X_i and the
    largest leverage x' H'_n^{-1} x over rows of clusters 1..n."""
    _, var = moments(link, X @ beta)
    inc = np.einsum("nmp,nm,nmq->npq", X, var, X)
    cum = np.cumsum(inc, axis=0)
    out = []
    for n in checkpoints:
        h = cum[n - 1]
        lam = np.linalg.eigvalsh(h)
        rows = X[:n].reshape(-1, X.shape[2])
        lev = np.einsum("kp,kp->k", rows, np.linalg.solve(h, rows.T).T)
        out.append((float(lam[0]), float(lam[-1]), float(lev.max())))
    return out


def proxy_extremes(estimator: str, X, Y, beta, link: str, checkpoints):
    """Eigenvalue extremes of the proxy for cluster n, which has seen
    clusters 1..n-1."""
    lam = np.linalg.eigvalsh(proxies(estimator, X, Y, beta, link))
    return [(float(lam[n - 1, 0]), float(lam[n - 1, -1])) for n in checkpoints]


# ---------------------------------------------------------------------------
# optimality comparison matrices


def comparison_increments(X, Y, beta, link: str, estimator: str, rbar):
    """Per-cluster summands of h_star, m_bar and m_star on one path.

    With z_i = A_i^{1/2} X_i and v_i = R_i^{-1} z_i:
    h_star = z'v, m_bar = z' Rbar^{-1} z, m_star = v' Rbar v.
    """
    _, var = moments(link, X @ beta)
    z = X * np.sqrt(var)[..., None]
    R = proxies(estimator, X, Y, beta, link)
    v = np.linalg.solve(R, z)
    rbar_inv = np.linalg.inv(rbar)
    return {
        "h_star": np.einsum("nmp,nmq->npq", z, v),
        "m_bar": np.einsum("nmp,mk,nkq->npq", z, rbar_inv, z),
        "m_star": np.einsum("nmp,mk,nkq->npq", v, rbar, v),
    }
