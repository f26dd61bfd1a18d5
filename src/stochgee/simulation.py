"""Seeded generation of martingale-structured longitudinal data.

Regressors for cluster ``i`` are drawn from history strictly before the
cluster's responses, so the generated estimating functions are martingale
transforms by construction. Every random draw comes from a counter-based
generator keyed by (seed, replication, cluster), which makes dataset
prefixes nested across an ``n`` grid and replications independent.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import poisson as _poisson

from .correlation import _floor_eigenvalues
from .estimating import CorrelationTruth, EstimatingFunction
from .exceptions import ConfigError, MisspecificationWarning, StochGeeError
from .model import Cluster, Dataset, get_link
from .solver import GeeFit, SolverConfig, solve_gee

#: algorithm identifier embedded in reports for cross-run reproducibility
GENERATOR_ID = (
    "philox4x64-10 (numpy.random.Philox); 128-bit keys from splitmix64 over "
    "(replication seed, cluster index); replication seed = seed xor "
    "splitmix64(replication), replication 0 reuses the scenario seed"
)

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a documented, portable integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replication_seed(seed: int, replication: int) -> int:
    """seed xor splitmix64(r), with replication 0 mapping to the seed itself
    so a one-replication ensemble reproduces the plain scenario stream."""
    if replication == 0:
        return seed & _MASK64
    return (seed ^ splitmix64(replication)) & _MASK64


def substream(rep_seed: int, cluster_index: int, lane: int = 0) -> np.random.Generator:
    """Counter-based generator for one cluster's draws."""
    tag = ((cluster_index & _MASK64) << 3) ^ (lane & 0x7)
    lo = splitmix64(rep_seed ^ splitmix64(tag))
    hi = splitmix64((rep_seed + 0x9E3779B97F4A7C15) ^ splitmix64(tag ^ _MASK64))
    return np.random.Generator(np.random.Philox(key=(hi << 64) | lo))


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class SizeSchedule:
    """How cluster sizes evolve: constant, cyclic, or uniform random."""

    kind: str = "constant"
    m: int = 1
    sizes: tuple = ()
    lo: int = 1
    hi: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "cyclic", "random"):
            raise ConfigError(f"unknown size schedule kind {self.kind!r}", field="sizes.kind")
        if self.kind == "constant" and self.m < 1:
            raise ConfigError("constant size must be >= 1", field="sizes.m")
        if self.kind == "cyclic":
            if not self.sizes or any(s < 1 for s in self.sizes):
                raise ConfigError("cyclic sizes must be a nonempty list of >= 1", field="sizes.sizes")
            object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.kind == "random" and not 1 <= self.lo <= self.hi:
            raise ConfigError("random sizes need 1 <= lo <= hi", field="sizes.lo")

    @property
    def max_size(self) -> int:
        if self.kind == "constant":
            return self.m
        if self.kind == "cyclic":
            return max(self.sizes)
        return self.hi

    def draw(self, index: int, rng: np.random.Generator) -> int:
        if self.kind == "constant":
            return self.m
        if self.kind == "cyclic":
            return self.sizes[(index - 1) % len(self.sizes)]
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class RegressorProcess:
    """Regressor dynamics across clusters.

    iid:            x_ij = loc + scale * w_ij
    exogenous_ar1:  u_i = phi * u_{i-1} + scale * z_i (latent, per coordinate);
                    x_ij = loc + u_i + scale * w_ij
    feedback:       x_ij = loc + gain * mean(y_{i-1}) + scale * w_ij
    """

    kind: str = "iid"
    loc: float = 0.0
    scale: float = 1.0
    phi: float = 0.0
    gain: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "exogenous_ar1", "feedback"):
            raise ConfigError(
                f"unknown regressor process {self.kind!r}", field="regressors.kind"
            )
        if self.scale < 0:
            raise ConfigError("scale must be nonnegative", field="regressors.scale")
        if self.kind == "exogenous_ar1" and not abs(self.phi) < 1:
            raise ConfigError("|phi| < 1 is required", field="regressors.phi")


@dataclass(frozen=True)
class TruthSpec:
    """Target within-cluster correlation of the response sampler."""

    kind: str = "independence"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("independence", "exchangeable", "ar1"):
            raise ConfigError(f"unknown truth kind {self.kind!r}", field="truth.kind")

    def template(self, m_max: int) -> CorrelationTruth:
        try:
            return CorrelationTruth.from_kind(self.kind, self.rho, m_max)
        except StochGeeError as exc:
            raise ConfigError(str(exc), field="truth.rho") from None


_FAMILIES = ("gaussian_link_moments", "poisson_log", "bernoulli_probit_flagged")


@dataclass(frozen=True)
class ScenarioConfig:
    link: str = "identity"
    beta0: tuple = (0.0,)
    n: int = 100
    m_max: int = 1
    sizes: SizeSchedule = field(default_factory=SizeSchedule)
    regressors: RegressorProcess = field(default_factory=RegressorProcess)
    truth: TruthSpec = field(default_factory=TruthSpec)
    response_family: str = "gaussian_link_moments"
    seed: int = 0

    def __post_init__(self):
        if self.link not in ("identity", "log", "probit"):
            raise ConfigError(f"unknown link {self.link!r}", field="link")
        beta0 = tuple(float(b) for b in self.beta0)
        if not beta0 or not all(np.isfinite(beta0)):
            raise ConfigError("beta0 must be a nonempty finite vector", field="beta0")
        object.__setattr__(self, "beta0", beta0)
        if self.n < 1:
            raise ConfigError("n must be >= 1", field="n")
        if self.m_max < self.sizes.max_size:
            raise ConfigError(
                f"m_max {self.m_max} smaller than the schedule maximum "
                f"{self.sizes.max_size}",
                field="m_max",
            )
        if self.response_family not in _FAMILIES:
            raise ConfigError(
                f"unknown response family {self.response_family!r}",
                field="response_family",
            )
        if self.response_family == "poisson_log" and self.link != "log":
            raise ConfigError("poisson_log requires the log link", field="link")
        if self.response_family == "bernoulli_probit_flagged" and self.link != "probit":
            raise ConfigError(
                "bernoulli_probit_flagged requires the probit link", field="link"
            )
        if not 0 <= int(self.seed) <= _MASK64:
            raise ConfigError("seed must fit in 64 bits", field="seed")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def p(self) -> int:
        return len(self.beta0)

    @property
    def beta0_array(self) -> np.ndarray:
        return np.asarray(self.beta0, dtype=float)

    def _replace(self, **kw) -> "ScenarioConfig":
        base = dict(
            link=self.link,
            beta0=self.beta0,
            n=self.n,
            m_max=self.m_max,
            sizes=self.sizes,
            regressors=self.regressors,
            truth=self.truth,
            response_family=self.response_family,
            seed=self.seed,
        )
        base.update(kw)
        return ScenarioConfig(**base)

    def with_n(self, n: int) -> "ScenarioConfig":
        return self._replace(n=n)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return self._replace(seed=seed)

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# generation


def _draw_regressors(proc, rng, size, p, latent, prev_y_mean):
    """One cluster's regressor matrix plus the updated latent state.

    Draw order within the cluster stream is fixed (latent innovation
    first, then the row jitter) so prefixes can be replayed exactly.
    """
    if proc.kind == "exogenous_ar1":
        latent = proc.phi * latent + proc.scale * rng.standard_normal(p)
        base = proc.loc + latent
    elif proc.kind == "feedback":
        base = proc.loc + proc.gain * prev_y_mean
    else:
        base = proc.loc
    x = base + proc.scale * rng.standard_normal((size, p))
    return x, latent


def _draw_response(config, rng, mean, var, chol):
    m = mean.shape[0]
    eps = rng.standard_normal(m)
    z = chol @ eps
    if config.response_family == "gaussian_link_moments":
        return mean + np.sqrt(var) * z
    if config.response_family == "poisson_log":
        u = np.clip(ndtr(z), 1e-16, 1.0 - 1e-16)
        return _poisson.ppf(u, mean).astype(float)
    # correlated Bernoulli through the same normal copula; deliberately
    # violates Var = mu' and is flagged as a misspecification scenario
    thresh = ndtri(np.clip(mean, 1e-12, 1.0 - 1e-12))
    return (z <= thresh).astype(float)


def simulate_scenario(config: ScenarioConfig, replication: int = 0) -> Dataset:
    """Generate one dataset; identical (config, replication) pairs always
    reproduce identical content."""
    if config.response_family == "bernoulli_probit_flagged":
        warnings.warn(
            "bernoulli_probit_flagged violates the modelled variance "
            "mu'(x'beta); this is a deliberate misspecification scenario",
            MisspecificationWarning,
            stacklevel=2,
        )
    rep_seed = replication_seed(config.seed, replication)
    link = get_link(config.link)
    beta0 = config.beta0_array
    p = config.p
    truth = config.truth.template(config.m_max)
    chol_by_size: dict = {}
    latent = np.zeros(p)
    prev_y_mean = 0.0
    clusters = []
    for i in range(1, config.n + 1):
        rng = substream(rep_seed, i)
        size = config.sizes.draw(i, rng)
        x, latent = _draw_regressors(
            config.regressors, rng, size, p, latent, prev_y_mean
        )
        eta = x @ beta0
        mean = link.eval(0, np.atleast_1d(eta))
        var = link.eval(1, np.atleast_1d(eta))
        if (
            np.any(var <= 0)
            or not np.all(np.isfinite(mean))
            or not np.all(np.isfinite(x))
        ):
            raise ConfigError(
                f"cluster {i}: the regressor process left the link domain",
                field="regressors",
            )
        chol = chol_by_size.get(size)
        if chol is None:
            chol = np.linalg.cholesky(truth.rbar(size))
            chol_by_size[size] = chol
        y = _draw_response(config, rng, mean, var, chol)
        clusters.append(Cluster._trusted(i, np.atleast_1d(y), x))
        prev_y_mean = float(np.mean(y))
    return Dataset(
        tuple(clusters),
        p,
        config.m_max,
        link=config.link,
        beta0=beta0,
    )


def regenerate_regressors(
    config: ScenarioConfig,
    replication: int,
    history: Sequence[Cluster],
    index: int,
) -> np.ndarray:
    """Replay X_index from the seed and the stored history prefix.

    Demonstrates predictability: the regressors of cluster ``index`` are a
    deterministic function of the seed and clusters 1..index-1.
    """
    if index < 1 or index > len(history) + 1:
        raise ConfigError(
            f"index {index} needs a history of at least {index - 1} clusters",
            field="index",
        )
    rep_seed = replication_seed(config.seed, replication)
    p = config.p
    latent = np.zeros(p)
    for i in range(1, index + 1):
        rng = substream(rep_seed, i)
        size = config.sizes.draw(i, rng)
        prev_y_mean = float(np.mean(history[i - 2].response)) if i > 1 else 0.0
        x, latent = _draw_regressors(
            config.regressors, rng, size, p, latent, prev_y_mean
        )
    return x


# ---------------------------------------------------------------------------
# true correlation of non-gaussian samplers (sampled oracle)


def effective_truth(
    config: ScenarioConfig,
    n_samples: int = 100_000,
    probe_clusters: int = 200,
) -> CorrelationTruth:
    """True-correlation source matched to the response sampler.

    The gaussian family reproduces the target correlation exactly. The
    copula families do not; their per-pair response correlation is
    estimated by sampling at scenario-representative intensities (the mean
    conditional means of a probe prefix) and stored as an estimate. The
    estimate treats the marginal means as homogeneous, which is the
    desk-scale compromise for intensity-dependent copula correlations.
    """
    truth = config.truth.template(config.m_max)
    if config.response_family == "gaussian_link_moments":
        return truth
    probe = simulate_scenario(config.with_n(min(config.n, probe_clusters)))
    by_pos = np.zeros(config.m_max)
    counts = np.zeros(config.m_max)
    link = get_link(config.link)
    beta0 = config.beta0_array
    for c in probe.clusters:
        mu = link.eval(0, np.atleast_1d(c.regressors @ beta0))
        by_pos[: c.size] += mu
        counts[: c.size] += 1
    intensities = by_pos / np.maximum(counts, 1.0)
    rng = substream(replication_seed(config.seed, 0), 0, lane=7)
    m = config.m_max
    est = np.eye(m)
    for j in range(m):
        for k in range(j + 1, m):
            rho = float(truth.template[j, k])
            z1 = rng.standard_normal(n_samples)
            z2 = rho * z1 + np.sqrt(max(1.0 - rho * rho, 0.0)) * rng.standard_normal(
                n_samples
            )
            if config.response_family == "poisson_log":
                yj = _poisson.ppf(np.clip(ndtr(z1), 1e-16, 1 - 1e-16), intensities[j])
                yk = _poisson.ppf(np.clip(ndtr(z2), 1e-16, 1 - 1e-16), intensities[k])
            else:
                yj = (z1 <= ndtri(np.clip(intensities[j], 1e-12, 1 - 1e-12))).astype(float)
                yk = (z2 <= ndtri(np.clip(intensities[k], 1e-12, 1 - 1e-12))).astype(float)
            c = np.corrcoef(yj, yk)[0, 1]
            est[j, k] = est[k, j] = c if np.isfinite(c) else 0.0
    # pairwise estimates can drift slightly off PD; blend minimally
    return CorrelationTruth(_floor_eigenvalues(est), is_estimate=True)


# ---------------------------------------------------------------------------
# replication harness


@dataclass(frozen=True)
class ReplicationResult:
    """One replication's outputs.

    ``fits`` maps estimator name -> {str(n): fit summary};
    ``first_converged_n`` maps estimator name -> the smallest grid size at
    which the solver converged (a computable stand-in for the random index
    past which roots exist, with no claim of equality). ``trajectories``
    is filled by diagnostic ensembles that request condition reports.
    """

    replication: int
    digest: str
    fits: dict
    first_converged_n: Optional[dict] = None
    trajectories: Optional[dict] = None
    error: Optional[str] = None


def _fit_summary(fit: GeeFit) -> dict:
    return {
        "beta_hat": [float(v) for v in fit.beta_hat],
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "final_residual_norm": float(fit.final_residual_norm),
    }


def _replicate_fits(args) -> ReplicationResult:
    config, rep, estimators, n_grid, solver_config = args
    try:
        full = simulate_scenario(config.with_n(max(n_grid)), rep)
        fits: dict = {}
        first_conv: dict = {}
        for name, kind in estimators:
            per_n = {}
            first = None
            for n in n_grid:
                fit = solve_gee(full.prefix(n), kind, config.link, solver_config)
                per_n[str(n)] = _fit_summary(fit)
                if first is None and fit.converged:
                    first = n
            fits[name] = per_n
            first_conv[name] = first
        return ReplicationResult(rep, full.digest(), fits, first_converged_n=first_conv)
    except (StochGeeError, np.linalg.LinAlgError) as exc:
        return ReplicationResult(rep, "", {}, error=f"{type(exc).__name__}: {exc}")


def parallel_map(worker, payloads, jobs: int):
    """Ordered map, optionally across processes; output order and content
    are independent of the worker count."""
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(a) for a in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(payloads) // (4 * jobs))
        return list(pool.map(worker, payloads, chunksize=chunk))


def run_replications(
    config: ScenarioConfig,
    reps: int,
    estimators: Sequence,
    n_grid: Sequence[int],
    jobs: int = 1,
    solver_config: Optional[SolverConfig] = None,
) -> list:
    """Fit every estimator at every grid size across seeded replications.

    ``estimators`` is a sequence of (name, EstimatingFunction) pairs.
    Replication ``r`` derives its seed as documented in GENERATOR_ID, and
    dataset prefixes are nested across the grid, so results for common
    clusters share randomness. Failures are recorded per replication.
    """
    if reps < 1:
        raise ConfigError("replication count must be >= 1", field="reps")
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b < a for a, b in zip(n_grid, n_grid[1:])) or n_grid[0] < 1:
        raise ConfigError("n_grid must be nondecreasing and >= 1", field="n_grid")
    estimators = list(estimators)
    for name, kind in estimators:
        if not isinstance(kind, EstimatingFunction):
            raise ConfigError(f"estimator {name!r} is not resolved", field="estimators")
    solver_config = solver_config or SolverConfig()
    payloads = [
        (config, rep, estimators, tuple(n_grid), solver_config) for rep in range(reps)
    ]
    return parallel_map(_replicate_fits, payloads, jobs)
