"""Seeded generation of martingale-structured longitudinal data.

Regressors for cluster ``i`` are drawn from history strictly before the
cluster's responses, so the generated estimating functions are martingale
transforms by construction. Every random draw comes from a counter-based
generator keyed by (seed, replication, cluster), which makes dataset
prefixes nested across an ``n`` grid and replications independent.

Because each cluster's draws depend only on its key, ``simulate_scenario``
separates drawing from transforming. Phase 1 derives every cluster's
Philox key in one splitmix64 pass over ``np.uint64`` arrays and takes the
cluster's draws, in the fixed stream order (size, latent innovation, row
jitter, response noise), from one Philox whose state is reset per
cluster. Phase 2 forms regressors, link moments, the domain check and the
responses per cluster-size bucket with stacked ``np.matmul``, whose
per-matrix products equal the per-cluster ones bit for bit; only the
``feedback`` process, whose regressors need the previous responses,
keeps a recursion over clusters. ``substream``, ``regenerate_regressors``
and ``_draw_response`` replay single clusters the per-cluster way.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri, pdtr, pdtrik

from .correlation import _floor_eigenvalues
from .estimating import CorrelationTruth, EstimatingFunction
from .exceptions import ConfigError, MisspecificationWarning, StochGeeError
from .model import Cluster, Dataset, PackedDataset, get_link
from .solver import GeeFit, SolverConfig, solve_gee

#: algorithm identifier embedded in reports for cross-run reproducibility
GENERATOR_ID = (
    "philox4x64-10 (numpy.random.Philox); 128-bit keys from splitmix64 over "
    "(replication seed, cluster index); replication seed = seed xor "
    "splitmix64(replication), replication 0 reuses the scenario seed"
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a documented, portable integer hash."""
    x = (x + _GOLDEN) & _MASK64
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
    hi = splitmix64((rep_seed + _GOLDEN) ^ splitmix64(tag ^ _MASK64))
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


def _poisson_quantile(q, mu):
    """Poisson quantile, bit for bit ``scipy.stats.poisson.ppf`` for q in
    (0, 1) and mu >= 0: scipy's own ``ceil(pdtrik)`` with a ``pdtr``
    back-step, without the argument handling of ``rv_discrete.ppf``
    (whose ``+ loc`` the ``+ 0.0`` keeps: it turns -0.0 into 0.0)."""
    vals = np.ceil(pdtrik(q, mu))
    vals1 = np.maximum(vals - 1.0, 0.0)
    return np.where(pdtr(vals1, mu) >= q, vals1, vals) + 0.0


def _response(family, mean, var, z):
    """Responses from link moments and copula normals ``z``; elementwise,
    so one cluster's vectors and a size bucket's stacks alike."""
    if family == "gaussian_link_moments":
        return mean + np.sqrt(var) * z
    if family == "poisson_log":
        return _poisson_quantile(np.clip(ndtr(z), 1e-16, 1.0 - 1e-16), mean)
    # correlated Bernoulli through the same normal copula; deliberately
    # violates Var = mu' and is flagged as a misspecification scenario
    thresh = ndtri(np.clip(mean, 1e-12, 1.0 - 1e-12))
    return (z <= thresh).astype(float)


def _draw_response(config, rng, mean, var, chol):
    eps = rng.standard_normal(mean.shape[0])
    return _response(config.response_family, mean, var, chol @ eps)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 over a ``np.uint64`` array (array arithmetic wraps mod
    2^64 silently, where scalar ``np.uint64`` overflow warns)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _cluster_keys(rep_seed: int, n: int) -> list:
    """The Philox keys ``[lo, hi]`` that ``substream`` derives for
    clusters 1..n (lane 0), in one array pass."""
    tag = np.arange(1, n + 1, dtype=np.uint64) << np.uint64(3)
    lo = _splitmix64_array(np.uint64(rep_seed) ^ _splitmix64_array(tag))
    hi = _splitmix64_array(
        np.uint64((rep_seed + _GOLDEN) & _MASK64)
        ^ _splitmix64_array(tag ^ np.uint64(_MASK64))
    )
    return np.stack([lo, hi], axis=1).tolist()


def _draw_clusters(config: ScenarioConfig, rep_seed: int, lead: int):
    """Phase 1: every cluster's size and its block of standard normals.

    Cluster i's block is what ``substream(rep_seed, i)`` yields after the
    size draw: ``lead`` latent innovations, the (m_i, p) row jitter and
    the m_i response noises, in stream order. One Philox is reset to each
    cluster's key instead of building a generator per cluster. Returns
    (sizes, starts, draws) with block i at ``draws[starts[i-1]:]``.
    """
    n, p = config.n, config.p
    schedule = config.sizes
    sizes = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.int64)
    draws = np.empty(n * (lead + schedule.max_size * (p + 1)))
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    stop = 0
    for i, key in enumerate(_cluster_keys(rep_seed, n)):
        state["state"]["key"] = key
        bitgen.state = state
        size = schedule.draw(i + 1, rng)
        sizes[i] = size
        starts[i] = stop
        stop += lead + size * (p + 1)
        rng.standard_normal(out=draws[starts[i] : stop])
    return sizes, starts, draws


def _latent_bases(proc: RegressorProcess, innovations: np.ndarray) -> np.ndarray:
    """``loc + u_i`` of the exogenous AR(1) latent state, one row per
    cluster, from the scaled innovations ``scale * z_i``."""
    bases = np.empty_like(innovations)
    latent = np.zeros(innovations.shape[1])
    for i, step in enumerate(innovations):
        latent = proc.phi * latent + step
        bases[i] = proc.loc + latent
    return bases


def _link_domain_error(cluster: int) -> ConfigError:
    return ConfigError(
        f"cluster {cluster}: the regressor process left the link domain",
        field="regressors",
    )


def _outside_domain(x, mean, var):
    """Per cluster of a (..., m, p) stack: do its moments leave the link
    domain?"""
    return (
        (var <= 0).any(-1)
        | ~np.isfinite(mean).all(-1)
        | ~np.isfinite(x).all((-2, -1))
    )


def _feedback_recursion(config, link, x, z, offsets):
    """The feedback process cluster by cluster: cluster i's regressors
    centre on ``gain * mean(y_{i-1})``, so its moments, domain check and
    responses wait for cluster i-1. ``x`` holds the scaled jitter on
    entry and the regressors on exit."""
    proc, beta0 = config.regressors, config.beta0_array
    y = np.empty_like(z)
    prev_y_mean = 0.0
    bounds = offsets.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
        xi = (proc.loc + proc.gain * prev_y_mean) + x[lo:hi]
        x[lo:hi] = xi
        eta = xi @ beta0
        mean, var = link.eval(0, eta), link.eval(1, eta)
        if _outside_domain(xi, mean, var):
            raise _link_domain_error(i)
        y[lo:hi] = yi = _response(config.response_family, mean, var, z[lo:hi])
        prev_y_mean = float(np.mean(yi))
    return y


def simulate_scenario(config: ScenarioConfig, replication: int = 0) -> Dataset:
    """Generate one dataset; identical (config, replication) pairs always
    reproduce identical content.

    Phase 1 takes every cluster's draws (``_draw_clusters``). Phase 2
    works per size bucket: the regressors, ``chol @ eps`` as one stacked
    matmul, the link moments and the domain check, then the responses.
    A cluster whose moments leave the link domain raises ``ConfigError``
    naming the first such cluster, before any response is formed. The
    ``feedback`` process takes its moments and responses in a recursion
    over clusters. The clusters are read-only views into the pack.
    """
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
    proc = config.regressors
    truth = config.truth.template(config.m_max)
    lead = p if proc.kind == "exogenous_ar1" else 0
    sizes, starts, draws = _draw_clusters(config, rep_seed, lead)
    if proc.kind == "exogenous_ar1":
        bases = _latent_bases(proc, proc.scale * draws[starts[:, None] + np.arange(p)])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    x = np.empty((offsets[-1], p))
    z = np.empty(offsets[-1])
    buckets = []
    for size in np.unique(sizes).tolist():
        positions = np.flatnonzero(sizes == size)
        block = draws[starts[positions][:, None] + np.arange(lead + size * (p + 1))]
        xb = proc.scale * block[:, lead : lead + size * p].reshape(-1, size, p)
        if proc.kind == "iid":
            xb = proc.loc + xb
        elif proc.kind == "exogenous_ar1":
            xb = bases[positions][:, None, :] + xb
        eps = np.ascontiguousarray(block[:, lead + size * p :])
        rows = offsets[positions][:, None] + np.arange(size)
        x[rows] = xb
        z[rows] = (np.linalg.cholesky(truth.rbar(size)) @ eps[..., None])[..., 0]
        buckets.append((positions, rows, xb))
    if proc.kind == "feedback":
        y = _feedback_recursion(config, link, x, z, offsets)
    else:
        moments, offenders = [], []
        for positions, _, xb in buckets:
            eta = xb @ beta0
            mean, var = link.eval(0, eta), link.eval(1, eta)
            offenders += positions[_outside_domain(xb, mean, var)][:1].tolist()
            moments.append((mean, var))
        if offenders:
            raise _link_domain_error(min(offenders) + 1)
        y = np.empty_like(z)
        for (_, rows, _), (mean, var) in zip(buckets, moments):
            y[rows] = _response(config.response_family, mean, var, z[rows])
    packed = PackedDataset.of_rows(x, y, sizes)
    bounds = offsets.tolist()
    clusters = tuple(
        Cluster._trusted(i, packed.y[lo:hi], packed.x[lo:hi])
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1)
    )
    dataset = Dataset(clusters, p, config.m_max, link=config.link, beta0=beta0)
    object.__setattr__(dataset, "packed", packed)
    return dataset


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
                yj = _poisson_quantile(np.clip(ndtr(z1), 1e-16, 1 - 1e-16), intensities[j])
                yk = _poisson_quantile(np.clip(ndtr(z2), 1e-16, 1 - 1e-16), intensities[k])
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
