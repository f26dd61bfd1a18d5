"""Seeded generation of martingale-structured longitudinal data.

Regressors for cluster ``i`` are drawn from history strictly before the
cluster's responses, so the generated estimating functions are martingale
transforms by construction. Every random draw comes from a counter-based
generator keyed by (seed, replication, cluster), which makes dataset
prefixes nested across an ``n`` grid and replications independent.

Because each cluster's draws depend only on its key, the simulator
separates drawing from transforming, and it simulates a chunk of
replications in one call (``simulate_replications``; ``simulate_scenario``
is a chunk of one). Phase 1 derives each replication's Philox keys in
one splitmix64 pass over ``np.uint64`` arrays and takes every cluster's
draws, in the fixed stream order (size, latent innovation, row jitter,
response noise), from one Philox whose state is reset per cluster.
Phase 2 forms regressors, link moments, the domain check and the
responses per cluster-size bucket of the whole chunk with stacked
``np.matmul``, whose per-matrix products equal the per-cluster ones bit
for bit. Only the exogenous AR(1) latent state and the ``feedback``
process, whose regressors need the previous responses, keep a recursion
over clusters, and it steps cluster i of every replication of the chunk
at once; the feedback chain keeps only its shifts, Poisson draws and
running means on Python floats per step. So each replication has the
bits it has alone, and a replication that fails, fails alone.
``substream`` gives one cluster's generator the per-cluster way.
Only the copula families need ``scipy.special``; it is imported on their
first draw, or before a study's pool forks, so the gaussian family never
loads SciPy. The Poisson quantile walks the CDF in Python floats and
leaves cdflib's root finder ``pdtrik`` only the elements near a CDF step
or with an intensity outside (0, 20].
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .correlation import _floor_eigenvalues
from .estimating import CorrelationTruth, EstimatingFunction, Lanes, _checkpoints
from .exceptions import ConfigError, MisspecificationWarning, StochGeeError
from .model import Dataset, get_link
from .solver import GeeFit, solve_lanes

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
        for key in ("loc", "scale", "phi", "gain"):
            value = getattr(self, key)
            if not np.isfinite(value):
                msg = f"{key} must be finite, got {value}"
                raise ConfigError(msg, field=f"regressors.{key}")
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
        if not np.isfinite(self.rho):
            raise ConfigError(f"rho must be finite, got {self.rho}", field="truth.rho")

    def template(self, m_max: int) -> CorrelationTruth:
        try:
            return CorrelationTruth.from_kind(self.kind, self.rho, m_max)
        except StochGeeError as exc:
            raise ConfigError(str(exc), field="truth.rho") from None


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
        if self.response_family not in _SAMPLERS:
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

    def with_n(self, n: int) -> "ScenarioConfig":
        return replace(self, n=n)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# generation


@cache
def _scipy_special():
    """``scipy.special``, imported on the first call and kept, so the
    per-cluster draws of the feedback chain run no import statement."""
    import scipy.special

    return scipy.special


#: largest intensity whose quantile ``_poisson_walk`` finds; above it the
#: walk takes more steps than cdflib's root finder costs
_WALK_MU_CAP = 20.0
#: relative distance from a CDF step within which scipy's root finder,
#: not the walk, decides the quantile
_STEP_BAND = 1e-10


def _poisson_walk(q, mu):
    """The smallest k whose walked CDF reaches ``q``, for Python floats,
    or -1 where scipy must decide: ``mu`` outside (0, ``_WALK_MU_CAP``]
    (NaN and inf included), ``q`` outside (0, 1), a walk past
    ``mu + 12 sqrt(mu) + 40`` steps, or ``q`` within ``_STEP_BAND * q`` of
    the CDF at k or at k - 1."""
    if not (0.0 < mu <= _WALK_MU_CAP and 0.0 < q < 1.0):
        return -1
    k = 0
    below = 0.0
    term = cdf = math.exp(-mu)
    while cdf < q:
        k += 1
        # the limit is at least 40, so its square root waits for k > 40
        if k > 40 and k > mu + 12.0 * math.sqrt(mu) + 40.0:
            return -1
        below = cdf
        term *= mu / k
        cdf += term
    band = _STEP_BAND * q
    if cdf - q <= band or q - below <= band:
        return -1
    return k


def _poisson_ppf(q, mu):
    """scipy's own Poisson quantile: ``ceil(pdtrik)`` with a ``pdtr``
    back-step, without the argument handling of ``rv_discrete.ppf``
    (whose ``+ loc`` the ``+ 0.0`` keeps: it turns -0.0 into 0.0)."""
    special = _scipy_special()
    vals = np.ceil(special.pdtrik(q, mu))
    vals1 = np.maximum(vals - 1.0, 0.0)
    return np.where(special.pdtr(vals1, mu) >= q, vals1, vals) + 0.0


def _poisson_quantile(q, mu):
    """Poisson quantile, bit for bit ``scipy.stats.poisson.ppf``, elementwise
    over the broadcast of ``q`` and ``mu``.

    Each element walks the CDF in Python floats (``_poisson_walk``):
    ``term = cdf = exp(-mu)``, then ``term *= mu / k; cdf += term`` up to
    the first k with ``cdf >= q``. After k steps the walked CDF is off by
    a relative (3k + 2) eps at most, about 4e-14 at the step limit for
    ``mu = 20``, and scipy's root finder departs from the exact smallest k
    only within 1.5e-14 of a CDF step. Outside the ``_STEP_BAND`` of 1e-10
    both therefore give the same integer, and ``float(k)`` has the bytes of
    scipy's result. The elements the walk refuses go through
    ``_poisson_ppf`` in one call.
    """
    q, mu = np.asarray(q), np.asarray(mu)
    if q.shape != mu.shape:
        q, mu = np.broadcast_arrays(q, mu)
    ks = list(map(_poisson_walk, q.ravel().tolist(), mu.ravel().tolist()))
    out = np.array(ks, dtype=float)
    if min(ks, default=0) < 0:
        hard = [i for i, k in enumerate(ks) if k < 0]
        out[hard] = _poisson_ppf(q.ravel()[hard], mu.ravel()[hard])
    return out.reshape(q.shape)


def _normals(z):
    return z


def _copula_uniforms(z):
    """The Poisson copula's uniforms, kept off 0 and 1."""
    return np.clip(_scipy_special().ndtr(z), 1e-16, 1.0 - 1e-16)


def _gaussian(mean, var, z):
    return mean + np.sqrt(var) * z


def _poisson(mean, var, u):
    return _poisson_quantile(u, mean)


def _bernoulli(mean, var, z):
    # correlated Bernoulli through the same normal copula; deliberately
    # violates Var = mu' and is flagged as a misspecification scenario
    thresh = _scipy_special().ndtri(np.clip(mean, 1e-12, 1.0 - 1e-12))
    return (z <= thresh).astype(float)


class _Sampler(NamedTuple):
    """A response family's sampler: ``draw(mean, var, noise(z))`` gives
    the responses from the link moments and the copula normals ``z``,
    elementwise. ``noise`` is split off so the feedback chain can form it
    for all rows at once; ``draw`` reads ``var`` only if ``uses_var``."""

    noise: Callable
    draw: Callable
    uses_var: bool


_SAMPLERS = {
    "gaussian_link_moments": _Sampler(_normals, _gaussian, True),
    "poisson_log": _Sampler(_copula_uniforms, _poisson, False),
    "bernoulli_probit_flagged": _Sampler(_normals, _bernoulli, False),
}


def _response(family, mean, var, z):
    """Responses from link moments and copula normals ``z``; elementwise,
    so one cluster's vectors and a size bucket's stacks alike."""
    sampler = _SAMPLERS[family]
    return sampler.draw(mean, var, sampler.noise(z))


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


def _draw_clusters(config: ScenarioConfig, rep_seeds: Sequence[int], lead: int):
    """Phase 1: every cluster's size and its block of standard normals, for
    each replication seed in turn.

    Cluster i of the r-th seed sits at position ``r * n + i - 1``. Its
    block is what ``substream(rep_seed, i)`` yields after the size draw:
    ``lead`` latent innovations, the (m_i, p) row jitter and the m_i
    response noises, in stream order. One Philox is reset to each
    cluster's key instead of building a generator per cluster. Returns
    (sizes, starts, draws) with the block at position q at
    ``draws[starts[q]:]``.
    """
    n, p = config.n, config.p
    schedule = config.sizes
    draws = np.empty(n * len(rep_seeds) * (lead + schedule.max_size * (p + 1)))
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
    sizes = []
    stop = 0
    for rep_seed in rep_seeds:
        for i, key in enumerate(_cluster_keys(rep_seed, n), 1):
            state["state"]["key"] = key
            bitgen.state = state
            size = schedule.draw(i, rng)
            sizes.append(size)
            start, stop = stop, stop + lead + size * (p + 1)
            rng.standard_normal(out=draws[start:stop])
    sizes = np.array(sizes, dtype=np.int64)
    blocks = lead + sizes * (p + 1)
    return sizes, np.cumsum(blocks) - blocks, draws


def _latent_bases(proc: RegressorProcess, innovations: np.ndarray, n: int) -> np.ndarray:
    """``loc + u_i`` of the exogenous AR(1) latent state, one row per
    cluster, from the scaled innovations ``scale * z_i`` of each
    replication's n clusters in turn; the replications step together."""
    steps = innovations.reshape(-1, n, innovations.shape[1]).swapaxes(0, 1)
    bases = np.empty_like(steps)
    latent = np.zeros(steps.shape[1:])
    for i, step in enumerate(steps):
        latent = proc.phi * latent + step
        bases[i] = proc.loc + latent
    return bases.swapaxes(0, 1).reshape(innovations.shape)


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


#: steps of the feedback chain laid out at once; bounds the Python lists
#: that a long path's chain holds
_CHAIN_STEPS = 1 << 12


def _step_layout(sizes: np.ndarray, offsets: np.ndarray, n: int, steps: range) -> tuple:
    """The step-major layout of a chunk's rows at ``steps`` of the
    feedback chain.

    ``sizes`` and ``offsets`` describe the chunk's clusters replication by
    replication, n each. Step i holds cluster i of every replication,
    ordered by size (stably), so that the clusters of one size form a run
    of rows; nothing is padded. Returns the rows in that order and an
    iterator over the runs, in step order, as (lo, hi, m, members): rows
    ``lo:hi`` of the layout hold a size-m cluster of each replication in
    ``members``, in that order.
    """
    reps = sizes.shape[0] // n
    by_size = np.argsort(sizes.reshape(reps, n)[:, steps.start : steps.stop], 0, kind="stable")
    order = (by_size * n + np.arange(steps.start, steps.stop)).T.ravel()
    lens = sizes[order]
    stops = np.cumsum(lens)
    rows = np.repeat(offsets[order] - stops + lens, lens) + np.arange(stops[-1])
    head = np.ones(order.shape[0], dtype=bool)
    head[1:] = lens[1:] != lens[:-1]
    head[::reps] = True
    heads = np.flatnonzero(head)
    ends = np.append(heads[1:], order.shape[0])
    members = (order // n).tolist()
    runs = zip(
        (stops - lens)[heads].tolist(),
        stops[ends - 1].tolist(),
        lens[heads].tolist(),
        [members[a:b] for a, b in zip(heads.tolist(), ends.tolist())],
    )
    return rows, runs


def _array_step(mu, var, draw, eta, noise):
    """One run of the feedback chain on arrays: the linear predictors
    ``eta`` of k clusters of size m, (k, m) or for k = 1 (m,), and their
    copula noise give the clusters' responses, as a flat list, and their
    sums, each ``float(np.add.reduce(y_i))`` to the bit."""
    y = draw(mu(eta), var(eta) if var else None, noise.reshape(eta.shape))
    return y.ravel().tolist(), np.add.reduce(y.reshape(-1, eta.shape[-1]), 1).tolist()


def _poisson_step(mu, array_step, eta, uniforms):
    """``_array_step`` for the Poisson family on Python floats: the walk
    draws the counts from the run's uniforms (a list), and their integer
    sums are exact, so the means divided from them keep the bits. A run
    in which some walk refuses goes through ``array_step``."""
    ks = list(map(_poisson_walk, uniforms, mu(eta).ravel().tolist()))
    if min(ks) < 0:
        return array_step(eta, np.array(uniforms))
    return ks, list(map(sum, zip(*[iter(ks)] * eta.shape[-1])))


def _feedback_recursion(config, link, x, z, offsets):
    """The feedback process over a chunk of replications, each one's n
    clusters in turn in ``offsets``: cluster i's regressors centre on
    ``gain * mean(y_{i-1})`` of its own replication, so its linear
    predictor and responses wait for cluster i-1. The chain steps cluster
    i of every replication at once, in the runs of ``_step_layout``: the
    shift, the linear predictors (one stacked matmul, each cluster's
    product bit for bit its own) and the link mean act on the run's
    stack, while the shifts and the running means stay Python floats.
    The layout and the sampler's noise are formed up front for a block of
    ``_CHAIN_STEPS`` steps at a time; the linear predictors and the domain
    check are left to the caller. ``x`` holds the scaled jitter on entry
    and the regressors on exit. Returns the responses.

    Past a cluster that leaves the link domain a replication's chain
    carries NaN or inf, which the error state keeps from warning, and the
    other replications' chains never see it; the caller's domain check
    names that cluster."""
    proc, beta0, p, n = config.regressors, config.beta0_array, config.p, config.n
    loc, gain = proc.loc, proc.gain
    sizes = np.diff(offsets)
    sampler = _SAMPLERS[config.response_family]
    # the bare derivative, without the argument checks of ``link.eval``
    var = partial(link._eval, 1) if sampler.uses_var else None
    step = partial(_array_step, link.mu, var, sampler.draw)
    lean = config.response_family == "poisson_log"
    if lean:
        step = partial(_poisson_step, link.mu, step)
    shifts = [loc + gain * 0.0] * (sizes.shape[0] // n)
    y = np.empty_like(z)
    for first in range(0, n, _CHAIN_STEPS):
        rows, runs = _step_layout(sizes, offsets, n, range(first, min(first + _CHAIN_STEPS, n)))
        xs, noise, ys = x[rows], sampler.noise(z[rows]), []
        if lean:
            noise = noise.tolist()
        with np.errstate(all="ignore"):
            for lo, hi, m, members in runs:
                # a run of one cluster takes its rows as they are and a
                # float: the stack and its shift array cost about 2.4 us a
                # cluster, 13 % of a one-replication Poisson path at n = 100
                if len(members) == 1:
                    xi = xs[lo:hi]
                    xi += shifts[members[0]]
                else:
                    xi = xs[lo:hi].reshape(-1, m, p)
                    xi += np.array([shifts[r] for r in members])[:, None, None]
                yi, sums = step(xi @ beta0, noise[lo:hi])
                ys += yi
                for r, total in zip(members, sums):
                    shifts[r] = loc + gain * (total / m)
        x[rows], y[rows] = xs, ys
    return y


def _finish(config, x, y, sizes, offsets, outside, r):
    """Replication r of a chunk: its Dataset, or the ConfigError that
    names its first cluster whose moments leave the link domain, failing
    that its first cluster with a non-finite response. The rows become
    the dataset's storage as they are."""
    a, b = r * config.n, (r + 1) * config.n
    if outside[a:b].any():
        return _link_domain_error(int(np.argmax(outside[a:b])) + 1)
    lo, hi = offsets[a], offsets[b]
    bad = ~np.isfinite(y[lo:hi])
    if bad.any():
        first = int(np.argmax(bad))
        cluster = int(np.searchsorted(offsets[a : b + 1] - lo, first, side="right"))
        return ConfigError(
            f"cluster {cluster}: the response sampler gave a non-finite response",
            field="regressors",
        )
    p, m_max, link, beta0 = config.p, config.m_max, config.link, config.beta0_array
    return Dataset._trusted(x[lo:hi], y[lo:hi], sizes[a:b], p, m_max, link=link, beta0=beta0)


def _simulate(config: ScenarioConfig, replications: Sequence[int]) -> list:
    """The chunk's datasets, or their ConfigErrors, in replication order.

    Phase 1 takes every cluster's draws (``_draw_clusters``), the chunk's
    replications one after another. Phase 2 works per size bucket of the
    whole chunk: the regressors, ``chol @ eps`` as one stacked matmul,
    the link moments and the domain check, then the responses. The
    exogenous AR(1) latent states and the ``feedback`` chain
    (``_feedback_recursion``) run over clusters with the replications in
    lockstep. Every step acts on each cluster's own values alone, so each
    replication keeps the bits it has when simulated alone, and a failing
    one fails alone (``_finish``). The warning of the flagged family
    points at the caller of the public function that called this one.
    """
    if config.response_family == "bernoulli_probit_flagged":
        warnings.warn(
            "bernoulli_probit_flagged violates the modelled variance "
            "mu'(x'beta); this is a deliberate misspecification scenario",
            MisspecificationWarning,
            stacklevel=3,
        )
    link = get_link(config.link)
    beta0 = config.beta0_array
    n, p = config.n, config.p
    proc = config.regressors
    truth = config.truth.template(config.m_max)
    lead = p if proc.kind == "exogenous_ar1" else 0
    seeds = [replication_seed(config.seed, r) for r in replications]
    sizes, starts, draws = _draw_clusters(config, seeds, lead)
    if proc.kind == "exogenous_ar1":
        innovations = proc.scale * draws[starts[:, None] + np.arange(p)]
        bases = _latent_bases(proc, innovations, n)
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
        buckets.append((positions, rows))
    if proc.kind == "feedback":
        y = _feedback_recursion(config, link, x, z, offsets)
    else:
        y = np.empty_like(z)
    outside = np.zeros(sizes.shape[0], dtype=bool)
    # a failing replication's moments and responses may be NaN or inf; as
    # in the chain, the error state keeps them from warning, and _finish
    # names the cluster
    with np.errstate(all="ignore"):
        for positions, rows in buckets:
            xb = x[rows]
            eta = xb @ beta0
            mean, var = link.eval(0, eta), link.eval(1, eta)
            outside[positions] = _outside_domain(xb, mean, var)
            if proc.kind != "feedback":
                y[rows] = _response(config.response_family, mean, var, z[rows])
    return [_finish(config, x, y, sizes, offsets, outside, r) for r in range(len(seeds))]


def simulate_replications(config: ScenarioConfig, replications: Sequence[int]) -> list:
    """Simulate several replications of one scenario in one call.

    Entry r is what ``simulate_scenario(config, replications[r])`` gives:
    its Dataset, bit for bit, or the ConfigError it raises, returned in
    place of the dataset so that a failing replication fails alone. The
    replications share phase 2 and step their ``feedback`` chains
    together (``_simulate``).
    """
    return _simulate(config, list(replications))


def simulate_scenario(config: ScenarioConfig, replication: int = 0) -> Dataset:
    """Generate one dataset; identical (config, replication) pairs always
    reproduce identical content.

    A chunk of one replication (``simulate_replications``). A cluster
    whose moments leave the link domain raises ``ConfigError`` naming the
    first such cluster; failing that, so does the first cluster with a
    non-finite response.
    """
    (out,) = _simulate(config, [replication])
    if isinstance(out, ConfigError):
        raise out
    return out


def _chunk_datasets(config: ScenarioConfig, replications: Sequence[int]):
    """The chunk's datasets in replication order, simulated in one call; a
    failing replication raises its ConfigError when it is reached."""
    for out in simulate_replications(config, replications):
        if isinstance(out, ConfigError):
            raise out
        yield out


# ---------------------------------------------------------------------------
# true correlation of non-gaussian samplers (sampled oracle)


def effective_truth(
    config: ScenarioConfig, n_samples: int = 100_000
) -> CorrelationTruth:
    """True-correlation source matched to the response sampler.

    The gaussian family reproduces the target correlation exactly. The
    copula families do not; their per-pair response correlation is
    estimated by sampling at scenario-representative intensities (the mean
    conditional means of the first 200 clusters) and stored as an
    estimate. The estimate treats the marginal means as homogeneous, which
    is the desk-scale compromise for intensity-dependent copula
    correlations.
    """
    truth = config.truth.template(config.m_max)
    if config.response_family == "gaussian_link_moments":
        return truth
    probe = simulate_scenario(config.with_n(min(config.n, 200)))
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
            yj = _response(config.response_family, intensities[j], None, z1)
            yk = _response(config.response_family, intensities[k], None, z2)
            c = np.corrcoef(yj, yk)[0, 1]
            est[j, k] = est[k, j] = c if np.isfinite(c) else 0.0
    # pairwise estimates can drift slightly off PD; blend minimally
    return CorrelationTruth(_floor_eigenvalues(est), is_estimate=True)


# ---------------------------------------------------------------------------
# replication harness


#: replications per task of ``_replicate`` at most; a chunk is simulated
#: in one call, with its feedback chains in lockstep
_CHUNK_REPS = 16
#: rows (clusters times m_max) a chunk may hold; a replication with more
#: is a chunk of its own
_CHUNK_ROWS = 1 << 18
#: what ``_replicate`` asks of a checkpoint grid, with whole-number sizes
_GRID_RULE = "n_grid must be a nonempty nondecreasing list of sizes >= 1"


def _replicate(worker, reps: int, n_grid: Sequence[int], jobs: int, config, *args) -> list:
    """``worker(config, *args, chunk)`` over consecutive chunks of the
    replications 0..reps-1, each worker returning one result per
    replication of its chunk; the results come back in replication order,
    optionally across processes, and order and content are independent
    of the worker count.

    Every ensemble study maps its module-level worker through here, so
    ``reps`` and the checkpoint grid (nonempty, nondecreasing, every
    ``n >= 1``) are checked once, for all of them. A chunk holds
    ``_CHUNK_REPS`` replications, fewer where that would leave some of the
    ``jobs`` processes without a chunk or where their rows would pass
    ``_CHUNK_ROWS``; the pool has at most one process per chunk, and a
    single chunk runs in this process. A worker's exception propagates.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}", field="reps")
    grid = list(n_grid)
    if not grid or grid[0] < 1 or any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{_GRID_RULE}, got {grid}", field="n_grid")
    rows = max(config.n, grid[-1]) * config.m_max
    size = max(1, min(_CHUNK_REPS, -(-reps // max(jobs, 1)), _CHUNK_ROWS // rows))
    chunks = [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    task = partial(worker, config, *args)
    if jobs <= 1 or len(chunks) == 1:
        results = list(map(task, chunks))
    else:
        if config.response_family != "gaussian_link_moments":
            # the forked workers inherit the import instead of each paying it
            # on its first copula draw
            _scipy_special()
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            results = list(pool.map(task, chunks))
    return [res for chunk in results for res in chunk]


def _quartiles(values) -> np.ndarray:
    """The 25th, 50th and 75th percentiles along axis 0, skipping NaN.

    numpy interpolates ``a + (b - a) * t``, which gives NaN next to an
    infinity, or on an entry whose neighbour lies more than the float
    maximum away. Here a percentile that lands on an entry reads that
    entry, one between a value and an infinity reads that infinity (NaN
    between -inf and +inf), and a column of NaN reads NaN without a
    warning. The plain ``np.percentile`` goes first, several times faster
    on a study's few rows; where it reads no NaN, the NaN-aware
    expression would read the same bits.
    """
    a = np.asarray(values, dtype=float)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        q = np.percentile(a, (25.0, 50.0, 75.0), axis=0)
        if not np.isnan(q).any():
            return q
        q, lo, hi = (
            np.nanpercentile(a, (25.0, 50.0, 75.0), axis=0, method=method)
            for method in ("linear", "lower", "higher")
        )
        return np.where(np.isnan(q), np.where(lo == hi, lo, lo + hi), q)


def _run_meta(config: ScenarioConfig, **fields) -> dict:
    """The reproducibility header every output file of a scenario embeds:
    the resolved configuration, its digest and the generator, plus
    ``fields``."""
    return {
        "config": config.to_dict(),
        "scenario_digest": config.digest(),
        **fields,
        "generator": GENERATOR_ID,
    }


@dataclass(frozen=True)
class ReplicationResult:
    """One replication's outputs.

    ``fits`` maps estimator name -> {str(n): fit summary};
    ``first_converged_n`` maps estimator name -> the smallest grid size at
    which the solver converged (a computable stand-in for the random index
    past which roots exist, with no claim of equality).
    """

    replication: int
    digest: str
    fits: dict
    first_converged_n: Optional[dict] = None
    error: Optional[str] = None


def _fit_summary(fit: GeeFit) -> dict:
    return {
        "beta_hat": [float(v) for v in fit.beta_hat],
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "final_residual_norm": float(fit.final_residual_norm),
        "stop_reason": fit.stop_reason,
        "evaluations": int(fit.evaluations),
    }


def _replicate_fits(config, estimators, n_grid, chunk):
    """The only worker that records a replication's failure instead of
    raising. A lane is one (replication, checkpoint) prefix; the chunk's
    lanes are stacked in that order, at most ``_CHUNK_ROWS`` rows a stack,
    and ``solve_lanes`` fits every estimator on each stack in lockstep."""
    sims = simulate_replications(config.with_n(max(n_grid)), chunk)
    lanes = [full.prefix(n) for full in sims if isinstance(full, Dataset) for n in n_grid]
    kinds, fits = [kind for _, kind in estimators], [[] for _ in estimators]
    for stack in _stacks(lanes):
        for per_kind, got in zip(fits, solve_lanes(Lanes(stack), kinds, config.link)):
            per_kind.extend(got)
    out, at = [], 0
    for rep, full in zip(chunk, sims):
        per_kind = [f[at : at + len(n_grid)] for f in fits]
        out.append(_fit_replication(rep, full, estimators, n_grid, per_kind))
        at += len(n_grid) if isinstance(full, Dataset) else 0
    return out


def _stacks(lanes):
    """Consecutive runs of ``lanes`` of at most ``_CHUNK_ROWS`` rows each;
    a larger lane is a run of its own."""
    run, rows = [], 0
    for ds in lanes:
        if run and rows + ds.x.shape[0] > _CHUNK_ROWS:
            yield run
            run, rows = [], 0
        run.append(ds)
        rows += ds.x.shape[0]
    if run:
        yield run


def _fit_replication(rep, full, estimators, n_grid, fits) -> ReplicationResult:
    """Replication ``rep`` from its dataset ``full`` (or the ConfigError its
    simulation gave) and each estimator's fits along the grid. It fails
    with the first error in (estimator, n) order, the one that fitting
    each prefix with ``solve_gee`` in that order raises first."""
    errors = [f for per_n in fits for f in per_n if isinstance(f, Exception)]
    error = full if isinstance(full, ConfigError) else (errors or [None])[0]
    if error is not None:
        return ReplicationResult(rep, "", {}, error=f"{type(error).__name__}: {error}")
    summaries, first = {}, {}
    for (name, _), per_n in zip(estimators, fits):
        summaries[name] = {str(n): _fit_summary(f) for n, f in zip(n_grid, per_n)}
        first[name] = next((n for n, f in zip(n_grid, per_n) if f.converged), None)
    return ReplicationResult(rep, full.digest(), summaries, first_converged_n=first)


def run_replications(
    config: ScenarioConfig,
    reps: int,
    estimators: Sequence,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> list:
    """Fit every estimator at every grid size across seeded replications.

    ``estimators`` is a sequence of (name, EstimatingFunction) pairs.
    Replication ``r`` derives its seed as documented in GENERATOR_ID, and
    dataset prefixes are nested across the grid, so results for common
    clusters share randomness. A chunk's fits run in lockstep
    (``_replicate_fits``), each bit for bit ``solve_gee`` on its prefix.
    A replication records the first error of its fits in (estimator, n)
    order; the other replications are unaffected.
    """
    n_grid = tuple(_checkpoints(n_grid, _GRID_RULE, "n_grid"))
    estimators = list(estimators)
    for name, kind in estimators:
        if not isinstance(kind, EstimatingFunction):
            raise ConfigError(f"estimator {name!r} is not resolved", field="estimators")
    args = (config, estimators, n_grid)
    return _replicate(_replicate_fits, reps, n_grid, jobs, *args)
