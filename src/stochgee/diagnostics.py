"""Finite-sample trajectories of the named asymptotic conditions.

Nothing here proves an almost-sure statement; the reports track the
condition quantities along an ``n`` grid (optionally across a seeded
ensemble) so boundedness, growth, and convergence trends can be read off
at desk scale. Suprema over parameter balls are approximated on a fixed
deterministic lattice, documented in the report metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .correlation import WorkingCorrelationSpec, working_corr
from .estimating import (
    CorrelationTruth,
    EstimatingFunction,
    FrozenProxy,
    _FD_STEP,
    _a2_decide,
    _bucket_proxies,
    _invert_proxies,
    _scheduled_deltas,
    a2_halving_pass,
    det_ratio,
    freeze_proxy,
    information_sums,
    proxy_stack,
    score_increments,
)
from .exceptions import (
    ConfigError,
    InvalidInputError,
    NotPositiveDefiniteError,
    SingularDenominatorError,
)
from .linalg import _fold
from .model import Dataset, as_beta, get_link
from .simulation import (
    GENERATOR_ID,
    ScenarioConfig,
    _chunk_datasets,
    _quartiles,
    _replicate,
    _run_meta,
    replication_seed,
    run_replications,
    splitmix64,
)

_PERTURBATION_TAG = 0x5045525442455441  # distinguishes the schedule stream

#: stacked proxy entries (512 KiB of float64) one block of the lattice fold
#: may hold; a block takes whole points with their central-difference
#: neighbours, at least one point, so with p = 2 and clusters of size 3 the
#: default 25-point lattice is one block up to 57 clusters. Once one point's
#: stacks pass the budget (from 1456 such clusters) a block is that one
#: point whatever its size, so the budget no longer bounds memory
_LATTICE_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DiagnosticsParams:
    """Report knobs: normalizer exponent, ball radii, checkpoint grid.

    The only check of these values: a bad one is a ConfigError naming
    its field."""

    delta: float = 0.25
    r_grid: tuple = (0.5, 0.25, 0.1)
    n_grid: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            msg = f"delta must lie in (0, 1/2], got {self.delta}"
            raise ConfigError(msg, field="delta")
        r = tuple(float(x) for x in self.r_grid)
        finite = all(0 < x < math.inf for x in r)
        if not (r and finite) or any(b >= a for a, b in zip(r, r[1:])):
            msg = "r_grid must be finite, positive and strictly decreasing"
            raise ConfigError(f"{msg}, got {list(r)}", field="r_grid")
        object.__setattr__(self, "r_grid", r)
        if self.n_grid is not None:
            g = tuple(int(x) for x in self.n_grid)
            if not g or any(x < 1 for x in g) or any(b <= a for a, b in zip(g, g[1:])):
                msg = "n_grid must be strictly increasing and >= 1"
                raise ConfigError(f"{msg}, got {list(g)}", field="n_grid")
            object.__setattr__(self, "n_grid", g)


def ball_lattice(center: np.ndarray, radius: float) -> np.ndarray:
    """Deterministic probe points of the ball: the center, 2p axis points
    at the full radius, and the 2^p sign-pattern corners scaled back onto
    the sphere. Shape (2p + 2^p + 1, p)."""
    center = np.asarray(center, dtype=float)
    p = center.shape[0]
    pts = [center]
    for l in range(p):
        e = np.zeros(p)
        e[l] = radius
        pts.append(center + e)
        pts.append(center - e)
    scale = radius / math.sqrt(p)
    for mask in range(2**p):
        signs = np.array([1.0 if mask & (1 << b) else -1.0 for b in range(p)])
        pts.append(center + scale * signs)
    return np.vstack(pts)


@dataclass(frozen=True)
class ConditionReport:
    """Per-n trajectories of every tracked condition quantity.

    ``series`` maps quantity names to per-checkpoint floats (NaN/inf mark
    undefined or diverged entries); ``series_by_r`` holds the radius-
    indexed families. ``meta`` records the lattice construction, the
    generator identifier, and anything else needed to reproduce the run.
    """

    n_grid: tuple
    r_grid: tuple
    delta: float
    series: dict
    series_by_r: dict
    meta: dict

    def to_json_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "r_grid": list(self.r_grid),
            "delta": self.delta,
            "series": {k: [_jsonify(v) for v in vals] for k, vals in self.series.items()},
            "series_by_r": {
                k: {str(r): [_jsonify(v) for v in vals] for r, vals in by_r.items()}
                for k, by_r in self.series_by_r.items()
            },
            "meta": self.meta,
        }


def _jsonify(v):
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def condition_trajectories(
    dataset: Dataset,
    beta_ref,
    link,
    spec: WorkingCorrelationSpec,
    truth: Optional[CorrelationTruth] = None,
    params: Optional[DiagnosticsParams] = None,
) -> ConditionReport:
    """Evaluate every named condition quantity along the checkpoint grid.

    Truth-dependent series (element-wise proxy gap, determinant ratios,
    exact conditional variances) are included only when a true-correlation
    source is supplied; otherwise the variance monitor falls back to the
    plug-in approximation and is flagged in the metadata.
    """
    params = params or DiagnosticsParams()
    beta = as_beta(beta_ref)
    lk = get_link(link)
    n_grid = params.n_grid or (dataset.n,)
    if n_grid[-1] > dataset.n:
        raise InvalidInputError(
            f"n_grid reaches {n_grid[-1]} but the dataset has {dataset.n} clusters"
        )
    delta = params.delta
    plugin_variance = truth is None
    var_truth = truth if truth is not None else CorrelationTruth.plugin(dataset.m_max)
    kind = EstimatingFunction.gee_star(spec)

    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}

    # H'_n as a cumulative sum over the rows, read at the checkpoints
    rows = dataset.x
    w_rows = lk.eval(1, rows @ beta)
    h_cum = np.cumsum(rows[:, :, None] * (rows * w_rows[:, None])[:, None, :], axis=0)
    centre, rstars = _proxies_at(dataset, beta, lk, spec, n_grid)
    # the proxy at the centre, folded once above and inverted once here for
    # the SLLN trace and the information sums
    if centre is None:
        proxy = freeze_proxy(kind, dataset, beta, lk)
    else:
        proxy = _invert_proxies(dataset, _bucket_proxies(dataset, centre))

    series: dict = {
        k: []
        for k in (
            "lambda_min_h_prime",
            "lambda_max_h_prime",
            "lambda_min_rstar",
            "lambda_max_rstar",
            "gamma_prime",
            "a_prime",
            "a_tilde_prime",
            "s_delta_ratio",
            "c0_running_min",
            "c_gamma_h",
        )
    }
    slln = _slln_at(kind, dataset, beta, lk, var_truth, n_grid, delta, proxy)
    series["slln_ratio"] = slln["ratio"]
    series["lambda_min_v"] = slln["lambda_min_v"]
    series["lambda_max_v"] = slln["lambda_max_v"]
    by_r: dict = _curvature_series(dataset, lk, lattices, n_grid)
    by_r["c3"] = {}

    c0_running = math.inf
    seen_nonsingular = False
    for n, rstar in zip(n_grid, rstars):
        n_rows = int(dataset.offsets[n])
        h_prime = h_cum[n_rows - 1]
        lo_h, hi_h = linalg.sym_eigen_extremes(h_prime)
        series["lambda_min_h_prime"].append(lo_h)
        series["lambda_max_h_prime"].append(hi_h)
        gamma = _max_leverage(h_prime, rows[:n_rows])
        series["gamma_prime"].append(gamma)
        a_prime = hi_h * gamma if math.isfinite(gamma) else math.inf
        series["a_prime"].append(a_prime)
        series["a_tilde_prime"].append(
            max(a_prime, a_prime * a_prime) if math.isfinite(a_prime) else math.inf
        )
        if lo_h > 1e-12:
            s_ratio = lo_h / hi_h ** (0.5 + delta)
            seen_nonsingular = True
            c0_running = min(c0_running, s_ratio)
        else:
            s_ratio = math.nan
        series["s_delta_ratio"].append(s_ratio)
        series["c0_running_min"].append(c0_running if seen_nonsingular else math.nan)
        series["c_gamma_h"].append(
            math.sqrt(gamma) * hi_h ** (1.0 - delta)
            if math.isfinite(gamma)
            else math.inf
        )
        lo_r, hi_r = linalg.sym_eigen_extremes(rstar)
        series["lambda_min_rstar"].append(lo_r)
        series["lambda_max_rstar"].append(hi_r)
    if truth is not None:
        rbars = [truth.rbar(int(dataset.sizes[n - 1])) for n in n_grid]
        extremes = [linalg.sym_eigen_extremes(rbar) for rbar in rbars]
        series["lambda_min_rbar"] = [lo for lo, _ in extremes]
        series["lambda_max_rbar"] = [hi for _, hi in extremes]
        series["a1_gap"] = a1_gap(rstars, rbars)

    pi_by_r, d_by_r = _proxy_lattice_quantities(dataset, centre, lk, lattices, n_grid)
    by_r["pi"] = pi_by_r
    by_r["d"] = d_by_r
    for r in params.r_grid:
        by_r["c3"][r] = [
            r * d * hi ** (0.5 - delta)
            for d, hi in zip(d_by_r[r], series["lambda_max_h_prime"])
        ]
    by_r["c4"] = {
        r: [
            n * _power(pi, 2) * at * hi
            for n, pi, at, hi in zip(
                n_grid, pi_by_r[r], series["a_tilde_prime"], series["lambda_max_h_prime"]
            )
        ]
        for r in params.r_grid
    }
    by_r["c5"] = {
        r: [
            n * _power(pi, 4) * _power(d, 2) * hi
            for n, pi, d, hi in zip(
                n_grid, pi_by_r[r], d_by_r[r], series["lambda_max_h_prime"]
            )
        ]
        for r in params.r_grid
    }

    if truth is not None:
        s = information_sums(dataset, beta, lk, spec, truth, n_grid, frozen_corr=proxy)
        for name, key in (("det_ratio_h", "h_star"), ("det_ratio_m", "m_star")):
            series[name] = [_safe_ratio(a, b) for a, b in zip(s[key], s["m_bar"])]

    meta = {
        "spec": spec.kind,
        "link": lk.kind,
        "beta_ref": [float(b) for b in beta],
        "lattice": "center + 2p axis points at radius r + 2^p corners at r/sqrt(p)",
        "plugin_variance": plugin_variance,
        "truth_is_estimate": bool(truth.is_estimate) if truth is not None else None,
        "generator": GENERATOR_ID,
    }
    return ConditionReport(
        n_grid=tuple(n_grid),
        r_grid=params.r_grid,
        delta=delta,
        series=series,
        series_by_r=by_r,
        meta=meta,
    )


def _proxies_at(dataset, beta, link, spec, n_grid) -> tuple:
    """The proxy stack at ``beta`` (None for a data-independent proxy) and
    R_{n-1} at each checkpoint n, read from that stack or the template."""
    if not spec.depends_on_data:
        return None, [working_corr(spec, spec.template_dim)] * len(n_grid)
    centre = proxy_stack(dataset, beta, link)
    return centre, list(centre[np.asarray(n_grid) - 1])


def _slln_at(kind, dataset, beta, link, truth, n_grid, delta, proxy) -> dict:
    """``slln_monitor`` of the martingale g_n and its predictable covariation
    V_n: sums of ``score_increments`` up to each checkpoint, under the
    ``frozen_corr`` ``proxy`` (None folds it at ``beta``)."""
    q_inc, v_inc = score_increments(kind, dataset, beta, link, truth, proxy)
    q_cum, v_cum = np.cumsum(q_inc, axis=0), np.cumsum(v_inc, axis=0)
    return slln_monitor([(q_cum[n - 1], v_cum[n - 1]) for n in n_grid], delta)


def _safe_ratio(num, den):
    try:
        return det_ratio(num, den)
    except SingularDenominatorError:
        return math.nan


def _curvature_series(dataset, lk, lattices, n_grid) -> dict:
    """k2, k3 and eta for each radius: running maxima over the clusters,
    read at the checkpoints; a cluster whose maximum is NaN is skipped.

    eta, the largest |sqrt(mu'(b) / mu'(a)) - 1| over pairs of points,
    comes from the extreme mu' of each row: division and sqrt round
    monotonically. A zero or non-finite mu' makes the row NaN, as the pair
    a = b would, except that a mu' which overflows to +inf, or a row whose
    mu' underflows to 0 at one point and is positive at another, makes the
    cluster's eta inf: the ratio is unbounded there, and a skipped cluster
    would let eta shrink as the radius grows. k2 and k3 skip such a
    cluster (for the log link they are exactly 1).
    """
    out: dict = {k: {} for k in ("k2", "k3", "eta")}
    at = np.asarray(n_grid)
    for r, lattice in lattices.items():
        per_cluster = {k: np.empty(dataset.n) for k in out}
        for b in dataset.buckets:
            d1, d2, d3 = (lk.eval(k, b.x @ lattice.T) for k in (1, 2, 3))
            lo, hi = d1.min(axis=2), d1.max(axis=2)
            positive = np.all((d1 > 0.0) & np.isfinite(d1), axis=2)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                per_cluster["k2"][b.positions] = np.abs(d2 / d1).max(axis=(1, 2))
                per_cluster["k3"][b.positions] = np.abs(d3 / d1).max(axis=(1, 2))
                eta = np.maximum(
                    np.abs(np.sqrt(hi / lo) - 1.0), np.abs(np.sqrt(lo / hi) - 1.0)
                )
            eta = np.where(positive, eta, np.nan).max(1)
            underflow = ((d1 == 0.0).any(axis=2) & (d1 > 0.0).any(axis=2)).any(axis=1)
            eta[np.isposinf(d1).any(axis=(1, 2)) | underflow] = np.inf
            per_cluster["eta"][b.positions] = eta
        for k, v in per_cluster.items():
            out[k][r] = np.fmax.accumulate(np.concatenate(([0.0], v)))[at].tolist()
    return out


def _max_leverage(h_prime, rows):
    try:
        sol = linalg.spd_solve(h_prime, rows.T)
    except NotPositiveDefiniteError:
        return math.inf
    return float(np.max(np.sum(rows * sol.T, axis=1)))


def _power(x: float, k: int) -> float:
    """``x ** k`` of a Python float for an even ``k``; inf where the power
    overflows, as float products do."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def _lattice_matrices(dataset, lk, roots, block):
    """The symmetrized matrices of the lattice at the points of ``block``,
    with bounds of their eigenvalues.

    Each point is folded with its central-difference neighbours, in the
    order point, point + h e_1, point - h e_1, point + h e_2, ..., with
    the steps of ``central_points``. Per cluster-size bucket, ``mats``
    holds the (point, cluster, m, m) stack of sqrt(R) R(point)^{-1}
    sqrt(R), where ``roots`` holds the buckets' sqrt(R) at the centre,
    and the (point, l, cluster, m, m) stack of dR/dbeta_l. ``lower``
    (point, 2, cluster) bounds the eigenvalue that pi, then d, takes from
    below; ``upper`` (point, 1 + p, cluster) bounds that of each matrix
    from above. Both are ``linalg.spectral_bounds``: of the largest
    eigenvalue for q, of the spectral norm for each dR/dbeta_l.
    """

    def sym(m):
        return 0.5 * (m + np.swapaxes(m, -1, -2))

    p = dataset.p
    h = _FD_STEP * np.maximum(1.0, np.abs(block))
    shift = h[:, :, None] * np.eye(p)
    pairs = np.stack((block[:, None] + shift, block[:, None] - shift), axis=2)
    visits = np.concatenate((block[:, None], pairs.reshape(len(block), 2 * p, p)), 1)
    stacks = proxy_stack(dataset, visits.reshape(-1, p), lk)
    stacks = stacks.reshape((len(block), 1 + 2 * p) + stacks.shape[1:])
    diffs = stacks[:, 1::2] - stacks[:, 2::2]
    diffs /= (2.0 * h)[:, :, None, None, None]
    lower = np.empty((len(block), 2, dataset.n))
    upper = np.empty((len(block), 1 + p, dataset.n))
    mats = []
    for b, root in zip(dataset.buckets, roots):
        m, at = b.size, b.positions
        q = sym(root @ np.linalg.inv(stacks[:, 0, at, :m, :m]) @ root)
        dq = sym(diffs[:, :, at, :m, :m])
        mats.append((q, dq))
        lower[:, 0, at], upper[:, 0, at] = linalg.spectral_bounds(q, top=True)
        radius, upper[:, 1:, at] = linalg.spectral_bounds(dq)
        lower[:, 1, at] = _fold(np.maximum, radius, axis=1)
    return mats, lower, upper


def _proxy_lattice_quantities(dataset, centre, lk, lattices, n_grid):
    """pi_n(r) and d_n(r) along the checkpoints; ``centre`` is the proxy
    stack at the centre, or None for a data-independent proxy.

    Data-independent proxies have no parameter dependence: the scaled
    inverse collapses to the identity (pi = 1) and the derivative is zero.
    The data-dependent proxy is folded at every distinct lattice point
    (the centre is shared by all radii) and at each point's
    central-difference neighbours, in blocks of whole points of at most
    ``_LATTICE_BLOCK_ELEMENTS`` stacked entries, each block in one
    ``proxy_stack`` batch; its matrices are inverted as (points, clusters,
    m, m) stacks per cluster-size bucket.

    Each reported value is a running maximum, so only a few matrices can
    set one, and the eigenvalues are screened by the widened bounds of
    ``_lattice_matrices``. A matrix is diagonalized only where its upper
    bound reaches its threshold: for each radius of its point, the largest
    lower bound seen so far among that radius's points and the clusters up
    to the end of its checkpoint segment, and the lowest of these over the
    radii. The thresholds only rise from block to block, so a matrix
    screened out cannot set a maximum; it counts as -inf. A matrix left
    unbounded is never screened out and raises no threshold.
    ``eigvalsh`` gives the same bits on a subset of a stack as on the
    whole, so the series are those of the unscreened fold.
    """
    r_grid = list(lattices)
    if centre is None:
        ones = [1.0] * len(n_grid)
        zeros = [0.0] * len(n_grid)
        return {r: list(ones) for r in r_grid}, {r: list(zeros) for r in r_grid}

    roots = []
    for mats in _bucket_proxies(dataset, centre):
        w, v = np.linalg.eigh(mats)
        root_w = np.sqrt(np.maximum(w, 0.0))[:, None, :]
        roots.append((v * root_w) @ np.swapaxes(v, 1, 2))

    # each radius's points but the centre, then the centre that they all
    # share; it comes last because there every q is the identity up to
    # rounding, so its matrices tie and only the other points' thresholds
    # can screen them. member[k, j]: point j lies on the k-th lattice
    lattice = list(lattices.values())
    size = len(lattice[0]) - 1
    points = np.concatenate([pts[1:] for pts in lattice] + [lattice[0][:1]])
    member = np.zeros((len(r_grid), len(points)), dtype=bool)
    for k in range(len(r_grid)):
        member[k, k * size : (k + 1) * size] = True
    member[:, -1] = True
    last = np.asarray(n_grid) - 1
    # a cluster's checkpoint segment: the first checkpoint that reads it,
    # len(n_grid) past the last one
    segment = np.searchsorted(last, np.arange(dataset.n))
    # floors[k, c, s]: the largest lower bound of quantity c (pi, d) seen
    # so far among the k-th radius's points and the clusters up to
    # checkpoint s; +inf past the last checkpoint, where nothing is read
    floors = np.full((len(r_grid), 2, len(n_grid) + 1), -np.inf)
    floors[..., -1] = np.inf
    # the quantity that each bound of ``upper`` serves: pi for q, then d
    # for each dR/dbeta_l
    quantity = np.minimum(np.arange(1 + dataset.p), 1)

    def screen(lower, upper, rows):
        """Raise the floors by a block's (point, quantity, cluster) lower
        bounds and mark the matrices whose upper bound reaches the
        threshold."""
        on = member[:, rows, None, None]
        seen = np.where(on, lower, -np.inf).max(axis=1)
        seen = np.maximum.accumulate(seen, axis=-1)[..., last]
        np.maximum(floors[..., :-1], seen, out=floors[..., :-1])
        t = np.where(on, floors[:, None], np.inf).min(axis=0)
        t = t[:, quantity][..., segment]
        return ~(upper < t)

    def fold(rows):
        """pi and d at the points of ``rows``, screened; the block's stacks
        die with the call."""
        mats, lower, upper = _lattice_matrices(dataset, lk, roots, points[rows])
        keep = screen(lower, upper, rows)
        for b, (q, dq) in zip(dataset.buckets, mats):
            # the largest eigenvalue of q
            hit = keep[:, 0, b.positions]
            top = np.full(hit.shape, -np.inf)
            if hit.any():
                top[hit] = np.linalg.eigvalsh(q[hit])[:, -1]
            pi[rows, b.positions] = top
            # the largest |eigenvalue| of dR/dbeta_l, over l
            hit = keep[:, 1:, b.positions]
            rad = np.full(hit.shape, -np.inf)
            if hit.any():
                w = np.linalg.eigvalsh(dq[hit])
                rad[hit] = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
            d[rows, b.positions] = _fold(np.maximum, rad, axis=1)

    width = 1 + 2 * dataset.p
    per_block = max(1, _LATTICE_BLOCK_ELEMENTS // (width * centre.size))
    pi = np.empty((len(points), dataset.n))
    d = np.empty((len(points), dataset.n))
    for start in range(0, len(points), per_block):
        fold(slice(start, start + per_block))

    pi_out: dict = {}
    d_out: dict = {}
    for k, r in enumerate(r_grid):
        # running maxima over the clusters, read at the checkpoints
        pi_out[r] = np.maximum.accumulate(pi[member[k]].max(axis=0))[last].tolist()
        d_out[r] = np.maximum.accumulate(d[member[k]].max(axis=0))[last].tolist()
    return pi_out, d_out


# ---------------------------------------------------------------------------
# martingale normalization monitor


def slln_monitor(trace: Sequence, delta: float) -> dict:
    """Normalized martingale magnitudes from a per-n (q, V) trace.

    Returns the trajectory ||q_n|| / lambda_max(V_n)^{1/2+delta} together
    with the eigenvalue extremes of V_n; an entry with lambda_max = 0
    yields NaN (undefined ratio), not an error.
    """
    if not delta > 0:
        raise InvalidInputError("delta must be positive")
    ratios, lo_v, hi_v = [], [], []
    for q, v in trace:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        lo, hi = linalg.sym_eigen_extremes(v)
        lo_v.append(lo)
        hi_v.append(hi)
        ratios.append(
            float(np.linalg.norm(q)) / hi ** (0.5 + delta) if hi > 0 else math.nan
        )
    return {"ratio": ratios, "lambda_min_v": lo_v, "lambda_max_v": hi_v}


def a1_gap(proxy_trajectory: Sequence, truth_trajectory: Sequence) -> list:
    """Per-n max-entry gap between the proxy and the true correlation."""
    proxies = list(proxy_trajectory)
    truths = list(truth_trajectory)
    if len(proxies) != len(truths):
        raise InvalidInputError("trajectory lengths differ")
    out = []
    for a, b in zip(proxies, truths):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        k = min(a.shape[0], b.shape[0])
        out.append(float(np.max(np.abs(a[:k, :k] - b[:k, :k]))))
    return out


# ---------------------------------------------------------------------------
# ensemble studies


def _resolve_specs(specs) -> list:
    """A study's (name, WorkingCorrelationSpec) pairs; anything else raises."""
    out = list(specs)
    for s in out:
        pair = isinstance(s, tuple) and len(s) == 2
        if not (pair and isinstance(s[1], WorkingCorrelationSpec)):
            raise InvalidInputError(f"unresolved spec {s!r}")
    return out


def _optimality_worker(config, specs, n_grid, perturbed, chunk):
    datasets = _chunk_datasets(config.with_n(max(n_grid)), chunk)
    return [
        _optimality_sums(config, specs, n_grid, perturbed, rep, ds)
        for rep, ds in zip(chunk, datasets)
    ]


def _optimality_sums(config, specs, n_grid, perturbed, rep, ds) -> dict:
    """One replication's ``information_sums`` per spec, plain and, with
    ``perturbed``, on the path shifted by the spec's ``a2_schedule``, with
    the count of its violations.

    Each proxy is folded once: the unperturbed one by ``freeze_proxy``,
    shared by the plain sums and the schedule's decisions, and the
    perturbed one by the decisions themselves, whose inverses are the
    shifted dataset's ``FrozenProxy``. The violations are counted from
    the decisions' ``violated`` mask, the clusters ``a2_schedule`` lists;
    the study forms no gap of the inverse proxies, only whether each
    exceeds its target.
    """
    truth = config.truth.template(config.m_max)
    beta_ref, link = config.beta0_array, config.link
    pert_seed = splitmix64(replication_seed(config.seed, rep) ^ _PERTURBATION_TAG)
    # the draws and halvings of the schedule are shared by every spec; they
    # are taken where the first spec's schedule would take them
    halving = None
    out = {}
    for name, spec in specs:
        proxy = freeze_proxy(EstimatingFunction.gee_star(spec), ds, beta_ref, link)
        sums = information_sums(ds, beta_ref, link, spec, truth, n_grid, proxy)
        entry = {"plain": sums}
        if perturbed:
            if halving is None:
                halving = a2_halving_pass(ds, beta_ref, link, pert_seed)
            decided = _a2_decide(halving, spec, frozen_corr=proxy)
            shifted = ds.shifted(_scheduled_deltas(halving, decided.collapsed))
            # the perturbed proxy as the decisions inverted it; a
            # data-independent proxy is the unperturbed one
            frozen = FrozenProxy(shifted, decided.inverses or proxy.inverses)
            entry["perturbed"] = information_sums(
                shifted, beta_ref, link, spec, truth, n_grid, frozen
            )
            entry["a2_violations"] = int(np.count_nonzero(decided.violated))
        out[name] = entry
    return out


#: the comparison matrices an optimality row reads: H*, M-bar and M*
_INFORMATION = ("h_star", "m_bar", "m_star")


@dataclass(frozen=True)
class StudyResult:
    """Tabular study output: one dict per row plus reproducibility meta."""

    rows: tuple
    meta: dict


def optimality_study(
    config: ScenarioConfig,
    specs: Sequence,
    reps: int,
    n_grid: Sequence[int],
    perturbed: bool = False,
    jobs: int = 1,
) -> StudyResult:
    """Determinant ratios of ensemble-mean information matrices per proxy.

    Requires a scenario whose true correlation is known in closed form
    (the gaussian response family). With ``perturbed`` the geometric
    misspecification schedule is layered on and the perturbed ratios are
    reported alongside.
    """
    if config.response_family != "gaussian_link_moments":
        raise ConfigError(
            "optimality studies need the exactly-known truth of the "
            "gaussian_link_moments family",
            field="response_family",
        )
    n_grid = sorted(int(n) for n in n_grid)
    specs = _resolve_specs(specs)
    args = (config, specs, tuple(n_grid), perturbed)
    results = _replicate(_optimality_worker, reps, n_grid, jobs, *args)
    rows = []
    total_violations = 0
    for name, _ in specs:
        entries = [res[name] for res in results]
        # the replications' checkpoint sums, added in replication order, with
        # the column suffix of each variant
        sums = [
            (suffix, {k: sum(e[variant][k] for e in entries) for k in _INFORMATION})
            for variant, suffix in (("plain", ""), ("perturbed", "_perturbed"))
            if variant in entries[0]
        ]
        for gi, n in enumerate(n_grid):
            row = {"spec": name, "n": n}
            for suffix, acc in sums:
                h, m_bar, m = (acc[k][gi] for k in _INFORMATION)
                row["det_ratio_h" + suffix] = det_ratio(h, m_bar)
                row["det_ratio_m" + suffix] = det_ratio(m, m_bar)
            rows.append(row)
        if perturbed:
            total_violations += sum(e["a2_violations"] for e in entries)
    meta = _run_meta(
        config,
        reps=reps,
        n_grid=list(n_grid),
        perturbed=perturbed,
        a2_violations=total_violations if perturbed else None,
    )
    return StudyResult(rows=tuple(rows), meta=meta)


def consistency_study(
    config: ScenarioConfig,
    estimators: Sequence,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> StudyResult:
    """Estimation-error quartiles and convergence rates along the grid.

    ``estimators`` is a sequence of (name, EstimatingFunction) pairs; see
    ``run_replications`` for the seeding and nesting contract. Failed
    replications are tallied, never fatal.
    """
    n_grid = sorted(int(n) for n in n_grid)
    results = run_replications(config, reps, estimators, n_grid, jobs=jobs)
    used = [r for r in results if r.error is None]
    beta0 = config.beta0_array
    rows = []
    for name, _ in estimators:
        fits = [[r.fits[name][str(n)] for n in n_grid] for r in used]
        errs = [
            [float(np.linalg.norm(np.asarray(f["beta_hat"]) - beta0)) for f in per_n]
            for per_n in fits
        ]
        # with no replication left, every entry reads NaN
        nans = [math.nan] * len(n_grid)
        quartiles = _quartiles(errs or [nans])
        converged = [[f["converged"] for f in per_n] for per_n in fits]
        fractions = np.mean(converged, axis=0) if fits else nans
        for n, (q1, med, q3), frac in zip(n_grid, quartiles.T, fractions):
            rows.append(
                {
                    "estimator": name,
                    "n": n,
                    "median_err": float(med),
                    "q1_err": float(q1),
                    "q3_err": float(q3),
                    "converged_fraction": float(frac),
                    "replications_used": len(fits),
                }
            )
    meta = _run_meta(
        config, reps=reps, n_grid=list(n_grid), failures=len(results) - len(used)
    )
    return StudyResult(rows=tuple(rows), meta=meta)


def _a1_worker(config, specs, n_grid, chunk):
    truth = config.truth.template(config.m_max)
    out = []
    for ds in _chunk_datasets(config.with_n(max(n_grid)), chunk):
        rbars = [truth.rbar(int(ds.sizes[n - 1])) for n in n_grid]
        gaps: dict = {}
        for name, spec in specs:
            _, rstars = _proxies_at(ds, config.beta0_array, config.link, spec, n_grid)
            gaps[name] = a1_gap(rstars, rbars)
        out.append(gaps)
    return out


def a1_gap_study(
    config: ScenarioConfig,
    specs: Sequence,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> StudyResult:
    """Median element-wise proxy-vs-truth gaps across replications."""
    n_grid = sorted(int(n) for n in n_grid)
    specs = _resolve_specs(specs)
    results = _replicate(_a1_worker, reps, n_grid, jobs, config, specs, tuple(n_grid))
    rows = []
    for name, _ in specs:
        quartiles = _quartiles([res[name] for res in results])
        for gi, n in enumerate(n_grid):
            q1, med, q3 = quartiles[:, gi]
            rows.append(
                {
                    "spec": name,
                    "n": n,
                    "median_gap": float(med),
                    "q1_gap": float(q1),
                    "q3_gap": float(q3),
                }
            )
    meta = _run_meta(config, reps=reps, n_grid=list(n_grid))
    return StudyResult(rows=tuple(rows), meta=meta)


def _slln_worker(config, kind, delta, n_grid, chunk):
    truth, beta = config.truth.template(config.m_max), config.beta0_array
    out = []
    for ds in _chunk_datasets(config.with_n(max(n_grid)), chunk):
        slln = _slln_at(kind, ds, beta, config.link, truth, n_grid, delta, None)
        out.append((slln["ratio"], slln["lambda_min_v"]))
    return out


def slln_decay_study(
    config: ScenarioConfig,
    kind: EstimatingFunction,
    delta: float,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> StudyResult:
    """Medians of the normalized martingale ratio along the grid."""
    if not delta > 0:
        raise ConfigError("delta must be positive", field="delta")
    n_grid = sorted(int(n) for n in n_grid)
    args = (config, kind, delta, tuple(n_grid))
    results = _replicate(_slln_worker, reps, n_grid, jobs, *args)
    ratios = _quartiles([r[0] for r in results])[1]
    lo_vs = _quartiles([r[1] for r in results])[1]
    rows = [
        {"n": n, "median_ratio": float(ratio), "median_lambda_min_v": float(lo_v)}
        for n, ratio, lo_v in zip(n_grid, ratios, lo_vs)
    ]
    meta = _run_meta(config, reps=reps, n_grid=list(n_grid), delta=delta)
    return StudyResult(rows=tuple(rows), meta=meta)
