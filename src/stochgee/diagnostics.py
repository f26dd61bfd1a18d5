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
    _bucket_proxies,
    a2_schedule,
    central_points,
    corr_trajectory,
    det_ratio,
    path_information_increments,
    proxy_stack,
    score_increments,
)
from .exceptions import (
    ConfigError,
    InvalidInputError,
    NotPositiveDefiniteError,
    SingularDenominatorError,
)
from .model import Dataset, as_beta, get_link
from .simulation import (
    GENERATOR_ID,
    ScenarioConfig,
    parallel_map,
    replication_seed,
    run_replications,
    simulate_scenario,
    splitmix64,
)

_PERTURBATION_TAG = 0x5045525442455441  # distinguishes the schedule stream

#: stacked proxy entries (512 KiB of float64) one block of the lattice fold
#: may hold; a block takes whole points with their central-difference
#: neighbours, at least one point, so with p = 2 and clusters of size 3 the
#: default 25-point lattice is one block up to 57 clusters
_LATTICE_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DiagnosticsParams:
    """Report knobs: normalizer exponent, ball radii, checkpoint grid."""

    delta: float = 0.25
    r_grid: tuple = (0.5, 0.25, 0.1)
    n_grid: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise InvalidInputError("delta must lie in (0, 1/2]")
        r = tuple(float(x) for x in self.r_grid)
        if not r or any(x <= 0 for x in r) or any(b >= a for a, b in zip(r, r[1:])):
            raise InvalidInputError("r_grid must be positive and strictly decreasing")
        object.__setattr__(self, "r_grid", r)
        if self.n_grid is not None:
            g = tuple(int(x) for x in self.n_grid)
            if not g or any(x < 1 for x in g) or any(b <= a for a, b in zip(g, g[1:])):
                raise InvalidInputError("n_grid must be strictly increasing and >= 1")
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
    kind = (
        EstimatingFunction.independence()
        if spec.kind == "identity"
        else EstimatingFunction.gee_star(spec)
    )

    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}

    # the martingale g_n, its predictable covariation V_n and H'_n as
    # cumulative sums, read at the checkpoints; H' accumulates row by row
    q_inc, v_inc = score_increments(kind, dataset, beta, lk, var_truth)
    q_cum, v_cum = np.cumsum(q_inc, axis=0), np.cumsum(v_inc, axis=0)
    rows = dataset.x
    w_rows = lk.eval(1, rows @ beta)
    h_cum = np.cumsum(rows[:, :, None] * (rows * w_rows[:, None])[:, None, :], axis=0)
    # R_{n-1} at each checkpoint n: read from the stack of a data-dependent proxy
    centre = proxy_stack(dataset, beta, lk) if spec.depends_on_data else None
    if centre is not None:
        rstars = list(centre[np.asarray(n_grid) - 1])
    else:
        rstars = [working_corr(spec, None, spec.template_dim, beta)] * len(n_grid)

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
    slln = slln_monitor([(q_cum[n - 1], v_cum[n - 1]) for n in n_grid], delta)
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
            n * (pi**2) * at * hi
            for n, pi, at, hi in zip(
                n_grid, pi_by_r[r], series["a_tilde_prime"], series["lambda_max_h_prime"]
            )
        ]
        for r in params.r_grid
    }
    by_r["c5"] = {
        r: [
            n * (pi**4) * (d**2) * hi
            for n, pi, d, hi in zip(
                n_grid, pi_by_r[r], d_by_r[r], series["lambda_max_h_prime"]
            )
        ]
        for r in params.r_grid
    }

    if truth is not None:
        inc = path_information_increments(dataset, beta, lk, spec, truth)
        h_cum = np.cumsum(inc["h_star"], axis=0)
        m_cum = np.cumsum(inc["m_bar"], axis=0)
        s_cum = np.cumsum(inc["m_star"], axis=0)
        series["det_ratio_h"] = [
            _safe_ratio(h_cum[n - 1], m_cum[n - 1]) for n in n_grid
        ]
        series["det_ratio_m"] = [
            _safe_ratio(s_cum[n - 1], m_cum[n - 1]) for n in n_grid
        ]

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
    a = b would.
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
            per_cluster["eta"][b.positions] = np.where(positive, eta, np.nan).max(1)
        for k, v in per_cluster.items():
            out[k][r] = np.fmax.accumulate(np.concatenate(([0.0], v)))[at].tolist()
    return out


def _max_leverage(h_prime, rows):
    try:
        sol = linalg.spd_solve(h_prime, rows.T)
    except NotPositiveDefiniteError:
        return math.inf
    return float(np.max(np.sum(rows * sol.T, axis=1)))


def _proxy_lattice_quantities(dataset, centre, lk, lattices, n_grid):
    """pi_n(r) and d_n(r) along the checkpoints; ``centre`` is the proxy
    stack at the centre, or None for a data-independent proxy.

    Data-independent proxies have no parameter dependence: the scaled
    inverse collapses to the identity (pi = 1) and the derivative is zero.
    The data-dependent proxy is folded at every distinct lattice point
    (the centre is shared by all radii) and at each point's
    central-difference neighbours, in blocks of whole points of at most
    ``_LATTICE_BLOCK_ELEMENTS`` stacked entries, each block in one
    ``proxy_stack`` batch; its matrices are inverted and diagonalized as
    (points, clusters, m, m) stacks per cluster-size bucket.
    """
    r_grid = list(lattices)
    if centre is None:
        ones = [1.0] * len(n_grid)
        zeros = [0.0] * len(n_grid)
        return {r: list(ones) for r in r_grid}, {r: list(zeros) for r in r_grid}

    def sym(m):
        return 0.5 * (m + np.swapaxes(m, -1, -2))

    roots = []
    for mats in _bucket_proxies(dataset, centre):
        w, v = np.linalg.eigh(mats)
        root_w = np.sqrt(np.maximum(w, 0.0))[:, None, :]
        roots.append((v * root_w) @ np.swapaxes(v, 1, 2))

    distinct: dict = {}
    for lattice in lattices.values():
        for point in lattice:
            distinct.setdefault(point.tobytes(), point)
    points = list(distinct.values())
    row_of = {key: j for j, key in enumerate(distinct)}
    # each point is folded with its central-difference neighbours, in the
    # order point, point + h e_1, point - h e_1, point + h e_2, ...
    width = 1 + 2 * dataset.p
    per_block = max(1, _LATTICE_BLOCK_ELEMENTS // (width * centre.size))
    pi = np.empty((len(points), dataset.n))
    d = np.empty((len(points), dataset.n))
    for start in range(0, len(points), per_block):
        block = points[start : start + per_block]
        visits, steps = [], []
        for point in block:
            visits.append(point)
            for h, bp, bm in central_points(point):
                visits += [bp, bm]
                steps.append(2.0 * h)
        stacks = proxy_stack(dataset, np.array(visits), lk)
        stacks = stacks.reshape((len(block), width) + centre.shape)
        steps = np.reshape(steps, (len(block), -1, 1, 1, 1))
        diffs = stacks[:, 1::2] - stacks[:, 2::2]
        diffs /= steps
        extremes = np.empty((len(block), dataset.p, dataset.n))
        rows = slice(start, start + len(block))
        for b, root in zip(dataset.buckets, roots):
            m = b.size
            # largest eigenvalue of sqrt(R) R(point)^{-1} sqrt(R) per cluster
            q = root @ np.linalg.inv(stacks[:, 0, b.positions, :m, :m]) @ root
            pi[rows, b.positions] = np.linalg.eigvalsh(sym(q))[..., -1]
            # largest |eigenvalue| of the central difference dR/dbeta_l
            w = np.linalg.eigvalsh(sym(diffs[:, :, b.positions, :m, :m]))
            extremes[:, :, b.positions] = np.abs(w[..., [0, -1]]).max(axis=-1)
        d[rows] = extremes.max(axis=1)

    pi_out: dict = {}
    d_out: dict = {}
    last = np.asarray(n_grid) - 1
    for r in r_grid:
        at = [row_of[point.tobytes()] for point in lattices[r]]
        # running maxima over the clusters, read at the checkpoints
        pi_out[r] = np.maximum.accumulate(pi[at].max(axis=0))[last].tolist()
        d_out[r] = np.maximum.accumulate(d[at].max(axis=0))[last].tolist()
    return pi_out, d_out


# ---------------------------------------------------------------------------
# martingale normalization monitor


def slln_monitor(trace: Sequence, delta: float) -> dict:
    """Normalized martingale magnitudes from a per-n (q, V) trace.

    Returns the trajectory ||q_n|| / lambda_max(V_n)^{1/2+delta} together
    with the eigenvalue extremes of V_n; an entry with lambda_max = 0
    yields NaN (undefined ratio), not an error.
    """
    if delta <= 0:
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


def _resolve_specs(specs, m_max) -> list:
    out = []
    for s in specs:
        if isinstance(s, WorkingCorrelationSpec):
            out.append((s.kind, s))
        elif isinstance(s, tuple):
            out.append(s)
        else:
            raise InvalidInputError(f"unresolved spec {s!r}")
    return out


def _optimality_worker(args):
    config, rep, specs, n_grid, perturbed, beta_ref = args
    truth = config.truth.template(config.m_max)
    ds = simulate_scenario(config.with_n(max(n_grid)), rep)
    out = {}
    for name, spec in specs:
        inc = path_information_increments(ds, beta_ref, config.link, spec, truth)
        entry = {"plain": _checkpoint_sums(inc, n_grid)}
        if perturbed:
            pert_seed = splitmix64(
                replication_seed(config.seed, rep) ^ _PERTURBATION_TAG
            )
            schedule, report = a2_schedule(
                ds, beta_ref, config.link, spec, seed=pert_seed
            )
            inc_p = path_information_increments(
                ds, beta_ref, config.link, spec, truth, perturbation=schedule
            )
            entry["perturbed"] = _checkpoint_sums(inc_p, n_grid)
            entry["a2_violations"] = len(report["violations"])
        out[name] = entry
    return out


def _checkpoint_sums(increments: dict, n_grid) -> dict:
    out = {}
    for key in ("h_star", "m_bar", "m_star"):
        cum = np.cumsum(increments[key], axis=0)
        out[key] = np.stack([cum[n - 1] for n in n_grid])
    return out


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
    beta_ref=None,
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
    if reps < 1:
        raise ConfigError("reps must be >= 1", field="reps")
    n_grid = sorted(int(n) for n in n_grid)
    specs = _resolve_specs(specs, config.m_max)
    beta_ref = config.beta0_array if beta_ref is None else as_beta(beta_ref)
    payloads = [
        (config, rep, specs, tuple(n_grid), perturbed, beta_ref)
        for rep in range(reps)
    ]
    results = parallel_map(_optimality_worker, payloads, jobs)
    rows = []
    total_violations = 0
    for name, _ in specs:
        acc: dict = {}
        acc_p: dict = {}
        for res in results:
            entry = res[name]
            for k, v in entry["plain"].items():
                acc[k] = acc.get(k, 0.0) + v
            if perturbed:
                for k, v in entry["perturbed"].items():
                    acc_p[k] = acc_p.get(k, 0.0) + v
                total_violations += entry.get("a2_violations", 0)
        for gi, n in enumerate(n_grid):
            row = {
                "spec": name,
                "n": n,
                "det_ratio_h": det_ratio(acc["h_star"][gi], acc["m_bar"][gi]),
                "det_ratio_m": det_ratio(acc["m_star"][gi], acc["m_bar"][gi]),
            }
            if perturbed:
                row["det_ratio_h_perturbed"] = det_ratio(
                    acc_p["h_star"][gi], acc_p["m_bar"][gi]
                )
                row["det_ratio_m_perturbed"] = det_ratio(
                    acc_p["m_star"][gi], acc_p["m_bar"][gi]
                )
            rows.append(row)
    meta = {
        "config": config.to_dict(),
        "scenario_digest": config.digest(),
        "reps": reps,
        "n_grid": list(n_grid),
        "perturbed": perturbed,
        "a2_violations": total_violations if perturbed else None,
        "generator": GENERATOR_ID,
    }
    return StudyResult(rows=tuple(rows), meta=meta)


def consistency_study(
    config: ScenarioConfig,
    estimators: Sequence,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
    solver_config=None,
) -> StudyResult:
    """Estimation-error quartiles and convergence rates along the grid.

    ``estimators`` is a sequence of (name, EstimatingFunction) pairs; see
    ``run_replications`` for the seeding and nesting contract. Failed
    replications are tallied, never fatal.
    """
    n_grid = sorted(int(n) for n in n_grid)
    results = run_replications(
        config, reps, estimators, n_grid, jobs=jobs, solver_config=solver_config
    )
    beta0 = config.beta0_array
    rows = []
    failures = sum(1 for r in results if r.error is not None)
    for name, _ in estimators:
        for n in n_grid:
            errs, converged, first_ns = [], [], []
            for r in results:
                if r.error is not None:
                    continue
                summary = r.fits[name][str(n)]
                err = float(
                    np.linalg.norm(np.asarray(summary["beta_hat"]) - beta0)
                )
                errs.append(err)
                converged.append(bool(summary["converged"]))
            if errs:
                q1, med, q3 = np.percentile(errs, [25.0, 50.0, 75.0])
                frac = float(np.mean(converged))
            else:
                q1 = med = q3 = math.nan
                frac = math.nan
            rows.append(
                {
                    "estimator": name,
                    "n": n,
                    "median_err": float(med),
                    "q1_err": float(q1),
                    "q3_err": float(q3),
                    "converged_fraction": frac,
                    "replications_used": len(errs),
                }
            )
    meta = {
        "config": config.to_dict(),
        "scenario_digest": config.digest(),
        "reps": reps,
        "n_grid": list(n_grid),
        "failures": failures,
        "generator": GENERATOR_ID,
    }
    return StudyResult(rows=tuple(rows), meta=meta)


def _a1_worker(args):
    config, rep, specs, n_grid = args
    truth = config.truth.template(config.m_max)
    ds = simulate_scenario(config.with_n(max(n_grid)), rep)
    lk = get_link(config.link)
    beta0 = config.beta0_array
    gaps: dict = {name: [] for name, _ in specs}
    for name, spec in specs:
        seq = corr_trajectory(ds, beta0, lk, spec)
        for n in n_grid:
            rbar = truth.rbar(int(ds.sizes[n - 1]))
            gaps[name].append(a1_gap([seq[n - 1]], [rbar])[0])
    return gaps


def a1_gap_study(
    config: ScenarioConfig,
    specs: Sequence,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> StudyResult:
    """Median element-wise proxy-vs-truth gaps across replications."""
    n_grid = sorted(int(n) for n in n_grid)
    specs = _resolve_specs(specs, config.m_max)
    payloads = [(config, rep, specs, tuple(n_grid)) for rep in range(reps)]
    results = parallel_map(_a1_worker, payloads, jobs)
    rows = []
    for name, _ in specs:
        stacked = np.array([res[name] for res in results])  # (reps, len(grid))
        for gi, n in enumerate(n_grid):
            q1, med, q3 = np.percentile(stacked[:, gi], [25.0, 50.0, 75.0])
            rows.append(
                {
                    "spec": name,
                    "n": n,
                    "median_gap": float(med),
                    "q1_gap": float(q1),
                    "q3_gap": float(q3),
                }
            )
    meta = {
        "config": config.to_dict(),
        "scenario_digest": config.digest(),
        "reps": reps,
        "n_grid": list(n_grid),
        "generator": GENERATOR_ID,
    }
    return StudyResult(rows=tuple(rows), meta=meta)


def _slln_worker(args):
    config, rep, kind, delta, n_grid = args
    ds = simulate_scenario(config.with_n(max(n_grid)), rep)
    truth = config.truth.template(config.m_max)
    q_inc, v_inc = score_increments(kind, ds, config.beta0_array, config.link, truth)
    q_cum, v_cum = np.cumsum(q_inc, axis=0), np.cumsum(v_inc, axis=0)
    slln = slln_monitor([(q_cum[n - 1], v_cum[n - 1]) for n in n_grid], delta)
    return slln["ratio"], slln["lambda_min_v"]


def slln_decay_study(
    config: ScenarioConfig,
    kind: EstimatingFunction,
    delta: float,
    reps: int,
    n_grid: Sequence[int],
    jobs: int = 1,
) -> StudyResult:
    """Medians of the normalized martingale ratio along the grid."""
    if delta <= 0:
        raise ConfigError("delta must be positive", field="delta")
    n_grid = sorted(int(n) for n in n_grid)
    payloads = [(config, rep, kind, delta, tuple(n_grid)) for rep in range(reps)]
    results = parallel_map(_slln_worker, payloads, jobs)
    ratios = np.array([r[0] for r in results])
    lo_vs = np.array([r[1] for r in results])
    rows = []
    for gi, n in enumerate(n_grid):
        rows.append(
            {
                "n": n,
                "median_ratio": float(np.percentile(ratios[:, gi], 50.0)),
                "median_lambda_min_v": float(np.percentile(lo_vs[:, gi], 50.0)),
            }
        )
    meta = {
        "config": config.to_dict(),
        "scenario_digest": config.digest(),
        "reps": reps,
        "delta": delta,
        "n_grid": list(n_grid),
        "generator": GENERATOR_ID,
    }
    return StudyResult(rows=tuple(rows), meta=meta)
