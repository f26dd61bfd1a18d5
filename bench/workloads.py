"""Inputs, operations and output checks of the benchmark workloads.

There are four groups of operations, one per user-facing CLI command:

* ``fit``: ``fit --data`` with independence, exchangeable:0.4 and pseudo
  on a log-link dataset;
* ``diagnose``: ``diagnose --data`` with exchangeable:0.4 and pseudo on a
  smaller log-link dataset;
* ``optimality``: ``study-optimality`` (perturbed) with pseudo and
  exchangeable:0.4 on the Gaussian identity-link scenario;
* ``consistency``: ``study-consistency`` with independence and
  exchangeable:0.4 on the Poisson-copula feedback scenario.

A workload runs its own group at full size. Every result line must carry
every end-to-end metric, so a workload also runs the other groups once
per round at a small fixed probe size; the traced pass leaves the probes
out. Every input is made from the workload seed, and every output is
checked against ``reference`` (which does not import stochgee) or
against properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

BETA0 = (0.5, -0.3)
M = 3
RHO = 0.4

#: sizes of each group when it is the workload's own and when it is a
#: probe; ``repeat`` runs an operation several times per round, so that a
#: cheap operation still gives enough samples for a steady median
FULL = {
    "fit": {"n": 1000, "repeat": {"fit_independence": 3}},
    "diagnose": {"n": 16, "repeat": {"diagnose_exchangeable": 10}},
    "optimality": {"reps": 1, "n_grid": (100, 400, 1000)},
    "consistency": {"reps": 2, "n_grid": (100, 200, 400)},
}
PROBE = {
    "fit": {"n": 100, "repeat": {"fit_independence": 8, "fit_exchangeable": 3, "fit_pseudo": 3}},
    "diagnose": {"n": 4, "repeat": {"diagnose_exchangeable": 10, "diagnose_pseudo": 4}},
    "optimality": {"reps": 1, "n_grid": (25, 50, 100), "repeat": {"optimality": 3}},
    "consistency": {"reps": 1, "n_grid": (25, 50, 100), "repeat": {"consistency": 3}},
}
#: probes use fixed inputs, so that their figures vary only with timing
PROBE_SEED = 0

#: the Gaussian identity-link scenario of the optimality acceptance tests
OPTIMALITY_SCENARIO = {
    "link": "identity",
    "family": "gaussian_link_moments",
    "regressors": {"kind": "iid", "loc": 0.0, "scale": 1.0, "gain": 0.0},
}
#: the Poisson-copula feedback scenario of the consistency acceptance test
CONSISTENCY_SCENARIO = {
    "link": "log",
    "family": "poisson_log",
    "regressors": {"kind": "feedback", "loc": 0.0, "scale": 0.5, "gain": 0.3},
}

#: |beta_hat - beta0| must stay within this many independence sandwich
#: standard errors in every coordinate (the working estimators are at
#: least as efficient as independence under the exchangeable truth)
STAT_BOUND_SE = 6.0
#: |g(beta_hat)| relative to sum_i |C_i r_i| at an accepted root
ROOT_RTOL = 1e-9
#: agreement of eigenvalues, leverages and determinant ratios with the
#: reference
VALUE_RTOL = 1e-9
#: agreement of error quantiles with the reference Newton solves
QUANTILE_RTOL = 1e-7


@dataclass(frozen=True)
class Operation:
    """One CLI call; ``metric`` names the end-to-end metric it feeds,
    ``reps`` the replications it completes (0 for a single fit or report)
    and ``repeat`` how often a round runs it."""

    name: str
    group: str
    argv: tuple
    output: str
    metric: str
    reps: int = 0
    repeat: int = 1


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def _finite_list(values):
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return None
        out.append(float(v))
    return out


# ---------------------------------------------------------------------------
# dataset groups (fit, diagnose)


def make_dataset(seed: int, tag: int, n: int):
    """Log-link clusters of size 3 with iid N(0, 1) regressors and an
    exchangeable (rho = 0.4) Gaussian response around mu = exp(x'beta0).

    With unit-variance regressors the Newton residual after three steps
    is about 1e-5, far from the 1e-10 stopping bound, so every seed takes
    the same number of iterations and fit times compare across seeds."""
    rng = np.random.default_rng([seed, tag])
    beta0 = np.asarray(BETA0)
    X = rng.standard_normal((n, M, beta0.shape[0]))
    mu, var = ref.moments("log", X @ beta0)
    chol = np.linalg.cholesky(ref.exchangeable(RHO, M))
    Y = mu + np.sqrt(var) * (rng.standard_normal((n, M)) @ chol.T)
    return X, Y


def write_dataset(path: str, X, Y) -> None:
    """The long-CSV layout with a JSON sidecar that ``--data`` reads."""
    n, m, p = X.shape
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["cluster", "obs", "y"] + [f"x{j + 1}" for j in range(p)])
    for i in range(n):
        for j in range(m):
            w.writerow([i + 1, j + 1, repr(float(Y[i, j]))] + [repr(float(v)) for v in X[i, j]])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
    meta = {"n": n, "p": p, "m_max": m, "link": "log", "beta0": list(BETA0)}
    with open(path[: -len(".csv")] + ".meta.json", "w") as fh:
        json.dump(meta, fh)


class FitGroup:
    estimators = (
        ("independence", "fit_independence_rel"),
        ("exchangeable:0.4", "fit_exchangeable_rel"),
        ("pseudo", "fit_pseudo_rel"),
    )

    def __init__(self, seed: int, workdir: str, sizes: dict):
        n = self.n = sizes["n"]
        self.repeat = sizes.get("repeat", {})
        self.data = os.path.join(workdir, "fit-data.csv")
        self.workdir = workdir
        self.X, self.Y = make_dataset(seed, 1, n)
        self._root = None

    def write_inputs(self) -> None:
        write_dataset(self.data, self.X, self.Y)

    def operations(self) -> list:
        ops = []
        for est, metric in self.estimators:
            out = os.path.join(self.workdir, f"fit-{est.split(':')[0]}")
            argv = ("fit", "--data", self.data, "--estimator", est, "--out", out, "--jobs", "1")
            name = metric[: -len("_rel")]
            ops.append(Operation(name, "fit", argv, os.path.join(out, "fit.json"), metric,
                                 repeat=self.repeat.get(name, 1)))
        return ops

    def check(self, op: Operation, text: str) -> list:
        est = op.argv[op.argv.index("--estimator") + 1]
        out = json.loads(text)
        errors = []
        if out.get("converged") is not True:
            errors.append(f"{op.name}: not converged")
        beta = _finite_list(out.get("beta_hat", []))
        if beta is None or len(beta) != len(BETA0):
            return errors + [f"{op.name}: beta_hat {out.get('beta_hat')!r} is not a finite 2-vector"]
        beta = np.asarray(beta)
        beta_ind = self._independence_root()
        R = ref.proxies(est, self.X, self.Y, beta_ind, "log")
        g, scale = ref.estimating_function(self.X, self.Y, beta, "log", R)
        if np.any(np.abs(g) > ROOT_RTOL * scale):
            errors.append(
                f"{op.name}: reference g(beta_hat) = {g.tolist()} exceeds "
                f"{ROOT_RTOL:g} * sum|C_i r_i| = {(ROOT_RTOL * scale).tolist()}"
            )
        se = ref.sandwich_se(self.X, self.Y, np.asarray(BETA0), "log", ref.exchangeable(RHO, M))
        if np.any(np.abs(beta - np.asarray(BETA0)) > STAT_BOUND_SE * se):
            errors.append(
                f"{op.name}: beta_hat {beta.tolist()} is more than {STAT_BOUND_SE:g} "
                f"standard errors {se.tolist()} from beta0"
            )
        return errors

    def _independence_root(self):
        if self._root is None:
            self._root = ref.fit_reference("independence", self.X, self.Y, "log", BETA0)
        return self._root


class DiagnoseGroup:
    estimators = (
        ("exchangeable:0.4", "diagnose_exchangeable_rel"),
        ("pseudo", "diagnose_pseudo_rel"),
    )

    def __init__(self, seed: int, workdir: str, sizes: dict):
        n = self.n = sizes["n"]
        self.repeat = sizes.get("repeat", {})
        self.grid = tuple(sorted({max(1, n // 4), max(1, n // 2), n}))
        self.data = os.path.join(workdir, "diagnose-data.csv")
        self.workdir = workdir
        self.X, self.Y = make_dataset(seed, 2, n)

    def write_inputs(self) -> None:
        write_dataset(self.data, self.X, self.Y)

    def operations(self) -> list:
        ops = []
        grid = ",".join(str(n) for n in self.grid)
        for est, metric in self.estimators:
            out = os.path.join(self.workdir, f"diagnose-{est.split(':')[0]}")
            argv = (
                "diagnose", "--data", self.data, "--estimator", est,
                "--delta", "0.25", "--n-grid", grid, "--out", out, "--jobs", "1",
            )
            name = metric[: -len("_rel")]
            ops.append(Operation(name, "diagnose", argv, os.path.join(out, "report.json"), metric,
                                 repeat=self.repeat.get(name, 1)))
        return ops

    def check(self, op: Operation, text: str) -> list:
        est = op.argv[op.argv.index("--estimator") + 1]
        report = json.loads(text)["report"]
        errors = []
        if tuple(report.get("n_grid", ())) != self.grid:
            return [f"{op.name}: n_grid {report.get('n_grid')} != {list(self.grid)}"]
        series, by_r = report["series"], report["series_by_r"]
        beta0 = np.asarray(BETA0)
        names = ("lambda_min_h_prime", "lambda_max_h_prime", "gamma_prime",
                 "lambda_min_rstar", "lambda_max_rstar")
        got = {k: _finite_list(series.get(k, [])) for k in names}
        for k, v in got.items():
            if v is None or len(v) != len(self.grid):
                return [f"{op.name}: series {k} = {series.get(k)!r} is not finite per checkpoint"]
        h_ref = ref.h_prime_extremes(self.X, beta0, "log", self.grid)
        r_ref = ref.proxy_extremes(est, self.X, self.Y, beta0, "log", self.grid)
        for c, n in enumerate(self.grid):
            expect = {
                "lambda_min_h_prime": h_ref[c][0],
                "lambda_max_h_prime": h_ref[c][1],
                "gamma_prime": h_ref[c][2],
                "lambda_min_rstar": r_ref[c][0],
                "lambda_max_rstar": r_ref[c][1],
            }
            for k, want in expect.items():
                if not _close(got[k][c], want, VALUE_RTOL):
                    errors.append(f"{op.name}: {k} at n={n} is {got[k][c]!r}, reference {want!r}")
        if est.startswith("exchangeable"):
            for k, want in (("lambda_min_rstar", 1.0 - RHO), ("lambda_max_rstar", 1.0 + 2.0 * RHO)):
                if any(abs(v - want) > 1e-12 for v in got[k]):
                    errors.append(f"{op.name}: {k} = {got[k]} is not {want!r} to 1e-12")
        if any(v < ref.MIN_EIGENVALUE for v in got["lambda_min_rstar"]):
            errors.append(f"{op.name}: lambda_min_rstar {got['lambda_min_rstar']} is below the floor")
        for k in ("k2", "k3"):
            for r, vals in by_r.get(k, {}).items():
                if vals != [1.0] * len(self.grid):
                    errors.append(f"{op.name}: {k}(r={r}) = {vals} is not exactly 1 for the log link")
        pis = by_r.get("pi", {})
        if len(pis) == 0:
            errors.append(f"{op.name}: no pi series")
        for r, vals in pis.items():
            vals_f = _finite_list(vals)
            if vals_f is None or any(v < 1.0 - 1e-12 for v in vals_f):
                errors.append(f"{op.name}: pi(r={r}) = {vals} falls below 1")
        return errors


# ---------------------------------------------------------------------------
# study groups (optimality, consistency)


def write_scenario(path: str, scenario: dict, seed: int, n: int) -> None:
    reg = scenario["regressors"]
    text = (
        "[scenario]\n"
        f"link = {scenario['link']}\n"
        f"beta0 = {', '.join(repr(b) for b in BETA0)}\n"
        f"n = {n}\n"
        f"m_max = {M}\n"
        f"seed = {seed}\n"
        f"response_family = {scenario['family']}\n\n"
        "[sizes]\nkind = constant\n"
        f"m = {M}\n\n"
        "[regressors]\n"
        f"kind = {reg['kind']}\nloc = {reg['loc']!r}\nscale = {reg['scale']!r}\n"
        f"gain = {reg['gain']!r}\n\n"
        "[truth]\nkind = exchangeable\n"
        f"rho = {RHO!r}\n"
    )
    with open(path, "w") as fh:
        fh.write(text)


def read_table(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError("table lacks its config line")
    meta = json.loads(lines[0][len("# config: "):])
    rows = list(csv.DictReader(lines[1:]))
    return meta, rows


def _scenario_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


class StudyGroup:
    command = ""
    scenario: dict = {}
    estimators: tuple = ()
    metric = ""
    table = ""
    tag = 0

    def __init__(self, seed: int, workdir: str, sizes: dict):
        self.reps = sizes["reps"]
        self.n_grid = tuple(sizes["n_grid"])
        self.repeat = sizes.get("repeat", {}).get(self.name, 1)
        self.seed = _scenario_seed(seed, self.tag)
        self.ini = os.path.join(workdir, f"{self.name}.ini")
        self.out = os.path.join(workdir, self.name)

    @property
    def name(self) -> str:
        return self.command.split("-", 1)[1]

    @property
    def spec(self) -> dict:
        return dict(self.scenario, beta0=BETA0, m=M, rho=RHO, seed=self.seed)

    def write_inputs(self) -> None:
        write_scenario(self.ini, self.scenario, self.seed, max(self.n_grid))

    def operations(self) -> list:
        argv = [self.command, "--scenario", self.ini]
        for est in self.estimators:
            argv += ["--estimator", est]
        argv += [
            "--n-grid", ",".join(str(n) for n in self.n_grid),
            "--reps", str(self.reps), "--jobs", "1", "--out", self.out,
        ]
        return [Operation(self.name, self.name, tuple(argv), os.path.join(self.out, self.table),
                          self.metric, self.reps, self.repeat)]

    def _rows(self, op: Operation, text: str, keys: tuple):
        meta, rows = read_table(text)
        errors = []
        if meta.get("reps") != self.reps or tuple(meta.get("n_grid", ())) != self.n_grid:
            errors.append(f"{op.name}: table meta reps/n_grid {meta.get('reps')}/{meta.get('n_grid')}")
        found = {(r[keys[0]], int(r["n"])): r for r in rows}
        want = [(e, n) for e in self.estimators for n in self.n_grid]
        if sorted(found) != sorted(want) or len(rows) != len(want):
            errors.append(f"{op.name}: rows {sorted(found)} != {sorted(want)}")
        return found, errors


class OptimalityGroup(StudyGroup):
    command = "study-optimality"
    scenario = OPTIMALITY_SCENARIO
    estimators = ("pseudo", "exchangeable:0.4")
    metric = "optimality_rep_rel"
    table = "optimality.csv"
    tag = 3

    def check(self, op: Operation, text: str) -> list:
        rows, errors = self._rows(op, text, ("spec",))
        if errors:
            return errors
        cols = ("det_ratio_h", "det_ratio_m", "det_ratio_h_perturbed", "det_ratio_m_perturbed")
        for (est, n), row in sorted(rows.items()):
            vals = {c: float(row[c]) for c in cols}
            if not all(math.isfinite(v) and v > 0 for v in vals.values()):
                errors.append(f"{op.name}: {est} n={n} ratios {vals} not finite and positive")
                continue
            if est.startswith("exchangeable"):
                # the proxy equals the truth: h_star = m_bar = m_star exactly
                bad = {c: v for c, v in vals.items() if abs(v - 1.0) > 1e-9}
                if bad:
                    errors.append(f"{op.name}: {est} n={n} ratios {bad} differ from 1")
            for h, m in (("det_ratio_h", "det_ratio_m"),
                         ("det_ratio_h_perturbed", "det_ratio_m_perturbed")):
                # matrix Cauchy-Schwarz: m_star >= h_star' m_bar^-1 h_star
                if vals[h] ** 2 > vals[m] * (1.0 + 1e-9):
                    errors.append(
                        f"{op.name}: {est} n={n} {h}^2 = {vals[h] ** 2!r} > {m} = {vals[m]!r}"
                    )
        expect = self.reference_ratios()
        for (est, n), (rh, rm) in expect.items():
            row = rows[(est, n)]
            for col, want in (("det_ratio_h", rh), ("det_ratio_m", rm)):
                if not _close(float(row[col]), want, VALUE_RTOL):
                    errors.append(f"{op.name}: {est} n={n} {col} {row[col]} != reference {want!r}")
        return errors

    def reference_ratios(self) -> dict:
        """Plain determinant ratios of the ensemble sums, from regenerated
        replications."""
        spec = self.spec
        nmax = max(self.n_grid)
        rbar = ref.exchangeable(RHO, M)
        sums = {e: {k: 0.0 for k in ("h_star", "m_bar", "m_star")} for e in self.estimators}
        for rep in range(self.reps):
            X, Y = ref.generate(spec, rep, nmax)
            for est in self.estimators:
                inc = ref.comparison_increments(X, Y, np.asarray(BETA0), spec["link"], est, rbar)
                for k, v in inc.items():
                    cum = np.cumsum(v, axis=0)
                    sums[est][k] = sums[est][k] + np.stack([cum[n - 1] for n in self.n_grid])
        out = {}
        for est in self.estimators:
            s = sums[est]
            for c, n in enumerate(self.n_grid):
                den = np.linalg.det(s["m_bar"][c])
                out[(est, n)] = (
                    float(np.linalg.det(s["h_star"][c]) / den),
                    float(np.linalg.det(s["m_star"][c]) / den),
                )
        return out


class ConsistencyGroup(StudyGroup):
    command = "study-consistency"
    scenario = CONSISTENCY_SCENARIO
    estimators = ("independence", "exchangeable:0.4")
    metric = "consistency_rep_rel"
    table = "consistency.csv"
    tag = 4

    def check(self, op: Operation, text: str) -> list:
        rows, errors = self._rows(op, text, ("estimator",))
        if errors:
            return errors
        expect = self.reference_quantiles()
        for key, row in sorted(rows.items()):
            if float(row["converged_fraction"]) != 1.0:
                errors.append(f"{op.name}: {key} converged_fraction {row['converged_fraction']}")
            if int(row["replications_used"]) != self.reps:
                errors.append(f"{op.name}: {key} replications_used {row['replications_used']}")
            for col, want in zip(("q1_err", "median_err", "q3_err"), expect[key]):
                if not _close(float(row[col]), want, QUANTILE_RTOL):
                    errors.append(f"{op.name}: {key} {col} {row[col]} != reference {want!r}")
        return errors

    def reference_quantiles(self) -> dict:
        """Error quartiles of independent Newton roots of every regenerated
        replication and prefix."""
        spec = self.spec
        beta0 = np.asarray(BETA0)
        errs = {(e, n): [] for e in self.estimators for n in self.n_grid}
        for rep in range(self.reps):
            X, Y = ref.generate(spec, rep, max(self.n_grid))
            for est in self.estimators:
                for n in self.n_grid:
                    beta = ref.fit_reference(est, X[:n], Y[:n], spec["link"], beta0)
                    errs[(est, n)].append(float(np.linalg.norm(beta - beta0)))
        return {k: tuple(np.percentile(v, [25.0, 50.0, 75.0])) for k, v in errs.items()}


# ---------------------------------------------------------------------------
# workloads


GROUPS = {
    "fit": FitGroup,
    "diagnose": DiagnoseGroup,
    "optimality": OptimalityGroup,
    "consistency": ConsistencyGroup,
}

WORKLOADS = tuple(GROUPS)


class Workload:
    """The workload's own group at full size plus every other group at
    probe size."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in GROUPS:
            raise ValueError(f"unknown workload {name!r}; expected one of {list(GROUPS)}")
        self.name = name
        self.groups = {
            g: cls(seed, workdir, FULL[g]) if g == name else cls(PROBE_SEED, workdir, PROBE[g])
            for g, cls in GROUPS.items()
        }

    def write_inputs(self) -> None:
        for group in self.groups.values():
            group.write_inputs()

    def operations(self) -> list:
        return [op for group in self.groups.values() for op in group.operations()]

    def own_operations(self) -> list:
        return self.groups[self.name].operations()

    def check(self, op: Operation, text: str) -> list:
        try:
            return self.groups[op.group].check(op, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"]
