"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavy Monte-Carlo ensembles are shared through session-scoped
fixtures; every tolerance is pinned here, not computed.
"""

import time

import numpy as np
import pytest

import stochgee as sg
from stochgee.cli import main as cli_main
from stochgee.estimating import _fd_jacobian

JOBS = 2


def record(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def gaussian_exch_scenario(seed, n):
    return sg.ScenarioConfig(
        link="identity",
        beta0=(0.5, -0.3),
        n=n,
        m_max=3,
        sizes=sg.SizeSchedule(kind="constant", m=3),
        regressors=sg.RegressorProcess(kind="iid", scale=1.0),
        truth=sg.TruthSpec(kind="exchangeable", rho=0.4),
        response_family="gaussian_link_moments",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# 1. closed-form oracle equivalence


def test_01_closed_form_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(20, 201))
        cfg = sg.ScenarioConfig(
            link="identity",
            beta0=tuple(rng.uniform(-1.0, 1.0, size=p)),
            n=n,
            m_max=3,
            sizes=sg.SizeSchedule(kind="constant", m=3),
            regressors=sg.RegressorProcess(kind="iid", scale=1.0),
            truth=sg.TruthSpec(kind="exchangeable", rho=0.3),
            response_family="gaussian_link_moments",
            seed=10_000 + trial,
        )
        ds = sg.simulate_scenario(cfg)
        a = rng.standard_normal((3, 3))
        r = a @ a.T + 3.0 * np.eye(3)
        d = 1.0 / np.sqrt(np.diag(r))
        r = r * np.outer(d, d)
        fit = sg.solve_gee(
            ds,
            sg.EstimatingFunction.gee_star(sg.WorkingCorrelationSpec.fixed(r)),
            "identity",
        )
        ref = sg.linear_closed_form(ds, r)
        assert fit.converged
        rel = np.linalg.norm(fit.beta_hat - ref) / max(np.linalg.norm(ref), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    record(
        "01-closed-form-equivalence",
        worst < 1e-8 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Jacobian correctness


def test_02_jacobian_analytic_vs_finite_difference():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    estimators = ["independence", "exchangeable:0.4", "ar1:0.3", "quasi"]
    while pairs < 100:
        link = ("identity", "log")[pairs % 2]
        est = estimators[pairs % 4]
        cfg = sg.ScenarioConfig(
            link=link,
            beta0=(0.5, -0.3),
            n=int(rng.integers(20, 60)),
            m_max=3,
            sizes=sg.SizeSchedule(kind="constant", m=3),
            regressors=sg.RegressorProcess(
                kind="iid", scale=0.4 if link == "log" else 1.0
            ),
            truth=sg.TruthSpec(kind="exchangeable", rho=0.4),
            response_family="gaussian_link_moments",
            seed=20_000 + pairs,
        )
        ds = sg.simulate_scenario(cfg)
        kind = sg.resolve_estimator(est, 3, cfg.truth.template(3))
        beta = rng.uniform(-0.5, 0.5, size=2)
        da = sg.jacobian(kind, ds, beta, link)
        df = _fd_jacobian(kind, ds, beta, sg.get_link(link))
        err = float((np.abs(da - df) / np.maximum(np.abs(da), 1e-8)).max())
        worst = max(worst, err)
        pairs += 1
    elapsed = time.perf_counter() - t0
    record(
        "02-jacobian-correctness",
        worst < 1e-5 and elapsed < 30.0,
        f"max entrywise rel err {worst:.2e} over 100 pairs, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. norm-inequality suite


def test_03_norm_inequalities():
    rng = np.random.default_rng(303)
    violations = 0
    count = 0
    for group in range(100):
        dim = int(rng.integers(2, 7))
        mats = [rng.standard_normal((dim, dim)) for _ in range(10)]
        radii = []
        norms = []
        for m in mats:
            w = sg.numerical_radius(m)
            s = sg.spectral_norm(m)
            radii.append(w)
            norms.append(s)
            count += 1
            if w > s + 1e-12 or s > 2.0 * w + 1e-12:
                violations += 1
        mean = sum(mats) / len(mats)
        if sg.numerical_radius(mean) > np.mean(radii) + 1e-12:
            violations += 1
        if sg.spectral_norm(mean) > 2.0 * np.mean(norms) + 1e-12:
            violations += 1
    record(
        "03-norm-inequalities",
        violations == 0 and count == 1000,
        f"{violations} violations on {count} matrices plus 100 sample means",
    )


# ---------------------------------------------------------------------------
# 4. exact optimality identity


def test_04_exact_optimality_identity_per_path():
    t0 = time.perf_counter()
    cfg = gaussian_exch_scenario(seed=404, n=300)
    ds = sg.simulate_scenario(cfg)
    truth = cfg.truth.template(3)
    spec = sg.WorkingCorrelationSpec.exchangeable(0.4, 3)
    cum = sg.information_sums(ds, cfg.beta0, "identity", spec, truth, range(1, 301))
    worst = 0.0
    for n in range(1, 301):
        rh = sg.det_ratio(cum["h_star"][n - 1], cum["m_bar"][n - 1])
        rm = sg.det_ratio(cum["m_star"][n - 1], cum["m_bar"][n - 1])
        worst = max(worst, abs(rh - 1.0), abs(rm - 1.0))
    elapsed = time.perf_counter() - t0
    record(
        "04-exact-optimality-identity",
        worst < 1e-10 and elapsed < 5.0,
        f"max |ratio-1| {worst:.2e} over all n, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5 + 6. optimality convergence trend and perturbation robustness
# (shared 500-replication ensemble)


@pytest.fixture(scope="session")
def optimality_ensemble():
    cfg = gaussian_exch_scenario(seed=1234, n=1000)
    spec = sg.WorkingCorrelationSpec.pseudo_likelihood(3)
    t0 = time.perf_counter()
    res = sg.optimality_study(
        cfg,
        [("pseudo", spec)],
        reps=500,
        n_grid=[100, 400, 1000],
        perturbed=True,
        jobs=JOBS,
    )
    elapsed = time.perf_counter() - t0
    rows = {r["n"]: r for r in res.rows}
    return rows, elapsed


def test_05_optimality_convergence_trend(optimality_ensemble):
    rows, elapsed = optimality_ensemble
    in_band = (
        0.95 <= rows[1000]["det_ratio_h"] <= 1.05
        and 0.95 <= rows[1000]["det_ratio_m"] <= 1.05
    )
    gaps_h = [abs(rows[n]["det_ratio_h"] - 1.0) for n in (100, 400, 1000)]
    gaps_m = [abs(rows[n]["det_ratio_m"] - 1.0) for n in (100, 400, 1000)]
    monotone = all(b <= a for a, b in zip(gaps_h, gaps_h[1:])) and all(
        b <= a for a, b in zip(gaps_m, gaps_m[1:])
    )
    record(
        "05-optimality-trend",
        in_band and monotone and elapsed < 600.0,
        f"h={rows[1000]['det_ratio_h']:.4f} m={rows[1000]['det_ratio_m']:.4f} "
        f"|1-h| path {[round(g, 4) for g in gaps_h]} "
        f"|1-m| path {[round(g, 4) for g in gaps_m]}, {elapsed:.0f}s",
    )


def test_06_perturbation_robustness(optimality_ensemble):
    rows, elapsed = optimality_ensemble
    dh = abs(rows[1000]["det_ratio_h_perturbed"] - rows[1000]["det_ratio_h"])
    dm = abs(rows[1000]["det_ratio_m_perturbed"] - rows[1000]["det_ratio_m"])
    record(
        "06-perturbation-robustness",
        dh < 0.01 and dm < 0.01 and elapsed < 600.0,
        f"|perturbed - plain| h {dh:.5f}, m {dm:.5f} at n=1000 (shared ensemble)",
    )


# ---------------------------------------------------------------------------
# 7. strong-consistency trend


def test_07_strong_consistency_trend():
    cfg = sg.ScenarioConfig(
        link="log",
        beta0=(0.5, -0.3),
        n=1600,
        m_max=3,
        sizes=sg.SizeSchedule(kind="constant", m=3),
        regressors=sg.RegressorProcess(kind="feedback", gain=0.3, scale=0.5),
        truth=sg.TruthSpec(kind="exchangeable", rho=0.4),
        response_family="poisson_log",
        seed=707,
    )
    est = [("independence", sg.EstimatingFunction.independence())]
    t0 = time.perf_counter()
    res = sg.consistency_study(cfg, est, reps=200, n_grid=[100, 400, 1600], jobs=JOBS)
    elapsed = time.perf_counter() - t0
    rows = {r["n"]: r for r in res.rows}
    medians = [rows[n]["median_err"] for n in (100, 400, 1600)]
    decreasing = medians[0] > medians[1] > medians[2]
    conv = rows[1600]["converged_fraction"]
    record(
        "07-strong-consistency-trend",
        decreasing and conv >= 0.99 and elapsed < 900.0,
        f"medians {[round(m, 4) for m in medians]}, converged {conv:.3f} "
        f"at n=1600, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. SLLN decay


@pytest.fixture(scope="session")
def slln_rows():
    cfg = sg.ScenarioConfig(
        link="identity",
        beta0=(0.0,),
        n=5000,
        m_max=1,
        sizes=sg.SizeSchedule(kind="constant", m=1),
        regressors=sg.RegressorProcess(kind="iid", loc=1.0, scale=0.0),
        truth=sg.TruthSpec(kind="independence"),
        response_family="gaussian_link_moments",
        seed=808,
    )
    t0 = time.perf_counter()
    res = sg.slln_decay_study(
        cfg,
        sg.EstimatingFunction.independence(),
        delta=0.25,
        reps=200,
        n_grid=[50, 500, 5000],
        jobs=JOBS,
    )
    elapsed = time.perf_counter() - t0
    med = {r["n"]: r["median_ratio"] for r in res.rows}
    lam = {r["n"]: r["median_lambda_min_v"] for r in res.rows}
    return med, lam, elapsed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the normalized martingale median contracts at the n^{-delta} rate; "
        "over the 100x horizon with delta=0.25 the factor is ~0.316, which "
        "can never undercut the 0.2 threshold stated for this check "
        "(possible only for delta >= log5/log100 ~ 0.349)"
    ),
)
def test_08_slln_decay_threshold_as_stated(slln_rows):
    med, lam, elapsed = slln_rows
    factor = med[5000] / med[50]
    ok = factor < 0.2 and lam[50] < lam[500] < lam[5000] and elapsed < 120.0
    record(
        "08-slln-decay",
        ok,
        f"median ratio factor over 100x horizon {factor:.4f} vs required < 0.2",
    )


def test_08b_slln_decay_matches_theoretical_rate(slln_rows):
    med, lam, elapsed = slln_rows
    factor = med[5000] / med[50]
    theory = (5000.0 / 50.0) ** -0.25
    ok = (
        abs(factor - theory) < 0.08
        and lam[50] < lam[500] < lam[5000]
        and med[5000] < med[500] < med[50]
        and elapsed < 120.0
    )
    record(
        "08b-slln-decay-rate",
        ok,
        f"factor {factor:.4f} vs n^-0.25 theory {theory:.4f}; "
        f"lambda_min(V) {sorted(lam.values())}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. proxy-gap discrimination


def test_09_a1_gap_discrimination():
    cfg = gaussian_exch_scenario(seed=909, n=2000)
    t0 = time.perf_counter()
    res = sg.a1_gap_study(
        cfg,
        [
            ("pseudo", sg.WorkingCorrelationSpec.pseudo_likelihood(3)),
            ("identity", sg.WorkingCorrelationSpec.identity(3)),
        ],
        reps=100,
        n_grid=[100, 2000],
        jobs=JOBS,
    )
    elapsed = time.perf_counter() - t0
    rows = {(r["spec"], r["n"]): r["median_gap"] for r in res.rows}
    pseudo_dec = rows[("pseudo", 2000)] < rows[("pseudo", 100)]
    ident_const = (
        abs(rows[("identity", 100)] - 0.4) <= 1e-12
        and abs(rows[("identity", 2000)] - 0.4) <= 1e-12
    )
    record(
        "09-a1-gap-discrimination",
        pseudo_dec and ident_const and elapsed < 300.0,
        f"pseudo {rows[('pseudo', 100)]:.4f}->{rows[('pseudo', 2000)]:.4f}, "
        f"identity stays 0.4, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. condition-report fixtures


def test_10_condition_report_analytic_fixtures():
    # curvature-free identity link
    cfg = gaussian_exch_scenario(seed=1010, n=40)
    ds = sg.simulate_scenario(cfg)
    rep = sg.condition_trajectories(
        ds,
        cfg.beta0,
        "identity",
        sg.WorkingCorrelationSpec.exchangeable(0.4, 3),
        params=sg.DiagnosticsParams(n_grid=(10, 40)),
    )
    k_zero = all(
        v == 0.0
        for key in ("k2", "k3")
        for r in rep.r_grid
        for v in rep.series_by_r[key][r]
    )
    # orthonormal design: the stability ratio is exactly n^{1/2-delta}
    n = 30
    ortho = sg.dataset_from_arrays([(np.zeros(2), np.eye(2)) for _ in range(n)])
    rep2 = sg.condition_trajectories(
        ortho,
        np.zeros(2),
        "identity",
        sg.WorkingCorrelationSpec.identity(2),
        params=sg.DiagnosticsParams(delta=0.25, n_grid=(1, 10, 30)),
    )
    ratio_exact = all(
        abs(v - nn**0.25) <= 1e-12 * nn**0.25
        for nn, v in zip(rep2.n_grid, rep2.series["s_delta_ratio"])
    )
    # all-ones scalar design: leverage is exactly 1/n
    ones = sg.dataset_from_arrays([(np.zeros(1), np.ones((1, 1))) for _ in range(25)])
    rep3 = sg.condition_trajectories(
        ones,
        np.zeros(1),
        "identity",
        sg.WorkingCorrelationSpec.identity(1),
        params=sg.DiagnosticsParams(n_grid=(1, 5, 25)),
    )
    leverage_exact = all(
        abs(g - 1.0 / nn) <= 1e-12 and abs(a - 1.0) <= 1e-12
        for nn, g, a in zip(
            rep3.n_grid, rep3.series["gamma_prime"], rep3.series["a_prime"]
        )
    )
    record(
        "10-condition-report-fixtures",
        k_zero and ratio_exact and leverage_exact,
        f"k2=k3=0 {k_zero}, stability ratio exact {ratio_exact}, "
        f"leverage exact {leverage_exact}",
    )


# ---------------------------------------------------------------------------
# 11. CLI determinism


SCENARIO_TEXT = """\
[scenario]
link = identity
beta0 = 0.5, -0.3
n = 40
m_max = 3
seed = 21

[sizes]
kind = constant
m = 3

[regressors]
kind = iid
scale = 1.0

[truth]
kind = exchangeable
rho = 0.4

[estimators]
names = independence, exchangeable:0.4
"""


def test_11_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO_TEXT)

    def run_all(out_dir, jobs):
        out_dir.mkdir()
        commands = [
            ["simulate", "--scenario", str(scenario), "--out", str(out_dir / "sim")],
            ["fit", "--scenario", str(scenario), "--out", str(out_dir / "fit")],
            [
                "diagnose",
                "--scenario",
                str(scenario),
                "--n-grid",
                "10,40",
                "--reps",
                "2",
                "--jobs",
                str(jobs),
                "--out",
                str(out_dir / "diag"),
            ],
            [
                "study-consistency",
                "--scenario",
                str(scenario),
                "--reps",
                "4",
                "--n-grid",
                "20,40",
                "--jobs",
                str(jobs),
                "--out",
                str(out_dir / "cons"),
            ],
            [
                "study-optimality",
                "--scenario",
                str(scenario),
                "--estimator",
                "exchangeable:0.4",
                "--reps",
                "4",
                "--n-grid",
                "20,40",
                "--jobs",
                str(jobs),
                "--out",
                str(out_dir / "opt"),
            ],
        ]
        for cmd in commands:
            assert cli_main(cmd) == 0
        payload = {}
        for f in sorted(out_dir.rglob("*")):
            if f.is_file():
                payload[str(f.relative_to(out_dir))] = f.read_bytes()
        return payload

    a = run_all(tmp_path / "a", jobs=1)
    b = run_all(tmp_path / "b", jobs=1)
    c = run_all(tmp_path / "c", jobs=2)
    identical_rerun = a == b
    identical_jobs = a == c
    record(
        "11-cli-determinism",
        identical_rerun and identical_jobs,
        f"rerun identical {identical_rerun}, jobs-invariant {identical_jobs} "
        f"({len(a)} files compared)",
    )
