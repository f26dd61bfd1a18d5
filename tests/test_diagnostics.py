import math

import numpy as np
import pytest

from stochgee import (
    CorrelationTruth,
    DiagnosticsParams,
    EstimatingFunction,
    InvalidInputError,
    InvalidVarianceError,
    RegressorProcess,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    WorkingCorrelationSpec,
    a1_gap,
    a1_gap_study,
    ball_lattice,
    condition_trajectories,
    consistency_study,
    dataset_from_arrays,
    optimality_study,
    simulate_scenario,
    slln_decay_study,
    slln_monitor,
)


def gaussian_exch(seed=5, n=60, link="identity", scale=1.0):
    return ScenarioConfig(
        link=link,
        beta0=(0.5, -0.3),
        n=n,
        m_max=3,
        sizes=SizeSchedule(kind="constant", m=3),
        regressors=RegressorProcess(kind="iid", scale=scale),
        truth=TruthSpec(kind="exchangeable", rho=0.4),
        response_family="gaussian_link_moments",
        seed=seed,
    )


def scalar_iid(seed=9, n=200):
    return ScenarioConfig(
        link="identity",
        beta0=(0.0,),
        n=n,
        m_max=1,
        sizes=SizeSchedule(kind="constant", m=1),
        regressors=RegressorProcess(kind="iid", loc=1.0, scale=0.0),
        truth=TruthSpec(kind="independence"),
        response_family="gaussian_link_moments",
        seed=seed,
    )


class TestBallLattice:
    def test_counts_and_radii(self):
        center = np.array([1.0, -1.0])
        pts = ball_lattice(center, 0.5)
        assert pts.shape == (2 * 2 + 4 + 1, 2)
        radii = np.linalg.norm(pts - center, axis=1)
        assert radii[0] == 0.0
        np.testing.assert_allclose(radii[1:], 0.5, atol=1e-12)


class TestConditionTrajectories:
    def test_identity_link_curvature_free(self):
        cfg = gaussian_exch()
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        rep = condition_trajectories(
            ds,
            cfg.beta0,
            "identity",
            spec,
            truth=cfg.truth.template(3),
            params=DiagnosticsParams(n_grid=(10, 30, 60)),
        )
        for r in rep.r_grid:
            assert all(v == 0.0 for v in rep.series_by_r["k2"][r])
            assert all(v == 0.0 for v in rep.series_by_r["k3"][r])
            assert all(v == 0.0 for v in rep.series_by_r["eta"][r])
            assert all(v == 1.0 for v in rep.series_by_r["pi"][r])
            assert all(v == 0.0 for v in rep.series_by_r["d"][r])

    def test_orthonormal_design_s_delta_ratio(self):
        n = 40
        ds = dataset_from_arrays([(np.zeros(2), np.eye(2)) for _ in range(n)])
        spec = WorkingCorrelationSpec.identity(2)
        delta = 0.25
        rep = condition_trajectories(
            ds,
            np.zeros(2),
            "identity",
            spec,
            params=DiagnosticsParams(delta=delta, n_grid=(1, 5, 20, 40)),
        )
        for n_ck, val in zip(rep.n_grid, rep.series["s_delta_ratio"]):
            assert val == pytest.approx(n_ck ** (0.5 - delta), rel=1e-12)
        assert rep.series["lambda_min_h_prime"] == [1.0, 5.0, 20.0, 40.0]
        # running minimum of an increasing ratio stays at its first value
        assert rep.series["c0_running_min"][-1] == pytest.approx(1.0, rel=1e-12)

    def test_scalar_all_ones_leverage(self):
        n = 25
        ds = dataset_from_arrays([(np.zeros(1), np.ones((1, 1))) for _ in range(n)])
        rep = condition_trajectories(
            ds,
            np.zeros(1),
            "identity",
            WorkingCorrelationSpec.identity(1),
            params=DiagnosticsParams(n_grid=(1, 5, 25)),
        )
        for n_ck, gamma, a in zip(
            rep.n_grid, rep.series["gamma_prime"], rep.series["a_prime"]
        ):
            assert gamma == pytest.approx(1.0 / n_ck, rel=1e-12)
            assert a == pytest.approx(1.0, rel=1e-12)

    def test_proxy_eigen_constants_for_templates(self):
        cfg = gaussian_exch()
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        rep = condition_trajectories(
            ds, cfg.beta0, "identity", spec, params=DiagnosticsParams(n_grid=(20, 60))
        )
        np.testing.assert_allclose(rep.series["lambda_min_rstar"], 0.6, atol=1e-12)
        np.testing.assert_allclose(rep.series["lambda_max_rstar"], 1.8, atol=1e-12)

    def test_truth_series_and_monotone_h(self):
        cfg = gaussian_exch(link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        rep = condition_trajectories(
            ds,
            cfg.beta0,
            "log",
            spec,
            truth=cfg.truth.template(3),
            params=DiagnosticsParams(n_grid=(10, 30, 60), r_grid=(0.3, 0.1)),
        )
        lam = rep.series["lambda_min_h_prime"]
        assert all(b >= a for a, b in zip(lam, lam[1:]))
        assert "a1_gap" in rep.series
        assert "det_ratio_h" in rep.series
        np.testing.assert_allclose(rep.series["lambda_max_rbar"], 1.8, atol=1e-12)
        for r in rep.r_grid:
            assert all(np.isfinite(rep.series_by_r["pi"][r]))
            assert all(np.isfinite(rep.series_by_r["d"][r]))
            assert all(v >= 1.0 - 1e-9 for v in rep.series_by_r["pi"][r])
            # composite definitions agree with their factors
            for gi, n in enumerate(rep.n_grid):
                c4 = rep.series_by_r["c4"][r][gi]
                pi = rep.series_by_r["pi"][r][gi]
                at = rep.series["a_tilde_prime"][gi]
                hi = rep.series["lambda_max_h_prime"][gi]
                assert c4 == pytest.approx(n * pi**2 * at * hi, rel=1e-12)

    def test_singular_prefix_marks_infinite_leverage(self):
        # one scalar row cannot identify two coefficients: H' is singular
        ds = dataset_from_arrays(
            [(np.zeros(1), np.array([[1.0, 0.0]]))]
            + [(np.zeros(2), np.eye(2)) for _ in range(4)],
            m_max=2,
        )
        rep = condition_trajectories(
            ds,
            np.zeros(2),
            "identity",
            WorkingCorrelationSpec.identity(2),
            params=DiagnosticsParams(n_grid=(1, 5)),
        )
        assert math.isinf(rep.series["gamma_prime"][0])
        assert math.isfinite(rep.series["gamma_prime"][1])
        assert math.isnan(rep.series["s_delta_ratio"][0])

    def test_json_round_trip_markers(self):
        ds = dataset_from_arrays([(np.zeros(1), np.array([[1.0, 0.0]]))], m_max=1)
        rep = condition_trajectories(
            ds,
            np.zeros(2),
            "identity",
            WorkingCorrelationSpec.identity(1),
            params=DiagnosticsParams(n_grid=(1,)),
        )
        d = rep.to_json_dict()
        assert d["series"]["gamma_prime"][0] == "inf"

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            DiagnosticsParams(delta=0.0)
        with pytest.raises(InvalidInputError):
            DiagnosticsParams(r_grid=(0.1, 0.5))
        with pytest.raises(InvalidInputError):
            DiagnosticsParams(n_grid=(5, 5))

    def test_report_is_deterministic(self):
        cfg = gaussian_exch(n=30, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        kwargs = dict(
            truth=cfg.truth.template(3),
            params=DiagnosticsParams(n_grid=(10, 30), r_grid=(0.2,)),
        )
        a = condition_trajectories(ds, cfg.beta0, "log", spec, **kwargs)
        b = condition_trajectories(ds, cfg.beta0, "log", spec, **kwargs)
        assert a.series == b.series
        assert a.series_by_r == b.series_by_r

    def test_rbar_extremes_bounded_by_cluster_size(self):
        cfg = gaussian_exch(n=20)
        ds = simulate_scenario(cfg)
        rep = condition_trajectories(
            ds,
            cfg.beta0,
            "identity",
            WorkingCorrelationSpec.identity(3),
            truth=cfg.truth.template(3),
            params=DiagnosticsParams(n_grid=(5, 20)),
        )
        assert all(v <= 3.0 + 1e-12 for v in rep.series["lambda_max_rbar"])
        assert all(v > 0.0 for v in rep.series["lambda_min_rbar"])


def lattice_overflow_pairs():
    """Log-link clusters that are regular at beta = 0 but overflow at
    lattice points of radius 0.5: cluster 5 (size 1) along the first
    coordinate and cluster 3 (size 2, a later bucket) along the second."""
    rng = np.random.default_rng(21)
    pairs = []
    for i in range(1, 9):
        m = 1 if i in (2, 5) else 2
        x = 0.3 * rng.standard_normal((m, 2))
        if i == 5:
            x[:, 0] = 1500.0
        if i == 3:
            x[:, 1] = 1500.0
        pairs.append((1.0 + 0.5 * rng.standard_normal(m), x))
    return pairs


class TestLatticeErrorPath:
    def test_first_bad_lattice_point_is_named(self):
        # the centre and its neighbours are regular; the first lattice
        # point visited, beta + 0.5 e_1, overflows cluster 5 while cluster
        # 3 only overflows later, at beta + 0.5 e_2
        ds = dataset_from_arrays(lattice_overflow_pairs(), m_max=2)
        spec = WorkingCorrelationSpec.pseudo_likelihood(2)
        with pytest.raises(InvalidVarianceError) as err:
            condition_trajectories(ds, np.zeros(2), "log", spec)
        assert str(err.value) == "cluster 5: non-finite moments at beta=[0.5, 0.0]"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_checkpoint_checks_come_before_the_lattice(self):
        # a huge response overflows the centre's residual outer products, so
        # R_{n-1} is non-finite at the checkpoints while the centre's moments
        # are regular; its eigenvalue check fails before any lattice point
        pairs = lattice_overflow_pairs()
        pairs[6] = (np.array([1e160, 1.0]), pairs[6][1])
        ds = dataset_from_arrays(pairs, m_max=2)
        spec = WorkingCorrelationSpec.pseudo_likelihood(2)
        with pytest.raises(InvalidInputError, match="NaN or infinite entries"):
            condition_trajectories(ds, np.zeros(2), "log", spec)


class TestSllnMonitor:
    def test_scalar_direct_substitution(self):
        rng = np.random.default_rng(2)
        eps = rng.standard_normal(100)
        trace = [
            (np.array([eps[:n].sum()]), np.array([[float(n)]]))
            for n in range(1, 101)
        ]
        out = slln_monitor(trace, delta=0.25)
        for n in (1, 10, 100):
            expect = abs(eps[:n].sum()) / n**0.75
            assert out["ratio"][n - 1] == pytest.approx(expect, rel=1e-12)
        np.testing.assert_allclose(out["lambda_min_v"], np.arange(1.0, 101.0))

    def test_zero_martingale(self):
        trace = [(np.zeros(2), np.eye(2) * n) for n in range(1, 6)]
        out = slln_monitor(trace, delta=0.1)
        assert all(v == 0.0 for v in out["ratio"])

    def test_zero_variance_marker(self):
        out = slln_monitor([(np.ones(1), np.zeros((1, 1)))], delta=0.25)
        assert math.isnan(out["ratio"][0])

    def test_delta_validation(self):
        with pytest.raises(InvalidInputError):
            slln_monitor([], delta=0.0)


class TestA1Gap:
    def test_exact_match_is_zero(self):
        t = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        gaps = a1_gap([t.template.copy()] * 4, [t.template.copy()] * 4)
        assert gaps == [0.0] * 4

    def test_identity_vs_exchangeable_constant(self):
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        gaps = a1_gap([np.eye(3)] * 5, [truth.rbar(3)] * 5)
        np.testing.assert_allclose(gaps, 0.4, atol=1e-15)

    def test_study_discriminates_specs(self):
        cfg = gaussian_exch(n=400)
        res = a1_gap_study(
            cfg,
            [
                ("identity", WorkingCorrelationSpec.identity(3)),
                ("pseudo", WorkingCorrelationSpec.pseudo_likelihood(3)),
            ],
            reps=10,
            n_grid=[50, 400],
            jobs=2,
        )
        rows = {(r["spec"], r["n"]): r["median_gap"] for r in res.rows}
        assert rows[("identity", 50)] == pytest.approx(0.4, abs=1e-12)
        assert rows[("identity", 400)] == pytest.approx(0.4, abs=1e-12)
        assert rows[("pseudo", 400)] < rows[("pseudo", 50)]


class TestStudies:
    def test_optimality_spec_equals_truth(self):
        cfg = gaussian_exch(n=40)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        res = optimality_study(
            cfg, [("truth", spec)], reps=3, n_grid=[10, 40], jobs=1
        )
        for row in res.rows:
            assert row["det_ratio_h"] == pytest.approx(1.0, abs=1e-10)
            assert row["det_ratio_m"] == pytest.approx(1.0, abs=1e-10)

    def test_optimality_requires_gaussian_truth(self):
        cfg = ScenarioConfig(
            link="log",
            beta0=(0.1,),
            n=10,
            m_max=2,
            sizes=SizeSchedule(kind="constant", m=2),
            regressors=RegressorProcess(kind="iid", scale=0.2),
            truth=TruthSpec(kind="exchangeable", rho=0.3),
            response_family="poisson_log",
            seed=4,
        )
        from stochgee import ConfigError

        with pytest.raises(ConfigError):
            optimality_study(
                cfg, [("identity", WorkingCorrelationSpec.identity(2))], 2, [10]
            )

    def test_optimality_jobs_invariance(self):
        cfg = gaussian_exch(n=30)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        r1 = optimality_study(cfg, [("pseudo", spec)], 4, [30], perturbed=True, jobs=1)
        r2 = optimality_study(cfg, [("pseudo", spec)], 4, [30], perturbed=True, jobs=2)
        assert r1.rows == r2.rows

    def test_slln_decay(self):
        res = slln_decay_study(
            scalar_iid(n=800),
            EstimatingFunction.independence(),
            delta=0.25,
            reps=40,
            n_grid=[50, 800],
            jobs=2,
        )
        med = {r["n"]: r["median_ratio"] for r in res.rows}
        lam = {r["n"]: r["median_lambda_min_v"] for r in res.rows}
        assert lam[50] == pytest.approx(50.0, abs=1e-9)
        assert lam[800] == pytest.approx(800.0, abs=1e-9)
        # theoretical median ratio is 0.6745 * n^{-1/4}
        assert med[50] == pytest.approx(0.6745 / 50**0.25, rel=0.35)
        assert med[800] < med[50]

    def test_consistency_study_smoke(self):
        cfg = gaussian_exch(n=120)
        res = consistency_study(
            cfg,
            [("independence", EstimatingFunction.independence())],
            reps=8,
            n_grid=[30, 120],
            jobs=2,
        )
        rows = {r["n"]: r for r in res.rows}
        assert rows[120]["median_err"] < rows[30]["median_err"]
        assert rows[120]["converged_fraction"] == 1.0
        assert res.meta["failures"] == 0


class TestSafeRatio:
    def test_singular_denominator_is_nan(self):
        from stochgee.diagnostics import _safe_ratio

        assert math.isnan(_safe_ratio(np.eye(2), np.zeros((2, 2))))
        assert _safe_ratio(2.0 * np.eye(2), np.eye(2)) == pytest.approx(4.0)

    def test_shape_mismatch_still_raises(self):
        from stochgee.diagnostics import _safe_ratio

        with pytest.raises(InvalidInputError):
            _safe_ratio(np.eye(2), np.eye(3))
