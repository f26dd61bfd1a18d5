import numpy as np
import pytest

from stochgee import (
    CorrelationTruth,
    EstimatingFunction,
    InvalidInputError,
    Perturbation,
    RegressorProcess,
    ScenarioConfig,
    SingularDenominatorError,
    SizeSchedule,
    TruthSpec,
    UnsupportedMethodError,
    WorkingCorrelationSpec,
    a2_schedule,
    conditional_variance,
    corr_trajectory,
    dataset_from_arrays,
    det_ratio,
    eval_g,
    eval_g_perturbed,
    integrability_summary,
    jacobian,
    optimality_matrices,
    resolve_estimator,
    simulate_scenario,
)

from oracles import cofactor_det


def exch_scenario(seed=11, n=60, link="identity", scale=1.0):
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


class TestEvalG:
    def test_identity_spec_equals_independence(self):
        ds = simulate_scenario(exch_scenario())
        ind = EstimatingFunction.independence()
        idspec = EstimatingFunction.gee_star(WorkingCorrelationSpec.identity(3))
        rng = np.random.default_rng(1)
        for _ in range(5):
            beta = rng.standard_normal(2)
            np.testing.assert_array_equal(
                eval_g(ind, ds, beta, "identity"),
                eval_g(idspec, ds, beta, "identity"),
            )

    def test_zero_residuals_give_zero(self):
        rng = np.random.default_rng(2)
        beta = np.array([0.4, -0.1])
        pairs = []
        for _ in range(5):
            x = rng.standard_normal((3, 2))
            pairs.append((np.exp(x @ beta), x))
        ds = dataset_from_arrays(pairs)
        spec = WorkingCorrelationSpec.exchangeable(0.2, 3)
        g = eval_g(EstimatingFunction.gee_star(spec), ds, beta, "log")
        np.testing.assert_allclose(g, np.zeros(2), atol=1e-12)

    def test_scalar_hand_example(self):
        # one cluster, x=1, y=2, log link at beta=0: residual 2-1, the
        # variance factors cancel at size one
        ds = dataset_from_arrays([([2.0], [[1.0]])])
        spec = WorkingCorrelationSpec.exchangeable(0.5, 1)
        g = eval_g(EstimatingFunction.gee_star(spec), ds, np.zeros(1), "log")
        assert g[0] == pytest.approx(1.0, abs=1e-14)

    def test_fixed_scaling_inverse(self):
        ds = simulate_scenario(exch_scenario())
        beta = np.array([0.2, 0.2])
        base = np.full((3, 3), 0.4)
        np.fill_diagonal(base, 1.0)
        g1 = eval_g(
            EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(base)),
            ds,
            beta,
            "identity",
        )
        for c in (0.5, 2.0, 10.0):
            gc = eval_g(
                EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(c * base)),
                ds,
                beta,
                "identity",
            )
            np.testing.assert_allclose(gc, g1 / c, rtol=1e-12)

    def test_general_variant_history_interface(self):
        ds = simulate_scenario(exch_scenario(n=10))
        seen = []

        def coeff(history, x_i, beta):
            seen.append(len(history))
            return x_i.T

        g_general = eval_g(
            EstimatingFunction.general(coeff), ds, np.array([0.1, 0.1]), "identity"
        )
        g_ind = eval_g(
            EstimatingFunction.independence(), ds, np.array([0.1, 0.1]), "identity"
        )
        np.testing.assert_allclose(g_general, g_ind, atol=1e-12)
        assert seen == list(range(10))

    def test_general_history_cannot_reach_current_cluster(self):
        ds = simulate_scenario(exch_scenario(n=6))
        checked = []

        def coeff(history, x_i, beta):
            i = len(history)
            assert [c.index for c in history] == list(range(1, i + 1))
            assert history[:] == ds.clusters[:i]
            if i:
                assert history[-1] is ds.clusters[i - 1]
                assert history[-i] is ds.clusters[0]
            for k in (i, i + 1, -i - 1):
                with pytest.raises(IndexError):
                    history[k]
            checked.append(i)
            return x_i.T

        eval_g(EstimatingFunction.general(coeff), ds, np.zeros(2), "identity")
        assert checked == list(range(6))

    def test_quasi_score_equals_gee_at_truth_template(self):
        cfg = exch_scenario()
        ds = simulate_scenario(cfg)
        truth = cfg.truth.template(3)
        beta = np.array([0.5, -0.3])
        g_q = eval_g(EstimatingFunction.quasi_score(truth), ds, beta, "identity")
        g_s = eval_g(
            EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(truth.template)),
            ds,
            beta,
            "identity",
        )
        np.testing.assert_allclose(g_q, g_s, rtol=1e-12)


class TestPerturbed:
    def test_zero_perturbation_bitwise(self):
        cfg = exch_scenario(link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        beta = cfg.beta0_array
        for spec in (
            WorkingCorrelationSpec.exchangeable(0.4, 3),
            WorkingCorrelationSpec.identity(3),
            WorkingCorrelationSpec.pseudo_likelihood(3),
        ):
            kind = EstimatingFunction.gee_star(spec)
            zero = Perturbation.zero(ds)
            g0 = eval_g(kind, ds, beta, "log")
            g1 = eval_g_perturbed(ds, beta, zero, "log", spec)
            np.testing.assert_array_equal(g0, g1)

    def test_scalar_hand_example(self):
        # identity link, delta=0.1 on x=1: transformed regressor 1.1,
        # residual evaluated at the unperturbed mean mu(0)=0
        ds = dataset_from_arrays([([1.0], [[1.0]])])
        pert = Perturbation((np.array([[0.1]]),), bound=0.5)
        g = eval_g_perturbed(
            ds, np.zeros(1), pert, "identity", WorkingCorrelationSpec.identity(1)
        )
        assert g[0] == pytest.approx(1.1, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_perturbation_rejects_non_finite_delta(self, bad):
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            Perturbation((np.array([[bad, 0.1]]),), bound=0.5)

    def test_perturbation_names_first_delta_over_bound(self):
        deltas = (np.zeros((2, 1)), np.full((2, 3), 0.5), np.full((2, 1), 0.5))
        with pytest.raises(InvalidInputError, match="^delta 2 exceeds"):
            Perturbation(deltas, bound=0.5)
        with pytest.raises(InvalidInputError, match="^delta 3 must be a matrix"):
            Perturbation(deltas[:2] + (np.zeros(2),), bound=2.0)

    def test_geometric_schedule_bounded_difference(self):
        cfg = exch_scenario(seed=7, n=200, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        beta = cfg.beta0_array
        pert, report = a2_schedule(ds, beta, "log", spec, seed=99)
        assert not report["violations"]
        kind = EstimatingFunction.gee_star(spec)
        diffs = []
        for n in (1, 10, 50, 100, 200):
            sub = Perturbation(pert.deltas[:n], bound=pert.bound)
            d = np.linalg.norm(
                eval_g_perturbed(ds.prefix(n), beta, sub, "log", spec)
                - eval_g(kind, ds.prefix(n), beta, "log")
            )
            diffs.append(d)
        # geometric norms make the difference summable: bounded in n
        assert max(diffs) < 0.5
        assert abs(diffs[-1] - diffs[-2]) < 1e-9

    def test_schedule_norm_bounds(self):
        cfg = exch_scenario(n=30)
        ds = simulate_scenario(cfg)
        pert, report = a2_schedule(
            ds, cfg.beta0_array, "identity", WorkingCorrelationSpec.identity(3), seed=5
        )
        for i, d in enumerate(pert.deltas, start=1):
            assert np.linalg.norm(d, 2) <= 2.0 ** (-i) * (1 + 1e-9)
        assert not report["violations"]

    def test_schedule_reports_ordered_prefix(self):
        # the pass in cluster order stops once 2^-i falls below the rounding
        # of the perturbed residuals; a data-independent proxy needs none
        cfg = exch_scenario(n=120, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        for spec, (lo, hi) in (
            (WorkingCorrelationSpec.exchangeable(0.4, 3), (0, 0)),
            (WorkingCorrelationSpec.pseudo_likelihood(3), (30, 70)),
        ):
            _, report = a2_schedule(ds, cfg.beta0_array, "log", spec, seed=3)
            assert lo <= report["ordered_prefix"] <= hi

    def test_pseudo_schedule_reports_history_violations(self):
        # the inverse-proxy inequality at step i is set by earlier deltas;
        # halving the current delta cannot repair it, so violations are
        # recorded rather than raised
        cfg = exch_scenario(n=40, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        pert, report = a2_schedule(ds, cfg.beta0_array, "log", spec, seed=3)
        assert report["violations"]
        for i, d in enumerate(pert.deltas, start=1):
            assert np.linalg.norm(d, 2) <= 2.0 ** (-i) * (1 + 1e-9)


class TestJacobian:
    def test_identity_link_constant_in_beta(self):
        cfg = exch_scenario()
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        kind = EstimatingFunction.gee_star(spec)
        d1 = jacobian(kind, ds, np.zeros(2), "identity", method="analytic")
        d2 = jacobian(kind, ds, np.array([5.0, -4.0]), "identity", method="analytic")
        np.testing.assert_allclose(d1, d2, rtol=1e-12)
        rinv = np.linalg.inv(
            np.full((3, 3), 0.4) + 0.6 * np.eye(3)
        )
        expect = sum(c.regressors.T @ rinv @ c.regressors for c in ds.clusters)
        np.testing.assert_allclose(d1, expect, rtol=1e-10)

    def test_scalar_log_example(self):
        ds = dataset_from_arrays([([2.0], [[1.0]])])
        kind = EstimatingFunction.independence()
        for beta in (0.0, 0.7, -1.2):
            d = jacobian(kind, ds, np.array([beta]), "log", method="analytic")
            assert d[0, 0] == pytest.approx(np.exp(beta), rel=1e-12)

    @pytest.mark.parametrize("link", ["identity", "log"])
    @pytest.mark.parametrize(
        "estimator", ["independence", "exchangeable:0.4", "ar1:0.3", "quasi"]
    )
    def test_analytic_matches_finite_difference(self, link, estimator):
        cfg = exch_scenario(link=link, scale=0.4)
        ds = simulate_scenario(cfg)
        truth = cfg.truth.template(3)
        kind = resolve_estimator(estimator, 3, truth)
        rng = np.random.default_rng(hash((link, estimator)) % 2**32)
        for _ in range(3):
            beta = rng.uniform(-0.5, 0.5, size=2)
            da = jacobian(kind, ds, beta, link, method="analytic")
            df = jacobian(kind, ds, beta, link, method="finite_difference")
            err = np.abs(da - df) / np.maximum(np.abs(da), 1e-8)
            assert err.max() < 1e-5

    def test_analytic_unavailable_for_probit(self):
        cfg = exch_scenario(link="probit", scale=0.3)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
        with pytest.raises(UnsupportedMethodError):
            jacobian(kind, ds, np.zeros(2), "probit", method="analytic")
        jacobian(kind, ds, np.zeros(2), "probit")  # auto falls back

    def test_analytic_unavailable_for_pseudo(self):
        cfg = exch_scenario()
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        with pytest.raises(UnsupportedMethodError):
            jacobian(kind, ds, np.zeros(2), "identity", method="analytic")

    @pytest.mark.parametrize("link", ["identity", "log"])
    def test_frozen_pseudo_proxy_takes_analytic_path(self, link):
        # a frozen proxy no longer depends on beta, so the default method
        # is the analytic Jacobian
        cfg = exch_scenario(link=link, scale=0.4)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        beta = np.array([0.3, -0.2])
        frozen = corr_trajectory(ds, beta + 0.1, link, kind.spec)
        auto = jacobian(kind, ds, beta, link, frozen_corr=frozen)
        da = jacobian(kind, ds, beta, link, frozen_corr=frozen, method="analytic")
        df = jacobian(
            kind, ds, beta, link, frozen_corr=frozen, method="finite_difference"
        )
        np.testing.assert_array_equal(auto, da)
        err = np.abs(da - df) / np.maximum(np.abs(da), 1e-8)
        assert err.max() < 1e-5


class TestOptimalityMatrices:
    def test_spec_equal_truth_identities(self):
        cfg = exch_scenario(n=50)
        datasets = [simulate_scenario(cfg, rep) for rep in range(3)]
        truth = cfg.truth.template(3)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        mats = optimality_matrices(datasets, cfg.beta0, "identity", spec, truth)
        for path in mats.per_path:
            np.testing.assert_array_equal(path["h_star"], path["m_bar"])
            np.testing.assert_allclose(path["m_star"], path["m_bar"], rtol=1e-12)
        for n in (1, 10, 50):
            rh, rm = mats.det_ratios_at(n)
            assert rh == pytest.approx(1.0, abs=1e-12)
            assert rm == pytest.approx(1.0, abs=1e-12)

    def test_identity_spec_identity_link_fixed_design(self):
        # deterministic regressors: h_ind has zero ensemble variance
        x = np.arange(6.0).reshape(3, 2) / 3.0
        pairs = [(np.zeros(3), x), (np.ones(3), x)]
        ds1 = dataset_from_arrays(pairs, m_max=3)
        ds2 = dataset_from_arrays([(p[0] + 1.0, p[1]) for p in pairs], m_max=3)
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        spec = WorkingCorrelationSpec.identity(3)
        mats = optimality_matrices([ds1, ds2], np.zeros(2), "identity", spec, truth)
        np.testing.assert_allclose(mats.h_ind, 2 * x.T @ x, atol=1e-12)
        assert np.array_equal(mats.per_path[0]["h_ind"], mats.per_path[1]["h_ind"])
        # m_bar never involves the responses: with a fixed design the
        # ensemble estimate equals the closed form exactly
        rinv = np.linalg.inv(truth.rbar(3))
        np.testing.assert_allclose(mats.m_bar, 2 * x.T @ rinv @ x, atol=1e-10)

    def test_partial_sums(self):
        cfg = exch_scenario(n=20)
        ds = simulate_scenario(cfg)
        truth = cfg.truth.template(3)
        spec = WorkingCorrelationSpec.exchangeable(0.1, 3)
        mats = optimality_matrices([ds], cfg.beta0, "identity", spec, truth)
        window = mats.partial(5, 20, "h_star")
        np.testing.assert_allclose(
            window + mats.partial(1, 4, "h_star"), mats.h_star, rtol=1e-12
        )

    def test_empty_ensemble(self):
        with pytest.raises(InvalidInputError):
            optimality_matrices(
                [],
                np.zeros(2),
                "identity",
                WorkingCorrelationSpec.identity(3),
                CorrelationTruth.plugin(3),
            )


class TestConditionalVariance:
    def test_independence_plugin_equals_h_ind(self):
        cfg = exch_scenario(n=15)
        ds = simulate_scenario(cfg)
        res = conditional_variance(
            EstimatingFunction.independence(),
            ds,
            cfg.beta0,
            "identity",
            CorrelationTruth.plugin(3),
        )
        expect = sum(c.regressors.T @ c.regressors for c in ds.clusters)
        np.testing.assert_allclose(res.v_n, expect, rtol=1e-12)

    def test_scalar_unit_design(self):
        ds = dataset_from_arrays([([0.0], [[1.0]]) for _ in range(7)])
        res = conditional_variance(
            EstimatingFunction.independence(),
            ds,
            np.zeros(1),
            "identity",
            CorrelationTruth.plugin(1),
        )
        assert res.v_n[0, 0] == pytest.approx(7.0, abs=1e-12)
        np.testing.assert_allclose(res.at(3), [[3.0]], atol=1e-12)

    def test_exchangeable_truth_increment_matches_direct_product(self):
        cfg = exch_scenario(n=5)
        ds = simulate_scenario(cfg)
        truth = cfg.truth.template(3)
        spec = WorkingCorrelationSpec.ar1(0.25, 3)
        kind = EstimatingFunction.gee_star(spec)
        res = conditional_variance(kind, ds, cfg.beta0, "identity", truth)
        rinv = np.linalg.inv(spec.rho ** np.abs(np.subtract.outer(range(3), range(3))))
        for pos, c in enumerate(ds.clusters):
            # identity link: A = I, so C_i = X' R^{-1}
            coeff = c.regressors.T @ rinv
            direct = coeff @ truth.rbar(3) @ coeff.T
            assert np.max(np.abs(res.increments[pos] - direct)) < 1e-12

    def test_increments_psd(self):
        cfg = exch_scenario(n=25, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        res = conditional_variance(
            EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3)),
            ds,
            cfg.beta0,
            "log",
            cfg.truth.template(3),
        )
        for inc in res.increments:
            assert np.min(np.linalg.eigvalsh(inc)) >= -1e-10


class TestDetRatio:
    def test_equal(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert det_ratio(m, m) == pytest.approx(1.0, abs=1e-15)

    def test_scaling(self):
        for p in (1, 2, 3, 4):
            assert det_ratio(2 * np.eye(p), np.eye(p)) == pytest.approx(2.0**p)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(31)
        for p in (2, 3, 4):
            a = rng.standard_normal((p, p))
            b = rng.standard_normal((p, p))
            num, den = a @ a.T + np.eye(p), b @ b.T + np.eye(p)
            expect = cofactor_det(num) / cofactor_det(den)
            assert det_ratio(num, den) == pytest.approx(expect, rel=1e-10)

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominatorError):
            det_ratio(np.eye(2), np.zeros((2, 2)))


class TestIntegrability:
    def test_means_stable_under_ensemble_doubling(self):
        cfg = exch_scenario(link="log", scale=0.4, n=40)
        truth = cfg.truth.template(3)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
        small = [simulate_scenario(cfg, r) for r in range(4)]
        large = small + [simulate_scenario(cfg, r) for r in range(4, 8)]
        s1 = integrability_summary(kind, small, cfg.beta0, "log", truth)
        s2 = integrability_summary(kind, large, cfg.beta0, "log", truth)
        for key in s1:
            assert np.isfinite(s1[key]) and np.isfinite(s2[key])
            assert 0.5 < s2[key] / s1[key] < 2.0


class TestResolveEstimator:
    def test_names(self):
        assert resolve_estimator("independence", 3).variant == "independence"
        assert resolve_estimator("identity", 3).spec.kind == "identity"
        assert resolve_estimator("exchangeable:0.4", 3).spec.rho == 0.4
        assert resolve_estimator("ar1:-0.2", 3).spec.rho == -0.2
        assert resolve_estimator("pseudo", 3).spec.kind == "pseudo_likelihood"
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        assert resolve_estimator("truth", 3, truth).spec.kind == "fixed"
        assert resolve_estimator("quasi", 3, truth).variant == "quasi_score"

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            resolve_estimator("exchangeable", 3)
        with pytest.raises(InvalidInputError):
            resolve_estimator("quasi", 3)
        with pytest.raises(InvalidInputError):
            resolve_estimator("mystery", 3)
