import re

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
    WorkingCorrelationSpec,
    a2_halving_pass,
    a2_schedule,
    corr_trajectory,
    dataset_from_arrays,
    det_ratio,
    eval_g,
    eval_g_perturbed,
    get_link,
    information_sums,
    integrability_summary,
    jacobian,
    linear_closed_form,
    needs_truth,
    resolve_estimator,
    score_increments,
    simulate_scenario,
)
from stochgee.estimating import (
    Lanes,
    _fd_jacobian,
    _whiten,
    _whitened_jacobian,
    freeze_proxy,
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

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
    def test_perturbation_bound_must_be_positive(self, bound):
        # a NaN bound would pass a delta of spectral norm 5.1
        with pytest.raises(InvalidInputError, match="^perturbation bound must be"):
            Perturbation((np.array([[5.1, 0.0]]),), bound=bound)

    def test_perturbation_names_first_delta_over_bound(self):
        deltas = (np.zeros((2, 1)), np.full((2, 3), 0.5), np.full((2, 1), 0.5))
        with pytest.raises(InvalidInputError, match="^delta 2 exceeds"):
            Perturbation(deltas, bound=0.5)
        with pytest.raises(InvalidInputError, match="^delta 3 must be a matrix"):
            Perturbation(deltas[:2] + (np.zeros(2),), bound=2.0)

    def test_bound_screen_decides_as_the_spectral_norm(self):
        # every Frobenius norm is above the bound, so each delta reaches the
        # SVD; the spectral norms sit a few ulps on either side of the
        # threshold, and a delta is rejected exactly when
        # np.linalg.norm(d, 2) exceeds it
        bound = 0.25
        threshold = bound * (1.0 + 1e-9)
        small = np.full((2, 1), 0.1)
        big = np.full((2, 2), bound)
        rng = np.random.default_rng(14)
        outcomes = []
        for _ in range(20):
            base = rng.uniform(-1.0, 1.0, size=(2, 3))
            base *= threshold / np.linalg.norm(base, 2)
            for k in range(-4, 5):
                d = base * (1.0 + k * np.finfo(float).eps)
                assert np.linalg.norm(d) > bound
                over = bool(np.linalg.norm(d, 2) > threshold)
                outcomes.append(over)
                with pytest.raises(InvalidInputError) as err:
                    Perturbation((small, d, big), bound)
                assert str(err.value) == (
                    f"delta {2 if over else 3} exceeds the declared spectral-norm bound"
                )
                if over:
                    with pytest.raises(InvalidInputError, match="^delta 2 exceeds"):
                        Perturbation((small, d), bound)
                else:
                    Perturbation((small, d), bound)
        assert any(outcomes) and not all(outcomes)
        nan = np.full((2, 2), np.nan)
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            Perturbation((small, nan, big), bound)

    def test_perturbation_rejects_mixed_row_counts(self):
        deltas = (np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((3, 1)))
        msg = "^delta 3 has 3 rows, delta 1 has 2$"
        with pytest.raises(InvalidInputError, match=msg):
            Perturbation(deltas, bound=0.5)

    @pytest.mark.parametrize(
        "spec",
        [
            WorkingCorrelationSpec.exchangeable(0.3, 4),
            WorkingCorrelationSpec.pseudo_likelihood(4),
        ],
    )
    def test_schedule_stack_is_the_padded_deltas(self, spec):
        # sizes 1..3 under m_max = 4: the stack is padded to the largest size
        rng = np.random.default_rng(8)
        pairs = [
            (1.0 + rng.standard_normal(m), 0.4 * rng.standard_normal((m, 2)))
            for m in rng.integers(1, 4, size=40)
        ]
        ds = dataset_from_arrays(pairs, m_max=4)
        halving = a2_halving_pass(ds, np.array([0.2, -0.1]), "log", 4)
        pert, _ = a2_schedule(halving, spec)
        assert pert.stack.shape == (40, 2, 3)
        assert pert.sizes.tolist() == [c.size for c in ds.clusters]
        rebuilt = Perturbation(pert.deltas, 0.5)
        assert rebuilt.stack.tobytes() == pert.stack.tobytes()
        assert rebuilt.sizes.tolist() == pert.sizes.tolist()
        for p in (pert, rebuilt):
            assert not (p.stack.flags.writeable or p.sizes.flags.writeable)
            for d, m, padded in zip(p.deltas, p.sizes, p.stack):
                assert d.shape == (2, m) and not d.flags.writeable
                assert np.shares_memory(d, p.stack)
                assert not padded[:, m:].any()

    def test_geometric_schedule_bounded_difference(self):
        cfg = exch_scenario(seed=7, n=200, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        beta = cfg.beta0_array
        pert, report = a2_schedule(a2_halving_pass(ds, beta, "log", 99), spec)
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
        halving = a2_halving_pass(ds, cfg.beta0_array, "identity", 5)
        pert, report = a2_schedule(halving, WorkingCorrelationSpec.identity(3))
        for i, d in enumerate(pert.deltas, start=1):
            assert np.linalg.norm(d, 2) <= 2.0 ** (-i) * (1 + 1e-9)
        assert not report["violations"]

    def test_schedule_reports_ordered_prefix(self):
        # the pass in cluster order stops once 2^-i falls below the rounding
        # of the perturbed residuals; a data-independent proxy needs none
        cfg = exch_scenario(n=120, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        halving = a2_halving_pass(ds, cfg.beta0_array, "log", 3)
        for spec, (lo, hi) in (
            (WorkingCorrelationSpec.exchangeable(0.4, 3), (0, 0)),
            (WorkingCorrelationSpec.pseudo_likelihood(3), (30, 70)),
        ):
            _, report = a2_schedule(halving, spec)
            assert lo <= report["ordered_prefix"] <= hi

    def test_schedule_reports_ordered_passes(self):
        # a data-independent proxy makes no pass; pseudo's passes settle at
        # least one cluster each before K, and then one more takes the rest
        cfg = exch_scenario(n=120, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        halving = a2_halving_pass(ds, cfg.beta0_array, "log", 3)
        _, report = a2_schedule(halving, WorkingCorrelationSpec.exchangeable(0.4, 3))
        assert report["ordered_passes"] == 0
        _, report = a2_schedule(halving, WorkingCorrelationSpec.pseudo_likelihood(3))
        assert 2 <= report["ordered_passes"] <= report["ordered_prefix"] + 1

    def test_pseudo_schedule_reports_history_violations(self):
        # the inverse-proxy inequality at step i is set by earlier deltas;
        # halving the current delta cannot repair it, so violations are
        # recorded rather than raised
        cfg = exch_scenario(n=40, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        halving = a2_halving_pass(ds, cfg.beta0_array, "log", 3)
        pert, report = a2_schedule(halving, spec)
        assert report["violations"]
        for i, d in enumerate(pert.deltas, start=1):
            assert np.linalg.norm(d, 2) <= 2.0 ** (-i) * (1 + 1e-9)


def mixed_sizes_dataset():
    # sizes 3, 1, 2, 1: cluster 1 sits in the last size bucket
    rng = np.random.default_rng(5)
    pairs = [
        (rng.standard_normal(m), rng.standard_normal((m, 2))) for m in (3, 1, 2, 1)
    ]
    return dataset_from_arrays(pairs, m_max=3, link="identity")


def perturbed_entry_points():
    spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
    return [
        lambda ds, pert: eval_g_perturbed(ds, np.zeros(2), pert, "identity", spec),
        lambda ds, pert: pert.shift(ds),
    ]


class TestShapeChecks:
    @pytest.mark.parametrize("entry", perturbed_entry_points())
    def test_perturbation_count(self, entry):
        ds = mixed_sizes_dataset()
        deltas = tuple(np.zeros((2, c.size)) for c in ds.clusters)
        msg = "^perturbation has 3 matrices for 4 clusters$"
        with pytest.raises(InvalidInputError, match=msg):
            entry(ds, Perturbation(deltas[:3], bound=1.0))

    @pytest.mark.parametrize("entry", perturbed_entry_points())
    def test_first_bad_delta_in_cluster_order_is_named(self, entry):
        # clusters 1 (size 3) and 4 (size 1) get two columns; cluster 1's
        # size bucket comes last, cluster 4's first
        ds = mixed_sizes_dataset()
        deltas = [np.zeros((2, c.size)) for c in ds.clusters]
        deltas[0] = deltas[3] = np.zeros((2, 2))
        msg = r"^delta for cluster 1 has shape \(2, 2\), expected \(2, 3\)$"
        with pytest.raises(InvalidInputError, match=msg):
            entry(ds, Perturbation(tuple(deltas), bound=1.0))

    @pytest.mark.parametrize("entry", perturbed_entry_points())
    def test_wrong_row_count_is_named(self, entry):
        ds = mixed_sizes_dataset()
        deltas = tuple(np.zeros((3, c.size)) for c in ds.clusters)
        msg = r"^delta for cluster 1 has shape \(3, 3\), expected \(2, 3\)$"
        with pytest.raises(InvalidInputError, match=msg):
            entry(ds, Perturbation(deltas, bound=1.0))

    @pytest.mark.parametrize("link", ["identity", "log"])
    @pytest.mark.parametrize("spec", [None, "identity", "exchangeable"])
    def test_beta_of_the_wrong_length_is_named(self, link, spec):
        # independence and the identity spec take X beta outside _moments
        ds = mixed_sizes_dataset()
        if spec is None:
            kind = EstimatingFunction.independence()
        else:
            kind = resolve_estimator("identity" if spec == "identity" else "exchangeable:0.3", 3)
        msg = r"^cluster 1: regressor width 2 != len\(beta\) 3$"
        with pytest.raises(InvalidInputError, match=msg):
            eval_g(kind, ds, np.zeros(3), link)
        with pytest.raises(InvalidInputError, match=msg):
            jacobian(kind, ds, np.zeros(3), link)
        if spec is not None:
            with pytest.raises(InvalidInputError, match=msg):
                eval_g_perturbed(ds, np.zeros(3), Perturbation.zero(ds), link, kind.spec)

    @pytest.mark.parametrize("grid", [[8, 4], [4, 50], [], [0, 4], [2.7, 10]])
    def test_bad_checkpoint_grid_is_refused(self, grid):
        ds = simulate_scenario(exch_scenario(n=10))
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        msg = f"n_grid must be nonempty, nondecreasing and within 1..10, got {grid}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(msg)}$"):
            information_sums(ds, np.zeros(2), "identity", spec, truth, grid)

    def test_repeated_checkpoints_give_equal_sums(self):
        ds = simulate_scenario(exch_scenario(n=10))
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        sums = information_sums(ds, np.zeros(2), "identity", spec, truth, [4, 4, 8])
        want = information_sums(ds, np.zeros(2), "identity", spec, truth, [4, 8])
        for key, got in sums.items():
            np.testing.assert_array_equal(got, want[key][[0, 0, 1]])

    @pytest.mark.parametrize("prep_prefix", [True, False])
    def test_frozen_proxy_of_another_dataset(self, prep_prefix):
        cfg = exch_scenario(n=20)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        beta = cfg.beta0_array
        prepared, used = (ds.prefix(10), ds) if prep_prefix else (ds, ds.prefix(10))
        frozen = freeze_proxy(kind, prepared, beta, "identity")
        msg = "^frozen proxy was prepared for another dataset$"
        with pytest.raises(InvalidInputError, match=msg):
            eval_g(kind, used, beta, "identity", frozen_corr=frozen)
        with pytest.raises(InvalidInputError, match=msg):
            jacobian(kind, used, beta, "identity", frozen_corr=frozen)

    def test_frozen_sequence_length(self):
        cfg = exch_scenario(n=20)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        kind = EstimatingFunction.gee_star(spec)
        seq = corr_trajectory(ds, cfg.beta0_array, "identity", spec)
        msg = "^frozen correlation sequence has 19 entries for 20 clusters$"
        with pytest.raises(InvalidInputError, match=msg):
            eval_g(kind, ds, cfg.beta0_array, "identity", frozen_corr=seq[:-1])
        with pytest.raises(InvalidInputError, match=msg):
            linear_closed_form(ds, seq[:-1])

    def test_truth_smaller_than_a_cluster(self):
        # clusters of sizes 3, 1, 2, 1 and a 2 x 2 true correlation
        ds = mixed_sizes_dataset()
        truth = CorrelationTruth.from_kind("exchangeable", 0.4, 2)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        msg = "^a 2 x 2 template cannot serve clusters of size 3$"
        with pytest.raises(InvalidInputError, match=msg):
            information_sums(ds, np.zeros(2), "identity", spec, truth, (4,))
        kind = EstimatingFunction.gee_star(spec)
        with pytest.raises(InvalidInputError, match=msg):
            score_increments(kind, ds, np.zeros(2), "identity", truth)

    def test_linear_closed_form_template_smaller_than_a_cluster(self):
        ds = mixed_sizes_dataset()
        msg = "^a 2 x 2 template cannot serve clusters of size 3$"
        with pytest.raises(InvalidInputError, match=msg):
            linear_closed_form(ds, np.eye(2))


class TestJacobian:
    def test_identity_link_constant_in_beta(self):
        cfg = exch_scenario()
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        kind = EstimatingFunction.gee_star(spec)
        d1 = jacobian(kind, ds, np.zeros(2), "identity")
        d2 = jacobian(kind, ds, np.array([5.0, -4.0]), "identity")
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
            d = jacobian(kind, ds, np.array([beta]), "log")
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
            da = jacobian(kind, ds, beta, link)
            df = _fd_jacobian(kind, ds, beta, get_link(link))
            err = np.abs(da - df) / np.maximum(np.abs(da), 1e-8)
            assert err.max() < 1e-5

    @staticmethod
    def assert_takes_finite_differences(kind, link, scale=1.0):
        ds = simulate_scenario(exch_scenario(link=link, scale=scale))
        beta = np.array([0.3, -0.2])
        jac = jacobian(kind, ds, beta, link)
        np.testing.assert_array_equal(jac, _fd_jacobian(kind, ds, beta, get_link(link)))

    def test_analytic_unavailable_for_probit(self):
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
        self.assert_takes_finite_differences(kind, "probit", scale=0.3)

    def test_analytic_unavailable_for_pseudo(self):
        # an unfrozen proxy moves with beta
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        self.assert_takes_finite_differences(kind, "identity")

    def test_analytic_unavailable_for_general(self):
        kind = EstimatingFunction.general(lambda history, x, beta: x.T)
        self.assert_takes_finite_differences(kind, "log", scale=0.4)

    def test_finite_differences_evaluate_g_only_at_the_steps(self):
        # 2p evaluations of g, each calling the callback once per cluster;
        # g at beta itself is not formed
        calls = []

        def coefficients(history, x, beta):
            calls.append(beta.copy())
            return x.T

        kind = EstimatingFunction.general(coefficients)
        ds = simulate_scenario(exch_scenario(link="log", scale=0.4))
        beta = np.array([0.3, -0.2])
        jacobian(kind, ds, beta, "log")
        assert len(calls) == 2 * beta.size * ds.n
        assert not any(np.array_equal(b, beta) for b in calls)

    @pytest.mark.parametrize("link", ["identity", "log"])
    def test_frozen_pseudo_proxy_takes_analytic_path(self, link):
        # a frozen proxy no longer depends on beta, so jacobian reads the
        # analytic Jacobian of the whitened factors
        cfg = exch_scenario(link=link, scale=0.4)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        beta = np.array([0.3, -0.2])
        frozen = corr_trajectory(ds, beta + 0.1, link, kind.spec)
        lk = get_link(link)
        da = jacobian(kind, ds, beta, link, frozen_corr=frozen)
        lanes = Lanes((ds,))
        parts = _whiten(kind, lanes, beta[None], lk, frozen)[1]
        np.testing.assert_array_equal(da, _whitened_jacobian(parts, lk, lanes)[0])
        df = _fd_jacobian(kind, ds, beta, lk, frozen_corr=frozen)
        err = np.abs(da - df) / np.maximum(np.abs(da), 1e-8)
        assert err.max() < 1e-5


class TestOptimalityMatrices:
    def test_spec_equal_truth_identities(self):
        cfg = exch_scenario(n=50)
        datasets = [simulate_scenario(cfg, rep) for rep in range(3)]
        truth = cfg.truth.template(3)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        sums = [
            information_sums(ds, cfg.beta0, "identity", spec, truth, range(1, 51))
            for ds in datasets
        ]
        for s in sums:
            path = {k: v[-1] for k, v in s.items()}
            np.testing.assert_array_equal(path["h_star"], path["m_bar"])
            np.testing.assert_allclose(path["m_star"], path["m_bar"], rtol=1e-12)
        # the ensemble's running sums over the clusters
        cum = {k: sum(s[k] for s in sums) for k in sums[0]}
        for n in (1, 10, 50):
            rh = det_ratio(cum["h_star"][n - 1], cum["m_bar"][n - 1])
            rm = det_ratio(cum["m_star"][n - 1], cum["m_bar"][n - 1])
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
        sums = [
            information_sums(ds, np.zeros(2), "identity", spec, truth, (2,))
            for ds in (ds1, ds2)
        ]
        per_path = [{k: v[0] for k, v in s.items()} for s in sums]
        mean = {k: (per_path[0][k] + per_path[1][k]) / 2.0 for k in per_path[0]}
        np.testing.assert_allclose(mean["h_ind"], 2 * x.T @ x, atol=1e-12)
        assert np.array_equal(per_path[0]["h_ind"], per_path[1]["h_ind"])
        # m_bar never involves the responses: with a fixed design the
        # ensemble estimate equals the closed form exactly
        rinv = np.linalg.inv(truth.rbar(3))
        np.testing.assert_allclose(mean["m_bar"], 2 * x.T @ rinv @ x, atol=1e-10)


class TestConditionalVariance:
    def test_independence_plugin_equals_h_ind(self):
        cfg = exch_scenario(n=15)
        ds = simulate_scenario(cfg)
        _, increments = score_increments(
            EstimatingFunction.independence(),
            ds,
            cfg.beta0,
            "identity",
            CorrelationTruth.plugin(3),
        )
        expect = sum(c.regressors.T @ c.regressors for c in ds.clusters)
        np.testing.assert_allclose(increments.sum(axis=0), expect, rtol=1e-12)

    def test_scalar_unit_design(self):
        ds = dataset_from_arrays([([0.0], [[1.0]]) for _ in range(7)])
        _, increments = score_increments(
            EstimatingFunction.independence(),
            ds,
            np.zeros(1),
            "identity",
            CorrelationTruth.plugin(1),
        )
        v = np.cumsum(increments, axis=0)
        assert v[-1][0, 0] == pytest.approx(7.0, abs=1e-12)
        np.testing.assert_allclose(v[3 - 1], [[3.0]], atol=1e-12)

    def test_exchangeable_truth_increment_matches_direct_product(self):
        cfg = exch_scenario(n=5)
        ds = simulate_scenario(cfg)
        truth = cfg.truth.template(3)
        spec = WorkingCorrelationSpec.ar1(0.25, 3)
        kind = EstimatingFunction.gee_star(spec)
        _, increments = score_increments(kind, ds, cfg.beta0, "identity", truth)
        rinv = np.linalg.inv(spec.rho ** np.abs(np.subtract.outer(range(3), range(3))))
        for pos, c in enumerate(ds.clusters):
            # identity link: A = I, so C_i = X' R^{-1}
            coeff = c.regressors.T @ rinv
            direct = coeff @ truth.rbar(3) @ coeff.T
            assert np.max(np.abs(increments[pos] - direct)) < 1e-12

    def test_callback_increments_match_gee_star(self):
        # the callback returns the gee_star coefficients, so its explicit
        # C_i and the whitened route give the same increments
        cfg = exch_scenario(n=20, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        spec = WorkingCorrelationSpec.exchangeable(0.4, 3)
        rinv = np.linalg.inv(spec.rho + (1.0 - spec.rho) * np.eye(3))

        def coeff(history, x, beta):
            sd = np.sqrt(np.exp(x @ beta))
            return (x * sd[:, None]).T @ (rinv / sd[None, :])

        truth = cfg.truth.template(3)
        got = score_increments(
            EstimatingFunction.general(coeff), ds, cfg.beta0, "log", truth
        )
        ref = score_increments(
            EstimatingFunction.gee_star(spec), ds, cfg.beta0, "log", truth
        )
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_frozen_proxy_keeps_the_bits_of_the_fold(self):
        cfg = exch_scenario(n=25, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        truth = cfg.truth.template(3)
        proxy = freeze_proxy(kind, ds, cfg.beta0, "log")
        folded = score_increments(kind, ds, cfg.beta0, "log", truth)
        frozen = score_increments(kind, ds, cfg.beta0, "log", truth, frozen_corr=proxy)
        for a, b in zip(folded, frozen):
            assert np.array_equal(a, b)

    def test_increments_psd(self):
        cfg = exch_scenario(n=25, link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        _, increments = score_increments(
            EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3)),
            ds,
            cfg.beta0,
            "log",
            cfg.truth.template(3),
        )
        for inc in increments:
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
        quasi = resolve_estimator("quasi", 3, truth)
        assert quasi.spec.kind == "fixed"
        np.testing.assert_array_equal(quasi.spec.matrix, truth.template)

    @pytest.mark.parametrize(
        "name",
        ["truth", "Truth", " QUASI ", "quasi_score", "pseudo", "Independence", "ar1:0.2"],
    )
    def test_needs_truth_agrees_with_resolution(self, name):
        # names normalize the same way in both: stripped, case-insensitive
        if needs_truth(name):
            with pytest.raises(InvalidInputError):
                resolve_estimator(name, 3)
            truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
            quasi = resolve_estimator(name, 3, truth)
            np.testing.assert_array_equal(quasi.spec.matrix, truth.template)
        else:
            resolve_estimator(name, 3)

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            resolve_estimator("exchangeable", 3)
        with pytest.raises(InvalidInputError):
            resolve_estimator("quasi", 3)
        with pytest.raises(InvalidInputError):
            resolve_estimator("mystery", 3)
