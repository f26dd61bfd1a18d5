import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgee import (
    EstimatingFunction,
    InvalidInputError,
    InvalidVarianceError,
    RegressorProcess,
    ScenarioConfig,
    SingularDesignError,
    SizeSchedule,
    SolverConfig,
    TruthSpec,
    WorkingCorrelationSpec,
    dataset_from_arrays,
    default_init,
    eval_g,
    linear_closed_form,
    resolve_estimator,
    simulate_replications,
    simulate_scenario,
    solve_gee,
)
from stochgee import solver
from stochgee.estimating import Lanes

from oracles import cofactor_det


def scenario(seed=1, n=40, p=2, link="identity", scale=1.0, rho=0.4):
    return ScenarioConfig(
        link=link,
        beta0=tuple(0.4 * (-1.0) ** k for k in range(p)),
        n=n,
        m_max=3,
        sizes=SizeSchedule(kind="constant", m=3),
        regressors=RegressorProcess(kind="iid", scale=scale),
        truth=TruthSpec(kind="exchangeable", rho=rho),
        response_family="gaussian_link_moments",
        seed=seed,
    )


def exch(rho, m):
    t = np.full((m, m), rho)
    np.fill_diagonal(t, 1.0)
    return t


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["tol_g", "tol_x"])
    @pytest.mark.parametrize("value", [0.0, -1e-10, math.nan])
    def test_nonpositive_or_nan_tolerance_is_refused(self, field, value):
        from stochgee import InvalidInputError

        with pytest.raises(InvalidInputError, match="^tolerances must be positive$"):
            SolverConfig(**{field: value})


class TestLinearClosedForm:
    def test_identity_design(self):
        ds = dataset_from_arrays([(np.array([2.0, -1.0]), np.eye(2))])
        np.testing.assert_allclose(
            linear_closed_form(ds, np.eye(2)), [2.0, -1.0], atol=1e-12
        )

    def test_scaling_cancels(self):
        ds = simulate_scenario(scenario())
        r = exch(0.4, 3)
        base = linear_closed_form(ds, r)
        for c in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(
                linear_closed_form(ds, c * r), base, rtol=1e-12
            )

    def test_two_cluster_normal_equation_oracle(self):
        x1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        x2 = np.array([[1.0, 1.0], [2.0, -1.0]])
        y1 = np.array([1.0, 2.0])
        y2 = np.array([0.0, 1.5])
        ds = dataset_from_arrays([(y1, x1), (y2, x2)])
        r = exch(0.3, 2)
        rinv = np.linalg.inv(r)
        normal = x1.T @ rinv @ x1 + x2.T @ rinv @ x2
        rhs = x1.T @ rinv @ y1 + x2.T @ rinv @ y2
        # solve the 2x2 normal equations by cofactors
        det = cofactor_det(normal)
        expect = (
            np.array(
                [
                    normal[1, 1] * rhs[0] - normal[0, 1] * rhs[1],
                    -normal[1, 0] * rhs[0] + normal[0, 0] * rhs[1],
                ]
            )
            / det
        )
        np.testing.assert_allclose(linear_closed_form(ds, r), expect, atol=1e-12)

    def test_per_cluster_matrices(self):
        ds = simulate_scenario(scenario(n=6))
        mats = [exch(0.2, c.size) for c in ds.clusters]
        a = linear_closed_form(ds, mats)
        b = linear_closed_form(ds, exch(0.2, 3))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_singular_design(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        ds = dataset_from_arrays([(np.zeros(2), x)])
        with pytest.raises(SingularDesignError) as err:
            linear_closed_form(ds, np.eye(2))
        assert err.value.lambda_min <= 1e-12

    def test_small_units_design(self):
        # a well-conditioned design given in small units is solved: the
        # singularity test is relative to the largest eigenvalue
        rng = np.random.default_rng(53)
        xs = rng.standard_normal((50, 3, 2))
        ys = rng.standard_normal((50, 3))
        roots = {}
        for s in (1.0, 1e-8):
            ds = dataset_from_arrays([(y, s * x) for y, x in zip(ys, xs)])
            roots[s] = linear_closed_form(ds, np.eye(3))
        np.testing.assert_allclose(roots[1e-8] * 1e-8, roots[1.0], rtol=1e-12)

    def test_cluster_permutation_invariance(self):
        ds = simulate_scenario(scenario(n=10))
        perm = [4, 1, 9, 0, 3, 2, 8, 5, 7, 6]
        shuffled = dataset_from_arrays(
            [(ds.clusters[i].response, ds.clusters[i].regressors) for i in perm],
            m_max=3,
        )
        np.testing.assert_allclose(
            linear_closed_form(ds, exch(0.4, 3)),
            linear_closed_form(shuffled, exch(0.4, 3)),
            rtol=1e-10,
        )


class TestSolveGee:
    def test_matches_closed_form_identity_link(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            p = int(rng.integers(1, 5))
            cfg = ScenarioConfig(
                link="identity",
                beta0=tuple(rng.uniform(-1, 1, size=p)),
                n=int(rng.integers(20, 80)),
                m_max=3,
                sizes=SizeSchedule(kind="constant", m=3),
                regressors=RegressorProcess(kind="iid", scale=1.0),
                truth=TruthSpec(kind="exchangeable", rho=0.3),
                response_family="gaussian_link_moments",
                seed=100 + trial,
            )
            ds = simulate_scenario(cfg)
            r = exch(0.25, 3)
            kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(r))
            fit = solve_gee(ds, kind, "identity")
            ref = linear_closed_form(ds, r)
            assert fit.converged
            assert np.linalg.norm(fit.beta_hat - ref) <= 1e-8 * max(
                np.linalg.norm(ref), 1.0
            )

    def test_scalar_log_root(self):
        ds = dataset_from_arrays([([math.e], [[1.0]])])
        fit = solve_gee(ds, EstimatingFunction.independence(), "log")
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(1.0, abs=1e-10)

    def test_exact_root_init_converges_immediately(self):
        rng = np.random.default_rng(3)
        beta = np.array([0.3, -0.7])
        pairs = []
        for _ in range(4):
            x = rng.standard_normal((3, 2))
            pairs.append((x @ beta, x))
        ds = dataset_from_arrays(pairs)
        fit = solve_gee(ds, EstimatingFunction.independence(), "identity", init=beta)
        assert fit.converged
        assert fit.iterations == 0
        assert fit.final_residual_norm == 0.0

    def test_residual_monotone_along_trace(self):
        cfg = scenario(link="log", scale=0.4, n=60)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
        fit = solve_gee(ds, kind, "log", init=np.array([1.5, 1.5]))
        assert fit.converged
        norms = [t[1] for t in fit.trace]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_deterministic_trace(self):
        cfg = scenario(link="log", scale=0.4)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.independence()
        f1 = solve_gee(ds, kind, "log")
        f2 = solve_gee(ds, kind, "log")
        assert f1.iterations == f2.iterations
        for a, b in zip(f1.trace, f2.trace):
            np.testing.assert_array_equal(a[0], b[0])
            assert a[1] == b[1] and a[2] == b[2]

    def test_root_invariant_under_proxy_scaling(self):
        ds = simulate_scenario(scenario())
        base = exch(0.4, 3)
        roots = []
        for c in (0.5, 1.0, 2.0, 10.0):
            kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.fixed(c * base))
            roots.append(solve_gee(ds, kind, "identity").beta_hat)
        for r in roots[1:]:
            np.testing.assert_allclose(r, roots[0], atol=1e-9)

    def test_cluster_permutation_invariance_fixed_proxy(self):
        ds = simulate_scenario(scenario(n=12))
        perm = list(reversed(range(12)))
        shuffled = dataset_from_arrays(
            [(ds.clusters[i].response, ds.clusters[i].regressors) for i in perm],
            m_max=3,
        )
        kind = EstimatingFunction.gee_star(
            WorkingCorrelationSpec.fixed(exch(0.4, 3))
        )
        a = solve_gee(ds, kind, "identity").beta_hat
        b = solve_gee(shuffled, kind, "identity").beta_hat
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_residual_below_tolerance_at_root(self):
        cfg = scenario(link="log", scale=0.4, n=80)
        ds = simulate_scenario(cfg)
        config = SolverConfig(tol_g=1e-10)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.2, 3))
        fit = solve_gee(ds, kind, "log", config)
        assert fit.converged
        g = eval_g(kind, ds, fit.beta_hat, "log")
        assert np.max(np.abs(g)) < config.tol_g

    def test_max_iter_exhaustion_reported(self):
        cfg = scenario(link="log", scale=0.5, n=50)
        ds = simulate_scenario(cfg)
        config = SolverConfig(max_iter=1)
        fit = solve_gee(
            ds,
            EstimatingFunction.independence(),
            "log",
            config,
            init=np.array([3.0, 3.0]),
        )
        assert not fit.converged
        assert len(fit.trace) >= 1

    def test_pseudo_likelihood_two_stage(self):
        cfg = scenario(n=80)
        ds = simulate_scenario(cfg)
        kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.pseudo_likelihood(3))
        fit = solve_gee(ds, kind, "identity")
        assert fit.converged
        assert np.linalg.norm(fit.beta_hat - cfg.beta0_array) < 0.5

    @pytest.mark.parametrize("spec_name", ["exchangeable", "pseudo_likelihood"])
    def test_jacobian_reuses_the_factors_of_its_iterate(self, monkeypatch, spec_name):
        """Under a frozen proxy, the moments and the proxy are taken once per
        evaluation of g (the initial point and each line-search trial) and
        never again for the analytic Jacobian at an accepted point."""
        from stochgee import estimating, solver

        ds = simulate_scenario(scenario(link="log", scale=0.4, n=60))
        spec = (
            WorkingCorrelationSpec.exchangeable(0.4, 3)
            if spec_name == "exchangeable"
            else WorkingCorrelationSpec.pseudo_likelihood(3)
        )
        kind = EstimatingFunction.gee_star(spec)
        moments, freezes, evaluations, jacobians = [], [], [], []

        def recorder(fn, log, at):
            # log a copy of the point, argument ``at`` of each call
            def recorded(*args, **kwargs):
                log.append(np.array(args[at], dtype=float))
                return fn(*args, **kwargs)

            return recorded

        def evaluate(kind, dataset, beta, link, frozen_corr):
            if frozen_corr is not None:
                evaluations.append(beta.copy())
            return real_evaluate(kind, dataset, beta, link, frozen_corr)

        def jacobian(*args):
            jacobians.append(None)
            return real_jacobian(*args)

        real_evaluate, real_jacobian = solver._evaluate, estimating._whitened_jacobian
        record_moments = recorder(estimating._moments, moments, 1)
        monkeypatch.setattr(estimating, "_moments", record_moments)
        freeze = recorder(estimating.freeze_proxy, freezes, 2)
        monkeypatch.setattr(estimating, "freeze_proxy", freeze)
        monkeypatch.setattr(solver, "freeze_proxy", freeze)
        monkeypatch.setattr(solver, "_evaluate", evaluate)
        monkeypatch.setattr(estimating, "_whitened_jacobian", jacobian)
        fit = solve_gee(ds, kind, "log", init=np.array([1.5, 1.5]))
        assert fit.converged and fit.iterations >= 3
        assert len(jacobians) >= fit.iterations
        # solve_gee freezes the proxy once; the pseudo-likelihood proxy is
        # folded at the independence estimate, which takes its moments once
        folds = 1 if spec.depends_on_data else 0
        assert len(moments) == len(evaluations) + folds
        assert len(freezes) == len(evaluations) + 1
        np.testing.assert_array_equal(moments[folds:], evaluations)
        np.testing.assert_array_equal(freezes[1:], evaluations)

    def test_general_callback_matches_independence(self):
        # coefficients C_i = X_i' make the callback variant the independence
        # estimating function, solved with finite-difference Jacobians
        cyclic = SizeSchedule(kind="cyclic", sizes=(1, 3, 2))
        ds = simulate_scenario(
            dataclasses.replace(scenario(link="log", scale=0.4, n=60), sizes=cyclic)
        )
        general = EstimatingFunction.general(lambda history, x, beta: x.T)
        fit = solve_gee(ds, general, "log")
        ref = solve_gee(ds, EstimatingFunction.independence(), "log")
        assert fit.converged and ref.converged
        np.testing.assert_allclose(fit.beta_hat, ref.beta_hat, rtol=1e-12)


def link_domain_case():
    """50 clusters of size 3 with x = (1, z) and y = exp(0.3 + 0.5 z) plus
    noise: from beta = (-6, 0) the first full Newton step of a log-link
    fit leaves the link's domain."""
    rng = np.random.default_rng(1)
    z = rng.standard_normal((50, 3))
    y = np.exp(0.3 + 0.5 * z) + 0.1 * rng.standard_normal((50, 3))
    pairs = [(yi, np.column_stack((np.ones(3), zi))) for yi, zi in zip(y, z)]
    return dataset_from_arrays(pairs, m_max=3)


class TestLineSearch:
    @pytest.mark.parametrize(
        "name, init",
        [
            # the trial moments overflow, which _moments rejects
            ("exchangeable:0.4", (-6.0, 0.0)),
            # the trial means overflow, which _evaluate rejects
            ("independence", (-6.0, -1.0)),
        ],
    )
    def test_trial_point_outside_link_domain_halves_the_step(
        self, monkeypatch, name, init
    ):
        points = []
        real_evaluate = solver._evaluate

        def evaluate(kind, dataset, beta, link, frozen_corr=None):
            points.append(beta)
            return real_evaluate(kind, dataset, beta, link, frozen_corr)

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        kind = resolve_estimator(name, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = solve_gee(link_domain_case(), kind, "log", init=np.array(init))
        assert fit.converged
        np.testing.assert_allclose(fit.beta_hat, [0.28, 0.52], atol=0.01)
        # beside the start and the accepted iterates, some trial failed and
        # its step was halved
        assert len(points) > fit.iterations + 1

    @pytest.mark.parametrize("name", ["exchangeable:0.4", "independence"])
    def test_start_outside_link_domain_raises(self, name):
        kind = resolve_estimator(name, 3)
        with pytest.raises(InvalidVarianceError, match="^cluster 1: non-finite"):
            solve_gee(link_domain_case(), kind, "log", init=np.array([800.0, 0.0]))

    @pytest.mark.parametrize("link", ["identity", "log"])
    def test_duplicate_columns_take_the_ridge_retry(self, monkeypatch, link):
        # X_i = (1, z, z) makes every Jacobian exactly singular; the ridge
        # splits the slope of the fit on (1, z) evenly between the copies
        ds = link_domain_case()
        twice = dataset_from_arrays(
            [(c.response, c.regressors[:, [0, 1, 1]]) for c in ds.clusters], m_max=3
        )
        singular = []
        real_solve = np.linalg.solve

        def solve(a, b):
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(None)
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        kind = EstimatingFunction.independence()
        fit = solve_gee(twice, kind, link)
        ref = solve_gee(ds, kind, link)
        assert fit.converged and ref.converged
        assert len(singular) >= fit.iterations > 0
        beta = fit.beta_hat
        np.testing.assert_allclose(beta[1], beta[2], rtol=1e-9)
        np.testing.assert_allclose([beta[0], beta[1] + beta[2]], ref.beta_hat, rtol=1e-9)

    @pytest.mark.parametrize("name", ["independence", "exchangeable:0.4"])
    def test_stall_below_the_roundoff_floor_stops_early(self, name):
        # no ||g|| can reach 1e-30, so the line search stalls at the floor
        config = SolverConfig(tol_g=1e-30)
        kind = resolve_estimator(name, 3)
        fit = solve_gee(link_domain_case(), kind, "log", config)
        assert fit.iterations < config.max_iter
        norms = [t[1] for t in fit.trace]
        assert all(b <= a for a, b in zip(norms, norms[1:]))
        assert fit.final_residual_norm == norms[-1] < 1e-10


class TestDefaultInit:
    def test_identity_link_is_least_squares(self):
        ds = simulate_scenario(scenario())
        init = default_init(ds, "identity")
        ys = np.concatenate([c.response for c in ds.clusters])
        xs = np.vstack([c.regressors for c in ds.clusters])
        expect, *_ = np.linalg.lstsq(xs, ys, rcond=None)
        np.testing.assert_allclose(init, expect, rtol=1e-10)

    def test_binary_responses_fall_back_to_zero(self):
        # probit cannot invert 0/1 responses; fewer than p usable rows
        ds = dataset_from_arrays(
            [(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))]
        )
        np.testing.assert_array_equal(default_init(ds, "probit"), np.zeros(2))

    def test_log_link_uses_positive_rows(self):
        ds = dataset_from_arrays(
            [(np.array([1.0, math.e, 0.0]), np.array([[0.0], [1.0], [2.0]]))]
        )
        init = default_init(ds, "log")
        # rows with y>0 give z = (0, 1) at x = (0, 1): slope 1
        assert init[0] == pytest.approx(1.0, abs=1e-10)


def fit_record(fit):
    """Everything a fit reports, with beta_hat and the trace as bytes."""
    trace = tuple((b.tobytes(), gn, step) for b, gn, step in fit.trace)
    return (
        fit.beta_hat.tobytes(),
        fit.converged,
        fit.iterations,
        fit.final_residual_norm,
        fit.stop_reason,
        fit.evaluations,
        trace,
    )


def solo(ds, kind, link):
    """``solve_gee``'s fit, or the error it raises."""
    try:
        return solve_gee(ds, kind, link)
    except Exception as exc:  # compared by type and message
        return exc


def same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and fit_record(got) == fit_record(want)


LANE_ESTIMATORS = ("independence", "exchangeable:0.4", "pseudo")


class TestLanes:
    @settings(max_examples=30, deadline=None)
    @given(
        count=st.sampled_from([1, 2, 3, 16]),
        schedule=st.sampled_from(["constant", "random"]),
        link=st.sampled_from(["identity", "log"]),
        scale=st.sampled_from([0.4, 1.5]),
        seed=st.integers(0, 2**16),
    )
    def test_every_lane_is_its_solo_solve(self, count, schedule, link, scale, seed):
        # lanes are prefixes of a few replications, stacked in any order and
        # of any lengths; several size buckets under the random schedule
        sizes = (
            SizeSchedule(kind="constant", m=3)
            if schedule == "constant"
            else SizeSchedule(kind="random", lo=1, hi=3)
        )
        cfg = dataclasses.replace(
            scenario(seed=seed, n=30, link=link, scale=scale), sizes=sizes
        )
        reps = simulate_replications(cfg, range(3))
        rng = np.random.default_rng(seed)
        members = [
            reps[int(rng.integers(3))].prefix(int(rng.integers(4, 31)))
            for _ in range(count)
        ]
        kinds = [resolve_estimator(name, 3) for name in LANE_ESTIMATORS]
        fits = solver.solve_lanes(Lanes(members), kinds, link)
        for kind, per_lane in zip(kinds, fits):
            for ds, fit in zip(members, per_lane):
                assert same_outcome(fit, solo(ds, kind, link))

    @pytest.mark.parametrize("link", ["identity", "log"])
    def test_singular_lane_takes_the_ridge_retry(self, monkeypatch, link):
        # X_i = (1, z, z) makes every Jacobian of its lanes singular, so the
        # batched solve raises and each lane is solved alone
        ds = link_domain_case()
        twice = dataset_from_arrays(
            [(c.response, c.regressors[:, [0, 1, 1]]) for c in ds.clusters], m_max=3
        )
        other = dataset_from_arrays(
            [
                (c.response, np.column_stack((c.regressors, 0.1 * c.regressors[:, 1] ** 2)))
                for c in ds.clusters
            ],
            m_max=3,
        )
        members = [other.prefix(30), twice.prefix(40), other, twice]
        singular = []
        real_solve = np.linalg.solve

        def solve(a, b):
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(np.shape(a))
                raise

        kind = EstimatingFunction.independence()
        want = [solve_gee(m, kind, link) for m in members]
        monkeypatch.setattr(np.linalg, "solve", solve)
        (fits,) = solver.solve_lanes(Lanes(members), [kind], link)
        # batched solves, and then the lone solves of the duplicate-column
        # lanes, were singular
        assert (4, 3, 3) in singular or (2, 3, 3) in singular
        assert (3, 3) in singular
        for fit, ref in zip(fits, want):
            assert fit.converged and fit_record(fit) == fit_record(ref)

    def test_solve_gee_checks_the_start_width(self):
        kind = resolve_estimator("pseudo", 3)
        msg = r"^cluster 1: regressor width 2 != len\(beta\) 3$"
        with pytest.raises(InvalidInputError, match=msg):
            solve_gee(link_domain_case(), kind, "log", init=np.zeros(3))


class TestStopReason:
    def test_converged(self):
        ds = simulate_scenario(scenario(link="log", scale=0.4))
        fit = solve_gee(ds, resolve_estimator("exchangeable:0.4", 3), "log")
        assert fit.converged and fit.stop_reason == "converged"
        assert fit.evaluations >= fit.iterations + 1

    def test_stalled(self):
        # no ||g|| can reach 1e-30: the last line search spends every halving
        config = SolverConfig(tol_g=1e-30)
        kind = resolve_estimator("exchangeable:0.4", 3)
        fit = solve_gee(link_domain_case(), kind, "log", config)
        assert not fit.converged and fit.stop_reason == "stalled"
        assert fit.evaluations >= fit.iterations + 1 + config.max_halvings + 1

    def test_max_iter(self):
        # all-zero counts push the log-link root to -infinity; every full
        # step lowers ||g||, so the loop runs out of iterations
        ds = dataset_from_arrays(
            [(np.zeros(1), np.ones((1, 1))) for _ in range(5)], link="log"
        )
        fit = solve_gee(ds, EstimatingFunction.independence(), "log")
        assert not fit.converged and fit.stop_reason == "max_iter"
        assert fit.iterations == SolverConfig().max_iter
        assert fit.evaluations == fit.iterations + 1

    def test_staged_fit_counts_both_stages(self):
        ds = simulate_scenario(scenario(link="log", scale=0.4))
        stage = solve_gee(ds, EstimatingFunction.independence(), "log")
        fit = solve_gee(ds, resolve_estimator("pseudo", 3), "log")
        assert fit.evaluations >= stage.evaluations + fit.iterations + 1
