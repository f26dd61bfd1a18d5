import warnings

import numpy as np
import pytest

from stochgee import (
    Cluster,
    InconsistentMomentsError,
    InvalidInputError,
    InvalidVarianceError,
    NotPositiveDefiniteError,
    PseudoLikelihoodState,
    WorkingCorrelationSpec,
    corr_beta_derivative,
    dataset_from_arrays,
    pseudo_likelihood_update,
    sym_eigen_extremes,
    sym_eigenvalues,
    true_correlation,
    working_corr,
)
from stochgee.correlation import residual_moment_sums
from stochgee.model import get_link


def folded_state(ds, beta, link):
    """The residual-moment state folded over every cluster of ``ds``."""
    lk = get_link(link)
    resid = []
    for b in ds.buckets:
        eta = b.x @ beta
        resid.append((b.y - lk.eval(0, eta)) / np.sqrt(lk.eval(1, eta)))
    sums, counts = residual_moment_sums(ds, resid)
    return PseudoLikelihoodState(ds.n, sums[-1], counts[-1])


class TestTemplates:
    def test_identity_any_size(self):
        spec = WorkingCorrelationSpec.identity(4)
        for size in (1, 2, 4):
            np.testing.assert_array_equal(
                working_corr(spec, None, size), np.eye(size)
            )

    def test_exchangeable_eigenvalues(self):
        spec = WorkingCorrelationSpec.exchangeable(0.5, 3)
        r = working_corr(spec, None, 3)
        np.testing.assert_allclose(
            sym_eigenvalues(r), [0.5, 0.5, 2.0], atol=1e-12
        )

    def test_exchangeable_range(self):
        with pytest.raises(InvalidInputError):
            WorkingCorrelationSpec.exchangeable(-0.6, 3)  # needs > -1/2
        with pytest.raises(InvalidInputError):
            WorkingCorrelationSpec.exchangeable(1.0, 3)
        WorkingCorrelationSpec.exchangeable(-0.4, 3)

    def test_ar1(self):
        spec = WorkingCorrelationSpec.ar1(-0.7, 4)
        r = working_corr(spec, None, 4)
        assert r[0, 3] == pytest.approx((-0.7) ** 3)
        np.testing.assert_array_equal(np.diag(r), np.ones(4))
        assert np.all(np.abs(r[~np.eye(4, dtype=bool)]) < 1.0)
        with pytest.raises(InvalidInputError):
            WorkingCorrelationSpec.ar1(1.0, 3)

    def test_fixed_requires_pd(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            WorkingCorrelationSpec.fixed(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert err.value.lambda_min <= 1e-10

    def test_truncation_commutes_with_construction(self):
        for spec_small, spec_big in [
            (
                WorkingCorrelationSpec.exchangeable(0.3, 2),
                WorkingCorrelationSpec.exchangeable(0.3, 5),
            ),
            (WorkingCorrelationSpec.ar1(0.6, 2), WorkingCorrelationSpec.ar1(0.6, 5)),
            (WorkingCorrelationSpec.identity(2), WorkingCorrelationSpec.identity(5)),
        ]:
            np.testing.assert_array_equal(
                working_corr(spec_small, None, 2), working_corr(spec_big, None, 2)
            )

    def test_emitted_matrices_are_pd(self):
        rng = np.random.default_rng(2)
        state = PseudoLikelihoodState.empty(3)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        beta = np.array([0.1])
        for i in range(1, 8):
            r = working_corr(spec, state, 3, beta)
            lo, hi = sym_eigen_extremes(r)
            assert lo > 1e-7
            np.testing.assert_allclose(r, r.T, atol=1e-15)
            c = Cluster(i, rng.standard_normal(3), rng.standard_normal((3, 1)))
            state = pseudo_likelihood_update(state, c, beta, "identity")


class TestPseudoLikelihood:
    def _cluster(self, i, y, x=None):
        y = np.asarray(y, dtype=float)
        x = np.zeros((y.size, 1)) if x is None else x
        return Cluster(i, y, x)

    def test_single_cluster_state_mean(self):
        state = PseudoLikelihoodState.empty(2)
        c = self._cluster(1, [1.0, -2.0])
        # identity link, beta 0, zero regressors: residuals are y itself
        state = pseudo_likelihood_update(state, c, np.zeros(1), "identity")
        np.testing.assert_allclose(
            state.mean_matrix(), np.outer([1.0, -2.0], [1.0, -2.0]), atol=1e-15
        )

    def test_emitted_is_regularized_outer_product(self):
        state = folded_state(
            dataset_from_arrays([([1.0, -2.0], np.zeros((2, 1)))]),
            np.zeros(1),
            "identity",
        )
        spec = WorkingCorrelationSpec.pseudo_likelihood(2)
        r = working_corr(spec, state, 2)
        lo, _ = sym_eigen_extremes(r)
        assert lo >= 1e-6 - 1e-12
        # blend of the outer product with the identity, nothing else
        outer = np.outer([1.0, -2.0], [1.0, -2.0])
        resid = r - np.eye(2)
        off_scale = resid[0, 1] / outer[0, 1]
        np.testing.assert_allclose(
            resid, off_scale * (outer - np.eye(2)), atol=1e-12
        )

    def test_two_identical_clusters(self):
        state = PseudoLikelihoodState.empty(2)
        for i in (1, 2):
            state = pseudo_likelihood_update(
                state, self._cluster(i, [0.5, 0.5]), np.zeros(1), "identity"
            )
        np.testing.assert_allclose(
            state.mean_matrix(), np.full((2, 2), 0.25), atol=1e-15
        )

    def test_two_distinct_clusters_average(self):
        state = PseudoLikelihoodState.empty(2)
        a, b = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        state = pseudo_likelihood_update(state, self._cluster(1, a), np.zeros(1), "identity")
        state = pseudo_likelihood_update(state, self._cluster(2, b), np.zeros(1), "identity")
        expect = 0.5 * (np.outer(a, a) + np.outer(b, b))
        assert np.max(np.abs(state.mean_matrix() - expect)) < 1e-15

    def test_partial_clusters_update_leading_block(self):
        state = PseudoLikelihoodState.empty(3)
        state = pseudo_likelihood_update(
            state, self._cluster(1, [1.0, 1.0]), np.zeros(1), "identity"
        )
        assert state.counts[0, 0] == 1
        assert state.counts[2, 2] == 0
        # unobserved entries fall back to the identity
        assert state.mean_matrix()[2, 2] == 1.0
        assert state.mean_matrix()[0, 2] == 0.0

    def test_fallback_to_identity_without_state(self):
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        np.testing.assert_array_equal(working_corr(spec, None, 3), np.eye(3))
        empty = PseudoLikelihoodState.empty(3)
        np.testing.assert_array_equal(working_corr(spec, empty, 3), np.eye(3))

    def test_zero_variance_rejected(self):
        # the probit density underflows far in the tail
        c = Cluster(1, np.zeros(1), np.array([[60.0]]))
        with pytest.raises(InvalidVarianceError):
            pseudo_likelihood_update(
                PseudoLikelihoodState.empty(1), c, np.ones(1), "probit"
            )


class TestTrueCorrelation:
    def test_diagonal_sigma(self):
        var = np.array([2.0, 3.0])
        res = true_correlation(np.diag(var), var)
        np.testing.assert_array_equal(res.rbar, np.eye(2))

    def test_exchangeable_round_trip(self):
        rho = 0.3
        rbar = np.full((3, 3), rho)
        np.fill_diagonal(rbar, 1.0)
        res = true_correlation(rbar, np.ones(3))
        np.testing.assert_allclose(res.rbar, rbar, atol=1e-15)

    def test_unit_diagonal_and_eigen_bound(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 6))
        sigma = a @ a.T + 0.1 * np.eye(4)
        res = true_correlation(sigma, np.diag(sigma))
        np.testing.assert_allclose(np.diag(res.rbar), np.ones(4), atol=1e-15)
        assert res.extremes.lambda_max <= 4 + 1e-10

    def test_diagonal_mismatch(self):
        with pytest.raises(InconsistentMomentsError):
            true_correlation(np.eye(2), np.array([1.0, 2.0]))


class TestCorrBetaDerivative:
    def test_constant_specs_have_zero_derivative(self):
        beta = np.array([0.5, -0.5])
        for spec in (
            WorkingCorrelationSpec.identity(3),
            WorkingCorrelationSpec.exchangeable(0.4, 3),
            WorkingCorrelationSpec.ar1(0.2, 3),
            WorkingCorrelationSpec.fixed(np.eye(3)),
        ):
            d = corr_beta_derivative(spec, None, 3, beta, 0)
            np.testing.assert_array_equal(d, np.zeros((3, 3)))

    def _pseudo_setup(self):
        rng = np.random.default_rng(8)
        ds = dataset_from_arrays(
            [
                (rng.standard_normal(3) + 1.0, rng.standard_normal((3, 2)) * 0.4)
                for _ in range(25)
            ]
        )
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        state_fn = lambda b: folded_state(ds, b, "log")
        return spec, state_fn

    def test_pseudo_symmetric_output(self):
        spec, state_fn = self._pseudo_setup()
        d = corr_beta_derivative(spec, state_fn, 3, np.array([0.2, 0.1]), 1)
        np.testing.assert_allclose(d, d.T, atol=1e-10)

    def test_accumulator_matches_state_fold(self):
        # the hot-loop accumulator must reproduce the validated state
        # fold bit for bit, including variable cluster sizes
        from stochgee import dataset_from_arrays as dfa
        from stochgee.estimating import corr_trajectory

        rng = np.random.default_rng(17)
        pairs = []
        for i in range(12):
            m = int(rng.integers(1, 4))
            pairs.append((rng.standard_normal(m), rng.standard_normal((m, 2)) * 0.3))
        ds = dfa(pairs, m_max=3)
        beta = np.array([0.2, -0.1])
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        fast = corr_trajectory(ds, beta, "log", spec)
        state = PseudoLikelihoodState.empty(3)
        slow = []
        for c in ds.clusters:
            slow.append(working_corr(spec, state, c.size, beta))
            state = pseudo_likelihood_update(state, c, beta, "log")
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_shrinkage_floor_bound_follows_min_eigenvalue(self):
        # 4d / (count + 4d) >= MIN_EIGENVALUE keeps the floor without an
        # eigenvalue check: at d = 3 up to about 1.2e7 clusters
        from stochgee.correlation import (
            _floor_eigenvalues,
            _shrinkage_keeps_floor,
            _template,
        )

        assert _shrinkage_keeps_floor(11_999_000, 3)
        assert not _shrinkage_keeps_floor(12_001_000, 3)
        assert _shrinkage_keeps_floor(3_999_000, 1)
        assert not _shrinkage_keeps_floor(4_001_000, 1)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        count = 5_000_000
        r = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        state = PseudoLikelihoodState(count, r * count, np.full((3, 3), count))
        t = _template(spec, state)
        np.testing.assert_array_equal(working_corr(spec, state, 3), t)
        np.testing.assert_array_equal(_floor_eigenvalues(t), t)

    def test_floor_lifts_a_non_pd_matrix(self):
        from stochgee.correlation import MIN_EIGENVALUE, _floor_eigenvalues

        t = np.array([[1.0, 1.2, 0.3], [1.2, 1.0, 0.1], [0.3, 0.1, 1.0]])
        lam = float(np.linalg.eigvalsh(t)[0])
        assert lam < 0.0
        nu = (MIN_EIGENVALUE - lam) / max(1.0 - lam, MIN_EIGENVALUE)
        floored = _floor_eigenvalues(t)
        np.testing.assert_array_equal(floored, (1.0 - nu) * t + nu * np.eye(3))
        assert np.linalg.eigvalsh(floored)[0] == pytest.approx(MIN_EIGENVALUE, rel=1e-6)

    def test_floor_blends_only_matrices_below_it(self):
        # for a kept matrix with lambda_min >> 1 the blend weight is about
        # -lambda_min * 1e6; forming its blend anyway overflowed
        from stochgee.correlation import MIN_EIGENVALUE, _floor_eigenvalues

        t = np.array([[[1e160, 0.0], [0.0, 1e160]], [[1.0, 1.0], [1.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            floored = _floor_eigenvalues(t)
        np.testing.assert_array_equal(floored[0], t[0])
        lam = float(np.linalg.eigvalsh(t[1])[0])
        nu = (MIN_EIGENVALUE - lam) / max(1.0 - lam, MIN_EIGENVALUE)
        np.testing.assert_array_equal(floored[1], (1.0 - nu) * t[1] + nu * np.eye(2))

    def test_richardson_step_halving(self):
        # central differences converge at O(h^2): halving the step cuts
        # the increment by ~4
        spec, state_fn = self._pseudo_setup()
        beta = np.array([0.2, 0.1])
        d1 = corr_beta_derivative(spec, state_fn, 3, beta, 0, step=2e-3)
        d2 = corr_beta_derivative(spec, state_fn, 3, beta, 0, step=1e-3)
        d3 = corr_beta_derivative(spec, state_fn, 3, beta, 0, step=5e-4)
        ratio = np.linalg.norm(d1 - d2) / np.linalg.norm(d2 - d3)
        assert 3.2 <= ratio <= 4.8
