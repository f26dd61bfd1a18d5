import warnings

import numpy as np
import pytest

from stochgee import (
    InvalidInputError,
    InvalidVarianceError,
    NotPositiveDefiniteError,
    WorkingCorrelationSpec,
    dataset_from_arrays,
    sym_eigen_extremes,
    sym_eigenvalues,
    working_corr,
)
from stochgee.correlation import (
    _entry_means,
    residual_moment_sums,
    residual_moment_templates,
)
from stochgee.estimating import _pearson_residuals, corr_trajectory, proxy_stack
from stochgee.model import get_link

from oracles import loop_pseudo_templates


def central_differences(ds, beta, link, coord, steps):
    """(R_n(beta + h e_l) - R_n(beta - h e_l)) / 2h for each step h, of
    the proxy folded over every cluster of ``ds``; all the points are
    folded in one stacked ``proxy_stack`` call."""
    points = []
    for h in steps:
        shift = np.zeros(len(beta))
        shift[coord] = h
        points += [beta + shift, beta - shift]
    stacks = proxy_stack(ds, np.array(points), link)[:, -1]
    return [
        (stacks[2 * k] - stacks[2 * k + 1]) / (2.0 * h) for k, h in enumerate(steps)
    ]


class TestTemplates:
    def test_identity_any_size(self):
        spec = WorkingCorrelationSpec.identity(4)
        for size in (1, 2, 4):
            np.testing.assert_array_equal(
                working_corr(spec, size), np.eye(size)
            )

    def test_exchangeable_eigenvalues(self):
        spec = WorkingCorrelationSpec.exchangeable(0.5, 3)
        r = working_corr(spec, 3)
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
        r = working_corr(spec, 4)
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
                working_corr(spec_small, 2), working_corr(spec_big, 2)
            )

    def test_emitted_matrices_are_pd(self):
        rng = np.random.default_rng(2)
        pairs = [
            (rng.standard_normal(3), rng.standard_normal((3, 1))) for _ in range(7)
        ]
        ds = dataset_from_arrays(pairs)
        for r in proxy_stack(ds, np.array([0.1]), "identity"):
            lo, hi = sym_eigen_extremes(r)
            assert lo > 1e-7
            np.testing.assert_allclose(r, r.T, atol=1e-15)


class TestPseudoLikelihood:
    # identity link, beta 0, zero regressors: the residuals are y itself
    def _dataset(self, *ys, m_max=None):
        pairs = [(np.asarray(y, dtype=float), np.zeros((len(y), 1))) for y in ys]
        return dataset_from_arrays(pairs, m_max=m_max)

    def _sums(self, ds):
        resid = _pearson_residuals(ds, np.zeros(1), get_link("identity"))
        return residual_moment_sums(ds, resid)

    def _means(self, *ys, m_max=None):
        sums, counts = self._sums(self._dataset(*ys, m_max=m_max))
        return _entry_means(sums[-1], counts[-1]), counts[-1]

    def test_single_cluster_state_mean(self):
        means, _ = self._means([1.0, -2.0])
        np.testing.assert_allclose(
            means, np.outer([1.0, -2.0], [1.0, -2.0]), atol=1e-15
        )

    def test_emitted_is_regularized_outer_product(self):
        ds = self._dataset([1.0, -2.0])
        sums, counts = self._sums(ds)
        r = residual_moment_templates(sums, counts, np.arange(2))[1]
        np.testing.assert_array_equal(proxy_stack(ds, np.zeros(1), "identity")[1], r)
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
        means, _ = self._means([0.5, 0.5], [0.5, 0.5])
        np.testing.assert_allclose(means, np.full((2, 2), 0.25), atol=1e-15)

    def test_two_distinct_clusters_average(self):
        a, b = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        means, _ = self._means(a, b)
        expect = 0.5 * (np.outer(a, a) + np.outer(b, b))
        assert np.max(np.abs(means - expect)) < 1e-15

    def test_partial_clusters_update_leading_block(self):
        means, counts = self._means([1.0, 1.0], m_max=3)
        assert counts[0, 0] == 1
        assert counts[2, 2] == 0
        # unobserved entries fall back to the identity
        assert means[2, 2] == 1.0
        assert means[0, 2] == 0.0

    def test_fallback_to_identity_without_state(self):
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        np.testing.assert_array_equal(working_corr(spec, 3), np.eye(3))
        ds = self._dataset([1.0, -2.0], m_max=3)
        np.testing.assert_array_equal(
            proxy_stack(ds, np.zeros(1), "identity")[0], np.eye(3)
        )

    def test_zero_variance_rejected(self):
        # the probit density underflows far in the tail
        ds = dataset_from_arrays([(np.zeros(1), np.array([[60.0]]))])
        with pytest.raises(InvalidVarianceError, match="nonpositive conditional variance"):
            proxy_stack(ds, np.ones(1), "probit")


class TestCorrBetaDerivative:
    def test_constant_specs_have_zero_derivative(self):
        rng = np.random.default_rng(8)
        ds = dataset_from_arrays(
            [(rng.standard_normal(3), rng.standard_normal((3, 2))) for _ in range(5)]
        )
        beta = np.array([0.5, -0.5])
        h = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(beta[0]))
        step = np.array([h, 0.0])
        for spec in (
            WorkingCorrelationSpec.identity(3),
            WorkingCorrelationSpec.exchangeable(0.4, 3),
            WorkingCorrelationSpec.ar1(0.2, 3),
            WorkingCorrelationSpec.fixed(np.eye(3)),
        ):
            plus = corr_trajectory(ds, beta + step, "log", spec)
            minus = corr_trajectory(ds, beta - step, "log", spec)
            for rp, rm in zip(plus, minus):
                np.testing.assert_array_equal(rp - rm, np.zeros((3, 3)))

    def _pseudo_setup(self):
        rng = np.random.default_rng(8)
        return dataset_from_arrays(
            [
                (rng.standard_normal(3) + 1.0, rng.standard_normal((3, 2)) * 0.4)
                for _ in range(25)
            ]
        )

    def test_pseudo_symmetric_output(self):
        ds = self._pseudo_setup()
        beta = np.array([0.2, 0.1])
        step = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(beta[1]))
        (d,) = central_differences(ds, beta, "log", 1, [step])
        np.testing.assert_allclose(d, d.T, atol=1e-10)

    def test_accumulator_matches_state_fold(self):
        # the prefix-sum proxy must reproduce the one-cluster-at-a-time
        # fold bit for bit, including variable cluster sizes
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(12):
            m = int(rng.integers(1, 4))
            pairs.append((rng.standard_normal(m), rng.standard_normal((m, 2)) * 0.3))
        ds = dataset_from_arrays(pairs, m_max=3)
        beta = np.array([0.2, -0.1])
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        fast = corr_trajectory(ds, beta, "log", spec)
        slow = loop_pseudo_templates(pairs, beta, "log", 3)
        assert len(fast) == len(slow) - 1
        for a, b in zip(fast, slow):
            m = a.shape[0]
            np.testing.assert_array_equal(a, b[:m, :m])

    def test_shrinkage_floor_bound_follows_min_eigenvalue(self):
        # 4d / (count + 4d) >= MIN_EIGENVALUE keeps the floor without an
        # eigenvalue check: at d = 3 up to about 1.2e7 clusters
        from stochgee.correlation import (
            SHRINK_PRIOR_FACTOR,
            _floor_eigenvalues,
            _shrinkage_keeps_floor,
        )

        assert _shrinkage_keeps_floor(11_999_000, 3)
        assert not _shrinkage_keeps_floor(12_001_000, 3)
        assert _shrinkage_keeps_floor(3_999_000, 1)
        assert not _shrinkage_keeps_floor(4_001_000, 1)
        count = 5_000_000
        r = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        sums, counts = r * count, np.full((3, 3), count)
        t = residual_moment_templates(sums[None], counts[None], np.array([count]))[0]
        # the emitted template is the shrunk mean, with no floor applied
        eps = SHRINK_PRIOR_FACTOR * 3 / (count + SHRINK_PRIOR_FACTOR * 3)
        shrunk = _entry_means(sums, counts) * (1.0 - eps) + eps * np.eye(3)
        np.testing.assert_array_equal(t, shrunk)
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
        ds = self._pseudo_setup()
        beta = np.array([0.2, 0.1])
        diffs = central_differences(ds, beta, "log", 0, [2e-3, 1e-3, 5e-4])
        d1, d2, d3 = (0.5 * (d + d.T) for d in diffs)
        ratio = np.linalg.norm(d1 - d2) / np.linalg.norm(d2 - d3)
        assert 3.2 <= ratio <= 4.8
