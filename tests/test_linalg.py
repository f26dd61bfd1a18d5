import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from stochgee import (
    EigenExtremes,
    InvalidInputError,
    NotPositiveDefiniteError,
    SymmetryViolationError,
    numerical_radius,
    spd_solve,
    spectral_norm,
    sym_eigen_extremes,
    sym_eigenvalues,
    sym_eigh,
)
from stochgee.diagnostics import _max_leverage
from stochgee.linalg import spectral_bounds, spectral_norm_exceeds

from oracles import (
    eigenvalues_by_bisection,
    power_iteration_norm,
    quadratic_form_radius_2x2,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestSymEigen:
    def test_identity(self):
        assert sym_eigen_extremes(np.eye(3)) == EigenExtremes(1.0, 1.0)

    def test_analytic_2x2(self):
        lo, hi = sym_eigen_extremes(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_matches_charpoly_bisection_oracle(self):
        rng = np.random.default_rng(5)
        m = random_symmetric(rng, 5)
        mine = sym_eigenvalues(m)
        reference = eigenvalues_by_bisection(m)
        np.testing.assert_allclose(mine, reference, atol=1e-8)

    def test_eigenvectors_reconstruct(self):
        rng = np.random.default_rng(7)
        m = random_symmetric(rng, 6)
        w, v = sym_eigh(m)
        np.testing.assert_allclose((v * w) @ v.T, m, atol=1e-12)
        np.testing.assert_allclose(v @ v.T, np.eye(6), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryViolationError):
            sym_eigen_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            sym_eigen_extremes(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_correlation_matrix_bound(self):
        # any m x m correlation matrix has lambda_max <= m
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            a = rng.standard_normal((m, 2 * m))
            cov = a @ a.T + 1e-6 * np.eye(m)
            d = 1.0 / np.sqrt(np.diag(cov))
            corr = cov * np.outer(d, d)
            np.fill_diagonal(corr, 1.0)
            lo, hi = sym_eigen_extremes(corr)
            assert hi <= m + 1e-10
            assert lo >= -1e-10


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)

    def test_identity(self):
        for n in (1, 2, 5):
            assert spectral_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((4, 4))
        assert spectral_norm(m) == pytest.approx(
            power_iteration_norm(m), rel=1e-8
        )

    def test_rectangular(self):
        m = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert spectral_norm(m) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.array([[np.nan]]))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(29)
        stack = rng.standard_normal((6, 2, 3, 2))
        norms = spectral_norm(stack)
        assert norms.shape == (6, 2)
        for got, m in zip(norms.reshape(-1), stack.reshape(-1, 3, 2)):
            assert isinstance(spectral_norm(m), float)
            assert got == spectral_norm(m)
        # bit for bit np.linalg.norm(., 2), also for vectors and empty stacks
        for shape in [(6, 2, 3, 2), (5, 1, 4), (5, 4, 1), (5, 0, 3), (0, 2, 3)]:
            stack = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            norms = spectral_norm(stack)
            want = np.linalg.norm(stack, 2, axis=(-2, -1))
            assert norms.shape == want.shape == shape[:-2]
            assert norms.tobytes() == want.tobytes()
        for shape in [(0, 3), (3, 0), (0, 0)]:
            norm = spectral_norm(np.zeros(shape))
            assert isinstance(norm, float) and norm == 0.0

    def test_stack_rejects_non_finite_entry(self):
        stack = np.ones((3, 2, 2))
        stack[2, 0, 1] = np.inf
        with pytest.raises(InvalidInputError):
            spectral_norm(stack)


class TestSpectralNormExceeds:
    @staticmethod
    def assert_decides_as_the_spectral_norm(stack, limits):
        want = np.asarray(spectral_norm(stack) > limits)
        got = spectral_norm_exceeds(stack, limits)
        assert got.dtype == bool and got.shape == stack.shape[:-2]
        assert got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        k=st.integers(0, 4),
        rank_one=st.booleans(),
        scale=st.sampled_from([1.0, 1e150, 1e-150, 1e160, 1e-160, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_limits_a_few_ulps_from_the_norm(self, r, c, k, rank_one, scale, seed):
        # each matrix is repeated with limits norm * (1 + j eps), j in -4..4,
        # so some limits sit between a computed bound and the computed norm;
        # a rank-one matrix has a column or Frobenius norm equal to its
        # spectral norm in exact arithmetic; at 1e+-160 the squares of the
        # bounds overflow or fall into the subnormals
        rng = np.random.default_rng(seed)
        if rank_one:
            mats = rng.uniform(-1, 1, (k, r, 1)) * rng.uniform(-1, 1, (k, 1, c))
        else:
            mats = rng.uniform(-1, 1, (k, r, c))
        mats *= scale
        steps = np.arange(-4, 5) * np.finfo(float).eps
        stack = np.repeat(mats, steps.size, axis=0)
        limits = np.repeat(spectral_norm(mats), steps.size) * np.tile(1.0 + steps, k)
        self.assert_decides_as_the_spectral_norm(stack, limits)

    def test_zero_matrices_and_zero_limits(self):
        for r, c in [(1, 1), (2, 3), (4, 4), (3, 0), (0, 2)]:
            zero = np.zeros((4, r, c))
            one = np.ones((4, r, c))
            limits = np.array([0.0, 1e-300, -1.0, 1.0])
            for stack in (zero, one):
                self.assert_decides_as_the_spectral_norm(stack, limits)
                self.assert_decides_as_the_spectral_norm(stack, 0.0)
        for shape in [(0, 2, 3), (0, 1, 1), (0, 4, 4)]:
            self.assert_decides_as_the_spectral_norm(np.zeros(shape), np.zeros(0))

    def test_leading_axes_broadcast_a_limit(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((3, 2, 3, 3))
        self.assert_decides_as_the_spectral_norm(stack, 2.0)
        # a single matrix, at a limit that the bounds cannot settle
        m = stack[0, 0]
        for limit in (spectral_norm(m), 0.0, 1e3):
            self.assert_decides_as_the_spectral_norm(m, limit)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_as_the_spectral_norm(self, bad):
        stack = np.ones((3, 2, 2))
        stack[2, 0, 1] = bad
        with pytest.raises(InvalidInputError) as want:
            spectral_norm(stack)
        # a limit that every bound would settle still takes the exact path
        for limits in (np.full(3, 10.0), np.full(3, -1.0), np.inf):
            with pytest.raises(InvalidInputError) as got:
                spectral_norm_exceeds(stack, limits)
            assert str(got.value) == str(want.value)


class TestSpectralBounds:
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        top=st.booleans(),
        sparse=st.booleans(),
        scale=st.sampled_from([1.0, 1e150, 1e-150, 1e160, 1e-160, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_enclose_the_exact_value(self, r, c, top, sparse, scale, seed):
        # sparse: a rank-one matrix, whose largest column norm is its
        # spectral norm in exact arithmetic, or with ``top`` a diagonal one,
        # whose largest diagonal entry is its largest eigenvalue and may be
        # negative; at 1e+-160 squares overflow or fall into the subnormals
        rng = np.random.default_rng(seed)
        if top:
            mats = rng.uniform(-1, 1, (3, r, r))
            mats = np.eye(r) * mats if sparse else 0.5 * (mats + np.swapaxes(mats, 1, 2))
        elif sparse:
            mats = rng.uniform(-1, 1, (3, r, 1)) * rng.uniform(-1, 1, (3, 1, c))
        else:
            mats = rng.uniform(-1, 1, (3, r, c))
        mats *= scale
        exact = np.linalg.eigvalsh(mats)[:, -1] if top else spectral_norm(mats)
        lower, upper = spectral_bounds(mats, top=top)
        assert lower.shape == upper.shape == (3,)
        assert np.all(lower <= exact) and np.all(exact <= upper)

    @pytest.mark.parametrize("top", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_bounds_bound_nothing(self, top, bad):
        # a NaN or infinite entry, or a row of 1e308 whose sums overflow
        stack = np.ones((3, 2, 2))
        stack[1, 0] = bad
        lower, upper = spectral_bounds(stack, top=top)
        assert lower[1] == -np.inf and upper[1] == np.inf
        assert np.all(np.isfinite(lower[::2])) and np.all(np.isfinite(upper[::2]))


class TestNumericalRadius:
    def test_symmetric_equals_abs_extreme(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = random_symmetric(rng, 4)
            lo, hi = sym_eigen_extremes(m)
            assert numerical_radius(m) == pytest.approx(max(abs(lo), abs(hi)), rel=1e-12)

    def test_jordan_block(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        reference = quadratic_form_radius_2x2(m)
        w = numerical_radius(m)
        assert w == pytest.approx(0.5, abs=1e-4)
        assert w == pytest.approx(reference, abs=1e-4)

    def test_identity(self):
        assert numerical_radius(np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_skew(self):
        # the rotation generator has vanishing real quadratic form but
        # radius 1; the two-sided norm bound must still hold
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = numerical_radius(m)
        assert w == pytest.approx(1.0, abs=1e-10)
        assert spectral_norm(m) <= 2.0 * w + 1e-12

    def test_two_sided_bound_on_random_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            w = numerical_radius(m)
            s = spectral_norm(m)
            assert w <= s + 1e-12
            assert s <= 2.0 * w + 1e-12


class TestSpdSolve:
    def test_identity(self):
        rng = np.random.default_rng(29)
        b = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(spd_solve(np.eye(4), b), b)

    def test_diagonal(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5))
        m = a @ a.T + 0.5 * np.eye(5)
        b = rng.standard_normal((5, 3))
        x = spd_solve(m, b)
        assert np.max(np.abs(m @ x - b)) < 1e-10 * np.max(np.abs(b))

    def test_multiply_back_ill_conditioned(self):
        # condition number ~1e8: right-hand sides reachable from a
        # moderate solution meet the strict B-relative bound
        rng = np.random.default_rng(37)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = (q * np.logspace(-8, 0, 6)) @ q.T
        m = 0.5 * (m + m.T)
        x_true = rng.standard_normal((6, 2))
        b = m @ x_true
        x = spd_solve(m, b)
        assert np.max(np.abs(m @ x - b)) < 1e-10 * np.max(np.abs(b))

    def test_multiply_back_scaled_residual_any_rhs(self):
        # for arbitrary right-hand sides the achievable double-precision
        # residual scales with ||M|| ||X||; refinement reaches that floor
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = (q * np.logspace(-8, 0, 6)) @ q.T
        m = 0.5 * (m + m.T)
        b = rng.standard_normal(6)
        x = spd_solve(m, b)
        scale = max(np.max(np.abs(b)), np.max(np.abs(m)) * np.max(np.abs(x)))
        assert np.max(np.abs(m @ x - b)) < 1e-12 * scale

    def test_not_pd_error_carries_lambda_min(self):
        m = np.array([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(m, np.ones(2))
        assert err.value.lambda_min == pytest.approx(-2.0, abs=1e-10)

    def test_vector_rhs(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x = spd_solve(m, b)
        np.testing.assert_allclose(m @ x, b, atol=1e-12)

    @pytest.mark.parametrize(
        "m, b", [(np.eye(2), np.zeros((2, 0))), (np.zeros((0, 0)), np.zeros(0))]
    )
    def test_empty_rhs(self, m, b):
        x = spd_solve(m, b)
        assert x.shape == b.shape

    def test_solve_failure_is_not_pd(self, monkeypatch):
        # a LinAlgError from a solve through the factor surfaces as
        # NotPositiveDefiniteError, which the leverage reads as inf
        def failing_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        lam_min = float(np.linalg.eigvalsh(m)[0])
        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(m, np.ones(2))
        assert err.value.lambda_min == pytest.approx(lam_min, rel=1e-12)
        assert _max_leverage(m, np.ones((3, 2))) == math.inf


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spd_solve_matches_cho_solve_property(p, k, seed):
    # random SPD systems whose right-hand-side columns lie up to 1e4 apart
    # in scale: each column agrees with SciPy's Cholesky solve to 1e-12 of
    # its largest entry, and the multiply-back residual meets the bound
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    m = a @ a.T + 0.5 * np.eye(p)
    b = rng.standard_normal((p, k)) * 10.0 ** rng.uniform(0.0, 4.0, k)
    x = spd_solve(m, b)
    ref = cho_solve(cho_factor(m, lower=True), b)
    assert np.all(np.abs(x - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))
    assert np.max(np.abs(m @ x - b)) < 1e-10 * np.max(np.abs(b))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_radius_norm_inequality_property(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * rng.lognormal(0.0, 1.0)
    w = numerical_radius(m)
    s = spectral_norm(m)
    assert w <= s + 1e-12 * max(1.0, s)
    assert s <= 2.0 * w + 1e-12 * max(1.0, s)


def test_mean_subadditivity_of_radius_and_norm():
    # finite-sample versions of the expectation bounds: the radius of a
    # sample mean never exceeds the mean radius, and the norm of a mean
    # never exceeds twice the mean radius (hence twice the mean norm)
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        mats = [rng.standard_normal((3, 3)) for _ in range(k)]
        mean = sum(mats) / k
        mean_radius = np.mean([numerical_radius(a) for a in mats])
        mean_norm = np.mean([spectral_norm(a) for a in mats])
        assert numerical_radius(mean) <= mean_radius + 1e-12
        assert spectral_norm(mean) <= 2.0 * mean_radius + 1e-12
        assert spectral_norm(mean) <= 2.0 * mean_norm + 1e-12
