"""The batched per-cluster kernel and the prefix-sum proxy against the
per-cluster reference loops."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochgee import (
    CorrelationTruth,
    DiagnosticsParams,
    EstimatingFunction,
    InvalidVarianceError,
    NotPositiveDefiniteError,
    Perturbation,
    WorkingCorrelationSpec,
    a2_halving_pass,
    a2_schedule,
    ball_lattice,
    condition_trajectories,
    corr_trajectory,
    dataset_from_arrays,
    eval_g,
    eval_g_perturbed,
    jacobian,
    linear_closed_form,
    score_increments,
    spectral_norm,
    working_corr,
)
from stochgee.estimating import (
    _a2_decide,
    _checked_inverse,
    _moments,
    _proxy_gap_window,
    freeze_proxy,
    information_sums,
    proxy_stack,
)
from stochgee.model import get_link

from stochgee import correlation, diagnostics
from oracles import (
    loop_a2_schedule,
    loop_conditional_variance,
    loop_eval_g,
    loop_information_increments,
    loop_jacobian,
    loop_lattice_curvature,
    loop_proxy_lattice,
    loop_pseudo_templates,
    loop_score_terms,
    point_proxy_lattice,
)

RTOL = 1e-12
VARIANTS = ("independence", "exchangeable", "fixed", "pseudo", "pseudo_frozen", "quasi")


def mixed_dataset(seed, n, m_max):
    """Clusters of sizes 1..m_max in random order, mild regressors."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        m = int(rng.integers(1, m_max + 1))
        x = 0.4 * rng.standard_normal((m, 2))
        pairs.append((1.0 + rng.standard_normal(m), x))
    return dataset_from_arrays(pairs, m_max=m_max), rng


def random_template(rng, m):
    a = rng.standard_normal((m, m))
    s = a @ a.T + m * np.eye(m)
    d = 1.0 / np.sqrt(np.diag(s))
    return s * np.outer(d, d)


def variant_setup(variant, ds, rng, beta, link):
    """(kind, frozen_corr, per-cluster proxy sequence for the loops)."""
    m_max = ds.m_max
    sizes = [c.size for c in ds.clusters]
    if variant == "independence":
        return EstimatingFunction.independence(), None, None
    if variant == "quasi":
        truth = CorrelationTruth(random_template(rng, m_max))
        seq = [truth.rbar(m) for m in sizes]
        return EstimatingFunction.quasi_score(truth), None, seq
    if variant in ("exchangeable", "fixed"):
        spec = (
            WorkingCorrelationSpec.exchangeable(0.3, m_max)
            if variant == "exchangeable"
            else WorkingCorrelationSpec.fixed(random_template(rng, m_max))
        )
        return (
            EstimatingFunction.gee_star(spec),
            None,
            [working_corr(spec, m) for m in sizes],
        )
    spec = WorkingCorrelationSpec.pseudo_likelihood(m_max)
    kind = EstimatingFunction.gee_star(spec)
    if variant == "pseudo":
        return kind, None, corr_trajectory(ds, beta, link, spec)
    frozen = corr_trajectory(ds, beta + 0.1, link, spec)
    return kind, frozen, frozen


def pairs(ds):
    return [(c.response, c.regressors) for c in ds.clusters]


def assert_close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    variant=st.sampled_from(VARIANTS),
)


@settings(max_examples=80, deadline=None)
@given(**cases)
def test_eval_g_and_jacobian_match_loops(seed, n, m_max, link, variant):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    kind, frozen, seq = variant_setup(variant, ds, rng, beta, link)
    expect_g = loop_eval_g(pairs(ds), beta, link, seq)
    assert_close(eval_g(kind, ds, beta, link, frozen_corr=frozen), expect_g)
    expect_jac = loop_jacobian(pairs(ds), beta, link, seq)
    if variant.startswith("pseudo"):
        # the analytic Jacobian of a proxy held fixed at ``seq``
        jac = jacobian(kind, ds, beta, link, frozen_corr=seq)
    else:
        jac = jacobian(kind, ds, beta, link, frozen_corr=frozen)
    assert_close(jac, expect_jac)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    variant=st.sampled_from(["exchangeable", "fixed", "pseudo_frozen"]),
)
def test_probit_eval_g_matches_loop(seed, n, m_max, variant):
    # the probit link has no analytic Jacobian, so a probit solve steps
    # along the central differences of this g
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    kind, frozen, seq = variant_setup(variant, ds, rng, beta, "probit")
    expect = loop_eval_g(pairs(ds), beta, "probit", seq)
    assert_close(eval_g(kind, ds, beta, "probit", frozen_corr=frozen), expect)


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_variance_and_information_match_loops(seed, n, m_max, link, variant):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    if variant == "pseudo_frozen":
        variant = "pseudo"
    kind, _, seq = variant_setup(variant, ds, rng, beta, link)
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    q, increments = score_increments(kind, ds, beta, link, truth)
    expect = loop_conditional_variance(pairs(ds), beta, link, seq, truth.rbar)
    assert_close(increments, expect)
    assert_close(q, loop_score_terms(pairs(ds), beta, link, seq))
    assert_close(q.sum(axis=0), eval_g(kind, ds, beta, link))
    if kind.variant != "gee_star":
        return
    sums = information_sums(ds, beta, link, kind.spec, truth, range(1, n + 1))
    ref = loop_information_increments(pairs(ds), beta, link, seq, truth.rbar)
    for key in ref:
        assert_close(sums[key], np.cumsum(ref[key], axis=0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    variant=st.sampled_from(["exchangeable", "fixed"]),
)
def test_identity_link_jacobian_is_the_working_information(seed, n, m_max, variant):
    # with the identity link -dg/dbeta' is sum_i z_i' R^{-1} z_i, the
    # cluster sum of the h_star summands, from the same whitened factors
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    kind, _, _ = variant_setup(variant, ds, rng, beta, "identity")
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    jac = jacobian(kind, ds, beta, "identity")
    sums = information_sums(ds, beta, "identity", kind.spec, truth, (n,))
    assert_close(jac, sums["h_star"][0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    kind_name=st.sampled_from(["identity", "exchangeable", "pseudo"]),
)
def test_perturbed_paths_match_loops(seed, n, m_max, link, kind_name):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    deltas = [0.1 * rng.uniform(-1, 1, size=(2, c.size)) for c in ds.clusters]
    pert = Perturbation(tuple(deltas), bound=1.0)
    spec = {
        "identity": WorkingCorrelationSpec.identity(m_max),
        "exchangeable": WorkingCorrelationSpec.exchangeable(0.3, m_max),
        "pseudo": WorkingCorrelationSpec.pseudo_likelihood(m_max),
    }[kind_name]
    if spec.depends_on_data:
        # the perturbed proxy folds residuals standardized at X_i + delta_i'
        moved = dataset_from_arrays(
            [(y, x + d.T) for (y, x), d in zip(pairs(ds), deltas)], m_max=m_max
        )
        seq = corr_trajectory(moved, beta, link, spec)
    else:
        seq = [working_corr(spec, c.size) for c in ds.clusters]
    expect = loop_eval_g(pairs(ds), beta, link, seq, deltas)
    assert_close(eval_g_perturbed(ds, beta, pert, link, spec), expect)
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    sums = information_sums(pert.shift(ds), beta, link, spec, truth, range(1, n + 1))
    ref = loop_information_increments(pairs(ds), beta, link, seq, truth.rbar, deltas)
    for key in ref:
        assert_close(sums[key], np.cumsum(ref[key], axis=0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    kind_name=st.sampled_from(["exchangeable", "pseudo"]),
    perturbed=st.booleans(),
)
def test_information_sums_match_loop_cumsums(seed, n, m_max, link, kind_name, perturbed):
    # every n of the dense grid 1..n is a checkpoint
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    spec = {
        "exchangeable": WorkingCorrelationSpec.exchangeable(0.3, m_max),
        "pseudo": WorkingCorrelationSpec.pseudo_likelihood(m_max),
    }[kind_name]
    deltas = None
    if perturbed:
        deltas = [0.1 * rng.uniform(-1, 1, size=(2, c.size)) for c in ds.clusters]
        moved = ds.shifted(Perturbation(tuple(deltas), bound=1.0).stack)
    else:
        moved = ds
    seq = corr_trajectory(moved, beta, link, spec)
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    sums = information_sums(moved, beta, link, spec, truth, tuple(range(1, n + 1)))
    ref = loop_information_increments(pairs(ds), beta, link, seq, truth.rbar, deltas)
    assert sums.keys() == ref.keys()
    for key in ref:
        assert sums[key].shape == (n, 2, 2)
        assert_close(sums[key], np.cumsum(ref[key], axis=0))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
)
def test_information_sums_of_a_proxy_equal_to_the_truth(seed, n, m_max, link):
    # the exchangeable proxy is the truth, so H* and M-bar are bitwise equal
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    n_grid = tuple(sorted(set(rng.integers(1, n + 1, size=3).tolist())))
    spec = WorkingCorrelationSpec.exchangeable(0.3, m_max)
    truth = CorrelationTruth.from_kind("exchangeable", 0.3, m_max)
    sums = information_sums(ds, beta, link, spec, truth, n_grid)
    assert sums["h_star"].tobytes() == sums["m_bar"].tobytes()


def error_dataset():
    """Mixed sizes; clusters 7, 9 and 11 overflow the log link at
    beta=(1, 0).

    Cluster 9 has size 1, so its bucket comes before the bucket of
    clusters 7 and 11."""
    rng = np.random.default_rng(5)
    pairs_ = []
    for i in range(1, 13):
        m = 1 if i == 9 else 2 + i % 2
        x = 0.3 * rng.standard_normal((m, 2))
        if i in (7, 9, 11):
            x[:, 0] = 800.0
        pairs_.append((rng.standard_normal(m), x))
    return dataset_from_arrays(pairs_, m_max=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda k, ds, b: eval_g(k, ds, b, "log"),
        lambda k, ds, b: jacobian(k, ds, b, "log"),
        lambda k, ds, b: score_increments(k, ds, b, "log", CorrelationTruth.plugin(3)),
        lambda k, ds, b: eval_g(EstimatingFunction.independence(), ds, b, "log"),
        lambda k, ds, b: eval_g_perturbed(
            ds, b, Perturbation.zero(ds), "log", WorkingCorrelationSpec.identity(3)
        ),
    ],
)
def test_invalid_variance_names_first_cluster_in_cluster_order(call):
    ds = error_dataset()
    kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
    with pytest.raises(InvalidVarianceError, match=r"^cluster 7: non-finite moments"):
        call(kind, ds, np.array([1.0, 0.0]))


def shift_error_case():
    """Mixed sizes; under the perturbation, clusters 4 and 5 overflow the
    log link at beta=(1, 0), and no cluster does without it.

    Cluster 5 has size 1, so its bucket comes before the bucket of
    cluster 4."""
    rng = np.random.default_rng(7)
    sizes = (2, 3, 2, 2, 1, 3)
    pairs_ = [(rng.standard_normal(m), 0.3 * rng.standard_normal((m, 2))) for m in sizes]
    deltas = [np.zeros((2, m)) for m in sizes]
    for i in (3, 4):
        deltas[i][0] = 800.0
    return dataset_from_arrays(pairs_, m_max=3), Perturbation(deltas, bound=2000.0)


@pytest.mark.parametrize("kind_name", ["identity", "exchangeable", "pseudo"])
def test_shifted_overflow_names_first_cluster_in_cluster_order(kind_name):
    ds, pert = shift_error_case()
    spec = {
        "identity": WorkingCorrelationSpec.identity(3),
        "exchangeable": WorkingCorrelationSpec.exchangeable(0.4, 3),
        "pseudo": WorkingCorrelationSpec.pseudo_likelihood(3),
    }[kind_name]
    beta = np.array([1.0, 0.0])
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, 3)
    msg = r"^cluster 4: non-finite moments at beta=\[1\.0, 0\.0\]$"
    with pytest.raises(InvalidVarianceError, match=msg):
        information_sums(pert.shift(ds), beta, "log", spec, truth, (ds.n,))
    if spec.kind != "identity":
        with pytest.raises(InvalidVarianceError, match=msg):
            eval_g_perturbed(ds, beta, pert, "log", spec)
        return
    # the identity coefficients X_i + delta_i' take no variance of the
    # shifted data, so nothing overflows
    expect = sum(
        (x + d.T).T @ (y - np.exp(x @ beta)) for (y, x), d in zip(pairs(ds), pert.deltas)
    )
    assert_close(eval_g_perturbed(ds, beta, pert, "log", spec), expect)


def test_not_pd_proxy_carries_cluster_index():
    ds = error_dataset()
    kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
    frozen = corr_trajectory(ds, np.zeros(2), "log", kind.spec)
    # cluster 9 (size 1) sits in an earlier bucket than clusters 6 and 8
    frozen[5] = -np.eye(ds.clusters[5].size)
    frozen[7] = -3.0 * np.eye(ds.clusters[7].size)
    frozen[8] = -2.0 * np.eye(1)
    with pytest.raises(NotPositiveDefiniteError) as err:
        eval_g(kind, ds, np.zeros(2), "log", frozen_corr=frozen)
    assert err.value.cluster_index == 6
    assert err.value.lambda_min == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# the residual-moment proxy as a prefix sum, against the sequential fold


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    perturbed=st.booleans(),
)
def test_proxy_stack_equals_sequential_fold(seed, n, m_max, link, perturbed):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    if perturbed:
        deltas = [0.1 * rng.uniform(-1, 1, size=(2, c.size)) for c in ds.clusters]
        shifted = ds.shifted(Perturbation(tuple(deltas), 1.0).stack)
        stack = proxy_stack(shifted, beta, link)
    else:
        deltas = None
        stack = proxy_stack(ds, beta, link)
    expect = loop_pseudo_templates(pairs(ds), beta, link, m_max, deltas)
    assert stack.shape == (n + 1, m_max, m_max)
    for got, ref in zip(stack, expect):
        np.testing.assert_array_equal(got, ref)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    points=st.integers(1, 6),
)
def test_stacked_proxy_stack_equals_each_point(seed, n, m_max, link, points):
    ds, rng = mixed_dataset(seed, n, m_max)
    betas = rng.uniform(-0.5, 0.5, size=(points, 2))
    stacks = proxy_stack(ds, betas, link)
    assert stacks.shape == (points, n + 1, m_max, m_max)
    for beta, got in zip(betas, stacks):
        np.testing.assert_array_equal(got, proxy_stack(ds, beta, link))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 20),
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    points=st.integers(1, 30),
    link=st.sampled_from(["identity", "log"]),
)
def test_stacked_moments_equal_each_point(seed, k, m, p, points, link):
    # the one batched product of a stack of points gives each point's
    # b.x @ point byte for byte
    rng = np.random.default_rng(seed)
    ds = dataset_from_arrays(
        [(rng.standard_normal(m), rng.standard_normal((m, p))) for _ in range(k)]
    )
    betas = rng.uniform(-0.5, 0.5, size=(points, p))
    lk = get_link(link)
    (bucket,) = ds.buckets
    ((mean, var),) = _moments(ds, betas, lk)
    etas = np.stack([bucket.x @ point for point in betas])
    assert mean.tobytes() == lk.eval(0, etas).tobytes()
    assert var.tobytes() == lk.eval(1, etas).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "order, message",
    [
        ((0, 1, 2), "cluster 1: residual standardization overflowed"),
        ((0, 2, 1), "cluster 2: non-finite moments at beta=[0.0, 800.0]"),
    ],
)
def test_stacked_proxy_stack_raises_for_the_first_bad_point(order, message):
    # beta = (-740, 0) leaves cluster 1 a subnormal variance, so its huge
    # response overflows the standardization; beta = (0, 800) overflows the
    # moments of cluster 2. Whichever comes first in the stack is named.
    ds = dataset_from_arrays(
        [(np.array([1e150]), np.array([[1.0, 0.0]])),
         (np.array([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.5]]))],
        m_max=2,
    )
    betas = np.array([[0.0, 0.0], [-740.0, 0.0], [0.0, 800.0]])
    with pytest.raises(InvalidVarianceError) as one:
        proxy_stack(ds, betas[order[1]], "log")
    assert str(one.value) == message
    with pytest.raises(InvalidVarianceError) as stacked:
        proxy_stack(ds, betas[list(order)], "log")
    assert str(stacked.value) == message


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m_max=st.integers(1, 3),
    link=st.sampled_from(["identity", "log"]),
)
def test_pseudo_condition_trajectories_match_loops(seed, n, m_max, link):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    params = DiagnosticsParams(r_grid=(0.3, 0.1), n_grid=(n // 2, n))
    spec = WorkingCorrelationSpec.pseudo_likelihood(m_max)
    report = condition_trajectories(ds, beta, link, spec, params=params)
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    pi, d = loop_proxy_lattice(pairs(ds), beta, link, m_max, lattices, params.n_grid)
    for r in params.r_grid:
        assert_close(report.series_by_r["pi"][r], pi[r])
        assert_close(report.series_by_r["d"][r], d[r])
    templates = loop_pseudo_templates(pairs(ds), beta, link, m_max)
    extremes = np.array([np.linalg.eigvalsh(templates[k - 1]) for k in params.n_grid])
    assert_close(report.series["lambda_min_rstar"], extremes[:, 0])
    assert_close(report.series["lambda_max_rstar"], extremes[:, -1])


def batched_lattice_case(seed, n, m_max, link, radii, checkpoints=0):
    """The lattice series of the report against the point-by-point oracle,
    bit for bit; the checkpoints are 1..n, or that many (at most n) drawn
    at random, so that a segment between them holds several clusters and
    the clusters past the last one are read by none."""
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    r_grid = tuple(sorted(rng.uniform(0.05, 0.6, size=radii), reverse=True))
    n_grid = tuple(range(1, n + 1))
    if checkpoints:
        n_grid = tuple(sorted(rng.choice(n_grid, min(checkpoints, n), replace=False)))
    params = DiagnosticsParams(r_grid=r_grid, n_grid=n_grid)
    spec = WorkingCorrelationSpec.pseudo_likelihood(m_max)
    report = condition_trajectories(ds, beta, link, spec, params=params)
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    pi, d = point_proxy_lattice(ds, beta, get_link(link), lattices, params.n_grid)
    for r in params.r_grid:
        np.testing.assert_array_equal(report.series_by_r["pi"][r], pi[r])
        np.testing.assert_array_equal(report.series_by_r["d"][r], d[r])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    radii=st.integers(1, 3),
    checkpoints=st.integers(0, 3),
)
def test_batched_lattice_equals_point_by_point(seed, n, m_max, link, radii, checkpoints):
    batched_lattice_case(seed, n, m_max, link, radii, checkpoints)


@pytest.mark.parametrize("checkpoints", [0, 2])
@pytest.mark.parametrize("budget", [1, 1200])
def test_batched_lattice_in_blocks_equals_point_by_point(
    monkeypatch, budget, checkpoints
):
    # a budget of 1 folds one point (with its 4 neighbours) per block; 1200
    # entries hold 2 of the 25 distinct points: 2 * 5 * 12 * 3 * 3 = 1080
    monkeypatch.setattr(diagnostics, "_LATTICE_BLOCK_ELEMENTS", budget)
    batched_lattice_case(8, n=11, m_max=3, link="log", radii=3, checkpoints=checkpoints)


def test_lattice_screen_skips_most_eigenvalues(monkeypatch):
    # 300 clusters of sizes 1..3, the default 25-point lattice and three
    # checkpoints: without the screen, every point and cluster hands q and
    # dR/dbeta_1, dR/dbeta_2 to eigvalsh, 3 * 25 * 300 = 22500 matrices
    ds, rng = mixed_dataset(30, 300, 3)
    beta = rng.uniform(-0.5, 0.5, size=2)
    params = DiagnosticsParams(n_grid=(100, 200, 300))
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    pi, d = point_proxy_lattice(ds, beta, get_link("log"), lattices, params.n_grid)
    # count the matrices of the calls made in diagnostics itself, not the
    # eigenvalue-floor checks of the proxy fold
    counted = []
    real = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == diagnostics.__name__:
            counted.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    spec = WorkingCorrelationSpec.pseudo_likelihood(3)
    report = condition_trajectories(ds, beta, "log", spec, params=params)
    for r in params.r_grid:
        np.testing.assert_array_equal(report.series_by_r["pi"][r], pi[r])
        np.testing.assert_array_equal(report.series_by_r["d"][r], d[r])
    assert 0 < sum(counted) < 0.1 * 3 * 25 * 300


def test_lattice_fold_count_does_not_grow_with_the_radii(monkeypatch):
    # per-point folding would call the template regularization once per
    # lattice point and neighbour: 48 times for one radius, 128 for three
    calls = []
    templates = correlation.residual_moment_templates

    def counted(*args):
        calls.append(1)
        return templates(*args)

    monkeypatch.setattr(correlation, "residual_moment_templates", counted)
    ds, rng = mixed_dataset(16, 16, 3)
    beta = rng.uniform(-0.5, 0.5, size=2)
    spec = WorkingCorrelationSpec.pseudo_likelihood(3)
    counts = []
    for r_grid in ((0.5,), DiagnosticsParams.r_grid):
        calls.clear()
        params = DiagnosticsParams(r_grid=r_grid)
        condition_trajectories(ds, beta, "log", spec, params=params)
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# the perturbation schedule and the lattice curvature series on the size
# buckets, against the per-cluster loops


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    kind_name=st.sampled_from(["identity", "exchangeable", "pseudo"]),
    scale=st.sampled_from([1.0, 4.0]),
)
def test_a2_schedule_matches_loop(seed, n, m_max, link, kind_name, scale):
    ds, rng = mixed_dataset(seed, n, m_max)
    if scale != 1.0:
        ds = dataset_from_arrays([(y, scale * x) for y, x in pairs(ds)], m_max=m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    spec = {
        "identity": WorkingCorrelationSpec.identity(m_max),
        "exchangeable": WorkingCorrelationSpec.exchangeable(0.3, m_max),
        "pseudo": WorkingCorrelationSpec.pseudo_likelihood(m_max),
    }[kind_name]
    pert, report = a2_schedule(a2_halving_pass(ds, beta, link, seed), spec)
    deltas, halvings, violations = loop_a2_schedule(
        pairs(ds), beta, link, m_max, spec.depends_on_data, seed
    )
    assert [d.shape for d in pert.deltas] == [d.shape for d in deltas]
    for got, ref in zip(pert.deltas, deltas):
        assert got.tobytes() == ref.tobytes()
    assert report["halvings"] == halvings
    assert report["violations"] == violations


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(80, 200),
    link=st.sampled_from(["identity", "log"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_a2_schedule_batched_suffix_matches_loop(seed, n, link, scale):
    # 2^-i falls below the rounding of the perturbed residuals after a few
    # dozen clusters, so the pass in cluster order stops at some K < n and
    # the rest is decided in one batch; the regressor scale moves K
    ds, rng = mixed_dataset(seed, n, 4)
    ds = dataset_from_arrays([(y, scale * x) for y, x in pairs(ds)], m_max=4)
    beta = rng.uniform(-0.5, 0.5, size=2) / np.sqrt(scale)
    spec = WorkingCorrelationSpec.pseudo_likelihood(4)
    pert, report = a2_schedule(a2_halving_pass(ds, beta, link, seed), spec)
    deltas, halvings, violations = loop_a2_schedule(pairs(ds), beta, link, 4, True, seed)
    assert 0 < report["ordered_prefix"] < n
    assert len(pert.deltas) == len(deltas) == n
    for got, ref in zip(pert.deltas, deltas):
        assert got.tobytes() == ref.tobytes()
    assert report["halvings"] == halvings
    assert report["violations"] == violations


SCHEDULE_SPECS = {
    "identity": WorkingCorrelationSpec.identity,
    "exchangeable": lambda m: WorkingCorrelationSpec.exchangeable(0.3, m),
    "pseudo": WorkingCorrelationSpec.pseudo_likelihood,
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 90),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    order=st.permutations(list(SCHEDULE_SPECS)),
    scale=st.sampled_from([1.0, 4.0]),
)
def test_a2_schedule_shared_halving_pass_equals_fresh_calls(
    seed, n, m_max, link, order, scale
):
    # one halving pass serves the specs in any order, and each schedule
    # equals the one a2_schedule builds on its own
    ds, rng = mixed_dataset(seed, n, m_max)
    ds = dataset_from_arrays([(y, scale * x) for y, x in pairs(ds)], m_max=m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    halving = a2_halving_pass(ds, beta, link, seed)
    for name in order:
        spec = SCHEDULE_SPECS[name](m_max)
        shared, shared_report = a2_schedule(halving, spec)
        fresh, fresh_report = a2_schedule(a2_halving_pass(ds, beta, link, seed), spec)
        assert shared.stack.tobytes() == fresh.stack.tobytes()
        assert shared.sizes.tolist() == fresh.sizes.tolist()
        assert shared_report == fresh_report


def pseudo_schedule_against_loop(ds, beta, link, seed):
    """(report, per-cluster choices) of a pseudo-likelihood schedule, after
    checking it against the loop oracle bit for bit."""
    halving = a2_halving_pass(ds, beta, link, seed)
    pert, report = a2_schedule(halving, WorkingCorrelationSpec.pseudo_likelihood(ds.m_max))
    deltas, halvings, violations = loop_a2_schedule(
        pairs(ds), beta, link, ds.m_max, True, seed
    )
    assert [d.tobytes() for d in pert.deltas] == [d.tobytes() for d in deltas]
    assert report["halvings"] == halvings
    assert report["violations"] == violations
    # a collapsed delta reports max_halvings in place of its own halvings
    return report, np.asarray(halvings) != halving.halvings


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(60, 120),
    link=st.sampled_from(["identity", "log"]),
    scale=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_a2_schedule_repasses_after_wrong_guesses_match_loop(seed, n, link, scale):
    # about one dataset in four has choices that change twice before K; on
    # the first from `seed` on a pass guesses wrong, so the prefix takes
    # passes after the first and the tail one more. Sizes 1..4 spread every
    # window over several size buckets.
    spec = WorkingCorrelationSpec.pseudo_likelihood(4)
    for s in range(seed, seed + 40):
        ds, rng = mixed_dataset(s, n, 4)
        ds = dataset_from_arrays([(y, scale * x) for y, x in pairs(ds)], m_max=4)
        beta = rng.uniform(-0.5, 0.5, size=2)
        halving = a2_halving_pass(ds, beta, link, s)
        _, report = a2_schedule(halving, spec)
        k = report["ordered_prefix"]
        chosen = np.asarray(report["halvings"][:k]) != halving.halvings[:k]
        if k < n and np.count_nonzero(np.diff(chosen.astype(int))) >= 2:
            break
    else:
        assume(False)
    assert pseudo_schedule_against_loop(ds, beta, link, s)[0] == report
    assert report["ordered_passes"] >= 3


def assert_schedule_hands_over_its_inverses(ds, beta, link, seed):
    """The decisions of a pseudo-likelihood schedule, after checking that
    their inverse proxies are those of a fresh fold of the shifted
    dataset, bit for bit."""
    spec = WorkingCorrelationSpec.pseudo_likelihood(ds.m_max)
    halving = a2_halving_pass(ds, beta, link, seed)
    decided = _a2_decide(halving, spec)
    pert, report = a2_schedule(halving, spec)
    assert (decided.ordered, decided.passes) == (
        report["ordered_prefix"],
        report["ordered_passes"],
    )
    shifted = ds.shifted(pert.stack)
    fresh = freeze_proxy(EstimatingFunction.gee_star(spec), shifted, beta, link)
    assert len(decided.inverses) == len(fresh.inverses) == len(ds.buckets)
    for got, want in zip(decided.inverses, fresh.inverses):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return decided


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 90),
    link=st.sampled_from(["identity", "log"]),
    scale=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_a2_schedule_inverses_equal_a_fresh_fold(seed, n, link, scale):
    # mixed sizes 1..4; the scales and lengths give K = n as well as K < n
    # with passes after the first
    ds, rng = mixed_dataset(seed, n, 4)
    ds = dataset_from_arrays([(y, scale * x) for y, x in pairs(ds)], m_max=4)
    beta = rng.uniform(-0.5, 0.5, size=2)
    assert_schedule_hands_over_its_inverses(ds, beta, link, seed)


@pytest.mark.parametrize(
    "seed, n, prefix, passes", [(0, 80, 50, 3), (5, 20, 20, 2)]
)
def test_a2_schedule_hands_over_both_kinds_of_prefix(seed, n, prefix, passes):
    # K < n after passes over the prefix, and K = n, whose one window is
    # passed again
    ds, rng = mixed_dataset(seed, n, 4)
    beta = rng.uniform(-0.5, 0.5, size=2)
    decided = assert_schedule_hands_over_its_inverses(ds, beta, "log", seed)
    assert decided.ordered == prefix
    assert decided.passes >= passes


def test_a2_schedule_verifies_a_prefix_that_reaches_n():
    # 2^-20 still moves the perturbed residuals, so K = n and there is no
    # tail; the choices change at clusters 6, 8 and 10, so the only window,
    # which reaches n, must still be verified and passed again
    ds, rng = mixed_dataset(5, 20, 4)
    beta = rng.uniform(-0.5, 0.5, size=2)
    report, chosen = pseudo_schedule_against_loop(ds, beta, "log", 5)
    assert report["ordered_prefix"] == ds.n
    assert report["ordered_passes"] >= 2
    assert chosen.tolist() == [c == "1" for c in "00000110011111111111"]


def test_proxy_gap_window_singular_template_after_a_wrong_guess_does_not_raise():
    # candidate 1 of cluster 3 (0-based 2) has a residual near 1.5e21, which
    # makes the template of cluster 4 numerically singular; a window that
    # guesses it must stop short of cluster 4 instead of raising, since the
    # pass that corrects the guess never folds it
    rng = np.random.default_rng(0)
    n, j = 6, 2
    ds = dataset_from_arrays(
        [(rng.standard_normal(2), rng.standard_normal((2, 2))) for _ in range(n)]
    )
    resid = rng.standard_normal((n, 2))
    huge = resid.copy()
    huge[j] = [1.5e21, -0.7e21]
    outer = correlation.residual_moment_terms(ds, [np.stack([resid, huge])])
    rinv = np.broadcast_to(np.eye(2), (n, 2, 2))
    targets = np.ldexp(1.0, -np.arange(1, n + 1))
    fold = (ds, outer, rinv, targets)
    state = np.zeros((2, 2))
    guess = np.zeros(n, dtype=np.int64)
    assert _proxy_gap_window(fold, 0, n, state, guess)[0] == n
    guess[j] = 1
    stop, sums, exceeds, window = _proxy_gap_window(fold, 0, n, state, guess)
    assert stop == j + 1
    # the decisions of the clusters before the singular template are those
    # of their exact gaps
    (_, _, inv), = window
    gaps = spectral_norm(inv - rinv[:stop])
    assert exceeds.tolist() == (gaps > targets[:stop]).tolist()
    # once the guess at cluster 3 is taken as right, cluster 4 starts a
    # window and its template raises
    after = sums[j] + outer[1, j + 1]
    with pytest.raises(NotPositiveDefiniteError) as err:
        _proxy_gap_window(fold, j + 1, n, after, guess)
    assert err.value.cluster_index == j + 2


@pytest.mark.parametrize("seed", [56, 2])
def test_a2_schedule_singular_perturbed_template_names_its_cluster(seed):
    # a perturbed standardized residual near 1.5e21 gives a pseudo template
    # with leading entry near 2e42 that LAPACK finds exactly singular
    ds, rng = mixed_dataset(56, 109, 4)
    ds = dataset_from_arrays([(y, 1e-3 * x) for y, x in pairs(ds)], m_max=4)
    beta = rng.uniform(-0.5, 0.5, 2) * 1e3
    spec = WorkingCorrelationSpec.pseudo_likelihood(4)
    with pytest.raises(NotPositiveDefiniteError, match="cluster 2 ") as err:
        a2_schedule(a2_halving_pass(ds, beta, "log", seed), spec)
    assert err.value.cluster_index == 2


def test_template_inverse_names_the_first_singular_template():
    stack = np.stack([np.eye(2), np.ones((2, 2)), np.eye(2), np.zeros((2, 2))])
    with pytest.raises(NotPositiveDefiniteError) as err:
        _checked_inverse([(stack, np.array([3, 7, 9, 12]))])
    assert err.value.cluster_index == 8
    assert err.value.lambda_min == pytest.approx(0.0, abs=1e-15)
    (inverse,) = _checked_inverse([(stack[[0, 2]], [0, 1])])
    np.testing.assert_array_equal(inverse, stack[[0, 2]])
    # indefinite but invertible: LU inverts it, Cholesky rejects it
    indefinite = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(NotPositiveDefiniteError) as err:
        _checked_inverse([(stack[:1], [0]), (indefinite, [5, 4])])
    assert err.value.cluster_index == 5
    assert err.value.lambda_min == pytest.approx(-1.0)


def test_singular_frozen_proxy_names_its_cluster():
    # Cholesky accepts this template of the singular-perturbed-template
    # case above, and LU finds it exactly singular
    singular = np.array(
        [
            [2.3296216299404925e42, 7.6850553342643094e30, 0.0],
            [7.6850553342643094e30, 2.5351788776194073e19, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    np.linalg.cholesky(singular)
    rng = np.random.default_rng(4)
    ds = dataset_from_arrays(
        [(rng.standard_normal(3), rng.standard_normal((3, 2))) for _ in range(2)],
        m_max=3,
    )
    kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.3, 3))
    frozen = [np.eye(3), singular]
    for evaluate in (
        lambda: eval_g(kind, ds, [0.1, 0.2], "identity", frozen_corr=frozen),
        lambda: linear_closed_form(ds, frozen),
    ):
        with pytest.raises(NotPositiveDefiniteError, match="cluster 2 ") as err:
            evaluate()
        assert err.value.cluster_index == 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 25),
    m_max=st.integers(1, 4),
    link=st.sampled_from(["identity", "log"]),
    grid=st.lists(st.integers(1, 25), min_size=1, max_size=4, unique=True),
)
def test_lattice_curvature_matches_loop(seed, n, m_max, link, grid):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    n_grid = tuple(sorted({min(k, n) for k in grid}))
    params = DiagnosticsParams(r_grid=(0.5, 0.1), n_grid=n_grid)
    spec = WorkingCorrelationSpec.exchangeable(0.3, m_max)
    report = condition_trajectories(ds, beta, link, spec, params=params)
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    expect = loop_lattice_curvature(pairs(ds), link, lattices, n_grid)
    for key, by_r in expect.items():
        assert report.series_by_r[key] == by_r


def test_lattice_curvature_skips_a_nan_cluster():
    # cluster 4 leaves the log link's range at the radius-0.5 axis points:
    # exp overflows to inf at one and underflows to 0 at the other, so its
    # k2 and k3 maxima are NaN there and the running maxima pass it over,
    # while the overflow makes its eta inf
    rng = np.random.default_rng(8)
    pairs_ = [
        (rng.standard_normal(2), 0.3 * rng.standard_normal((2, 2))) for _ in range(8)
    ]
    pairs_[3][1][:, 0] = 1500.0
    ds = dataset_from_arrays(pairs_, m_max=2)
    beta = np.array([0.0, 0.2])
    params = DiagnosticsParams(r_grid=(0.5, 0.25), n_grid=(3, 4, 8))
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    with np.errstate(over="ignore"):
        d1 = np.exp(pairs_[3][1] @ lattices[0.5].T)
    assert np.isinf(d1).any() and (d1 == 0.0).any()
    spec = WorkingCorrelationSpec.exchangeable(0.3, 2)
    report = condition_trajectories(ds, beta, "log", spec, params=params)
    expect = loop_lattice_curvature(pairs(ds), "log", lattices, params.n_grid)
    for key, by_r in expect.items():
        assert report.series_by_r[key] == by_r
    for key in ("k2", "k3"):
        assert np.all(np.isfinite(expect[key][0.5]))
    eta = report.series_by_r["eta"][0.5]
    assert np.isfinite(eta[0]) and eta[1:] == [np.inf, np.inf]
    # the radius-0.25 lattice stays in range and sees cluster 4
    assert report.series_by_r["eta"][0.25][1] > report.series_by_r["eta"][0.25][0]


def test_lattice_curvature_underflow_makes_eta_inf():
    # cluster 4's mu' underflows to 0 at some points of the radius-0.5 and
    # radius-0.25 lattices and stays positive at others, while nothing
    # overflows: the ratio is unbounded there, so eta must not shrink
    # below its value on the radius-0.1 lattice
    rng = np.random.default_rng(8)
    pairs_ = [
        (rng.standard_normal(2), 0.3 * rng.standard_normal((2, 2))) for _ in range(8)
    ]
    pairs_[3][1][:, 0] = -1500.0
    ds = dataset_from_arrays(pairs_, m_max=2)
    beta = np.array([0.3, 0.2])
    params = DiagnosticsParams(r_grid=(0.5, 0.25, 0.1), n_grid=(3, 4, 8))
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    d1 = {r: np.exp(pairs_[3][1] @ lattice.T) for r, lattice in lattices.items()}
    for r in (0.5, 0.25):
        assert (d1[r] == 0.0).any() and (d1[r] > 0.0).any()
    assert np.isfinite(d1[0.5]).all() and (d1[0.1] > 0.0).all()
    spec = WorkingCorrelationSpec.exchangeable(0.3, 2)
    report = condition_trajectories(ds, beta, "log", spec, params=params)
    expect = loop_lattice_curvature(pairs(ds), "log", lattices, params.n_grid)
    for key, by_r in expect.items():
        assert report.series_by_r[key] == by_r
    eta = report.series_by_r["eta"]
    for r in (0.5, 0.25):
        assert np.isfinite(eta[r][0]) and eta[r][1:] == [np.inf, np.inf]
    assert 1e64 < eta[0.1][1] < np.inf
