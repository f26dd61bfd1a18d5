"""The batched per-cluster kernel and the prefix-sum proxy against the
per-cluster reference loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgee import (
    CorrelationTruth,
    DiagnosticsParams,
    EstimatingFunction,
    InvalidVarianceError,
    NotPositiveDefiniteError,
    Perturbation,
    WorkingCorrelationSpec,
    a2_schedule,
    ball_lattice,
    condition_trajectories,
    conditional_variance,
    corr_trajectory,
    dataset_from_arrays,
    eval_g,
    eval_g_perturbed,
    jacobian,
    path_information_increments,
    working_corr,
)
from stochgee.estimating import (
    _perturbed_pseudo_trajectory,
    _perturbed_regressors,
    _template_inverse,
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
            [working_corr(spec, None, m) for m in sizes],
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
        jac = jacobian(kind, ds, beta, link, frozen_corr=seq, method="analytic")
    else:
        jac = jacobian(kind, ds, beta, link, frozen_corr=frozen, method="analytic")
    assert_close(jac, expect_jac)


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_variance_and_information_match_loops(seed, n, m_max, link, variant):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    if variant == "pseudo_frozen":
        variant = "pseudo"
    kind, _, seq = variant_setup(variant, ds, rng, beta, link)
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    res = conditional_variance(kind, ds, beta, link, truth)
    expect = loop_conditional_variance(pairs(ds), beta, link, seq, truth.rbar)
    assert_close(res.increments, expect)
    if kind.variant != "gee_star":
        return
    inc = path_information_increments(ds, beta, link, kind.spec, truth)
    ref = loop_information_increments(pairs(ds), beta, link, seq, truth.rbar)
    for key in ref:
        assert_close(inc[key], ref[key])


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
        seq = [working_corr(spec, None, c.size) for c in ds.clusters]
    expect = loop_eval_g(pairs(ds), beta, link, seq, deltas)
    assert_close(eval_g_perturbed(ds, beta, pert, link, spec), expect)
    truth = CorrelationTruth.from_kind("exchangeable", 0.4, m_max)
    inc = path_information_increments(ds, beta, link, spec, truth, perturbation=pert)
    ref = loop_information_increments(pairs(ds), beta, link, seq, truth.rbar, deltas)
    for key in ref:
        assert_close(inc[key], ref[key])


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
        lambda k, ds, b: jacobian(k, ds, b, "log", method="analytic"),
        lambda k, ds, b: conditional_variance(
            k, ds, b, "log", CorrelationTruth.plugin(3)
        ),
    ],
)
def test_invalid_variance_names_first_cluster_in_cluster_order(call):
    ds = error_dataset()
    kind = EstimatingFunction.gee_star(WorkingCorrelationSpec.exchangeable(0.4, 3))
    with pytest.raises(InvalidVarianceError, match=r"^cluster 7: non-finite moments"):
        call(kind, ds, np.array([1.0, 0.0]))


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
        _, xps = _perturbed_regressors(ds, Perturbation(tuple(deltas), 1.0), 2)
        stack = _perturbed_pseudo_trajectory(ds, beta, get_link(link), xps)
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


def batched_lattice_case(seed, n, m_max, link, radii):
    ds, rng = mixed_dataset(seed, n, m_max)
    beta = rng.uniform(-0.5, 0.5, size=2)
    r_grid = tuple(sorted(rng.uniform(0.05, 0.6, size=radii), reverse=True))
    params = DiagnosticsParams(r_grid=r_grid, n_grid=tuple(range(1, n + 1)))
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
)
def test_batched_lattice_equals_point_by_point(seed, n, m_max, link, radii):
    batched_lattice_case(seed, n, m_max, link, radii)


@pytest.mark.parametrize("budget", [1, 1200])
def test_batched_lattice_in_blocks_equals_point_by_point(monkeypatch, budget):
    # a budget of 1 folds one point (with its 4 neighbours) per block; 1200
    # entries hold 2 of the 25 distinct points: 2 * 5 * 12 * 3 * 3 = 1080
    monkeypatch.setattr(diagnostics, "_LATTICE_BLOCK_ELEMENTS", budget)
    batched_lattice_case(seed=8, n=11, m_max=3, link="log", radii=3)


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
    pert, report = a2_schedule(ds, beta, link, spec, seed=seed)
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
    pert, report = a2_schedule(ds, beta, link, spec, seed=seed)
    deltas, halvings, violations = loop_a2_schedule(pairs(ds), beta, link, 4, True, seed)
    assert 0 < report["ordered_prefix"] < n
    assert len(pert.deltas) == len(deltas) == n
    for got, ref in zip(pert.deltas, deltas):
        assert got.tobytes() == ref.tobytes()
    assert report["halvings"] == halvings
    assert report["violations"] == violations


@pytest.mark.parametrize("seed", [56, 2])
def test_a2_schedule_singular_perturbed_template_names_its_cluster(seed):
    # a perturbed standardized residual near 1.5e21 gives a pseudo template
    # with leading entry near 2e42 that LAPACK finds exactly singular
    ds, rng = mixed_dataset(56, 109, 4)
    ds = dataset_from_arrays([(y, 1e-3 * x) for y, x in pairs(ds)], m_max=4)
    beta = rng.uniform(-0.5, 0.5, 2) * 1e3
    spec = WorkingCorrelationSpec.pseudo_likelihood(4)
    with pytest.raises(NotPositiveDefiniteError, match="cluster 2 ") as err:
        a2_schedule(ds, beta, "log", spec, seed=seed)
    assert err.value.cluster_index == 2


def test_template_inverse_names_the_first_singular_template():
    stack = np.stack([np.eye(2), np.ones((2, 2)), np.eye(2), np.zeros((2, 2))])
    with pytest.raises(NotPositiveDefiniteError) as err:
        _template_inverse(stack, np.array([3, 7, 9, 12]))
    assert err.value.cluster_index == 8
    assert err.value.lambda_min == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(_template_inverse(stack[[0, 2]], [0, 1]), stack[[0, 2]])


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
    # lattice maxima are NaN there, and the running maxima pass it over
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
        assert np.all(np.isfinite(by_r[0.5]))
    # the radius-0.25 lattice stays in range and sees cluster 4
    assert report.series_by_r["eta"][0.25][1] > report.series_by_r["eta"][0.25][0]
