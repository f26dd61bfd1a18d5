import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stochgee import (
    ConfigError,
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
from stochgee import diagnostics, estimating, linalg, simulation
from stochgee.model import get_link
from stochgee.simulation import _quartiles

from oracles import point_proxy_lattice


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
        for r_grid in ((0.1, 0.5), (math.inf, 0.5), (math.nan,)):
            with pytest.raises(InvalidInputError):
                DiagnosticsParams(r_grid=r_grid)
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

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_centre_proxy_folded_and_inverted_once(self, monkeypatch, with_truth):
        # the SLLN trace and the information sums share the centre fold of
        # the a1 series; the lattice folds its points as one (L, p) stack
        # and inverts them itself
        from stochgee import diagnostics

        folds, inversions = [], []
        stack, inverse = estimating.proxy_stack, estimating._checked_inverse

        def counted_stack(dataset, beta, link):
            if np.ndim(beta) < 2:
                folds.append(dataset.n)
            return stack(dataset, beta, link)

        def counted_inverse(parts):
            parts = list(parts)
            if any(np.ndim(mats) == 3 for mats, _ in parts):
                inversions.append(None)
            return inverse(parts)

        cfg = gaussian_exch(n=30, link="log", scale=0.4)
        args = (simulate_scenario(cfg), cfg.beta0, cfg.link)
        kwargs = dict(
            spec=WorkingCorrelationSpec.pseudo_likelihood(3),
            truth=cfg.truth.template(3) if with_truth else None,
            params=DiagnosticsParams(n_grid=(10, 30)),
        )
        want = condition_trajectories(*args, **kwargs).to_json_dict()
        for module in (estimating, diagnostics):
            monkeypatch.setattr(module, "proxy_stack", counted_stack)
        monkeypatch.setattr(estimating, "_checked_inverse", counted_inverse)
        got = condition_trajectories(*args, **kwargs).to_json_dict()
        assert got == want
        assert folds == [30] and len(inversions) == 1


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

    def test_overflowing_curvature_is_inf(self):
        # at radius 0.25 every lattice point is regular, but the proxy
        # derivative is so large that the Python float power d**2 of the
        # c5 series overflows; the entry is inf, like any other float
        # overflow in the report
        ds = dataset_from_arrays(lattice_overflow_pairs(), m_max=2)
        spec = WorkingCorrelationSpec.pseudo_likelihood(2)
        params = DiagnosticsParams(r_grid=(0.25,))
        report = condition_trajectories(ds, np.zeros(2), "log", spec, params=params)
        assert report.series_by_r["c5"][0.25] == [math.inf]
        assert all(math.isfinite(v) for v in report.series_by_r["d"][0.25])


def assert_lattice_matches_oracle(ds, beta, params):
    spec = WorkingCorrelationSpec.pseudo_likelihood(ds.m_max)
    report = condition_trajectories(ds, beta, "log", spec, params=params)
    lattices = {r: ball_lattice(beta, r) for r in params.r_grid}
    n_grid = params.n_grid or (ds.n,)
    pi, d = point_proxy_lattice(ds, beta, get_link("log"), lattices, n_grid)
    for r in params.r_grid:
        np.testing.assert_array_equal(report.series_by_r["pi"][r], pi[r])
        np.testing.assert_array_equal(report.series_by_r["d"][r], d[r])
    return report


class TestLatticeScreenFallsBack:
    """Matrices whose eigenvalue bounds cannot screen them take the exact
    path, and the lattice series stay those of the unscreened fold."""

    @pytest.mark.parametrize("n_grid", [None, (3, 5), (1, 4, 8)])
    def test_overflowing_bounds(self, monkeypatch, n_grid):
        # at radius 0.25 some proxy derivatives are finite but so large
        # (d reaches 8e164) that their squared column norms overflow to inf
        bounds = []
        real = diagnostics._lattice_matrices

        def spy(*args):
            mats, lower, upper = real(*args)
            bounds.append((lower, upper))
            return mats, lower, upper

        monkeypatch.setattr(diagnostics, "_lattice_matrices", spy)
        ds = dataset_from_arrays(lattice_overflow_pairs(), m_max=2)
        params = DiagnosticsParams(r_grid=(0.25,), n_grid=n_grid)
        assert_lattice_matches_oracle(ds, np.zeros(2), params)
        assert any(np.isinf(lo).any() and np.isinf(up).any() for lo, up in bounds)

    @pytest.mark.parametrize("n_grid", [None, (2, 5), (1, 2, 3, 4, 5, 6, 7)])
    def test_tied_bounds(self, n_grid):
        # clusters of size 1 with zero regressors: the proxy does not move
        # with beta, so every dR/dbeta_l is 0 and both of its bounds are 0,
        # and the lower and upper bound of each 1 x 1 q are equal
        rng = np.random.default_rng(4)
        pairs = [(1.0 + rng.standard_normal(1), np.zeros((1, 2))) for _ in range(7)]
        ds = dataset_from_arrays(pairs, m_max=1)
        params = DiagnosticsParams(n_grid=n_grid)
        report = assert_lattice_matches_oracle(ds, np.array([0.2, -0.1]), params)
        assert all(v == 0.0 for by_r in report.series_by_r["d"].values() for v in by_r)

    @pytest.mark.parametrize(
        "radii, angles",
        [
            ((4.25e-162, 4.2498e-162), (1.81, 3.05)),
            ((1e-161, 1.0001e-161), (1.5, 3.0)),
            ((2e-162, 2.0001e-162), (2.0, 0.5)),
        ],
    )
    def test_underflowing_bounds(self, monkeypatch, radii, angles):
        # a proxy that is the identity at every point and +-dR * h at its
        # neighbours, with near-tied rank-one dR/dbeta of radius about
        # 1e-161 at the two clusters: their squared entries underflow, so
        # bounds without an absolute widening screen out the larger one
        v = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        dr = np.asarray(radii)[:, None, None] * v[:, :, None] * v[:, None, :]
        eye = np.eye(2)

        def fake_proxy_stack(dataset, beta, link):
            beta = np.asarray(beta, dtype=float)
            if beta.ndim == 1:
                return np.broadcast_to(eye, (3, 2, 2)).copy()
            # (point, point + h, point - h) visits of p = 1
            visits = beta.reshape(-1, 3)
            h = estimating._FD_STEP * np.maximum(1.0, np.abs(visits[:, :1, None, None]))
            stacks = np.broadcast_to(eye, visits.shape + (3, 2, 2)).copy()
            stacks[:, 1, :2] = dr * h
            stacks[:, 2, :2] = -dr * h
            return stacks.reshape(-1, 3, 2, 2)

        monkeypatch.setattr(diagnostics, "proxy_stack", fake_proxy_stack)
        pairs = [
            (np.array([1.2, 0.7]), np.array([[0.3], [-0.2]])),
            (np.array([0.9, 1.4]), np.array([[-0.1], [0.4]])),
        ]
        ds = dataset_from_arrays(pairs, m_max=2)
        spec = WorkingCorrelationSpec.pseudo_likelihood(2)
        report = condition_trajectories(ds, np.zeros(1), "log", spec)
        for r, series in report.series_by_r["d"].items():
            # the fold's own arithmetic on the injected differences
            expect = -np.inf
            for point in ball_lattice(np.zeros(1), r):
                h = estimating._FD_STEP * max(1.0, abs(point[0]))
                diff = (dr * h - (-dr * h)) / (2.0 * h)
                w = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, 1, 2)))
                expect = max(expect, np.abs(w[:, [0, -1]]).max())
            assert series == [expect]


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
        for delta in (0.0, math.nan):
            with pytest.raises(InvalidInputError):
                slln_monitor([], delta=delta)


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

    @pytest.mark.parametrize("study", [optimality_study, a1_gap_study])
    def test_specs_are_named_pairs(self, study):
        spec = WorkingCorrelationSpec.identity(3)
        for specs in ([spec], [("identity", "identity")], [("identity",)]):
            with pytest.raises(InvalidInputError, match="unresolved spec"):
                study(gaussian_exch(n=20), specs, 1, [20])

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


class TestStudiesMatchReport:
    @pytest.mark.parametrize(
        "name, spec",
        [
            ("pseudo", WorkingCorrelationSpec.pseudo_likelihood(3)),
            ("exchangeable:0.4", WorkingCorrelationSpec.exchangeable(0.4, 3)),
        ],
    )
    def test_one_replication_rows_equal_the_report(self, name, spec):
        # replication 0 is the scenario's own dataset, so a one-replication
        # study reads the quantities condition_trajectories reports, bit
        # for bit
        cfg, grid = gaussian_exch(n=60), [20, 60]
        truth = cfg.truth.template(cfg.m_max)
        report = condition_trajectories(
            simulate_scenario(cfg),
            cfg.beta0,
            cfg.link,
            spec,
            truth=truth,
            params=DiagnosticsParams(n_grid=tuple(grid)),
        )
        a1 = a1_gap_study(cfg, [(name, spec)], 1, grid)
        kind = EstimatingFunction.gee_star(spec)
        slln = slln_decay_study(cfg, kind, 0.25, 1, grid)
        opt = optimality_study(cfg, [(name, spec)], 1, grid)
        assert [r["median_gap"] for r in a1.rows] == report.series["a1_gap"]
        assert [r["median_ratio"] for r in slln.rows] == report.series["slln_ratio"]
        for key in ("det_ratio_h", "det_ratio_m"):
            assert [r[key] for r in opt.rows] == report.series[key]


class TestSafeRatio:
    def test_singular_denominator_is_nan(self):
        from stochgee.diagnostics import _safe_ratio

        assert math.isnan(_safe_ratio(np.eye(2), np.zeros((2, 2))))
        assert _safe_ratio(2.0 * np.eye(2), np.eye(2)) == pytest.approx(4.0)

    def test_shape_mismatch_still_raises(self):
        from stochgee.diagnostics import _safe_ratio

        with pytest.raises(InvalidInputError):
            _safe_ratio(np.eye(2), np.eye(3))


PSEUDO = [("pseudo", WorkingCorrelationSpec.pseudo_likelihood(3))]
IDENTITY = [("identity", WorkingCorrelationSpec.identity(3))]
INDEPENDENCE = EstimatingFunction.independence()

#: every ensemble study, called with a given replication count and grid
STUDIES = {
    "optimality": lambda cfg, reps, grid, jobs=1: optimality_study(
        cfg, PSEUDO, reps, grid, perturbed=True, jobs=jobs
    ),
    "consistency": lambda cfg, reps, grid, jobs=1: consistency_study(
        cfg, [("independence", INDEPENDENCE)], reps, grid, jobs=jobs
    ),
    "a1_gap": lambda cfg, reps, grid, jobs=1: a1_gap_study(
        cfg, IDENTITY + PSEUDO, reps, grid, jobs
    ),
    "slln": lambda cfg, reps, grid, jobs=1: slln_decay_study(
        cfg, INDEPENDENCE, 0.25, reps, grid, jobs=jobs
    ),
}


class TestReplicationHarness:
    @pytest.mark.parametrize("grid", [[0, 40], [-5, 40], []])
    @pytest.mark.parametrize("study", ["optimality", "a1_gap", "slln", "consistency"])
    def test_grid_below_one_or_empty_is_refused(self, study, grid):
        # n <= 0 would read cum[n - 1], the last cluster, and report the
        # full-n numbers under n = 0; an empty grid has no max()
        with pytest.raises(ConfigError, match="^n_grid: ") as err:
            STUDIES[study](gaussian_exch(n=40), 2, grid)
        assert err.value.field == "n_grid"

    @pytest.mark.parametrize("study", ["optimality", "a1_gap", "slln", "consistency"])
    def test_zero_reps_is_one_config_error(self, study):
        with pytest.raises(ConfigError) as err:
            STUDIES[study](gaussian_exch(n=40), 0, [20, 40])
        assert err.value.field == "reps"
        assert str(err.value) == "reps: reps must be >= 1, got 0"

    @pytest.mark.parametrize("delta", [0.0, math.nan])
    def test_slln_delta_must_be_positive(self, delta):
        with pytest.raises(ConfigError, match="^delta: delta must be positive$"):
            slln_decay_study(gaussian_exch(n=40), INDEPENDENCE, delta, 2, [20, 40])

    @pytest.mark.parametrize("study", ["a1_gap", "slln", "consistency"])
    def test_jobs_do_not_change_rows_or_meta(self, study):
        cfg = gaussian_exch(n=40)
        one = STUDIES[study](cfg, 4, [10, 40], jobs=1)
        two = STUDIES[study](cfg, 4, [10, 40], jobs=2)
        assert repr(one.rows) == repr(two.rows)
        assert one.meta == two.meta
        assert one.meta["reps"] == 4 and one.meta["n_grid"] == [10, 40]

    def test_jobs_do_not_change_rows_across_chunks(self):
        # a replication count that jobs 1 and 2 cut into different chunks,
        # on the Poisson feedback scenario whose chains step in lockstep
        cfg = ScenarioConfig(
            link="log",
            beta0=(0.5, -0.3),
            n=30,
            m_max=3,
            sizes=SizeSchedule(kind="random", lo=1, hi=3),
            regressors=RegressorProcess(kind="feedback", gain=0.3, scale=0.5),
            truth=TruthSpec(kind="exchangeable", rho=0.4),
            response_family="poisson_log",
            seed=11,
        )
        reps = simulation._CHUNK_REPS + 3
        one = STUDIES["consistency"](cfg, reps, [10, 30], jobs=1)
        two = STUDIES["consistency"](cfg, reps, [10, 30], jobs=2)
        assert repr(one.rows) == repr(two.rows)
        assert one.meta == two.meta
        assert one.rows[0]["replications_used"] == reps

    def test_optimality_folds_the_plain_proxy_once_per_spec(self, monkeypatch):
        # the plain information sums and the schedule share one fold; the
        # perturbed sums read the inverses of the schedule's own fold
        folds = []
        stack = estimating.proxy_stack

        def counted(dataset, beta, link):
            folds.append(dataset.n)
            return stack(dataset, beta, link)

        cfg = gaussian_exch(n=30)
        want = STUDIES["optimality"](cfg, 2, [10, 30])
        monkeypatch.setattr(estimating, "proxy_stack", counted)
        got = STUDIES["optimality"](cfg, 2, [10, 30])
        assert repr(got.rows) == repr(want.rows) and got.meta == want.meta
        assert folds == [30] * 2

    @pytest.mark.parametrize("link", ["identity", "log"])
    @pytest.mark.parametrize(
        "spec",
        [
            WorkingCorrelationSpec.pseudo_likelihood(3),
            WorkingCorrelationSpec.exchangeable(0.4, 3),
        ],
        ids=["pseudo", "exchangeable"],
    )
    def test_optimality_replication_reads_the_public_schedule(self, spec, link):
        # a replication's violation count is the length of the schedule's
        # violation list, and its perturbed sums are those of the path that
        # a2_schedule returns, with that path's proxy folded afresh
        cfg, grid, rep = gaussian_exch(n=60, link=link, scale=0.4), (20, 60), 0
        ds = simulate_scenario(cfg)
        got = diagnostics._optimality_sums(cfg, [("s", spec)], grid, True, rep, ds)["s"]
        seed = simulation.replication_seed(cfg.seed, rep) ^ diagnostics._PERTURBATION_TAG
        beta = cfg.beta0_array
        halving = estimating.a2_halving_pass(ds, beta, link, simulation.splitmix64(seed))
        pert, report = estimating.a2_schedule(halving, spec)
        assert got["a2_violations"] == len(report["violations"])
        if spec.depends_on_data:
            assert 0 < got["a2_violations"] < ds.n
        truth = cfg.truth.template(3)
        shifted = ds.shifted(pert.stack)
        want = estimating.information_sums(shifted, beta, link, spec, truth, grid)
        for key in diagnostics._INFORMATION:
            assert got["perturbed"][key].tobytes() == want[key].tobytes()

    @pytest.mark.parametrize("seed", [5, 101, 3001])
    def test_perturbed_study_screens_the_inverse_proxy_gaps(self, monkeypatch, seed):
        # the benchmark's optimality scenario at full size: the schedule's
        # windows decide each gap > 2^-i by norm bounds, so of the 1000
        # window matrices at most one reaches the SVD, an early cluster whose
        # gap lies between its column and Frobenius norms
        received = []
        inside = [0]
        real_norm, real_window = linalg.spectral_norm, estimating._proxy_gap_window

        def norm(m):
            if inside[0]:
                received.append(np.shape(m)[:-2])
            return real_norm(m)

        def window(*args):
            inside[0] += 1
            try:
                return real_window(*args)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(linalg, "spectral_norm", norm)
        monkeypatch.setattr(estimating, "_proxy_gap_window", window)
        spec = WorkingCorrelationSpec.pseudo_likelihood(3)
        cfg = gaussian_exch(seed=seed, n=1000)
        res = optimality_study(cfg, [("pseudo", spec)], 1, [1000], perturbed=True)
        assert res.meta["a2_violations"] > 900
        assert sum(int(np.prod(shape)) for shape in received) <= 1

    def test_consistency_rows_with_every_replication_failed(self):
        # the regressor drift overflows the log link in every replication
        cfg = ScenarioConfig(
            link="log",
            beta0=(0.5,),
            n=10,
            m_max=1,
            regressors=RegressorProcess(kind="iid", loc=4000.0, scale=0.0),
            seed=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = STUDIES["consistency"](cfg, 3, [5, 10])
        assert res.meta["failures"] == 3
        for row in res.rows:
            assert row["replications_used"] == 0
            assert all(
                math.isnan(row[k])
                for k in ("median_err", "q1_err", "q3_err", "converged_fraction")
            )

    def test_quartiles_read_infinities(self):
        inf = math.inf
        cases = [
            # numpy's interpolation gives NaN or drops these
            ([1.0, 0.903, inf, 0.8995, 1.0, inf], [0.92725, 1.0, inf]),
            ([1.0, inf, inf, inf], [inf, inf, inf]),
            ([inf, inf], [inf, inf, inf]),
            ([1.0, 1.0, 1.0, inf, inf], [1.0, 1.0, inf]),
            ([-inf, 2.0, 3.0], [-inf, 2.0, 2.5]),
            ([-inf, 0.0, inf], [-inf, 0.0, inf]),
            ([-inf, inf], [math.nan] * 3),
            ([math.nan, inf, 1.0, 2.0], [1.5, 2.0, inf]),
            ([math.nan, math.nan], [math.nan] * 3),
            # finite, but numpy's interpolation overflows to NaN
            ([-1e308, -1e308, 1e308, 1e308, 1e308], [-1e308, 1e308, 1e308]),
        ]
        for values, expect in cases:
            np.testing.assert_allclose(_quartiles(values), expect, rtol=1e-15)

    def test_quartiles_of_finite_values_are_numpy_percentiles(self):
        rng = np.random.default_rng(3)
        for n in range(1, 12):
            a = rng.standard_normal((n, 3))
            expect = np.stack(
                [np.percentile(a[:, j], [25.0, 50.0, 75.0]) for j in range(3)], axis=1
            )
            assert np.array_equal(_quartiles(a), expect)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, max_side=9),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_quartiles_of_finite_values_keep_numpy_bits(self, a):
        # numpy reads NaN on an entry whose neighbour differs from it by
        # more than the float maximum; everywhere else the bits are
        # numpy's. A row of NaN sends every column down the NaN-aware path.
        a = a.reshape(len(a), -1)
        with np.errstate(all="ignore"):
            expect = np.percentile(a, (25.0, 50.0, 75.0), axis=0)
        fixed = np.isnan(expect)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (a, np.vstack([a, np.full(a.shape[1], np.nan)])):
                got = _quartiles(b)
                assert np.isfinite(got[fixed]).all()
                assert got[~fixed].tobytes() == expect[~fixed].tobytes()
