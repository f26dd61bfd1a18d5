import re
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.special import pdtr
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import LinkDomainExit, loop_simulate_scenario
from stochgee import (
    ConfigError,
    Dataset,
    EstimatingFunction,
    InvalidVarianceError,
    MisspecificationWarning,
    RegressorProcess,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    effective_truth,
    replication_seed,
    resolve_estimator,
    run_replications,
    simulate_replications,
    simulate_scenario,
    solve_gee,
    splitmix64,
    substream,
)
from stochgee import simulation
from stochgee.simulation import _cluster_keys, _poisson_quantile, _response


def base_config(**kw):
    defaults = dict(
        link="identity",
        beta0=(0.5, -0.3),
        n=50,
        m_max=3,
        sizes=SizeSchedule(kind="constant", m=3),
        regressors=RegressorProcess(kind="iid", scale=1.0),
        truth=TruthSpec(kind="exchangeable", rho=0.4),
        response_family="gaussian_link_moments",
        seed=314,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestDeterminism:
    def test_same_seed_bitwise(self):
        cfg = base_config()
        assert simulate_scenario(cfg).digest() == simulate_scenario(cfg).digest()

    def test_different_seeds_differ(self):
        assert (
            simulate_scenario(base_config(seed=1)).digest()
            != simulate_scenario(base_config(seed=2)).digest()
        )

    def test_nested_prefixes(self):
        cfg = base_config(n=30)
        small = simulate_scenario(cfg)
        big = simulate_scenario(cfg.with_n(120))
        assert big.prefix(30).digest() == small.digest()

    def test_replications_are_isolated(self):
        cfg = base_config()
        d0 = simulate_scenario(cfg, 0)
        d1 = simulate_scenario(cfg, 1)
        assert d0.digest() != d1.digest()
        # replication 0 reuses the plain scenario stream
        assert d0.digest() == simulate_scenario(cfg).digest()
        assert replication_seed(cfg.seed, 0) == cfg.seed
        assert replication_seed(cfg.seed, 3) == cfg.seed ^ splitmix64(3)

    def test_substream_independence(self):
        a = substream(1, 1).standard_normal(4)
        b = substream(1, 2).standard_normal(4)
        assert not np.allclose(a, b)


class TestPredictability:
    @pytest.mark.parametrize(
        "proc",
        [
            RegressorProcess(kind="iid", scale=1.0),
            RegressorProcess(kind="exogenous_ar1", phi=0.6, scale=0.5),
            RegressorProcess(kind="feedback", gain=0.4, scale=0.5),
        ],
    )
    def test_replay_from_history(self, proc):
        cfg = base_config(regressors=proc, n=25)
        ds = simulate_scenario(cfg)
        for i in (1, 2, 10, 25):
            # the per-cluster replay of clusters 1..i, whose last rows are X_i
            sizes, x, _ = loop_simulate_scenario(cfg.with_n(i))
            replayed = x[-sizes[-1] :]
            np.testing.assert_array_equal(replayed, ds.clusters[i - 1].regressors)

    def test_feedback_actually_uses_history(self):
        cfg = base_config(
            regressors=RegressorProcess(kind="feedback", gain=1.0, scale=0.1), n=5
        )
        ds = simulate_scenario(cfg)
        # second cluster's rows center on gain * mean(y_1)
        target = np.mean(ds.clusters[0].response)
        got = np.mean(ds.clusters[1].regressors)
        assert abs(got - target) < 0.2


class TestSizeSchedules:
    def test_cyclic(self):
        cfg = base_config(
            sizes=SizeSchedule(kind="cyclic", sizes=(2, 3)), m_max=3, n=6
        )
        assert [c.size for c in simulate_scenario(cfg).clusters] == [2, 3, 2, 3, 2, 3]

    def test_random_within_range(self):
        cfg = base_config(
            sizes=SizeSchedule(kind="random", lo=1, hi=3), m_max=3, n=40
        )
        sizes = [c.size for c in simulate_scenario(cfg).clusters]
        assert set(sizes) <= {1, 2, 3}
        assert len(set(sizes)) > 1

    def test_m_max_must_cover_schedule(self):
        with pytest.raises(ConfigError) as err:
            base_config(sizes=SizeSchedule(kind="constant", m=4), m_max=3)
        assert err.value.field == "m_max"


class TestConfigValidation:
    def test_bad_values_name_the_field(self):
        with pytest.raises(ConfigError) as err:
            base_config(n=0)
        assert err.value.field == "n"
        with pytest.raises(ConfigError) as err:
            base_config(link="cloglog")
        assert err.value.field == "link"
        with pytest.raises(ConfigError) as err:
            base_config(
                regressors=RegressorProcess(kind="exogenous_ar1", phi=1.0)
            )
        assert err.value.field == "regressors.phi"
        with pytest.raises(ConfigError) as err:
            base_config(response_family="poisson_log")  # identity link
        assert err.value.field == "link"
        with pytest.raises(ConfigError) as err:
            simulate_scenario(
                base_config(truth=TruthSpec(kind="exchangeable", rho=2.0))
            )
        assert err.value.field == "truth.rho"


class TestMomentFidelity:
    def _conditional_draws(self, cfg, n_draws=20000):
        ds = simulate_scenario(cfg.with_n(3))
        cluster = ds.clusters[2]
        from stochgee.model import get_link

        link = get_link(cfg.link)
        eta = cluster.regressors @ cfg.beta0_array
        mean = np.atleast_1d(link.eval(0, eta))
        var = np.atleast_1d(link.eval(1, eta))
        chol = np.linalg.cholesky(cfg.truth.template(cfg.m_max).rbar(cluster.size))
        rng = substream(cfg.seed, 999, lane=3)
        draws = np.empty((n_draws, cluster.size))
        for k in range(n_draws):
            eps = chol @ rng.standard_normal(cluster.size)
            draws[k] = _response(cfg.response_family, mean, var, eps)
        return mean, var, draws

    def test_gaussian_family_matches_link_moments(self):
        cfg = base_config(link="log", regressors=RegressorProcess(kind="iid", scale=0.3))
        mean, var, draws = self._conditional_draws(cfg)
        n = draws.shape[0]
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)
        sample_var = draws.var(axis=0, ddof=1)
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(sample_var - var) < 4 * se_var)

    def test_gaussian_residual_correlation_matches_truth(self):
        cfg = base_config()
        mean, var, draws = self._conditional_draws(cfg)
        std = (draws - mean) / np.sqrt(var)
        emp = np.corrcoef(std.T)
        n = draws.shape[0]
        se = 4 * (1 - 0.4**2) / np.sqrt(n)
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(emp[off] - 0.4) < se)

    def test_poisson_family_marginal_moments(self):
        cfg = base_config(
            link="log",
            beta0=(0.5, -0.3),
            regressors=RegressorProcess(kind="iid", scale=0.3),
            response_family="poisson_log",
        )
        mean, var, draws = self._conditional_draws(cfg)
        n = draws.shape[0]
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * np.sqrt(var / n))
        # Poisson: variance equals the mean; allow for the kurtosis in SE
        sample_var = draws.var(axis=0, ddof=1)
        se_var = np.sqrt((var * (1 + 3 * var) - var**2 * (n - 3) / (n - 1)) / n + 1e-12)
        assert np.all(np.abs(sample_var - var) < 5 * np.maximum(se_var, var * 0.05))

    def test_bernoulli_family_warns_misspecification(self):
        cfg = base_config(
            link="probit",
            regressors=RegressorProcess(kind="iid", scale=0.3),
            response_family="bernoulli_probit_flagged",
        )
        with pytest.warns(MisspecificationWarning):
            ds = simulate_scenario(cfg)
        assert set(np.unique(np.concatenate([c.response for c in ds.clusters]))) <= {
            0.0,
            1.0,
        }


class TestEffectiveTruth:
    def test_gaussian_truth_is_exact_template(self):
        cfg = base_config()
        t = effective_truth(cfg)
        assert not t.is_estimate
        np.testing.assert_allclose(t.template[0, 1], 0.4, atol=1e-12)

    def test_poisson_truth_is_estimated_and_attenuated(self):
        cfg = base_config(
            link="log",
            regressors=RegressorProcess(kind="iid", scale=0.3),
            response_family="poisson_log",
        )
        t = effective_truth(cfg, n_samples=40000)
        assert t.is_estimate
        off = t.template[0, 1]
        # the count copula attenuates the normal-scale correlation
        assert 0.05 < off < 0.4
        lo = np.min(np.linalg.eigvalsh(t.template))
        assert lo > 0


class TestRunReplications:
    def test_single_replication_equals_plain_run(self):
        cfg = base_config(n=30)
        est = [("independence", EstimatingFunction.independence())]
        results = run_replications(cfg, 1, est, [30])
        ds = simulate_scenario(cfg)
        fit = solve_gee(ds, est[0][1], cfg.link)
        got = results[0].fits["independence"]["30"]
        np.testing.assert_allclose(got["beta_hat"], fit.beta_hat, rtol=0, atol=0)
        assert results[0].digest == ds.digest()

    def test_jobs_do_not_change_results(self):
        cfg = base_config(n=25)
        est = [("independence", EstimatingFunction.independence())]
        seq = run_replications(cfg, 4, est, [10, 25], jobs=1)
        par = run_replications(cfg, 4, est, [10, 25], jobs=2)
        assert [r.fits for r in seq] == [r.fits for r in par]
        assert [r.digest for r in seq] == [r.digest for r in par]

    def test_first_converged_n_surrogate(self):
        cfg = base_config(n=25)
        est = [("independence", EstimatingFunction.independence())]
        results = run_replications(cfg, 2, est, [10, 25])
        for r in results:
            assert r.first_converged_n["independence"] == 10

    def test_grid_validation(self):
        cfg = base_config()
        est = [("independence", EstimatingFunction.independence())]
        with pytest.raises(ConfigError):
            run_replications(cfg, 1, est, [50, 10])
        with pytest.raises(ConfigError):
            run_replications(cfg, 0, est, [10])

    def test_fractional_checkpoint_is_refused(self):
        # int() would fit the 2-cluster prefix and report it under 2.7;
        # whole numbers of any type are taken
        cfg = base_config(n=10)
        est = [("independence", EstimatingFunction.independence())]
        msg = "n_grid: n_grid must be a nonempty nondecreasing list of sizes >= 1, got [2.7, 10]"
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$") as err:
            run_replications(cfg, 1, est, [2.7, 10])
        assert err.value.field == "n_grid"
        whole = run_replications(cfg, 1, est, [np.int64(5), 10.0])
        assert whole[0].fits == run_replications(cfg, 1, est, [5, 10])[0].fits

    def test_failures_recorded_not_fatal(self):
        # the regressor drift overflows the log link: generation fails in
        # every replication, and the harness records the error per
        # replication instead of aborting
        cfg = base_config(
            link="log",
            regressors=RegressorProcess(kind="iid", loc=4000.0, scale=0.0),
            n=10,
        )
        est = [("independence", EstimatingFunction.independence())]
        results = run_replications(cfg, 2, est, [10])
        assert all(r.error is not None for r in results)
        assert all("link domain" in r.error for r in results)


# ---------------------------------------------------------------------------
# the generated bytes, pinned across commits

#: every valid response family with its link
FAMILY_LINKS = (
    ("gaussian_link_moments", "identity"),
    ("gaussian_link_moments", "log"),
    ("gaussian_link_moments", "probit"),
    ("poisson_log", "log"),
    ("bernoulli_probit_flagged", "probit"),
)
PROCESSES = {
    "iid": RegressorProcess(kind="iid", loc=0.1, scale=0.6),
    "exogenous_ar1": RegressorProcess(kind="exogenous_ar1", loc=0.1, phi=0.6, scale=0.5),
    "feedback": RegressorProcess(kind="feedback", loc=0.1, gain=0.4, scale=0.5),
}
SCHEDULES = {
    "constant": SizeSchedule(kind="constant", m=3),
    "cyclic": SizeSchedule(kind="cyclic", sizes=(1, 3, 2)),
    "random": SizeSchedule(kind="random", lo=1, hi=4),
}


def golden_config(family, link, kind, schedule):
    return ScenarioConfig(
        link=link,
        beta0=(0.3, -0.2),
        n=40,
        m_max=4,
        sizes=SCHEDULES[schedule],
        regressors=PROCESSES[kind],
        truth=TruthSpec(kind="exchangeable", rho=0.4),
        response_family=family,
        seed=2718,
    )


def simulate_quietly(config, replication=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MisspecificationWarning)
        return simulate_scenario(config, replication)


#: Dataset.digest() of every golden scenario at replications 0 and 3, as
#: the per-cluster generator produced them
GOLDEN_DIGESTS = {
    ("gaussian_link_moments", "identity", "iid", "constant"): (
        "47e29fab120804884ff58b51b1933915cd4228a7db54bd91d959831d0bd487c2",
        "b8966a3d95f27158440a964b32812068db1e6c57ae8cb59c7be3c4751a89a8ec",
    ),
    ("gaussian_link_moments", "identity", "iid", "cyclic"): (
        "a702ccf316eda306620b028f9347242e88dfc0535cd274289ac37436d11498ce",
        "71f35477191fc6605cfa98f31a2baca5b3f8244e05e2238d2136dd55471bf339",
    ),
    ("gaussian_link_moments", "identity", "iid", "random"): (
        "67657e5dc18ff8484cb463ba350b1c530b2dfb5e46a10339434b3efdbff42a1a",
        "fea3b8d3d389180c49a068ddf1235adc43a096b22b4a9a25dd2ff09c67347df7",
    ),
    ("gaussian_link_moments", "identity", "exogenous_ar1", "constant"): (
        "b343421967a42c4ca784a4de87d2366a89de16b27bfc5750a90570b0da567b39",
        "e3f79db4ce6c4bcd4ed65fb4e09e3b2c2d6176ca12c123a119e60260aa4d6616",
    ),
    ("gaussian_link_moments", "identity", "exogenous_ar1", "cyclic"): (
        "3f70dfc39506169774f3d2b52ffc1ef77f8b38cc3fd22796785ea4e84950ae79",
        "e63426c62320efafcdbfd46cad076c96b73ab6ccc5dc340fb165d5a51f6c3668",
    ),
    ("gaussian_link_moments", "identity", "exogenous_ar1", "random"): (
        "62d120d8d1f6867ca76b5d254907fa24c6c50bf74f9872cdc789216ea8f81826",
        "98f10f739eca25c9c293d79931f2615d8c2ac6dc55b5023dafcfff67cc0f2459",
    ),
    ("gaussian_link_moments", "identity", "feedback", "constant"): (
        "8c6701bc0313cec8727243c3c5cce32417269e59c59f7a203db0b5228762189b",
        "40ce83487bfdef727723551d8941ba2a0e59fa4cab666f40f45f60a828b9a2c6",
    ),
    ("gaussian_link_moments", "identity", "feedback", "cyclic"): (
        "fc3b7a303d725ef6db76133c70564fcbe6e382fb162884215ced5d6ec8b67c7e",
        "389c88e4430372304ff2f09f465c09f149e4abfa2c34e09ca3e55d311b91bf84",
    ),
    ("gaussian_link_moments", "identity", "feedback", "random"): (
        "087b2b16f218f1d76ed32761ceb4c94913c1d2a1a7a91266a636cc524cf2ef18",
        "e1b777a3dbade13e1a472317b13f1add0004e323bd8b4c416c2a1eca5cefef30",
    ),
    ("gaussian_link_moments", "log", "iid", "constant"): (
        "96fcec029995d29aa20109004ae51aa8fc2bd69e3a82b8e9003c71ea59000e04",
        "cb3861433d0e3670c0af0fb9a31fbf5c8ba1c1e682de13ae852000e644db7732",
    ),
    ("gaussian_link_moments", "log", "iid", "cyclic"): (
        "edc718f7e909fcf0cffa971ac6a6d6a608e10f858f064052bd14a3f9712e28b2",
        "78cfbdac5922dcd6fe46699fc4477707d4c8951a324b648836ac33bcaff7b25a",
    ),
    ("gaussian_link_moments", "log", "iid", "random"): (
        "a6fc28b41852e747a9ddbd4b5a78ad7de2175ae78de7d84d7b7a40418fdf4b02",
        "944a93ee72f5ca2b35adc333078167f93f8850f621d2fc0116fa2844830ebd49",
    ),
    ("gaussian_link_moments", "log", "exogenous_ar1", "constant"): (
        "0bfdf2f8c4e4a88349a710e8064236dbacf3ab59500e5466dc09ef85b6ca3e93",
        "52243520b50968a40edd3997216958d7c57be8337b3a7277482323dd5f43e212",
    ),
    ("gaussian_link_moments", "log", "exogenous_ar1", "cyclic"): (
        "f8740f030dfe830870e95901167c8cc24b9061fc8bababd3671b986ec94eacf1",
        "e42fbc0c1a3765e40decda1c26eb9d097835fb6c7ed6a2c7b4b0e73c602cf144",
    ),
    ("gaussian_link_moments", "log", "exogenous_ar1", "random"): (
        "0560be4464e907a3e1f1225bce5a87abfc14bc97c787326a2b49434d2b802f04",
        "880b0e0746bf24ad63e81921eb228232007e342f58c0e0c2484329a89842dffe",
    ),
    ("gaussian_link_moments", "log", "feedback", "constant"): (
        "d9938b90ccabffdbe062198220552ff53366b0551832a56b07273cb4424ec7ae",
        "558fef102458101a4dfa9f0fd1b19bef6da5d2173789f588a305e7e84f5ff69a",
    ),
    ("gaussian_link_moments", "log", "feedback", "cyclic"): (
        "a51ee97d57f0ee0ebf1bfc5828c38d5badf09f388096aa6839b01ee35fa5373e",
        "bbf76bc953c534b3895d7577a67bcab94e982f1e4208d29425f76d11aef966e2",
    ),
    ("gaussian_link_moments", "log", "feedback", "random"): (
        "788a962288c5bcc9637167aa4a54a53beb8809f0eb5c73d860de4121ec972e18",
        "82036f649520e076d93f85dabf9f57ab585edd1dec83d7e1fca282e0123c589e",
    ),
    ("gaussian_link_moments", "probit", "iid", "constant"): (
        "415a931dcf972220dc04456e6341938cd8e4ad994a51c271eac5a7eb8be02929",
        "a2934075a9f81f2eaf5e9a4350d8d1382023c40fb8a747abe50585f575b5eb8f",
    ),
    ("gaussian_link_moments", "probit", "iid", "cyclic"): (
        "efeface394cf8969d8b696d91fd881fbc267b3fc8a8edd4bbc801a8155e5e4b7",
        "07297fb716ae6dff2a707709222995a341e54cceb89156e1881f6afaa9b2f32f",
    ),
    ("gaussian_link_moments", "probit", "iid", "random"): (
        "6097354992c1a641c53c02bc623f7794d393248c3df51e64bcc7f7efa60398d9",
        "936dd7fd187d3e59ae869d76acf3755879bb39fc9fafb7e89c181cdc55960c1f",
    ),
    ("gaussian_link_moments", "probit", "exogenous_ar1", "constant"): (
        "43d532289583f6173c4c7f375131750b474db88b0c3e618078a6a7897cf297b6",
        "9c7bdccbbc028d6dd32441db1d8f3fb9d6bd4ebbbbad0baa42f6f13ea921815d",
    ),
    ("gaussian_link_moments", "probit", "exogenous_ar1", "cyclic"): (
        "3fc14efe90c258e94e7b91f680dd6eeabb268a256abb777d54b6f5097ad820ee",
        "116079125dc0412d4e8d925ce2b5fa6e99d37a69fc7e05db3ec7725c3853a841",
    ),
    ("gaussian_link_moments", "probit", "exogenous_ar1", "random"): (
        "65cfc54c82ba9aa5469d5270a94322b7b5ea88cabd52f11c1be9a8addbca11a4",
        "019470a54c79acec74c0d5c6d35ea0a2cc81f3ef5a12116403f83d314a0e4bd1",
    ),
    ("gaussian_link_moments", "probit", "feedback", "constant"): (
        "009af523d38cb9f403be376f57595f23d63b8f24fd6d2920d5b7b42ab53625e2",
        "86383d2321e91a0243731f99b19c12d75ae3ea3bca068a4386e84cd75c82270f",
    ),
    ("gaussian_link_moments", "probit", "feedback", "cyclic"): (
        "f70a12197e4e5971ecbdc9ec1fc4e71d799f504ad63b56c604421dbd1fae160f",
        "cd4308eb90cf53bf7d5ee740b6f2d9e965c063b43f325f5bc8a52640976d9f73",
    ),
    ("gaussian_link_moments", "probit", "feedback", "random"): (
        "c5da50b32739c70e55d184e510eeb6160a019bde2e5825b3d730cfb2f20d09be",
        "c5755d8de5c69a603c430614530c233473c4dac65e123984eefd7b283a84868e",
    ),
    ("poisson_log", "log", "iid", "constant"): (
        "a147ae334d140696908c1358e61943c8d9f0748b7ae9dad7679cdac956b0d738",
        "15eb890849c18b07be2a03617b2775dc2dfdc955d0594dd029f2e4c581af54a6",
    ),
    ("poisson_log", "log", "iid", "cyclic"): (
        "fd0fd32ba591f7be4c200226e6db470d3e029c7e0d15f57e91bb5d75eb2a4c49",
        "d6c4a7ff07f37832c1b78a706807016e661537fa3907033cd16d0903b74aba23",
    ),
    ("poisson_log", "log", "iid", "random"): (
        "0c915d855699f2a8af9040fc9c2f51245016db027d3d1e8da9afa73b69e20d8b",
        "abc76509beadd4b51e285fbb1a2b0ad4d8cbd470cb58c18ecca87851c9d7fcf6",
    ),
    ("poisson_log", "log", "exogenous_ar1", "constant"): (
        "3bb84f38c07b1644acadef6a615485de27848985b15139589a0f6459e6a2c5c0",
        "039d1449718765436451f49cddb41567e59a99f87cc8b678218409606504e2fc",
    ),
    ("poisson_log", "log", "exogenous_ar1", "cyclic"): (
        "796b6a7a723e6b2affea90c27ebb4ca548746f22b6d0f32fd50245e62c799b7c",
        "151413843e162c70e76ab65f66ce7ec90410933cfe78a1075ffa02c471840454",
    ),
    ("poisson_log", "log", "exogenous_ar1", "random"): (
        "01492e62583d4520f6fc8e4063e8ac9f74b9eb17598b0310207348cd348331c3",
        "5886217bccd9f7f425f043542c195ba00f264bf682cd9d129172d28f5a9ecf41",
    ),
    ("poisson_log", "log", "feedback", "constant"): (
        "f4d80a4c5b6ded6c373d530fdd5b439ad39172f9e8cde2648960407f8fe1dff7",
        "0012bedcb7df485116ff29ff2854dc5f3a045fa473f603d0430c53f19e9e4ab3",
    ),
    ("poisson_log", "log", "feedback", "cyclic"): (
        "ea873a936ad0a3b43a49691486b18d3c6a3dbd461b48e4dcca790e3266f9d6bb",
        "fe35019759a441c1a927229d5e40162f1fb288c2e2050112859ac830dc3076a9",
    ),
    ("poisson_log", "log", "feedback", "random"): (
        "e56d0b89de7a05ddd0d08dd6a6369d4b66b76dc5349ba6c2df9c9d5ff84931d2",
        "b4682a120891c52a7e8dbef4da444406b3e52bf21d3cb02279d17c19f0da44e4",
    ),
    ("bernoulli_probit_flagged", "probit", "iid", "constant"): (
        "ce1d644adb608de5986fcecd324a370a3f6610e21e558ae6ec3ed118450ba5db",
        "99466823db16bbd7e5e3fb36208274588f9f9450525b86c6703eafabda54e76c",
    ),
    ("bernoulli_probit_flagged", "probit", "iid", "cyclic"): (
        "9b8629fd8c1448d8781d166d24f664fbc6a6007a59d86bd32e8c7593aa5f80fc",
        "a2b7580da3ba160ddf4349e09f8a1a8ef1aeac3f97a9749bd517d5685ef5f104",
    ),
    ("bernoulli_probit_flagged", "probit", "iid", "random"): (
        "aa1a988414712cf35c000cbc0a809dc901595dd2a7194b037fb07be59857f2eb",
        "e58963cf90ea49b62bfc10519efabb64adbcc60543a89cadbd17e085771f5e80",
    ),
    ("bernoulli_probit_flagged", "probit", "exogenous_ar1", "constant"): (
        "a8c53e14e556ea444293268fb32880999f0dbb3fb798ed64a3172ae6c271d344",
        "96ea6dba05dda39f1fcaa7b33c2fb7e5e974f2304a342a6bd9ca5edfb90a6d6d",
    ),
    ("bernoulli_probit_flagged", "probit", "exogenous_ar1", "cyclic"): (
        "12ff864d0a9af28bb928737b47a056cdb8cfbe80ae3c0bdbd3d1e788c2e2b5d4",
        "111d082c79939a67e09dc6f4facda46abeae96116d27b4787da8e5e9731b6546",
    ),
    ("bernoulli_probit_flagged", "probit", "exogenous_ar1", "random"): (
        "a5e675247e02af6b34ff8aca0fb3d58c15833855c06ec7c6e5d4697760b2db99",
        "d475d6d0fc8c833bfc508e9bdd064cd8173f016650d27f1fe8bb28fa8ed132a1",
    ),
    ("bernoulli_probit_flagged", "probit", "feedback", "constant"): (
        "331ab2843a8c469814d36e7973fa97f0b14772ab872f0c742bd3fbc14b95d093",
        "fb5ea0b6b81290a30ba027de54963d53f701584e1f2d436c54f807cd05b9f909",
    ),
    ("bernoulli_probit_flagged", "probit", "feedback", "cyclic"): (
        "2c8efeedc1a78e05285a977cd4713ffa31641883fc941c49da03f136597a84b5",
        "b3e748e047bfbf9fac2f7544b0b4120185115de2b18998efbe6b6c1d794779d1",
    ),
    ("bernoulli_probit_flagged", "probit", "feedback", "random"): (
        "0e733fdb1f15104d8a5da6edd5a43b9cc83d5b0552687d5e889466ae7ec6bf63",
        "ad2d8f4347a197c227711af769fad2f2bf219201f2706b963bace7cc76864fb2",
    ),
}


class TestGoldenDigests:
    def test_every_scenario_is_pinned(self):
        assert set(GOLDEN_DIGESTS) == {
            (family, link, kind, schedule)
            for family, link in FAMILY_LINKS
            for kind in PROCESSES
            for schedule in SCHEDULES
        }

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS), ids="-".join)
    def test_digest(self, scenario):
        cfg = golden_config(*scenario)
        got = tuple(simulate_quietly(cfg, rep).digest() for rep in (0, 3))
        assert got == GOLDEN_DIGESTS[scenario]


def simulate_chunk_quietly(config, replications):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MisspecificationWarning)
        return simulate_replications(config, replications)


def assert_same_outcome(got, config, replication):
    """``got`` is what ``simulate_scenario(config, replication)`` gives:
    the same bytes, or a ConfigError with the same text and field."""
    try:
        want = simulate_quietly(config, replication)
    except ConfigError as exc:
        assert isinstance(got, ConfigError)
        assert (str(got), got.field) == (str(exc), exc.field)
        return
    assert isinstance(got, Dataset)
    for name in ("x", "y", "sizes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.digest() == want.digest()


class TestChunks:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS), ids="-".join)
    def test_chunk_equals_solo(self, scenario):
        cfg = golden_config(*scenario)
        chunk = simulate_chunk_quietly(cfg, (0, 1, 3))
        assert len(chunk) == 3
        for got, replication in zip(chunk, (0, 1, 3)):
            assert_same_outcome(got, cfg, replication)
        assert (chunk[0].digest(), chunk[2].digest()) == GOLDEN_DIGESTS[scenario]

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("family, link", FAMILY_LINKS)
    def test_chain_blocks_keep_the_bits(self, monkeypatch, family, link, schedule):
        # blocks of 7 steps cut the 40-cluster golden paths at 5 places
        monkeypatch.setattr(simulation, "_CHAIN_STEPS", 7)
        scenario = (family, link, "feedback", schedule)
        chunk = simulate_chunk_quietly(golden_config(*scenario), (0, 1, 3))
        assert (chunk[0].digest(), chunk[2].digest()) == GOLDEN_DIGESTS[scenario]
        assert simulate_quietly(golden_config(*scenario), 1).digest() == chunk[1].digest()

    @pytest.mark.parametrize(
        "sizes",
        [SizeSchedule(kind="constant", m=9), SizeSchedule(kind="random", lo=6, hi=12)],
        ids=["constant9", "random6-12"],
    )
    @pytest.mark.parametrize("family, link", FAMILY_LINKS)
    def test_chunk_equals_solo_past_eight_rows(self, family, link, sizes):
        # np.add.reduce sums 8 or more elements in unrolled blocks, so the
        # running means of runs of such clusters must keep each one's sum
        cfg = ScenarioConfig(
            link=link,
            beta0=(0.3, -0.2),
            n=40,
            m_max=sizes.max_size,
            sizes=sizes,
            regressors=PROCESSES["feedback"],
            truth=TruthSpec(kind="exchangeable", rho=0.4),
            response_family=family,
            seed=2718,
        )
        chunk = simulate_chunk_quietly(cfg, (0, 1, 3))
        for got, replication in zip(chunk, (0, 1, 3)):
            assert isinstance(got, Dataset)
            assert_same_outcome(got, cfg, replication)
        # some step holds at least two clusters of one size of 8 or more
        steps = np.array([ds.sizes for ds in chunk]).T
        assert any(np.bincount(step)[8:].max(initial=0) >= 2 for step in steps)

    def test_drifting_replication_fails_alone(self):
        # at n = 4 the drift of TestLinkDomainFailure.FEEDBACK leaves the
        # link domain in cluster 3 or 4 of some replications and stays in
        # it in others, with sizes 1 to 3 mixed within a step
        cfg = TestLinkDomainFailure.FEEDBACK.with_n(4)
        reps = range(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chunk = simulate_replications(cfg, reps)
            outcomes = set()
            for got, replication in zip(chunk, reps):
                assert_same_outcome(got, cfg, replication)
                outcomes.add(str(got)[:21] if isinstance(got, ConfigError) else "ok")
        assert outcomes == {"regressors: cluster 3", "regressors: cluster 4", "ok"}

    def test_one_chain_pass_per_chunk(self, monkeypatch):
        passes = []
        chain = simulation._feedback_recursion

        def counted(config, *args):
            passes.append(config.n)
            return chain(config, *args)

        monkeypatch.setattr(simulation, "_feedback_recursion", counted)
        cfg = golden_config("poisson_log", "log", "feedback", "random").with_n(12)
        est = [("independence", EstimatingFunction.independence())]
        reps = 2 * simulation._CHUNK_REPS + 1
        results = run_replications(cfg, reps, est, [6, 12], jobs=1)
        assert [r.replication for r in results] == list(range(reps))
        assert passes == [12, 12, 12]

    def test_pool_is_capped_at_the_chunks(self, monkeypatch):
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
        cfg = base_config(n=10)
        est = [("independence", EstimatingFunction.independence())]
        # a single chunk runs in this process; fewer replications than jobs
        # take one process each; otherwise every process gets a chunk
        for reps, pool in ((1, []), (2, [2]), (17, [6]), (32, [8]), (200, [8])):
            pools.clear()
            results = run_replications(cfg, reps, est, [10], jobs=8)
            assert [r.replication for r in results] == list(range(reps))
            assert pools == pool

    def test_a_failing_fit_fails_only_its_replication(self, monkeypatch):
        # replication 1 gets a cluster 5 whose eta overflows at any start
        # near beta0; the chunk's lanes are fitted in lockstep, yet only
        # that replication fails, with the error of its first failing solo
        # fit in (estimator, n) order
        cfg = base_config(link="log", n=20, regressors=RegressorProcess(kind="iid", scale=0.4))
        names = ("independence", "exchangeable:0.4", "pseudo")
        est = [(name, resolve_estimator(name, 3)) for name in names]
        grid = [4, 10, 20]
        clean = run_replications(cfg, 3, est, grid)
        real = simulation.simulate_replications
        broken = []

        def simulate(config, replications):
            out = list(real(config, replications))
            ds = out[1]
            x, y = ds.x.copy(), ds.y.copy()
            rows = slice(int(ds.offsets[4]), int(ds.offsets[5]))
            x[rows], y[rows] = (1e5, 0.0), 0.0
            out[1] = Dataset.of_rows(x, y, ds.sizes.copy(), ds.p, ds.m_max)
            broken.append(out[1])
            return out

        monkeypatch.setattr(simulation, "simulate_replications", simulate)
        got = run_replications(cfg, 3, est, grid)
        assert [r.replication for r in got] == [0, 1, 2]
        with pytest.raises(InvalidVarianceError) as info:
            solve_gee(broken[0].prefix(10), est[0][1], cfg.link)
        assert str(info.value).startswith("cluster 5: non-finite moments")
        assert got[1].error == f"InvalidVarianceError: {info.value}"
        assert got[1].fits == {}
        assert got[0] == clean[0] and got[2] == clean[2]

    def test_lane_stacks_fit_the_row_budget(self, monkeypatch):
        # the lanes (12 and 30 rows per replication) are packed in order into
        # stacks of at most 60 rows, a replication split between two; the
        # results do not depend on how the lanes are stacked
        est = [(name, resolve_estimator(name, 3)) for name in ("independence", "pseudo")]
        whole = run_replications(base_config(n=10), 3, est, [4, 10])
        stacks = []
        real = simulation.solve_lanes

        def recorded(lanes, kinds, link):
            stacks.append([ds.x.shape[0] for ds in lanes.members])
            return real(lanes, kinds, link)

        monkeypatch.setattr(simulation, "solve_lanes", recorded)
        monkeypatch.setattr(simulation, "_CHUNK_ROWS", 60)
        assert run_replications(base_config(n=10), 3, est, [4, 10]) == whole
        assert stacks == [[12, 30, 12], [30], [12, 30]]

    def test_chunks_fit_the_row_budget(self, monkeypatch):
        # a replication of more rows than the budget is a chunk of its own
        sizes = []
        worker = simulation._replicate_fits

        def recorded(config, estimators, n_grid, chunk):
            sizes.append(len(chunk))
            return worker(config, estimators, n_grid, chunk)

        monkeypatch.setattr(simulation, "_replicate_fits", recorded)
        monkeypatch.setattr(simulation, "_CHUNK_ROWS", 60)
        est = [("independence", EstimatingFunction.independence())]
        run_replications(base_config(n=10), 5, est, [10])
        assert sizes == [2, 2, 1]
        sizes.clear()
        run_replications(base_config(n=30), 3, est, [30])
        assert sizes == [1, 1, 1]


class TestPackedOutput:
    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    def test_pack_equals_packing_the_clusters(self, kind):
        ds = simulate_scenario(golden_config("poisson_log", "log", kind, "random"))
        ref = Dataset(ds.clusters, ds.p, ds.m_max)
        for name in ("x", "y", "offsets"):
            got, want = getattr(ds, name), getattr(ref, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert [b.size for b in ds.buckets] == [b.size for b in ref.buckets]
        for got, want in zip(ds.buckets, ref.buckets):
            for name in ("positions", "x", "y"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_clusters_are_read_only_views(self):
        cfg = golden_config("gaussian_link_moments", "identity", "iid", "cyclic")
        ds = simulate_scenario(cfg)
        c = ds.clusters[4]
        assert np.shares_memory(c.regressors, ds.x)
        assert np.shares_memory(c.response, ds.y)
        assert not (c.regressors.flags.writeable or c.response.flags.writeable)
        assert not (ds.x.flags.writeable or ds.y.flags.writeable)


# ---------------------------------------------------------------------------
# the two-phase generator against the per-cluster loop


@settings(max_examples=60, deadline=None)
@given(
    rep_seed=st.one_of(
        st.integers(0, 2**64 - 1), st.integers(2**64 - 2**62, 2**64 - 1)
    ),
    n=st.integers(1, 20),
)
def test_cluster_keys_match_substream(rep_seed, n):
    want = [
        substream(rep_seed, i).bit_generator.state["state"]["key"].tolist()
        for i in range(1, n + 1)
    ]
    assert _cluster_keys(rep_seed, n) == want


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    replication=st.integers(0, 6),
    n=st.integers(1, 40),
    family_link=st.sampled_from(FAMILY_LINKS),
    kind=st.sampled_from(sorted(PROCESSES)),
    sizes=st.sampled_from(
        [
            SizeSchedule(kind="constant", m=1),
            SizeSchedule(kind="constant", m=5),
            SizeSchedule(kind="cyclic", sizes=(2, 5, 1, 3)),
            SizeSchedule(kind="random", lo=1, hi=5),
            # sizes of 9 and more take NumPy's unrolled summation in the
            # feedback process's cluster means
            SizeSchedule(kind="cyclic", sizes=(9, 1, 12)),
        ]
    ),
    truth=st.sampled_from(
        [
            TruthSpec(kind="independence"),
            TruthSpec(kind="exchangeable", rho=0.3),
            TruthSpec(kind="ar1", rho=-0.5),
        ]
    ),
    beta0=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
)
@example(
    seed=11,
    replication=0,
    n=12,
    family_link=("gaussian_link_moments", "identity"),
    kind="feedback",
    sizes=SizeSchedule(kind="cyclic", sizes=(9, 1, 12)),
    truth=TruthSpec(kind="exchangeable", rho=0.3),
    beta0=[0.7, -0.4],
)
def test_matches_loop_oracle(seed, replication, n, family_link, kind, sizes, truth, beta0):
    family, link = family_link
    cfg = ScenarioConfig(
        link=link,
        beta0=tuple(beta0),
        n=n,
        m_max=max(5, sizes.max_size),
        sizes=sizes,
        regressors=PROCESSES[kind],
        truth=truth,
        response_family=family,
        seed=seed,
    )
    assert_matches_loop_oracle(cfg, replication)


def test_poisson_walk_fallback_matches_loop_oracle(monkeypatch):
    # intensities around exp(3.2) pass the walk's cap of 20, so some runs
    # of the feedback chain fall back from ``_poisson_step`` to the array
    # step, which no other Poisson path here reaches
    fallbacks = []
    array_step = simulation._array_step

    def counted(*args):
        fallbacks.append(None)
        return array_step(*args)

    monkeypatch.setattr(simulation, "_array_step", counted)
    cfg = ScenarioConfig(
        link="log",
        beta0=(1.0,),
        n=30,
        m_max=5,
        sizes=SizeSchedule(kind="random", lo=1, hi=5),
        regressors=RegressorProcess(kind="feedback", loc=3.2, gain=-0.02, scale=0.3),
        truth=TruthSpec(kind="exchangeable", rho=0.3),
        response_family="poisson_log",
        seed=11,
    )
    assert_matches_loop_oracle(cfg, 0)
    assert 0 < len(fallbacks) < cfg.n


def assert_matches_loop_oracle(cfg, replication):
    """Replication ``replication`` of ``cfg`` equals the per-cluster loop
    bit for bit, or fails at the loop's first bad cluster."""
    try:
        want = loop_simulate_scenario(cfg, replication)
    except LinkDomainExit as exc:
        with pytest.raises(ConfigError, match=f"cluster {exc.cluster}: "):
            simulate_quietly(cfg, replication)
        return
    sizes_, x, y = want
    if not np.isfinite(y).all():
        cluster = np.searchsorted(np.cumsum(sizes_), np.argmax(~np.isfinite(y)), side="right")
        with pytest.raises(ConfigError, match=f"cluster {cluster + 1}: .* non-finite"):
            simulate_quietly(cfg, replication)
        return
    ds = simulate_quietly(cfg, replication)
    np.testing.assert_array_equal(np.diff(ds.offsets), sizes_)
    assert ds.x.tobytes() == x.tobytes()
    assert ds.y.tobytes() == y.tobytes()


class TestLinkDomainFailure:
    # exp(x'beta0) overflows where the jitter w of x = 700 + 5 w exceeds
    # about 1.96: first in cluster 5 (size 3), then in clusters 19, 21
    # and 24 of sizes 1, 2 and 4, so two later offenders sit in buckets
    # that come first in size order
    CFG = ScenarioConfig(
        link="log",
        beta0=(1.0,),
        n=30,
        m_max=4,
        sizes=SizeSchedule(kind="random", lo=1, hi=4),
        regressors=RegressorProcess(kind="iid", loc=700.0, scale=5.0),
        response_family="poisson_log",
        seed=46,
    )

    def _offenders(self):
        rep_seed = replication_seed(self.CFG.seed, 0)
        out = []
        for i in range(1, self.CFG.n + 1):
            rng = substream(rep_seed, i)
            size = self.CFG.sizes.draw(i, rng)
            x = 700.0 + 5.0 * rng.standard_normal((size, 1))
            if np.any(x[:, 0] > np.log(np.finfo(float).max)):
                out.append((i, size))
        return out

    def test_first_offender_is_named(self):
        offenders = self._offenders()
        first, first_size = offenders[0]
        assert first > 1
        assert any(size < first_size for _, size in offenders[1:])
        with pytest.raises(LinkDomainExit) as oracle:
            loop_simulate_scenario(self.CFG)
        assert oracle.value.cluster == first
        with pytest.raises(ConfigError, match=f"cluster {first}: ") as err:
            simulate_scenario(self.CFG)
        assert err.value.field == "regressors"
        # the clusters before it stay in the domain, but their means near
        # 1e304 are beyond the Poisson quantile
        _, _, y = loop_simulate_scenario(self.CFG.with_n(first - 1))
        assert np.isnan(y[0])
        with pytest.raises(ConfigError, match="cluster 1: .* non-finite response"):
            simulate_scenario(self.CFG.with_n(first - 1))

    # x_i = 0.5 + 3 mean(y_{i-1}) + 0.3 w_i with y_i near exp(x_i): the
    # drift overflows the log link's mean in cluster 4
    FEEDBACK = ScenarioConfig(
        link="log",
        beta0=(1.0,),
        n=10,
        m_max=3,
        sizes=SizeSchedule(kind="random", lo=1, hi=3),
        regressors=RegressorProcess(kind="feedback", loc=0.5, gain=3.0, scale=0.3),
        response_family="gaussian_link_moments",
        seed=7,
    )

    def test_feedback_drift_names_the_cluster(self):
        with pytest.raises(LinkDomainExit) as oracle:
            loop_simulate_scenario(self.FEEDBACK)
        k = oracle.value.cluster
        assert k > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=f"cluster {k}: ") as err:
                simulate_scenario(self.FEEDBACK)
            assert err.value.field == "regressors"
            ds = simulate_scenario(self.FEEDBACK.with_n(k - 1))
        assert np.isfinite(ds.x).all() and np.isfinite(ds.y).all()


# ---------------------------------------------------------------------------
# the Poisson quantile


@settings(max_examples=300, deadline=None)
@given(
    q=st.lists(
        st.one_of(
            st.sampled_from([1e-16, 1.0 - 1e-16]),
            st.floats(1e-16, 1.0 - 1e-16),
        ),
        min_size=1,
        max_size=6,
    ),
    mu=st.floats(0.0, 1e6, exclude_min=True),
)
def test_poisson_quantile_is_scipy_ppf(q, mu):
    q = np.array(q)
    want = scipy.stats.poisson.ppf(q, mu)
    assert _poisson_quantile(q, mu).tobytes() == want.tobytes()
    mus = np.full(q.shape, mu)
    assert _poisson_quantile(q, mus).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    mu=st.one_of(
        st.sampled_from([20.0, float(np.nextafter(20.0, np.inf))]),
        st.floats(-12.0, float(np.log(20.0))).map(lambda t: min(float(np.exp(t)), 20.0)),
    ),
    k=st.integers(0, 80),
    ulps=st.integers(0, 4),
    rel=st.floats(-12.0, -6.0).map(lambda e: 10.0**e),
)
def test_poisson_quantile_walk_is_scipy_ppf(mu, k, ulps, rel):
    """q a few ulps and 1e-12 to 1e-6 (relative) either side of the CDF
    step at k, where the walk and its fallback meet, for mu up to the
    walk's cap and just past it."""
    step = float(pdtr(k, mu))
    below = above = step
    for _ in range(ulps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
    q = np.array([below, above, step * (1.0 - rel), step * (1.0 + rel), 1e-16, 1.0 - 1e-16])
    q = np.clip(q, 1e-16, 1.0 - 1e-16)
    want = scipy.stats.poisson.ppf(q, mu)
    assert _poisson_quantile(q, mu).tobytes() == want.tobytes()
    mus = np.full(q.shape, mu)
    assert _poisson_quantile(q, mus).tobytes() == want.tobytes()


def _count_fallback(monkeypatch):
    """Route ``_poisson_ppf`` through a recorder of the (q, mu) it gets."""
    calls = []
    ppf = simulation._poisson_ppf

    def counted(q, mu):
        calls.append((q, mu))
        return ppf(q, mu)

    monkeypatch.setattr(simulation, "_poisson_ppf", counted)
    return calls


def test_poisson_quantile_falls_back_only_where_marked(monkeypatch):
    calls = _count_fallback(monkeypatch)
    on_step = float(pdtr(3, 2.0))
    rows = [  # (q, mu, falls back)
        (0.5, 0.3, False),
        (0.5, 25.0, True),
        (0.9, 4.0, False),
        (0.5, np.nan, True),
        (0.2, 7.5, False),
        (0.5, np.inf, True),
        (on_step, 2.0, True),
        (0.7, 20.0, False),
        (0.5, 0.0, True),
        (0.999, 19.0, False),
    ]
    q, mu, marked = (np.array(c) for c in zip(*rows))
    got = _poisson_quantile(q, mu)
    want = np.array([scipy.stats.poisson.ppf(a, m) for a, m in zip(q, mu)])
    assert got.tobytes() == want.tobytes()
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][0], q[marked])
    np.testing.assert_array_equal(calls[0][1], mu[marked])


def test_feedback_chain_never_falls_back(monkeypatch):
    """The Poisson feedback scenario of the consistency study draws every
    response on the walk."""
    calls = _count_fallback(monkeypatch)
    cfg = base_config(
        link="log",
        n=400,
        regressors=RegressorProcess(kind="feedback", gain=0.3, scale=0.5),
        response_family="poisson_log",
        seed=2024,
    )
    for replication in (0, 1):
        simulate_scenario(cfg, replication)
    assert calls == []
