import configparser
import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from stochgee import (
    DiagnosticsParams,
    RegressorProcess,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    dataset_from_arrays,
    write_dataset,
)
from stochgee.cli import main, parse_scenario

SCENARIO = """\
[scenario]
link = identity
beta0 = 0.5, -0.3
n = 40
m_max = 3
seed = 11
response_family = gaussian_link_moments

[sizes]
kind = constant
m = 3

[regressors]
kind = iid
scale = 1.0

[truth]
kind = exchangeable
rho = 0.4

[estimators]
names = independence, exchangeable:0.4
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParsing:
    def test_print_defaults_round_trips(self, tmp_path, capsys):
        assert main(["--print-defaults"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "defaults.ini"
        path.write_text(text)
        config, estimators, diag = parse_scenario(str(path))
        assert config.n == 100
        assert estimators == ("independence",)
        assert diag["delta"] == 0.25
        # every settable field is listed, and reads back as its class default
        assert config == ScenarioConfig()
        assert DiagnosticsParams(**diag) == DiagnosticsParams()
        listed = configparser.ConfigParser()
        listed.read_string(text)

        def names(cls, *unlisted):
            return {f.name for f in fields(cls)} - set(unlisted)

        scenario = names(ScenarioConfig, "sizes", "regressors", "truth")
        assert set(listed["scenario"]) == scenario
        assert set(listed["sizes"]) == names(SizeSchedule)
        assert set(listed["regressors"]) == names(RegressorProcess)
        assert set(listed["truth"]) == names(TruthSpec)
        assert set(listed["estimators"]) == {"names"}
        assert set(listed["diagnostics"]) == names(DiagnosticsParams, "n_grid")

    def test_scenario_parsing(self, scenario_file):
        config, estimators, _ = parse_scenario(scenario_file)
        assert config.beta0 == (0.5, -0.3)
        assert config.truth.rho == 0.4
        assert estimators == ("independence", "exchangeable:0.4")

    def test_missing_scenario_is_config_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.ini")]) == 2

    def test_bad_field_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nlink = nope\n")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_no_command_prints_help(self):
        assert main([]) == 2


class TestSimulate:
    def test_writes_dataset_and_metadata(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out)]) == 0
        data = out / "dataset.csv"
        meta = json.loads((out / "dataset.meta.json").read_text())
        assert data.exists()
        assert meta["seed"] == 11
        assert meta["config"]["n"] == 40
        assert meta["command"] == "simulate"

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", scenario_file, "--out", str(out1)])
        main(["simulate", "--scenario", scenario_file, "--out", str(out2)])
        assert read_bytes(out1 / "dataset.csv") == read_bytes(out2 / "dataset.csv")
        assert read_bytes(out1 / "dataset.meta.json") == read_bytes(
            out2 / "dataset.meta.json"
        )

    def test_seed_override_changes_data(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", scenario_file, "--out", str(out1)])
        main(
            [
                "simulate",
                "--scenario",
                scenario_file,
                "--seed",
                "99",
                "--out",
                str(out2),
            ]
        )
        assert read_bytes(out1 / "dataset.csv") != read_bytes(out2 / "dataset.csv")


class TestFit:
    def test_exact_root_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        beta = np.array([0.25, -0.75])
        pairs = []
        for _ in range(6):
            x = rng.standard_normal((3, 2))
            pairs.append((x @ beta, x))
        ds = dataset_from_arrays(pairs, link="identity")
        data = tmp_path / "exact.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "fit"
        code = main(["fit", "--data", str(data), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is True
        np.testing.assert_allclose(payload["beta_hat"], beta, atol=1e-8)

    def test_scenario_fit(self, scenario_file, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--scenario", scenario_file, "--out", str(out)]) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["estimator"] == "independence"
        assert np.linalg.norm(np.array(payload["beta_hat"]) - [0.5, -0.3]) < 0.5

    def test_nonconvergence_exits_3(self, tmp_path):
        # all-zero counts push the log-link root to -infinity
        ds = dataset_from_arrays(
            [(np.zeros(1), np.ones((1, 1))) for _ in range(5)], link="log"
        )
        data = tmp_path / "zeros.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 3
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is False


    def test_fit_json_says_why_the_solve_stopped(self, tmp_path):
        # the all-zero counts of test_nonconvergence_exits_3 run out of
        # iterations, every full step accepted
        ds = dataset_from_arrays(
            [(np.zeros(1), np.ones((1, 1))) for _ in range(5)], link="log"
        )
        data = tmp_path / "zeros.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 3
        payload = json.loads((out / "fit.json").read_text())
        assert payload["stop_reason"] == "max_iter"
        assert payload["evaluations"] == payload["iterations"] + 1 == 101

    @pytest.mark.parametrize("name", ["bogus", "exchangeable:abc", "exchangeable:1.5"])
    def test_bad_estimator_is_config_error(self, tmp_path, capsys, name):
        ds = dataset_from_arrays(
            [(np.ones(2), np.eye(2)) for _ in range(4)], link="identity"
        )
        data = tmp_path / "ds.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(data), "--estimator", name, "--out", str(out)]
        assert main(argv) == 2
        assert "error: estimator:" in capsys.readouterr().err

    def test_bad_scenario_estimator_is_config_error(self, scenario_file, tmp_path):
        out = tmp_path / "fit"
        argv = ["fit", "--scenario", scenario_file, "--estimator", "bogus"]
        assert main(argv + ["--out", str(out)]) == 2


def _sidecar_case(tmp_path, **fields):
    rng = np.random.default_rng(4)
    pairs = [(rng.standard_normal(2), rng.standard_normal((2, 2))) for _ in range(3)]
    ds = dataset_from_arrays(pairs, link="identity", beta0=np.array([0.5, -0.3]))
    data = tmp_path / "ds.csv"
    write_dataset(ds, str(data))
    meta_path = tmp_path / "ds.meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(fields)
    meta_path.write_text(json.dumps(meta))
    return str(data)


MALFORMED_SIDECARS = [
    {"beta0": "abc"},
    {"beta0": [0.1, 0.2, 0.3]},
    {"beta0": [0.1, None]},
    {"link": "bogus"},
]


class TestMalformedSidecar:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("fields", MALFORMED_SIDECARS)
    def test_is_a_config_error(self, tmp_path, capsys, command, fields):
        data = _sidecar_case(tmp_path, **fields)
        out = tmp_path / "out"
        assert main([command, "--data", data, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sidecar" in err
        assert not out.exists()


class TestSidecarShape:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("p", [0, -1])
    def test_p_below_one_is_refused(self, tmp_path, capsys, command, p):
        # a file with no regressor columns, whose sidecar says so with p = 0
        data = tmp_path / "ds.csv"
        data.write_text("cluster,obs,y\n1,1,0.5\n1,2,0.7\n2,1,0.1\n")
        meta = {"p": p, "m_max": 2, "link": "identity", "beta0": []}
        (tmp_path / "ds.meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert main([command, "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sidecar 'p' and 'm_max'" in err
        assert not out.exists()


class TestDiagnose:
    def test_data_without_delta_uses_default(self, tmp_path):
        rng = np.random.default_rng(3)
        pairs = [
            (rng.standard_normal(3), rng.standard_normal((3, 2))) for _ in range(12)
        ]
        ds = dataset_from_arrays(pairs, link="identity", beta0=np.array([0.5, -0.3]))
        data = tmp_path / "ds.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", str(data), "--estimator", "exchangeable:0.4"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["delta"] == 0.25

    @pytest.mark.parametrize("source", ["scenario", "data"])
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--n-grid=0,40"], "n_grid"),
            (["--n-grid", "10,40000"], "n_grid"),
            (["--delta", "0.9"], "delta"),
        ],
    )
    def test_bad_grid_or_delta_is_a_config_error(
        self, scenario_file, tmp_path, capsys, source, flags, field
    ):
        # bad input, not a numerical failure (exit 3), on either input kind
        if source == "data":
            rng = np.random.default_rng(3)
            pairs = [(rng.standard_normal(3), rng.standard_normal((3, 2))) for _ in range(12)]
            ds = dataset_from_arrays(pairs, link="identity", beta0=np.array([0.5, -0.3]))
            write_dataset(ds, str(tmp_path / "ds.csv"))
            argv = ["diagnose", "--data", str(tmp_path / "ds.csv")]
        else:
            argv = ["diagnose", "--scenario", scenario_file]
        out = tmp_path / "diag"
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: {field} must lie in ")
        assert not (out / "report.json").exists()

    @staticmethod
    def _lattice_data(tmp_path, scale):
        """Log-link data, regular at beta0 = 0, whose clusters 5 and 3 have
        one regressor column at ``scale``."""
        rng = np.random.default_rng(21)
        pairs = []
        for i in range(1, 9):
            m = 1 if i in (2, 5) else 2
            x = 0.3 * rng.standard_normal((m, 2))
            if i == 5:
                x[:, 0] = scale
            if i == 3:
                x[:, 1] = scale
            pairs.append((1.0 + 0.5 * rng.standard_normal(m), x))
        ds = dataset_from_arrays(pairs, m_max=2, link="log", beta0=np.zeros(2))
        data = tmp_path / "ds.csv"
        write_dataset(ds, str(data))
        return data

    def test_bad_lattice_point_is_a_numerical_failure(self, tmp_path, capsys):
        # regular at beta0 = 0; cluster 5 overflows the log link at the
        # first lattice point of radius 0.5, beta0 + 0.5 e_1
        data = self._lattice_data(tmp_path, 1500.0)
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", str(data), "--estimator", "pseudo"]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: cluster 5: non-finite moments at beta=[0.5, 0.0]\n"
        )
        assert not (out / "report.json").exists()

    def test_overflowing_curvature_is_reported_as_inf(self, tmp_path):
        # every lattice point is regular, but at radius 0.5 the proxy
        # derivative is about 1e219, so its square overflows a float; the
        # c5 series reports inf there instead of raising OverflowError
        data = self._lattice_data(tmp_path, 1000.0)
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", str(data), "--estimator", "pseudo"]
        assert main(argv + ["--out", str(out)]) == 0
        by_r = json.loads((out / "report.json").read_text())["report"]["series_by_r"]
        assert by_r["c5"]["0.5"] == ["inf"]
        assert all(math.isfinite(v) for r in ("0.25", "0.1") for v in by_r["c5"][r])

    def test_overflowing_mu_prime_makes_eta_inf(self, tmp_path):
        # at radius 0.5 exp overflows for clusters 3 and 5; eta must stay
        # inf there, not drop those clusters and read smaller than at 0.25
        data = self._lattice_data(tmp_path, 1500.0)
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", str(data), "--estimator", "exchangeable:0.4"]
        assert main(argv + ["--out", str(out)]) == 0
        by_r = json.loads((out / "report.json").read_text())["report"]["series_by_r"]
        assert by_r["eta"]["0.25"] == ["inf"]
        assert by_r["eta"]["0.5"] == ["inf"]
        assert all(math.isfinite(v) for k in ("k2", "k3") for v in by_r[k]["0.5"])

    def test_scenario_report(self, scenario_file, tmp_path):
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose",
                "--scenario",
                scenario_file,
                "--estimator",
                "exchangeable:0.4",
                "--n-grid",
                "10,40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        rep = payload["report"]
        assert rep["n_grid"] == [10, 40]
        assert len(rep["series"]["lambda_min_h_prime"]) == 2
        assert "a1_gap" in rep["series"]

    def test_ensemble_summary(self, scenario_file, tmp_path):
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose",
                "--scenario",
                scenario_file,
                "--reps",
                "3",
                "--n-grid",
                "20,40",
                "--jobs",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert "ensemble" in payload
        assert len(payload["ensemble"]["slln_ratio"]["median"]) == 2


    def test_ensemble_counts_diverged_replications(self, tmp_path):
        # random sizes 1..3, seed 5: gamma_prime at n = 1 reads
        # [1.0, 0.903, inf, 0.8995, 1.0, inf] over the six replications;
        # the infinities count, they are not skipped as NaN
        path = tmp_path / "scenario.ini"
        path.write_text(
            SCENARIO.replace("seed = 11", "seed = 5").replace(
                "kind = constant\nm = 3", "kind = random\nlo = 1\nhi = 3"
            )
        )
        out = tmp_path / "diag"
        argv = ["diagnose", "--scenario", str(path), "--n-grid", "1,40", "--reps", "6"]
        argv += ["--estimator", "identity", "--jobs", "1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        text = (out / "report.json").read_text()
        assert "Infinity" not in text
        payload = json.loads(text)
        gamma = payload["ensemble"]["gamma_prime"]
        assert gamma["median"][0] == 1.0
        assert gamma["q75"][0] == "inf"
        assert gamma["q25"][0] == pytest.approx(0.92725, abs=1e-3)
        assert all(math.isfinite(v) for k in gamma for v in gamma[k][1:])

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_ensemble_needs_a_replication(
        self, scenario_file, tmp_path, capsys, reps
    ):
        argv = ["diagnose", "--scenario", scenario_file, "--reps", reps]
        assert main(argv + ["--out", str(tmp_path / "diag")]) == 2
        assert "reps must be >= 1" in capsys.readouterr().err

    def test_ensemble_jobs_invariance_bytes(self, scenario_file, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            argv = ["diagnose", "--scenario", scenario_file, "--reps", "3"]
            argv += ["--n-grid", "20,40", "--estimator", "exchangeable:0.4"]
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            outs.append(read_bytes(out / "report.json"))
        assert outs[0] == outs[1]


class TestStudies:
    @pytest.mark.parametrize("grid", ["0,40", "-5,40"])
    def test_grid_below_one_is_a_config_error(
        self, scenario_file, tmp_path, capsys, grid
    ):
        # n = 0 would read the last cluster: a row equal to the n = 40 row
        out = tmp_path / "study"
        argv = ["study-optimality", "--scenario", scenario_file, "--reps", "2"]
        assert main(argv + [f"--n-grid={grid}", "--out", str(out)]) == 2
        assert "n_grid" in capsys.readouterr().err
        assert not (out / "optimality.csv").exists()

    def test_consistency_table(self, scenario_file, tmp_path):
        out = tmp_path / "study"
        code = main(
            [
                "study-consistency",
                "--scenario",
                scenario_file,
                "--reps",
                "4",
                "--n-grid",
                "20,40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = (out / "consistency.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].split(",")[:3] == ["estimator", "n", "median_err"]
        assert len(lines) == 2 + 2 * 2  # two estimators, two grid points

    def test_estimator_lists_do_not_carry_over(self, scenario_file, tmp_path):
        # main builds its parser once per process; each call's --estimator
        # list is its own
        for names in (["independence"], ["exchangeable:0.4", "pseudo"]):
            out = tmp_path / names[0]
            argv = ["study-consistency", "--scenario", scenario_file, "--reps", "2"]
            argv += [arg for name in names for arg in ("--estimator", name)]
            assert main(argv + ["--n-grid", "20,40", "--out", str(out)]) == 0
            lines = (out / "consistency.csv").read_text().strip().splitlines()
            assert [line.split(",")[0] for line in lines[2:]] == [
                name for name in names for _ in range(2)
            ]

    def test_optimality_truth_columns(self, scenario_file, tmp_path):
        out = tmp_path / "study"
        code = main(
            [
                "study-optimality",
                "--scenario",
                scenario_file,
                "--estimator",
                "truth",
                "--reps",
                "3",
                "--n-grid",
                "20,40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "optimality.csv").read_text().strip().splitlines()
        header = lines[1].split(",")
        assert header == [
            "spec",
            "n",
            "det_ratio_h",
            "det_ratio_m",
            "det_ratio_h_perturbed",
            "det_ratio_m_perturbed",
        ]
        for line in lines[2:]:
            vals = line.split(",")
            assert float(vals[2]) == pytest.approx(1.0, abs=1e-10)
            assert float(vals[3]) == pytest.approx(1.0, abs=1e-10)

    def test_jobs_invariance_bytes(self, scenario_file, tmp_path):
        outs = []
        for jobs, name in ((1, "j1"), (2, "j2")):
            out = tmp_path / name
            code = main(
                [
                    "study-optimality",
                    "--scenario",
                    scenario_file,
                    "--estimator",
                    "exchangeable:0.4",
                    "--reps",
                    "4",
                    "--n-grid",
                    "20,40",
                    "--jobs",
                    str(jobs),
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(read_bytes(out / "optimality.csv"))
        assert outs[0] == outs[1]


def _csv_rows(path):
    """The table rows of a study CSV, without their first column."""
    lines = path.read_text().strip().splitlines()
    return lines[:2] + [line.split(",", 1)[1] for line in lines[2:]]


class TestEstimatorNames:
    """``truth`` and ``quasi`` name one estimator, in any case, and only a
    scenario supplies the true correlation they need."""

    @pytest.mark.parametrize("name", ["truth", "quasi", "Quasi_Score"])
    def test_diagnose_data_has_no_truth(self, tmp_path, capsys, name):
        data = _sidecar_case(tmp_path)
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", data, "--estimator", name, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: estimator: ")
        assert not out.exists()

    def test_study_optimality_quasi_is_truth(self, scenario_file, tmp_path):
        rows = []
        for name in ("truth", "quasi"):
            out = tmp_path / name
            argv = ["study-optimality", "--scenario", scenario_file, "--jobs", "1"]
            argv += ["--estimator", name, "--reps", "2", "--n-grid", "20,40"]
            assert main(argv + ["--out", str(out)]) == 0
            rows.append(_csv_rows(out / "optimality.csv"))
        assert rows[0] == rows[1]

    def test_fit_names_are_case_insensitive(self, scenario_file, tmp_path):
        fits = []
        for name in ("truth", "Truth", " QUASI"):
            out = tmp_path / name.strip()
            argv = ["fit", "--scenario", scenario_file, "--estimator", name]
            assert main(argv + ["--out", str(out)]) == 0
            fits.append(json.loads((out / "fit.json").read_text())["beta_hat"])
        assert fits[0] == fits[1] == fits[2]


MALFORMED_SCENARIOS = [
    (("m = 3", "m = three"), "sizes.m"),
    (("kind = iid", "kind = iid\nloc = far"), "regressors.loc"),
    (("rho = 0.4", "rho = r"), "truth.rho"),
    (("[estimators]", "[diagnostics]\ndelta = x\n\n[estimators]"), "diagnostics.delta"),
    (("kind = constant\nm = 3", "kind = cyclic\nsizes = 2, x"), "sizes.sizes"),
    (("n = 40", "n = forty"), "scenario.n"),
    (("[scenario]\n", ""), "scenario"),
    (("n = 40", "n = 40\nn = 50"), "scenario"),
    (("[sizes]", "[sizes]\nkind = constant\n\n[sizes]"), "scenario"),
    (("beta0 = 0.5", "beta0 = %(x)s"), "scenario"),
    (("scale = 1.0", "scale = nan"), "regressors.scale"),
    (("kind = iid", "kind = iid\nloc = inf"), "regressors.loc"),
    (("kind = iid", "kind = iid\nphi = nan"), "regressors.phi"),
    (("kind = iid", "kind = iid\ngain = -inf"), "regressors.gain"),
    (("[estimators]", "[diagnostics]\ndelta = 0.7\n\n[estimators]"), "delta"),
    (("scale = 1.0", "sacle = 0.8"), "regressors.sacle"),
    (("[regressors]", "[regresors]"), "regresors"),
    (("[sizes]", "[DEFAULT]\nseed = 3\n\n[sizes]"), "DEFAULT"),
    (("kind = exchangeable\nrho = 0.4", "kind = independence\nrho = nan"), "truth.rho"),
    (("kind = exchangeable\nrho = 0.4", "kind = independence\nrho = inf"), "truth.rho"),
]


class TestMalformedScenario:
    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    @pytest.mark.parametrize("edit, field", MALFORMED_SCENARIOS)
    def test_is_a_config_error(self, tmp_path, capsys, command, edit, field):
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO.replace(*edit))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["fit", "diagnose", "study-consistency", "study-optimality"]
    )
    def test_empty_estimator_list_is_a_config_error(self, tmp_path, capsys, command):
        # fit and diagnose raised IndexError, the studies wrote header-only
        # tables
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO.replace("independence, exchangeable:0.4", ""))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: estimators.names: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["simulate", "fit", "diagnose", "study-consistency", "study-optimality"],
    )
    def test_estimator_flag_overrides_an_empty_list(self, tmp_path, command):
        # the flag takes priority over the file; simulate runs no estimator
        path = tmp_path / "empty.ini"
        path.write_text(SCENARIO.replace("independence, exchangeable:0.4", ""))
        argv = [command, "--scenario", str(path), "--out", str(tmp_path / "out")]
        if command != "simulate":
            argv += ["--estimator", "independence", "--jobs", "1"]
        if command.startswith("study"):
            argv += ["--reps", "2", "--n-grid", "20,40"]
        assert main(argv) == 0

    @pytest.mark.parametrize("r_grid", ["0.1, 0.5", "inf, 0.5", "0.5, nan", ""])
    def test_bad_r_grid_is_a_config_error(self, tmp_path, capsys, r_grid):
        # an increasing grid was a numerical failure (exit 3) before; an
        # infinite radius gave a report whose lattice terms read 0
        path = tmp_path / "bad.ini"
        path.write_text(SCENARIO + f"\n[diagnostics]\nr_grid = {r_grid}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: r_grid: r_grid must be finite, positive and strictly decreasing, "
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["diagnose", "study-consistency", "study-optimality"])
    def test_bad_n_grid_is_a_config_error(self, scenario_file, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--scenario", scenario_file, "--n-grid", "10,x", "--reps", "1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: n_grid: ")
        assert not out.exists()
