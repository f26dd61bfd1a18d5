import json

import numpy as np
import pytest

from stochgee import dataset_from_arrays, write_dataset
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

    def test_bad_lattice_point_is_a_numerical_failure(self, tmp_path, capsys):
        # regular at beta0 = 0; cluster 5 overflows the log link at the
        # first lattice point of radius 0.5, beta0 + 0.5 e_1
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
        ds = dataset_from_arrays(pairs, m_max=2, link="log", beta0=np.zeros(2))
        data = tmp_path / "ds.csv"
        write_dataset(ds, str(data))
        out = tmp_path / "diag"
        argv = ["diagnose", "--data", str(data), "--estimator", "pseudo"]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: cluster 5: non-finite moments at beta=[0.5, 0.0]\n"
        )
        assert not (out / "report.json").exists()

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


class TestStudies:
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
