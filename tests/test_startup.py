"""SciPy is imported only on the paths that call it.

Importing the package, and the commands that never call SciPy, leave no
``scipy`` module loaded. This suite imports SciPy itself, so each check
runs in a fresh interpreter; they assert on ``sys.modules``, never on
timings.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import stochgee
from stochgee.model import get_link

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stochgee.__file__)))

SCENARIO = """\
[scenario]
link = {link}
beta0 = 0.5, -0.3
n = 60
seed = 17
response_family = {family}

[sizes]
kind = constant
m = 3

[regressors]
kind = {kind}
scale = 0.3
gain = 0.1

[truth]
kind = exchangeable
rho = 0.4
"""


def scenario(link="log", kind="iid", family="gaussian_link_moments") -> str:
    return SCENARIO.format(link=link, kind=kind, family=family)


def scipy_after(code: str, cwd) -> list:
    """The ``scipy`` modules loaded once ``code`` has run in a fresh
    interpreter with the package on its path."""
    script = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main_calls(*argvs) -> str:
    """Code that runs ``stochgee.cli.main`` on each argv and checks its
    exit code."""
    lines = ["from stochgee.cli import main"]
    lines += [f"assert main({list(argv)!r}) == 0, {list(argv)!r}" for argv in argvs]
    return "\n".join(lines)


@pytest.mark.parametrize("module", ["stochgee", "stochgee.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_after(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("kind", ["iid", "feedback"])
def test_gaussian_commands_load_no_scipy(tmp_path, kind):
    (tmp_path / "s.ini").write_text(scenario(kind=kind))
    common = ["--scenario", "s.ini", "--jobs", "1"]
    code = main_calls(
        ["simulate", *common, "--out", "sim"],
        ["fit", *common, "--out", "fit"],
        ["study-consistency", *common, "--reps", "2", "--n-grid", "30,60", "--out", "c"],
    )
    assert scipy_after(code, tmp_path) == []


@pytest.mark.parametrize("link", ["identity", "log"])
def test_fit_data_loads_no_scipy(tmp_path, link):
    (tmp_path / "s.ini").write_text(scenario(link=link))
    fits = [
        ["fit", "--data", "sim/dataset.csv", "--estimator", name, "--out", name]
        for name in ("independence", "exchangeable:0.4", "pseudo")
    ]
    code = main_calls(["simulate", "--scenario", "s.ini", "--out", "sim"], *fits)
    assert scipy_after(code, tmp_path) == []


@pytest.mark.parametrize("link", ["identity", "log"])
def test_diagnose_data_loads_no_scipy(tmp_path, link):
    (tmp_path / "s.ini").write_text(scenario(link=link))
    diagnoses = [
        ["diagnose", "--data", "sim/dataset.csv", "--estimator", name, "--out", name]
        for name in ("exchangeable:0.4", "pseudo")
    ]
    code = main_calls(["simulate", "--scenario", "s.ini", "--out", "sim"], *diagnoses)
    assert scipy_after(code, tmp_path) == []


def test_linear_closed_form_loads_no_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from stochgee import dataset_from_arrays, linear_closed_form\n"
        "rng = np.random.default_rng(3)\n"
        "ds = dataset_from_arrays(\n"
        "    [(rng.standard_normal(3), rng.standard_normal((3, 2))) for _ in range(20)]\n"
        ")\n"
        "assert np.all(np.isfinite(linear_closed_form(ds, np.eye(3))))"
    )
    assert scipy_after(code, tmp_path) == []


def test_poisson_diagnose_loads_special_only(tmp_path):
    (tmp_path / "s.ini").write_text(scenario(family="poisson_log"))
    code = main_calls(["diagnose", "--scenario", "s.ini", "--jobs", "1", "--out", "d"])
    loaded = scipy_after(code, tmp_path)
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith("scipy.linalg")] == []


def test_study_pool_forks_after_the_copula_import(tmp_path):
    # forked workers inherit the parent's modules, so a copula study imports
    # scipy.special before its pool starts; a gaussian study loads no SciPy
    for family in ("poisson_log", "gaussian_link_moments"):
        (tmp_path / "s.ini").write_text(scenario(kind="feedback", family=family))
        argv = ["study-consistency", "--scenario", "s.ini", "--jobs", "2", "--reps", "4"]
        code = main_calls(argv + ["--n-grid", "30,60", "--out", family])
        loaded = scipy_after(code, tmp_path)
        if family == "poisson_log":
            assert "scipy.special" in loaded
        else:
            assert loaded == []


def test_gaussian_study_optimality_loads_no_scipy(tmp_path):
    (tmp_path / "s.ini").write_text(scenario())
    argv = ["study-optimality", "--scenario", "s.ini", "--jobs", "1", "--reps", "2"]
    code = main_calls(argv + ["--estimator", "pseudo", "--n-grid", "30,60", "--out", "o"])
    assert scipy_after(code, tmp_path) == []


def test_probit_link_is_scipy_ndtr():
    probit = get_link("probit")
    u = np.concatenate([np.linspace(-40.0, 40.0, 2001), [0.0, -0.0, np.inf, -np.inf]])
    assert probit.mu(u).tobytes() == ndtr(u).tobytes()
    assert probit.eval(0, u).tobytes() == ndtr(u).tobytes()
    assert probit.eval(0, 0.3) == float(ndtr(0.3))
    y = np.concatenate([np.linspace(0.0, 1.0, 2001), [-0.5, 1.5, 1e-300]])
    want = np.where((y > 0) & (y < 1), ndtri(np.clip(y, 1e-300, 1.0)), np.nan)
    assert probit.inverse(y).tobytes() == want.tobytes()
