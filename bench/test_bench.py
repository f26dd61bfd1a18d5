"""Tests of the benchmark's own parts: output checks, references, tracer.

    python3 -m pytest bench/test_bench.py -q

Every output check must pass on a real output and fail once that output
is corrupted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import stochgee  # noqa: E402
import stochgee.cli  # noqa: E402

SIZES = {
    "fit": {"n": 120},
    "diagnose": {"n": 6},
    "optimality": {"reps": 2, "n_grid": (20, 40)},
    "consistency": {"reps": 3, "n_grid": (30, 60)},
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """group -> (group object, {operation name: (operation, output text)})"""
    out = {}
    for name, cls in workloads.GROUPS.items():
        group = cls(7, str(tmp_path_factory.mktemp(name)), SIZES[name])
        group.write_inputs()
        texts = {}
        for op in group.operations():
            with contextlib.redirect_stdout(io.StringIO()):
                assert stochgee.cli.main(list(op.argv)) == 0
            texts[op.name] = (op, Path(op.output).read_text())
        out[name] = (group, texts)
    return out


def _json_edit(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _table_edit(text, row_match, column, transform):
    lines = text.splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    for k in range(2, len(lines)):
        cells = lines[k].split(",")
        if row_match(dict(zip(header, cells))):
            cells[col] = str(transform(float(cells[col])))
            lines[k] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError("no row matched")


def test_real_outputs_pass_every_check(outputs):
    for name, (group, texts) in outputs.items():
        for op, text in texts.values():
            assert group.check(op, text) == [], (name, op.name)


@pytest.mark.parametrize("estimator", ["fit_independence", "fit_exchangeable", "fit_pseudo"])
def test_fit_check_rejects_shifted_root(outputs, estimator):
    group, texts = outputs["fit"]
    op, text = texts[estimator]

    def shift(p):
        p["beta_hat"][0] += 1e-6

    assert group.check(op, _json_edit(text, shift))


def test_fit_check_rejects_estimate_far_from_truth(outputs):
    group, texts = outputs["fit"]
    op, text = texts["fit_exchangeable"]
    se = ref.sandwich_se(group.X, group.Y, np.asarray(workloads.BETA0), "log",
                         ref.exchangeable(workloads.RHO, workloads.M))

    def far(p):
        p["beta_hat"] = [b + 7.0 * s for b, s in zip(workloads.BETA0, se)]

    errors = group.check(op, _json_edit(text, far))
    assert any("standard errors" in e for e in errors)


def test_fit_check_rejects_root_of_another_estimator(outputs):
    group, texts = outputs["fit"]
    op, text = texts["fit_pseudo"]
    other = json.loads(texts["fit_independence"][1])["beta_hat"]
    assert group.check(op, _json_edit(text, lambda p: p.update(beta_hat=other)))


def test_fit_check_rejects_unconverged(outputs):
    group, texts = outputs["fit"]
    op, text = texts["fit_independence"]
    assert group.check(op, _json_edit(text, lambda p: p.update(converged=False)))


@pytest.mark.parametrize(
    "series",
    ["lambda_min_h_prime", "lambda_max_h_prime", "gamma_prime", "lambda_min_rstar", "lambda_max_rstar"],
)
@pytest.mark.parametrize("estimator", ["diagnose_exchangeable", "diagnose_pseudo"])
def test_diagnose_check_rejects_scaled_eigenvalue(outputs, series, estimator):
    group, texts = outputs["diagnose"]
    op, text = texts[estimator]

    def scale(p):
        p["report"]["series"][series][-1] *= 1.0 + 1e-7

    assert group.check(op, _json_edit(text, scale))


@pytest.mark.parametrize("family,value", [("k2", 1.0 + 1e-15), ("k3", 0.5), ("pi", 1.0 - 1e-9)])
def test_diagnose_check_rejects_bad_lattice_quantities(outputs, family, value):
    group, texts = outputs["diagnose"]
    op, text = texts["diagnose_pseudo"]

    def edit(p):
        by_r = p["report"]["series_by_r"][family]
        by_r[next(iter(by_r))][0] = value

    assert group.check(op, _json_edit(text, edit))


def test_diagnose_check_rejects_non_finite_entry(outputs):
    group, texts = outputs["diagnose"]
    op, text = texts["diagnose_exchangeable"]

    def edit(p):
        p["report"]["series"]["gamma_prime"][0] = "inf"

    assert group.check(op, _json_edit(text, edit))


def test_optimality_check_rejects_swapped_ratios(outputs):
    group, texts = outputs["optimality"]
    op, text = texts["optimality"]
    lines = text.splitlines()
    header = lines[1].split(",")
    h, m = header.index("det_ratio_h"), header.index("det_ratio_m")
    for k in range(2, len(lines)):
        cells = lines[k].split(",")
        if cells[0] == "pseudo":
            cells[h], cells[m] = cells[m], cells[h]
            lines[k] = ",".join(cells)
            break
    assert group.check(op, "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "spec,column,transform",
    [
        ("exchangeable:0.4", "det_ratio_m_perturbed", lambda v: v * (1.0 + 1e-8)),
        ("exchangeable:0.4", "det_ratio_h", lambda v: v * (1.0 + 1e-8)),
        ("pseudo", "det_ratio_h", lambda v: v * (1.0 + 1e-7)),
        ("pseudo", "det_ratio_h_perturbed", lambda v: 1.5),
    ],
)
def test_optimality_check_rejects_corrupted_cell(outputs, spec, column, transform):
    group, texts = outputs["optimality"]
    op, text = texts["optimality"]
    bad = _table_edit(text, lambda row: row["spec"] == spec, column, transform)
    assert group.check(op, bad)


@pytest.mark.parametrize(
    "column,transform",
    [
        ("median_err", lambda v: v * (1.0 + 1e-5)),
        ("q1_err", lambda v: v * (1.0 - 1e-5)),
        ("converged_fraction", lambda v: 0.5),
        ("replications_used", lambda v: int(v) - 1),
    ],
)
def test_consistency_check_rejects_corrupted_cell(outputs, column, transform):
    group, texts = outputs["consistency"]
    op, text = texts["consistency"]
    bad = _table_edit(text, lambda row: row["estimator"] == "exchangeable:0.4", column, transform)
    assert group.check(op, bad)


def test_missing_rows_are_reported(outputs):
    group, texts = outputs["consistency"]
    op, text = texts["consistency"]
    assert group.check(op, "\n".join(text.splitlines()[:-1]) + "\n")


# ---------------------------------------------------------------------------
# references


@pytest.mark.parametrize("scenario", ["optimality", "consistency"])
def test_reference_generator_reproduces_the_package_bitwise(scenario):
    group = workloads.GROUPS[scenario](11, ".", {"reps": 1, "n_grid": (50,)})
    spec = group.spec
    reg = spec["regressors"]
    config = stochgee.ScenarioConfig(
        link=spec["link"],
        beta0=workloads.BETA0,
        n=50,
        m_max=workloads.M,
        sizes=stochgee.SizeSchedule(kind="constant", m=workloads.M),
        regressors=stochgee.RegressorProcess(
            kind=reg["kind"], loc=reg["loc"], scale=reg["scale"], gain=reg["gain"]
        ),
        truth=stochgee.TruthSpec(kind="exchangeable", rho=workloads.RHO),
        response_family=spec["family"],
        seed=spec["seed"],
    )
    for rep in (0, 2):
        ds = stochgee.simulate_scenario(config, rep)
        X, Y = ref.generate(spec, rep, 50)
        assert np.array_equal(X, np.stack([c.regressors for c in ds.clusters]))
        assert np.array_equal(Y, np.stack([c.response for c in ds.clusters]))


def test_poisson_quantile_matches_definition():
    rng = np.random.default_rng(3)
    u = rng.uniform(size=200)
    mean = rng.uniform(0.1, 40.0, size=200)
    k = ref.poisson_quantile(u, mean)
    from scipy.stats import poisson

    assert np.array_equal(k, poisson.ppf(u, mean))


def test_pseudo_proxy_of_first_cluster_is_identity():
    X = np.ones((3, 2, 1))
    Y = np.array([[2.0, 0.5], [1.0, 1.0], [0.0, 3.0]])
    R = ref.pseudo_proxies(X, Y, np.zeros(1), "identity")
    assert np.array_equal(R[0], np.eye(2))
    # after one cluster: (1 - eps) u u' + eps I with eps = 8 / 9
    u = Y[0]
    expect = (1.0 / 9.0) * np.outer(u, u) + (8.0 / 9.0) * np.eye(2)
    assert np.allclose(R[1], expect, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_binding_and_restores_them():
    import stochgee.estimating as est
    import stochgee.solver as solver

    original = est.eval_g
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.eval_g is est.eval_g is not original
        assert stochgee.eval_g is est.eval_g
    finally:
        tracer.uninstall()
    assert solver.eval_g is est.eval_g is original is stochgee.eval_g


def test_tracer_counts_calls_and_self_time(outputs):
    group, texts = outputs["fit"]
    op = texts["fit_exchangeable"][0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op"), contextlib.redirect_stdout(io.StringIO()):
            stochgee.cli.main(list(op.argv))
    finally:
        tracer.uninstall()
    stats = tracing.self_times(tracer.spans)
    fit = json.loads(texts["fit_exchangeable"][1])
    assert stats["cli.main"][0] == 1
    assert stats["solver.solve_gee"][0] == 1
    assert tracer.counts["solver.newton_iterations"] == fit["iterations"]
    assert stats["model.conditional_moments"][0] >= group.n
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(s for _, s in stats.values()) == pytest.approx(total, rel=1e-9)
    assert all(s >= 0 for _, s in stats.values())


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    stats = tracing.self_times(spans)
    assert stats == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}
    by_root = tracing.self_times_by_root(spans + [("z", 11.0, 12.0, -1)])
    assert by_root["a"] == [stats]
    assert by_root["z"] == [{"z": (1, 1.0)}]


def test_missing_function_reports_zero_calls(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "linalg", ("sym_eigh", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stochgee.linalg.sym_eigenvalues(np.eye(2))
    finally:
        tracer.uninstall()
    stats = tracing.self_times(tracer.spans)
    assert stats["linalg.sym_eigh"][0] == 1
    assert "linalg.no_such_function" not in stats


# ---------------------------------------------------------------------------
# reference kernel and relative times


def test_reference_kernel_is_fixed():
    from kernel import ReferenceKernel

    first, second = ReferenceKernel(), ReferenceKernel()
    beta = first.run()
    assert np.all(np.isfinite(beta))
    assert np.array_equal(beta, second.run())
    assert first.seconds() > 0


def test_round_brackets_each_block_with_the_kernel():
    import run

    class StubRunner:
        def run(self, op):
            return True, 1.0

    class StubKernel:
        def __init__(self):
            self.values = iter([1.0, 3.0, 5.0])

        def seconds(self):
            return next(self.values)

    ops = [
        workloads.Operation("a", "fit", (), "", "a_rel", repeat=2),
        workloads.Operation("b", "fit", (), "", "b_rel"),
    ]
    times = {}
    attempted, failed, _ = run.run_round(StubRunner(), ops, times, kernel=StubKernel())
    assert (attempted, failed) == (3, 0)
    assert times == {"a": [(1.0, 2.0), (1.0, 2.0)], "b": [(1.0, 4.0)]}


def test_relative_times_divide_by_the_kernel_and_the_reps():
    import run

    ops = [
        workloads.Operation("a", "fit", (), "", "a_rel"),
        workloads.Operation("b", "optimality", (), "", "b_rep_rel", reps=4),
    ]
    times = {"a": [(1.0, 0.5), (3.0, 0.5), (2.0, 1.0)], "b": [(8.0, 1.0)]}
    metrics = run.end_to_end_metrics(ops, times, 2.5)
    assert metrics["a_rel"] == {"value": 2.0, "unit": "kernels"}
    assert metrics["b_rep_rel"] == {"value": 2.0, "unit": "kernels"}
    assert metrics["setup_s"] == {"value": 2.5, "unit": "s"}
