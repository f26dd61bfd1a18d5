"""Command-line front end.

Commands: ``simulate``, ``fit``, ``diagnose``, ``study-consistency``,
``study-optimality``. Every output file embeds the resolved configuration
and seed; repeated runs with identical flags are byte-identical and do
not depend on ``--jobs``.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import json
import os
import sys
from dataclasses import asdict

from .correlation import WorkingCorrelationSpec
from .diagnostics import (
    DiagnosticsParams,
    _jsonify,
    condition_trajectories,
    consistency_study,
    optimality_study,
)
from .estimating import needs_truth, resolve_estimator
from .exceptions import ConfigError, DatasetParseError, InvalidInputError, StochGeeError
from .model import load_dataset, sidecar_path, write_dataset
from .simulation import (
    GENERATOR_ID,
    RegressorProcess,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    _chunk_datasets,
    _fit_summary,
    _quartiles,
    _replicate,
    _run_meta,
    effective_truth,
    simulate_scenario,
)
from .solver import solve_gee

def _floats(text):
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def _ints(text):
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


#: every scenario-file key, section by section, with the reader of its
#: text; the config classes hold the defaults and the checks
_KEYS = {
    "scenario": {
        "link": str,
        "beta0": _floats,
        "n": int,
        "m_max": int,
        "seed": int,
        "response_family": str,
    },
    "sizes": {"kind": str, "m": int, "sizes": _ints, "lo": int, "hi": int},
    "regressors": {"kind": str, "loc": float, "scale": float, "phi": float, "gain": float},
    "truth": {"kind": str, "rho": float},
    "estimators": {"names": _names},
    "diagnostics": {"delta": float, "r_grid": _floats},
}

#: the estimators a command runs when neither the file nor a flag names one
_ESTIMATORS = ("independence",)


def _default_scenario() -> str:
    """``_KEYS`` as a scenario file holding the class defaults."""
    config = ScenarioConfig()
    holders = {
        "scenario": config,
        "sizes": config.sizes,
        "regressors": config.regressors,
        "truth": config.truth,
        "diagnostics": DiagnosticsParams(),
    }
    blocks = []
    for section, keys in _KEYS.items():
        lines = [f"[{section}]"]
        for key in keys:
            value = getattr(holders[section], key) if section in holders else _ESTIMATORS
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else value
            lines.append(f"{key} = {text}".rstrip())
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def parse_scenario(path: str) -> tuple:
    """Read a scenario INI file; returns (config, estimator names, diag kwargs).

    Each section passes its config class only the keys the file holds, so
    a missing key takes the class default; ``m_max`` defaults to the size
    schedule's maximum. A file configparser rejects, a section or key
    outside ``_KEYS``, or a value that does not parse, is a ConfigError; a
    key's error names its ``section.key``.
    """
    if not os.path.exists(path):
        raise ConfigError(f"scenario file {path} does not exist", field="scenario")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))

    def read(section):
        values = {}
        for key, convert in _KEYS[section].items():
            raw = parser.get(section, key, fallback=None)
            if raw is not None:
                try:
                    values[key] = convert(raw)
                except ValueError:
                    msg = f"bad value {raw!r}"
                    raise ConfigError(msg, field=f"{section}.{key}") from None
        return values

    try:
        with open(path) as fh:
            parser.read_file(fh)
        if not parser.has_section("scenario"):
            raise ConfigError("missing [scenario] section", field="scenario")
        if parser.defaults():
            raise ConfigError("unknown section", field=parser.default_section)
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError("unknown section", field=section)
            for key in parser.options(section):
                if key not in _KEYS[section]:
                    raise ConfigError("unknown key", field=f"{section}.{key}")
        sizes = SizeSchedule(**read("sizes"))
        regressors = RegressorProcess(**read("regressors"))
        truth = TruthSpec(**read("truth"))
        config = ScenarioConfig(
            **{"m_max": sizes.max_size, **read("scenario")},
            sizes=sizes,
            regressors=regressors,
            truth=truth,
        )
        estimators = read("estimators").get("names", _ESTIMATORS)
        diag = asdict(DiagnosticsParams(**read("diagnostics")))
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad scenario file: {exc}", field="scenario") from None
    return config, estimators, diag


def _file_estimators(names: tuple) -> tuple:
    """The scenario file's estimator names, for a command whose flags
    name none; an empty list is refused."""
    if not names:
        raise ConfigError("no estimator named", field="estimators.names")
    return names


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: str, rows, columns, payload: dict) -> None:
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(payload, sort_keys=True)}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_cell(row.get(c)) for c in columns) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _estimator(name, m_max, truth=None):
    """resolve_estimator, with a bad name reported as a configuration error."""
    try:
        return resolve_estimator(name, m_max, truth)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), field="estimator") from None


def _resolve_all(names, config: ScenarioConfig):
    truth = effective_truth(config) if any(map(needs_truth, names)) else None
    return [(n, _estimator(n, config.m_max, truth)) for n in names]


def _spec_only(kind, m_max):
    """The estimator's proxy; independence reads the identity."""
    return kind.spec or WorkingCorrelationSpec.identity(m_max)


def _n_grid(args, n: int) -> tuple:
    """The checkpoints ``--n-grid`` lists, else (n,)."""
    try:
        return _ints(args.n_grid) if args.n_grid else (n,)
    except ValueError:
        msg = f"n_grid must list integers, got {args.n_grid!r}"
        raise ConfigError(msg, field="n_grid") from None


def _cmd_simulate(args) -> int:
    config, _, _ = parse_scenario(args.scenario)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    dataset = simulate_scenario(config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dataset.csv")
    write_dataset(dataset, path)
    meta_path = sidecar_path(path)
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta.update(_run_meta(config, command="simulate", seed=config.seed))
    _write_json(meta_path, meta)
    print(path)
    return 0


def _cmd_fit(args) -> int:
    if args.data:
        dataset = load_dataset(args.data)
        if dataset.link is None:
            raise ConfigError(
                "dataset sidecar does not declare a link", field="data"
            )
        name = args.estimator or "independence"
        kind = _estimator(name, dataset.m_max)
        payload = {
            "command": "fit",
            "data": os.path.abspath(args.data),
            "estimator": name,
            "generator": GENERATOR_ID,
        }
        link = dataset.link
    else:
        config, scenario_estimators, _ = parse_scenario(args.scenario)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        name = args.estimator or _file_estimators(scenario_estimators)[0]
        dataset = simulate_scenario(config)
        kind = _resolve_all([name], config)[0][1]
        payload = _run_meta(config, command="fit", seed=config.seed, estimator=name)
        link = config.link
    fit = solve_gee(dataset, kind, link)
    os.makedirs(args.out, exist_ok=True)
    payload.update(_fit_summary(fit), residual_trace=[float(t[1]) for t in fit.trace])
    _write_json(os.path.join(args.out, "fit.json"), payload)
    print(os.path.join(args.out, "fit.json"))
    return 0 if fit.converged else 3


def _diagnose_worker(config, spec, diag_params, chunk):
    truth = config.truth.template(config.m_max)
    return [
        condition_trajectories(
            ds, config.beta0_array, config.link, spec, truth=truth, params=diag_params
        )
        for ds in _chunk_datasets(config, chunk)
    ]


def _diagnose_params(args, n: int, diag=None) -> DiagnosticsParams:
    """``diagnose``'s knobs on n clusters: the scenario's ``diag`` with
    ``--delta`` over its delta, and the checkpoints of ``--n-grid`` (else
    n), sorted and de-duplicated; a checkpoint outside 1..n is a
    ConfigError. DiagnosticsParams checks the rest."""
    grid = tuple(sorted(set(_n_grid(args, n))))
    if not grid or grid[0] < 1 or grid[-1] > n:
        raise ConfigError(f"n_grid must lie in 1..{n}, got {list(grid)}", field="n_grid")
    fields = dict(diag or {}, n_grid=grid)
    if args.delta is not None:
        fields["delta"] = args.delta
    return DiagnosticsParams(**fields)


def _cmd_diagnose(args) -> int:
    if args.data:
        dataset = load_dataset(args.data)
        if dataset.link is None or dataset.beta0 is None:
            raise ConfigError(
                "diagnosing a raw dataset needs link and beta0 in the sidecar",
                field="data",
            )
        kind = _estimator(args.estimator or "identity", dataset.m_max)
        spec = _spec_only(kind, dataset.m_max)
        params = _diagnose_params(args, dataset.n)
        report = condition_trajectories(
            dataset, dataset.beta0, dataset.link, spec, truth=None, params=params
        )
        payload = {
            "command": "diagnose",
            "data": os.path.abspath(args.data),
            "generator": GENERATOR_ID,
            "report": report.to_json_dict(),
        }
    else:
        config, est_names, diag = parse_scenario(args.scenario)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        name = args.estimator or _file_estimators(est_names)[0]
        spec = _spec_only(_resolve_all([name], config)[0][1], config.m_max)
        params = _diagnose_params(args, config.n, diag)
        reports = _replicate(
            _diagnose_worker, args.reps, params.n_grid, args.jobs, config, spec, params
        )
        payload = _run_meta(
            config,
            command="diagnose",
            seed=config.seed,
            estimator=name,
            reps=args.reps,
            report=reports[0].to_json_dict(),
        )
        if args.reps > 1:
            payload["ensemble"] = _ensemble_summary(reports)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.json")
    _write_json(out_path, payload)
    print(out_path)
    return 0


def _ensemble_summary(reports) -> dict:
    """Per-checkpoint quartiles of every series across the replications;
    a replication that reads inf counts as inf."""
    summary: dict = {}
    for name in reports[0].series:
        quartiles = _quartiles([rep.series[name] for rep in reports])
        summary[name] = {
            key: [_jsonify(v) for v in values]
            for key, values in zip(("q25", "median", "q75"), quartiles)
        }
    return summary


def _cmd_study_consistency(args) -> int:
    config, est_names, _ = parse_scenario(args.scenario)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    names = args.estimator or list(_file_estimators(est_names))
    estimators = _resolve_all(names, config)
    n_grid = _n_grid(args, config.n)
    result = consistency_study(
        config, estimators, args.reps, n_grid, jobs=args.jobs
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "consistency.csv")
    _write_table(
        out_path,
        result.rows,
        [
            "estimator",
            "n",
            "median_err",
            "q1_err",
            "q3_err",
            "converged_fraction",
            "replications_used",
        ],
        result.meta,
    )
    print(out_path)
    if result.meta["failures"] >= args.reps:
        return 3
    return 0


def _cmd_study_optimality(args) -> int:
    config, est_names, _ = parse_scenario(args.scenario)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    names = args.estimator or list(_file_estimators(est_names))
    specs = [(n, _spec_only(k, config.m_max)) for n, k in _resolve_all(names, config)]
    n_grid = _n_grid(args, config.n)
    result = optimality_study(
        config,
        specs,
        args.reps,
        n_grid,
        perturbed=not args.no_perturbed,
        jobs=args.jobs,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "optimality.csv")
    columns = ["spec", "n", "det_ratio_h", "det_ratio_m"]
    if not args.no_perturbed:
        columns += ["det_ratio_h_perturbed", "det_ratio_m_perturbed"]
    _write_table(out_path, result.rows, columns, result.meta)
    print(out_path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgee",
        description="GEE solvers, simulation, and asymptotic-condition "
        "diagnostics for longitudinal data with stochastic regressors.",
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the fully resolved default scenario file and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--scenario", help="scenario INI file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    p_sim = sub.add_parser("simulate", help="write a dataset CSV + metadata")
    common(p_sim)

    p_fit = sub.add_parser("fit", help="solve the estimating equation")
    common(p_fit)
    p_fit.add_argument("--data", help="existing dataset CSV (bypasses simulation)")
    p_fit.add_argument("--estimator", help="estimator name, e.g. exchangeable:0.4")

    p_diag = sub.add_parser("diagnose", help="write a condition report JSON")
    common(p_diag)
    p_diag.add_argument("--data", help="existing dataset CSV")
    p_diag.add_argument("--estimator", help="proxy whose conditions are tracked")
    p_diag.add_argument("--delta", type=float, default=None)
    p_diag.add_argument("--n-grid", dest="n_grid", help="comma list of checkpoints")
    p_diag.add_argument("--reps", type=int, default=1)

    p_cons = sub.add_parser("study-consistency", help="estimation-error table")
    common(p_cons)
    p_cons.add_argument("--estimator", action="append", default=None)
    p_cons.add_argument("--n-grid", dest="n_grid")
    p_cons.add_argument("--reps", type=int, default=100)

    p_opt = sub.add_parser("study-optimality", help="determinant-ratio table")
    common(p_opt)
    p_opt.add_argument("--estimator", action="append", default=None)
    p_opt.add_argument("--n-grid", dest="n_grid")
    p_opt.add_argument("--reps", type=int, default=100)
    p_opt.add_argument("--no-perturbed", action="store_true")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "diagnose": _cmd_diagnose,
    "study-consistency": _cmd_study_consistency,
    "study-optimality": _cmd_study_optimality,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(_default_scenario())
        return 0
    if not args.command:
        parser.print_help()
        return 2
    if args.command != "fit" and args.command != "diagnose":
        if not args.scenario:
            sys.stderr.write("error: --scenario is required\n")
            return 2
    elif not args.scenario and not args.data:
        sys.stderr.write("error: one of --scenario/--data is required\n")
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetParseError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except StochGeeError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
