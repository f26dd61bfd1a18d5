"""One SHA-256 over the solver's results on fixed simulated data.

Run it against a source tree and compare the digests of two trees:

    PYTHONPATH=<tree>/src python tests/bit_digest.py

Two trees print the same digest exactly when every record below is
byte-identical. The inputs are fixed simulated datasets: the identity,
log and probit links, constant (3) and random (1-3) cluster sizes, and
the estimators independence, ``exchangeable:0.4``, ``ar1:0.3``, pseudo
and a ``general`` callback with C_i = X_i'. The records are, for
``solve_gee`` on prefixes, ``solve_lanes`` on stacks of prefixes and
``run_replications`` at ``jobs=1`` and ``jobs=2``: ``beta_hat`` and the
trace as bytes, the stop reason and the evaluations, and each error by
type and message. ``eval_g`` and ``jacobian`` at fixed points are added.

Pytest does not collect this file (it has no ``test_`` prefix); it uses
only the public API and ``estimating.Lanes``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from stochgee import (
    EstimatingFunction,
    RegressorProcess,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    dataset_from_arrays,
    eval_g,
    jacobian,
    resolve_estimator,
    run_replications,
    simulate_replications,
    solve_gee,
)
from stochgee.estimating import Lanes
from stochgee.solver import solve_lanes

LINKS = ("identity", "log", "probit")
SIZES = {
    "constant": SizeSchedule(kind="constant", m=3),
    "random": SizeSchedule(kind="random", lo=1, hi=3),
}
NAMES = ("independence", "exchangeable:0.4", "ar1:0.3", "pseudo")
PREFIXES = (6, 25, 60)
POINTS = ((0.3, -0.2), (-0.5, 0.8))


def callback(history, x, beta):
    """C_i = X_i': the independence function through the callback variant
    (module level, so that ``jobs=2`` can pickle it)."""
    return x.T


def estimators() -> list:
    named = [(name, resolve_estimator(name, 3)) for name in NAMES]
    return named + [("general", EstimatingFunction.general(callback))]


def scenario(link: str, sizes: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        link=link,
        beta0=(0.4, -0.4),
        n=60,
        m_max=3,
        sizes=SIZES[sizes],
        regressors=RegressorProcess(kind="iid", scale=0.6),
        truth=TruthSpec(kind="exchangeable", rho=0.4),
        response_family="gaussian_link_moments",
        seed=seed,
    )


def array(a) -> str:
    a = np.asarray(a, dtype=float)
    return f"{a.shape}:{a.tobytes().hex()}"


def fit_record(fit) -> str:
    if isinstance(fit, Exception):
        return f"error {type(fit).__name__}: {fit}"
    trace = ";".join(f"{array(b)},{float(g).hex()},{float(s).hex()}" for b, g, s in fit.trace)
    return (
        f"fit {array(fit.beta_hat)} {fit.converged} {fit.iterations} "
        f"{float(fit.final_residual_norm).hex()} {fit.stop_reason} {fit.evaluations} [{trace}]"
    )


def caught(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded by type and message
        return exc


def value_record(value) -> str:
    if isinstance(value, Exception):
        return f"error {type(value).__name__}: {value}"
    return array(value)


def replication_record(res) -> str:
    def walk(v):
        if isinstance(v, dict):
            return "{" + ",".join(f"{k}={walk(v[k])}" for k in sorted(v)) + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(walk(x) for x in v) + "]"
        if isinstance(v, float):
            return v.hex()
        return repr(v)

    return walk(
        {
            "replication": res.replication,
            "digest": res.digest,
            "fits": res.fits,
            "first": res.first_converged_n,
            "error": res.error,
        }
    )


def duplicate_columns() -> tuple:
    """50 clusters of size 3 with x = (1, z, z), whose every Jacobian is
    singular (the ridge retry), and the same clusters with x = (1, z, z^2/10)."""
    rng = np.random.default_rng(1)
    z = rng.standard_normal((50, 3))
    y = np.exp(0.3 + 0.5 * z) + 0.1 * rng.standard_normal((50, 3))
    twice = dataset_from_arrays(
        [(yi, np.column_stack((np.ones(3), zi, zi))) for yi, zi in zip(y, z)], m_max=3
    )
    other = dataset_from_arrays(
        [(yi, np.column_stack((np.ones(3), zi, 0.1 * zi**2))) for yi, zi in zip(y, z)],
        m_max=3,
    )
    return twice, other


def records():
    kinds = estimators()
    for link in LINKS:
        for sizes in SIZES:
            cfg = scenario(link, sizes, seed=7 + len(link))
            reps = simulate_replications(cfg, range(3))
            head = f"{link}/{sizes}"
            for name, kind in kinds:
                for n in PREFIXES:
                    ds = reps[0].prefix(n)
                    yield f"{head} solve_gee {name} n={n}", fit_record(caught(solve_gee, ds, kind, link))
                for point in POINTS:
                    ds = reps[1]
                    g = caught(eval_g, kind, ds, point, link)
                    jac = caught(jacobian, kind, ds, point, link)
                    yield f"{head} eval_g {name} {point}", value_record(g)
                    yield f"{head} jacobian {name} {point}", value_record(jac)
            # lanes: prefixes of the three replications, in mixed order
            members = [reps[r].prefix(n) for r, n in ((2, 60), (0, 6), (1, 25), (0, 60), (2, 13))]
            fits = solve_lanes(Lanes(members), [k for _, k in kinds], link)
            for (name, _), per_lane in zip(kinds, fits):
                for l, fit in enumerate(per_lane):
                    yield f"{head} solve_lanes {name} lane={l}", fit_record(fit)
            for jobs in (1, 2):
                results = run_replications(cfg, 4, kinds, (6, 25, 60), jobs=jobs)
                for res in results:
                    yield f"{head} run_replications jobs={jobs}", replication_record(res)
    twice, other = duplicate_columns()
    members = [other.prefix(30), twice.prefix(40), other, twice]
    for link in ("identity", "log"):
        for name, kind in kinds:
            fits = solve_lanes(Lanes(members), [kind], link)[0]
            for l, fit in enumerate(fits):
                yield f"ridge {link} solve_lanes {name} lane={l}", fit_record(fit)
            for init in ((800.0, 0.0, 0.0), (-6.0, 0.0, 0.0)):
                fit = caught(solve_gee, other, kind, link, init=np.array(init))
                yield f"domain {link} solve_gee {name} {init}", fit_record(fit)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for key, record in records():
        digest.update(f"{key}\n{record}\n".encode())
        count += 1
    print(f"{digest.hexdigest()}  ({count} records)")


if __name__ == "__main__":
    main()
