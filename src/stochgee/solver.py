"""Root-finding for estimating equations.

Damped Newton iteration on ``g(beta) = 0`` with a residual-norm line
search, plus the explicit weighted least-squares solution available for
the identity link with fixed proxy correlations.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .estimating import (
    CorrelationTruth,
    EstimatingFunction,
    Lanes,
    _analytic,
    _check_width,
    _checked_inverse,
    _evaluate,
    _stack_by_bucket,
    eval_g,  # unused here; bench/test_bench.py reads solver.eval_g
    freeze_proxy,
)
from .exceptions import (
    InvalidVarianceError,
    SingularDesignError,
    SingularJacobianError,
    StochGeeError,
)
from .model import Dataset, as_beta, get_link


#: the Newton policy, read only by ``_lane``: a lane converges once
#: ||g||_inf < _TOL_G with a last step (or the next Newton step) of norm
#: below _TOL_X; it stops after _MAX_ITER accepted steps, or when neither
#: the full step nor any of its _MAX_HALVINGS halvings lowers ||g||_inf
_TOL_G = 1e-10
_TOL_X = 1e-12
_MAX_ITER = 100
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class GeeFit:
    """Solver output: the root estimate and its convergence record.

    ``stop_reason`` is ``"converged"``, ``"stalled"`` (no halving of the
    step lowered ||g||) or ``"max_iter"``; ``evaluations`` counts the
    points where g was evaluated: the start and every line-search trial,
    over both stages of a staged fit (not a finite-difference Jacobian's).
    """

    beta_hat: np.ndarray
    converged: bool
    iterations: int
    final_residual_norm: float
    trace: tuple  # (beta, ||g||_inf, step norm) per accepted iterate
    stop_reason: str
    evaluations: int


#: the errors that end one lane's solve: ``solve_gee`` raises them, and a
#: study records them for the lane's replication
_LANE_ERRORS = (StochGeeError, np.linalg.LinAlgError)
_INDEPENDENCE = EstimatingFunction.independence()


def default_init(dataset: Dataset, link) -> np.ndarray:
    """Least squares on link-inverted responses, else the zero vector.

    Rows whose response lies outside the link range are dropped; if fewer
    than p usable rows remain (or the reduced design is rank deficient)
    the zero vector is returned.
    """
    lk = get_link(link)
    xs = dataset.x
    z = lk.inverse(dataset.y)
    ok = np.isfinite(z)
    p = dataset.p
    if ok.sum() < p:
        return np.zeros(p)
    xs_ok, z_ok = xs[ok], z[ok]
    sol, _, rank, _ = np.linalg.lstsq(xs_ok, z_ok, rcond=None)
    if rank < p or not np.all(np.isfinite(sol)):
        return np.zeros(p)
    return sol


def _caught(fn, *args):
    """``fn(*args)``, or the lane error (``_LANE_ERRORS``) it raised."""
    try:
        return fn(*args)
    except _LANE_ERRORS as exc:
        return exc


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm's own expression for a 1-d vector, without its checks
    return math.sqrt(v.dot(v))


def _lane(start):
    """One lane's damped Newton iteration, as a generator: it yields each
    point where it needs g, with whether the point is a line-search
    trial, and is sent ``(g, Newton step function, ||g||_inf)`` there, or
    thrown the error the evaluation raised (``InvalidVarianceError`` at a
    trial point outside the link domain makes it a worse point). ``start``
    is a point, or the ``GeeFit`` of a first stage, whose estimate the lane
    continues from and whose evaluations it counts. Returns the lane's
    ``GeeFit``; an error it does not catch ends the lane."""
    beta = getattr(start, "beta_hat", start).copy()
    g, step, gnorm = yield beta, False
    evaluations = getattr(start, "evaluations", 0) + 1
    iterations, last_step, stop = 0, 0.0, "converged"
    trace = [(beta.copy(), gnorm, 0.0)]
    while not (gnorm < _TOL_G and last_step < _TOL_X):
        if iterations == _MAX_ITER:
            stop = "max_iter"
            break
        d = step()
        if gnorm < _TOL_G and _norm(d) < _TOL_X:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = beta + t * d
            evaluations += 1
            try:
                g_try, s_try, gn_try = yield candidate, True
            except InvalidVarianceError:
                gn_try = math.inf
            if gn_try < gnorm:
                break
            t *= 0.5
        else:
            stop = "stalled"  # no step decreases the residual
            break
        last_step = _norm(candidate - beta)
        beta, g, step, gnorm = candidate, g_try, s_try, gn_try
        iterations += 1
        trace.append((beta.copy(), gnorm, last_step))
    return GeeFit(
        beta, stop == "converged", iterations, gnorm, tuple(trace), stop, evaluations
    )


def _replies(lanes, kind, lk, proxy, points, trial) -> list:
    """Each lane's reply at its point of ``points``, evaluated in one batch
    over the stack of ``lanes`` under the proxy ``proxy``: ``(g, Newton step
    function, ||g||_inf)``, or for every lane the lane error the batch
    raised. The Jacobians are formed and solved together on first use;
    where one is singular, each lane solves its own, with the ridge retry."""
    # a g that overflows at a trial point fails the residual test like any
    # worse point, so the overflow is not warned of
    quiet = np.errstate(over="ignore", invalid="ignore") if trial else contextlib.nullcontext()
    try:
        with quiet:
            g, jac = _evaluate(kind, lanes, np.array(points), lk, proxy)
    except _LANE_ERRORS as exc:
        return [exc] * len(points)
    solved = []

    def step(i):
        if not solved:
            d_mat = jac()
            solved.extend((d_mat, _caught(np.linalg.solve, d_mat, g[..., None])))
        d_mat, d = solved
        return _newton_direction(d_mat[i], g[i]) if isinstance(d, Exception) else d[i, :, 0]

    norms = np.abs(g).max(axis=1).tolist()
    return [(g[i], functools.partial(step, i), norms[i]) for i in range(len(g))]


def _newton(lanes, kind, lk, inits, frozen=None, stacked=None) -> list:
    """Damped Newton iteration on ``g(beta) = 0``, every lane of ``lanes``
    stepped in lockstep: the solver's only Newton loop.

    ``inits`` holds each lane's start (see ``_lane``), or the error that
    already ended it; ``frozen`` holds each lane's ``FrozenProxy`` (None
    without one) and ``stacked`` the stack's. Each lane runs its own
    iteration (``_lane``), with its own line search, convergence and stall
    tests and trace, and asks for one point per round; every reply comes
    from ``_replies``. While every lane is running and the Jacobian is
    analytic, a round's points are evaluated in one batch over the stack,
    a lone lane's of one, whatever each lane is doing. Otherwise, or where
    the batch raises, each lane is evaluated as its own stack of one, and
    so meets what it meets alone. Returns per lane its ``GeeFit``, bit for
    bit the one its dataset gives alone, or the error its solve raised.
    """
    batched = _analytic(kind, lk, stacked)
    frozen = frozen or [None] * len(inits)
    alone = []
    out = list(inits)
    steps = {l: _lane(s) for l, s in enumerate(inits) if not isinstance(s, Exception)}
    asks = {l: next(s) for l, s in steps.items()}
    while asks:
        got = None
        if batched and len(asks) == len(inits):
            # the lanes are all at their start, or all at trial points
            got = _replies(lanes, kind, lk, stacked, [p for p, _ in asks.values()], asks[0][1])
        if got is None or isinstance(got[0], Exception):
            alone = alone or [Lanes((ds,)) for ds in lanes.members]
            got = [_replies(alone[l], kind, lk, frozen[l], [p], t)[0] for l, (p, t) in asks.items()]
        for l, reply in zip(list(asks), got):
            lane = steps[l]
            try:
                asks[l] = lane.throw(reply) if isinstance(reply, Exception) else lane.send(reply)
            except StopIteration as stop:
                out[l] = stop.value
                del asks[l]
            except _LANE_ERRORS as exc:
                out[l] = exc
                del asks[l]
    return out


def _newton_direction(d_mat, g):
    try:
        return np.linalg.solve(d_mat, g)
    except np.linalg.LinAlgError:
        pass
    # finite-sample information can be singular early; one ridge retry
    p = d_mat.shape[0]
    ridge = 1e-8 * max(abs(np.trace(d_mat)) / p, 1.0)
    try:
        return np.linalg.solve(d_mat + ridge * np.eye(p), g)
    except np.linalg.LinAlgError:
        raise SingularJacobianError(
            "Jacobian is singular even after ridge regularization"
        ) from None


def _freeze_lanes(lanes, kind, lk, starts) -> tuple:
    """Each lane's ``FrozenProxy`` at its start, or the error freezing it
    raised (an error start passes through), and the stack's, where every
    lane has one: the lanes' proxies as one (``Lanes.freeze``), so that
    each lane is frozen once."""
    frozen = [
        s if isinstance(s, Exception) else _caught(freeze_proxy, kind, ds, s, lk)
        for ds, s in zip(lanes.members, starts)
    ]
    if any(isinstance(f, Exception) for f in frozen):
        return frozen, None
    return frozen, lanes.freeze(frozen)


def _solve(lanes, kind, lk, inits, memo) -> list:
    """Each lane's fit of ``kind``, or the error its solve raised.

    Data-dependent proxy correlations are frozen during each Newton solve
    and refreshed once: an independence fit seeds the proxy, which is
    refolded at that estimate for the refit. The lanes' independence fits
    are made once per ``memo``: they serve every kind that reduces to
    independence, and as the first stage of every staged fit.
    """
    if kind.variant == "general":
        return _newton(lanes, kind, lk, inits)
    staged = not kind.reduces_to_independence and kind.spec.depends_on_data
    starts = inits
    if kind.reduces_to_independence or staged:
        if "independence" not in memo:
            memo["independence"] = _newton(lanes, _INDEPENDENCE, lk, inits)
        if not staged:
            return memo["independence"]
        starts = memo["independence"]
    points = [getattr(s, "beta_hat", s) for s in starts]
    frozen, stacked = _freeze_lanes(lanes, kind, lk, points)
    starts = [f if isinstance(f, Exception) else s for f, s in zip(frozen, starts)]
    return _newton(lanes, kind, lk, starts, frozen, stacked)


def solve_gee(
    dataset: Dataset,
    kind: EstimatingFunction,
    link,
    init=None,
) -> GeeFit:
    """Solve ``g(beta) = 0`` by damped Newton iteration, from ``init`` (of
    the regressor width) or ``default_init``; the error that ends the
    solve is raised. The one-lane case of ``solve_lanes``: a stack of one,
    evaluated as any stack is. Data-dependent proxies are frozen, seeded
    by an independence fit and refolded once (``_solve``).
    """
    lk = get_link(link)
    beta0 = default_init(dataset, lk) if init is None else as_beta(init)
    _check_width(dataset, beta0)
    (fit,) = _solve(Lanes((dataset,)), kind, lk, [beta0], {})
    if isinstance(fit, Exception):
        raise fit
    return fit


def solve_lanes(lanes: Lanes, kinds, link) -> list:
    """Every estimating function of ``kinds`` on every lane of ``lanes``,
    the lanes of a kind stepped in lockstep: per kind, each lane's
    ``GeeFit``, bit for bit that of ``solve_gee``, its stack of one, or the
    error that ``solve_gee`` raises there. Each lane's default start is
    formed once, and its independence fit once, for every kind."""
    lk, memo = get_link(link), {}
    inits = [default_init(ds, lk) for ds in lanes.members]
    return [_solve(lanes, kind, lk, inits, memo) for kind in kinds]


def linear_closed_form(dataset: Dataset, r_sequence) -> np.ndarray:
    """Explicit weighted least-squares root for the identity link.

    ``r_sequence`` is either one SPD template (its leading principal
    submatrix weights each cluster) or a sequence of per-cluster SPD
    matrices. A normal matrix whose smallest eigenvalue is at most 1e-12
    times its largest raises ``SingularDesignError``; the test is relative,
    so it does not depend on the units of the regressors.
    """
    if isinstance(r_sequence, np.ndarray) and r_sequence.ndim == 2:
        template = CorrelationTruth(r_sequence)
        mats = [template.rbar(b.size) for b in dataset.buckets]
    else:
        mats = _stack_by_bucket(dataset, r_sequence)
    p = dataset.p
    normal = np.zeros((p, p))
    rhs = np.zeros(p)
    inverses = _checked_inverse(zip(mats, [b.positions for b in dataset.buckets]))
    for b, rinv in zip(dataset.buckets, inverses):
        xtr = np.swapaxes(b.x, 1, 2) @ rinv
        normal += (xtr @ b.x).sum(axis=0)
        rhs += (xtr @ b.y[..., None]).sum(axis=(0, 2))
    normal = 0.5 * (normal + normal.T)
    lam_min, lam_max = linalg.sym_eigen_extremes(normal)
    if lam_min <= 1e-12 * lam_max:
        raise SingularDesignError(
            f"normal matrix is singular (lambda_min={lam_min:.3e})",
            lambda_min=lam_min,
        )
    return linalg.spd_solve(normal, rhs)
