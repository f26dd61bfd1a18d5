"""Dense symmetric-matrix numerics for small ambient dimensions.

Everything here targets matrices no larger than the maximal cluster size
(a few dozen at most). Inputs are checked for finiteness and symmetry
before LAPACK computes eigenvalues, singular values and Cholesky
factors; the screens' bounds take unchecked stacks. The independent
eigenvalue oracles of the test suite pin the results. Every routine
calls NumPy's LAPACK (``np.linalg``), so none of them loads SciPy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .exceptions import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SymmetryViolationError,
)

#: absolute tolerance on max |M - M^T| before an input is rejected
SYMMETRY_TOL = 1e-10


class EigenExtremes(NamedTuple):
    lambda_min: float
    lambda_max: float


def _check_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} contains NaN or infinite entries")
    return m


def _check_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = _check_finite(m, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {m.shape}")
    return m


def symmetrize_checked(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2 as a new array once max |M - M^T| <= SYMMETRY_TOL.

    Finite-difference Jacobians carry roundoff asymmetry; anything beyond
    the tolerance is treated as a caller bug rather than silently averaged.
    """
    m = _check_square(m)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise SymmetryViolationError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} > {SYMMETRY_TOL:.1e}"
        )
    return 0.5 * (m + m.T)


def sym_eigh(m: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix."""
    return np.linalg.eigh(symmetrize_checked(m))


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return sym_eigh(m)[0]


def sym_eigen_extremes(m: np.ndarray) -> EigenExtremes:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    w = sym_eigenvalues(m)
    return EigenExtremes(float(w[0]), float(w[-1]))


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a
    (..., r, c) stack; a 2-D input gives a float.

    Every entry must be finite; an empty matrix has norm 0.0. The norm is
    the first (largest) singular value of LAPACK's SVD, the call that
    ``np.linalg.norm(m, 2)`` makes, one matrix at a time, so a stack and
    its matrices taken alone agree bit for bit.
    """
    m = _check_finite(m)
    if m.ndim < 2:
        m = np.atleast_2d(m)
    if 0 in m.shape[-2:]:
        norms = np.zeros(m.shape[:-2])
    else:
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def _fold(ufunc, a, axis=-1):
    """``ufunc.reduce(a, axis)`` one slice at a time: NumPy reduces along
    a short axis far more slowly. The axis must not be empty."""
    return functools.reduce(ufunc, np.moveaxis(a, axis, 0))


#: relative widening of the screens' bounds: far above the rounding of the
#: bounds and of LAPACK on the small matrices this module serves
_SCREEN_MARGIN = 1e-10
_TINY = float(np.finfo(float).tiny)


def spectral_bounds(stack: np.ndarray, top: bool = False) -> tuple:
    """Widened (lower, upper) bounds per matrix of a nonempty (..., r, c)
    stack: of the spectral norm, the largest column 2-norm and the
    Frobenius norm (Horn & Johnson, *Matrix Analysis*, 5.6); with ``top``,
    of the largest eigenvalue of a symmetric matrix, the largest diagonal
    entry and the largest absolute row sum (6.1), so an upper bound is not
    negative. Each moves outward by ``_SCREEN_MARGIN`` times its magnitude
    plus ``sqrt(r * c * tiny)``, which covers squares that underflow. A
    matrix whose upper bound is not finite (a NaN or infinite entry, or a
    sum that overflows) gets (-inf, inf).
    """
    r, c = stack.shape[-2:]
    floor = math.sqrt(r * c * _TINY)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if top:
            lower = _fold(np.maximum, np.diagonal(stack, 0, -2, -1))
            upper = _fold(np.maximum, _fold(np.add, np.abs(stack)))
        else:
            cols = np.einsum("...ij,...ij->...j", stack, stack)
            lower = np.sqrt(_fold(np.maximum, cols))
            upper = np.sqrt(_fold(np.add, cols))
        lower = lower - (_SCREEN_MARGIN * np.abs(lower) + floor)
        upper = upper * (1.0 + _SCREEN_MARGIN) + floor
    bounded = np.isfinite(upper)
    return np.where(bounded, lower, -np.inf), np.where(bounded, upper, np.inf)


def spectral_norm_exceeds(stack: np.ndarray, limits) -> np.ndarray:
    """``spectral_norm(stack) > limits`` for a (..., r, c) stack, element for
    element; a 2-D input gives a 0-d array. Only a matrix whose
    ``spectral_bounds`` straddle or touch its limit, or that they leave
    unbounded, takes ``spectral_norm``, which raises on a non-finite entry.
    """
    stack = np.asarray(stack, dtype=float)
    limits = np.broadcast_to(np.asarray(limits, dtype=float), stack.shape[:-2])
    if 0 in stack.shape[-2:]:
        # an empty matrix has norm 0
        return np.zeros(limits.shape) > limits
    lower, upper = spectral_bounds(stack)
    exceeds = np.asarray(lower > limits)
    exact = ~(exceeds | (upper < limits))
    if exact.any():
        exceeds[exact] = spectral_norm(stack[exact]) > limits[exact]
    return exceeds


def _radius_profile(s: np.ndarray, k: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # max |eigenvalue| of cos(t)*S + i sin(t)*K via the real symmetric
    # embedding [[cS, -sK], [sK, cS]] (spectrum of the Hermitian matrix,
    # doubled), batched over the angle grid
    n = s.shape[0]
    ct = np.cos(thetas)[:, None, None]
    st = np.sin(thetas)[:, None, None]
    emb = np.empty((len(thetas), 2 * n, 2 * n))
    emb[:, :n, :n] = ct * s
    emb[:, n:, n:] = ct * s
    emb[:, :n, n:] = -st * k
    emb[:, n:, :n] = st * k
    w = np.linalg.eigvalsh(emb)
    return np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))


#: angles of the numerical radius's profile over [0, pi), before the polish
_RADIUS_GRID = 256


def numerical_radius(m: np.ndarray) -> float:
    """Numerical radius sup |x* M x| over complex unit vectors.

    Equals max over angles t of the largest-magnitude eigenvalue of the
    Hermitian part of e^{it} M; for symmetric input this collapses to the
    largest absolute eigenvalue. The classical two-sided bound
    r(M) <= ||M|| <= 2 r(M) holds for this definition on every matrix,
    which the restriction to real unit vectors does not provide (a real
    quadratic form vanishes on the skew part).
    """
    m = _check_square(m)
    if m.size == 0:
        return 0.0
    s = 0.5 * (m + m.T)
    k = 0.5 * (m - m.T)
    lo, hi = sym_eigen_extremes(s)
    sym_part = max(abs(lo), abs(hi))
    skew_scale = float(np.max(np.abs(k))) if k.size else 0.0
    if skew_scale <= 1e-14 * max(1.0, float(np.max(np.abs(m)))):
        return sym_part
    # profile over the half period [0, pi); the other half mirrors it
    thetas = np.linspace(0.0, np.pi, _RADIUS_GRID, endpoint=False)
    vals = _radius_profile(s, k, thetas)
    best = float(vals.max())
    # golden-section polish around the top grid peaks
    order = np.argsort(vals)[::-1][:3]
    step = np.pi / _RADIUS_GRID
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    for idx in order:
        a, b = thetas[idx] - step, thetas[idx] + step
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc = float(_radius_profile(s, k, np.array([c]))[0])
        fd = float(_radius_profile(s, k, np.array([d]))[0])
        while b - a > 1e-10:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = float(_radius_profile(s, k, np.array([c]))[0])
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = float(_radius_profile(s, k, np.array([d]))[0])
            best = max(best, fc, fd)
    return max(best, sym_part)


def spd_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M X = B for symmetric positive-definite M.

    Cholesky factorization, then up to three rounds of iterative
    refinement, which stop once no entry of the multiply-back residual
    exceeds 0.25e-10 * max|B|; the residual stays below 1e-10 * ||B||_inf
    for condition numbers up to about 1e8. Each solve goes through the
    factor L by two triangular substitutions on NumPy's LAPACK; no
    explicit inverse is formed. An empty right-hand side gives an empty
    solution of its shape.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization or a solve through the factor fails; the
        error carries lambda_min.
    """
    m = symmetrize_checked(m)
    b = _check_finite(np.asarray(b, dtype=float), "right-hand side")
    vector = b.ndim == 1
    bm = b[:, None] if vector else b
    if bm.shape[0] != m.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: matrix {m.shape} vs rhs {bm.shape}"
        )
    try:
        chol = np.linalg.cholesky(m)
        # np.linalg.solve runs an LU with partial pivoting, which on an
        # upper triangular matrix is exact and pivots nothing, leaving a
        # plain back substitution. So L y = r is solved on L with rows and
        # columns reversed (upper triangular), not on L, whose LU may pivot.
        flipped = chol[::-1, ::-1]

        def _solve(rhs):
            y = np.linalg.solve(flipped, rhs[::-1])[::-1]
            return np.linalg.solve(chol.T, y)

        x = _solve(bm)
        stop = 0.25e-10 * max(float(np.max(np.abs(bm), initial=0.0)), 1e-300)
        for _ in range(3):
            resid = bm - m @ x
            if float(np.max(np.abs(resid), initial=0.0)) <= stop:
                break
            x = x + _solve(resid)
    except np.linalg.LinAlgError:
        lam_min = float(sym_eigenvalues(m)[0])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (lambda_min={lam_min:.3e})",
            lambda_min=lam_min,
        ) from None
    return x[:, 0] if vector else x
