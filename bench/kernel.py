"""The reference kernel: the benchmark's unit of time.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a factor of up to 1.6 within seconds as other tenants come and go, and
every computation with a similar instruction mix drifts with it by much
the same factor. So the benchmark times the reference kernel right before
and after each operation and reports the operation's time as a multiple
of the kernel's. Most of the drift cancels in that ratio, and what is
left moves with the program.

The kernel is plain NumPy and does not import stochgee, so no change to
the package can move it. It has the program's own instruction mix: a
Python loop over clusters of size 3 with small array operations and
LAPACK calls on 3x3 matrices, much like the per-cluster loops of the
estimating function and the pseudo-likelihood fold.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: fixed inputs; the kernel is a measuring stick, not a workload input
KERNEL_SEED = 20171113
KERNEL_CLUSTERS = 60
KERNEL_SWEEPS = 4
#: timed runs per calibration; the median counts
KERNEL_REPEATS = 3
#: the kernel's median time on the machine of the reference figures in
#: README.md; set-up time, which needs seconds, is reported in seconds of
#: that machine: its kernel-relative value times this
KERNEL_NOMINAL_S = 0.013


class ReferenceKernel:
    """A fixed GEE-like computation whose time is the benchmark's unit."""

    def __init__(self):
        rng = np.random.default_rng(KERNEL_SEED)
        self.X = rng.standard_normal((KERNEL_CLUSTERS, 3, 2))
        self.Y = rng.random((KERNEL_CLUSTERS, 3)) + 0.5
        self.R = np.full((3, 3), 0.4)
        np.fill_diagonal(self.R, 1.0)

    def run(self) -> np.ndarray:
        """A few damped Newton-like sweeps of a log-link estimating function
        with a running residual-moment proxy; returns the final beta."""
        beta = np.array([0.5, -0.3])
        eye3 = np.eye(3)
        for _ in range(KERNEL_SWEEPS):
            g = np.zeros(2)
            h = np.zeros((2, 2))
            s = eye3
            for i in range(KERNEL_CLUSTERS):
                x = self.X[i]
                mu = np.exp(x @ beta)
                sd = np.sqrt(mu)
                chol = np.linalg.cholesky(0.8 * self.R + 0.2 * s)
                u = (self.Y[i] - mu) / sd
                g += x.T @ (sd * np.linalg.solve(chol @ chol.T, u))
                d = x * sd[:, None]
                h += d.T @ np.linalg.solve(self.R, d)
                s = (s * (i + 4) + np.outer(u, u)) / (i + 5)
            beta = beta + 0.01 * np.linalg.solve(h + np.eye(2), g)
        return beta

    def seconds(self) -> float:
        """Median wall time of ``KERNEL_REPEATS`` runs."""
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
