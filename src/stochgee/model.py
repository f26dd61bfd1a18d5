"""Marginal model layer: link functions, clusters, datasets, CSV I/O.

The model couples the conditional mean and variance through one link:
``E[y_ij | history] = mu(x_ij' beta)`` and
``Var[y_ij | history] = mu'(x_ij' beta)``. Cluster order is meaningful:
it encodes the information flow, with the regressors of cluster ``i``
determined by history strictly before ``y_i``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .exceptions import DatasetParseError, InvalidInputError, InvalidVarianceError

_SQRT2PI = math.sqrt(2.0 * math.pi)


class LinkFunction:
    """Base link; subclasses provide mu and its first three derivatives."""

    kind: str = ""

    def eval(self, order: int, u):
        """Evaluate mu (order 0) or its order-th derivative at u."""
        if order not in (0, 1, 2, 3):
            raise InvalidInputError(f"derivative order must be 0..3, got {order}")
        u = np.asarray(u, dtype=float)
        out = self._eval(order, u)
        return float(out) if np.isscalar(u) or u.ndim == 0 else out

    def _eval(self, order, u):
        raise NotImplementedError

    def inverse(self, y):
        """mu^{-1}; entries outside the range of mu map to NaN."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class IdentityLink(LinkFunction):
    kind = "identity"

    def _eval(self, order, u):
        if order == 0:
            return u + 0.0
        if order == 1:
            return np.ones_like(u)
        return np.zeros_like(u)

    def inverse(self, y):
        return np.asarray(y, dtype=float) + 0.0


class LogLink(LinkFunction):
    kind = "log"

    def _eval(self, order, u):
        with np.errstate(over="ignore"):
            return np.exp(u)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(y > 0, np.log(np.maximum(y, 1e-300)), np.nan)
        return out


class ProbitLink(LinkFunction):
    """Probit link. The CDF is the erf-based normal CDF (scipy.special.ndtr,
    accurate to machine precision); derivatives are analytic:
    mu' = phi(u), mu'' = -u phi(u), mu''' = (u^2 - 1) phi(u).
    """

    kind = "probit"

    @staticmethod
    def _phi(u):
        return np.exp(-0.5 * u * u) / _SQRT2PI

    def _eval(self, order, u):
        if order == 0:
            return ndtr(u)
        phi = self._phi(u)
        if order == 1:
            return phi
        if order == 2:
            return -u * phi
        return (u * u - 1.0) * phi

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(invalid="ignore"):
            out = np.where((y > 0) & (y < 1), ndtri(np.clip(y, 1e-300, 1.0)), np.nan)
        return out


_LINKS = {
    "identity": IdentityLink(),
    "log": LogLink(),
    "probit": ProbitLink(),
}


def get_link(name) -> LinkFunction:
    """Look up a link by name; LinkFunction instances pass through."""
    if isinstance(name, LinkFunction):
        return name
    try:
        return _LINKS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown link {name!r}; expected one of {sorted(_LINKS)}"
        ) from None


def link_eval(link, order: int, u):
    """Functional form of LinkFunction.eval."""
    return get_link(link).eval(order, u)


@dataclass(frozen=True)
class Cluster:
    """One cluster: responses ``y_i`` with their regressor rows ``X_i``."""

    index: int
    response: np.ndarray
    regressors: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.response, dtype=float)
        x = np.asarray(self.regressors, dtype=float)
        if y.ndim != 1 or x.ndim != 2:
            raise InvalidInputError(
                f"cluster {self.index}: response must be 1-d and regressors 2-d"
            )
        if x.shape[0] != y.shape[0]:
            raise InvalidInputError(
                f"cluster {self.index}: {y.shape[0]} responses but "
                f"{x.shape[0]} regressor rows"
            )
        if y.shape[0] < 1:
            raise InvalidInputError(f"cluster {self.index} is empty")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise InvalidInputError(f"cluster {self.index} has non-finite entries")
        y = y.copy()
        x = x.copy()
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "regressors", x)

    @property
    def size(self) -> int:
        return self.response.shape[0]

    @classmethod
    def _trusted(cls, index: int, response: np.ndarray, regressors: np.ndarray):
        """Construction without validation or copies, for generators whose
        output is finite and consistently shaped by construction."""
        self = object.__new__(cls)
        response.setflags(write=False)
        regressors.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "regressors", regressors)
        return self


@dataclass(frozen=True)
class SizeBucket:
    """The clusters of one size, stacked: ``x`` is (k, size, p), ``y`` is
    (k, size) and ``positions`` holds their 0-based places in cluster
    order, increasing."""

    size: int
    positions: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class PackedDataset:
    """A dataset's arrays, packed once.

    ``x`` (N, p) and ``y`` (N,) hold every row in cluster order, with
    cluster ``i`` in rows ``offsets[i-1]:offsets[i]``; ``buckets`` group
    the clusters by size, smallest size first. All arrays are read-only.
    """

    x: np.ndarray
    y: np.ndarray
    offsets: np.ndarray
    buckets: tuple

    @classmethod
    def of(cls, clusters) -> "PackedDataset":
        x = np.concatenate([c.regressors for c in clusters])
        y = np.concatenate([c.response for c in clusters])
        sizes = np.array([c.size for c in clusters], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        buckets = []
        for size in np.unique(sizes):
            positions = np.flatnonzero(sizes == size)
            rows = offsets[positions][:, None] + np.arange(size)
            buckets.append(SizeBucket(int(size), positions, x[rows], y[rows]))
        return cls._frozen(x, y, offsets, tuple(buckets))

    @classmethod
    def _frozen(cls, x, y, offsets, buckets) -> "PackedDataset":
        arrays = [x, y, offsets] + [a for b in buckets for a in (b.positions, b.x, b.y)]
        for arr in arrays:
            arr.setflags(write=False)
        return cls(x, y, offsets, buckets)

    def in_cluster_order(self, parts) -> np.ndarray:
        """Per-bucket stacks of shape (k, m, ..., m), one stack per bucket,
        as one (n, M, ..., M) array in cluster order, every m axis
        zero-padded to the largest cluster size M."""
        size = self.buckets[-1].size
        out = np.zeros((self.offsets.shape[0] - 1,) + (size,) * (parts[0].ndim - 1))
        for b, v in zip(self.buckets, parts):
            out[(b.positions,) + (slice(b.size),) * (v.ndim - 1)] = v
        return out

    def prefix(self, n: int) -> "PackedDataset":
        """The pack of the first ``n`` clusters, as views into this one."""
        buckets = []
        for b in self.buckets:
            k = int(np.searchsorted(b.positions, n))
            if k:
                buckets.append(SizeBucket(b.size, b.positions[:k], b.x[:k], b.y[:k]))
        rows = self.offsets[n]
        return PackedDataset._frozen(
            self.x[:rows], self.y[:rows], self.offsets[: n + 1], tuple(buckets)
        )


@dataclass(frozen=True)
class Dataset:
    """Ordered clusters with the declared maximal cluster size.

    ``m_max`` is declared, never inferred, because working-correlation
    templates need a fixed ambient dimension. ``link`` and ``beta0`` are
    optional metadata carried through the CSV sidecar.
    """

    clusters: tuple
    p: int
    m_max: int
    link: Optional[str] = None
    beta0: Optional[np.ndarray] = None

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise InvalidInputError("dataset has no clusters")
        for pos, c in enumerate(clusters, start=1):
            if c.index != pos:
                raise InvalidInputError(
                    f"non-consecutive cluster index: expected {pos}, got {c.index}"
                )
            if c.size > self.m_max:
                raise InvalidInputError(
                    f"cluster {c.index} has size {c.size} > m_max {self.m_max}"
                )
            if c.regressors.shape[1] != self.p:
                raise InvalidInputError(
                    f"cluster {c.index} has {c.regressors.shape[1]} regressor "
                    f"columns, expected p={self.p}"
                )
        object.__setattr__(self, "clusters", clusters)
        if self.beta0 is not None:
            b = np.asarray(self.beta0, dtype=float).copy()
            b.setflags(write=False)
            object.__setattr__(self, "beta0", b)

    @property
    def n(self) -> int:
        return len(self.clusters)

    def prefix(self, n: int) -> "Dataset":
        """First ``n`` clusters (the filtration-order prefix)."""
        if not 1 <= n <= self.n:
            raise InvalidInputError(f"prefix length {n} outside 1..{self.n}")
        if n == self.n:
            return self
        sub = Dataset(self.clusters[:n], self.p, self.m_max, self.link, self.beta0)
        object.__setattr__(sub, "packed", self.packed.prefix(n))
        return sub

    @functools.cached_property
    def packed(self) -> PackedDataset:
        """The clusters packed into stacked arrays and size buckets."""
        return PackedDataset.of(self.clusters)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.p},{self.m_max}".encode())
        for c in self.clusters:
            h.update(np.int64(c.size).tobytes())
            h.update(np.ascontiguousarray(c.response).tobytes())
            h.update(np.ascontiguousarray(c.regressors).tobytes())
        return h.hexdigest()


def dataset_from_arrays(pairs, m_max=None, link=None, beta0=None) -> Dataset:
    """Build a Dataset from a sequence of (y_i, X_i) pairs."""
    clusters = tuple(
        Cluster(i + 1, np.asarray(y, dtype=float), np.asarray(x, dtype=float))
        for i, (y, x) in enumerate(pairs)
    )
    if not clusters:
        raise InvalidInputError("no clusters supplied")
    p = clusters[0].regressors.shape[1]
    if m_max is None:
        m_max = max(c.size for c in clusters)
    return Dataset(clusters, p, int(m_max), link, beta0)


@dataclass(frozen=True)
class ConditionalMoments:
    mean: np.ndarray
    variance_diag: np.ndarray


@dataclass(frozen=True)
class Parameter:
    """Regression parameter with an optional axis-aligned box region."""

    beta: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float).copy()
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise InvalidInputError("beta must be a finite 1-d vector")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float).copy()
                if v.shape != b.shape:
                    raise InvalidInputError(f"{name} bound shape mismatch")
                v.setflags(write=False)
                object.__setattr__(self, name, v)
        if not self.contains(b):
            raise InvalidInputError("beta lies outside its declared box")

    def contains(self, beta) -> bool:
        beta = np.asarray(beta, dtype=float)
        if self.lower is not None and np.any(beta < self.lower):
            return False
        if self.upper is not None and np.any(beta > self.upper):
            return False
        return True

    @property
    def p(self) -> int:
        return self.beta.shape[0]


def as_beta(value) -> np.ndarray:
    """Coerce a Parameter or array-like into a finite 1-d float vector."""
    if isinstance(value, Parameter):
        return value.beta
    b = np.asarray(value, dtype=float)
    if b.ndim == 0:
        b = b[None]
    if b.ndim != 1 or not np.all(np.isfinite(b)):
        raise InvalidInputError("beta must be a finite 1-d vector")
    return b


def conditional_moments(cluster: Cluster, beta, link) -> ConditionalMoments:
    """Conditional means mu(x'beta) and variances mu'(x'beta) for a cluster."""
    beta = as_beta(beta)
    link = get_link(link)
    if cluster.regressors.shape[1] != beta.shape[0]:
        raise InvalidInputError(
            f"cluster {cluster.index}: regressor width "
            f"{cluster.regressors.shape[1]} != len(beta) {beta.shape[0]}"
        )
    eta = cluster.regressors @ beta
    mean = link.eval(0, eta)
    var = link.eval(1, eta)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise InvalidVarianceError(
            f"cluster {cluster.index}: non-finite moments at beta={beta.tolist()}"
        )
    if np.any(var <= 0.0):
        raise InvalidVarianceError(
            f"cluster {cluster.index}: nonpositive conditional variance"
        )
    return ConditionalMoments(mean=mean, variance_diag=var)


# ---------------------------------------------------------------------------
# dataset files: long CSV + JSON metadata sidecar


def sidecar_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext == ".csv" else path) + ".meta.json"


def write_dataset(dataset: Dataset, path: str, fmt: str = "csv") -> None:
    """Write the long CSV (17 significant digits) and its metadata sidecar."""
    if fmt != "csv":
        raise InvalidInputError(f"unsupported dataset format {fmt!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "obs", "y"] + [f"x{j+1}" for j in range(dataset.p)])
        for c in dataset.clusters:
            for j in range(c.size):
                writer.writerow(
                    [c.index, j + 1, f"{c.response[j]:.17g}"]
                    + [f"{v:.17g}" for v in c.regressors[j]]
                )
    meta = {
        "n": dataset.n,
        "p": dataset.p,
        "m_max": dataset.m_max,
        "link": dataset.link,
        "beta0": None if dataset.beta0 is None else [float(v) for v in dataset.beta0],
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str, fmt: str = "csv") -> Dataset:
    """Load a long-CSV dataset; the sidecar declares m_max (never inferred)."""
    if fmt != "csv":
        raise InvalidInputError(f"unsupported dataset format {fmt!r}")
    meta_path = sidecar_path(path)
    if not os.path.exists(meta_path):
        raise DatasetParseError(f"missing metadata sidecar {meta_path}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"invalid metadata sidecar: {exc}") from None
    try:
        p = int(meta["p"])
        m_max = int(meta["m_max"])
    except (KeyError, TypeError, ValueError):
        raise DatasetParseError("sidecar must declare integer fields 'p', 'm_max'")
    link = meta.get("link")
    beta0 = meta.get("beta0")

    expected_header = ["cluster", "obs", "y"] + [f"x{j+1}" for j in range(p)]
    pairs = []
    cur_y: list = []
    cur_x: list = []
    cur_cluster = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError("empty dataset file", line=1) from None
        if header != expected_header:
            raise DatasetParseError(
                f"bad header {header!r}, expected {expected_header!r}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + p:
                raise DatasetParseError(
                    f"ragged row: {len(row)} fields, expected {3 + p}", line=lineno
                )
            try:
                cid = int(row[0])
                obs = int(row[1])
                vals = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DatasetParseError(f"unparseable value: {exc}", line=lineno)
            if not all(math.isfinite(v) for v in vals):
                raise DatasetParseError("non-finite value", line=lineno)
            if cid == cur_cluster + 1:
                if cur_cluster > 0:
                    pairs.append((cur_y, cur_x))
                cur_cluster = cid
                cur_y, cur_x = [], []
            elif cid != cur_cluster:
                raise DatasetParseError(
                    f"non-consecutive cluster index {cid} after {cur_cluster}",
                    line=lineno,
                )
            if obs != len(cur_y) + 1:
                raise DatasetParseError(
                    f"bad observation index {obs} in cluster {cid}", line=lineno
                )
            if obs > m_max:
                raise DatasetParseError(
                    f"cluster {cid} exceeds declared m_max={m_max}", line=lineno
                )
            cur_y.append(vals[0])
            cur_x.append(vals[1:])
    if cur_cluster == 0:
        raise DatasetParseError("dataset file has no data rows", line=2)
    pairs.append((cur_y, cur_x))
    clusters = tuple(
        Cluster(i + 1, np.array(y), np.array(x)) for i, (y, x) in enumerate(pairs)
    )
    return Dataset(
        clusters,
        p,
        m_max,
        link=link,
        beta0=None if beta0 is None else np.asarray(beta0, dtype=float),
    )
