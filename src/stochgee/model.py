"""Marginal model layer: link functions, clusters, datasets, CSV I/O.

The model couples the conditional mean and variance through one link:
``E[y_ij | history] = mu(x_ij' beta)`` and
``Var[y_ij | history] = mu'(x_ij' beta)``. Cluster order is meaningful:
it encodes the information flow, with the regressors of cluster ``i``
determined by history strictly before ``y_i``. Only the probit link needs
``scipy.special``, so it imports it where it calls it, and SciPy loads on
its first use, not with the package.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DatasetParseError, InvalidInputError

_SQRT2PI = math.sqrt(2.0 * math.pi)


class LinkFunction:
    """Base link; subclasses provide mu and its first three derivatives."""

    kind: str = ""
    #: mu as a bare elementwise function of an array: no order check and
    #: no error-state handling, for loops that set the error state once
    mu = None

    def eval(self, order: int, u):
        """Evaluate mu (order 0) or its order-th derivative at u."""
        if order not in (0, 1, 2, 3):
            raise InvalidInputError(f"derivative order must be 0..3, got {order}")
        u = np.asarray(u, dtype=float)
        out = self._eval(order, u)
        return float(out) if u.ndim == 0 else out

    def _eval(self, order, u):
        raise NotImplementedError

    def inverse(self, y):
        """mu^{-1}; entries outside the range of mu map to NaN."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class IdentityLink(LinkFunction):
    kind = "identity"
    mu = functools.partial(np.add, 0.0)

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
    mu = np.exp

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

    @property
    def mu(self):
        from scipy.special import ndtr

        return ndtr

    @staticmethod
    def _phi(u):
        return np.exp(-0.5 * u * u) / _SQRT2PI

    def _eval(self, order, u):
        if order == 0:
            return self.mu(u)
        phi = self._phi(u)
        if order == 1:
            return phi
        if order == 2:
            return -u * phi
        return (u * u - 1.0) * phi

    def inverse(self, y):
        from scipy.special import ndtri

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


def _row_labels(sizes: np.ndarray) -> tuple:
    """The 1-based cluster index and observation number of every row."""
    starts = np.cumsum(sizes) - sizes
    index = np.repeat(np.arange(1, sizes.shape[0] + 1), sizes)
    return index, np.arange(index.shape[0]) - np.repeat(starts, sizes) + 1


def _check_clusters(index, sizes, widths, p, m_max) -> None:
    """Raise for the first cluster, in cluster order, whose index is not
    its position, whose size is outside 1..m_max or whose width is not p."""
    bad = (index != np.arange(1, index.shape[0] + 1)) | (sizes < 1)
    bad |= (sizes > m_max) | (widths != p)
    if not bad.any():
        return
    pos = int(np.argmax(bad))
    i, size, width = int(index[pos]), int(sizes[pos]), int(widths[pos])
    if i != pos + 1:
        raise InvalidInputError(
            f"non-consecutive cluster index: expected {pos + 1}, got {i}"
        )
    if size < 1:
        raise InvalidInputError(f"cluster {i} is empty")
    if size > m_max:
        raise InvalidInputError(f"cluster {i} has size {size} > m_max {m_max}")
    raise InvalidInputError(
        f"cluster {i} has {width} regressor columns, expected p={p}"
    )


class Dataset:
    """Ordered clusters with the declared maximal cluster size, stored as
    columns and validated once with array checks.

    ``x`` (N, p) and ``y`` (N,) hold every row in cluster order, with
    cluster ``i`` in rows ``offsets[i-1]:offsets[i]`` and ``sizes`` the
    cluster sizes; ``buckets`` group the clusters by size, smallest size
    first. All arrays are read-only, and ``clusters`` are read-only
    ``Cluster`` views into them, built on first access. ``m_max`` is
    declared, never inferred, because working-correlation templates need
    a fixed ambient dimension. ``link`` and ``beta0`` are optional
    metadata carried through the CSV sidecar.
    """

    def __init__(self, clusters, p, m_max, link=None, beta0=None):
        clusters = tuple(clusters)
        if not clusters:
            raise InvalidInputError("dataset has no clusters")
        sizes = np.array([c.size for c in clusters], dtype=np.int64)
        _check_clusters(
            np.array([c.index for c in clusters]),
            sizes,
            np.array([c.regressors.shape[1] for c in clusters]),
            p,
            m_max,
        )
        x = np.concatenate([c.regressors for c in clusters])
        y = np.concatenate([c.response for c in clusters])
        self._store_rows(x, y, sizes, p, m_max, link, beta0)

    @classmethod
    def of_rows(cls, x, y, sizes, p, m_max, link=None, beta0=None) -> "Dataset":
        """The dataset of rows in cluster order: ``x`` (N, p), ``y`` (N,)
        and the int64 cluster ``sizes``, which become its read-only
        storage after the same checks as the cluster constructor's."""
        n = sizes.shape[0]
        if n == 0:
            raise InvalidInputError("dataset has no clusters")
        _check_clusters(np.arange(1, n + 1), sizes, np.full(n, x.shape[1]), p, m_max)
        self = cls._trusted(x, y, sizes, p, m_max, link, beta0)
        bad = ~(np.isfinite(y) & np.isfinite(x).all(axis=1))
        if bad.any():
            i = int(np.searchsorted(self.offsets, np.argmax(bad), side="right"))
            raise InvalidInputError(f"cluster {i} has non-finite entries")
        return self

    @classmethod
    def _trusted(cls, x, y, sizes, p, m_max, link=None, beta0=None) -> "Dataset":
        """``of_rows`` without checks, for producers whose rows are
        consistent by construction; freezes ``x``, ``y`` and ``sizes``."""
        self = object.__new__(cls)
        self._store_rows(x, y, sizes, p, m_max, link, beta0)
        return self

    def _store_rows(self, x, y, sizes, p, m_max, link, beta0) -> None:
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        buckets = []
        for size in np.unique(sizes):
            positions = np.flatnonzero(sizes == size)
            rows = offsets[positions][:, None] + np.arange(size)
            buckets.append(SizeBucket(int(size), positions, x[rows], y[rows]))
        self._store(x, y, sizes, offsets, tuple(buckets), p, m_max, link, beta0)

    def _store(self, x, y, sizes, offsets, buckets, p, m_max, link, beta0) -> None:
        arrays = [x, y, sizes, offsets]
        for arr in arrays + [a for b in buckets for a in (b.positions, b.x, b.y)]:
            arr.setflags(write=False)
        if beta0 is not None:
            beta0 = np.asarray(beta0, dtype=float).copy()
            beta0.setflags(write=False)
        columns = dict(x=x, y=y, sizes=sizes, offsets=offsets, buckets=buckets)
        self.__dict__.update(columns, p=p, m_max=m_max, link=link, beta0=beta0)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Dataset")

    @property
    def n(self) -> int:
        return self.sizes.shape[0]

    @functools.cached_property
    def clusters(self) -> tuple:
        """One read-only ``Cluster`` view into the rows per cluster."""
        bounds = self.offsets.tolist()
        return tuple(
            Cluster._trusted(i, self.y[lo:hi], self.x[lo:hi])
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1)
        )

    @functools.cached_property
    def fold_counts(self) -> np.ndarray:
        """Per-entry cluster counts of the residual-moment fold, (n+1,
        m_max, m_max) int64 and read-only: row ``i`` counts, for every
        template entry, the first ``i`` clusters whose leading block covers
        it. They depend only on the sizes, so a prefix or a shifted copy
        shares them once they are formed."""
        covers = self.sizes[:, None] > np.arange(self.m_max)
        seen = np.zeros((self.n + 1, self.m_max), dtype=np.int64)
        np.cumsum(covers, axis=0, out=seen[1:])
        # entry (a, b) is covered by the clusters of size > max(a, b)
        corner = np.maximum.outer(np.arange(self.m_max), np.arange(self.m_max))
        counts = seen[:, corner]
        counts.setflags(write=False)
        return counts

    def _share_counts(self, out: "Dataset", n: int) -> "Dataset":
        """``out``, a copy of this dataset's first ``n`` clusters, with its
        fold counts read from this dataset's, if they are formed."""
        if "fold_counts" in self.__dict__:
            out.__dict__["fold_counts"] = self.fold_counts[: n + 1]
        return out

    def in_cluster_order(self, parts) -> np.ndarray:
        """Per-bucket stacks of shape (k, m, ..., m), one stack per bucket,
        as one (n, M, ..., M) array in cluster order, every m axis
        zero-padded to the largest cluster size M."""
        size = self.buckets[-1].size
        out = np.zeros((self.n,) + (size,) * (parts[0].ndim - 1))
        for b, v in zip(self.buckets, parts):
            out[(b.positions,) + (slice(b.size),) * (v.ndim - 1)] = v
        return out

    def prefix(self, n: int) -> "Dataset":
        """First ``n`` clusters (the filtration-order prefix), as views
        into this dataset's arrays."""
        if not 1 <= n <= self.n:
            raise InvalidInputError(f"prefix length {n} outside 1..{self.n}")
        if n == self.n:
            return self
        buckets = []
        for b in self.buckets:
            k = int(np.searchsorted(b.positions, n))
            if k:
                buckets.append(SizeBucket(b.size, b.positions[:k], b.x[:k], b.y[:k]))
        rows = self.offsets[n]
        columns = (self.x[:rows], self.y[:rows], self.sizes[:n], self.offsets[: n + 1])
        out = object.__new__(Dataset)
        out._store(*columns, tuple(buckets), self.p, self.m_max, self.link, self.beta0)
        return self._share_counts(out, n)

    def shifted(self, stack: np.ndarray) -> "Dataset":
        """This dataset with regressors ``X_i + delta_i'`` for a zero-padded
        (n, p, max m_i) ``stack`` of deltas; ``y`` and the cluster layout
        are shared, and the buckets keep their positions."""
        moved = np.swapaxes(stack, 1, 2)
        x = self.x + moved[np.arange(moved.shape[1]) < self.sizes[:, None]]
        buckets = tuple(
            SizeBucket(b.size, b.positions, b.x + moved[b.positions, : b.size], b.y)
            for b in self.buckets
        )
        out = object.__new__(Dataset)
        columns = (x, self.y, self.sizes, self.offsets, buckets)
        out._store(*columns, self.p, self.m_max, self.link, self.beta0)
        return self._share_counts(out, self.n)

    def digest(self) -> str:
        """SHA-256 of ``p,m_max`` and then, per cluster, its int64 size,
        its responses and its regressor rows, hashed as one buffer."""
        h = hashlib.sha256()
        h.update(f"{self.p},{self.m_max}".encode())
        x, y, offsets, sizes = self.x, self.y, self.offsets, self.sizes
        p, rows = self.p, np.arange(y.shape[0])
        cluster = np.repeat(np.arange(sizes.shape[0]), sizes)
        # cluster c (0-based) opens at word c + offsets[c] * (p + 1) with
        # its size, then its y and x rows: row r lands at
        # c + 1 + r + offsets[c] * p (y) and c + 1 + offsets[c + 1] + r * p (x)
        words = np.empty(sizes.shape[0] + rows.shape[0] * (p + 1))
        words.view(np.int64)[np.arange(sizes.shape[0]) + offsets[:-1] * (p + 1)] = sizes
        words[cluster + 1 + rows + offsets[cluster] * p] = y
        words[(cluster + 1 + offsets[cluster + 1] + rows * p)[:, None] + np.arange(p)] = x
        h.update(words.tobytes())
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


def as_beta(value) -> np.ndarray:
    """Coerce an array-like into a finite 1-d float vector."""
    b = np.asarray(value, dtype=float)
    if b.ndim == 0:
        b = b[None]
    if b.ndim != 1 or not np.all(np.isfinite(b)):
        raise InvalidInputError("beta must be a finite 1-d vector")
    return b


# ---------------------------------------------------------------------------
# dataset files: long CSV + JSON metadata sidecar


def sidecar_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext == ".csv" else path) + ".meta.json"


def _header(p: int) -> list:
    return ["cluster", "obs", "y"] + [f"x{j+1}" for j in range(p)]


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write the long CSV (17 significant digits) and its metadata sidecar."""
    index, obs = _row_labels(dataset.sizes)
    rows = zip(index.tolist(), obs.tolist(), dataset.y.tolist(), dataset.x.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(dataset.p))
        writer.writerows(
            [i, j, f"{y:.17g}"] + [f"{v:.17g}" for v in x] for i, j, y, x in rows
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


def load_dataset(path: str) -> Dataset:
    """Load a long-CSV dataset; the sidecar declares m_max (never inferred)
    and, when it has ``n``, the cluster count the file must hold.

    One ``np.loadtxt`` call parses the rows, and array checks confirm the
    header, the cluster and observation numbering, m_max and finiteness.
    Whatever that path rejects is read again by the row loop, which
    accepts what it accepted before and raises each ``DatasetParseError``
    with its line number.
    """
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
        n = None if meta.get("n") is None else int(meta["n"])
    except (KeyError, TypeError, ValueError):
        raise DatasetParseError(
            "sidecar must declare integer fields 'p', 'm_max' (and 'n', if any)"
        )
    if p < 1 or m_max < 1:
        raise DatasetParseError(
            f"sidecar 'p' and 'm_max' must be at least 1, got p={p}, m_max={m_max}"
        )
    link, beta0 = meta.get("link"), meta.get("beta0")
    if not (link is None or isinstance(link, str) and link in _LINKS):
        raise DatasetParseError(
            f"sidecar 'link' must be null or one of {sorted(_LINKS)}, got {link!r}"
        )
    if not (beta0 is None or _is_finite_vector(beta0, p)):
        raise DatasetParseError(
            f"sidecar 'beta0' must be null or a list of p={p} finite numbers, "
            f"got {beta0!r}"
        )
    x, y, sizes = _parsed_columns(path, p, m_max) or _parsed_rows(path, p, m_max)
    if n is not None and sizes.shape[0] != n:
        raise DatasetParseError(
            f"sidecar declares n={n} but the file holds {sizes.shape[0]} clusters"
        )
    return Dataset.of_rows(x, y, sizes, p, m_max, link=link, beta0=beta0)


def _is_finite_vector(value, p: int) -> bool:
    """Whether a sidecar value is a list of ``p`` numbers finite as floats."""
    return (
        isinstance(value, list)
        and len(value) == p
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value)
    )


def _parsed_columns(path: str, p: int, m_max: int):
    """(x, y, sizes) from one ``np.loadtxt`` call, or None when anything
    is off: the ids must parse as integers (not via float), the values as
    finite floats, and the numbering must be what the row loop accepts."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(_header(p)):
            return None
        try:
            dtype = [("c", np.int64), ("o", np.int64), ("v", np.float64, (1 + p,))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    ids, values = rows["c"], rows["v"]
    sizes = np.diff(np.flatnonzero(np.concatenate(([1], ids[1:] - ids[:-1], [1]))))
    index, obs = _row_labels(sizes)
    ok = (ids == index).all() and (rows["o"] == obs).all() and sizes.max() <= m_max
    if not (ok and np.isfinite(values).all()):
        return None
    return np.ascontiguousarray(values[:, 1:]), values[:, 0].copy(), sizes


def _parsed_rows(path: str, p: int, m_max: int) -> tuple:
    """(x, y, sizes) from the row loop, which names the line of the first
    malformed row."""
    expected_header = _header(p)
    xs: list = []
    ys: list = []
    sizes: list = []
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
            if cid == len(sizes) + 1:
                sizes.append(0)
            elif cid != len(sizes) or not sizes:
                raise DatasetParseError(
                    f"non-consecutive cluster index {cid} after {len(sizes)}",
                    line=lineno,
                )
            if obs != sizes[-1] + 1:
                raise DatasetParseError(
                    f"bad observation index {obs} in cluster {cid}", line=lineno
                )
            if obs > m_max:
                raise DatasetParseError(
                    f"cluster {cid} exceeds declared m_max={m_max}", line=lineno
                )
            sizes[-1] = obs
            ys.append(vals[0])
            xs.append(vals[1:])
    if not sizes:
        raise DatasetParseError("dataset file has no data rows", line=2)
    return np.array(xs), np.array(ys), np.array(sizes, dtype=np.int64)
