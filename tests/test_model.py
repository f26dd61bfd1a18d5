import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgee import (
    Cluster,
    Dataset,
    DatasetParseError,
    InvalidInputError,
    InvalidVarianceError,
    Perturbation,
    dataset_from_arrays,
    get_link,
    load_dataset,
    write_dataset,
)
from stochgee.estimating import _moments
from stochgee.model import _parsed_columns, sidecar_path

from oracles import loop_digest, loop_load_dataset, loop_write_dataset

LINKS = ["identity", "log", "probit"]


class TestLinks:
    def test_log_all_orders_at_zero(self):
        for order in range(4):
            assert get_link("log").eval(order, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_identity_orders(self):
        assert get_link("identity").eval(0, 2.5) == 2.5
        assert get_link("identity").eval(1, 2.5) == 1.0
        assert get_link("identity").eval(2, 2.5) == 0.0
        assert get_link("identity").eval(3, 2.5) == 0.0

    def test_probit_at_zero(self):
        assert get_link("probit").eval(0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert get_link("probit").eval(1, 0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_order_out_of_range(self):
        with pytest.raises(InvalidInputError):
            get_link("log").eval(4, 0.0)

    @pytest.mark.parametrize("name", LINKS)
    def test_first_derivative_positive(self, name):
        u = np.linspace(-3.0, 3.0, 61)
        assert np.all(get_link(name).eval(1, u) > 0)

    @pytest.mark.parametrize("name", LINKS)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, name, order):
        link = get_link(name)
        h = 1e-5
        for u in np.linspace(-3.0, 3.0, 25):
            fd = (link.eval(order - 1, u + h) - link.eval(order - 1, u - h)) / (2 * h)
            exact = link.eval(order, u)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_inverses(self):
        u = np.linspace(-2.0, 2.0, 9)
        for name in LINKS:
            link = get_link(name)
            np.testing.assert_allclose(link.inverse(link.eval(0, u)), u, atol=1e-9)

    def test_unknown_link(self):
        with pytest.raises(InvalidInputError):
            get_link("cauchit")


class TestClusterDataset:
    def test_cluster_validation(self):
        with pytest.raises(InvalidInputError):
            Cluster(1, np.array([1.0, 2.0]), np.ones((3, 2)))
        with pytest.raises(InvalidInputError):
            Cluster(1, np.array([np.inf]), np.ones((1, 1)))

    def test_dataset_requires_consecutive_indices(self):
        c1 = Cluster(1, np.zeros(2), np.ones((2, 1)))
        c3 = Cluster(3, np.zeros(2), np.ones((2, 1)))
        with pytest.raises(InvalidInputError, match="non-consecutive"):
            Dataset((c1, c3), 1, 2)

    def test_dataset_m_max_enforced(self):
        c1 = Cluster(1, np.zeros(3), np.ones((3, 1)))
        with pytest.raises(InvalidInputError, match="m_max"):
            Dataset((c1,), 1, 2)

    def test_prefix(self):
        ds = dataset_from_arrays(
            [(np.zeros(2), np.ones((2, 1))), (np.ones(2), np.ones((2, 1)))]
        )
        assert ds.prefix(1).n == 1
        assert ds.prefix(2) is ds


def cluster_moments(x, beta, link):
    """Conditional means and variances of a one-cluster dataset with
    regressors ``x``, from the batched kernel's ``_moments``."""
    x = np.asarray(x, dtype=float)
    ds = dataset_from_arrays([(np.zeros(x.shape[0]), x)])
    ((mean, var),) = _moments(ds, np.asarray(beta, dtype=float), get_link(link))
    return mean[0], var[0]


class TestConditionalMoments:
    def test_identity_link(self):
        x = np.arange(6.0).reshape(3, 2)
        mean, var = cluster_moments(x, [1.0, -1.0], "identity")
        np.testing.assert_allclose(mean, x @ [1.0, -1.0])
        np.testing.assert_allclose(var, np.ones(3))

    def test_log_link_zero_eta(self):
        mean, var = cluster_moments(np.zeros((2, 2)), [3.0, -1.0], "log")
        np.testing.assert_allclose(mean, np.ones(2))
        np.testing.assert_allclose(var, np.ones(2))

    def test_log_link_scalar_example(self):
        mean, var = cluster_moments([[1.0], [2.0]], [0.5], "log")
        np.testing.assert_allclose(mean, [math.exp(0.5), math.exp(1.0)], rtol=1e-15)
        np.testing.assert_allclose(var, [math.exp(0.5), math.exp(1.0)], rtol=1e-15)

    def test_row_permutation_consistency(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2))
        beta = np.array([0.3, -0.2])
        perm = [2, 0, 3, 1]
        mean_a, var_a = cluster_moments(x, beta, "log")
        mean_b, var_b = cluster_moments(x[perm], beta, "log")
        np.testing.assert_allclose(mean_a[perm], mean_b)
        np.testing.assert_allclose(var_a[perm], var_b)

    def test_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            cluster_moments(np.ones((2, 2)), [1.0], "identity")

    def test_variance_overflow_rejected(self):
        with pytest.raises(InvalidVarianceError):
            cluster_moments([[1000.0]], [1.0], "log")


class TestDatasetIO:
    def _toy(self):
        return dataset_from_arrays(
            [
                (np.array([0.25, -1.5]), np.array([[1.0, 0.5], [0.0, 2.0]])),
                (
                    np.array([1.0, 2.0, 3.0]),
                    np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
                ),
            ],
            m_max=3,
            link="identity",
            beta0=np.array([0.5, -0.5]),
        )

    def test_round_trip(self, tmp_path):
        ds = self._toy()
        path = str(tmp_path / "data.csv")
        write_dataset(ds, path)
        back = load_dataset(path)
        assert back.n == 2 and back.p == 2 and back.m_max == 3
        assert back.link == "identity"
        for a, b in zip(ds.clusters, back.clusters):
            np.testing.assert_array_equal(a.response, b.response)
            np.testing.assert_array_equal(a.regressors, b.regressors)
        assert back.digest() == ds.digest()

    def test_round_trip_random_values(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = dataset_from_arrays(
            [(rng.standard_normal(3), rng.standard_normal((3, 2)) * 1e-7)],
            link="log",
        )
        path = str(tmp_path / "d.csv")
        write_dataset(ds, path)
        assert load_dataset(path).digest() == ds.digest()

    def test_sizes_fixture(self, tmp_path):
        ds = self._toy()
        path = str(tmp_path / "d.csv")
        write_dataset(ds, path)
        back = load_dataset(path)
        assert [c.size for c in back.clusters] == [2, 3]
        assert back.m_max >= 3

    def test_non_consecutive_cluster_ids(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,obs,y,x1\n1,1,0.0,1.0\n3,1,0.0,1.0\n")
        (tmp_path / "bad.meta.json").write_text(
            json.dumps({"n": 2, "p": 1, "m_max": 2, "link": None, "beta0": None})
        )
        with pytest.raises(DatasetParseError, match="non-consecutive") as err:
            load_dataset(str(path))
        assert err.value.line == 3

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,obs,y,x1\n1,1,0.0,1.0\n1,2,0.0\n")
        (tmp_path / "bad.meta.json").write_text(
            json.dumps({"n": 1, "p": 1, "m_max": 2, "link": None, "beta0": None})
        )
        with pytest.raises(DatasetParseError, match="ragged") as err:
            load_dataset(str(path))
        assert err.value.line == 3

    def test_size_above_m_max(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["cluster,obs,y,x1"] + [f"1,{j},0.0,1.0" for j in (1, 2, 3)]
        path.write_text("\n".join(rows) + "\n")
        (tmp_path / "bad.meta.json").write_text(
            json.dumps({"n": 1, "p": 1, "m_max": 2, "link": None, "beta0": None})
        )
        with pytest.raises(DatasetParseError, match="m_max") as err:
            load_dataset(str(path))
        assert err.value.line == 4

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "alone.csv"
        path.write_text("cluster,obs,y,x1\n1,1,0.0,1.0\n")
        with pytest.raises(DatasetParseError, match="sidecar"):
            load_dataset(str(path))

    def test_sidecar_path(self):
        assert sidecar_path("a/b.csv") == "a/b.meta.json"
        assert sidecar_path("a/b.dat") == "a/b.dat.meta.json"


class TestColumnarDataset:
    def test_clusters_are_cached_read_only_views_of_the_pack(self):
        ds = dataset_from_arrays(
            [(np.zeros(2), np.ones((2, 1))), (np.ones(3), np.arange(3.0)[:, None])]
        )
        assert "clusters" not in vars(ds)
        clusters = ds.clusters
        assert ds.clusters is clusters
        assert [c.index for c in clusters] == [1, 2]
        for c in clusters:
            assert np.shares_memory(c.response, ds.y)
            assert np.shares_memory(c.regressors, ds.x)
            assert not c.response.flags.writeable
            assert not c.regressors.flags.writeable

    def test_dataset_is_immutable(self):
        ds = dataset_from_arrays([(np.zeros(2), np.ones((2, 1)))])
        with pytest.raises(AttributeError):
            ds.p = 2

    def test_of_rows_checks_the_arrays(self):
        x, y = np.ones((5, 2)), np.zeros(5)
        sizes = np.array([2, 3])
        ds = Dataset.of_rows(x.copy(), y.copy(), sizes, 2, 3)
        assert ds.n == 2 and ds.sizes.tolist() == [2, 3]
        with pytest.raises(InvalidInputError, match="cluster 2 has size 3 > m_max 2"):
            Dataset.of_rows(x.copy(), y.copy(), sizes, 2, 2)
        with pytest.raises(InvalidInputError, match="cluster 1 has 2 regressor columns"):
            Dataset.of_rows(x.copy(), y.copy(), sizes, 3, 3)
        bad = x.copy()
        bad[3, 1] = np.nan
        with pytest.raises(InvalidInputError, match="cluster 2 has non-finite entries"):
            Dataset.of_rows(bad, y.copy(), sizes, 2, 3)

    def test_prefix_slices_the_pack(self):
        ds = dataset_from_arrays(
            [(np.full(m, float(m)), np.full((m, 1), float(m))) for m in (2, 1, 3)]
        )
        sub = ds.prefix(2)
        assert sub.n == 2 and sub.sizes.tolist() == [2, 1]
        assert np.shares_memory(sub.x, ds.x)
        assert [c.size for c in sub.clusters] == [2, 1]


def _write_meta(path, p, m_max, n=None):
    meta = {"p": p, "m_max": m_max, "link": None, "beta0": None}
    if n is not None:
        meta["n"] = n
    with open(sidecar_path(str(path)), "w") as fh:
        json.dump(meta, fh)


def _same_dataset(got, ref):
    assert got.n == ref.n and got.p == ref.p and got.m_max == ref.m_max
    assert got.sizes.tolist() == ref.sizes.tolist()
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.y.tobytes() == ref.y.tobytes()
    assert got.digest() == ref.digest()


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12),
    p=st.integers(1, 4),
    data=st.data(),
)
def test_digest_matches_cluster_loop(sizes, p, data):
    values = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = sum(sizes)
    flat = data.draw(st.lists(values, min_size=rows * (1 + p), max_size=rows * (1 + p)))
    v = np.array(flat).reshape(rows, 1 + p)
    ds = Dataset.of_rows(
        np.ascontiguousarray(v[:, 1:]), v[:, 0].copy(), np.array(sizes), p, max(sizes)
    )
    assert ds.digest() == loop_digest(ds)
    head = ds.prefix(data.draw(st.integers(1, len(sizes))))
    assert head.digest() == loop_digest(head)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shifted_is_the_dataset_of_moved_regressors(sizes, p, seed, data):
    # sizes in random order, m_max declared above the largest one
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal(m), rng.standard_normal((m, p))) for m in sizes]
    ds = dataset_from_arrays(pairs, m_max=max(sizes) + 1)
    for n in (len(sizes), data.draw(st.integers(1, len(sizes)))):
        deltas = [rng.uniform(-0.1, 0.1, size=(p, m)) for m in sizes[:n]]
        got = ds.prefix(n).shifted(Perturbation(deltas, bound=1.0).stack)
        ref = dataset_from_arrays(
            [(y, x + d.T) for (y, x), d in zip(pairs, deltas)], m_max=ds.m_max
        )
        _same_dataset(got, ref)
        assert len(got.buckets) == len(ref.buckets)
        for b, r in zip(got.buckets, ref.buckets):
            assert b.size == r.size
            assert b.positions.tolist() == r.positions.tolist()
            assert b.x.tobytes() == r.x.tobytes()
            assert b.y.tobytes() == r.y.tobytes()
            assert not b.x.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    extra=st.integers(0, 1),
    data=st.data(),
)
def test_fold_counts_count_the_leading_blocks(sizes, extra, data):
    # row i counts, per entry, the first i clusters whose leading block
    # covers it: the prefix sums of the clusters' masks
    m_max = max(sizes) + extra
    pairs = [(np.zeros(m), np.zeros((m, 1))) for m in sizes]
    ds = dataset_from_arrays(pairs, m_max=m_max)
    mask = np.zeros((len(sizes) + 1, m_max, m_max), dtype=np.int64)
    for i, m in enumerate(sizes):
        mask[i + 1, :m, :m] = 1
    n = data.draw(st.integers(1, len(sizes)))
    early = ds.prefix(n)
    counts = ds.fold_counts
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert counts.tobytes() == np.cumsum(mask, axis=0).tobytes()
    # a copy made once the counts are formed shares them; one made before
    # forms its own
    shifted = ds.shifted(np.zeros((len(sizes), 1, max(sizes))))
    assert np.shares_memory(shifted.fold_counts, counts)
    assert np.shares_memory(ds.prefix(n).fold_counts, counts)
    assert early.fold_counts.tobytes() == counts[: n + 1].tobytes()


class TestLoaderMatchesRowLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        p=st.integers(1, 4),
        fmt=st.sampled_from(["17g", "repr"]),
        data=st.data(),
    )
    def test_same_arrays_as_the_row_loop(self, sizes, p, fmt, data):
        values = st.one_of(
            st.sampled_from(EDGE_VALUES),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        rows = sum(sizes)
        flat = data.draw(st.lists(values, min_size=rows * (1 + p), max_size=rows * (1 + p)))
        v = np.array(flat).reshape(rows, 1 + p)
        m_max = max(sizes) + data.draw(st.integers(0, 1))
        ds = Dataset.of_rows(
            np.ascontiguousarray(v[:, 1:]), v[:, 0].copy(), np.array(sizes), p, m_max
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            if fmt == "17g":
                write_dataset(ds, path)
            else:
                _write_repr(path, ds)
            # both layouts take the one-call path
            assert _parsed_columns(path, p, m_max) is not None
            got, ref = load_dataset(path), loop_load_dataset(path)
        _same_dataset(got, ref)
        _same_dataset(got, ds)

    HEADER = "cluster,obs,y,x1\n"
    CASES = {
        "id 1.0": "1.0,1,0.5,1.0\n",
        "id 1e0": "1e0,1,0.5,1.0\n",
        "id 1_0": "1_0,1,0.5,1.0\n",
        "id +1": "+1,1,0.5,1.0\n2,1,0.25,2.0\n",
        "id space": " 1,1,0.5,1.0\n1 ,2,0.25,2.0\n",
        "obs gap": "1,1,0.5,1.0\n1,3,0.5,1.0\n",
        "obs above m_max": "1,1,0.5,1.0\n1,2,0.5,1.0\n1,3,0.5,1.0\n",
        "nan": "1,1,nan,1.0\n",
        "inf": "1,1,0.5,inf\n",
        "infinity": "1,1,-Infinity,1.0\n",
        "ragged short": "1,1,0.5,1.0\n1,2,0.5\n",
        "ragged long": "1,1,0.5,1.0,2.0\n",
        "quoted fields": '"1","1","0.5","1.0"\n"2",1,0.25,"2"\n',
        "quoted comma": '1,1,"0.5,1",1.0\n',
        "value 1_0": "1,1,1_0,1.0\n",
        "blank line mid-file": "1,1,0.5,1.0\n\n2,1,0.25,2.0\n",
        "whitespace line": "1,1,0.5,1.0\n  \n2,1,0.25,2.0\n",
        "crlf": "1,1,0.5,1.0\r\n1,2,-0.0,2e-310\r\n2,1,0.25,2.0\r\n",
        "lone cr": "1,1,0.5,1.0\r2,1,0.25,2.0\r",
        "header only": "",
        "blank lines only": "\n\n",
        "non-consecutive id": "1,1,0.5,1.0\n3,1,0.5,1.0\n",
        "id back to 1": "1,1,0.5,1.0\n2,1,0.5,1.0\n1,2,0.5,1.0\n",
        "hash": "1,1,0.5#c,1.0\n",
        "hash at end": "1,1,0.5,1.0#c\n",
        "big id": "99999999999999999999,1,0.5,1.0\n",
        "empty field": "1,1,,1.0\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_error_parity(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes((self.HEADER + self.CASES[name]).encode())
        _write_meta(path, 1, 2)
        try:
            ref = loop_load_dataset(str(path))
        except Exception as exc:
            with pytest.raises(type(exc)) as err:
                load_dataset(str(path))
            assert str(err.value) == str(exc)
            assert getattr(err.value, "line", None) == getattr(exc, "line", None)
        else:
            _same_dataset(load_dataset(str(path)), ref)

    @pytest.mark.parametrize(
        "header", ["cluster,obs,y\n", "cluster,obs,y,x1,x2\n", '"cluster",obs,y,x1\n', ""]
    )
    def test_header_parity(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(header + "1,1,0.5,1.0\n")
        _write_meta(path, 1, 2)
        try:
            ref = loop_load_dataset(str(path))
        except DatasetParseError as exc:
            with pytest.raises(DatasetParseError) as err:
                load_dataset(str(path))
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
        else:
            _same_dataset(load_dataset(str(path)), ref)

    def test_header_only_file_under_ignored_warnings(self, tmp_path):
        # np.loadtxt warns on input without data; whatever the caller's
        # warning filters, that must end in the row loop's error
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER)
        _write_meta(path, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DatasetParseError, match="no data rows") as err:
                load_dataset(str(path))
        assert err.value.line == 2

    def test_cluster_id_zero_is_rejected(self, tmp_path):
        # the row loop used to drop leading rows of a cluster 0 silently
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "0,1,0.5,1.0\n1,1,0.5,1.0\n")
        _write_meta(path, 1, 2)
        with pytest.raises(DatasetParseError, match="non-consecutive") as err:
            load_dataset(str(path))
        assert err.value.line == 2


def _write_repr(path, ds):
    """The benchmark's layout: ``repr`` values, LF line ends."""
    lines = [",".join(["cluster", "obs", "y"] + [f"x{j + 1}" for j in range(ds.p)])]
    for c in ds.clusters:
        for j in range(c.size):
            vals = [c.response[j]] + list(c.regressors[j])
            lines.append(",".join([str(c.index), str(j + 1)] + [repr(float(v)) for v in vals]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_meta(path, ds.p, ds.m_max, n=ds.n)


class TestSidecarCount:
    def _written(self, tmp_path):
        ds = dataset_from_arrays(
            [(np.full(m, 0.5 * m), np.full((m, 2), float(m))) for m in (2, 3, 1)],
            m_max=3,
        )
        path = tmp_path / "d.csv"
        write_dataset(ds, str(path))
        return ds, path

    def test_truncated_file_is_rejected(self, tmp_path):
        ds, path = self._written(tmp_path)
        lines = path.read_bytes().split(b"\r\n")
        # header, 2 + 3 rows: cut before the last cluster's single row
        path.write_bytes(b"\r\n".join(lines[:6]) + b"\r\n")
        assert loop_load_dataset(str(path)).n == 2
        with pytest.raises(DatasetParseError, match="n=3 but the file holds 2 clusters"):
            load_dataset(str(path))

    def test_sidecar_without_n_is_accepted(self, tmp_path):
        ds, path = self._written(tmp_path)
        _write_meta(path, 2, 3)
        assert load_dataset(str(path)).digest() == ds.digest()

    @pytest.mark.parametrize("fields", [{"p": 0}, {"p": -1}, {"m_max": 0}])
    def test_p_or_m_max_below_one_is_rejected(self, tmp_path, fields):
        path = tmp_path / "d.csv"
        path.write_text("cluster,obs,y\n1,1,0.5\n1,2,0.7\n")
        meta = {"p": 1, "m_max": 2, "link": None, "beta0": None, **fields}
        (tmp_path / "d.meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetParseError, match="^sidecar 'p' and 'm_max' must"):
            load_dataset(str(path))

    def test_non_integer_n_is_rejected(self, tmp_path):
        ds, path = self._written(tmp_path)
        meta = json.loads(open(sidecar_path(str(path))).read())
        meta["n"] = "three"
        with open(sidecar_path(str(path)), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(DatasetParseError, match="integer fields"):
            load_dataset(str(path))


def _rewrite_meta(path, **fields):
    meta = json.loads(open(sidecar_path(str(path))).read())
    meta.update(fields)
    with open(sidecar_path(str(path)), "w") as fh:
        json.dump(meta, fh)


class TestSidecarMetadata:
    def _written(self, tmp_path):
        ds = dataset_from_arrays(
            [(np.full(m, 0.5 * m), np.full((m, 2), float(m))) for m in (2, 3, 1)],
            m_max=3,
            link="log",
            beta0=[0.1, -0.2],
        )
        path = tmp_path / "d.csv"
        write_dataset(ds, str(path))
        return ds, path

    @pytest.mark.parametrize("link", ["bogus", "Log", 3, ["log"]])
    def test_unknown_link_is_a_parse_error(self, tmp_path, link):
        _, path = self._written(tmp_path)
        _rewrite_meta(path, link=link)
        with pytest.raises(DatasetParseError, match="'link'"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "beta0",
        [
            "abc",
            0.1,
            [0.1, 0.2, 0.3],
            [0.1],
            [0.1, None],
            [True, 0.1],
            ["0.1", 0.2],
            [10**400, 0.1],
        ],
    )
    def test_malformed_beta0_is_a_parse_error(self, tmp_path, beta0):
        _, path = self._written(tmp_path)
        _rewrite_meta(path, beta0=beta0)
        with pytest.raises(DatasetParseError, match="'beta0'"):
            load_dataset(str(path))

    def test_non_finite_beta0_is_a_parse_error(self, tmp_path):
        _, path = self._written(tmp_path)
        _rewrite_meta(path, beta0=[0.1, float("nan")])
        with pytest.raises(DatasetParseError, match="'beta0'"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "link, beta0", [(None, None), ("identity", [1, -2]), ("probit", [0.5, 0.0])]
    )
    def test_well_formed_metadata_is_kept(self, tmp_path, link, beta0):
        ds, path = self._written(tmp_path)
        _rewrite_meta(path, link=link, beta0=beta0)
        got = load_dataset(str(path))
        assert got.link == link and got.digest() == ds.digest()
        if beta0 is None:
            assert got.beta0 is None
        else:
            assert got.beta0.tolist() == [float(b) for b in beta0]


class TestWriterBytes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes_as_the_cluster_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(30):
            m = int(rng.integers(1, 5))
            scale = 10.0 ** rng.integers(-300, 300)
            pairs.append((rng.standard_normal(m) * scale, rng.standard_normal((m, 3))))
        pairs.append((np.array([-0.0, 5e-324]), np.array([[0.0, -1e-310, 1e300]] * 2)))
        ds = dataset_from_arrays(pairs, m_max=4, link="log", beta0=[0.5, -0.25, 1.0])
        write_dataset(ds, str(tmp_path / "new.csv"))
        loop_write_dataset(ds, str(tmp_path / "old.csv"))
        for name in ("{}.csv", "{}.meta.json"):
            new = (tmp_path / name.format("new")).read_bytes()
            assert new == (tmp_path / name.format("old")).read_bytes()
