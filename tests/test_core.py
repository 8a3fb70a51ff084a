import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import dakr.core
from dakr import DistanceMetric, FeatureSet, RankedList
from dakr.core import ASCENDING_DISTANCE, DESCENDING_SCORE, pairwise, scan_self_distances
from dakr.errors import DimensionMismatch, InvalidMetric, InvalidParams, NonFiniteValue

from conftest import SCAN_DATA, scan_data


class TestFeatureSet:
    def test_basic_construction(self):
        fs = FeatureSet([3, 1, 2], [[0.0], [1.0], [2.0]])
        assert len(fs) == 3
        assert fs.dim == 1

    def test_rejects_duplicate_ids(self):
        for ids in ([1, 1], [3, 1, 3], [7, 2, 9, 2]):
            with pytest.raises(InvalidParams, match="ids must be unique"):
                FeatureSet(ids, np.zeros((len(ids), 2)))

    def test_rejects_negative_ids(self):
        with pytest.raises(InvalidParams):
            FeatureSet([-1, 0], [[0.0], [1.0]])

    def test_rejects_fractional_ids(self):
        for ids in ([1.5, 2.9], [1.5, 1.7], [0.0, math.nan], [0.0, math.inf]):
            with pytest.raises(InvalidParams, match="ids must be integers"):
                FeatureSet(ids, [[0.0], [1.0]])

    def test_accepts_integral_float_ids(self):
        fs = FeatureSet([2.0, 0.0], [[0.0], [1.0]])
        assert fs.ids.tolist() == [2, 0]
        assert fs.ids.dtype == np.int64

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            FeatureSet([0, 1], [[0.0], [float("nan")]])

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(InvalidParams):
            FeatureSet([0], [[0.0], [1.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParams):
            FeatureSet([], np.empty((0, 3)))

    def test_arrays_are_read_only(self):
        fs = FeatureSet([0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            fs.vectors[0, 0] = 5.0

    def test_digest_stable_and_content_sensitive(self):
        a = FeatureSet([0, 1], [[0.0], [1.0]])
        b = FeatureSet([0, 1], [[0.0], [1.0]])
        c = FeatureSet([0, 1], [[0.0], [1.5]])
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()


class TestDistance:
    def test_euclidean_345(self):
        assert pairwise(DistanceMetric.euclidean(), (0, 0), (3, 4))[0, 0] == 5.0

    def test_mahalanobis_identity_zero(self):
        m = DistanceMetric.mahalanobis(np.eye(2))
        assert pairwise(m, (1, 2), (1, 2))[0, 0] == 0.0

    def test_mahalanobis_diag(self):
        # direct expansion: 1*4*1 + 1*1*1 = 5
        m = DistanceMetric.mahalanobis(np.diag([4.0, 1.0]))
        assert pairwise(m, (0, 0), (1, 1))[0, 0] == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_squared_euclidean(self):
        assert pairwise(DistanceMetric.squared_euclidean(), (0, 0), (1, 1))[0, 0] == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairwise(DistanceMetric.euclidean(), (0, 0), (1, 1, 1))

    def test_non_psd_matrix_rejected(self):
        with pytest.raises(InvalidMetric):
            DistanceMetric.mahalanobis([[1.0, 0.0], [0.0, -1.0]])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InvalidMetric):
            DistanceMetric.mahalanobis([[1.0, 0.5], [0.0, 1.0]])
        # the tolerance scales with the norm: an asymmetry of 1e-5 is
        # rounding noise on entries of order 1e6
        DistanceMetric.mahalanobis([[2e6, 1e6], [1e6 + 1e-5, 3e6]])

    def test_slightly_indefinite_matrix_accepted(self):
        # learned metrics are often numerically indefinite; tiny negative
        # eigenvalues relative to the spectral norm must pass
        m = np.eye(3)
        m[2, 2] = -1e-12
        DistanceMetric.mahalanobis(m)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        mat = rng.normal(size=(6, 6))
        psd = mat @ mat.T
        for metric in (
            DistanceMetric.euclidean(),
            DistanceMetric.squared_euclidean(),
            DistanceMetric.mahalanobis(psd),
        ):
            assert pairwise(metric, a, b)[0, 0] == pytest.approx(
                pairwise(metric, b, a)[0, 0], abs=1e-12
            )
            assert pairwise(metric, a, a)[0, 0] == 0.0

    @pytest.mark.parametrize("dim", [1, 7, 64])
    def test_either_order_gives_the_same_bytes(self, dim):
        # k-RNN reads a member's distance to the probe from the probe's row.
        rng = np.random.default_rng(dim)
        a, b = rng.normal(size=(9, dim)), 3.0 * rng.normal(size=(13, dim)) + 0.5
        mat = rng.normal(size=(dim, dim))
        for metric in (
            DistanceMetric.euclidean(),
            DistanceMetric.squared_euclidean(),
            DistanceMetric.mahalanobis(mat @ mat.T),
        ):
            forward = pairwise(metric, a, b)
            assert forward.tobytes() == pairwise(metric, b, a).T.tobytes(), metric.kind
            for i in range(len(a)):
                assert pairwise(metric, b, a[i]).ravel().tobytes() == forward[i].tobytes()


class TestDistanceMatrix:
    def test_one_dimensional_points(self):
        q = FeatureSet([0], [[0.0]])
        r = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        out = pairwise(DistanceMetric.euclidean(), q.vectors, r.vectors)
        assert out.tolist() == [[0.0, 1.0, 3.0]]

    def test_squared_euclidean_hand_expansion(self):
        fs = FeatureSet([0, 1], [[0.0, 0.0], [1.0, 1.0]])
        out = pairwise(DistanceMetric.squared_euclidean(), fs.vectors, fs.vectors)
        assert out.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_matches_scalar_distance(self):
        rng = np.random.default_rng(3)
        q = FeatureSet(np.arange(4), rng.normal(size=(4, 3)))
        r = FeatureSet(np.arange(5), rng.normal(size=(5, 3)))
        metric = DistanceMetric.euclidean()
        out = pairwise(metric, q.vectors, r.vectors)
        for i in range(4):
            for j in range(5):
                assert out[i, j] == pytest.approx(
                    pairwise(metric, q.vectors[i], r.vectors[j])[0, 0], rel=1e-12
                )

    def test_monotone_link_same_ordering(self):
        rng = np.random.default_rng(11)
        q = FeatureSet([0], rng.normal(size=(1, 4)))
        r = FeatureSet(np.arange(10), rng.normal(size=(10, 4)))
        de = pairwise(DistanceMetric.euclidean(), q.vectors, r.vectors)[0]
        ds = pairwise(DistanceMetric.squared_euclidean(), q.vectors, r.vectors)[0]
        np.testing.assert_allclose(ds, de**2, rtol=1e-9)
        assert np.argsort(de, kind="stable").tolist() == np.argsort(ds, kind="stable").tolist()


_GEMM_METRICS = [
    (DistanceMetric.euclidean(), "euclidean"),
    (DistanceMetric.squared_euclidean(), "sqeuclidean"),
]


def _cdist_reference(vectors, name):
    """Full cdist matrix with inf on the diagonal."""
    full = cdist(vectors, vectors, metric=name)
    np.fill_diagonal(full, np.inf)
    return full


class TestScanSelfDistances:
    def test_blocks_cover_the_matrix_in_order(self, monkeypatch):
        # 600 entries per block over 60 samples: six blocks of ten rows,
        # each within its rounding bound of the exact (squared) distances,
        # and every selection made from them equal to cdist's bytes
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 600)
        rng = np.random.default_rng(17)
        features = FeatureSet(np.arange(60), rng.normal(size=(60, 3)))
        for metric, name in _GEMM_METRICS:
            expected = _cdist_reference(features.vectors, name)
            kth = np.partition(expected, 4, axis=1)[:, 4]
            key = expected**2 if metric.kind == "euclidean" else expected
            for n_threads in (None, 1, 4):
                blocks = scan_self_distances(
                    metric,
                    features.vectors,
                    lambda b: (
                        b.start,
                        b.approx.copy(),
                        b.eps.copy(),
                        b.kth_smallest(5),
                        b.count_within(kth[b.start:b.stop]),
                    ),
                    n_threads,
                )
                assert [b[0] for b in blocks] == list(range(0, 60, 10))
                approx = np.vstack([b[1] for b in blocks])
                eps = np.concatenate([b[2] for b in blocks])
                assert np.all(np.isinf(np.diag(approx)))
                np.fill_diagonal(approx, 0.0)
                assert np.all(np.abs(approx - np.where(np.isinf(key), 0.0, key)) <= eps[:, None])
                assert np.concatenate([b[3] for b in blocks]).tobytes() == kth.tobytes()
                counts = np.concatenate([b[4] for b in blocks])
                np.testing.assert_array_equal(counts, np.sum(expected <= kth[:, None], axis=1))

    def test_mahalanobis_blocks_are_exact_rows(self, monkeypatch):
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 600)
        rng = np.random.default_rng(23)
        vectors = rng.integers(-2, 3, size=(60, 3)).astype(np.float64)
        metric = DistanceMetric.mahalanobis(np.diag([1.0, 2.0, 3.0]))
        expected = pairwise(metric, vectors, vectors)
        np.fill_diagonal(expected, np.inf)
        kth = np.partition(expected, 2, axis=1)[:, 2]
        blocks = scan_self_distances(
            metric,
            vectors,
            lambda b: (b.approx.copy(), b.eps.copy(), b.kth_smallest(3),
                       b.count_within(kth[b.start:b.stop]), b.rescored),
        )
        np.testing.assert_array_equal(np.vstack([b[0] for b in blocks]), expected)
        assert not np.concatenate([b[1] for b in blocks]).any()
        assert np.concatenate([b[2] for b in blocks]).tobytes() == kth.tobytes()
        np.testing.assert_array_equal(
            np.concatenate([b[3] for b in blocks]), np.sum(expected <= kth[:, None], axis=1)
        )
        assert sum(b[4] for b in blocks) == 0


class TestBoundarySelection:
    """Exact k-th values and counts from the GEMM scan, bit for bit
    against a full cdist matrix and np.partition."""

    @pytest.mark.parametrize("n_threads", [None, 1, 4])
    @pytest.mark.parametrize("data", SCAN_DATA)
    def test_selections_match_cdist(self, monkeypatch, data, n_threads):
        # 700 entries per block: seven rows of 90
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        rng = np.random.default_rng(SCAN_DATA.index(data))
        vectors = scan_data(data, rng)
        probes = vectors[rng.choice(len(vectors), 4)] + rng.normal(size=(4, vectors.shape[1]))
        for metric, name in _GEMM_METRICS:
            full = _cdist_reference(vectors, name)
            for k in (1, 4, 89):
                kth = np.partition(full, k - 1, axis=1)[:, k - 1]
                limits = [kth] + [cdist(p[None, :], vectors, metric=name)[0] for p in probes]
                blocks = scan_self_distances(
                    metric,
                    vectors,
                    lambda b: (
                        b.kth_smallest(k),
                        [b.count_within(t[b.start:b.stop]) for t in limits],
                    ),
                    n_threads,
                )
                got = np.concatenate([b[0] for b in blocks])
                assert got.tobytes() == kth.tobytes(), (name, k)
                for i, t in enumerate(limits):
                    counts = np.concatenate([b[1][i] for b in blocks])
                    np.testing.assert_array_equal(counts, np.sum(full <= t[:, None], axis=1))

    def test_near_ties_inside_the_bound(self):
        # sample 0 is the centre of a sphere of antipodal pairs: its
        # distances, and the pairs' largest ones, differ in their last bits
        # only, far below the rounding bound, so no approximation orders them
        rng = np.random.default_rng(31)
        units = rng.normal(size=(40, 8))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        radii = 3.0 * (1.0 + rng.integers(-3, 4, size=(40, 1)) * np.finfo(np.float64).eps)
        sphere = np.vstack([np.zeros(8), radii * units, -radii * units])
        # a far sample moves the mean off the centre, so the GEMM's rounding
        # error outgrows the distances' spread
        far = np.vstack([sphere, np.full((1, 8), 400.0)])
        for (metric, name), vectors in itertools.product(_GEMM_METRICS, (sphere, far)):
            full = _cdist_reference(vectors, name)
            for k in (1, 2, 7):
                kth = np.partition(full, k - 1, axis=1)[:, k - 1]
                ((got, counts),) = scan_self_distances(
                    metric, vectors, lambda b: (b.kth_smallest(k), b.count_within(kth))
                )
                assert got.tobytes() == kth.tobytes(), (name, k)
                np.testing.assert_array_equal(counts, np.sum(full <= kth[:, None], axis=1))

    def test_entries_below_a_band_edge_under_zero(self):
        # a hand-made block within its bound of 1: row 0's squared
        # distances are 0 and 1.5, approximated as -0.9 and 1.5, so the
        # -0.9 lies under the band's low edge 1.5 - 2 while its clamped
        # copy, 0, does not
        vectors = np.array([[0.0], [0.0], [math.sqrt(1.5)]])
        approx = np.array([[np.inf, -0.9, 1.5], [0.0, np.inf, 1.5], [1.5, 1.5, np.inf]])
        block = dakr.core.SelfBlock(
            DistanceMetric.euclidean(), vectors, 0, approx, np.ones(3), False, np.empty((3, 3))
        )
        full = cdist(vectors, vectors)
        np.fill_diagonal(full, np.inf)
        for k in (1, 2):
            kth = np.partition(full, k - 1, axis=1)[:, k - 1]
            assert block.kth_smallest(k).tobytes() == kth.tobytes(), k

    def test_ties_widen_the_band(self):
        # on the lattice several entries tie with the k-th, so they are
        # re-scored; on spread-out data only the k-th entry itself is
        rng = np.random.default_rng(5)
        metric = DistanceMetric.euclidean()
        for data, wide in (("lattice", True), ("gaussian", False)):
            vectors = scan_data(data, rng)
            (rescored,) = scan_self_distances(
                metric, vectors, lambda b: (b.kth_smallest(4), b.rescored)[1]
            )
            assert (rescored > len(vectors)) == wide, data

    def test_pair_rescoring_has_the_bytes_of_full_rows(self):
        # under Mahalanobis too, whose full rows are pairwise()'s einsum rows
        rng = np.random.default_rng(29)
        for dim in (1, 7, 64):
            vectors = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-3, 4)
            scattered, cols = rng.integers(0, 300, size=(2, 2000))
            basis = rng.normal(size=(dim, dim))
            mahalanobis = DistanceMetric.mahalanobis(basis @ basis.T + np.eye(dim))
            fulls = [(m, cdist(vectors, vectors, metric=name)) for m, name in _GEMM_METRICS]
            fulls.append((mahalanobis, pairwise(mahalanobis, vectors, vectors)))
            # scattered rows, then runs of about a hundred and a thousand
            # pairs per row
            for rows in (scattered, np.sort(scattered % 20), np.sort(scattered % 2)):
                for metric, full in fulls:
                    got = dakr.core._pair_distances(metric, vectors, rows, cols)
                    assert got.tobytes() == full[rows, cols].tobytes(), (metric.kind, dim)
            # single-pair calls
            for metric, full in fulls:
                for pair in zip(scattered[:100], cols[:100]):
                    rows, col = np.array(pair[:1]), np.array(pair[1:])
                    got = dakr.core._pair_distances(metric, vectors, rows, col)
                    assert got.tobytes() == full[rows, col].tobytes(), (metric.kind, dim)

    @pytest.mark.parametrize("pairs", [0, 1, 1024, 1025, 5000])
    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_pair_rescoring_calls_pairwise_once_per_chunk(self, monkeypatch, pairs, dim):
        calls = []

        def counting(metric, queries, refs):
            calls.append(len(refs))
            return pairwise(metric, queries, refs)

        monkeypatch.setattr(dakr.core, "pairwise", counting)
        rng = np.random.default_rng(pairs + dim)
        vectors = rng.normal(size=(50, dim))
        rows, cols = rng.integers(0, 50, size=(2, pairs))
        for chunk in (dakr.core._PAIR_BUDGET, 64):
            monkeypatch.setattr(dakr.core, "_PAIR_BUDGET", chunk)
            calls.clear()
            dakr.core._pair_distances(DistanceMetric.euclidean(), vectors, rows, cols)
            assert len(calls) == math.ceil(pairs * dim / chunk), chunk
            assert sum(calls) == pairs

    def test_overflowing_differences_are_inf_without_a_warning(self):
        # each coordinate's difference is +-2e308, past float64, which numpy's
        # subtraction warns about and cdist does not
        vectors = np.array([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1e-300]])
        rows, cols = np.array([0, 1, 0, 2]), np.array([1, 0, 0, 2])
        for metric, name in _GEMM_METRICS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = dakr.core._pair_distances(metric, vectors, rows, cols)
            assert got.tolist() == [math.inf, math.inf, 0.0, 0.0], name


@given(
    dim=st.integers(1, 130),
    exponents=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=6),
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
    chunk=st.integers(1, 300),
    kind=st.sampled_from(dakr.core.METRIC_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_pair_rescoring_matches_full_rows(dim, exponents, pairs, chunk, kind, seed):
    # per-row magnitudes from 1e-150 to 1e150; pairs repeat, include (i, i)
    # whenever a row index wraps onto itself, and may be none at all; a
    # chunk of a few entries splits one call into several
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(len(exponents), dim)) * 10.0 ** np.array(exponents)[:, None]
    index = np.array(pairs, dtype=np.int64).reshape(-1, 2) % len(exponents)
    rows, cols = index[:, 0], index[:, 1]
    if kind == dakr.core.MAHALANOBIS:
        basis = rng.normal(size=(dim, dim))
        metric = DistanceMetric.mahalanobis(basis @ basis.T + np.eye(dim))
    else:
        metric = DistanceMetric(kind)
    with np.errstate(all="ignore"):
        full = pairwise(metric, vectors, vectors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dakr.core, "_PAIR_BUDGET", chunk)
        with np.errstate(all="ignore"):
            got = dakr.core._pair_distances(metric, vectors, rows, cols)
    assert got.tobytes() == full[rows, cols].tobytes()


class TestBlockBuffers:
    """The scan's blocks live in buffers that later blocks overwrite."""

    @pytest.mark.parametrize("n_threads", [None, 1, 4])
    @pytest.mark.parametrize("data", ["gaussian", "lattice"])
    def test_selections_neither_change_nor_alias_the_block(self, monkeypatch, data, n_threads):
        # 700 entries per block: twelve blocks of seven rows of 90, then six
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        vectors = scan_data(data, np.random.default_rng(41))
        mahalanobis = DistanceMetric.mahalanobis(np.diag(np.arange(1.0, vectors.shape[1] + 1)))
        for metric in [m for m, _ in _GEMM_METRICS] + [mahalanobis]:
            # cdist's matrix under the GEMM metrics
            full = pairwise(metric, vectors, vectors)
            np.fill_diagonal(full, np.inf)
            kth = np.partition(full, 2, axis=1)[:, 2]

            def select(b):
                before = b.approx.tobytes()
                got = (b.kth_smallest(3), b.count_within(kth[b.start:b.stop]))
                assert b.approx.tobytes() == before
                assert not any(np.shares_memory(r, b.approx) for r in got)
                return b.start, *got

            blocks = scan_self_distances(metric, vectors, select, n_threads)
            assert [b[0] for b in blocks] == list(range(0, 90, 7))
            assert np.concatenate([b[1] for b in blocks]).tobytes() == kth.tobytes()
            np.testing.assert_array_equal(
                np.concatenate([b[2] for b in blocks]), np.sum(full <= kth[:, None], axis=1)
            )

    def test_single_thread_reuses_one_pair(self, monkeypatch):
        # 600 entries per block: six blocks of ten rows of 60
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 600)
        vectors = np.random.default_rng(43).normal(size=(60, 3))
        for metric, _ in _GEMM_METRICS:
            blocks = scan_self_distances(metric, vectors, lambda b: b, 1)
            assert len(blocks) == 6
            first = blocks[0]
            for b in blocks:
                assert np.shares_memory(b.approx, first.approx)
            for b in blocks:
                assert np.shares_memory(b.spare, first.spare)
                assert not np.shares_memory(b.spare, first.approx)

    @pytest.mark.parametrize("n_threads", [None, 1, 4])
    def test_only_exact_row_blocks_take_the_pool(self, monkeypatch, n_threads):
        # GEMM blocks run on the calling thread, since BLAS threads the
        # GEMM itself; Mahalanobis blocks and the blocks of vectors too
        # large for the GEMM pass the caller's thread count on
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        pools = []

        def thread_map(fn, items, n_threads=None):
            pools.append(n_threads)
            return [fn(item) for item in items]

        monkeypatch.setattr(dakr.core, "thread_map", thread_map)
        rng = np.random.default_rng(47)
        gaussian, far = scan_data("gaussian", rng), scan_data("far", rng)
        mahalanobis = DistanceMetric.mahalanobis(np.eye(gaussian.shape[1]))
        scans = [(m, gaussian, None) for m, _ in _GEMM_METRICS]
        scans += [(m, far, n_threads) for m, _ in _GEMM_METRICS]
        scans.append((mahalanobis, gaussian, n_threads))
        for metric, vectors, expected in scans:
            pools.clear()
            blocks = scan_self_distances(metric, vectors, lambda b: b.kth_smallest(2), n_threads)
            assert len(blocks) == 13 and pools == [expected], metric.kind

    def test_threaded_gemm_blocks_share_one_pair(self, monkeypatch):
        # 700 entries per block: thirteen blocks of up to seven rows of 90
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        vectors = scan_data("gaussian", np.random.default_rng(53))
        for metric, _ in _GEMM_METRICS:
            blocks = scan_self_distances(metric, vectors, lambda b: b, 4)
            assert len(blocks) == 13
            first = blocks[0]
            for b in blocks:
                assert np.shares_memory(b.approx, first.approx)
                assert np.shares_memory(b.spare, first.spare)

    def test_threaded_exact_row_blocks_own_their_spare(self, monkeypatch):
        # under Mahalanobis, and for vectors too large for the GEMM
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        rng = np.random.default_rng(59)
        gaussian, far = scan_data("gaussian", rng), scan_data("far", rng)
        mahalanobis = DistanceMetric.mahalanobis(np.eye(gaussian.shape[1]))
        for metric, vectors in [(mahalanobis, gaussian)] + [(m, far) for m, _ in _GEMM_METRICS]:
            blocks = scan_self_distances(metric, vectors, lambda b: b, 4)
            assert len(blocks) == 13 and all(b.exact for b in blocks)
            for a, b in itertools.combinations(blocks, 2):
                assert not np.shares_memory(a.spare, b.spare)
                assert not np.shares_memory(a.spare, b.approx)


class TestRankedList:
    def test_entries_and_position(self):
        rl = RankedList(0, [5, 2, 9], [0.1, 0.2, 0.2], ASCENDING_DISTANCE)
        assert rl.gallery_ids.tolist() == [5, 2, 9]
        assert rl.values.tolist() == [0.1, 0.2, 0.2]

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParams):
            RankedList(0, [1, 2], [0.2, 0.1], ASCENDING_DISTANCE)
        with pytest.raises(InvalidParams):
            RankedList(0, [1, 2], [0.1, 0.2], DESCENDING_SCORE)

    def test_rejects_duplicate_ids(self):
        for ids in ([1, 1], [3, 1, 3], [7, 2, 9, 2]):
            with pytest.raises(InvalidParams, match="gallery ids must be unique"):
                RankedList(0, ids, np.zeros(len(ids)), ASCENDING_DISTANCE)

    def test_rejects_fractional_ids(self):
        for ids in ([1.5, 2.9], [1.5, 1.7], [0.0, math.nan]):
            with pytest.raises(InvalidParams, match="ids must be integers"):
                RankedList(0, ids, [0.1, 0.2], ASCENDING_DISTANCE)

    def test_accepts_integral_float_ids(self):
        rl = RankedList(0, [5.0, 2.0], [0.1, 0.2], ASCENDING_DISTANCE)
        assert rl.gallery_ids.tolist() == [5, 2]

    @pytest.mark.parametrize("ids", [[], [4]])
    def test_accepts_empty_and_single_entry(self, ids):
        rl = RankedList(0, ids, np.ones(len(ids)), DESCENDING_SCORE)
        assert rl.gallery_ids.tolist() == ids
        assert not rl.gallery_ids.flags.writeable

    @pytest.mark.parametrize(
        "values, order",
        [
            ([0.1, math.nan, 0.05], ASCENDING_DISTANCE),
            ([0.9, math.nan, 0.95], DESCENDING_SCORE),
            ([math.nan], ASCENDING_DISTANCE),
        ],
    )
    def test_rejects_nan_values(self, values, order):
        with pytest.raises(NonFiniteValue):
            RankedList(0, list(range(len(values))), values, order)


_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@given(ids=st.lists(st.one_of(st.integers(-3, 3), _INT64), max_size=12))
@settings(max_examples=300, deadline=None)
def test_ranked_list_rejects_exactly_repeated_ids(ids):
    def build():
        return RankedList(0, np.array(ids, dtype=np.int64), np.zeros(len(ids)), ASCENDING_DISTANCE)

    if len(set(ids)) != len(ids):
        with pytest.raises(InvalidParams, match="gallery ids must be unique"):
            build()
    else:
        assert build().gallery_ids.tolist() == ids


def test_every_exported_name_resolves():
    assert [name for name in dakr.__all__ if not hasattr(dakr, name)] == []
