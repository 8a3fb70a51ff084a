import itertools
import logging
import math
import re
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import dakr.core
import dakr.kernels
from dakr import (
    AugmentationPolicy,
    DistanceMetric,
    FeatureSet,
    bi_dakr_rank,
    compute_sigma_table,
    default_k_sigma,
    inn,
    inv_dakr_rank,
    knn,
    probe_sigma,
    rank_by_distance,
    rnn,
)
from dakr.errors import InvalidParams, NonPositiveSigma, StaleSigmaTable
from dakr.fileio import read_sigma_sidecar, sigma_table_from_sidecar, write_sigma_sidecar
from dakr.kernels import SigmaTable, reference_digest

from conftest import SCAN_DATA, random_instance, scan_data
from oracles import (
    brute_bi_ranking,
    brute_inn,
    brute_inv_ranking,
    brute_knn,
    brute_rnn,
    brute_sigmas,
    make_dist,
    offset_for,
)


@pytest.fixture
def line_gallery():
    return FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])


def values_by_id(ranked, ids):
    """The ranking's values, its kernel scores, in the order of ``ids``."""
    score_of = dict(zip(ranked.gallery_ids.tolist(), ranked.values.tolist()))
    return np.array([score_of[int(i)] for i in ids])


def uniform_table(gallery, metric, sigma_value=1.0, k_sigma=1):
    """Table with every bandwidth forced to one constant (valid digest)."""
    return SigmaTable(
        k_sigma=k_sigma,
        reference_digest=reference_digest(gallery, metric, k_sigma),
        gallery_ids=gallery.ids.copy(),
        gallery_sigmas=np.full(len(gallery), sigma_value),
    )


class TestSigmaTable:
    def test_nearest_neighbor_bandwidths(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 1)
        assert table.gallery_sigmas.tolist() == [1.0, 1.0, 2.0]

    def test_second_neighbor_bandwidths(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 2)
        assert table.gallery_sigmas.tolist() == [3.0, 2.0, 3.0]

    def test_coincident_points_floored(self, euclidean):
        gallery = FeatureSet([0, 1], [[2.0], [2.0]])
        table = compute_sigma_table(gallery, euclidean, 1)
        assert np.all(table.gallery_sigmas > 0)

    def test_all_coincident_floored_with_unit_scale(self, euclidean):
        gallery = FeatureSet([0, 1, 2], [[5.0], [5.0], [5.0]])
        table = compute_sigma_table(gallery, euclidean, 1)
        assert np.all(table.gallery_sigmas == 1e-12)

    def test_k_sigma_clamped_with_warning(self, euclidean, line_gallery):
        with pytest.warns(RuntimeWarning, match="clamp"):
            table = compute_sigma_table(line_gallery, euclidean, 10)
        expected = compute_sigma_table(line_gallery, euclidean, 2)
        assert table.gallery_sigmas.tolist() == expected.gallery_sigmas.tolist()

    def test_matches_bruteforce(self, euclidean):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gallery, probes, gdict, pdict = random_instance(rng)
            for k_sigma in (1, 2):
                table = compute_sigma_table(gallery, euclidean, k_sigma)
                expected = brute_sigmas(gdict, k_sigma)
                for gid, sigma in zip(table.gallery_ids, table.gallery_sigmas):
                    assert sigma == pytest.approx(expected[int(gid)], rel=1e-12)

    def test_with_probes_reference_and_cache(self, euclidean):
        rng = np.random.default_rng(5)
        gallery, probes, gdict, pdict = random_instance(rng, min_n=4)
        policy = AugmentationPolicy.with_probes(probes)
        table = compute_sigma_table(gallery, euclidean, 2, policy)
        expected = brute_sigmas(gdict, 2, probes=pdict)
        for gid, sigma in zip(table.gallery_ids, table.gallery_sigmas):
            assert sigma == pytest.approx(expected[int(gid)], rel=1e-12)
        offset = max(gdict) + 1
        for pid, sigma in zip(table.probe_ids, table.probe_sigmas):
            assert sigma == pytest.approx(expected[offset + int(pid)], rel=1e-12)

    def test_monotone_in_k_sigma(self, euclidean):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gallery, _, _, _ = random_instance(rng, min_n=4)
            previous = None
            for k_sigma in range(1, len(gallery)):
                table = compute_sigma_table(gallery, euclidean, k_sigma)
                if previous is not None:
                    assert np.all(table.gallery_sigmas >= previous - 1e-15)
                previous = table.gallery_sigmas

    def test_augmentation_never_enlarges_sigma(self, euclidean):
        # more reference samples means more candidates for the k-th
        # neighbor, so bandwidths can only shrink or stay
        rng = np.random.default_rng(13)
        for _ in range(15):
            gallery, probes, _, _ = random_instance(rng, min_n=4)
            base = compute_sigma_table(gallery, euclidean, 2)
            aug = compute_sigma_table(
                gallery, euclidean, 2, AugmentationPolicy.with_probes(probes)
            )
            assert np.all(aug.gallery_sigmas <= base.gallery_sigmas + 1e-15)

    def test_threaded_output_identical(self, euclidean):
        rng = np.random.default_rng(21)
        gallery = FeatureSet(np.arange(300), rng.normal(size=(300, 8)))
        serial = compute_sigma_table(gallery, euclidean, 5)
        threaded = compute_sigma_table(gallery, euclidean, 5, n_threads=4)
        assert np.array_equal(serial.gallery_sigmas, threaded.gallery_sigmas)
        assert serial.reference_digest == threaded.reference_digest

    def test_rejects_nonpositive_sigmas(self, euclidean, line_gallery):
        with pytest.raises(NonPositiveSigma):
            SigmaTable(
                k_sigma=1,
                reference_digest=b"\x00" * 32,
                gallery_ids=line_gallery.ids.copy(),
                gallery_sigmas=np.array([1.0, 0.0, 1.0]),
            )

    def test_k_sigma_past_u32_is_refused_before_the_scan(self, euclidean, line_gallery, monkeypatch):
        # Sidecars and table digests store k_sigma as a u32.
        def no_scan(*args, **kwargs):
            raise AssertionError("k_sigma was not checked before the scan")

        monkeypatch.setattr(dakr.kernels, "scan_self_distances", no_scan)
        with pytest.raises(InvalidParams, match="from 1 to 4294967295"):
            compute_sigma_table(line_gallery, euclidean, 2**32)
        with pytest.raises(InvalidParams, match="from 1 to 4294967295"):
            SigmaTable(
                k_sigma=2**32,
                reference_digest=b"\x00" * 32,
                gallery_ids=line_gallery.ids.copy(),
                gallery_sigmas=np.ones(3),
            )

    def test_rejects_an_empty_gallery(self):
        with pytest.raises(InvalidParams, match="gallery samples"):
            SigmaTable(
                k_sigma=1,
                reference_digest=b"\x00" * 32,
                gallery_ids=[],
                gallery_sigmas=[],
            )

    def test_reference_digests_keep_their_bytes(self, euclidean):
        # Every sidecar and table is bound by these bytes: the policy byte
        # (0 gallery-only, 1 with probes) follows from an empty probe digest.
        gallery = FeatureSet([0, 1, 2, 3], [[0.0], [1.0], [3.0], [6.0]])
        probes = FeatureSet([10, 11], [[0.5], [2.0]])
        gallery_only = compute_sigma_table(gallery, euclidean, 1)
        with_probes = compute_sigma_table(
            gallery, euclidean, 1, AugmentationPolicy.with_probes(probes)
        )
        assert gallery_only.reference_digest.hex() == (
            "ba28c196436245e76490b30fdf9f0332b9a33300cb48a0bac5fa7206ba9a22dc"
        )
        assert with_probes.reference_digest.hex() == (
            "81ea44cba0432e0276fd62460684c2823ea6002ddfb7fa8b17aab7e05116a65f"
        )
        assert reference_digest(gallery, euclidean, 1) == gallery_only.reference_digest
        assert (
            reference_digest(gallery, euclidean, 1, probes.content_digest())
            == with_probes.reference_digest
        )

    def test_policy_mode_follows_the_probe_set(self, euclidean, line_gallery):
        probes = FeatureSet([10, 11], [[0.5], [2.0]])
        assert AugmentationPolicy().mode == "gallery_only"
        assert AugmentationPolicy.with_probes(probes).mode == "with_probes"
        gallery_only = compute_sigma_table(line_gallery, euclidean, 1)
        with_probes = compute_sigma_table(
            line_gallery, euclidean, 1, AugmentationPolicy.with_probes(probes)
        )
        assert (gallery_only.probes_digest, gallery_only.policy_mode) == (b"", "gallery_only")
        assert with_probes.probes_digest == probes.content_digest()
        assert with_probes.policy_mode == "with_probes"
        fields = dict(k_sigma=1, reference_digest=b"\x00" * 32,
                      gallery_ids=line_gallery.ids, gallery_sigmas=np.ones(3))
        assert SigmaTable(**fields).policy_mode == "gallery_only"
        assert SigmaTable(**fields, probes_digest=b"\x01" * 32).policy_mode == "with_probes"


class TestBlockedSigmaTable:
    """Reference sets spanning several row blocks of the self-distance
    scan, serial and threaded, against the brute-force oracle."""

    @pytest.mark.parametrize("n_threads", [None, 1, 4])
    @pytest.mark.parametrize("with_probes", [False, True])
    def test_matches_bruteforce_across_blocks(self, euclidean, monkeypatch, n_threads, with_probes):
        # 600 entries per block: 10 rows for 60 gallery samples, 8 rows
        # once 8 probes join the reference set
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 600)
        rng = np.random.default_rng(61)
        gvecs = rng.normal(size=(60, 3))
        # three coincident samples in different blocks: their 2nd-nearest
        # distance is 0, so the sigma floor applies
        gvecs[47] = gvecs[3]
        gvecs[58] = gvecs[3]
        # a far pair in middle blocks
        gvecs[15] = 10.0
        gvecs[45] = -10.0
        pvecs = rng.normal(size=(8, 3))
        gallery = FeatureSet(np.arange(60), gvecs)
        probes = FeatureSet(np.arange(100, 108), pvecs)
        gdict = {i: list(v) for i, v in enumerate(gvecs)}
        pdict = {100 + i: list(v) for i, v in enumerate(pvecs)} if with_probes else None
        policy = AugmentationPolicy.with_probes(probes) if with_probes else AugmentationPolicy()

        table = compute_sigma_table(gallery, euclidean, 2, policy, n_threads=n_threads)
        expected = brute_sigmas(gdict, 2, probes=pdict)
        floor = 1e-12 * sorted(expected[i] for i in range(60))[30]
        got = dict(zip(table.gallery_ids.tolist(), table.gallery_sigmas))
        if with_probes:
            offset = offset_for(gdict)
            got.update({offset + int(p): s for p, s in zip(table.probe_ids, table.probe_sigmas)})
        assert set(got) == set(expected)
        for sid, sigma in got.items():
            assert sigma == pytest.approx(max(expected[sid], floor), rel=1e-12), sid
        assert [got[i] for i in (3, 47, 58)] == pytest.approx([floor] * 3, rel=1e-12)


class TestSigmaTableAgainstCdist:
    """Tables from the GEMM scan against full cdist rows and np.partition,
    byte for byte, the sigma floor included."""

    @staticmethod
    def reference(refs, k, name):
        # The floor is 1e-12 times the upper median of the 80 gallery
        # bandwidths, or 1e-12 when that is 0.
        full = cdist(refs, refs, metric=name)
        np.fill_diagonal(full, np.inf)
        kth = np.partition(full, k - 1, axis=1)[:, k - 1]
        median = np.sort(kth[:80])[40]
        return np.maximum(kth, 1e-12 * (median if median > 0 else 1.0))

    @pytest.mark.parametrize("n_threads", [None, 1, 4])
    @pytest.mark.parametrize("data", SCAN_DATA)
    def test_bit_for_bit(self, monkeypatch, data, n_threads):
        # 700 entries per block: eight rows of 80 samples, seven of 90
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        vectors = scan_data(data, np.random.default_rng(100 + SCAN_DATA.index(data)))
        gallery = FeatureSet(np.arange(80), vectors[:80])
        probes = FeatureSet(np.arange(200, 210), vectors[80:])
        for metric, name in (
            (DistanceMetric.euclidean(), "euclidean"),
            (DistanceMetric.squared_euclidean(), "sqeuclidean"),
        ):
            for policy, refs in (
                (AugmentationPolicy(), vectors[:80]),
                (AugmentationPolicy.with_probes(probes), vectors),
            ):
                for k in (1, 3, 20):
                    table = compute_sigma_table(gallery, metric, k, policy, n_threads=n_threads)
                    got = np.concatenate([table.gallery_sigmas, table.probe_sigmas])
                    assert got.tobytes() == self.reference(refs, k, name).tobytes(), (name, k)


class TestSigmaTableLog:
    def test_one_info_line_per_table(self, caplog, euclidean):
        # ids 0 and 1 coincide: at k_sigma 1 both take the floor
        gallery = FeatureSet([0, 1, 2, 3], [[0.0], [0.0], [1.0], [3.0]])
        pattern = (
            r"sigma table: 4 samples scanned, k_sigma (\d+)(.*), (\d+) sigma floor hits, "
            r"(\d+) pairs re-scored at the selection boundary"
        )
        with caplog.at_level(logging.INFO, logger="dakr"):
            compute_sigma_table(gallery, euclidean, 1)
            with pytest.warns(RuntimeWarning, match="clamp"):
                compute_sigma_table(gallery, euclidean, 9)
            compute_sigma_table(gallery, DistanceMetric.mahalanobis(np.eye(1)), 1)
        lines = [r.getMessage() for r in caplog.records if r.name == "dakr"]
        assert len(lines) == 3
        found = [re.fullmatch(pattern, line).groups() for line in lines]
        assert [f[:3] for f in found] == [
            ("1", "", "2"),
            ("3", " (clamped from 9)", "0"),
            ("1", "", "2"),
        ]
        # every k-th value is re-scored on the GEMM scan, none on exact rows
        assert int(found[0][3]) >= 4 and int(found[1][3]) >= 4
        assert found[2][3] == "0"

    def test_silent_above_info(self, caplog, euclidean, line_gallery):
        with caplog.at_level(logging.WARNING, logger="dakr"):
            compute_sigma_table(line_gallery, euclidean, 1)
        assert [r for r in caplog.records if r.name == "dakr"] == []


def counted_scans(monkeypatch) -> list:
    """The calls compute_sigma_table makes to scan_self_distances from now on."""
    calls = []
    inner = dakr.kernels.scan_self_distances

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(dakr.kernels, "scan_self_distances", counted)
    return calls


def floor_hits(caplog) -> list[int]:
    """The floor-hit count of each sigma table logged so far."""
    lines = [r.getMessage() for r in caplog.records if r.name == "dakr"]
    return [int(re.search(r", (\d+) sigma floor hits", line).group(1)) for line in lines]


class TestSigmaFloor:
    """Degenerate bandwidths are floored at 1e-12 times the upper median
    of the gallery's bandwidths, which the table's one scan selects."""

    @pytest.mark.parametrize("metric", ["euclidean", "squared_euclidean", "mahalanobis"])
    @pytest.mark.parametrize("data", SCAN_DATA)
    def test_one_scan_per_table(self, monkeypatch, data, metric):
        vectors = scan_data(data, np.random.default_rng(7))
        if metric == "mahalanobis":
            metric = DistanceMetric.mahalanobis(np.diag(np.arange(1.0, vectors.shape[1] + 1)))
        else:
            metric = DistanceMetric(metric)
        calls = counted_scans(monkeypatch)
        compute_sigma_table(FeatureSet(np.arange(90), vectors), metric, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "data, metric, k, hits",
        [
            ("gaussian", DistanceMetric.euclidean(), 3, 0),
            ("duplicates", DistanceMetric.euclidean(), 1, 90),
            ("duplicates", DistanceMetric.squared_euclidean(), 2, 90),
            ("duplicates", DistanceMetric.mahalanobis(np.eye(4)), 1, 90),
            # positive bandwidths, though under 1e-12 times the diameter
            ("near_duplicates", DistanceMetric.euclidean(), 1, 0),
            ("near_duplicates", DistanceMetric.euclidean(), 3, 0),
            # two samples at 1e154 set no floor for the other 88
            ("far", DistanceMetric.euclidean(), 3, 0),
        ],
    )
    def test_floor_hits(self, caplog, data, metric, k, hits):
        vectors = scan_data(data, np.random.default_rng(7))
        with caplog.at_level(logging.INFO, logger="dakr"):
            compute_sigma_table(FeatureSet(np.arange(90), vectors), metric, k)
        assert floor_hits(caplog) == [hits]

    @pytest.mark.parametrize("metric", [DistanceMetric.euclidean(), DistanceMetric.squared_euclidean()])
    def test_a_far_sample_moves_no_other_bandwidth(self, caplog, metric):
        vectors = scan_data("gaussian", np.random.default_rng(7))
        far = np.vstack([vectors, np.full((1, vectors.shape[1]), 1e13)])
        with caplog.at_level(logging.INFO, logger="dakr"):
            base = compute_sigma_table(FeatureSet(np.arange(90), vectors), metric, 3)
            table = compute_sigma_table(FeatureSet(np.arange(91), far), metric, 3)
        assert table.gallery_sigmas[:90].tobytes() == base.gallery_sigmas.tobytes()
        assert floor_hits(caplog) == [0, 0]

    def test_coincident_probe_takes_the_tables_floor(self, tmp_path, euclidean):
        # samples 0-3 coincide, so at k_sigma 3 half the gallery's
        # bandwidths, and a probe's at their point, are 0 before the floor
        vectors = np.random.default_rng(11).normal(size=(8, 4))
        vectors[1:4] = vectors[0]
        gallery = FeatureSet(np.arange(8), vectors)
        fresh = compute_sigma_table(gallery, euclidean, 3)
        path = tmp_path / "gallery.sgt"
        write_sigma_sidecar(fresh, path)
        loaded = sigma_table_from_sidecar(read_sigma_sidecar(path), gallery, euclidean)
        # the upper median, not the mean of the two middle values
        floor = 1e-12 * np.sort(fresh.gallery_sigmas)[4]
        assert fresh.gallery_sigmas[:4].tolist() == [floor] * 4
        for table in (fresh, loaded):
            assert table._floor == floor
            assert probe_sigma(99, vectors[0], gallery, euclidean, table) == floor

    @pytest.mark.parametrize("rank", [inv_dakr_rank, bi_dakr_rank])
    def test_clusters_too_far_apart_for_float64(self, euclidean, rank):
        # every distance between the clusters overflows; each cluster's
        # own bandwidths at k_sigma 2 are finite, so the table builds
        rng = np.random.default_rng(13)
        near, far = rng.normal(size=(2, 5, 2))
        far[:, 0] += 1e200
        gallery = FeatureSet(np.arange(10), np.vstack([far, near]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = compute_sigma_table(gallery, euclidean, 2)
            ranked = rank(99, [0.0, 0.0], gallery, euclidean, table)
        assert np.all(np.isfinite(table.gallery_sigmas))
        # infinite kernel arguments tie, so ids ascend, as under knn
        assert ranked.gallery_ids[5:].tolist() == [0, 1, 2, 3, 4]
        assert ranked.values[5:].tolist() == [0.0] * 5
        assert np.all(ranked.values[:5] > 0)

    # Five samples within 3e-160: squared distances and their upper median
    # are subnormal, and 1e-12 of that median underflows to 0.
    SUBNORMAL = np.array([[0.0, 0.0], [0.0, 0.0], [1e-160, 0.0], [2e-160, 0.0], [3e-160, 0.0]])

    def test_a_subnormal_median_keeps_the_floor_positive(self, caplog):
        gallery = FeatureSet(np.arange(5), self.SUBNORMAL)
        with caplog.at_level(logging.INFO, logger="dakr"):
            table = compute_sigma_table(gallery, DistanceMetric.squared_euclidean(), 1)
        tiny = np.finfo(np.float64).smallest_subnormal
        assert floor_hits(caplog) == [2]
        assert table._floor == tiny
        assert table.gallery_sigmas[:2].tolist() == [tiny, tiny]
        assert np.all(table.gallery_sigmas[2:] > tiny)

    @pytest.mark.parametrize("rank", [inv_dakr_rank, bi_dakr_rank])
    def test_a_subnormal_gallery_ranks_as_its_scaled_copy(self, rank):
        # sigma_i*sigma_j and d*d both underflow to 0 here; in the table's
        # power-of-two unit they do not, so no 0/0 reaches the ranking.
        squared = DistanceMetric.squared_euclidean()
        probe = [1.2e-160, 0.0]
        got = {}
        for scale in (1.0, 2.0**540):
            gallery = FeatureSet(np.arange(5), self.SUBNORMAL * scale)
            table = compute_sigma_table(gallery, squared, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got[scale] = rank(99, np.multiply(probe, scale), gallery, squared, table)
        subnormal, normal = got.values()
        assert np.all(np.isfinite(subnormal.values))
        assert subnormal.gallery_ids.tolist() == normal.gallery_ids.tolist()
        # the subnormal distances carry about 11 significant bits, and so do
        # the kernel arguments -log(score) of the nonzero scores
        nonzero = normal.values > 0
        assert (subnormal.values > 0).tolist() == nonzero.tolist()
        np.testing.assert_allclose(
            -np.log(subnormal.values[nonzero]), -np.log(normal.values[nonzero]), rtol=1e-2
        )

    @pytest.mark.parametrize("rank", [inv_dakr_rank, bi_dakr_rank])
    def test_kernel_arguments_past_float64(self, euclidean, rank):
        # Clusters 1e150 apart with spread 1e-150: the far cluster's
        # coordinates round to one point, so its bandwidths take the floor
        # (about 6e-163), and d/sigma_j and d^2/(sigma_i*sigma_j) overflow.
        rng = np.random.default_rng(13)
        near, far = rng.normal(size=(2, 5, 2)) * 1e-150
        gallery = FeatureSet(np.arange(10), np.vstack([far + 1e150, near]))
        table = compute_sigma_table(gallery, euclidean, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranked = rank(99, [0.0, 0.0], gallery, euclidean, table)
        d = cdist([[0.0, 0.0]], gallery.vectors)[0]
        sigma_i = probe_sigma(99, [0.0, 0.0], gallery, euclidean, table)
        with np.errstate(over="ignore"):
            if rank is inv_dakr_rank:
                t = d / table.gallery_sigmas
            else:
                t = d * d / (sigma_i * table.gallery_sigmas)
        assert np.isinf(t[:5]).all() and np.isfinite(t[5:]).all()
        # infinite arguments tie, so the far cluster follows by ascending id
        assert ranked.gallery_ids.tolist() == np.lexsort((gallery.ids, t)).tolist()
        assert ranked.gallery_ids[5:].tolist() == [0, 1, 2, 3, 4]
        assert ranked.values.tolist() == np.exp(-np.sort(t)).tolist()


class TestInvDakr:
    def test_coincident_probe_scores_one(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 1)
        ranked = inv_dakr_rank(99, [1.0], line_gallery, euclidean, table)
        assert values_by_id(ranked, line_gallery.ids)[1] == 1.0

    def test_direct_evaluation(self, euclidean):
        gallery = FeatureSet([0], [[0.0]])
        table = uniform_table(gallery, euclidean, sigma_value=1.0)
        ranked = inv_dakr_rank(9, [2.0], gallery, euclidean, table)
        assert ranked.values[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_larger_sigma_raises_score(self, euclidean):
        gallery = FeatureSet([0], [[0.0]])
        small = uniform_table(gallery, euclidean, sigma_value=1.0)
        large = uniform_table(gallery, euclidean, sigma_value=2.0)
        s_small = inv_dakr_rank(9, [2.0], gallery, euclidean, small).values[0]
        s_large = inv_dakr_rank(9, [2.0], gallery, euclidean, large).values[0]
        assert s_large > s_small

    def test_hand_ranking(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 2)
        ranked = inv_dakr_rank(99, [2.1], line_gallery, euclidean, table)
        assert ranked.gallery_ids.tolist() == [2, 1, 0]
        # d/sigma = [0.7, 0.55, 0.3]; reported scores apply the kernel
        assert ranked.values.tolist() == pytest.approx(
            [math.exp(-0.3), math.exp(-0.55), math.exp(-0.7)], rel=1e-12
        )

    def test_uniform_sigma_reduces_to_distance_order(self, euclidean):
        rng = np.random.default_rng(2)
        for _ in range(10):
            gallery, probes, _, _ = random_instance(rng)
            table = uniform_table(gallery, euclidean, sigma_value=0.7)
            pid = int(probes.ids[0])
            ranked = inv_dakr_rank(pid, probes.vectors[0], gallery, euclidean, table)
            baseline = rank_by_distance(pid, probes.vectors[0], gallery, euclidean)
            assert ranked.gallery_ids.tolist() == baseline.gallery_ids.tolist()

    def test_density_flips_raw_distance_order(self, euclidean):
        # sample 1 is nearer the probe but sits in a dense clump (small
        # sigma); the sparser sample 0 overtakes it under the kernel
        gallery = FeatureSet(
            [0, 1, 2, 3], [[0.0], [1.4], [1.5], [1.6]]
        )
        table = compute_sigma_table(gallery, euclidean, 1)
        assert table.gallery_sigmas.tolist() == pytest.approx([1.4, 0.1, 0.1, 0.1])
        probe = [1.0]
        baseline = rank_by_distance(9, probe, gallery, euclidean)
        assert baseline.gallery_ids.tolist()[0] == 1
        ranked = inv_dakr_rank(9, probe, gallery, euclidean, table)
        assert ranked.gallery_ids.tolist()[0] == 0
        # cross-check against direct formula evaluation
        scores = values_by_id(ranked, gallery.ids)
        assert np.argmax(scores) == 0

    def test_matches_bruteforce_oracle(self, euclidean):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gallery, probes, gdict, pdict = random_instance(rng)
            k_sigma = int(rng.integers(1, max(2, len(gallery) - 1)))
            table = compute_sigma_table(gallery, euclidean, k_sigma)
            pid = int(probes.ids[0])
            pvec = [float(v) for v in probes.vectors[0]]
            ranked = inv_dakr_rank(pid, pvec, gallery, euclidean, table)
            assert ranked.gallery_ids.tolist() == brute_inv_ranking(pvec, gdict, k_sigma)

    def test_stale_table_rejected(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 1)
        other = FeatureSet([0, 1, 2], [[0.0], [1.0], [4.0]])
        with pytest.raises(StaleSigmaTable):
            inv_dakr_rank(99, [0.0], other, euclidean, table)
        with pytest.raises(StaleSigmaTable):
            inv_dakr_rank(99, [0.0], line_gallery, DistanceMetric.squared_euclidean(), table)

    def test_smoothed_inverse_neighbor_threshold(self, euclidean):
        # the kernel argument d/sigma crosses 1 exactly where membership in
        # the inverse-neighbor set (with margin) flips, so exp(-1) acts as
        # a soft membership threshold
        rng = np.random.default_rng(33)
        threshold = math.exp(-1.0)
        for _ in range(15):
            gallery, probes, _, _ = random_instance(rng, min_n=4)
            k_sigma = 2
            table = compute_sigma_table(gallery, euclidean, k_sigma)
            pid = int(probes.ids[0])
            pvec = probes.vectors[0]
            members = inn(pid, pvec, gallery, euclidean, k_sigma)
            ranked = inv_dakr_rank(pid, pvec, gallery, euclidean, table)
            scores = values_by_id(ranked, gallery.ids)
            dists = np.linalg.norm(gallery.vectors - np.asarray(pvec), axis=1)
            for row, gid in enumerate(gallery.ids):
                gid = int(gid)
                sigma = table.gallery_sigmas[row]
                if gid in members and dists[row] < sigma:
                    assert scores[row] > threshold
                if gid not in members and dists[row] > sigma:
                    assert scores[row] < threshold


class TestBiDakr:
    def test_coincident_probe_scores_one(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 1)
        ranked = bi_dakr_rank(99, [1.0], line_gallery, euclidean, table)
        assert values_by_id(ranked, line_gallery.ids)[1] == 1.0

    def test_direct_evaluation(self, euclidean):
        gallery = FeatureSet([0], [[0.0]])
        table = uniform_table(gallery, euclidean, sigma_value=2.0)
        # sigma_i is the probe's distance to its one pool sample, 1.0
        ranked = bi_dakr_rank(9, [1.0], gallery, euclidean, table)
        assert ranked.values[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_scores_bounded(self, euclidean):
        rng = np.random.default_rng(44)
        for _ in range(10):
            gallery, probes, _, _ = random_instance(rng)
            table = compute_sigma_table(gallery, euclidean, 1)
            pvec = probes.vectors[0]
            sigma_i = probe_sigma(500, pvec, gallery, euclidean, table)
            ranked = bi_dakr_rank(500, pvec, gallery, euclidean, table)
            scores = values_by_id(ranked, gallery.ids)
            assert np.all(scores >= 0)
            assert np.all(scores <= 1.0)
            # strictly positive wherever the kernel argument cannot
            # underflow; ranking never relies on the score values anyway
            d = np.linalg.norm(gallery.vectors - pvec, axis=1)
            t = d * d / (sigma_i * table.gallery_sigmas)
            assert np.all(scores[t < 700.0] > 0)
            assert np.all((scores == 1.0) == (d == 0.0))

    def test_hand_ranking(self, euclidean, line_gallery):
        table = compute_sigma_table(line_gallery, euclidean, 2)
        sigma_i = probe_sigma(99, [2.1], line_gallery, euclidean, table)
        assert sigma_i == pytest.approx(1.1, rel=1e-12)  # 2nd nearest of [0.9, 1.1, 2.1]
        ranked = bi_dakr_rank(99, [2.1], line_gallery, euclidean, table)
        assert ranked.gallery_ids.tolist() == [2, 1, 0]

    def test_uniform_sigma_reduces_to_distance_order(self, euclidean):
        rng = np.random.default_rng(6)
        for _ in range(10):
            gallery, probes, _, _ = random_instance(rng)
            table = uniform_table(gallery, euclidean, sigma_value=1.3)
            pid = int(probes.ids[0])
            ranked = bi_dakr_rank(pid, probes.vectors[0], gallery, euclidean, table)
            baseline = rank_by_distance(pid, probes.vectors[0], gallery, euclidean)
            assert ranked.gallery_ids.tolist() == baseline.gallery_ids.tolist()

    def test_matches_bruteforce_oracle(self, euclidean):
        rng = np.random.default_rng(14)
        for _ in range(20):
            gallery, probes, gdict, pdict = random_instance(rng)
            k_sigma = int(rng.integers(1, max(2, len(gallery) - 1)))
            table = compute_sigma_table(gallery, euclidean, k_sigma)
            pid = int(probes.ids[0])
            pvec = [float(v) for v in probes.vectors[0]]
            ranked = bi_dakr_rank(pid, pvec, gallery, euclidean, table)
            assert ranked.gallery_ids.tolist() == brute_bi_ranking(pid, pvec, gdict, k_sigma)

    def test_with_probes_uses_augmented_probe_sigma(self, euclidean):
        rng = np.random.default_rng(19)
        gallery, probes, gdict, pdict = random_instance(rng, min_n=5)
        policy = AugmentationPolicy.with_probes(probes)
        table = compute_sigma_table(gallery, euclidean, 2, policy)
        pid = int(probes.ids[0])
        pvec = [float(v) for v in probes.vectors[0]]
        ranked = bi_dakr_rank(pid, pvec, gallery, euclidean, table, policy)
        assert ranked.gallery_ids.tolist() == brute_bi_ranking(
            pid, pvec, gdict, 2, probes=pdict
        )

    @pytest.mark.parametrize("fn", [bi_dakr_rank, probe_sigma], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("table_mode", ["gallery_only", "with_probes", "other_probes"])
    def test_policy_mode_must_match_table(self, euclidean, line_gallery, fn, table_mode):
        probes = FeatureSet([50, 51], [[0.2], [2.0]])
        policies = {
            "gallery_only": AugmentationPolicy(),
            "with_probes": AugmentationPolicy.with_probes(probes),
            # The same probe ids with other vectors: another reference set.
            "other_probes": AugmentationPolicy.with_probes(FeatureSet([50, 51], [[0.2], [7.0]])),
        }
        requested = {"gallery_only": "with_probes", "with_probes": "gallery_only",
                     "other_probes": "with_probes"}[table_mode]
        table = compute_sigma_table(line_gallery, euclidean, 1, policies[table_mode])
        with pytest.raises(StaleSigmaTable):
            fn(50, [0.2], line_gallery, euclidean, table, policies[requested])


def _link_instance(rng, lattice):
    """A gallery of distinct samples at ids 0..n-1 and two probes at ids
    1000 and 1001, so neither probe is a gallery sample.  On the lattice
    every squared distance is an integer, and probes may sit on gallery
    points: exact ties are common."""
    d = int(rng.integers(2, 5)) if lattice else int(rng.integers(1, 16))
    n = int(rng.integers(5, 120))
    if lattice:
        grid = np.array(list(itertools.product(range(-3, 4), repeat=d)), dtype=np.float64)
        gallery_vectors = grid[rng.choice(len(grid), size=min(n, len(grid)), replace=False)]
        probe_vectors = grid[rng.choice(len(grid), size=2)]
    else:
        gallery_vectors = rng.normal(size=(n, d))
        probe_vectors = rng.normal(size=(2, d))
    gallery = FeatureSet(np.arange(len(gallery_vectors)), gallery_vectors)
    return gallery, FeatureSet([1000, 1001], probe_vectors)


class TestKernelNeighborLink:
    """The kernel rules' link to the neighbor baselines, on seeded random
    and integer-lattice data.

    Domain: gallery_only, k_sigma = k below the gallery size (no clamp),
    a probe that is not a gallery sample, and no floored sigma (the
    gallery's samples are distinct, each case checks its table against
    cdist's k-th values, and a lattice probe on a gallery point at k = 1,
    whose own sigma is floored, is skipped).  Outside it the identities do not hold as
    written: under with_probes, for a multiple-shot probe whose own copy
    leaves the pool, or where the floor applies.
    """

    # a third of the cases on the integer lattice
    CASES = [(seed, seed % 3 == 0) for seed in range(60)]

    def cases(self, euclidean):
        """(case, gallery, probes, k, table) per seeded case."""
        for seed, lattice in self.CASES:
            rng = np.random.default_rng(seed)
            gallery, probes = _link_instance(rng, lattice)
            k = int(rng.integers(1, min(12, len(gallery) - 1) + 1))
            table = compute_sigma_table(gallery, euclidean, k)
            full = cdist(gallery.vectors, gallery.vectors)
            np.fill_diagonal(full, np.inf)
            kth = np.partition(full, k - 1, axis=1)[:, k - 1]
            assert table.gallery_sigmas.tobytes() == kth.tobytes(), seed
            yield (seed, lattice), gallery, probes, k, table

    def test_inverse_neighbors_lead_the_inverse_ranking(self, euclidean):
        # j takes x among its k nearest iff d(x, j) < sigma_j (gallery
        # samples win ties), so inn(x) is the block of kernel argument
        # t = d / sigma_j < 1 that the ranking puts first
        mismatches = []
        for case, gallery, probes, k, table in self.cases(euclidean):
            for pid, pvec in zip(probes.ids.tolist(), probes.vectors):
                members = inn(pid, pvec, gallery, euclidean, k)
                ranked = inv_dakr_rank(pid, pvec, gallery, euclidean, table)
                t = cdist(pvec[None, :], gallery.vectors)[0] / table.gallery_sigmas
                block = {int(i) for i in gallery.ids[t < 1]}
                if members != block or set(ranked.gallery_ids[: len(block)].tolist()) != block:
                    mismatches.append((case, pid))
        assert mismatches == []

    def test_reciprocal_neighbors_lie_in_the_bidirectional_block(self, euclidean):
        # a reciprocal member has d <= sigma_i and d < sigma_j, so
        # t = d^2 / (sigma_i * sigma_j) < 1: inside the block the ranking
        # puts first
        violations = []
        for case, gallery, probes, k, table in self.cases(euclidean):
            for pid, pvec in zip(probes.ids.tolist(), probes.vectors):
                d = cdist(pvec[None, :], gallery.vectors)[0]
                sigma_i = np.partition(d, k - 1)[k - 1]
                if sigma_i == 0:
                    continue  # a lattice probe on a gallery point, k = 1: floored
                members = rnn(pid, pvec, gallery, euclidean, k)
                ranked = bi_dakr_rank(pid, pvec, gallery, euclidean, table)
                assert probe_sigma(pid, pvec, gallery, euclidean, table) == sigma_i, case
                t = d * d / (sigma_i * table.gallery_sigmas)
                block = {int(i) for i in gallery.ids[t < 1]}
                if not members <= block or set(ranked.gallery_ids[: len(block)].tolist()) != block:
                    violations.append((case, pid))
        assert violations == []


class TestScaleCovariance:
    def test_rankings_and_scores_invariant_under_feature_scaling(self, euclidean):
        rng = np.random.default_rng(55)
        gallery, probes, _, _ = random_instance(rng, min_n=6)
        pid = int(probes.ids[0])
        base_table = compute_sigma_table(gallery, euclidean, 2)
        base_inv = inv_dakr_rank(pid, probes.vectors[0], gallery, euclidean, base_table)
        base_bi = bi_dakr_rank(pid, probes.vectors[0], gallery, euclidean, base_table)
        for c in (1e-3, 1e3):
            scaled = FeatureSet(gallery.ids, gallery.vectors * c)
            table = compute_sigma_table(scaled, euclidean, 2)
            inv = inv_dakr_rank(pid, probes.vectors[0] * c, scaled, euclidean, table)
            bi = bi_dakr_rank(pid, probes.vectors[0] * c, scaled, euclidean, table)
            assert inv.gallery_ids.tolist() == base_inv.gallery_ids.tolist()
            assert bi.gallery_ids.tolist() == base_bi.gallery_ids.tolist()
            np.testing.assert_allclose(inv.values, base_inv.values, rtol=1e-9)
            np.testing.assert_allclose(bi.values, base_bi.values, rtol=1e-9)


class TestKernelBasis:
    def test_basis_positive_and_monotone_by_sampling(self, euclidean):
        # with unit bandwidths the inverse score of a gallery sample at
        # distance t from the probe is the basis itself, phi(t)
        grid = np.linspace(0.0, 50.0, 400)
        gallery = FeatureSet(np.arange(len(grid)), grid[:, None])
        table = uniform_table(gallery, euclidean, sigma_value=1.0)
        values = values_by_id(inv_dakr_rank(1000, [0.0], gallery, euclidean, table), gallery.ids)
        assert np.all(values > 0)
        assert np.all(np.diff(values) <= 0)


class TestDefaultKSigma:
    def test_five_percent_rule(self):
        assert default_k_sigma(100) == 5
        assert default_k_sigma(10) == 1  # never below 1

    def test_multiplicity_rule(self):
        assert default_k_sigma(1000, avg_true_matches=17.5) == 18
        assert default_k_sigma(1000, avg_true_matches=1.0) == 50


def _random_psd_instance(rng):
    """Gaussian gallery and probes with M = B·Bᵀ, B of rank 1..d (so M
    is often rank-deficient)."""
    gallery, probes, _, _ = random_instance(rng, max_n=12, max_d=4)
    b = rng.normal(size=(gallery.dim, int(rng.integers(1, gallery.dim + 1))))
    matrix = b @ b.T
    return gallery, probes, (matrix + matrix.T) / 2


def _lattice_instance(rng):
    """Distinct integer lattice points with M = B·Bᵀ + I for an integer B:
    every squared distance is an integer, so exact ties are common and
    must break by id."""
    d = int(rng.integers(2, 4))
    n, n_probes = int(rng.integers(6, 15)), int(rng.integers(1, 4))
    grid = np.array(list(itertools.product(range(-2, 3), repeat=d)), dtype=np.float64)
    points = grid[rng.choice(len(grid), size=n + n_probes, replace=False)]
    b = rng.integers(-2, 3, size=(d, d)).astype(np.float64)
    gallery = FeatureSet(np.arange(n), points[:n])
    probes = FeatureSet(np.arange(100, 100 + n_probes), points[n:])
    return gallery, probes, b @ b.T + np.eye(d)


class TestMahalanobisOracle:
    """knn/inn/rnn sets and inv/bi rankings under a Mahalanobis metric
    against the brute-force oracles, under both policies."""

    @pytest.mark.parametrize(
        "make_instance, seed",
        [(_random_psd_instance, 1907), (_lattice_instance, 2311)],
        ids=["random_psd", "integer_lattice"],
    )
    def test_matches_bruteforce(self, make_instance, seed):
        rng = np.random.default_rng(seed)
        mismatches = []
        for trial in range(60):
            gallery, probes, matrix = make_instance(rng)
            metric = DistanceMetric.mahalanobis(matrix)
            dist = make_dist("mahalanobis", matrix.tolist())
            gdict = {int(i): v.tolist() for i, v in zip(gallery.ids, gallery.vectors)}
            pdict = {int(i): v.tolist() for i, v in zip(probes.ids, probes.vectors)}
            k = int(rng.integers(1, 6))
            k_sigma = int(rng.integers(1, min(6, len(gallery))))
            for with_probes in (False, True):
                if with_probes and len(probes) < 2:
                    continue
                policy = (
                    AugmentationPolicy.with_probes(probes)
                    if with_probes
                    else AugmentationPolicy()
                )
                oracle_probes = pdict if with_probes else None
                table = compute_sigma_table(gallery, metric, k_sigma, policy)
                for pid, vec in pdict.items():
                    got = {
                        "knn": set(knn(pid, vec, gallery, metric, k, policy)),
                        "inn": set(inn(pid, vec, gallery, metric, k, policy)),
                        "rnn": set(rnn(pid, vec, gallery, metric, k, policy)),
                        "inv_dakr": inv_dakr_rank(
                            pid, vec, gallery, metric, table
                        ).gallery_ids.tolist(),
                        "bi_dakr": bi_dakr_rank(
                            pid, vec, gallery, metric, table, policy
                        ).gallery_ids.tolist(),
                    }
                    want = {
                        "knn": brute_knn(pid, vec, gdict, k, oracle_probes, dist),
                        "inn": brute_inn(pid, vec, gdict, k, oracle_probes, dist),
                        "rnn": brute_rnn(pid, vec, gdict, k, oracle_probes, dist),
                        "inv_dakr": brute_inv_ranking(vec, gdict, k_sigma, oracle_probes, dist),
                        "bi_dakr": brute_bi_ranking(
                            pid, vec, gdict, k_sigma, oracle_probes, dist
                        ),
                    }
                    mismatches += [
                        (trial, with_probes, pid, name)
                        for name in got
                        if got[name] != want[name]
                    ]
        assert mismatches == []
