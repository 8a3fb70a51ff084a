import logging

import numpy as np
import pytest

from dakr import (
    AugmentationPolicy,
    DistanceMetric,
    FeatureSet,
    bi_dakr_rank,
    compute_sigma_table,
    default_k_sigma,
    inv_dakr_rank,
    knn,
    rank_by_distance,
    rank_by_inn,
    rank_by_rnn,
    rerank,
)
from dakr.errors import InvalidParams, StaleSigmaTable
from dakr.neighbors import probe_id_offset
from dakr.rerank import parse_method_token

from conftest import random_instance


@pytest.fixture
def small_batch():
    rng = np.random.default_rng(77)
    gallery = FeatureSet(np.arange(9), rng.normal(size=(9, 3)))
    probes = FeatureSet(np.arange(100, 104), rng.normal(size=(4, 3)))
    return gallery, probes


class TestParseMethodToken:
    def test_plain_and_plus(self):
        assert parse_method_token("knn") == ("knn", "gallery_only")
        assert parse_method_token("bi_dakr+") == ("bi_dakr", "with_probes")

    def test_unknown(self):
        with pytest.raises(InvalidParams):
            parse_method_token("ssm")


class TestRerankFacade:
    def test_knn_passthrough(self, euclidean, small_batch):
        gallery, probes = small_batch
        batch = rerank("knn", probes, gallery, euclidean)
        for row, ranked in enumerate(batch):
            single = rank_by_distance(
                int(probes.ids[row]), probes.vectors[row], gallery, euclidean
            )
            assert ranked.gallery_ids.tolist() == single.gallery_ids.tolist()
            np.testing.assert_array_equal(ranked.values, single.values)

    def test_batch_equals_per_probe_for_every_method(self, euclidean, small_batch):
        gallery, probes = small_batch
        k, k_sigma = 3, 2
        table = compute_sigma_table(gallery, euclidean, k_sigma)
        singles = {
            "inn": lambda pid, vec: rank_by_inn(pid, vec, gallery, euclidean, k),
            "rnn": lambda pid, vec: rank_by_rnn(pid, vec, gallery, euclidean, k),
            "inv_dakr": lambda pid, vec: inv_dakr_rank(pid, vec, gallery, euclidean, table),
            "bi_dakr": lambda pid, vec: bi_dakr_rank(pid, vec, gallery, euclidean, table),
        }
        for method, single in singles.items():
            batch = rerank(method, probes, gallery, euclidean, k=k, k_sigma=k_sigma)
            for row, ranked in enumerate(batch):
                expected = single(int(probes.ids[row]), probes.vectors[row])
                assert ranked.gallery_ids.tolist() == expected.gallery_ids.tolist()
                np.testing.assert_array_equal(ranked.values, expected.values)

    def test_threaded_batch_identical(self, euclidean, small_batch):
        gallery, probes = small_batch
        serial = rerank("bi_dakr", probes, gallery, euclidean, k_sigma=2)
        threaded = rerank("bi_dakr", probes, gallery, euclidean, k_sigma=2, n_threads=4)
        for a, b in zip(serial, threaded):
            assert a.gallery_ids.tolist() == b.gallery_ids.tolist()
            np.testing.assert_array_equal(a.values, b.values)

    def test_mutual_augmentation_pools(self, euclidean):
        # each probe sees the others in its pool, never itself
        gallery = FeatureSet([0], [[0.0, 0.0]])
        probes = FeatureSet([10, 11], [[1.0, 0.0], [1.1, 0.0]])
        policy = AugmentationPolicy.with_probes(probes)
        offset = probe_id_offset(gallery)
        a = knn(10, probes.vectors[0], gallery, euclidean, 5, policy)
        b = knn(11, probes.vectors[1], gallery, euclidean, 5, policy)
        assert offset + 11 in a and offset + 10 not in a
        assert offset + 10 in b and offset + 11 not in b

    def test_single_probe_with_probes_degrades(self, euclidean):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        probes = FeatureSet([5], [[0.4]])
        with pytest.warns(RuntimeWarning, match="gallery_only"):
            batch = rerank("bi_dakr", probes, gallery, euclidean, k_sigma=1,
                           policy="with_probes")
        assert len(batch) == 1

    def test_unknown_method(self, euclidean, small_batch):
        gallery, probes = small_batch
        with pytest.raises(InvalidParams):
            rerank("zhong", probes, gallery, euclidean)

    def test_inn_requires_k(self, euclidean, small_batch):
        gallery, probes = small_batch
        with pytest.raises(InvalidParams):
            rerank("inn", probes, gallery, euclidean)

    def test_table_k_sigma_consistency(self, euclidean, small_batch):
        gallery, probes = small_batch
        table = compute_sigma_table(gallery, euclidean, 2)
        with pytest.raises(StaleSigmaTable):
            rerank("inv_dakr", probes, gallery, euclidean, k_sigma=3, table=table)

    def test_given_table_supplies_k_sigma(self, euclidean, small_batch):
        gallery, probes = small_batch
        assert default_k_sigma(len(gallery)) != 3
        table = compute_sigma_table(gallery, euclidean, 3)
        given = rerank("inv_dakr", probes, gallery, euclidean, table=table)
        built = rerank("inv_dakr", probes, gallery, euclidean, k_sigma=3)
        for a, b in zip(given, built):
            assert a.gallery_ids.tolist() == b.gallery_ids.tolist()
            np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("method", ["inv_dakr", "bi_dakr"])
    @pytest.mark.parametrize(
        "table_mode, requested",
        [("gallery_only", "with_probes"), ("with_probes", "gallery_only"),
         ("other_probes", "with_probes")],
    )
    def test_given_table_must_fit_policy(self, euclidean, small_batch, method, table_mode,
                                         requested):
        gallery, probes = small_batch
        policies = {
            "gallery_only": AugmentationPolicy(),
            "with_probes": AugmentationPolicy.with_probes(probes),
            # The same probe ids with other vectors: another reference set.
            "other_probes": AugmentationPolicy.with_probes(
                FeatureSet(probes.ids, probes.vectors + 1.0)
            ),
        }
        table = compute_sigma_table(gallery, euclidean, 2, policies[table_mode])
        with pytest.raises(StaleSigmaTable):
            rerank(method, probes, gallery, euclidean, k_sigma=table.k_sigma,
                   policy=policies[requested], table=table)

    def test_knn_refuses_with_probes(self, euclidean, small_batch):
        gallery, probes = small_batch
        with pytest.raises(InvalidParams):
            rerank("knn", probes, gallery, euclidean, policy="with_probes")

    @pytest.mark.parametrize("mode", ["gallery-only", "with-probes", "WITH_PROBES", ""])
    def test_unknown_policy_mode_rejected(self, euclidean, small_batch, mode):
        # A misspelled mode must not silently augment with the probes.
        gallery, probes = small_batch
        with pytest.raises(InvalidParams, match="unknown augmentation mode"):
            rerank("bi_dakr", probes, gallery, euclidean, k_sigma=2, policy=mode)

    def test_default_k_sigma_applied(self, euclidean):
        rng = np.random.default_rng(1)
        gallery = FeatureSet(np.arange(40), rng.normal(size=(40, 2)))
        probes = FeatureSet([100], rng.normal(size=(1, 2)))
        # 5% of 40 = 2; equivalent to passing k_sigma=2 explicitly
        auto = rerank("inv_dakr", probes, gallery, euclidean)
        manual = rerank("inv_dakr", probes, gallery, euclidean, k_sigma=2)
        assert auto[0].gallery_ids.tolist() == manual[0].gallery_ids.tolist()

    def test_dakr_plus_differs_when_probes_matter(self, euclidean):
        # augmentation reshapes bandwidths, so the two policies disagree
        # on at least some instance
        rng = np.random.default_rng(3)
        differs = False
        for _ in range(10):
            gallery, probes, _, _ = random_instance(rng, min_n=6)
            if len(probes) < 2:
                continue
            plain = rerank("bi_dakr", probes, gallery, euclidean, k_sigma=2)
            plus = rerank("bi_dakr", probes, gallery, euclidean, k_sigma=2,
                          policy="with_probes")
            if any(
                a.gallery_ids.tolist() != b.gallery_ids.tolist()
                for a, b in zip(plain, plus)
            ):
                differs = True
                break
        assert differs


class TestDecisionLog:
    """Silent decisions of a batch, logged at info level."""

    @staticmethod
    def dakr_lines(caplog):
        return [r.getMessage() for r in caplog.records if r.name == "dakr"]

    def test_k_cut_to_the_pool_logged_once_per_batch(self, caplog, euclidean):
        # probe 0 is gallery sample 0 (multiple-shot), so its pool holds
        # 3 samples; the fresh probes' pools hold all 4.  With probes, the
        # reference set holds 6 samples and every pool 5.
        gallery = FeatureSet([0, 1, 2, 3], [[0.0], [1.0], [3.0], [6.0]])
        probes = FeatureSet([0, 10, 11], [[0.0], [0.5], [2.0]])
        with caplog.at_level(logging.INFO, logger="dakr"):
            rerank("inn", probes, gallery, euclidean, k=3)
            assert self.dakr_lines(caplog) == []
            rerank("rnn", probes, gallery, euclidean, k=4)
            rerank("inn", probes, gallery, euclidean, k=6, policy="with_probes")
        assert self.dakr_lines(caplog) == [
            "k=4 exceeds the candidate pool of 1 of 3 probes (smallest pool 3); "
            "their neighbor sets are cut to the pool",
            "k=6 exceeds the candidate pool of 3 of 3 probes (smallest pool 5); "
            "their neighbor sets are cut to the pool",
        ]

    def test_with_probes_fallback_logged(self, caplog, euclidean):
        # reported once, as a RuntimeWarning; the CLI logs each warning as
        # a dakr line, so a dakr record would repeat it
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        probes = FeatureSet([5], [[0.4]])
        with caplog.at_level(logging.INFO, logger="dakr"):
            with pytest.warns(RuntimeWarning, match="gallery_only"):
                rerank("inn", probes, gallery, euclidean, k=1, policy="with_probes")
        assert self.dakr_lines(caplog) == []

    def test_silent_above_info(self, caplog, euclidean):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        probes = FeatureSet([5], [[0.4]])
        with caplog.at_level(logging.WARNING, logger="dakr"):
            with pytest.warns(RuntimeWarning, match="gallery_only"):
                rerank("rnn", probes, gallery, euclidean, k=9, policy="with_probes")
        assert self.dakr_lines(caplog) == []
