import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import dakr.core
import dakr.kernels
import dakr.neighbors
from dakr import (
    AugmentationPolicy,
    DistanceMetric,
    FeatureSet,
    bi_dakr_rank,
    compute_sigma_table,
    inn,
    inv_dakr_rank,
    jaccard_distance,
    knn,
    probe_sigma,
    rank_by_distance,
    rank_by_inn,
    rank_by_rnn,
    rnn,
)
from dakr.errors import EmptyGallery, InvalidParams, OutOfRange
from dakr.kernels import bind_sigma_table
from dakr.neighbors import (
    candidate_pool,
    gallery_neighbor_set,
    offset_ids,
    pool_row,
    probe_id_offset,
)

from conftest import (
    EXTRA_PROBE,
    RECIPROCAL_PROBE,
    RECIPROCAL_PROBE_ID,
    SCAN_DATA,
    random_instance,
    scan_data,
    two_probe_set,
)
from oracles import brute_inn, brute_knn, brute_rnn, brute_rnn_ranking, float_euclid


def assert_plain_ids(members):
    """A neighbor set is a frozenset of Python ints, never numpy scalars."""
    assert type(members) is frozenset and all(type(i) is int for i in members), members


class TestBlockedInnScan:
    def test_inn_matches_bruteforce_across_blocks(self, euclidean, monkeypatch):
        # 600 entries per block: the 60-sample gallery's scan spans six
        # blocks, so members sit on both sides of every block boundary
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 600)
        rng = np.random.default_rng(62)
        gvecs = rng.normal(size=(60, 3))
        pvecs = rng.normal(size=(4, 3))
        gallery = FeatureSet(np.arange(60), gvecs)
        probes = FeatureSet(np.arange(100, 104), pvecs)
        gdict = {i: list(v) for i, v in enumerate(gvecs)}
        pdict = {100 + i: list(v) for i, v in enumerate(pvecs)}
        for policy, pool_probes in (
            (AugmentationPolicy(), None),
            (AugmentationPolicy.with_probes(probes), pdict),
        ):
            for row, pid in enumerate(probes.ids.tolist()):
                for k in (1, 3, 8):
                    got = inn(pid, pvecs[row], gallery, euclidean, k, policy)
                    assert got == brute_inn(pid, list(pvecs[row]), gdict, k, probes=pool_probes)


class TestInnAgainstCdist:
    @pytest.mark.parametrize("data", SCAN_DATA)
    def test_members_match_cdist_counts(self, monkeypatch, data):
        # members are the samples with fewer than k others at most as far
        # as the probe, counted on full cdist rows; 700 entries per block
        monkeypatch.setattr(dakr.core, "_BLOCK_ELEMENTS", 700)
        vectors = scan_data(data, np.random.default_rng(200 + SCAN_DATA.index(data)))
        gallery = FeatureSet(np.arange(80), vectors[:80])
        for metric, name in (
            (DistanceMetric.euclidean(), "euclidean"),
            (DistanceMetric.squared_euclidean(), "sqeuclidean"),
        ):
            full = cdist(vectors[:80], vectors[:80], metric=name)
            np.fill_diagonal(full, np.inf)
            for row in range(80, 90):
                d_x = cdist(vectors[row][None, :], vectors[:80], metric=name)[0]
                counts = np.sum(full <= d_x[:, None], axis=1)
                for k in (1, 3, 8):
                    got = inn(500 + row, vectors[row], gallery, metric, k)
                    assert got == set(np.flatnonzero(counts < k).tolist()), (name, row, k)


def _counting(monkeypatch, module, name, calls=None):
    """Wrap ``module.name`` so each call is recorded in ``calls`` (a new
    list if not given); returns the calls."""
    calls = [] if calls is None else calls
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSinglePoolRow:
    """Each neighbor ranking computes the probe's distance row over its
    pool once; only the neighborhoods of reciprocal members add rows."""

    def test_rank_by_inn_and_rnn_compute_one_row(self, euclidean, monkeypatch):
        rng = np.random.default_rng(71)
        gallery = FeatureSet(np.arange(30), rng.normal(size=(30, 3)))
        probe = rng.normal(size=3)
        for fn in (rank_by_inn, rnn):
            calls = _counting(monkeypatch, dakr.neighbors, "pairwise")
            fn(99, probe, gallery, euclidean, 4)
            assert len(calls) == 1, fn.__name__
            monkeypatch.undo()

    def test_rank_by_rnn_adds_one_row_per_member(self, euclidean, monkeypatch):
        rng = np.random.default_rng(72)
        gallery = FeatureSet(np.arange(30), rng.normal(size=(30, 3)))
        seen = 0
        for _ in range(5):
            probe = rng.normal(size=3)
            members = rnn(99, probe, gallery, euclidean, 4)
            calls = _counting(monkeypatch, dakr.neighbors, "pairwise")
            rank_by_rnn(99, probe, gallery, euclidean, 4)
            monkeypatch.undo()
            assert len(calls) == 1 + len(members)
            seen += len(members)
        assert seen > 0


class TestUncopiedReferenceSet:
    """Under gallery_only every ranking takes its one distance row over
    ``gallery.vectors`` itself and builds exactly one RankedList."""

    @pytest.fixture
    def multi_shot(self):
        rng = np.random.default_rng(74)
        gallery = FeatureSet(np.arange(24), rng.normal(size=(24, 3)))
        # The probe is gallery sample 5, as in the multiple-shot protocol.
        return gallery, 5, gallery.vectors[5].copy()

    def test_distance_rows_take_the_gallery_uncopied(self, euclidean, monkeypatch, multi_shot):
        gallery, pid, pvec = multi_shot
        table = compute_sigma_table(gallery, euclidean, 3)
        calls = _counting(monkeypatch, dakr.neighbors, "pairwise")
        _counting(monkeypatch, dakr.kernels, "pairwise", calls)
        for fn, args in (
            (rank_by_distance, (pid, pvec, gallery, euclidean)),
            (inv_dakr_rank, (pid, pvec, gallery, euclidean, table)),
            (bi_dakr_rank, (pid, pvec, gallery, euclidean, table)),
            (probe_sigma, (pid, pvec, gallery, euclidean, table)),
        ):
            calls.clear()
            fn(*args)
            assert calls, fn.__name__
            for _, _, refs in calls:
                assert np.shares_memory(refs, gallery.vectors), fn.__name__

    def test_one_ranked_list_per_call(self, euclidean, monkeypatch, multi_shot):
        gallery, pid, pvec = multi_shot
        table = compute_sigma_table(gallery, euclidean, 3)
        built = _counting(monkeypatch, dakr.neighbors, "RankedList")
        _counting(monkeypatch, dakr.kernels, "RankedList", built)
        for fn, args in (
            (rank_by_distance, (pid, pvec, gallery, euclidean)),
            (rank_by_inn, (pid, pvec, gallery, euclidean, 3)),
            (rank_by_rnn, (pid, pvec, gallery, euclidean, 3)),
            (inv_dakr_rank, (pid, pvec, gallery, euclidean, table)),
            (bi_dakr_rank, (pid, pvec, gallery, euclidean, table)),
        ):
            built.clear()
            ranked = fn(*args)
            assert len(built) == 1, fn.__name__
            assert pid not in ranked.gallery_ids and len(ranked) == len(gallery) - 1

    def test_distance_rows_and_digests_per_ranking(self, euclidean, monkeypatch, multi_shot):
        # The counts the traced benchmark records per probe: one distance
        # row per ranking, plus probe_sigma's own row for gallery-only
        # bi_dakr (none when sigma_i is cached), and one table digest per
        # kernel ranking.
        gallery, pid, pvec = multi_shot
        table = compute_sigma_table(gallery, euclidean, 3)
        policy = AugmentationPolicy.with_probes(FeatureSet([pid, 90], [pvec, pvec + 1.0]))
        cached = compute_sigma_table(gallery, euclidean, 3, policy)
        calls = _counting(monkeypatch, dakr.neighbors, "pairwise")
        _counting(monkeypatch, dakr.kernels, "pairwise", calls)
        digests = _counting(monkeypatch, dakr.kernels, "reference_digest")
        for fn, args, rows in (
            (rank_by_distance, (pid, pvec, gallery, euclidean), 1),
            (inv_dakr_rank, (pid, pvec, gallery, euclidean, table), 1),
            (bi_dakr_rank, (pid, pvec, gallery, euclidean, table), 2),
            (bi_dakr_rank, (pid, pvec, gallery, euclidean, cached, policy), 1),
        ):
            calls.clear()
            digests.clear()
            fn(*args)
            assert sum(len(query) for _, query, _ in calls) == rows, (fn.__name__, args[-1])
            assert len(digests) == (0 if fn is rank_by_distance else 1), fn.__name__


class TestPoolRuleOracle:
    def test_gallery_probes_and_extra_probes_match_bruteforce(self, euclidean):
        # Probes that are gallery samples (the multiple-shot protocol) next
        # to extra probes, one of whose raw ids equals another's offset id.
        rng = np.random.default_rng(73)
        for _ in range(6):
            n = int(rng.integers(6, 14))
            gvecs = rng.normal(size=(n, 2))
            gallery = FeatureSet(np.arange(n), gvecs)
            offset = probe_id_offset(gallery)
            shots = rng.choice(n, size=2, replace=False)
            extra = [n + 3, 2 * n + 3, int(rng.integers(3 * n, 5 * n))]
            assert extra[0] + offset == extra[1]
            ids = [int(i) for i in shots] + extra
            pvecs = np.vstack([gvecs[shots], rng.normal(size=(len(extra), 2))])
            probes = FeatureSet(ids, pvecs)
            gdict = {i: list(v) for i, v in enumerate(gvecs)}
            pdict = {pid: list(v) for pid, v in zip(ids, pvecs)}
            for policy, pool_probes in (
                (AugmentationPolicy(), None),
                (AugmentationPolicy.with_probes(probes), pdict),
            ):
                for pid, pvec in zip(ids, pvecs):
                    for k in (1, 3, 6):
                        args = (pid, pvec, gallery, euclidean, k, policy)
                        oracle = (pid, list(pvec), gdict, k)
                        for fn, brute in ((knn, brute_knn), (inn, brute_inn), (rnn, brute_rnn)):
                            got = fn(*args)
                            assert got == brute(*oracle, probes=pool_probes)
                            assert_plain_ids(got)


class TestKnn:
    def test_hand_distances(self, euclidean):
        gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        out = knn(99, [0.9], gallery, euclidean, 2)
        assert out == frozenset({0, 1})

    def test_zero_distance_wins(self, euclidean):
        gallery = FeatureSet([0, 1], [[0.0, 0.0], [5.0, 5.0]])
        out = knn(7, [5.0, 5.0], gallery, euclidean, 1)
        assert out == frozenset({1})

    def test_three_nearest(self, euclidean, reciprocal_gallery):
        out = knn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3)
        assert out == frozenset({1, 2, 3})

    def test_k_truncates_to_pool(self, euclidean):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        out = knn(9, [0.5], gallery, euclidean, 10)
        assert out == frozenset({0, 1})

    def test_own_gallery_copy_excluded(self, euclidean):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        out = knn(0, [0.0], gallery, euclidean, 1)
        assert out == frozenset({1})

    def test_augmented_members_use_offset_ids(self, euclidean):
        gallery = FeatureSet([0, 1], [[0.0], [10.0]])
        probes = FeatureSet([10, 11], [[0.1], [0.2]])
        policy = AugmentationPolicy.with_probes(probes)
        out = knn(10, [0.1], gallery, euclidean, 2, policy)
        offset = probe_id_offset(gallery)
        # nearest are the other probe (0.2) and gallery 0
        assert out == frozenset({0, offset + 11})

    def test_probe_ids_matching_gallery_ids_are_same_sample(self, euclidean):
        # shared id namespace: a probe with a gallery id IS that gallery
        # sample, so it neither augments the pool nor competes with itself
        gallery = FeatureSet([0, 1], [[0.0], [10.0]])
        probes = FeatureSet([0, 1], [[0.0], [10.0]])
        policy = AugmentationPolicy.with_probes(probes)
        out = knn(0, [0.0], gallery, euclidean, 5, policy)
        assert out == frozenset({1})

    def test_probe_never_in_own_pool(self, euclidean):
        gallery = FeatureSet([0], [[0.0]])
        probes = FeatureSet([5, 6], [[1.0], [2.0]])
        policy = AugmentationPolicy.with_probes(probes)
        offset = probe_id_offset(gallery)
        for row, pid in enumerate((5, 6)):
            out = knn(pid, probes.vectors[row], gallery, euclidean, 3, policy)
            assert offset + pid not in out

    def test_tie_broken_by_ascending_id(self, euclidean):
        gallery = FeatureSet([3, 1], [[1.0], [-1.0]])
        out = knn(9, [0.0], gallery, euclidean, 1)
        assert out == frozenset({1})


class TestInn:
    def test_fig_membership(self, euclidean, reciprocal_gallery):
        out = inn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3)
        assert out == frozenset({2, 3})

    def test_single_gallery_point_forced(self, euclidean):
        gallery = FeatureSet([0], [[1.0]])
        assert inn(5, [7.0], gallery, euclidean, 1) == frozenset({0})

    def test_extra_probe_changes_neighborhood(self, euclidean, reciprocal_gallery):
        policy = AugmentationPolicy.with_probes(two_probe_set())
        out = inn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3, policy)
        assert out == frozenset({2})

    def test_matches_bruteforce_eight_points(self, euclidean):
        rng = np.random.default_rng(42)
        vectors = rng.normal(size=(8, 2))
        gallery = FeatureSet(np.arange(8), vectors)
        gallery_dict = {i: list(map(float, vectors[i])) for i in range(8)}
        probe = [0.1, -0.2]
        got = inn(100, probe, gallery, euclidean, 3)
        assert got == frozenset(brute_inn(100, probe, gallery_dict, 3))

    def test_full_scan_not_restricted_to_probe_knn(self, euclidean):
        # isolated point far from the probe still searches back: its own
        # neighborhood is so sparse that the probe enters it, even though
        # it is nowhere near the probe's k-NN.  A shortcut that only scans
        # the probe's k-NN returns the empty set here.
        gallery = FeatureSet([0, 1, 2, 3], [[1.0], [1.1], [1.2], [-5.0]])
        probe = [0.0]
        members = inn(9, probe, gallery, euclidean, 2)
        assert members == frozenset({3})
        forward = knn(9, probe, gallery, euclidean, 2)
        assert forward == frozenset({0, 1})
        assert not members & forward


class TestRnn:
    def test_fig_membership(self, euclidean, reciprocal_gallery):
        out = rnn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3)
        assert out == frozenset({2, 3})

    def test_k_equals_pool_gives_inn(self, euclidean):
        rng = np.random.default_rng(5)
        gallery = FeatureSet(np.arange(6), rng.normal(size=(6, 2)))
        probe = [0.0, 0.0]
        k = len(gallery)
        assert rnn(99, probe, gallery, euclidean, k) == inn(99, probe, gallery, euclidean, k)

    def test_matches_bruteforce_composition(self, euclidean):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(8, 3))
        gallery = FeatureSet(np.arange(8), vectors)
        gallery_dict = {i: list(map(float, vectors[i])) for i in range(8)}
        probe = list(map(float, rng.normal(size=3)))
        assert rnn(50, probe, gallery, euclidean, 3) == frozenset(
            brute_rnn(50, probe, gallery_dict, 3)
        )

    def test_subset_invariants_random(self, euclidean):
        rng = np.random.default_rng(23)
        for _ in range(25):
            gallery, probes, gdict, pdict = random_instance(rng)
            pid = int(probes.ids[0])
            pvec = probes.vectors[0]
            for k in (1, 2, 4):
                r = rnn(pid, pvec, gallery, euclidean, k)
                i = inn(pid, pvec, gallery, euclidean, k)
                f = knn(pid, pvec, gallery, euclidean, k)
                assert r <= i
                assert r <= f


class TestMonotonicityInK:
    def test_knn_and_derived_sets_grow_with_k(self, euclidean):
        rng = np.random.default_rng(31)
        for _ in range(15):
            gallery, probes, _, _ = random_instance(rng)
            pid = int(probes.ids[0])
            pvec = probes.vectors[0]
            prev_knn, prev_inn, prev_rnn = frozenset(), frozenset(), frozenset()
            for k in range(1, len(gallery) + 1):
                cur_knn = knn(pid, pvec, gallery, euclidean, k)
                cur_inn = inn(pid, pvec, gallery, euclidean, k)
                cur_rnn = rnn(pid, pvec, gallery, euclidean, k)
                assert prev_knn <= cur_knn
                assert prev_inn <= cur_inn
                assert prev_rnn <= cur_rnn
                prev_knn, prev_inn, prev_rnn = cur_knn, cur_inn, cur_rnn

    def test_distant_dummy_probes_never_change_inn(self, euclidean):
        # dummy samples only push away: probes farther than every pairwise
        # distance cannot enter any local neighborhood
        rng = np.random.default_rng(37)
        for _ in range(15):
            gallery, probes, _, _ = random_instance(rng)
            pid = int(probes.ids[0])
            pvec = probes.vectors[0]
            span = float(
                np.linalg.norm(
                    gallery.vectors[:, None, :] - gallery.vectors[None, :, :], axis=2
                ).max()
            )
            far = np.full((2, gallery.dim), 100.0 * (span + 1.0))
            far[1] += span + 1.0
            extra = FeatureSet([pid, 900, 901], np.vstack([pvec[None, :], far]))
            policy = AugmentationPolicy.with_probes(extra)
            for k in (1, 2, 3):
                base = inn(pid, pvec, gallery, euclidean, k)
                assert inn(pid, pvec, gallery, euclidean, k, policy) == base


class TestJaccard:
    def test_identical_nonempty(self):
        assert jaccard_distance({1, 2}, {1, 2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_distance({1, 2}, {2, 3}) == pytest.approx(1 - 1 / 3)

    def test_disjoint(self):
        assert jaccard_distance({1}, {2}) == 1.0

    def test_empty_union_is_maximal(self):
        assert jaccard_distance(set(), set()) == 1.0

    def test_accepts_neighbor_sets(self, euclidean, reciprocal_gallery):
        # The sets knn and inn return, not hand-built ones: {1, 2, 3} and {2, 3}.
        args = (RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3)
        a, b = knn(*args), inn(*args)
        assert jaccard_distance(a, b) == pytest.approx(1 - 2 / 3)
        assert jaccard_distance(a, a) == 0.0

    def test_pseudometric_exhaustive_five_element_universe(self):
        universe = range(5)
        subsets = [
            frozenset(c)
            for r in range(6)
            for c in itertools.combinations(universe, r)
        ]
        for a in subsets:
            for b in subsets:
                d_ab = jaccard_distance(a, b)
                assert d_ab == jaccard_distance(b, a)
                if a or b:
                    assert (d_ab == 0.0) == (a == b)
                else:
                    assert d_ab == 1.0  # documented empty-union convention
        for a, b, c in itertools.product(subsets, repeat=3):
            assert jaccard_distance(a, b) <= (
                jaccard_distance(a, c) + jaccard_distance(c, b) + 1e-12
            )


class TestRankByRnn:
    def test_empty_reciprocal_set_falls_back_to_knn_order(self, euclidean):
        # k=1 with the probe's nearest sample living in a 2-cluster: no
        # reciprocity, so the full list must equal the distance ordering
        gallery = FeatureSet([0, 1, 2], [[1.0], [1.05], [3.0]])
        probe = [0.0]
        assert rnn(9, probe, gallery, euclidean, 1) == frozenset()
        ranked = rank_by_rnn(9, probe, gallery, euclidean, 1)
        baseline = rank_by_distance(9, probe, gallery, euclidean)
        assert ranked.gallery_ids.tolist() == baseline.gallery_ids.tolist()

    def test_fig_ordering(self, euclidean, reciprocal_gallery):
        ranked = rank_by_rnn(
            RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3
        )
        ids = ranked.gallery_ids.tolist()
        assert set(ids[:2]) == {2, 3}
        # everything after the reciprocal block is ordered by raw distance
        baseline = rank_by_distance(
            RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean
        )
        rest_expected = [g for g in baseline.gallery_ids.tolist() if g not in {2, 3}]
        assert ids[2:] == rest_expected
        assert ids[2] == 1

    def test_reciprocal_block_sorted_by_jaccard(self, euclidean, reciprocal_gallery):
        ranked = rank_by_rnn(
            RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3
        )
        probe_nn = knn(
            RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean, 3
        )
        row = pool_row(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, reciprocal_gallery, euclidean)
        expected = {}
        for gid in (2, 3):
            neighborhood = gallery_neighbor_set(
                gid, RECIPROCAL_PROBE_ID, row, reciprocal_gallery, euclidean, 3
            )
            assert_plain_ids(neighborhood)
            expected[gid] = jaccard_distance(neighborhood, probe_nn)
        first, second = ranked.gallery_ids.tolist()[:2]
        assert expected[first] <= expected[second]
        assert ranked.values[0] == pytest.approx(expected[first])

    def test_matches_exhaustive_oracle_eight_points(self, euclidean):
        rng = np.random.default_rng(61)
        vectors = rng.normal(size=(8, 2))
        gallery = FeatureSet(np.arange(8), vectors)
        gallery_dict = {i: list(map(float, vectors[i])) for i in range(8)}
        probe = [0.3, 0.1]
        k = 3
        members = brute_rnn(77, probe, gallery_dict, k)
        # oracle ordering: members by jaccard of the two neighborhoods,
        # ties by distance then id; then the rest by distance
        from oracles import euclid, offset_for, topk_ids, brute_knn

        probe_eff = offset_for(gallery_dict) + 77
        probe_nn = brute_knn(77, probe, gallery_dict, k)

        def neighborhood(gid):
            pool = [(o, v) for o, v in gallery_dict.items() if o != gid]
            pool.append((probe_eff, probe))
            return topk_ids(gallery_dict[gid], pool, k)

        scored = []
        for gid in members:
            ns = neighborhood(gid)
            union = ns | probe_nn
            j = 1.0 - len(ns & probe_nn) / len(union) if union else 1.0
            scored.append((j, euclid(probe, gallery_dict[gid]), gid))
        scored.sort()
        rest = sorted(
            (euclid(probe, gallery_dict[g]), g) for g in gallery_dict if g not in members
        )
        expected = [g for _, _, g in scored] + [g for _, g in rest]
        ranked = rank_by_rnn(77, probe, gallery, euclidean, k)
        assert ranked.gallery_ids.tolist() == expected

    @pytest.mark.parametrize("lattice", [False, True], ids=["gaussian", "lattice"])
    @pytest.mark.parametrize("augmented", [False, True], ids=["gallery_only", "with_probes"])
    def test_ids_and_values_match_oracle_ranking(self, euclidean, augmented, lattice):
        # Two probes are gallery samples, whose own copy leaves the pool
        # (the multiple-shot protocol); two are extra samples.  On the
        # integer lattice many distances tie.
        rng = np.random.default_rng(93 + 2 * augmented + lattice)

        def draw(*shape):
            if lattice:
                return rng.integers(-2, 3, size=shape).astype(np.float64)
            return rng.normal(size=shape)

        seen = 0
        for _ in range(8):
            n, d = int(rng.integers(5, 16)), int(rng.integers(1, 4))
            gvecs = draw(n, d)
            gallery = FeatureSet(np.arange(n), gvecs)
            shots = rng.choice(n, size=2, replace=False)
            ids = [int(i) for i in shots] + [n + 2, n + 5]
            pvecs = np.vstack([gvecs[shots], draw(2, d)])
            probes = FeatureSet(ids, pvecs)
            policy = AugmentationPolicy.with_probes(probes) if augmented else AugmentationPolicy()
            gdict = {i: list(v) for i, v in enumerate(gvecs)}
            pdict = {pid: list(v) for pid, v in zip(ids, pvecs)} if augmented else None
            for pid, pvec in zip(ids, pvecs):
                for k in (1, 2, 4):
                    ranked = rank_by_rnn(pid, pvec, gallery, euclidean, k, policy)
                    expected = brute_rnn_ranking(pid, list(pvec), gdict, k, probes=pdict)
                    assert ranked.gallery_ids.tolist() == [g for g, _ in expected]
                    assert ranked.values.tolist() == pytest.approx(
                        [v for _, v in expected], rel=1e-12, abs=0
                    )
                    seen += int(np.count_nonzero(ranked.values < 2.0))
        assert seen > 0


@pytest.mark.parametrize("fn", [knn, inn, rnn, rank_by_inn, rank_by_rnn])
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(euclidean, fn, k):
    gallery = FeatureSet(np.arange(5), [[0.0], [0.1], [0.3], [0.6], [1.0]])
    with pytest.raises(InvalidParams):
        fn(9, [0.2], gallery, euclidean, k)


@pytest.mark.parametrize("k", [0, -1])
def test_gallery_neighbor_set_k_below_one_rejected(euclidean, k):
    gallery = FeatureSet(np.arange(5), [[0.0], [0.1], [0.3], [0.6], [1.0]])
    row = pool_row(9, [0.2], gallery, euclidean)
    with pytest.raises(InvalidParams, match="k must be >= 1"):
        gallery_neighbor_set(1, 9, row, gallery, euclidean, k)


@pytest.mark.parametrize(
    "fn",
    [knn, inn, rnn, rank_by_distance, rank_by_inn, rank_by_rnn, inv_dakr_rank, bi_dakr_rank],
    ids=lambda fn: fn.__name__,
)
def test_empty_pool_raises(euclidean, fn):
    # The probe is the gallery's only sample, so its own copy is the whole pool.
    gallery = FeatureSet([4], [[0.0]])
    table = bind_sigma_table(gallery, euclidean, 1, AugmentationPolicy(), np.ones(1))
    last = {rank_by_distance: (), inv_dakr_rank: (table,), bi_dakr_rank: (table,)}.get(fn, (1,))
    with pytest.raises(EmptyGallery):
        fn(4, [0.0], gallery, euclidean, *last)


class TestRankByInn:
    def test_members_first_then_distance(self, euclidean):
        gallery = FeatureSet([0, 1, 2, 3], [[1.0], [1.1], [1.2], [-5.0]])
        probe = [0.0]
        ranked = rank_by_inn(9, probe, gallery, euclidean, 2)
        # only the isolated point searches back; it leads despite being far
        assert ranked.gallery_ids.tolist() == [3, 0, 1, 2]
        assert ranked.values[0] < 1.0 <= ranked.values[1]


class TestOffsetIdRange:
    """A probe's offset id is its id plus the largest gallery id plus 1;
    one past int64 is refused, never wrapped."""

    def test_with_probes_pools_refuse_offset_ids_past_int64(self, euclidean):
        gallery = FeatureSet([0, 1, 2, 2**62 + 3], np.eye(4))
        probes = FeatureSet([2**62 + 5, 2**62 + 7], np.eye(4)[:2] + 0.1)
        policy = AugmentationPolicy.with_probes(probes)
        with pytest.raises(OutOfRange, match="no offset id"):
            candidate_pool(2**62 + 5, gallery, policy)
        for fn in (knn, inn, rnn, rank_by_inn, rank_by_rnn):
            with pytest.raises(OutOfRange):
                fn(2**62 + 5, probes.vectors[0], gallery, euclidean, 2, policy)
        with pytest.raises(OutOfRange):
            compute_sigma_table(gallery, euclidean, 1, policy)

    def test_gallery_only_rankings_run_at_the_int64_limit(self, euclidean):
        top = np.iinfo(np.int64).max
        gallery = FeatureSet([0, 1, 2, top], [[0.0], [1.0], [3.0], [0.5]])
        table = compute_sigma_table(gallery, euclidean, 1)
        for ranked in (
            rank_by_distance(9, [0.4], gallery, euclidean),
            rank_by_inn(9, [0.4], gallery, euclidean, 2),
            inv_dakr_rank(9, [0.4], gallery, euclidean, table),
            bi_dakr_rank(9, [0.4], gallery, euclidean, table),
        ):
            assert sorted(ranked.gallery_ids.tolist()) == [0, 1, 2, top]
        # k-RNN swaps the probe in at its offset id, which has no room.
        with pytest.raises(OutOfRange):
            rank_by_rnn(9, [0.4], gallery, euclidean, 2)

    def test_negative_probe_ids_are_refused(self, euclidean):
        # -1 plus the offset 2**63 would be the gallery id 2**63 - 1; any
        # negative id's offset id may be a gallery id.
        for top in (np.iinfo(np.int64).max, 5):
            gallery = FeatureSet([0, 1, 2, top], [[0.0], [1.0], [3.0], [0.5]])
            with pytest.raises(OutOfRange, match="no offset id"):
                offset_ids(-1, gallery)
            with pytest.raises(OutOfRange, match="no offset id"):
                rank_by_rnn(-1, [0.4], gallery, euclidean, 2)
        policy = AugmentationPolicy.with_probes(FeatureSet([7], [[0.2]]))
        with pytest.raises(OutOfRange, match="no offset id"):
            inn(-1, [0.4], gallery, euclidean, 2, policy)


class TestOverflowingDistances:
    def test_infinite_distances_rank_last_as_under_knn(self, euclidean):
        # Samples 2 and 3 are too far apart for float64: every distance
        # from either one is +inf.
        gallery = FeatureSet(
            np.arange(5), [[0.0, 0.1], [0.5, 0.2], [1e200, 0.3], [-1e200, 0.3], [1.0, 0.0]]
        )
        probe = [0.2, 0.1]
        order = rank_by_distance(9, probe, gallery, euclidean).gallery_ids.tolist()
        assert order[3:] == [2, 3]
        for fn in (rank_by_inn, rank_by_rnn):
            ranked = fn(9, probe, gallery, euclidean, 2)
            assert ranked.gallery_ids.tolist() == order, fn.__name__
            assert ranked.values[3:].tolist() == [3.0, 3.0], fn.__name__

    @pytest.mark.parametrize(
        "gvecs, pvecs",
        [
            # GEMM blocks: the gallery's distances are small, the probe's
            # overflow to +inf.
            ([[0.0], [0.5], [1.0], [2.0]], [[1e200], [0.7]]),
            # Exact blocks: every distance from samples 2 and 3 is +inf.
            (
                [[0.0, 0.1], [0.5, 0.2], [1e200, 0.3], [-1e200, 0.3], [1.0, 0.0]],
                [[0.2, 0.1], [5e199, 0.0]],
            ),
        ],
        ids=["gemm", "exact"],
    )
    @pytest.mark.parametrize("augmented", [False, True], ids=["gallery_only", "with_probes"])
    @pytest.mark.parametrize("squared", [False, True], ids=["euclidean", "squared_euclidean"])
    def test_members_and_rankings_match_the_oracles(self, gvecs, pvecs, augmented, squared):
        metric = DistanceMetric.squared_euclidean() if squared else DistanceMetric.euclidean()

        def dist(a, b):
            if squared:
                return sum((x - y) * (x - y) for x, y in zip(a, b))
            return float_euclid(a, b)

        n = len(gvecs)
        gallery = FeatureSet(np.arange(n), gvecs)
        ids = [n + 4, n + 1]
        probes = FeatureSet(ids, pvecs)
        policy = AugmentationPolicy.with_probes(probes) if augmented else AugmentationPolicy()
        gdict = dict(enumerate(gvecs))
        pdict = dict(zip(ids, pvecs)) if augmented else None
        for pid, pvec in zip(ids, pvecs):
            for k in range(1, n + 2):
                oracle = (pid, pvec, gdict, k)
                got = inn(pid, pvec, gallery, metric, k, policy)
                assert got == brute_inn(*oracle, probes=pdict, dist=dist), (pid, k)
                ranked = rank_by_rnn(pid, pvec, gallery, metric, k, policy)
                expected = brute_rnn_ranking(*oracle, probes=pdict, dist=dist)
                assert ranked.gallery_ids.tolist() == [g for g, _ in expected], (pid, k)
                assert ranked.values.tolist() == pytest.approx(
                    [v for _, v in expected], rel=1e-12, abs=0
                ), (pid, k)

    def test_bandwidths_refuse_overflowing_distances(self, euclidean):
        gallery = FeatureSet(np.arange(3), [[0.0], [1e200], [-1e200]])
        with pytest.raises(OutOfRange, match="overflow"):
            compute_sigma_table(gallery, euclidean, 1)
        # The gallery's own distances are finite; the probe's are not.
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        table = compute_sigma_table(gallery, euclidean, 1)
        with pytest.raises(OutOfRange, match="overflow"):
            probe_sigma(9, [1e200], gallery, euclidean, table)


class TestPolicyValidation:
    def test_with_probes_requires_probes(self):
        with pytest.raises(InvalidParams):
            AugmentationPolicy("with_probes")

    def test_gallery_only_takes_no_probes(self):
        with pytest.raises(InvalidParams):
            AugmentationPolicy("gallery_only", FeatureSet([0], [[0.0]]))

    def test_unknown_mode(self):
        with pytest.raises(InvalidParams):
            AugmentationPolicy("both")


@given(
    a=st.frozensets(st.integers(0, 8), max_size=6),
    b=st.frozensets(st.integers(0, 8), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_jaccard_bounds_property(a, b):
    d = jaccard_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == jaccard_distance(b, a)
