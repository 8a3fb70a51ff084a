import warnings

import numpy as np
import pytest

from dakr import (
    DistanceMetric,
    FeatureSet,
    GroundTruth,
    RankedList,
    cmc,
    evaluate_methods,
    generate_scenario,
    k_sweep,
    mean_average_precision,
    rerank,
)
from dakr.core import ASCENDING_DISTANCE
from dakr.errors import InvalidParams, MissingTruth

from oracles import brute_ap, brute_cmc


def ranking(probe_id, ordered_ids):
    values = np.arange(len(ordered_ids), dtype=np.float64)
    return RankedList(probe_id, ordered_ids, values, ASCENDING_DISTANCE)


def sparse_judging_case():
    """Rankings of unsorted ids above 2**40, judged against match sets that
    also name ids no ranking holds, one empty set, and ids past int64."""
    rng = np.random.default_rng(17)
    pool = 2**40 + 7 * rng.choice(2**30, size=60, replace=False)
    absent = int(pool.max()) + 1
    rankings, matches = [], {}
    for probe in range(8):
        ids = rng.permutation(pool)[:40]
        rankings.append(ranking(probe, ids))
        found = rng.choice(ids, size=probe % 4, replace=False).tolist()
        matches[probe] = {*found, absent + probe}
    matches[3] = {2**63}
    matches[5] = {*matches[5], -(2**64)}
    matches[6] = set()
    return rankings, GroundTruth(matches)


def isin_map(rankings, truth):
    """mAP's arithmetic over hit positions taken from np.isin."""
    aps = []
    for r in rankings:
        match_ids = truth.matches_of(r.probe_id)
        if match_ids:
            positions = np.nonzero(np.isin(r.gallery_ids, list(match_ids)))[0] + 1
            precisions = np.arange(1, len(positions) + 1, dtype=np.float64) / positions
            aps.append(float(precisions.sum()) / len(match_ids))
    return float(np.mean(aps))


class TestCmc:
    def test_perfect_ranking(self):
        truth = GroundTruth({0: {7}, 1: {8}})
        rankings = [ranking(0, [7, 8, 9]), ranking(1, [8, 7, 9])]
        assert cmc(rankings, truth, 3).tolist() == [1.0, 1.0, 1.0]

    def test_matches_at_positions_two_and_four(self):
        truth = GroundTruth({0: {12}, 1: {13}})
        rankings = [
            ranking(0, [10, 12, 11, 13]),
            ranking(1, [10, 11, 12, 13]),
        ]
        assert cmc(rankings, truth, 4).tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_match_ranked_last(self):
        truth = GroundTruth({0: {4}})
        rankings = [ranking(0, [1, 2, 3, 4])]
        curve = cmc(rankings, truth, 4)
        assert curve.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_missing_truth(self):
        with pytest.raises(MissingTruth):
            cmc([ranking(5, [1])], GroundTruth({0: {1}}), 1)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(4)
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 30, dim=4, cluster_spread=0.3, seed=3
        )
        rankings = rerank("knn", probes, gallery, DistanceMetric.euclidean())
        curve = cmc(rankings, truth, len(gallery))
        assert np.all(np.diff(curve) >= 0)
        assert np.all((curve >= 0) & (curve <= 1))
        assert curve[-1] == 1.0  # every probe has a match somewhere

    def test_matches_bruteforce(self):
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 12, dim=3, cluster_spread=0.4, seed=8
        )
        cases = [
            (rerank("knn", probes, gallery, DistanceMetric.euclidean()), truth),
            sparse_judging_case(),
        ]
        for rankings, truth in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the empty match set
                got = cmc(rankings, truth, 40)
            expected = brute_cmc(
                {r.probe_id: r.gallery_ids.tolist() for r in rankings},
                {p: set(g) for p, g in truth.matches.items()},
                40,
            )
            assert got.tolist() == pytest.approx(expected)


class TestMeanAveragePrecision:
    def test_single_match_first(self):
        truth = GroundTruth({0: {5}})
        assert mean_average_precision([ranking(0, [5, 6, 7])], truth) == 1.0

    def test_two_matches_positions_one_and_three(self):
        truth = GroundTruth({0: {5, 7}})
        got = mean_average_precision([ranking(0, [5, 6, 7, 8])], truth)
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_single_match_ranked_last_of_five(self):
        truth = GroundTruth({0: {9}})
        got = mean_average_precision([ranking(0, [1, 2, 3, 4, 9])], truth)
        assert got == pytest.approx(1.0 / 5.0)

    def test_empty_match_set_excluded_with_warning(self):
        truth = GroundTruth({0: {5}, 1: set()})
        rankings = [ranking(0, [5, 6]), ranking(1, [5, 6])]
        with pytest.warns(RuntimeWarning, match="empty match set"):
            got = mean_average_precision(rankings, truth)
        assert got == 1.0

    def test_matches_bruteforce(self):
        gallery, probes, truth = generate_scenario(
            "multi_shot", 8, shots_per_id=3, dim=3, cluster_spread=0.4, seed=5
        )
        cases = [
            (rerank("knn", probes, gallery, DistanceMetric.euclidean()), truth),
            sparse_judging_case(),
        ]
        for rankings, truth in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the empty match set
                got = mean_average_precision(rankings, truth)
            aps = [
                brute_ap(r.gallery_ids.tolist(), set(truth.matches_of(r.probe_id)))
                for r in rankings
                if truth.matches_of(r.probe_id)
            ]
            assert got == pytest.approx(float(np.mean(aps)))
            assert got == isin_map(rankings, truth)

    def test_ap_lower_bound_when_first_hit_is_rank_one(self):
        # a probe whose first match lands at rank 1 has AP >= 1/|matches|
        truth = GroundTruth({0: {1, 2, 3}})
        rankings = [ranking(0, [1, 9, 8, 7, 2, 3])]
        got = mean_average_precision(rankings, truth)
        assert got >= 1.0 / 3.0


SCORES = {"CMC": lambda rankings, truth: float(cmc(rankings, truth, 2)[0]),
          "mAP": mean_average_precision}


@pytest.mark.parametrize("name", sorted(SCORES))
class TestJudgedProbes:
    def test_empty_match_set_excluded_with_warning(self, name):
        truth = GroundTruth({0: {5}, 1: set()})
        rankings = [ranking(0, [5, 6]), ranking(1, [5, 6])]
        with pytest.warns(RuntimeWarning, match=f"probe 1 .*excluded from {name}$") as seen:
            assert SCORES[name](rankings, truth) == 1.0
        assert [w.filename for w in seen] == [__file__]  # blames the caller

    @pytest.mark.parametrize("probe_ids", [[], [0], [0, 1]])
    def test_no_probe_to_judge_raises(self, name, probe_ids):
        truth = GroundTruth({0: set(), 1: set()})
        rankings = [ranking(p, [5, 6]) for p in probe_ids]
        with pytest.raises(InvalidParams, match="no probes with non-empty match sets"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                SCORES[name](rankings, truth)


class TestGroundTruth:
    def test_average_multiplicity(self):
        truth = GroundTruth({0: {1, 2}, 1: {3}})
        assert truth.average_multiplicity() == 1.5


class TestGenerateScenario:
    def test_deterministic_across_calls(self):
        a = generate_scenario("perfect_single_shot", 10, dim=4, cluster_spread=0.2, seed=9)
        b = generate_scenario("perfect_single_shot", 10, dim=4, cluster_spread=0.2, seed=9)
        assert np.array_equal(a[0].vectors, b[0].vectors)
        assert np.array_equal(a[1].vectors, b[1].vectors)
        assert a[2].matches == b[2].matches

    def test_seed_changes_output(self):
        a = generate_scenario("perfect_single_shot", 10, dim=4, cluster_spread=0.2, seed=1)
        b = generate_scenario("perfect_single_shot", 10, dim=4, cluster_spread=0.2, seed=2)
        assert not np.array_equal(a[0].vectors, b[0].vectors)

    def test_zero_spread_gives_perfect_knn(self):
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 20, dim=4, cluster_spread=0.0, seed=3
        )
        rankings = rerank("knn", probes, gallery, DistanceMetric.euclidean())
        assert cmc(rankings, truth, 1)[0] == 1.0

    def test_imperfect_adds_gallery_only_distractors(self):
        gallery, probes, truth = generate_scenario(
            "imperfect_single_shot", 10, n_distractors=7, dim=4, cluster_spread=0.2, seed=3
        )
        assert len(gallery) == 17
        assert len(probes) == 10
        matched = set().union(*truth.matches.values())
        assert len(set(gallery.ids.tolist()) - matched) == 7

    def test_perfect_rejects_distractors(self):
        with pytest.raises(InvalidParams):
            generate_scenario("perfect_single_shot", 10, n_distractors=3)

    def test_multi_shot_probes_inside_gallery(self):
        gallery, probes, truth = generate_scenario(
            "multi_shot", 6, shots_per_id=3, dim=4, cluster_spread=0.2, seed=3
        )
        assert len(gallery) == 6 * 4
        assert len(probes) == 6
        assert gallery.ids.tolist() == list(range(6 * 4))
        for pid in probes.ids:
            matches = truth.matches_of(int(pid))
            assert len(matches) == 3
            assert int(pid) not in matches
        # probe vectors are literal copies of their gallery rows (row = id)
        np.testing.assert_array_equal(probes.vectors, gallery.vectors[probes.ids])

    def test_multi_shot_rankings_exclude_own_copy(self):
        gallery, probes, truth = generate_scenario(
            "multi_shot", 5, shots_per_id=2, dim=3, cluster_spread=0.2, seed=6
        )
        rankings = rerank("knn", probes, gallery, DistanceMetric.euclidean())
        for r in rankings:
            assert r.probe_id not in r.gallery_ids.tolist()
            assert len(r) == len(gallery) - 1

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            generate_scenario("perfect_single_shot", 1)
        with pytest.raises(InvalidParams):
            generate_scenario("nope", 5)
        with pytest.raises(InvalidParams):
            generate_scenario("perfect_single_shot", 5, shots_per_id=2)

    def test_negative_seed_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="seed"):
            generate_scenario("perfect_single_shot", 4, seed=-1)

    def test_distractors_never_help_knn_rank1(self):
        # sign test over 25 seeds: adding distractors must not improve
        # rank-1 accuracy in expectation
        metric = DistanceMetric.euclidean()
        degraded, improved = 0, 0
        for seed in range(25):
            base_g, base_p, base_t = generate_scenario(
                "imperfect_single_shot", 40, n_distractors=0,
                dim=8, cluster_spread=0.25, seed=seed,
            )
            more_g, more_p, more_t = generate_scenario(
                "imperfect_single_shot", 40, n_distractors=120,
                dim=8, cluster_spread=0.25, seed=seed,
            )
            c0 = cmc(rerank("knn", base_p, base_g, metric), base_t, 1)[0]
            c1 = cmc(rerank("knn", more_p, more_g, metric), more_t, 1)[0]
            if c1 < c0:
                degraded += 1
            elif c1 > c0:
                improved += 1
        assert degraded >= 18
        assert improved <= 2


class TestKSweep:
    def test_knn_gain_is_identically_zero(self):
        trials = [
            generate_scenario("perfect_single_shot", 12, dim=3, cluster_spread=0.3, seed=s)
            for s in range(2)
        ]
        ranks, curves = k_sweep(["knn"], trials, [1, 3], ranks=(1, 5))
        assert ranks == (1, 5)
        for gains in curves["knn"].values():
            assert gains.tolist() == [0.0, 0.0]

    def test_boundary_k_one_finite(self):
        trials = [
            generate_scenario("perfect_single_shot", 10, dim=3, cluster_spread=0.25, seed=4)
        ]
        _, curves = k_sweep(["inv_dakr"], trials, [1], ranks=(1, 5))
        gains = curves["inv_dakr"][1]
        assert np.all(np.isfinite(gains))

    def test_shapes_and_methods(self):
        trials = [
            generate_scenario("perfect_single_shot", 12, dim=4, cluster_spread=0.3, seed=s)
            for s in range(2)
        ]
        ranks, curves = k_sweep(["bi_dakr", "bi_dakr+"], trials, [1, 2, 4], ranks=(1, 5, 10))
        assert set(curves) == {"bi_dakr", "bi_dakr+"}
        for per_k in curves.values():
            assert set(per_k) == {1, 2, 4}
            for gains in per_k.values():
                assert gains.shape == (3,)

    def test_ranks_clipped_against_smallest_trial(self):
        trials = [
            generate_scenario("perfect_single_shot", 8, dim=3, cluster_spread=0.3, seed=1)
        ]
        with pytest.warns(RuntimeWarning, match="clipped"):
            ranks, curves = k_sweep(["knn"], trials, [1], ranks=(1, 5, 20))
        assert ranks == (1, 5)
        assert curves["knn"][1].shape == (2,)


class TestEvaluateMethods:
    def test_report_structure_and_serialization(self):
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 15, dim=4, cluster_spread=0.25, seed=2
        )
        report = evaluate_methods(
            gallery, probes, truth, ["knn", "inv_dakr", "bi_dakr+"],
            k=3, ranks=(1, 5, 10),
        )
        assert [r.method for r in report.results] == ["knn", "inv_dakr", "bi_dakr+"]
        payload = report.to_json_dict()
        assert payload["ranks"] == [1, 5, 10]
        assert "offline_ms" not in payload["results"][0]
        timings = report.timings_dict()
        assert timings["bi_dakr+"]["online_ms_per_probe"] >= 0
        rows = report.csv_rows()
        assert len(rows) == 9
        assert {row["rank"] for row in rows} == {1, 5, 10}

    def test_ranks_clipped_to_gallery(self):
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 5, dim=3, cluster_spread=0.2, seed=2
        )
        with pytest.warns(RuntimeWarning, match="clipped"):
            report = evaluate_methods(gallery, probes, truth, ["knn"], ranks=(1, 20))
        assert report.ranks == (1,)

    def test_noiseless_scenario_cmc_one_for_all_methods(self):
        gallery, probes, truth = generate_scenario(
            "perfect_single_shot", 10, dim=3, cluster_spread=0.0, seed=1
        )
        report = evaluate_methods(
            gallery, probes, truth,
            ["knn", "inn", "rnn", "inv_dakr", "bi_dakr"],
            k=3, k_sigma=1, ranks=(1,),
        )
        for result in report.results:
            assert result.cmc[0] == 1.0
