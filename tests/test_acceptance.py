"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them inline).

Fast functional criteria come first; the scenario and timing criteria
generate their own data and verify wall-clock budgets.
"""

import functools
import itertools
import math
import sys
import time

import numpy as np
import pytest

from dakr import (
    AugmentationPolicy,
    DistanceMetric,
    FeatureSet,
    bi_dakr_rank,
    cmc,
    compute_sigma_table,
    generate_scenario,
    inn,
    inv_dakr_rank,
    jaccard_distance,
    knn,
    mean_average_precision,
    rank_by_distance,
    rerank,
    rnn,
)
from dakr.cli import main as cli_main
from dakr.core import ASCENDING_DISTANCE, RankedList
from dakr.kernels import SigmaTable, reference_digest

from conftest import (
    EXTRA_PROBE,
    EXTRA_PROBE_ID,
    RECIPROCAL_PROBE,
    RECIPROCAL_PROBE_ID,
    random_instance,
    reciprocal_feature_set,
    two_probe_set,
)
from oracles import (
    brute_bi_ranking,
    brute_inn,
    brute_inv_ranking,
    brute_knn,
    brute_rnn,
)

EUCLID = DistanceMetric.euclidean()


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL", file=sys.stderr)
                raise
            print(f"criterion {num:2d} ({name}): PASS", file=sys.stderr)

        return wrapper

    return decorate


def _uniform_table(gallery, sigma_value):
    return SigmaTable(
        k_sigma=1,
        policy_mode="gallery_only",
        reference_digest=reference_digest(gallery, EUCLID, 1, "gallery_only"),
        gallery_ids=gallery.ids.copy(),
        gallery_sigmas=np.full(len(gallery), sigma_value),
    )


@criterion(1, "oracle equivalence on small instances")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    mismatches = 0
    for trial in range(200):
        gallery, probes, gdict, pdict = random_instance(rng, max_n=12, max_d=4)
        k = int(rng.integers(1, 6))
        k_sigma = int(rng.integers(1, min(6, len(gallery))))
        with_probes = bool(rng.integers(0, 2)) and len(probes) > 1
        policy = (
            AugmentationPolicy.with_probes(probes)
            if with_probes
            else AugmentationPolicy.gallery_only()
        )
        oracle_probes = pdict if with_probes else None
        pid = int(probes.ids[0])
        pvec = [float(v) for v in probes.vectors[0]]

        if knn(pid, pvec, gallery, EUCLID, k, policy) != frozenset(
            brute_knn(pid, pvec, gdict, k, oracle_probes)
        ):
            mismatches += 1
        if inn(pid, pvec, gallery, EUCLID, k, policy) != frozenset(
            brute_inn(pid, pvec, gdict, k, oracle_probes)
        ):
            mismatches += 1
        if rnn(pid, pvec, gallery, EUCLID, k, policy) != frozenset(
            brute_rnn(pid, pvec, gdict, k, oracle_probes)
        ):
            mismatches += 1

        table = compute_sigma_table(gallery, EUCLID, k_sigma, policy)
        got_inv = inv_dakr_rank(pid, pvec, gallery, EUCLID, table).gallery_ids.tolist()
        if got_inv != brute_inv_ranking(pvec, gdict, k_sigma, oracle_probes):
            mismatches += 1
        got_bi = bi_dakr_rank(
            pid, pvec, gallery, EUCLID, table, policy
        ).gallery_ids.tolist()
        if got_bi != brute_bi_ranking(pid, pvec, gdict, k_sigma, oracle_probes):
            mismatches += 1
    assert mismatches == 0


@criterion(2, "figure-1 fixture: knn/inn/rnn membership")
def test_criterion_2_reciprocal_fixture():
    gallery = reciprocal_feature_set()
    forward = knn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3)
    assert forward == frozenset({1, 2, 3})
    inverse = inn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3)
    assert inverse == frozenset({2, 3})
    reciprocal = rnn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3)
    assert reciprocal == frozenset({2, 3})


@criterion(3, "figure-2 fixture: extra probe reshapes the neighborhood")
def test_criterion_3_extra_probe_fixture():
    gallery = reciprocal_feature_set()
    policy = AugmentationPolicy.with_probes(two_probe_set())
    inverse_plus = inn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3, policy)
    assert inverse_plus == frozenset({2})  # 3 is pushed out
    reciprocal_plus = rnn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3, policy)
    assert reciprocal_plus == frozenset({2})
    # the dummy probe is farther from the probe than its three neighbors,
    # so the forward set is unchanged
    forward_plus = knn(RECIPROCAL_PROBE_ID, RECIPROCAL_PROBE, gallery, EUCLID, 3, policy)
    assert forward_plus == frozenset({1, 2, 3})


@criterion(4, "uniform bandwidths reduce every method to the distance order")
def test_criterion_4_uniform_sigma_degeneracy():
    rng = np.random.default_rng(404)
    mismatches = 0
    for trial in range(100):
        gallery, probes, _, _ = random_instance(rng)
        sigma_value = float(rng.uniform(0.2, 5.0))
        table = _uniform_table(gallery, sigma_value)
        pid = int(probes.ids[0])
        pvec = probes.vectors[0]
        baseline = rank_by_distance(pid, pvec, gallery, EUCLID).gallery_ids.tolist()
        inv = inv_dakr_rank(pid, pvec, gallery, EUCLID, table).gallery_ids.tolist()
        bi = bi_dakr_rank(pid, pvec, gallery, EUCLID, table).gallery_ids.tolist()
        if inv != baseline or bi != baseline:
            mismatches += 1
    assert mismatches == 0


@criterion(5, "feature scaling leaves rankings and scores invariant")
def test_criterion_5_scale_invariance():
    rng = np.random.default_rng(505)
    for trial in range(20):
        gallery, probes, _, _ = random_instance(rng, min_n=5)
        pid = int(probes.ids[0])
        policies = [AugmentationPolicy.gallery_only()]
        if len(probes) > 1:
            policies.append(AugmentationPolicy.with_probes(probes))
        for policy in policies:
            reference = {}
            for c in (1e-3, 1.0, 1e3):
                scaled_gallery = FeatureSet(gallery.ids, gallery.vectors * c)
                scaled_policy = (
                    AugmentationPolicy.with_probes(
                        FeatureSet(policy.probes.ids, policy.probes.vectors * c)
                    )
                    if policy.mode == "with_probes"
                    else policy
                )
                table = compute_sigma_table(scaled_gallery, EUCLID, 2, scaled_policy)
                inv = inv_dakr_rank(pid, probes.vectors[0] * c, scaled_gallery, EUCLID, table)
                bi = bi_dakr_rank(
                    pid, probes.vectors[0] * c, scaled_gallery, EUCLID, table, scaled_policy
                )
                if not reference:
                    reference = {"inv": inv, "bi": bi}
                    continue
                for name, got in (("inv", inv), ("bi", bi)):
                    want = reference[name]
                    assert got.gallery_ids.tolist() == want.gallery_ids.tolist()
                    np.testing.assert_allclose(got.values, want.values, rtol=1e-9)


# Calibrated so the nearest-neighbor baseline lands mid-band; shared by
# criteria 6 and 7.
_SCENARIO = dict(n_identities=100, dim=16, cluster_spread=0.21)
_SEEDS = range(10)
_gain_cache = {}


def _mean_rank1(kind, n_distractors):
    key = (kind, n_distractors)
    if key in _gain_cache:
        return _gain_cache[key]
    scores = {"knn": [], "bi_dakr": [], "bi_dakr+": []}
    for seed in _SEEDS:
        gallery, probes, truth = generate_scenario(
            kind, n_distractors=n_distractors, seed=seed, **_SCENARIO
        )
        k_sigma = max(1, round(0.05 * len(gallery)))
        for method in scores:
            rankings = rerank(
                method.rstrip("+"),
                probes,
                gallery,
                EUCLID,
                k_sigma=k_sigma,
                policy="with_probes" if method.endswith("+") else "gallery_only",
            )
            scores[method].append(cmc(rankings, truth, 1)[0])
    out = {m: float(np.mean(v)) for m, v in scores.items()}
    _gain_cache[key] = out
    return out


@criterion(6, "bidirectional kernel gains on the calibrated scenario")
def test_criterion_6_synthetic_gain_direction():
    started = time.perf_counter()
    means = _mean_rank1("perfect_single_shot", 0)
    assert 0.55 <= means["knn"] <= 0.70, f"baseline off-band: {means['knn']:.3f}"
    assert means["bi_dakr"] - means["knn"] >= 0.01, (
        f"bi_dakr gain {means['bi_dakr'] - means['knn']:.4f} < 1 point"
    )
    assert means["bi_dakr+"] - means["bi_dakr"] >= 0.005, (
        f"augmented gain {means['bi_dakr+'] - means['bi_dakr']:.4f} < 0.5 point"
    )
    assert time.perf_counter() - started < 60.0


@criterion(7, "distractors shrink the augmentation gap")
def test_criterion_7_distractor_robustness():
    perfect = _mean_rank1("perfect_single_shot", 0)
    imperfect = _mean_rank1("imperfect_single_shot", 3 * _SCENARIO["n_identities"])
    gap_perfect = perfect["bi_dakr+"] - perfect["bi_dakr"]
    gap_imperfect = imperfect["bi_dakr+"] - imperfect["bi_dakr"]
    assert gap_imperfect < gap_perfect, (
        f"gap did not shrink: imperfect {gap_imperfect:.4f} vs perfect {gap_perfect:.4f}"
    )


def _fit_r2_through_origin(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope = float(np.sum(x * y) / np.sum(x * x))
    residuals = y - slope * x
    return 1.0 - float(np.sum(residuals**2) / np.sum((y - y.mean()) ** 2))


@criterion(8, "timing: linearithmic online cost and the quadratic gap")
def test_criterion_8_complexity_timing(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench",
            "--sizes", "1000,2000,4000,8000",
            "--dim", "64",
            "--method", "knn,inn,inv_dakr,bi_dakr",
            "--bench-probes", "7",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = {}
    for line in out.read_text().strip().splitlines()[1:]:
        method, n, _, offline_ms, online_ms = line.split(",")
        rows[(method, int(n))] = float(online_ms)
    sizes = [1000, 2000, 4000, 8000]

    # (a) online per-probe time of both kernel methods is linearithmic
    x = [n * math.log2(n) for n in sizes]
    for method in ("inv_dakr", "bi_dakr"):
        r2 = _fit_r2_through_origin(x, [rows[(method, n)] for n in sizes])
        assert r2 >= 0.95, f"{method} online time fits N log N poorly: R^2={r2:.3f}"

    # (b) the full inverse-neighbor scan is quadratic: at N=8000 it costs
    # at least 20x the kernel method's online phase
    ratio_inn = rows[("inn", 8000)] / rows[("inv_dakr", 8000)]
    assert ratio_inn >= 20.0, f"inn/inv_dakr online ratio {ratio_inn:.1f} < 20"

    # (c) the bidirectional rule costs at most a small constant over the
    # inverse rule
    ratio_bi = rows[("bi_dakr", 8000)] / rows[("inv_dakr", 8000)]
    assert 1.0 <= ratio_bi <= 3.0, f"bi/inv online ratio {ratio_bi:.2f} outside [1, 3]"

    assert time.perf_counter() - started < 300.0


@criterion(9, "evaluation metrics match hand-computed fixtures")
def test_criterion_9_metric_oracles():
    def ranking(pid, ordered):
        return RankedList(
            pid, ordered, np.arange(len(ordered), dtype=float), ASCENDING_DISTANCE
        )

    from dakr import GroundTruth

    # CMC fixtures
    perfect = GroundTruth({0: {7}, 1: {8}})
    assert cmc(
        [ranking(0, [7, 9]), ranking(1, [8, 9])], perfect, 2
    ).tolist() == [1.0, 1.0]
    two = GroundTruth({0: {12}, 1: {13}})
    assert cmc(
        [ranking(0, [10, 12, 11, 13]), ranking(1, [10, 11, 12, 13])], two, 4
    ).tolist() == [0.0, 0.5, 0.5, 1.0]
    worst = GroundTruth({0: {4}})
    assert cmc([ranking(0, [1, 2, 3, 4])], worst, 4).tolist() == [0.0, 0.0, 0.0, 1.0]

    # mAP fixtures
    assert mean_average_precision([ranking(0, [5, 6, 7])], GroundTruth({0: {5}})) == 1.0
    assert mean_average_precision(
        [ranking(0, [5, 6, 7, 8])], GroundTruth({0: {5, 7}})
    ) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
    assert mean_average_precision(
        [ranking(0, [1, 2, 3, 4, 9])], GroundTruth({0: {9}})
    ) == pytest.approx(0.2)

    # Jaccard pseudometric, exhaustively over all subset pairs of a
    # 5-element universe (empty-empty follows the documented convention)
    subsets = [
        frozenset(c) for r in range(6) for c in itertools.combinations(range(5), r)
    ]
    for a in subsets:
        for b in subsets:
            d = jaccard_distance(a, b)
            assert d == jaccard_distance(b, a)
            if a or b:
                assert (d == 0.0) == (a == b)
            else:
                assert d == 1.0
    for a, b, c in itertools.product(subsets, repeat=3):
        assert jaccard_distance(a, b) <= jaccard_distance(a, c) + jaccard_distance(c, b) + 1e-12


@criterion(10, "byte-identical command outputs across runs and thread counts")
def test_criterion_10_determinism(tmp_path):
    def digest_tree(root, skip_suffix=".timings.json"):
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and not path.name.endswith(skip_suffix):
                out[str(path.relative_to(root))] = path.read_bytes()
        return out

    def run_all(root, threads):
        root.mkdir()
        data = root / "data"
        assert cli_main([
            "gen", "--scenario", "imperfect_single_shot", "--n-identities", "15",
            "--n-distractors", "5", "--dim", "4", "--cluster-spread", "0.2",
            "--seed", "13", "--out", str(data),
        ]) == 0
        gallery = str(data / "gallery.csv")
        probes = str(data / "probes.csv")
        truth = str(data / "truth.csv")
        assert cli_main([
            "sigma", "--gallery", gallery, "--k-sigma", "2",
            "--threads", str(threads), "--out", str(root / "table.sgt"),
        ]) == 0
        assert cli_main([
            "rerank", "--gallery", gallery, "--probes", probes,
            "--method", "bi_dakr", "--k-sigma", "2",
            "--sigma-table", str(root / "table.sgt"),
            "--threads", str(threads), "--out", str(root / "rankings.csv"),
        ]) == 0
        assert cli_main([
            "eval", "--gallery", gallery, "--probes", probes, "--truth", truth,
            "--method", "knn,inn,rnn,inv_dakr,bi_dakr+", "--k", "3", "--k-sigma", "2",
            "--ranks", "1,5,10", "--threads", str(threads),
            "--out", str(root / "report"),
        ]) == 0
        assert cli_main([
            "sweep", "--scenario", "perfect_single_shot", "--n-identities", "10",
            "--dim", "3", "--cluster-spread", "0.25", "--seed", "7", "--trials", "2",
            "--method", "knn,bi_dakr", "--k-values", "1,2", "--ranks", "1,5,10",
            "--threads", str(threads), "--out", str(root / "sweep"),
        ]) == 0
        return digest_tree(root)

    baseline = run_all(tmp_path / "run1_t1", threads=1)
    for name, threads in (("run2_t1", 1), ("run3_t4", 4)):
        other = run_all(tmp_path / name, threads=threads)
        assert other == baseline
