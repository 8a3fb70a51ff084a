"""Evaluation harness: CMC curves, mean average precision, parameter
sweeps against the plain nearest-neighbor baseline, and a synthetic
scenario generator for desk-scale verification.  CMC and mAP judge the
probes that :func:`_judged_probes` picks, which finds a ranking's hits by
binary search of its ids in the probe's sorted match ids; a match id
outside int64 never hits, but still counts among the probe's matches.
Every method run, sweeps included, goes through :func:`evaluate_methods`.

The generator covers the three matching regimes seen in re-identification
benchmarks: perfect single-shot (every gallery sample has a probe),
imperfect single-shot (extra gallery-only distractor identities), and
multiple-shot (several true matches per probe, probes drawn from the
gallery itself).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DistanceMetric, FeatureSet, RankedList
from .errors import InvalidParams, MissingTruth
from .kernels import default_k_sigma
from .rerank import offline_phase, rerank

PERFECT_SINGLE_SHOT = "perfect_single_shot"
IMPERFECT_SINGLE_SHOT = "imperfect_single_shot"
MULTI_SHOT = "multi_shot"
SCENARIO_KINDS = (PERFECT_SINGLE_SHOT, IMPERFECT_SINGLE_SHOT, MULTI_SHOT)

DEFAULT_RANKS = (1, 5, 10, 20)


@dataclass(frozen=True)
class GroundTruth:
    """Per-probe sets of matching gallery ids."""

    matches: dict

    def __post_init__(self):
        matches = {int(p): frozenset(int(g) for g in gs) for p, gs in self.matches.items()}
        object.__setattr__(self, "matches", matches)

    def matches_of(self, probe_id: int) -> frozenset:
        try:
            return self.matches[int(probe_id)]
        except KeyError:
            raise MissingTruth(f"no ground truth for probe {probe_id}") from None

    def average_multiplicity(self) -> float:
        sizes = [len(g) for g in self.matches.values()]
        return float(np.mean(sizes)) if sizes else 0.0


def _hit_positions(ids: np.ndarray, match_ids: frozenset) -> np.ndarray:
    """1-based positions of the ``ids`` that are in ``match_ids``: the ids
    whose slot in the sorted match ids (one ``searchsorted``) holds them.
    Match ids outside int64 are left out, as no ranking can hold one."""
    try:
        matches = np.fromiter(match_ids, np.int64, len(match_ids))
    except OverflowError:
        matches = np.fromiter((g for g in match_ids if -(2**63) <= g < 2**63), np.int64)
        if not len(matches):
            return np.empty(0, dtype=np.intp)
    matches.sort()
    hits = matches.take(matches.searchsorted(ids), mode="clip") == ids
    return hits.nonzero()[0] + 1


def _judged_probes(rankings: list[RankedList], truth: GroundTruth, score: str) -> list:
    """(match ids, 1-based hit positions) for every probe that ``score``
    judges: the one place that excludes a probe with an empty match set
    (with a warning) and refuses rankings with no probe left to judge.

    Hits come from :func:`_hit_positions`; a match id outside int64 never
    hits, but stays in the match ids, mAP's denominator."""
    judged = []
    for ranking in rankings:
        match_ids = truth.matches_of(ranking.probe_id)
        if not match_ids:
            warnings.warn(
                f"probe {ranking.probe_id} has an empty match set; excluded from {score}",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        judged.append((match_ids, _hit_positions(ranking.gallery_ids, match_ids)))
    if not judged:
        raise InvalidParams("no probes with non-empty match sets")
    return judged


def cmc(rankings: list[RankedList], truth: GroundTruth, max_rank: int) -> np.ndarray:
    """Cumulative matching characteristic: entry r-1 is the fraction of
    probes whose first true match appears at position <= r."""
    if max_rank < 1:
        raise InvalidParams("max_rank must be >= 1")
    judged = _judged_probes(rankings, truth, "CMC")
    curve = np.zeros(max_rank, dtype=np.float64)
    for _, positions in judged:
        if len(positions) and positions[0] <= max_rank:
            curve[positions[0] - 1] += 1.0
    return np.cumsum(curve) / len(judged)


def mean_average_precision(rankings: list[RankedList], truth: GroundTruth) -> float:
    """Mean over probes of average precision: precision at each true
    match's rank position, averaged over the probe's true matches (no
    interpolation)."""
    aps = []
    for match_ids, positions in _judged_probes(rankings, truth, "mAP"):
        precisions = np.arange(1, len(positions) + 1, dtype=np.float64) / positions
        # Matches absent from the ranking contribute zero precision.
        aps.append(float(precisions.sum()) / len(match_ids))
    return float(np.mean(aps))


def generate_scenario(
    kind: str,
    n_identities: int,
    shots_per_id: int = 1,
    n_distractors: int = 0,
    dim: int = 16,
    cluster_spread: float = 0.1,
    seed: int = 0,
) -> tuple[FeatureSet, FeatureSet, GroundTruth]:
    """Deterministic synthetic matching scenario.

    Identity centers are drawn uniformly in the unit hypercube; every
    sample is its center plus isotropic Gaussian noise of std
    ``cluster_spread``.  Single-shot kinds pair one probe with one gallery
    sample per identity (probe ids are offset past the gallery range);
    the imperfect kind adds gallery-only distractor identities; the
    multiple-shot kind stores ``shots_per_id + 1`` gallery samples per
    identity and reuses the first of them as the probe, so the probe id
    doubles as its own-gallery-copy marker.
    """
    if kind not in SCENARIO_KINDS:
        raise InvalidParams(f"unknown scenario kind {kind!r}")
    if n_identities < 2:
        raise InvalidParams("need at least two identities")
    if shots_per_id < 1:
        raise InvalidParams("shots_per_id must be >= 1")
    if n_distractors < 0:
        raise InvalidParams("n_distractors must be >= 0")
    if dim < 1:
        raise InvalidParams("dim must be >= 1")
    if not np.isfinite(cluster_spread) or cluster_spread < 0:
        raise InvalidParams("cluster_spread must be finite and >= 0")
    if seed < 0:
        raise InvalidParams("seed must be >= 0")
    if kind == PERFECT_SINGLE_SHOT and n_distractors != 0:
        raise InvalidParams("perfect_single_shot takes no distractors")
    if kind != MULTI_SHOT and shots_per_id != 1:
        raise InvalidParams("single-shot scenarios require shots_per_id == 1")

    rng = np.random.default_rng(seed)
    total_ids = n_identities + n_distractors
    centers = rng.uniform(0.0, 1.0, size=(total_ids, dim))

    if kind in (PERFECT_SINGLE_SHOT, IMPERFECT_SINGLE_SHOT):
        gallery_vectors = centers + rng.normal(0.0, cluster_spread, size=centers.shape)
        probe_vectors = centers[:n_identities] + rng.normal(
            0.0, cluster_spread, size=(n_identities, dim)
        )
        matches = {total_ids + i: frozenset({i}) for i in range(n_identities)}
        gallery = FeatureSet(np.arange(total_ids), gallery_vectors)
        probes = FeatureSet(total_ids + np.arange(n_identities), probe_vectors)
        return gallery, probes, GroundTruth(matches)

    # multi_shot: identity blocks of shots_per_id + 1 gallery samples, the
    # first of which is also the probe (same id, same vector), then
    # distractor blocks of shots_per_id samples.
    expanded = np.vstack([
        np.repeat(centers[:n_identities], shots_per_id + 1, axis=0),
        np.repeat(centers[n_identities:], shots_per_id, axis=0),
    ])
    gallery_vectors = expanded + rng.normal(0.0, cluster_spread, size=expanded.shape)
    probe_rows = np.arange(n_identities) * (shots_per_id + 1)
    probes = FeatureSet(probe_rows, gallery_vectors[probe_rows])
    matches = {int(p): frozenset(range(p + 1, p + shots_per_id + 1)) for p in probe_rows}
    return FeatureSet(np.arange(len(expanded)), gallery_vectors), probes, GroundTruth(matches)


@dataclass
class MethodEval:
    """CMC/mAP result of one method run, with its wall-clock split."""

    method: str
    k: int | None
    k_sigma: int | None
    cmc: np.ndarray
    mean_ap: float
    offline_ms: float = 0.0
    online_ms_per_probe: float = 0.0


@dataclass
class EvalReport:
    """Evaluation results for one dataset, serializable to nested JSON and
    to flat CSV rows (one per method, k and rank)."""

    ranks: tuple
    results: list

    def to_json_dict(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "results": [
                {
                    "method": r.method,
                    "k": r.k,
                    "k_sigma": r.k_sigma,
                    "cmc": [float(v) for v in r.cmc],
                    "map": float(r.mean_ap),
                }
                for r in self.results
            ],
        }

    def timings_dict(self) -> dict:
        return {
            r.method: {
                "offline_ms": float(r.offline_ms),
                "online_ms_per_probe": float(r.online_ms_per_probe),
            }
            for r in self.results
        }

    def csv_rows(self) -> list:
        """Flat rows: method, k, k_sigma, rank, cmc, map."""
        rows = []
        for r in self.results:
            for rank in self.ranks:
                rows.append(
                    {
                        "method": r.method,
                        "k": "" if r.k is None else r.k,
                        "k_sigma": "" if r.k_sigma is None else r.k_sigma,
                        "rank": rank,
                        "cmc": float(r.cmc[rank - 1]),
                        "map": float(r.mean_ap),
                    }
                )
        return rows


def _clip_ranks(ranks, n_gallery: int) -> tuple:
    kept = tuple(r for r in ranks if r <= n_gallery)
    if len(kept) < len(ranks):
        warnings.warn(
            f"ranks beyond the gallery size ({n_gallery}) were clipped",
            RuntimeWarning,
            stacklevel=3,
        )
    if not kept:
        kept = (n_gallery,)
    return kept


def evaluate_methods(
    gallery: FeatureSet,
    probes: FeatureSet,
    truth: GroundTruth,
    methods,
    metric: DistanceMetric | None = None,
    k: int | None = None,
    k_sigma: int | None = None,
    ranks=DEFAULT_RANKS,
    n_threads: int | None = None,
) -> EvalReport:
    """Run each method token (e.g. ``knn``, ``bi_dakr+``) and report CMC,
    mAP and the offline/online wall-clock split."""
    metric = metric or DistanceMetric.euclidean()
    ranks = _clip_ranks(tuple(ranks), len(gallery))
    max_rank = max(ranks)
    if k_sigma is None:
        k_sigma = default_k_sigma(len(gallery), truth.average_multiplicity())

    results = []
    for token in methods:
        method, policy, table, offline_ms = offline_phase(token, probes, gallery, metric, k_sigma)
        t0 = time.perf_counter()
        rankings = rerank(
            method,
            probes,
            gallery,
            metric,
            k=k,
            k_sigma=k_sigma,
            policy=policy,
            table=table,
            n_threads=n_threads,
        )
        online_ms = (time.perf_counter() - t0) * 1e3 / max(1, len(probes))
        results.append(
            MethodEval(
                method=token,
                k=k,
                k_sigma=None if table is None else k_sigma,
                cmc=cmc(rankings, truth, max_rank),
                mean_ap=mean_average_precision(rankings, truth),
                offline_ms=offline_ms,
                online_ms_per_probe=online_ms,
            )
        )
    return EvalReport(ranks=ranks, results=results)


def k_sweep(
    methods,
    trials,
    k_values,
    metric: DistanceMetric | None = None,
    ranks=DEFAULT_RANKS,
    n_threads: int | None = None,
) -> tuple:
    """Per-rank CMC gain over the nearest-neighbor baseline as a function
    of k, averaged over scenario trials.

    ``trials`` is a list of (gallery, probes, truth) triples; the kernel
    methods use k itself as k_sigma.  Ranks beyond the smallest gallery
    are clipped once, up front.  Returns (effective ranks,
    {method: {k: gains aligned with those ranks}}).
    """
    k_values = [int(k) for k in k_values]
    if any(k < 1 for k in k_values):
        raise InvalidParams("k values must be >= 1")
    if not trials:
        raise InvalidParams("need at least one trial")

    ranks = _clip_ranks(tuple(ranks), min(len(gallery) for gallery, _, _ in trials))
    rank_idx = np.asarray(ranks, dtype=np.int64) - 1
    accum = {token: {k: [] for k in k_values} for token in methods}
    for gallery, probes, truth in trials:
        baseline = evaluate_methods(
            gallery, probes, truth, ["knn"], metric, ranks=ranks, n_threads=n_threads
        ).results[0].cmc[rank_idx]
        for k in k_values:
            report = evaluate_methods(
                gallery, probes, truth, methods, metric,
                k=k, k_sigma=k, ranks=ranks, n_threads=n_threads,
            )
            for token, result in zip(methods, report.results):
                accum[token][k].append(result.cmc[rank_idx] - baseline)
    gains = {
        token: {k: np.mean(np.stack(vals), axis=0) for k, vals in per_k.items()}
        for token, per_k in accum.items()
    }
    return ranks, gains
