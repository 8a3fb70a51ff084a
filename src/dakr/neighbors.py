"""Classical neighbor-set machinery: k-NN, k-INN, k-RNN, Jaccard
dissimilarity, and their probe-augmented variants.

:func:`reference_set` and :func:`candidate_pool` decide what a pool
holds, for every neighbor set here and for the bandwidths and rankings in
:mod:`dakr.kernels`; :func:`candidate_pool` is the one place that drops
the probe's own copy, :func:`pool_row` the one place a probe's distance
row is computed, :func:`offset_ids` the one place probes get their
offset ids, and :func:`ranking` the one place rankings are built.
Other conventions shared by every operation here:

* Ranked outputs only ever emit true gallery ids; neighbor sets may also
  hold offset probe ids.
* Ties are broken by ascending (effective) id.
* k larger than the candidate pool truncates to the pool size (a
  :func:`dakr.rerank.rerank` batch logs it at info level); only an empty
  pool raises, as :class:`~dakr.errors.EmptyGallery`.
* k-INN always scans the full gallery.  Restricting the scan to the
  probe's own k-NN degenerates recall and is deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ASCENDING_DISTANCE,
    DistanceMetric,
    FeatureSet,
    RankedList,
    pairwise,
    scan_self_distances,
)
from .errors import EmptyGallery, InvalidParams, OutOfRange

GALLERY_ONLY = "gallery_only"
WITH_PROBES = "with_probes"


@dataclass(frozen=True)
class AugmentationPolicy:
    """Candidate pools augmented with ``probes``, or gallery-only if ``None``."""

    probes: FeatureSet | None = None

    @property
    def mode(self) -> str:
        return GALLERY_ONLY if self.probes is None else WITH_PROBES

    @classmethod
    def with_probes(cls, probes: FeatureSet) -> "AugmentationPolicy":
        return cls(probes)


def probe_id_offset(gallery: FeatureSet) -> int:
    """Base of the disjoint id range used for augmentation probes."""
    return int(gallery.ids.max()) + 1


def offset_ids(ids, gallery: FeatureSet) -> np.ndarray:
    """``ids`` plus :func:`probe_id_offset`: the ids probes take in pools,
    past every gallery id.  A negative id, or one whose sum passes int64,
    is :class:`~dakr.errors.OutOfRange`, never wrapped."""
    ids = np.asarray(ids, dtype=np.int64)
    offset = probe_id_offset(gallery)
    bad = ids[(ids < 0) | (ids > np.iinfo(np.int64).max - offset)]
    if bad.size:
        raise OutOfRange(
            f"probe id {bad.flat[0]} has no offset id: plus the probe id offset {offset} "
            "(the largest gallery id + 1) it lands among the gallery ids or past int64"
        )
    return ids + offset if ids.size else ids


def reference_set(gallery: FeatureSet, policy: AugmentationPolicy):
    """The samples pools and bandwidths are taken over, as (vectors, ids):
    the gallery, then under with_probes every probe that is not a gallery
    sample, at its id plus :func:`probe_id_offset`.

    Probe and gallery ids share one namespace: a probe whose id is a
    gallery id is that gallery sample (the multiple-shot protocol draws
    probes from the gallery), so it adds no row of its own: its pool drops
    that row, and under with_probes it takes that row's σ.  Callers give
    such a probe that sample's vector; the library does not compare them.
    """
    if policy.mode != WITH_PROBES:
        return gallery.vectors, gallery.ids
    probes = policy.probes
    if probes.dim != gallery.dim:
        raise InvalidParams(f"probe dim {probes.dim} != gallery dim {gallery.dim}")
    fresh = ~np.isin(probes.ids, gallery.ids)
    return (
        np.vstack([gallery.vectors, probes.vectors[fresh]]),
        np.concatenate([gallery.ids, offset_ids(probes.ids[fresh], gallery)]),
    )


def candidate_pool(
    probe_id: int, gallery: FeatureSet, policy: AugmentationPolicy = AugmentationPolicy()
):
    """The reference set (vectors, ids), uncopied under gallery_only, and
    a keep mask over its rows that drops the probe itself; the first
    ``len(gallery)`` rows are the gallery.

    The probe is dropped in each block's own namespace: its own gallery
    copy by raw id, its probe row by offset id.  A raw probe id can equal
    another probe's offset id, so one id test over all rows would drop
    the wrong sample.
    """
    vectors, ids = reference_set(gallery, policy)
    n = len(gallery)
    keep = gallery.ids != int(probe_id)
    if len(ids) > n:
        keep = np.concatenate([keep, ids[n:] != offset_ids(probe_id, gallery)])
    return vectors, ids, keep


def pool_row(probe_id: int, probe_vector, gallery, metric, policy=AugmentationPolicy()):
    """The probe's candidate pool and its one distance row over the
    whole reference set: (vectors, ids, keep, dists)."""
    vectors, ids, keep = candidate_pool(probe_id, gallery, policy)
    probe_vector = np.asarray(probe_vector, dtype=np.float64)
    return vectors, ids, keep, pairwise(metric, probe_vector[None, :], vectors)[0]


def _nearest(ids: np.ndarray, dists: np.ndarray, k: int) -> frozenset:
    """The k ids nearest by (distance, id)."""
    if len(ids) == 0:
        raise EmptyGallery("candidate pool is empty")
    if k < 1:
        raise InvalidParams("k must be >= 1")
    return frozenset(int(i) for i in ids[_sort_one_key(ids, dists)[:k]])


def _sort_one_key(ids: np.ndarray, key: np.ndarray, *tie_keys) -> np.ndarray:
    """The rows of ``np.lexsort((ids, *reversed(tie_keys), key))``, from one
    ``argsort`` of ``key``: only the runs of equal keys (a tie, -0.0 beside
    0.0, repeated inf, the NaNs ``argsort`` puts last) are re-sorted, by
    ``tie_keys`` in turn and then by id, in place."""
    rows = np.argsort(key)
    ordered = key[rows]
    if (ordered[1:] > ordered[:-1]).all():
        return rows
    tied = (ordered[1:] == ordered[:-1]) | np.isnan(ordered[1:])
    in_run = np.zeros(len(rows), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    runs = np.flatnonzero(in_run)
    members = rows[runs]
    ties = [tie[members] for tie in reversed(tie_keys)]
    rows[runs] = members[np.lexsort((ids[members], *ties, ordered[runs]))]
    return rows


def ranking(probe_id: int, ids, values, order: str, key, *tie_keys) -> RankedList:
    """The one place rankings are built: ``ids`` sorted by ``key``, equal
    keys by ``tie_keys`` in turn, then by ascending id, with their
    ``values`` in that order; equal values keep their keys' order
    (:class:`~dakr.core.RankedList`)."""
    if len(ids) == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    rows = _sort_one_key(ids, key, *tie_keys)
    return RankedList(
        probe_id=int(probe_id), gallery_ids=ids[rows], values=values[rows], order=order
    )


def knn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> frozenset:
    """The k candidates nearest to the probe, ties by ascending id."""
    _, ids, keep, dists = pool_row(probe_id, probe_vector, gallery, metric, policy)
    return _nearest(ids[keep], dists[keep], k)


def _inn_members(
    probe_id: int,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    row,
):
    """The pool's gallery samples as (ids, distances to the probe, mask),
    where the mask tells whether each takes the probe as one of its k
    nearest neighbors.

    ``row`` is what :func:`pool_row` returned; the scan copies the
    pool's vectors out of it.  The probe's 0-based position in sample j's
    pool equals the number of candidates ranked strictly before it under
    (distance, id); gallery candidates always win distance ties against
    the probe because their ids precede the probe's offset id.
    """
    if k < 1:
        raise InvalidParams("k must be >= 1")
    vectors, ids, keep, dists = row
    n = len(gallery)
    own = keep[:n]
    gal_ids, gal_vectors, d_x = gallery.ids[own], vectors[:n][own], dists[:n][own]
    if len(d_x) == 0:
        raise EmptyGallery("no gallery candidates for this probe")

    def closer_than_probe(block) -> np.ndarray:
        return block.count_within(d_x[block.start:block.stop])

    counts = np.concatenate(scan_self_distances(metric, gal_vectors, closer_than_probe))

    extra = keep[n:]
    if extra.any():
        d_aug = pairwise(metric, vectors[n:][extra], gal_vectors)
        lower = (ids[n:][extra] < offset_ids(probe_id, gallery))[:, None]
        counts += np.count_nonzero((d_aug < d_x) | ((d_aug == d_x) & lower), axis=0)

    return gal_ids, d_x, counts < k


def inn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> frozenset:
    """Inverse nearest neighbors: gallery samples whose own k-NN include
    the probe.  Always a full scan over the gallery."""
    row = pool_row(probe_id, probe_vector, gallery, metric, policy)
    ids, _, members = _inn_members(probe_id, gallery, metric, k, row)
    return frozenset(int(i) for i in ids[members])


def _rnn_members(
    probe_id: int,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    row,
):
    """:func:`_inn_members`, the mask cut to the probe's k-NN, and that k-NN."""
    _, ids, keep, dists = row
    gal_ids, d_x, members = _inn_members(probe_id, gallery, metric, k, row)
    probe_nn = _nearest(ids[keep], dists[keep], k)
    return gal_ids, d_x, members & np.isin(gal_ids, list(probe_nn)), probe_nn


def rnn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> frozenset:
    """Reciprocal nearest neighbors: the probe's k-NN that are also in its
    k-INN (so gallery samples only)."""
    row = pool_row(probe_id, probe_vector, gallery, metric, policy)
    ids, _, members, _ = _rnn_members(probe_id, gallery, metric, k, row)
    return frozenset(int(i) for i in ids[members])


def jaccard_distance(a, b) -> float:
    """1 - |A∩B| / |A∪B| over neighbor sets; 1.0 when the union is empty
    (no shared evidence is treated as maximal dissimilarity)."""
    set_a, set_b = frozenset(a), frozenset(b)
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return 1.0 - len(set_a & set_b) / union


def gallery_neighbor_set(
    gallery_id: int,
    probe_id: int,
    row,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
) -> frozenset:
    """k-NN of one gallery sample over the probe's candidate pool ``row``
    (from :func:`pool_row`) with that sample swapped for the probe at its
    offset id, the pool k-INN searches, so Jaccard overlaps compare like
    with like; the swapped entry is the probe's distance, read from ``row``."""
    vectors, ids, keep, dists = row
    anchor_rows = np.flatnonzero((gallery.ids == int(gallery_id)) & keep[: len(gallery)])
    if len(anchor_rows) == 0:
        raise InvalidParams(f"gallery id {gallery_id} not in candidate pool")
    anchor = int(anchor_rows[0])
    anchor_dists = pairwise(metric, vectors[anchor][None, :], vectors)[0]
    anchor_dists[anchor] = dists[anchor]
    ids = ids.copy()
    ids[anchor] = offset_ids(probe_id, gallery)
    return _nearest(ids[keep], anchor_dists[keep], k)


def rank_by_distance(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
) -> RankedList:
    """Plain ascending-distance ranking of the whole gallery (the k-NN
    baseline as a total order)."""
    _, ids, keep, dists = pool_row(probe_id, probe_vector, gallery, metric)
    dists = dists[keep]
    return ranking(probe_id, ids[keep], dists, ASCENDING_DISTANCE, dists)


def _bounded(dists: np.ndarray) -> np.ndarray:
    # Monotone map of [0, inf] into [0, 1], NaN to 1; keeps composite sort
    # keys of member and appended blocks in disjoint bands.
    return np.divide(dists, 1.0 + dists, out=np.ones_like(dists), where=dists < np.inf)


def rank_by_inn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> RankedList:
    """k-INN as a full ranking: inverse neighbors first (by raw distance),
    remaining gallery after them (by raw distance).

    Values are composite sort keys: members in [0, 1], the appended block
    in [2, 3], infinite distances at 1 and 3.  Only their order is meaningful.
    """
    row = pool_row(probe_id, probe_vector, gallery, metric, policy)
    ids, dists, members = _inn_members(probe_id, gallery, metric, k, row)
    keys = np.where(members, _bounded(dists), 2.0 + _bounded(dists))
    return ranking(probe_id, ids, keys, ASCENDING_DISTANCE, keys, dists)


def rank_by_rnn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> RankedList:
    """k-RNN as a full ranking.

    Reciprocal members come first, ordered by the Jaccard distance between
    their neighborhood and the probe's (ties by raw distance, then id);
    all other gallery samples follow, ordered by raw distance.  Values are
    composite sort keys: members carry their Jaccard distance in [0, 1],
    the appended block lives in [2, 3], an infinite distance at 3.
    """
    row = pool_row(probe_id, probe_vector, gallery, metric, policy)
    gal_ids, dists, members, probe_nn = _rnn_members(probe_id, gallery, metric, k, row)
    jaccard = np.zeros(len(gal_ids), dtype=np.float64)
    for member in np.flatnonzero(members):
        # Looked up as a module global on every call: the traced benchmark
        # counts these calls.
        gid = int(gal_ids[member])
        neighborhood = gallery_neighbor_set(gid, probe_id, row, gallery, metric, k)
        jaccard[member] = jaccard_distance(neighborhood, probe_nn)

    keys = np.where(members, jaccard, 2.0 + _bounded(dists))
    return ranking(probe_id, gal_ids, keys, ASCENDING_DISTANCE, keys, dists)
