"""Classical neighbor-set machinery: k-NN, k-INN, k-RNN, Jaccard
dissimilarity, and their probe-augmented variants.

:func:`reference_set` and :func:`candidate_pool` are the one place that
decides what a candidate pool holds; every neighbor set here, and the
kernel bandwidths in :mod:`dakr.kernels`, take their samples from them.
Other conventions shared by every operation here:

* Ranked outputs only ever emit true gallery ids; neighbor sets may also
  hold offset probe ids.
* Ties are broken by ascending (effective) id.
* k larger than the candidate pool truncates silently to the pool size;
  only an empty pool raises.
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
from .errors import EmptyGallery, InvalidParams, KTooLarge

GALLERY_ONLY = "gallery_only"
WITH_PROBES = "with_probes"


@dataclass(frozen=True)
class AugmentationPolicy:
    """Whether candidate pools are gallery-only or augmented with probes."""

    mode: str = GALLERY_ONLY
    probes: FeatureSet | None = None

    def __post_init__(self):
        if self.mode not in (GALLERY_ONLY, WITH_PROBES):
            raise InvalidParams(f"unknown augmentation mode {self.mode!r}")
        if self.mode == WITH_PROBES and self.probes is None:
            raise InvalidParams("with_probes policy requires a probe set")
        if self.mode == GALLERY_ONLY and self.probes is not None:
            raise InvalidParams("gallery_only policy takes no probe set")

    @classmethod
    def gallery_only(cls) -> "AugmentationPolicy":
        return cls(GALLERY_ONLY)

    @classmethod
    def with_probes(cls, probes: FeatureSet) -> "AugmentationPolicy":
        return cls(WITH_PROBES, probes)


_GALLERY_ONLY = AugmentationPolicy()


@dataclass(frozen=True)
class NeighborSet:
    """Top-k neighborhood of one anchor sample.

    ``members`` may contain offset probe ids when the pool was augmented.
    The anchor sample itself is never a member; constructors guarantee
    this by excluding it from the candidate pool (a plain id comparison
    cannot express it, since anchor and members may sit in different id
    namespaces).
    """

    anchor_id: int
    k: int
    members: frozenset

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParams("k must be >= 1")


def probe_id_offset(gallery: FeatureSet) -> int:
    """Base of the disjoint id range used for augmentation probes."""
    return int(gallery.ids.max()) + 1


def reference_set(gallery: FeatureSet, policy: AugmentationPolicy):
    """The samples pools and bandwidths are taken over, as (vectors, ids):
    the gallery, then under with_probes every probe that is not a gallery
    sample, at its id plus :func:`probe_id_offset`.

    Probe and gallery ids share one namespace: a probe whose id is a
    gallery id is that gallery sample (the multiple-shot protocol draws
    probes from the gallery), so it adds no row of its own.
    """
    if policy.mode != WITH_PROBES:
        return gallery.vectors, gallery.ids
    probes = policy.probes
    if probes.dim != gallery.dim:
        raise InvalidParams(f"probe dim {probes.dim} != gallery dim {gallery.dim}")
    fresh = ~np.isin(probes.ids, gallery.ids)
    return (
        np.vstack([gallery.vectors, probes.vectors[fresh]]),
        np.concatenate([gallery.ids, probes.ids[fresh] + probe_id_offset(gallery)]),
    )


def candidate_pool(probe_id: int, gallery: FeatureSet, policy: AugmentationPolicy):
    """The reference set minus the probe itself, as fresh arrays
    (vectors, ids, n_gallery) whose first n_gallery rows are gallery
    samples.

    The probe is dropped in each block's own namespace: its own gallery
    copy by raw id, its probe row by offset id.  A raw probe id can equal
    another probe's offset id, so one id test over all rows would drop
    the wrong sample.
    """
    vectors, ids = reference_set(gallery, policy)
    n = len(gallery)
    keep = gallery.ids != int(probe_id)
    if len(ids) > n:
        keep = np.concatenate([keep, ids[n:] != probe_id_offset(gallery) + int(probe_id)])
    return vectors[keep], ids[keep], n - (int(probe_id) in gallery)


def _pool_row(probe_id: int, probe_vector, gallery, metric, policy):
    """The probe's candidate pool and its one distance row over it."""
    vectors, ids, n_gallery = candidate_pool(probe_id, gallery, policy)
    probe_vector = np.asarray(probe_vector, dtype=np.float64)
    return vectors, ids, n_gallery, pairwise(metric, probe_vector[None, :], vectors)[0]


def _nearest(ids: np.ndarray, dists: np.ndarray, k: int) -> frozenset:
    """The k ids nearest by (distance, id)."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    order = np.lexsort((ids, dists))
    return frozenset(int(i) for i in ids[order[:k]])


def knn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> NeighborSet:
    """The k candidates nearest to the probe, ties by ascending id."""
    _, ids, _, dists = _pool_row(probe_id, probe_vector, gallery, metric, policy)
    if len(ids) == 0:
        raise KTooLarge("candidate pool is empty")
    return NeighborSet(anchor_id=int(probe_id), k=k, members=_nearest(ids, dists, k))


def _inn_member_mask(
    probe_id: int,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    pool_row,
) -> np.ndarray:
    """Boolean mask over the pool's gallery rows: does each sample take
    the probe as one of its k nearest neighbors?

    ``pool_row`` is what :func:`_pool_row` returned.  The probe's 0-based
    position in sample j's pool equals the number of candidates ranked
    strictly before it under (distance, id); gallery candidates always
    win distance ties against the probe because their ids precede the
    probe's offset id.
    """
    vectors, ids, n_gallery, dists = pool_row
    if n_gallery == 0:
        return np.zeros(0, dtype=bool)
    gal_vectors, d_x = vectors[:n_gallery], dists[:n_gallery]

    def closer_than_probe(start: int, rows: np.ndarray) -> np.ndarray:
        return np.sum(rows <= d_x[start:start + len(rows), None], axis=1)

    counts = np.concatenate(scan_self_distances(metric, gal_vectors, closer_than_probe))

    if len(ids) > n_gallery:
        eff_x = probe_id_offset(gallery) + int(probe_id)
        d_aug = pairwise(metric, vectors[n_gallery:], gal_vectors)
        counts += np.sum(d_aug < d_x[None, :], axis=0)
        ties = d_aug == d_x[None, :]
        if np.any(ties):
            counts += np.sum(ties & (ids[n_gallery:] < eff_x)[:, None], axis=0)

    return counts < k


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
    if k < 1:
        raise InvalidParams("k must be >= 1")
    row = _pool_row(probe_id, probe_vector, gallery, metric, policy)
    _, ids, n_gallery, _ = row
    mask = _inn_member_mask(probe_id, gallery, metric, k, row)
    return frozenset(int(i) for i in ids[:n_gallery][mask])


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
    row = _pool_row(probe_id, probe_vector, gallery, metric, policy)
    _, ids, n_gallery, dists = row
    if len(ids) == 0:
        raise KTooLarge("candidate pool is empty")
    forward = _nearest(ids, dists, k)
    inverse = ids[:n_gallery][_inn_member_mask(probe_id, gallery, metric, k, row)]
    return forward & frozenset(int(i) for i in inverse)


def jaccard_distance(a, b) -> float:
    """1 - |A∩B| / |A∪B| over neighbor sets; 1.0 when the union is empty
    (no shared evidence is treated as maximal dissimilarity)."""
    set_a = a.members if isinstance(a, NeighborSet) else frozenset(a)
    set_b = b.members if isinstance(b, NeighborSet) else frozenset(b)
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return 1.0 - len(set_a & set_b) / union


def gallery_neighbor_set(
    gallery_id: int,
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> NeighborSet:
    """k-NN of one gallery sample over the probe's candidate pool with
    that sample swapped for the probe (at its offset id), the pool k-INN
    searches, so Jaccard overlaps compare like with like."""
    vectors, ids, n_gallery = candidate_pool(probe_id, gallery, policy)
    anchor_rows = np.flatnonzero(ids[:n_gallery] == int(gallery_id))
    if len(anchor_rows) == 0:
        raise InvalidParams(f"gallery id {gallery_id} not in candidate pool")
    anchor = int(anchor_rows[0])
    anchor_vector = vectors[anchor].copy()
    vectors[anchor] = np.asarray(probe_vector, dtype=np.float64)
    ids[anchor] = probe_id_offset(gallery) + int(probe_id)
    dists = pairwise(metric, anchor_vector[None, :], vectors)[0]
    return NeighborSet(anchor_id=int(gallery_id), k=k, members=_nearest(ids, dists, k))


def rank_by_distance(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
) -> RankedList:
    """Plain ascending-distance ranking of the whole gallery (the k-NN
    baseline as a total order)."""
    _, ids, _, dists = _pool_row(probe_id, probe_vector, gallery, metric, _GALLERY_ONLY)
    if len(ids) == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    order = np.lexsort((ids, dists))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=ids[order],
        values=dists[order],
        order=ASCENDING_DISTANCE,
    )


def _bounded(dists: np.ndarray) -> np.ndarray:
    # Monotone map of [0, inf) into [0, 1); keeps composite sort keys of
    # member and appended blocks in disjoint bands.
    return dists / (1.0 + dists)


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

    Values are composite sort keys: members in [0, 1), the appended block
    in [2, 3).  Orderings, not magnitudes, are the comparable quantity.
    """
    row = _pool_row(probe_id, probe_vector, gallery, metric, policy)
    _, ids, n_gallery, dists = row
    if n_gallery == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    member_mask = _inn_member_mask(probe_id, gallery, metric, k, row)
    gal_ids, dists = ids[:n_gallery], dists[:n_gallery]
    keys = np.where(member_mask, _bounded(dists), 2.0 + _bounded(dists))
    order = np.lexsort((gal_ids, dists, ~member_mask))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=gal_ids[order],
        values=keys[order],
        order=ASCENDING_DISTANCE,
    )


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
    the appended block lives in [2, 3).
    """
    row = _pool_row(probe_id, probe_vector, gallery, metric, policy)
    _, ids, n_gallery, dists = row
    if n_gallery == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    probe_nn = _nearest(ids, dists, k)
    member_mask = _inn_member_mask(probe_id, gallery, metric, k, row)
    gal_ids, dists = ids[:n_gallery], dists[:n_gallery]
    jaccard = np.zeros(n_gallery, dtype=np.float64)
    for member in np.flatnonzero(member_mask):
        gid = int(gal_ids[member])
        if gid not in probe_nn:
            member_mask[member] = False
            continue
        # Looked up as a module global on every call: the traced benchmark
        # counts these calls.
        neighborhood = gallery_neighbor_set(
            gid, probe_id, probe_vector, gallery, metric, k, policy
        )
        jaccard[member] = jaccard_distance(neighborhood, probe_nn)

    keys = np.where(member_mask, jaccard, 2.0 + _bounded(dists))
    order = np.lexsort((gal_ids, dists, keys, ~member_mask))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=gal_ids[order],
        values=keys[order],
        order=ASCENDING_DISTANCE,
    )
