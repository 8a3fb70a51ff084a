"""Classical neighbor-set machinery: k-NN, k-INN, k-RNN, Jaccard
dissimilarity, and their probe-augmented variants.

Conventions shared by every operation here:

* Probe and gallery ids live in one namespace.  A gallery sample whose id
  equals the probe's id is treated as the probe's own gallery copy (the
  multiple-shot protocol, where probes are drawn from the gallery) and is
  excluded from that probe's candidate pools.
* When extra probes augment a pool, their ids are offset by
  ``probe_id_offset(gallery)`` into a disjoint integer range, so neighbor
  sets can mix gallery and probe members without ambiguity.  Ranked
  outputs only ever emit true gallery ids.
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


def _effective_gallery(probe_id: int, gallery: FeatureSet):
    """Gallery rows eligible as candidates for this probe.

    Drops the probe's own gallery copy (id match) if present.
    """
    keep = gallery.ids != int(probe_id)
    return gallery.vectors[keep], gallery.ids[keep]


def _augmentation_rows(probe_id: int, gallery: FeatureSet, policy: AugmentationPolicy):
    """Extra probe candidates: X minus the probe itself, minus probes that
    duplicate a gallery sample by id.  Returns (vectors, effective_ids)."""
    if policy.mode != WITH_PROBES:
        return None, None
    probes = policy.probes
    offset = probe_id_offset(gallery)
    keep = probes.ids != int(probe_id)
    keep &= ~np.isin(probes.ids, gallery.ids)
    if not np.any(keep):
        return None, None
    return probes.vectors[keep], probes.ids[keep] + offset


def knn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> NeighborSet:
    """The k candidates nearest to the probe, ties by ascending id.

    Under with_probes the pool is the other probes plus the gallery, and
    members may carry offset probe ids.
    """
    if k < 1:
        raise InvalidParams("k must be >= 1")
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    aug_vectors, aug_ids = _augmentation_rows(probe_id, gallery, policy)
    if aug_vectors is not None:
        pool_vectors = np.vstack([gal_vectors, aug_vectors])
        pool_ids = np.concatenate([gal_ids, aug_ids])
    else:
        pool_vectors, pool_ids = gal_vectors, gal_ids
    if len(pool_ids) == 0:
        raise KTooLarge("candidate pool is empty")
    dists = pairwise(metric, np.asarray(probe_vector, dtype=np.float64)[None, :], pool_vectors)[0]
    order = np.lexsort((pool_ids, dists))
    take = min(k, len(pool_ids))
    return NeighborSet(
        anchor_id=int(probe_id), k=k, members=frozenset(int(i) for i in pool_ids[order[:take]])
    )


def _inn_member_mask(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy,
):
    """Boolean mask over the effective gallery: does each sample take the
    probe as one of its k nearest neighbors?

    The probe's 0-based position in sample j's pool equals the number of
    candidates ranked strictly before it under (distance, id); gallery
    candidates always win distance ties against the probe because their
    ids precede the probe's offset id.
    """
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    if len(gal_ids) == 0:
        return gal_ids, np.zeros(0, dtype=bool)
    probe_vector = np.asarray(probe_vector, dtype=np.float64)
    d_x = pairwise(metric, probe_vector[None, :], gal_vectors)[0]

    def closer_than_probe(start: int, rows: np.ndarray) -> np.ndarray:
        return np.sum(rows <= d_x[start:start + len(rows), None], axis=1)

    counts = np.concatenate(scan_self_distances(metric, gal_vectors, closer_than_probe))

    aug_vectors, aug_ids = _augmentation_rows(probe_id, gallery, policy)
    if aug_vectors is not None:
        eff_x = probe_id_offset(gallery) + int(probe_id)
        d_aug = pairwise(metric, aug_vectors, gal_vectors)
        counts += np.sum(d_aug < d_x[None, :], axis=0)
        ties = d_aug == d_x[None, :]
        if np.any(ties):
            counts += np.sum(ties & (aug_ids < eff_x)[:, None], axis=0)

    return gal_ids, counts < k


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
    gal_ids, mask = _inn_member_mask(probe_id, probe_vector, gallery, metric, k, policy)
    return frozenset(int(i) for i in gal_ids[mask])


def rnn(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> frozenset:
    """Reciprocal nearest neighbors: intersection of the probe's k-NN
    (restricted to gallery ids) with its k-INN."""
    forward = knn(probe_id, probe_vector, gallery, metric, k, policy)
    gallery_members = frozenset(
        m for m in forward.members if m < probe_id_offset(gallery)
    )
    return gallery_members & inn(probe_id, probe_vector, gallery, metric, k, policy)


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
    """k-NN of one gallery sample over the same pool convention used by
    k-INN ({probe} ∪ gallery minus self, or all probes ∪ gallery minus
    self), so Jaccard overlaps compare like with like."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    anchor_rows = np.nonzero(gal_ids == int(gallery_id))[0]
    if len(anchor_rows) == 0:
        raise InvalidParams(f"gallery id {gallery_id} not in candidate pool")
    anchor = int(anchor_rows[0])
    anchor_vector = gal_vectors[anchor]

    offset = probe_id_offset(gallery)
    cand_vectors = [np.delete(gal_vectors, anchor, axis=0)]
    cand_ids = [np.delete(gal_ids, anchor)]
    aug_vectors, aug_ids = _augmentation_rows(probe_id, gallery, policy)
    if aug_vectors is not None:
        cand_vectors.append(aug_vectors)
        cand_ids.append(aug_ids)
    # The probe itself is in the pool under both conventions.
    cand_vectors.append(np.asarray(probe_vector, dtype=np.float64)[None, :])
    cand_ids.append(np.asarray([offset + int(probe_id)], dtype=np.int64))

    pool_vectors = np.vstack(cand_vectors)
    pool_ids = np.concatenate(cand_ids)
    dists = pairwise(metric, anchor_vector[None, :], pool_vectors)[0]
    order = np.lexsort((pool_ids, dists))
    take = min(k, len(pool_ids))
    return NeighborSet(
        anchor_id=int(gallery_id),
        k=k,
        members=frozenset(int(i) for i in pool_ids[order[:take]]),
    )


def rank_by_distance(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
) -> RankedList:
    """Plain ascending-distance ranking of the whole gallery (the k-NN
    baseline as a total order)."""
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    if len(gal_ids) == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    dists = pairwise(metric, np.asarray(probe_vector, dtype=np.float64)[None, :], gal_vectors)[0]
    order = np.lexsort((gal_ids, dists))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=gal_ids[order],
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
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    if len(gal_ids) == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    ids_mask, member_mask = _inn_member_mask(
        probe_id, probe_vector, gallery, metric, k, policy
    )
    dists = pairwise(metric, np.asarray(probe_vector, dtype=np.float64)[None, :], gal_vectors)[0]
    keys = np.where(member_mask, _bounded(dists), 2.0 + _bounded(dists))
    order = np.lexsort((ids_mask, dists, ~member_mask))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=ids_mask[order],
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
    gal_vectors, gal_ids = _effective_gallery(probe_id, gallery)
    if len(gal_ids) == 0:
        raise EmptyGallery("no gallery candidates for this probe")
    members = rnn(probe_id, probe_vector, gallery, metric, k, policy)
    dists = pairwise(metric, np.asarray(probe_vector, dtype=np.float64)[None, :], gal_vectors)[0]

    probe_nn = knn(probe_id, probe_vector, gallery, metric, k, policy)
    jaccard = np.zeros(len(gal_ids), dtype=np.float64)
    member_mask = np.zeros(len(gal_ids), dtype=bool)
    for row, gid in enumerate(gal_ids):
        if int(gid) in members:
            member_mask[row] = True
            neighborhood = gallery_neighbor_set(
                int(gid), probe_id, probe_vector, gallery, metric, k, policy
            )
            jaccard[row] = jaccard_distance(neighborhood, probe_nn)

    keys = np.where(member_mask, jaccard, 2.0 + _bounded(dists))
    order = np.lexsort((gal_ids, dists, keys, ~member_mask))
    return RankedList(
        probe_id=int(probe_id),
        gallery_ids=gal_ids[order],
        values=keys[order],
        order=ASCENDING_DISTANCE,
    )
