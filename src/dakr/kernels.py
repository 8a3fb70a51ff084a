"""Density-adaptive kernel scoring: bandwidth tables and the inverse and
bidirectional re-ranking rules.

A bandwidth sigma_j is the distance from sample j to its k-th nearest
neighbor inside the reference set (:func:`dakr.neighbors.reference_set`),
so it encodes local density: small in crowded regions, large in sparse
ones.  Bandwidths are the offline phase, the one quadratic step: the
self-distance scan's GEMM only selects which entries to re-score, and
every bandwidth is a value of :func:`dakr.core.pairwise` (``cdist``'s
bytes for the euclidean metrics), as a full scan of ``cdist`` rows
would give.  A probe is then ranked online by sorting kernel responses:

* inverse rule:        phi(d(x, y_j) / sigma_j), a smoothed inverse-NN;
* bidirectional rule:  phi(d(x, y_j)^2 / (sigma_i * sigma_j)), a smoothed
  reciprocal-NN, where sigma_i is the probe's own bandwidth.

The basis is phi(t) = exp(-t).  Each rule is written once, in its rank
function, which sorts on the kernel argument t rather than on phi: the
same order, immune to floating-point underflow at large t.  The scores
are the ranking's values, phi(t) for every sample in the probe's pool.
Rankings and :func:`probe_sigma` take the probe's distance row from
:func:`dakr.neighbors.pool_row`; :func:`dakr.neighbors.ranking` builds rankings.
"""

from __future__ import annotations

import hashlib
import logging
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DESCENDING_SCORE,
    DistanceMetric,
    FeatureSet,
    RankedList,
    # pairwise is not called here; it stays importable because
    # perfbench/tracing.py wraps dakr.kernels.pairwise.
    pairwise,
    scan_self_distances,
)
from .errors import EmptyGallery, InvalidParams, NonPositiveSigma, OutOfRange, StaleSigmaTable
from .neighbors import (
    GALLERY_ONLY,
    WITH_PROBES,
    AugmentationPolicy,
    pool_row,
    ranking,
    reference_set,
)

# Relative floor for degenerate (duplicate-point) bandwidths.
_SIGMA_FLOOR_SCALE = 1e-12
_OVERFLOW = "distances overflow float64, so the bandwidths are not finite"

log = logging.getLogger("dakr")


def reference_digest(
    gallery: FeatureSet,
    metric: DistanceMetric,
    k_sigma: int,
    policy_mode: str,
    probes_digest: bytes = b"",
) -> bytes:
    """Content digest binding a bandwidth table to the data that built it."""
    h = hashlib.sha256()
    h.update(gallery.content_digest())
    h.update(metric.content_digest())
    h.update(struct.pack("<I", k_sigma))
    h.update(b"\x01" if policy_mode == WITH_PROBES else b"\x00")
    h.update(probes_digest)
    return h.digest()


@dataclass(frozen=True)
class SigmaTable:
    """Per-sample bandwidths, guarded by a content digest.

    Correctness silently breaks if bandwidths and data drift apart, so
    scoring re-derives the digest and :func:`check_policy` refuses any
    other policy.  The probes' own bandwidths are cached under with_probes
    (empty under gallery_only), keeping the online phase free of quadratic work.

    ``_floor`` floors a probe's own bandwidth: :func:`_sigma_floor` of the
    gallery bandwidths, the floor they were built with unless over half
    of them were 0 and floored to 1e-12, which makes it 1e-24.
    """

    k_sigma: int
    policy_mode: str
    reference_digest: bytes
    gallery_ids: np.ndarray
    gallery_sigmas: np.ndarray
    probes_digest: bytes = b""
    probe_ids: np.ndarray = ()
    probe_sigmas: np.ndarray = ()

    def __post_init__(self):
        if self.k_sigma < 1:
            raise InvalidParams("k_sigma must be >= 1")
        if self.policy_mode not in (GALLERY_ONLY, WITH_PROBES):
            raise InvalidParams(f"unknown policy mode {self.policy_mode!r}")
        for side, what in (("gallery", "gallery sample"), ("probe", "probe")):
            ids = np.asarray(getattr(self, f"{side}_ids"), dtype=np.int64)
            sigmas = np.asarray(getattr(self, f"{side}_sigmas"), dtype=np.float64)
            if ids.shape != sigmas.shape:
                raise InvalidParams(f"one sigma per {what} required")
            if np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas)):
                raise NonPositiveSigma("bandwidths must be positive and finite")
            object.__setattr__(self, f"{side}_ids", ids)
            object.__setattr__(self, f"{side}_sigmas", sigmas)
        if not len(self.gallery_ids):
            raise InvalidParams("a bandwidth table needs gallery samples")
        object.__setattr__(self, "_floor", _sigma_floor(self.gallery_sigmas))


def compute_sigma_table(
    gallery: FeatureSet,
    metric: DistanceMetric,
    k_sigma: int,
    policy: AugmentationPolicy = AugmentationPolicy(),
    n_threads: int | None = None,
) -> SigmaTable:
    """Offline bandwidth computation for every reference sample.

    sigma_j is the k_sigma-th nearest-neighbor distance of sample j inside
    the reference set (self excluded).  k_sigma larger than the pool clamps
    to the pool size with a warning.  Duplicate points would give sigma = 0,
    which is floored at :func:`_sigma_floor` of the gallery's bandwidths
    so kernels stay finite and coincident samples still win.  A sigma
    past float64 is :class:`OutOfRange`; other distances that overflow
    only score 0.  Each table logs one info line: samples scanned,
    k_sigma and whether it was clamped, floor hits, and pairs re-scored
    at the selection boundary.  GEMM blocks run on the calling thread in
    one buffer pair per scan; ``n_threads`` sizes only the pool of
    exact-row blocks, as under Mahalanobis.
    """
    if k_sigma < 1:
        raise InvalidParams("k_sigma must be >= 1")

    ref_vectors, ref_ids = reference_set(gallery, policy)
    pool = len(ref_ids) - 1
    if pool < 1:
        raise EmptyGallery("need at least two reference samples for bandwidths")
    k_eff = k_sigma
    if k_eff > pool:
        warnings.warn(
            f"k_sigma={k_sigma} exceeds pool size {pool}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        k_eff = pool

    blocks = scan_self_distances(
        metric, ref_vectors, lambda block: (block.kth_smallest(k_eff), block.rescored), n_threads
    )
    sigmas = np.concatenate([kth for kth, _ in blocks])
    rescored = sum(r for _, r in blocks)
    if not np.isfinite(sigmas).all():
        raise OutOfRange(_OVERFLOW)
    floor = _sigma_floor(sigmas[: len(gallery)])
    floor_hits = int(np.count_nonzero(sigmas < floor))
    sigmas = np.maximum(sigmas, floor)
    log.info(
        "sigma table: %d samples scanned, k_sigma %d%s, %d sigma floor hits, "
        "%d pairs re-scored at the selection boundary",
        len(ref_ids),
        k_eff,
        f" (clamped from {k_sigma})" if k_eff < k_sigma else "",
        floor_hits,
        rescored,
    )

    if policy.mode == WITH_PROBES:
        # A probe that is a gallery sample has that sample's bandwidth;
        # the others follow the gallery in the reference set, in order.
        sigma_of = dict(zip(gallery.ids.tolist(), sigmas.tolist()))
        fresh = iter(sigmas[len(gallery):].tolist())
        probe_ids = policy.probes.ids.tolist()
        probe_sigmas = [sigma_of[p] if p in sigma_of else next(fresh) for p in probe_ids]
        sigmas = np.concatenate([sigmas[: len(gallery)], probe_sigmas])
    return bind_sigma_table(gallery, metric, k_sigma, policy, sigmas)


def bind_sigma_table(
    gallery: FeatureSet,
    metric: DistanceMetric,
    k_sigma: int,
    policy: AugmentationPolicy,
    sigmas: np.ndarray,
) -> SigmaTable:
    """A table over ``sigmas`` (one per gallery sample, then under
    with_probes one per probe), bound by digest to the data they describe."""
    n = len(gallery)
    probes = policy.probes
    probes_digest = b"" if probes is None else probes.content_digest()
    return SigmaTable(
        k_sigma=k_sigma,
        policy_mode=policy.mode,
        reference_digest=reference_digest(
            gallery, metric, k_sigma, policy.mode, probes_digest
        ),
        gallery_ids=gallery.ids.copy(),
        gallery_sigmas=sigmas[:n],
        probes_digest=probes_digest,
        probe_ids=() if probes is None else probes.ids.copy(),
        probe_sigmas=sigmas[n:],
    )


def _check_table(table: SigmaTable, gallery: FeatureSet, metric: DistanceMetric) -> None:
    expected = reference_digest(
        gallery, metric, table.k_sigma, table.policy_mode, table.probes_digest
    )
    if expected != table.reference_digest:
        raise StaleSigmaTable(
            "bandwidth table does not match this gallery/metric; recompute it"
        )


def check_policy(table: SigmaTable, policy: AugmentationPolicy) -> None:
    """The one rule for whether ``policy`` fits ``table``: the same mode and,
    under with_probes, the same probe set by digest; else :class:`StaleSigmaTable`."""
    if policy.mode != table.policy_mode:
        raise StaleSigmaTable(
            f"table was built {table.policy_mode}, ranking requested {policy.mode}"
        )
    if policy.mode == WITH_PROBES and policy.probes.content_digest() != table.probes_digest:
        raise StaleSigmaTable("table was built over another probe set")


def _rank_by_kernel(probe_id: int, probe_vector, gallery, metric, table, argument) -> RankedList:
    """Descending-score ranking of the probe's gallery-only pool by ascending
    kernel argument t = argument(d) of its distance row d, scores exp(-t)."""
    _check_table(table, gallery, metric)
    _, ids, keep, d = pool_row(probe_id, probe_vector, gallery, metric)
    t = argument(d)[keep]
    return ranking(probe_id, ids[keep], np.exp(-t), DESCENDING_SCORE, t)


def inv_dakr_rank(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    table: SigmaTable,
) -> RankedList:
    """Descending-score ranking under the inverse rule, sorted on the
    kernel argument d/sigma_j."""
    return _rank_by_kernel(
        probe_id, probe_vector, gallery, metric, table, lambda d: d / table.gallery_sigmas
    )


def probe_sigma(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    table: SigmaTable,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> float:
    """The probe's own bandwidth: its k_sigma-th nearest-neighbor distance
    within its candidate pool (:func:`dakr.neighbors.pool_row`).
    Under with_probes it is served from the table's cache when possible.
    A policy that does not fit the table fails :func:`check_policy`.
    """
    check_policy(table, policy)
    if len(table.probe_ids):
        cached = table.probe_sigmas[table.probe_ids == int(probe_id)]
        if len(cached):
            return float(cached[0])
    _, _, keep, d = pool_row(probe_id, probe_vector, gallery, metric, policy)
    d = d[keep]
    if len(d) == 0:
        raise EmptyGallery("no reference samples to derive the probe bandwidth")
    k_eff = min(table.k_sigma, len(d))
    sigma = float(np.partition(d, k_eff - 1)[k_eff - 1])
    if not np.isfinite(sigma):
        raise OutOfRange(_OVERFLOW)
    return max(sigma, table._floor)


def _sigma_floor(sigmas: np.ndarray) -> float:
    """The floor for degenerate bandwidths: 1e-12 times the upper median m
    of ``sigmas``, or 1e-12 when m is 0.  Floored values stay under m, so
    floored bandwidths give the same floor (an averaged median would not)."""
    m = float(np.partition(sigmas, len(sigmas) // 2)[len(sigmas) // 2])
    return _SIGMA_FLOOR_SCALE * (m if m > 0 else 1.0)


def bi_dakr_rank(
    probe_id: int,
    probe_vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    table: SigmaTable,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> RankedList:
    """Descending-score ranking under the bidirectional rule, sorted on the
    kernel argument d^2/(sigma_i * sigma_j): the squared distance merges the
    probe-to-gallery and gallery-to-probe beliefs in one symmetric form.

    The probe bandwidth sigma_i comes from :func:`probe_sigma`, which
    refuses a policy that fails :func:`check_policy`; the table's
    gallery bandwidths are reused untouched (the offline/online split).
    """

    def argument(d):
        sigma_i = probe_sigma(probe_id, probe_vector, gallery, metric, table, policy)
        return d * d / (sigma_i * table.gallery_sigmas)

    return _rank_by_kernel(probe_id, probe_vector, gallery, metric, table, argument)


def default_k_sigma(n_gallery: int, avg_true_matches: float | None = None) -> int:
    """Rule of thumb for k_sigma: 5% of the gallery for single-shot data,
    the average ground-truth multiplicity for multiple-shot data."""
    if avg_true_matches is not None and avg_true_matches > 1:
        return max(1, round(avg_true_matches))
    return max(1, round(0.05 * n_gallery))
