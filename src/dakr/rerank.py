"""Uniform batch interface over every ranking method.

One bandwidth table is computed per batch and shared across probes, so
the quadratic work stays offline and each probe only pays the
linearithmic online cost.  :func:`offline_phase` is the one place a
method token becomes its method, its policy (falling back from
``with_probes`` to ``gallery_only``) and its timed table.
"""

from __future__ import annotations

import logging
import time
import warnings

import numpy as np

from .core import DistanceMetric, FeatureSet, RankedList, thread_map
from .errors import InvalidParams, StaleSigmaTable
from .kernels import (
    SigmaTable,
    bi_dakr_rank,
    check_policy,
    compute_sigma_table,
    default_k_sigma,
    inv_dakr_rank,
)
from .neighbors import (
    GALLERY_ONLY,
    WITH_PROBES,
    AugmentationPolicy,
    candidate_pool,
    rank_by_distance,
    rank_by_inn,
    rank_by_rnn,
)

NEIGHBOR_METHODS = ("inn", "rnn")
DAKR_METHODS = ("inv_dakr", "bi_dakr")
METHODS = ("knn", *NEIGHBOR_METHODS, *DAKR_METHODS)

log = logging.getLogger("dakr")


def parse_method_token(token: str) -> tuple[str, str]:
    """Split a method token like ``bi_dakr+`` into (method, policy mode);
    the trailing ``+`` selects probe augmentation."""
    token = token.strip()
    mode = GALLERY_ONLY
    if token.endswith("+"):
        token = token[:-1]
        mode = WITH_PROBES
    if token not in METHODS:
        raise InvalidParams(f"unknown method {token!r}; expected one of {METHODS}")
    if token == "knn" and mode == WITH_PROBES:
        raise InvalidParams("knn ranks by plain distance; it takes no '+'")
    return token, mode


def resolve_policy(mode: str, probes: FeatureSet) -> AugmentationPolicy:
    """Build a batch's augmentation policy from a mode string, degrading to
    gallery-only (with a warning) when no extra probes can augment it."""
    if mode not in (GALLERY_ONLY, WITH_PROBES):
        raise InvalidParams(f"unknown augmentation mode {mode!r}")
    if mode == WITH_PROBES and len(probes) < 2:
        message = (
            "with_probes requested but the probe set has no extra samples; "
            "falling back to gallery_only"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        mode = GALLERY_ONLY
    return AugmentationPolicy(probes if mode == WITH_PROBES else None)


def offline_phase(
    token: str, probes: FeatureSet, gallery: FeatureSet, metric: DistanceMetric, k_sigma: int
) -> tuple[str, AugmentationPolicy, SigmaTable | None, float]:
    """(method, policy, table, offline_ms) for a method token; only a
    kernel method gets a table, timed in milliseconds."""
    method, mode = parse_method_token(token)
    policy = resolve_policy(mode, probes)
    if method not in DAKR_METHODS:
        return method, policy, None, 0.0
    started = time.perf_counter()
    table = compute_sigma_table(gallery, metric, k_sigma, policy)
    return method, policy, table, (time.perf_counter() - started) * 1e3


def rank_probe(
    method: str,
    probe_id: int,
    vector,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int | None,
    table: SigmaTable | None,
    policy: AugmentationPolicy,
) -> RankedList:
    """Rank the gallery for one probe with the named method: the one place
    a method name picks its ranking function.  ``k`` drives the neighbor
    methods, ``table`` the kernel methods."""
    if method == "knn":
        return rank_by_distance(probe_id, vector, gallery, metric)
    if method == "inn":
        return rank_by_inn(probe_id, vector, gallery, metric, k, policy)
    if method == "rnn":
        return rank_by_rnn(probe_id, vector, gallery, metric, k, policy)
    if method == "inv_dakr":
        return inv_dakr_rank(probe_id, vector, gallery, metric, table)
    if method == "bi_dakr":
        return bi_dakr_rank(probe_id, vector, gallery, metric, table, policy)
    raise InvalidParams(f"unknown method {method!r}; expected one of {METHODS}")


def _log_k_cut(k: int, probes: FeatureSet, gallery: FeatureSet, policy: AugmentationPolicy):
    """Log, once per batch, how many probes have a candidate pool smaller
    than ``k``, so that their neighbor sets are cut to the pool."""
    if not log.isEnabledFor(logging.INFO):
        return
    pools = [np.count_nonzero(candidate_pool(pid, gallery, policy)[2]) for pid in probes.ids]
    cut = sum(pool < k for pool in pools)
    if cut:
        log.info(
            "k=%d exceeds the candidate pool of %d of %d probes (smallest pool %d); "
            "their neighbor sets are cut to the pool",
            k, cut, len(probes), min(pools),
        )


def rerank(
    method: str,
    probes: FeatureSet,
    gallery: FeatureSet,
    metric: DistanceMetric,
    k: int | None = None,
    k_sigma: int | None = None,
    policy: AugmentationPolicy | str = GALLERY_ONLY,
    table: SigmaTable | None = None,
    n_threads: int | None = None,
) -> list[RankedList]:
    """Rank the gallery for every probe with the chosen method.

    ``policy`` may be an :class:`AugmentationPolicy` or one of the mode
    strings; the string form augments with the batch's own probe set.  ``k``
    drives the neighbor methods, ``k_sigma`` the kernel methods.  A given
    ``table`` must fit ``k_sigma`` (default: its own) and ``policy``, else
    :class:`StaleSigmaTable`; without one a table is built, ``k_sigma``
    defaulting to 5% of the gallery.
    """
    if isinstance(policy, str):
        policy = resolve_policy(policy, probes)

    if method in NEIGHBOR_METHODS:
        if k is None or k < 1:
            raise InvalidParams(f"method {method} requires k >= 1")
        _log_k_cut(k, probes, gallery, policy)
    if method == "knn" and policy.mode == WITH_PROBES:
        raise InvalidParams("knn ranks by plain distance; it takes no with_probes policy")
    if method in DAKR_METHODS:
        if table is None:
            if k_sigma is None:
                k_sigma = default_k_sigma(len(gallery))
            table = compute_sigma_table(gallery, metric, k_sigma, policy)
        elif k_sigma not in (None, table.k_sigma):
            raise StaleSigmaTable(
                f"table was built with k_sigma={table.k_sigma}, requested {k_sigma}"
            )
        check_policy(table, policy)

    def rank_one(row: int) -> RankedList:
        return rank_probe(
            method, int(probes.ids[row]), probes.vectors[row],
            gallery, metric, k, table, policy,
        )

    return thread_map(rank_one, range(len(probes)), n_threads)
