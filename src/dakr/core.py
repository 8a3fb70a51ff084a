"""Domain types and distance metrics.

All types are immutable after construction and safe to share across
threads.  Distances are computed and stored as float64 regardless of the
precision of the input files: re-ranking is sort-sensitive and 32-bit
accumulation can flip near-ties.

Ties are broken by ascending id everywhere.  The self-distance scan
excludes each sample from its own row; a probe's own copy is dropped by
:func:`dakr.neighbors.candidate_pool` alone, and every ranking is built
by :func:`dakr.neighbors.ranking`.
"""

from __future__ import annotations

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, InvalidMetric, InvalidParams, NonFiniteValue

# Metric kinds
EUCLIDEAN = "euclidean"
SQUARED_EUCLIDEAN = "squared_euclidean"
MAHALANOBIS = "mahalanobis"
METRIC_KINDS = (EUCLIDEAN, SQUARED_EUCLIDEAN, MAHALANOBIS)

# RankedList orders
ASCENDING_DISTANCE = "ascending_distance"
DESCENDING_SCORE = "descending_score"

# Relative tolerance for learned matrices: asymmetry and negative
# eigenvalues up to this fraction of the matrix's norm are accepted.
PSD_TOLERANCE = 1e-9

# Row block size cap for quadratic scans, keeps peak memory bounded.
_BLOCK_ELEMENTS = 4_000_000


def _has_duplicates(ids: np.ndarray) -> bool:
    # Sort and compare neighbours; numpy 2's unique() hashes first, ~10x slower.
    ordered = np.sort(ids)
    return bool(np.any(ordered[1:] == ordered[:-1]))


@dataclass(frozen=True)
class FeatureSet:
    """Dense matrix of d-dimensional feature vectors with stable integer ids.

    ``ids`` are unique non-negative integers; ``vectors`` is row-major with
    one row per id.  Both arrays are locked read-only after validation.
    """

    ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if ids.ndim != 1:
            raise InvalidParams("ids must be a 1-D sequence of integers")
        if vectors.ndim != 2:
            raise InvalidParams("vectors must be a 2-D row-major matrix")
        n, d = vectors.shape
        if n < 1 or d < 1:
            raise InvalidParams(f"need n >= 1 and d >= 1, got shape {vectors.shape}")
        if len(ids) != n:
            raise InvalidParams(f"{len(ids)} ids for {n} vector rows")
        if np.any(ids < 0):
            raise InvalidParams("ids must be non-negative")
        if _has_duplicates(ids):
            raise InvalidParams("ids must be unique")
        if not np.all(np.isfinite(vectors)):
            raise NonFiniteValue("feature vectors contain NaN or Inf")
        ids = ids.copy()
        vectors = vectors.copy()
        ids.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_digest", None)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def content_digest(self) -> bytes:
        """SHA-256 over ids and vector bytes; cached after first call."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"FSET")
            h.update(struct.pack("<QQ", len(self), self.dim))
            h.update(self.ids.astype("<i8").tobytes())
            h.update(self.vectors.astype("<f8").tobytes())
            object.__setattr__(self, "_digest", h.digest())
        return self._digest


@dataclass(frozen=True)
class DistanceMetric:
    """Distance strategy: euclidean, squared euclidean, or Mahalanobis with
    a supplied PSD matrix.

    Use the classmethod constructors; they validate their inputs.  Learned
    matrices (e.g. from metric-learning pipelines) are often numerically
    indefinite and slightly asymmetric, so asymmetry up to
    ``PSD_TOLERANCE * norm`` and eigenvalues down to
    ``-PSD_TOLERANCE * spectral_norm`` are accepted; anything worse is
    rejected loudly.
    """

    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise InvalidMetric(f"unknown metric kind {self.kind!r}")
        if self.kind == MAHALANOBIS:
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2:
                raise InvalidParams(f"mahalanobis matrix must be 2-D, got ndim={m.ndim}")
            if not np.all(np.isfinite(m)):
                raise NonFiniteValue("mahalanobis matrix contains non-finite entries")
            if m.shape[0] != m.shape[1]:
                raise InvalidMetric(f"mahalanobis matrix must be square, got {m.shape}")
            if np.max(np.abs(m - m.T)) > PSD_TOLERANCE * np.linalg.norm(m):
                raise InvalidMetric(
                    f"mahalanobis matrix is not symmetric within {PSD_TOLERANCE:g} * its norm"
                )
            eigs = np.linalg.eigvalsh(m)
            scale = float(np.max(np.abs(eigs))) if m.size else 0.0
            if scale > 0.0 and float(eigs.min()) < -PSD_TOLERANCE * scale:
                raise InvalidMetric(
                    f"mahalanobis matrix is not PSD: min eigenvalue {eigs.min():.3e} "
                    f"below -{PSD_TOLERANCE:g} * spectral norm {scale:.3e}"
                )
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise InvalidMetric(f"{self.kind} metric takes no matrix")

    @classmethod
    def euclidean(cls) -> "DistanceMetric":
        return cls(EUCLIDEAN)

    @classmethod
    def squared_euclidean(cls) -> "DistanceMetric":
        return cls(SQUARED_EUCLIDEAN)

    @classmethod
    def mahalanobis(cls, matrix) -> "DistanceMetric":
        return cls(MAHALANOBIS, matrix)

    def content_digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(b"METR")
        h.update(self.kind.encode())
        if self.matrix is not None:
            h.update(struct.pack("<QQ", *self.matrix.shape))
            h.update(self.matrix.astype("<f8").tobytes())
        return h.digest()


def pairwise(metric: DistanceMetric, queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Distance rows between raw query vectors and raw reference vectors.

    Works on plain (q, d) and (r, d) arrays so the neighbor layers can
    build augmented candidate pools.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    refs = np.atleast_2d(np.asarray(refs, dtype=np.float64))
    if queries.shape[1] != refs.shape[1]:
        raise DimensionMismatch(
            f"query dim {queries.shape[1]} != reference dim {refs.shape[1]}"
        )
    if metric.kind == EUCLIDEAN:
        return cdist(queries, refs, metric="euclidean")
    if metric.kind == SQUARED_EUCLIDEAN:
        return cdist(queries, refs, metric="sqeuclidean")
    # Mahalanobis: quadratic form per pair, negatives from tolerated
    # indefiniteness clamped to zero before the square root.
    m = metric.matrix
    if m.shape[0] != queries.shape[1]:
        raise DimensionMismatch(
            f"mahalanobis matrix is {m.shape[0]}x{m.shape[0]} "
            f"but vectors have dim {queries.shape[1]}"
        )
    out = np.empty((queries.shape[0], refs.shape[0]), dtype=np.float64)
    for i, q in enumerate(queries):
        diff = refs - q
        quad = np.einsum("ij,jk,ik->i", diff, m, diff)
        out[i] = np.sqrt(np.maximum(quad, 0.0))
    return out


def scan_self_distances(metric: DistanceMetric, vectors, per_block, n_threads=None) -> list:
    """Walk the (n, n) self-distance matrix of ``vectors`` in row blocks
    of about ``_BLOCK_ELEMENTS`` entries, on a thread pool if n_threads > 1.

    Each block, with every sample's distance to itself set to inf, goes to
    ``per_block(start, rows)``; the results come back in block order.
    They must not be views of ``rows``, or every block stays alive.
    """
    n = len(vectors)
    block = max(1, min(n, _BLOCK_ELEMENTS // n))

    def scan(start: int):
        stop = min(start + block, n)
        rows = pairwise(metric, vectors[start:stop], vectors)
        rows[np.arange(stop - start), np.arange(start, stop)] = np.inf
        return per_block(start, rows)

    starts = range(0, n, block)
    if n_threads is not None and n_threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(scan, starts))
    return [scan(start) for start in starts]


@dataclass(frozen=True)
class RankedList:
    """Per-probe ordered candidates with their sort values.

    ``values`` must already be sorted according to ``order``
    (non-decreasing for ascending_distance, non-increasing for
    descending_score); within equal values, ids ascend.
    """

    probe_id: int
    gallery_ids: np.ndarray
    values: np.ndarray
    order: str

    def __post_init__(self):
        gallery_ids = np.asarray(self.gallery_ids, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if gallery_ids.ndim != 1 or values.ndim != 1:
            raise InvalidParams("gallery_ids and values must be 1-D")
        if gallery_ids.shape != values.shape:
            raise InvalidParams("gallery_ids and values must have equal length")
        if _has_duplicates(gallery_ids):
            raise InvalidParams("gallery ids must be unique within a ranking")
        if self.order not in (ASCENDING_DISTANCE, DESCENDING_SCORE):
            raise InvalidParams(f"unknown ranking order {self.order!r}")
        if np.isnan(values).any():
            raise NonFiniteValue("ranking values contain NaN")
        diffs = np.diff(values)
        if self.order == ASCENDING_DISTANCE and np.any(diffs < 0):
            raise InvalidParams("values are not sorted ascending")
        if self.order == DESCENDING_SCORE and np.any(diffs > 0):
            raise InvalidParams("values are not sorted descending")
        gallery_ids = gallery_ids.copy()
        values = values.copy()
        gallery_ids.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "gallery_ids", gallery_ids)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.gallery_ids)

    @property
    def entries(self) -> list[tuple[int, float]]:
        """Ordered (gallery_id, value) pairs."""
        return [(int(g), float(v)) for g, v in zip(self.gallery_ids, self.values)]
