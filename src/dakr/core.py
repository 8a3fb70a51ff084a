"""Domain types and distance metrics.

All types are immutable after construction and safe to share across
threads.  Distances are computed and stored as float64 regardless of the
precision of the input files: re-ranking is sort-sensitive and 32-bit
accumulation can flip near-ties, so no 32-bit value is ever emitted.

Ties are broken by ascending id everywhere.  The self-distance scan
excludes each sample from its own row; a probe's own copy is dropped by
:func:`dakr.neighbors.candidate_pool` alone, and every ranking is built
by :func:`dakr.neighbors.ranking`.

Every distance the program emits is :func:`pairwise`'s, which for the
euclidean metrics means scipy ``cdist``'s bytes.  The self-distance scan
(:func:`scan_self_distances`) takes its euclidean rows from one float32
GEMM per row block, ||x||^2 + ||y||^2 - 2 x.y on mean-centred vectors
scaled by a power of two, with a rounding bound per row; that
approximation only *selects*.  :class:`SelfBlock` decides each k-th
smallest value and count under a limit from it where the bound allows,
and re-scores the entries within twice the bound of the boundary as
difference rows, one :func:`pairwise` call per chunk, so the values it
returns are the ones full ``cdist`` rows would give.
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

# Row block size cap for quadratic scans: 4 MB of float32 per buffer.
# Measured on float32 sigma tables of d = 64 (2 cores, medians of three
# runs), N = 4,500 at k_sigma 25 took 64 ms at this size, 74 ms at half
# and 66 ms at double; N = 4,000 at k_sigma 200 took 72, 74 and 77 ms.
_BLOCK_ELEMENTS = 1 << 20

# The GEMM scan's rounding bound per row is, in scaled units,
# _EPS_FACTOR * (d + 4) * (u * (|x_i|^2 + max_j |x_j|^2) + t + s * p^2),
# u = 2^-24 float32's unit roundoff, max_j over the columns that are not
# far, t float32's smallest normal (a BLAS may flush subnormals), s
# float64's smallest subnormal and p the power of two the vectors were
# scaled by: cdist's own rounding below the normal range is absolute in
# the original units.  The operands' rounding (3u) and the GEMM's sum of
# d + 2 terms (2(d + 2)u) make a factor of about 2; 16 leaves room for
# the centring and cdist's own float64 sum.
_EPS_FACTOR = 16.0
# Columns whose squared norm passes this multiple of the median are far
# columns: +inf in every block, so that no row's bound grows with them.
_FAR_FACTOR = 8.0
# Entries (pairs times d) per pairwise() call when re-scoring pairs: on
# far-sample sigma tables 2^14 to 2^17 timed alike, 2^20 24% slower.
_PAIR_BUDGET = 1 << 16


def _integer_ids(ids) -> np.ndarray:
    """``ids`` as int64; fractional or non-finite float ids are refused,
    where a plain cast would truncate them."""
    raw = np.asarray(ids)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
        raise InvalidParams("ids must be integers")
    return np.asarray(raw, dtype=np.int64)


def _freeze(obj, **arrays) -> None:
    """Set each of ``arrays`` on the frozen dataclass ``obj`` as a read-only copy."""
    for name, array in arrays.items():
        array = array.copy()
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


def thread_map(fn, items, n_threads=None) -> list:
    """``[fn(item) for item in items]``, on a pool of ``n_threads`` threads
    when that is above 1 and there is more than one item: the one place
    dakr starts threads."""
    if n_threads is not None and n_threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _has_duplicates(ids: np.ndarray) -> bool:
    # Sort and compare neighbours; numpy 2's unique() hashes first, ~10x slower.
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


@dataclass(frozen=True)
class FeatureSet:
    """Dense matrix of d-dimensional feature vectors with stable integer ids.

    ``ids`` are unique non-negative integers; ``vectors`` is row-major with
    one row per id.  Both arrays are locked read-only after validation.
    """

    ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        ids = _integer_ids(self.ids)
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
        _freeze(self, ids=ids, vectors=vectors)
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
            # Both checks run on m over a power of two at its largest entry,
            # which is exact, so that no norm or eigenvalue overflows.
            exp = np.frexp(np.max(np.abs(m)))[1]
            unit = np.ldexp(m, -exp)
            if np.max(np.abs(unit - unit.T)) > PSD_TOLERANCE * np.linalg.norm(unit):
                raise InvalidMetric(
                    f"mahalanobis matrix is not symmetric within {PSD_TOLERANCE:g} * its norm"
                )
            eigs = np.linalg.eigvalsh(unit)
            scale = float(np.max(np.abs(eigs))) if m.size else 0.0
            if scale > 0.0 and float(eigs.min()) < -PSD_TOLERANCE * scale:
                with np.errstate(over="ignore"):
                    low, scale = np.ldexp([eigs.min(), scale], exp)
                raise InvalidMetric(
                    f"mahalanobis matrix is not PSD: min eigenvalue {low:.3e} "
                    f"below -{PSD_TOLERANCE:g} * spectral norm {scale:.3e}"
                )
            _freeze(self, matrix=m)
        elif self.matrix is not None:
            raise InvalidMetric(f"{self.kind} metric takes no matrix")
        object.__setattr__(self, "_digest", None)

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
        """SHA-256 over the kind and matrix bytes; cached after first call."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"METR")
            h.update(self.kind.encode())
            if self.matrix is not None:
                h.update(struct.pack("<QQ", *self.matrix.shape))
                h.update(self.matrix.astype("<f8").tobytes())
            object.__setattr__(self, "_digest", h.digest())
        return self._digest


def pairwise(metric: DistanceMetric, queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Distance rows between raw query vectors and raw reference vectors.

    Works on plain (q, d) and (r, d) arrays so the neighbor layers can
    build augmented candidate pools.  ``cdist`` squares before it takes
    the root, so a euclidean distance above about 1.34e154 (the root of
    float64's largest value) comes out as +inf; so does a Mahalanobis
    distance whose coordinate differences or quadratic form pass float64,
    where inf·0 or inf − inf would make it NaN.
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
    n = refs.shape[0]
    out = np.empty((queries.shape[0], n), dtype=np.float64)
    # einsum sums the form of one or two 2-d rows in another order than of
    # three or more, so zero rows pad a call to three: a distance's bytes
    # do not depend on how many rows share its call.
    if n < 3:
        refs = np.vstack([refs, np.zeros((3 - n, refs.shape[1]))])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, q in enumerate(queries):
            diff = refs - q
            quad = np.einsum("ij,jk,ik->i", diff, m, diff)[:n]
            out[i] = np.sqrt(np.maximum(quad, 0.0))
    out[np.isnan(out)] = np.inf
    return out


def _pair_distances(metric: DistanceMetric, vectors: np.ndarray, rows, cols) -> np.ndarray:
    """pairwise() of each pair (vectors[rows[p]], vectors[cols[p]]), with
    the bytes the full distance row would give (tests pin this).

    Every metric reads a pair only through its coordinate differences,
    and subtracting 0 is exact, so each pair is the distance from the
    origin to its difference row vectors[cols[p]] - vectors[rows[p]]:
    one pairwise() call per chunk of ``_PAIR_BUDGET`` entries.
    """
    step = max(1, _PAIR_BUDGET // vectors.shape[1])
    origin = np.zeros((1, vectors.shape[1]))
    out = np.empty(len(rows), dtype=np.float64)
    # A difference past float64 is inf, as inside cdist, which does not
    # warn; scan threads do not inherit the caller's error state.
    with np.errstate(over="ignore"):
        for s in range(0, len(rows), step):
            diffs = vectors[cols[s:s + step]] - vectors[rows[s:s + step]]
            out[s:s + step] = pairwise(metric, origin, diffs)[0]
    return out


@dataclass
class SelfBlock:
    """Rows ``start`` to ``stop`` of the self-distance matrix of ``vectors``,
    each sample's entry in its own row at +inf.

    ``approx`` holds exact :func:`pairwise` rows when ``exact``; otherwise
    ``approx[i, j]`` is within ``eps[i]`` of ``scale**2`` times the exact
    squared distance (the metric's value under squared euclidean, its
    square under euclidean), or +inf for a column in ``far``, whose scaled
    squared distance is at least ``reach[i]``.  ``spare``, of ``approx``'s
    shape and dtype, is :meth:`kth_smallest`'s scratch space: it holds ``approx``
    clamped at 0, partitioned as integers.  A GEMM block is float32 and
    runs on the calling thread in the scan's one buffer pair, which the
    next block overwrites; an exact-row block, on the pool of
    ``n_threads``, has its own.  The selections below return exact
    :func:`pairwise` values, never views of either: :func:`_pair_distances`
    re-scores a GEMM block's pairs, in any order, and ``rescored`` counts
    them.
    """

    metric: DistanceMetric
    vectors: np.ndarray
    start: int
    approx: np.ndarray
    eps: np.ndarray
    exact: bool
    spare: np.ndarray
    scale: float = 1.0
    far: np.ndarray | tuple = ()
    reach: np.ndarray | float = np.inf
    rescored: int = 0

    @property
    def stop(self) -> int:
        return self.start + len(self.approx)

    @property
    def squared(self) -> bool:
        """Whether ``approx`` holds squares of the metric's distances."""
        return self.metric.kind == EUCLIDEAN and not self.exact

    def _exact(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact distances of the block's (row, column) pairs."""
        if self.exact:
            return self.approx[rows, cols]
        self.rescored += len(rows)
        return _pair_distances(self.metric, self.vectors, self.start + rows, cols)

    def _edges(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row band edges in ``approx``'s dtype, ``lo`` rounded down and
        ``hi`` up, so the band holds every entry the float64 edges do, and
        the rows whose ``hi`` reaches ``reach``: their far columns, +inf in
        ``approx``, join the band."""
        reaches = ~(hi < self.reach)
        dtype = self.approx.dtype.type
        with np.errstate(over="ignore"):
            down, up = lo.astype(dtype), hi.astype(dtype)
        down = np.where(down > lo, np.nextafter(down, dtype(-np.inf)), down)
        up = np.where(up < hi, np.nextafter(up, dtype(np.inf)), up)
        return down, up, reaches

    def _band(self, rows: np.ndarray, lo, hi, reaches) -> tuple[np.ndarray, np.ndarray]:
        """The entries of block rows ``rows`` from ``lo`` to ``hi`` (edges
        from :meth:`_edges`, broadcast against ``approx[rows]``), and the
        far columns where ``reaches``, own entries left out: their rows,
        ascending, and their exact distances."""
        band = self.approx[rows]
        inside = (band >= lo) & (band <= hi)
        inside[np.ix_(reaches, self.far)] = True
        # One flat index: 2-D nonzero costs ~10x more on wide blocks.
        band_row, cols = np.divmod(np.flatnonzero(inside), band.shape[1])
        rows = rows[band_row]
        other = cols != self.start + rows
        return rows[other], self._exact(rows[other], cols[other])

    def kth_smallest(self, k: int) -> np.ndarray:
        """Each row's exact k-th smallest distance, 1 <= k < len(vectors).

        ``spare`` takes ``approx`` clamped at 0, which keeps every entry
        within its bound of the exact value, and is partitioned as integers
        of its width: non-negative floats, +inf included, order as their
        bit patterns.  Entries more than 2 eps below or above the
        approximate k-th value are decided by the approximation; the exact
        k-th is the (k - sure-below)-th smallest of the re-scored band
        between.  The sure-below count, the lone-row test and the band all
        read the same edges, rounded outward once.
        """
        approx, part = self.approx, self.spare
        np.maximum(approx, 0, out=part)
        # A -0.0 left by the clamp sorts first as an integer, as 0 sorts first.
        part.view(f"i{part.itemsize}").partition(k - 1, axis=1)
        kth = part[:, k - 1].copy()
        wide_kth, eps2 = kth.astype(np.float64), 2.0 * self.eps
        # The exact k-th is at least the approximate one less eps, or a far
        # column's bound.  At or below 0 the clamped copy cannot tell which
        # entries lie under the band's low edge, so such a band reaches
        # down to -inf.
        lo = np.minimum(wide_kth - eps2, self.reach - self.eps)
        lo[lo <= 0] = -np.inf
        lo, hi, reaches = self._edges(lo, wide_kth + eps2)
        below = np.count_nonzero(part[:, : k - 1] < lo[:, None], axis=1)
        # Lone rows: the k-th entry is the only one in its band.  A k-th of
        # 0 may be a clamped entry, absent from approx.
        lone = (below == k - 1) & (part[:, k:].min(axis=1) > hi) & (kth > 0) & ~reaches
        lone_rows, wide = np.flatnonzero(lone), np.flatnonzero(~lone)
        out = np.empty(len(approx), dtype=np.float64)
        lone_cols = np.argmax(approx == kth[:, None], axis=1)[lone_rows]
        out[lone_rows] = self._exact(lone_rows, lone_cols)
        rows, exact = self._band(wide, lo[wide, None], hi[wide, None], reaches[wide])
        # rows ascend, so the stable sort keeps each row's band together.
        band_exact = exact[np.lexsort((exact, rows))]
        out[wide] = band_exact[np.searchsorted(rows, wide) + k - 1 - below[wide]]
        return out

    def count_within(self, limits: np.ndarray) -> np.ndarray:
        """Per row, the exact number of entries at most ``limits[i]``."""
        slack = 2.0 * self.eps
        with np.errstate(over="ignore", invalid="ignore"):
            key = limits * self.scale
            if self.squared:
                # Relative slack, so the decided entries stay decided after
                # the key's square and the distances' square roots round.
                key = key * key
                slack = slack + 4.0 * np.finfo(np.float64).eps * key
            else:
                key = key * self.scale
            lo, hi = key - slack, key + slack
        # A key past float64 with an infinite slack has its whole row
        # re-scored, own entry aside.
        lo[np.isnan(lo)] = -np.inf
        lo, hi, reaches = self._edges(lo, hi)
        counts = np.count_nonzero(self.approx < lo[:, None], axis=1)
        wide = np.count_nonzero(self.approx <= hi[:, None], axis=1) > counts
        wide = np.flatnonzero(wide | reaches)
        rows, exact = self._band(wide, lo[wide, None], hi[wide, None], reaches[wide])
        np.add.at(counts, rows[exact <= limits[rows]], 1)
        return counts


def scan_self_distances(metric: DistanceMetric, vectors, per_block, n_threads=None) -> list:
    """Walk the (n, n) self-distance matrix of ``vectors`` in row blocks
    of about ``_BLOCK_ELEMENTS`` entries, each passed to ``per_block`` as
    a :class:`SelfBlock`; the results come back in block order.

    Euclidean and squared euclidean blocks are one float32 GEMM each, of
    scaled squared distances, on the calling thread in the scan's one
    buffer pair, so the results must not be views of ``block.approx`` or
    ``block.spare``.  Mahalanobis blocks, and blocks of vectors too large
    for the GEMM, are exact :func:`pairwise` rows with buffers of their
    own, on a pool of ``n_threads`` threads if that is above 1.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n, d = vectors.shape
    block = max(1, min(n, _BLOCK_ELEMENTS // n))
    exact = metric.kind == MAHALANOBIS
    if not exact:
        centred = vectors - vectors.mean(axis=0)
        norms = np.einsum("ij,ij->i", centred, centred)
        far = norms > _FAR_FACTOR * np.median(norms)
        if far.any():
            # Far samples pull the mean away from the others, whose norms
            # and so bounds would grow with it: centre on the others.
            centred = vectors - vectors[~far].mean(axis=0)
            norms = np.einsum("ij,ij->i", centred, centred)
            far = norms > _FAR_FACTOR * np.median(norms)
        # Squared distances reach 4 max |x|^2; past the float range cdist's
        # may overflow where the scaled GEMM's do not, so the blocks are
        # exact rows.
        exact = not norms.max() <= np.finfo(np.float64).max / 4
    if exact:
        def rows_of(start: int, stop: int):
            approx = pairwise(metric, vectors[start:stop], vectors)
            return approx, np.zeros(stop - start), np.empty_like(approx)

        scale, far_cols, reach = 1.0, (), np.full(n, np.inf)
    else:
        # A power of two puts the largest squared norm in [1/4, 1): exact,
        # and it keeps every operand and partial sum in float32's range.
        shift = -((np.frexp(norms.max())[1] + 1) // 2)
        scale = np.ldexp(1.0, shift)
        centred *= scale
        norms = np.ldexp(norms, 2 * shift)
        rel = _EPS_FACTOR * (d + 4) * 2.0**-24
        tiny = np.finfo(np.float64).smallest_subnormal
        absolute = _EPS_FACTOR * (d + 4) * (np.finfo(np.float32).tiny + np.ldexp(tiny, 2 * shift))
        eps = rel * (norms + norms[~far].max()) + absolute
        # |x_i - x_j| >= |x_j| - |x_i|, so a far column's square is at
        # least the gap between the nearest far norm and row i's, each
        # moved by its own rounding; with no gap (a far row) no far column
        # is sure to lie above the band.
        nearest = max(np.min(norms[far], initial=np.inf) * (1 - rel) - absolute, 0.0)
        gap = np.sqrt(nearest) - np.sqrt(norms * (1 + rel) + absolute)
        reach = np.where(gap > 0, (1 - rel) * gap * gap - absolute, -np.inf)
        far_cols = np.flatnonzero(far)
        # One GEMM gives ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j: no assembly pass.
        ones = np.ones((n, 1))
        left = np.hstack([-2.0 * centred, norms[:, None], ones], dtype=np.float32)
        right = np.hstack([centred, ones, norms[:, None]], dtype=np.float32)
        # One allocation: numpy asks for huge pages from 4 MiB up.
        out, spare = np.empty((2, block, n), dtype=np.float32)

        def rows_of(start: int, stop: int):
            approx = np.matmul(left[start:stop], right.T, out=out[: stop - start])
            approx[:, far_cols] = np.inf
            return approx, eps[start:stop], spare[: stop - start]

    def scan(start: int):
        stop = min(start + block, n)
        approx, eps_rows, spare_rows = rows_of(start, stop)
        approx[np.arange(stop - start), np.arange(start, stop)] = np.inf
        return per_block(SelfBlock(metric, vectors, start, approx, eps_rows, exact, spare_rows,
                                   scale, far_cols, reach[start:stop]))

    # GEMM blocks take no pool: OpenBLAS threads the GEMM itself, and a
    # block pool on top made sigma tables of N = 4,000, d = 64 slower on
    # 2 cores (140-156 ms at 2 threads against 105-123 ms at 1).
    return thread_map(scan, range(0, n, block), n_threads if exact else None)


@dataclass(frozen=True)
class RankedList:
    """Per-probe candidates ordered by their sort keys, ties by ascending
    id; ``values`` follow that order, non-decreasing for ascending_distance
    and non-increasing for descending_score.  Equal values whose keys
    differ keep the keys' order, so their ids need not ascend (a score
    exp(-t) underflowed to 0.0, two k-INN values rounded alike).
    """

    probe_id: int
    gallery_ids: np.ndarray
    values: np.ndarray
    order: str

    def __post_init__(self):
        gallery_ids = _integer_ids(self.gallery_ids)
        values = np.asarray(self.values, dtype=np.float64)
        if gallery_ids.ndim != 1 or values.ndim != 1:
            raise InvalidParams("gallery_ids and values must be 1-D")
        if gallery_ids.shape != values.shape:
            raise InvalidParams("gallery_ids and values must have equal length")
        if _has_duplicates(gallery_ids):
            raise InvalidParams("gallery ids must be unique within a ranking")
        if self.order not in (ASCENDING_DISTANCE, DESCENDING_SCORE):
            raise InvalidParams(f"unknown ranking order {self.order!r}")
        # Compared, not subtracted: inf - inf would warn.  A NaN fails every
        # comparison, so one pass finds it too, bar a lone entry.
        if self.order == ASCENDING_DISTANCE:
            in_order = (values[1:] >= values[:-1]).all()
        else:
            in_order = (values[1:] <= values[:-1]).all()
        if not in_order or len(values) == 1:
            if np.isnan(values).any():
                raise NonFiniteValue("ranking values contain NaN")
            if not in_order:
                direction = "ascending" if self.order == ASCENDING_DISTANCE else "descending"
                raise InvalidParams(f"values are not sorted {direction}")
        _freeze(self, gallery_ids=gallery_ids, values=values)

    def __len__(self) -> int:
        return len(self.gallery_ids)
