"""Independent reference results and the ledger of checks.

Nothing here calls into ``dakr``: distances come from scipy's float64
``cdist`` and every order from a stable ``(key, id)`` lexsort, so a
ranking that agrees with these functions agrees with the paper's rules,
not merely with the program's own code path.
"""

from __future__ import annotations

import csv
import hashlib
import sys
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

RTOL = 1e-9


class Ledger:
    """Operations attempted and failed; a failed check or an exception
    counts once against ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        self.messages.append(what)
        if len(self.messages) <= 20:
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / max(1, self.attempted)


def same_ranking(ids, values, exp_ids, exp_values) -> bool:
    """Ids equal exactly and values equal to ``RTOL``."""
    ids = np.asarray(ids)
    values = np.asarray(values, dtype=np.float64)
    return (
        ids.shape == exp_ids.shape
        and np.array_equal(ids, exp_ids)
        and np.allclose(values, exp_values, rtol=RTOL, atol=0.0)
    )


def kth_smallest(row: np.ndarray, k: int) -> float:
    k = min(k, len(row))
    return float(np.partition(row, k - 1)[k - 1])


def bandwidths(vectors: np.ndarray, rows, refs: np.ndarray, ref_rows, k: int) -> np.ndarray:
    """k-th nearest-neighbour distance of ``vectors[rows]`` inside ``refs``,
    where ``ref_rows[i]`` is the row of sample i in ``refs`` (excluded)."""
    d = cdist(vectors[rows], refs)
    d[np.arange(len(rows)), ref_rows] = np.inf
    return np.array([kth_smallest(r, min(k, len(refs) - 1)) for r in d])


def probe_bandwidth(probe_id: int, probe_vector, gallery_ids, gallery_vectors, k: int) -> float:
    """Gallery-only sigma_i: k-th nearest gallery distance, own copy excluded."""
    d = cdist(probe_vector[None, :], gallery_vectors)[0]
    return kth_smallest(d[gallery_ids != probe_id], k)


def expected_ranking(method, probe_id, probe_vector, gallery_ids, gallery_vectors,
                     sigmas=None, sigma_i=None):
    """Reference (ids, values) for ``knn``, ``inv_dakr`` or ``bi_dakr``.

    knn sorts on d; the kernel rules sort on d/sigma_j or
    d^2/(sigma_i sigma_j) and report exp(-key).  The probe's own gallery
    copy is never a candidate.
    """
    d = cdist(np.asarray(probe_vector, dtype=np.float64)[None, :], gallery_vectors)[0]
    keep = gallery_ids != probe_id
    ids, d = gallery_ids[keep], d[keep]
    if method == "knn":
        key = values = d
    elif method == "inv_dakr":
        key = d / sigmas[keep]
        values = np.exp(-key)
    elif method == "bi_dakr":
        key = d * d / (sigma_i * sigmas[keep])
        values = np.exp(-key)
    else:
        raise ValueError(f"no reference ranking for {method!r}")
    order = np.lexsort((ids, key))
    return ids[order], values[order]


def _bounded(d):
    return d / (1.0 + d)


def _top_k(dists, ids, k):
    order = np.lexsort((ids, dists))
    return ids[order[:k]]


def neighbor_rankings(method, probe_ids, gallery_ids, gallery_vectors, k):
    """Reference k-INN or k-RNN id orders for probes that are gallery
    members (the multiple-shot protocol, gallery-only pools).

    k-INN: gallery samples that rank the probe among their k nearest
    neighbours come first, by distance; the rest follow by distance.
    k-RNN: members of both the probe's k-NN and its k-INN come first, by
    the Jaccard distance of their k-NN set to the probe's, then distance.
    The probe's id sits past every gallery id, so it loses distance ties.
    """
    full = cdist(gallery_vectors, gallery_vectors)
    probe_token = int(gallery_ids.max()) + 1
    out = []
    for pid in probe_ids:
        own = int(np.nonzero(gallery_ids == pid)[0][0])
        keep = np.arange(len(gallery_ids)) != own
        ids = gallery_ids[keep]
        sub = full[np.ix_(keep, keep)]
        np.fill_diagonal(sub, np.inf)
        d_x = cdist(gallery_vectors[own][None, :], gallery_vectors[keep])[0]
        inverse = np.sum(sub <= d_x[:, None], axis=1) < k
        if method == "inn":
            order = np.lexsort((ids, d_x, ~inverse))
            out.append((int(pid), ids[order]))
            continue
        forward = set(_top_k(d_x, ids, k).tolist())
        member = inverse & np.isin(ids, list(forward))
        keys = 2.0 + _bounded(d_x)
        for row in np.nonzero(member)[0]:
            pool_d = np.append(np.delete(sub[row], row), d_x[row])
            pool_ids = np.append(np.delete(ids, row), probe_token + pid)
            theirs = set(_top_k(pool_d, pool_ids, k).tolist())
            keys[row] = 1.0 - len(theirs & forward) / len(theirs | forward)
        order = np.lexsort((ids, d_x, keys, ~member))
        out.append((int(pid), ids[order]))
    return out


def quality(orderings, matches, max_rank: int):
    """CMC curve up to ``max_rank`` and mean average precision over
    ``[(probe_id, ordered gallery ids)]``."""
    hits_at = np.zeros(max_rank)
    aps = []
    for pid, ids in orderings:
        true = np.asarray(matches[pid])
        positions = np.nonzero(np.isin(ids, true))[0] + 1
        if len(positions) and positions[0] <= max_rank:
            hits_at[positions[0] - 1] += 1.0
        aps.append(float((np.arange(1, len(positions) + 1) / positions).sum()) / len(true))
    return np.cumsum(hits_at) / len(orderings), float(np.mean(aps))


def orderings_digest(orderings) -> str:
    """SHA-256 over probe ids and their ordered gallery ids.  Values are
    left out: their last bits may follow the CPU's exp implementation,
    while the order is what the rules define."""
    h = hashlib.sha256()
    for pid, ids in orderings:
        h.update(np.int64(pid).tobytes())
        h.update(np.asarray(ids, dtype="<i8").tobytes())
    return h.hexdigest()


def read_rankings_csv(path):
    """Rankings file as {probe_id: (ids, values)} in file order."""
    grouped: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for probe, _rank, gallery_id, value, _method in reader:
            ids, values = grouped.setdefault(int(probe), ([], []))
            ids.append(int(gallery_id))
            values.append(float(value))
    return {p: (np.asarray(i, dtype=np.int64), np.asarray(v)) for p, (i, v) in grouped.items()}


def read_sidecar_sigmas(path) -> np.ndarray:
    """Bandwidths from a sigma sidecar: 45-byte header, then float64s."""
    blob = Path(path).read_bytes()
    count = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    return np.frombuffer(blob, dtype="<f8", count=count, offset=45).copy()
