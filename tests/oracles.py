"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately naive: pure-Python distance loops,
explicit pool materialization, full sorts with (value, id) tuples.  None
of it shares code with the library being tested.
"""

from __future__ import annotations

import math

import mpmath

# Kernel responses underflow float64 long before their ordering stops
# mattering (exp(-1500) is a perfectly good sort key), so the scoring
# oracles evaluate the exponential in arbitrary precision.
mpmath.mp.prec = 100

# Probes are offset into a disjoint id range when pools are augmented,
# mirroring the library's namespace convention.


def offset_for(gallery: dict) -> int:
    return max(gallery) + 1


def euclid(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def float_euclid(a, b) -> float:
    """euclid, but a sum past float64 is +inf, as in cdist, where
    ``** 2`` raises OverflowError."""
    return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))


def sq_euclid(a, b) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def mahal(a, b, m) -> float:
    diff = [x - y for x, y in zip(a, b)]
    quad = 0.0
    for i, di in enumerate(diff):
        for j, dj in enumerate(diff):
            quad += di * m[i][j] * dj
    return math.sqrt(max(quad, 0.0))


def make_dist(kind: str, matrix=None):
    if kind == "euclidean":
        return euclid
    if kind == "squared_euclidean":
        return sq_euclid
    if kind == "mahalanobis":
        return lambda a, b: mahal(a, b, matrix)
    raise ValueError(kind)


def topk_ids(anchor_vec, candidates, k, dist=euclid):
    """Ids of the k candidates nearest to anchor_vec; candidates is a list
    of (id, vector); ties broken by ascending id via tuple sort."""
    ranked = sorted((dist(anchor_vec, vec), cid) for cid, vec in candidates)
    return {cid for _, cid in ranked[: min(k, len(ranked))]}


def _effective_gallery(probe_id, gallery):
    return {gid: vec for gid, vec in gallery.items() if gid != probe_id}


def _augmentation(probe_id, gallery, probes):
    """Extra probe candidates as (offset id, vector), excluding the probe
    itself and probes duplicating gallery ids."""
    if probes is None:
        return []
    off = offset_for(gallery)
    return [
        (off + pid, vec)
        for pid, vec in probes.items()
        if pid != probe_id and pid not in gallery
    ]


def brute_knn(probe_id, probe_vec, gallery, k, probes=None, dist=euclid):
    pool = [(gid, vec) for gid, vec in _effective_gallery(probe_id, gallery).items()]
    pool += _augmentation(probe_id, gallery, probes)
    return topk_ids(probe_vec, pool, k, dist)


def brute_inn(probe_id, probe_vec, gallery, k, probes=None, dist=euclid):
    """Materialize every gallery sample's k-NN over its own pool and test
    whether the probe is a member."""
    eff = _effective_gallery(probe_id, gallery)
    aug = _augmentation(probe_id, gallery, probes)
    probe_eff = offset_for(gallery) + probe_id
    members = set()
    for gid, gvec in eff.items():
        pool = [(other, vec) for other, vec in eff.items() if other != gid]
        pool += aug
        pool.append((probe_eff, probe_vec))
        if probe_eff in topk_ids(gvec, pool, k, dist):
            members.add(gid)
    return members


def brute_rnn(probe_id, probe_vec, gallery, k, probes=None, dist=euclid):
    forward = brute_knn(probe_id, probe_vec, gallery, k, probes, dist)
    gallery_only = {gid for gid in forward if gid < offset_for(gallery)}
    return gallery_only & brute_inn(probe_id, probe_vec, gallery, k, probes, dist)


def brute_rnn_ranking(probe_id, probe_vec, gallery, k, probes=None, dist=euclid):
    """k-RNN as a full ranking, as [(gallery id, value)].

    Reciprocal members come first, valued by the Jaccard distance between
    the probe's k-NN and the member's own k-NN, taken over the probe's
    pool with the member swapped for the probe (at its offset id); ties
    by distance, then id.  Every other sample of the probe's pool follows
    by (distance, id), valued 2 + d / (1 + d), or 3 for an infinite d.
    """
    eff = _effective_gallery(probe_id, gallery)
    aug = _augmentation(probe_id, gallery, probes)
    probe_eff = offset_for(gallery) + probe_id
    forward = brute_knn(probe_id, probe_vec, gallery, k, probes, dist)
    members = brute_rnn(probe_id, probe_vec, gallery, k, probes, dist)
    head, tail = [], []
    for gid, gvec in eff.items():
        d = dist(probe_vec, gvec)
        if gid in members:
            pool = [(other, vec) for other, vec in eff.items() if other != gid]
            pool += aug
            pool.append((probe_eff, probe_vec))
            theirs = topk_ids(gvec, pool, k, dist)
            head.append((1.0 - len(theirs & forward) / len(theirs | forward), d, gid))
        else:
            tail.append((d, gid, 3.0 if d == math.inf else 2.0 + d / (1.0 + d)))
    head.sort()
    tail.sort()
    return [(gid, value) for value, _, gid in head] + [(gid, value) for _, gid, value in tail]


def brute_sigmas(gallery, k_sigma, probes=None, dist=euclid):
    """k_sigma-th nearest-neighbor distance per sample over the reference
    set (gallery, plus probes when given), self excluded.  Probes use
    offset ids in the returned mapping."""
    ref = dict(gallery)
    if probes is not None:
        off = offset_for(gallery)
        for pid, vec in probes.items():
            if pid not in gallery:
                ref[off + pid] = vec
    out = {}
    for sid, svec in ref.items():
        dists = sorted(dist(svec, vec) for other, vec in ref.items() if other != sid)
        out[sid] = dists[min(k_sigma, len(dists)) - 1]
    return out


def brute_inv_ranking(probe_vec, gallery, k_sigma, probes=None, dist=euclid):
    """Direct kernel evaluation followed by a descending full sort."""
    sigmas = brute_sigmas(gallery, k_sigma, probes, dist)
    scored = [
        (mpmath.exp(-dist(probe_vec, gvec) / sigmas[gid]), gid)
        for gid, gvec in gallery.items()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [gid for _, gid in scored]


def brute_probe_sigma(probe_id, probe_vec, gallery, k_sigma, probes=None, dist=euclid):
    if probes is None:
        dists = sorted(dist(probe_vec, vec) for vec in gallery.values())
    else:
        others = [
            vec
            for pid, vec in probes.items()
            if pid != probe_id and pid not in gallery
        ]
        dists = sorted(
            dist(probe_vec, vec) for vec in list(gallery.values()) + others
        )
    return dists[min(k_sigma, len(dists)) - 1]


def brute_bi_ranking(probe_id, probe_vec, gallery, k_sigma, probes=None, dist=euclid):
    sigmas = brute_sigmas(gallery, k_sigma, probes, dist)
    sigma_i = brute_probe_sigma(probe_id, probe_vec, gallery, k_sigma, probes, dist)
    scored = []
    for gid, gvec in gallery.items():
        d = dist(probe_vec, gvec)
        scored.append((mpmath.exp(-d * d / (sigma_i * sigmas[gid])), gid))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [gid for _, gid in scored]


def brute_cmc(rank_lists, matches, max_rank):
    """rank_lists: {probe_id: ordered gallery ids}."""
    counted = 0
    hits = [0] * max_rank
    for pid, ordered in rank_lists.items():
        good = matches[pid]
        if not good:
            continue
        counted += 1
        for pos, gid in enumerate(ordered, start=1):
            if gid in good:
                if pos <= max_rank:
                    hits[pos - 1] += 1
                break
    curve = []
    total = 0
    for h in hits:
        total += h
        curve.append(total / counted)
    return curve


def brute_ap(ordered, good):
    precisions = []
    found = 0
    for pos, gid in enumerate(ordered, start=1):
        if gid in good:
            found += 1
            precisions.append(found / pos)
    return sum(precisions) / len(good)
