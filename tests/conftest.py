import numpy as np
import pytest

from dakr import DistanceMetric, FeatureSet

# 2-D instance realizing the textbook reciprocal-neighbor picture at k=3:
# the probe's three nearest gallery samples are ids 1-3, but only 2 and 3
# search back (1 sits in its own dense cluster, ids 4-6); ids 7-8 crowd
# around 3 so one extra probe can push the probe out of 3's neighborhood.
RECIPROCAL_GALLERY = {
    1: (1.0, 0.0),
    2: (0.0, 1.15),
    3: (0.0, -1.25),
    4: (1.5, 0.3),
    5: (1.5, -0.3),
    6: (1.6, 0.0),
    7: (0.6, -1.9),
    8: (0.9, -1.7),
}
RECIPROCAL_PROBE_ID = 0
RECIPROCAL_PROBE = (0.0, 0.0)
EXTRA_PROBE_ID = 9
EXTRA_PROBE = (0.35, -1.75)


def reciprocal_feature_set() -> FeatureSet:
    ids = sorted(RECIPROCAL_GALLERY)
    return FeatureSet(ids, [RECIPROCAL_GALLERY[i] for i in ids])


def two_probe_set() -> FeatureSet:
    return FeatureSet(
        [RECIPROCAL_PROBE_ID, EXTRA_PROBE_ID], [RECIPROCAL_PROBE, EXTRA_PROBE]
    )


@pytest.fixture
def euclidean() -> DistanceMetric:
    return DistanceMetric.euclidean()


@pytest.fixture
def reciprocal_gallery() -> FeatureSet:
    return reciprocal_feature_set()


# Inputs for the GEMM scan's boundary selection: ties, duplicates,
# an offset from the origin, three scales (at 1e-160 the squared
# distances are subnormal), two samples too far out for the GEMM, and
# near-duplicates whose GEMM entries fall below 0.  New kinds go last,
# so that the others keep their seeds.
SCAN_DATA = [
    "gaussian", "lattice", "duplicates", "offset", "1e-3", "1e3", "1e-160", "far",
    "near_duplicates",
]


def scan_data(name: str, rng: np.random.Generator) -> np.ndarray:
    """90 vectors of the kind ``name`` from :data:`SCAN_DATA`."""
    if name == "gaussian":
        return rng.normal(size=(90, 6))
    if name == "lattice":
        # every squared distance an integer: many exact ties, and repeats
        return rng.integers(-2, 3, size=(90, 3)).astype(np.float64)
    if name == "duplicates":
        # the sigma floor path: k-th distances of 0
        return np.repeat(rng.normal(size=(30, 4)), 3, axis=0)
    if name == "near_duplicates":
        # sigmas positive but under the floor, and negative GEMM entries
        # that the selection clamps to 0
        return np.repeat(rng.normal(size=(30, 4)), 3, axis=0) + 1e-14 * rng.normal(size=(90, 4))
    if name == "offset":
        return 1e3 + 1e-3 * rng.normal(size=(90, 6))
    if name == "far":
        # two samples so far out that the GEMM's partial sums overflow,
        # while cdist's distances stay finite
        far = rng.normal(size=(90, 6))
        far[:2, 0] = 1e154
        return far
    return float(name) * rng.normal(size=(90, 6))


def random_instance(rng: np.random.Generator, max_n=12, max_d=4, min_n=3):
    """Small random gallery/probe pair as plain dicts for the oracles and
    as FeatureSets for the library."""
    n = int(rng.integers(min_n, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    n_probes = int(rng.integers(1, 4))
    gallery_vecs = rng.normal(0.0, 1.0, size=(n, d))
    probe_vecs = rng.normal(0.0, 1.0, size=(n_probes, d))
    gallery = FeatureSet(np.arange(n), gallery_vecs)
    probes = FeatureSet(np.arange(100, 100 + n_probes), probe_vecs)
    gallery_dict = {int(i): [float(v) for v in row] for i, row in zip(gallery.ids, gallery_vecs)}
    probes_dict = {int(i): [float(v) for v in row] for i, row in zip(probes.ids, probe_vecs)}
    return gallery, probes, gallery_dict, probes_dict
