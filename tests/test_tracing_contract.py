"""The traced benchmark run replaces names that dakr's modules look up in
one another (``perfbench/tracing.py``, ``WRAPPED``).  A refactor that
drops one of those names breaks the traced run; this keeps it visible in
the test suite."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import dakr.neighbors
from dakr import DistanceMetric, FeatureSet, rank_by_rnn, rnn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_rank_by_rnn_looks_up_gallery_neighbor_set_per_member(monkeypatch):
    # The benchmark's neighbors.gallery_neighbor_set.calls counts these
    # calls; inlining the function would leave that count at zero.
    rng = np.random.default_rng(81)
    gallery = FeatureSet(np.arange(40), rng.normal(size=(40, 3)))
    metric = DistanceMetric.euclidean()
    calls = []
    inner = dakr.neighbors.gallery_neighbor_set

    def counting(gallery_id, *args, **kwargs):
        calls.append(gallery_id)
        return inner(gallery_id, *args, **kwargs)

    monkeypatch.setattr(dakr.neighbors, "gallery_neighbor_set", counting)
    seen = 0
    for _ in range(4):
        probe = rng.normal(size=3)
        members = rnn(99, probe, gallery, metric, 5)
        calls.clear()
        rank_by_rnn(99, probe, gallery, metric, 5)
        assert sorted(calls) == sorted(members)
        seen += len(members)
    assert seen > 0
