"""The traced benchmark run replaces names that dakr's modules look up in
one another (``perfbench/tracing.py``, ``WRAPPED``).  A refactor that
drops one of those names breaks the traced run; this keeps it visible in
the test suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dakr.evaluation
import dakr.kernels
import dakr.neighbors
from dakr import (
    DistanceMetric,
    FeatureSet,
    evaluate_methods,
    generate_scenario,
    k_sweep,
    rank_by_rnn,
    rnn,
)
from dakr.cli import main
from dakr.neighbors import GALLERY_ONLY, WITH_PROBES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_evaluate_methods_scores_each_token_through_the_module_names(monkeypatch):
    # The benchmark's evaluation.cmc and evaluation.mean_average_precision
    # layers wrap these names; merging the two, or calling them another
    # way, would leave the traced run without those layers.
    gallery, probes, truth = generate_scenario("perfect_single_shot", 10, dim=3, seed=4)
    calls = {"cmc": 0, "mean_average_precision": 0}
    for name in calls:
        inner = getattr(dakr.evaluation, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(dakr.evaluation, name, counting)
    evaluate_methods(gallery, probes, truth, ["knn", "inv_dakr", "bi_dakr"], ranks=(1, 5))
    assert calls == {"cmc": 3, "mean_average_precision": 3}


@pytest.fixture
def table_builds(monkeypatch):
    """(gallery size, k_sigma, policy mode) of every bandwidth table built
    through a ``compute_sigma_table`` name the traced run wraps, and the
    number of tables bound by any path (``kernels.bind_sigma_table``)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced, bound = [], []
    for module, attr, *_ in tracing.WRAPPED:
        if attr != "compute_sigma_table":
            continue
        mod = importlib.import_module(module)

        def counting(*args, _inner=getattr(mod, attr), **kwargs):
            table = _inner(*args, **kwargs)
            traced.append((len(table.gallery_ids), table.k_sigma, table.policy_mode))
            return table

        monkeypatch.setattr(mod, attr, counting)
    bind = dakr.kernels.bind_sigma_table

    def binding(*args, **kwargs):
        bound.append(args)
        return bind(*args, **kwargs)

    monkeypatch.setattr(dakr.kernels, "bind_sigma_table", binding)
    return traced, bound


TOKENS = ["knn", "inn", "rnn+", "inv_dakr", "bi_dakr+"]


def test_evaluate_methods_builds_one_table_per_kernel_token(table_builds):
    traced, bound = table_builds
    gallery, probes, truth = generate_scenario(
        "imperfect_single_shot", 8, n_distractors=4, dim=3, seed=2
    )
    evaluate_methods(gallery, probes, truth, TOKENS, k=2, k_sigma=3, ranks=(1, 5))
    assert sorted(traced) == [(12, 3, GALLERY_ONLY), (12, 3, WITH_PROBES)]
    assert len(bound) == len(traced)


def test_k_sweep_builds_one_table_per_kernel_token_k_and_trial(table_builds):
    traced, bound = table_builds
    trials = [
        generate_scenario("perfect_single_shot", n, dim=3, cluster_spread=0.3, seed=n)
        for n in (8, 10)
    ]
    k_sweep(TOKENS, trials, [1, 3], ranks=(1, 5))
    assert sorted(traced) == [
        (n, k, mode) for n in (8, 10) for k in (1, 3) for mode in (GALLERY_ONLY, WITH_PROBES)
    ]
    assert len(bound) == len(traced)


def test_bench_builds_one_table_per_kernel_token_and_size(table_builds, tmp_path):
    traced, bound = table_builds
    code = main([
        "bench", "--sizes", "20,30", "--dim", "3", "--method", ",".join(TOKENS),
        "--k-sigma", "4", "--bench-probes", "2", "--out", str(tmp_path / "bench.csv"),
    ])
    assert code == 0
    assert sorted(traced) == [
        (n, 4, mode) for n in (20, 30) for mode in (GALLERY_ONLY, WITH_PROBES)
    ]
    assert len(bound) == len(traced)


def test_traced_benchmark_runs_hold_the_seed_counts(monkeypatch):
    # perfbench/selftest.py asserts each count in run.SEED_STATE on tiny
    # traced runs of every workload; a change that moves one fails here.
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(selftest)
        selftest.test_traced_runs_emit_every_layer_and_hold_the_seed_counts()
    finally:
        # selftest.py imports the harness's modules (run, tracing, ...) by
        # their bare names
        for name in set(sys.modules) - loaded:
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]
