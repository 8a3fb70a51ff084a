"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Runs every workload at a tiny size, so it takes seconds.  It checks that
BENCHMARK.json names exactly the metrics run.py emits, that a run emits
every metric with a unit, that the correctness check catches a ranking
with two neighbouring entries swapped, that the counts recorded in
run.SEED_STATE still hold, and that the benchmark refuses to run where
there is no program to measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if run.import_dakr() is None:
    raise SystemExit("selftest: no dakr package under src/")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny_run(name: str, trace: bool):
    w = workloads.WORKLOADS[name].tiny()
    result = run.run(w, seed=3, seconds=0.1, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        line = run.report(result)
    return result, line


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.ALL)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.JSON_END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.JSON_PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.UNITS[m["name"]], m["name"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_tiny_runs_emit_every_metric_with_a_unit():
    for name in run.ALL:
        result, line = _tiny_run(name, trace=False)
        assert line["correct"] and line["failed"] == 0, (name, result["ledger"].messages)
        assert set(line["metrics"]) == set(run.JSON_END_TO_END)
        assert all(m["unit"] for m in line["metrics"].values())
        for metric, _, applies in run.END_TO_END:
            assert (metric in result["end_to_end"]) == (name in applies), (name, metric)


def test_traced_runs_emit_every_layer_and_hold_the_seed_counts():
    for name in run.ALL:
        result, line = _tiny_run(name, trace=True)
        assert line["correct"], (name, result["ledger"].messages)
        assert set(line["metrics"]) == set(run.JSON_PER_LAYER)
        for metric, _, applies in run.PER_LAYER:
            assert (metric in result["layers"]) == (name in applies), (name, metric)
        for metric, want in run.SEED_STATE.items():
            assert result["layers"][metric][0] == want, (name, metric, result["layers"][metric])


def test_swapped_neighbours_raise_the_error_rate():
    ledger = workloads.oracle.Ledger()
    workdir = run.ROOT / ".perfbench" / "selftest-swap"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = workloads.session_for(workloads.WORKLOADS["large_gallery"].tiny(), 3, workdir, ledger)
        session.setup()
        session.prepare()
        session.round(workloads.new_samples(), tracing.NullTracer())
        ranked = session.outputs["bi_dakr"][0]
        assert session.check_ranking("bi_dakr", 0, ranked)
        assert ledger.failed == 0
        ids, values = ranked.gallery_ids.copy(), ranked.values.copy()
        i = next(i for i in range(len(values) - 1) if values[i] != values[i + 1])
        ids[[i, i + 1]] = ids[[i + 1, i]]
        values[[i, i + 1]] = values[[i + 1, i]]
        swapped = SimpleNamespace(probe_id=ranked.probe_id, gallery_ids=ids, values=values)
        assert not session.check_ranking("bi_dakr", 0, swapped)
        assert ledger.failed == 1 and ledger.error_rate > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_to_run_without_the_program():
    bare = run.ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small_gallery",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail once
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
