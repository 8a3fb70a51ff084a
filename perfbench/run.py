#!/usr/bin/env python3
"""dakr benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload large_gallery --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; timings
are scaled to a reference speed of the host (see calibration.py).  ``--trace
1`` spends half the time untraced and half with spans recorded around
the calls between dakr's modules; it reports the per-layer metrics and
the tracing overhead, and writes the spans under ``.perfbench/``.

Every line but the last is a report for people: each metric by name,
value, unit and sample count, with ``n/a`` where a metric does not apply
to the workload.  The last line is one JSON object holding the metrics
that every workload measures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import calibration
import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
ALL = ("large_gallery", "small_gallery", "cli_eval")
CLI = ("cli_eval",)

# (name, unit, workloads it applies to)
END_TO_END = (
    ("setup_s", "s", ALL),
    ("offline_s", "s", ALL),
    ("offline_wp_s", "s", ALL),
    ("knn_probes_per_s", "1/s", ALL),
    ("inv_dakr_probes_per_s", "1/s", ALL),
    ("bi_dakr_probes_per_s", "1/s", ALL),
    ("bi_dakr_wp_probes_per_s", "1/s", ALL),
    ("inn_probes_per_s", "1/s", CLI),
    ("rnn_probes_per_s", "1/s", CLI),
    ("probe_latency_p50_ms", "ms", ALL),
    ("probe_latency_p95_ms", "ms", ALL),
    ("cli_wall_s", "s", CLI),
    ("rank1", "fraction", ALL),
    ("map", "fraction", ALL),
    ("error_rate", "fraction", ALL),
    ("peak_rss_mb", "MB", ALL),
)

PER_LAYER = (
    ("core.pairwise.calls", "count", ALL),
    ("core.pairwise.self_s", "s", ALL),
    ("core.pairwise.rows", "count", ALL),
    ("core.pairwise.gflop_computed", "GFLOP", ALL),
    ("core.RankedList.calls", "count", ALL),
    ("core.RankedList.self_s", "s", ALL),
    ("core.RankedList.calls_per_probe", "ratio", ALL),
    ("kernels.compute_sigma_table.self_s", "s", ALL),
    ("kernels.reference_digest.calls", "count", ALL),
    ("kernels.reference_digest.self_s", "s", ALL),
    ("kernels.reference_digest.calls_per_probe", "ratio", ALL),
    ("kernels.probe_sigma.calls", "count", ALL),
    ("kernels.probe_sigma.self_s", "s", ALL),
    ("kernels.rank.self_s", "s", ALL),
    ("kernels.distance_rows_per_probe", "ratio", ALL),
    ("kernels.distance_rows_per_probe.inv_dakr", "ratio", ALL),
    ("kernels.distance_rows_per_probe.bi_dakr", "ratio", ALL),
    ("kernels.distance_rows_per_probe.bi_dakr_wp", "ratio", ALL),
    ("neighbors.rank_by_distance.self_s", "s", ALL),
    ("neighbors.distance_evals_per_probe", "ratio", ALL),
    ("rerank.pool_busy_frac", "ratio", ALL),
    ("rerank.thread_speedup", "ratio", ALL),
    ("evaluation.cmc.self_s", "s", ALL),
    ("evaluation.mean_average_precision.self_s", "s", ALL),
    ("neighbors.inn.self_s", "s", CLI),
    ("neighbors.rnn.self_s", "s", CLI),
    ("neighbors.gallery_neighbor_set.calls", "count", CLI),
    ("fileio.read_features.self_s", "s", CLI),
    ("fileio.read_features.bytes", "B", CLI),
    ("fileio.write_rankings_csv.self_s", "s", CLI),
    ("fileio.write_rankings_csv.bytes", "B", CLI),
    ("fileio.sidecar.self_s", "s", CLI),
    ("fileio.sidecar.bytes", "B", CLI),
    ("cli.sigma.wall_s", "s", CLI),
    ("cli.rerank.wall_s", "s", CLI),
    ("cli.eval.wall_s", "s", CLI),
)

# The JSON line carries the metrics that apply to every workload.
# error_rate is 0 when all is well, so it travels as failed/attempted.
JSON_END_TO_END = tuple(n for n, _, ws in END_TO_END if ws == ALL and n != "error_rate")
JSON_PER_LAYER = tuple(n for n, _, ws in PER_LAYER if ws == ALL)

# Counts that describe the program at the commit that added this
# benchmark; dropping the per-probe digest re-check, the second distance
# row of bi_dakr or RankedList's checks would move them.
SEED_STATE = {
    "kernels.reference_digest.calls_per_probe": 1.0,
    "kernels.distance_rows_per_probe.bi_dakr": 2.0,
    "kernels.distance_rows_per_probe.bi_dakr_wp": 1.0,
    "kernels.distance_rows_per_probe.inv_dakr": 1.0,
    "core.RankedList.calls_per_probe": 1.0,
}

UNITS = {n: u for n, u, _ in END_TO_END + PER_LAYER}
# Set-up runs this many times before the first round, then
# SETUPS_PER_ROUND times per round.
SETUP_REPEATS = 5
SETUPS_PER_ROUND = 3


def import_dakr():
    """The program under test, from ``src/`` of this checkout only."""
    src = ROOT / "src"
    if not (src / "dakr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dakr

    if Path(dakr.__file__).resolve().parent != (src / "dakr").resolve():
        return None
    return dakr


def throughput(work) -> float:
    """Probes per second over [(probes, seconds)]: all work over all time."""
    return sum(n for n, _ in work) / sum(t for _, t in work)


# A window is set against the median of this many calibration windows:
# half timed before it, half after.
NEAREST_CALIBRATIONS = 4


def host_slowdown(samples):
    """A function from a moment of the run to how much slower than at the
    reference the host ran then: the median time of the calibration
    windows nearest that moment over calibration.REFERENCE_S."""
    windows = samples.get("calibration_s")
    half = NEAREST_CALIBRATIONS // 2

    def at(moment: float) -> float:
        i = bisect.bisect_left(windows.times, moment)
        near = windows[max(0, i - half):i + half]
        return statistics.median(near) / calibration.REFERENCE_S

    return at


def end_to_end(samples, ledger, scaled: bool = True) -> dict:
    """{metric: (value, sample count)} from one phase's samples: the
    median over windows of the times, of the seconds per probe for rates,
    and of each latency burst's p50 or p95 for latencies.  When
    ``scaled``, each window is first divided by the host's slowdown at
    the moment it was timed (see ``host_slowdown``)."""
    median = statistics.median
    slowdown = host_slowdown(samples) if scaled and samples.get("calibration_s") else (lambda _: 1.0)

    def at_reference(series, values):
        return [v / slowdown(t) for v, t in zip(values, series.times)]

    out = {}
    for metric in ("setup_s", "offline_s", "offline_wp_s", "cli_wall_s"):
        if samples.get(metric):
            series = samples[metric]
            out[metric] = (median(at_reference(series, series)), len(series))
    for metric in ("rank1", "map"):
        if samples.get(metric):
            out[metric] = (median(samples[metric]), len(samples[metric]))
    for metric, _, _ in END_TO_END:
        if metric.endswith("_probes_per_s") and samples.get(metric):
            work = samples[metric]
            out[metric] = (1.0 / median(at_reference(work, [t / n for n, t in work])), len(work))
    bursts = samples.get("probe_latency_ms")
    if bursts:
        calls = sum(map(len, bursts))
        p50 = [median(b) for b in bursts]
        p95 = [statistics.quantiles(b, n=20, method="inclusive")[18] if len(b) > 1 else b[0] for b in bursts]
        out["probe_latency_p50_ms"] = (median(at_reference(bursts, p50)), calls)
        out["probe_latency_p95_ms"] = (median(at_reference(bursts, p95)), calls)
    out["error_rate"] = (ledger.error_rate, ledger.attempted)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return out


def measure(session, samples, tracer, seconds, round_spans=None) -> int:
    """Whole rounds for about ``seconds``: another round starts while at
    least half of it fits.  At least one round."""
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        started = perf_counter()
        samples["setup_s"].extend(session.setup() for _ in range(SETUPS_PER_ROUND))
        first_span = len(getattr(tracer, "spans", ()))
        session.round(samples, tracer)
        rounds += 1
        if round_spans is not None:
            round_spans.append(tracer.spans[first_span:])
        if perf_counter() + (perf_counter() - started) / 2 > deadline:
            return rounds


def layer_metrics(round_spans, samples_untraced) -> dict:
    """Median over traced rounds of each per-layer metric."""
    per_round = [tracing.summarize(spans) for spans in round_spans]
    out = {}
    for name in {k for r in per_round for k in r}:
        values = [r[name] for r in per_round if name in r]
        out[name] = (statistics.median(values), len(values))
    fast = samples_untraced.get("chunk_bi_dakr_nproc_probes_per_s")
    slow = samples_untraced.get("chunk_bi_dakr_1t_probes_per_s")
    if fast and slow:
        out["rerank.thread_speedup"] = (throughput(fast) / throughput(slow), len(fast))
    return out


def run(w, seed: int, seconds: float, trace: bool, pinned: dict | None = None) -> dict:
    """Set up, warm up, measure and check one workload; returns every
    figure the report prints."""
    base = ROOT / ".perfbench"
    workdir = base / f"work-{w.name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ledger = oracle.Ledger()
    result = {"workload": w.name, "seed": seed, "trace": trace, "ledger": ledger}
    try:
        session = workloads.session_for(w, seed, workdir, ledger)
        setup_times = [session.setup() for _ in range(SETUP_REPEATS)]
        session.prepare()

        warm_dir = workdir / "warmup"
        warm_dir.mkdir()
        warm = workloads.session_for(w.tiny(), seed, warm_dir, ledger)
        warm.setup()
        warm.prepare()
        warm.round(workloads.new_samples(), tracing.NullTracer())

        samples = workloads.new_samples()
        samples["setup_s"].extend(setup_times)
        if not trace:
            result["rounds"] = measure(session, samples, tracing.NullTracer(), seconds)
        else:
            result["rounds_untraced"] = measure(session, samples, tracing.NullTracer(), seconds / 2)
            traced = workloads.new_samples()
            tracer = tracing.Tracer()
            round_spans = []
            tracer.install()
            try:
                result["rounds"] = measure(session, traced, tracer, seconds / 2, round_spans)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(round_spans, samples)
            result["traced"] = end_to_end(traced, ledger)
            result["trace_file"] = base / f"trace-{w.name}-seed{seed}.json"
            tracer.write(result["trace_file"])
        session.finish(samples)
        session.check(pinned or {}, samples)
        result["raw"] = end_to_end(samples, ledger, scaled=False)
        result["end_to_end"] = end_to_end(samples, ledger)
        result["calibration_s"] = statistics.median(samples["calibration_s"])
        result["digests"] = getattr(session, "pin_digests", {})
    except Exception as exc:  # report any failure of the program as a failed operation
        traceback.print_exc()
        ledger.fail(f"{type(exc).__name__}: {exc}")
        result.setdefault("end_to_end", {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(result) -> dict:
    """Print the human report; return the JSON object for the last line."""
    name = result["workload"]
    ledger = result["ledger"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rounds = f"rounds={result.get('rounds', 0)}"
    if result["trace"]:
        rounds = f"rounds={result.get('rounds_untraced', 0)} untraced, {result.get('rounds', 0)} traced"
    print(f"dakr benchmark: workload={name} seed={result['seed']} trace={int(result['trace'])} "
          f"nproc={workloads.NPROC} {rounds}")
    print(f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"BLAS {blas.get('name')} {blas.get('version')}, python {sys.version.split()[0]}")
    e2e, raw = result.get("end_to_end", {}), result.get("raw", {})
    if "calibration_s" in result:
        print(f"host speed: calibration task {result['calibration_s'] * 1e3:.4g} ms (median) against "
              f"{calibration.REFERENCE_S * 1e3:.4g} ms at the reference; each window is scaled by the "
              f"calibration windows around it")
    print(f"{'end-to-end metric':44} {'value':>14} {'unit':9} {'samples':>8} {'as timed':>14}")
    for metric, unit, applies in END_TO_END:
        if name not in applies:
            print(f"{metric:44} {'n/a':>14} {unit:9} {'-':>8}  (measured on {', '.join(applies)} only)")
        elif metric in e2e:
            value, n = e2e[metric]
            print(f"{metric:44} {_fmt(value):>14} {unit:9} {n:>8} {_fmt(raw[metric][0]):>14}")
    print(f"checks and operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for label, digest in sorted(result.get("digests", {}).items()):
        print(f"ranking digest {label}: {digest}")

    metrics = {}
    if result["trace"]:
        layers = result.get("layers", {})
        print(f"{'per-layer metric':44} {'value':>14} {'unit':9} rounds")
        for metric, unit, applies in PER_LAYER:
            if metric in layers:
                value, n = layers[metric]
                print(f"{metric:44} {_fmt(value):>14} {unit:9} {n}")
            else:
                print(f"{metric:44} {'n/a':>14} {unit:9} -  (measured on {', '.join(applies)} only)")
        for metric, want in SEED_STATE.items():
            got = layers.get(metric, (None,))[0]
            state = "as at the seed commit" if got == want else "moved from the seed commit"
            print(f"count {metric}: {got} (seed commit: {want}) {state}")
        traced = result.get("traced", {})
        print(f"{'tracing overhead (traced - untraced)':44} {'difference':>14} {'unit':9} relative")
        for metric, unit, _ in END_TO_END:
            # Peak memory and the error rate belong to the whole run.
            if metric in traced and metric in e2e and metric not in ("peak_rss_mb", "error_rate"):
                diff = traced[metric][0] - e2e[metric][0]
                rel = diff / e2e[metric][0] if e2e[metric][0] else 0.0
                print(f"{metric:44} {_fmt(diff):>14} {unit:9} {rel:+.1%}")
        if "trace_file" in result:
            print(f"spans written to {result['trace_file'].relative_to(ROOT)}")
        wanted = JSON_PER_LAYER
        source = layers
    else:
        wanted = JSON_END_TO_END
        source = e2e
    for metric in wanted:
        value = source.get(metric, (0.0,))[0]
        metrics[metric] = {"value": value, "unit": UNITS[metric]}
    complete = all(m in source for m in wanted)
    return {
        "correct": ledger.failed == 0 and complete,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed if complete else max(1, ledger.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_dakr() is None:
        print(f"perfbench: no dakr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), pinned)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
