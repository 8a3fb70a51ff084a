"""Before/after benchmark record of two source trees, as a root ``BENCH_*.json``.

    python tools/bench_compare.py PARENT_TREE CHANGE_TREE --workload W[,W...] \\
        [--seeds 0,1,...,9] --out BENCH_<slug>.json

Each tree is a checkout root holding ``perfbench/run.py`` and ``src/dakr``.
For every workload and seed, ``perfbench/run.py --trace 0`` runs once in
each tree, the two taking turns (the parent first on even seeds, the
change first on odd ones), so a drift in host speed lands on both sides;
then one ``--trace 1`` run per tree, at the first seed, gives the
per-layer metrics.  The record keeps, per workload and side, the layout
of ``perfbench/baseline.json``: ``end_to_end`` (median, quartiles and
spread over the runs, with the bound from the change tree's
``BENCHMARK.json``), ``runs`` and ``traced_run``; ``comparison`` gives
each end-to-end metric's change/parent ratio of medians and how many
seed pairs the change won.  Beside the end-to-end metrics, each run
records its process's wall time and CPU time (user + sys, children
included) under ``process``, and ``comparison`` the CPU time's medians as
``process_cpu_s``: CPU a library's idle threads burn shows there and in
no end-to-end metric.  The JSON line carries only the per-layer metrics
that apply to every workload, so ``traced_run`` also keeps, under
``report_layers``, every per-layer row the traced run's report prints,
the command-level ones (``fileio.*``, ``cli.*``) included.  Every run
must print its JSON line; the exit status is 1 if any run failed, was
not correct, or printed none.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# A measured row of run.py's per-layer table: name, value, unit, rounds.
LAYER_ROW = re.compile(r"(\S+) +(\S+) (\S+) +(\d+)")


def tree_root(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file() or not (root / "src" / "dakr").is_dir():
        raise SystemExit(f"bench_compare: {root} holds no perfbench/run.py and src/dakr")
    return root


def commit(root: Path) -> str | None:
    """``git describe --always --dirty`` of a tree, or None outside a git checkout."""
    done = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def cpu_seconds() -> float:
    """User + sys time of this process's waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(root: Path, workload: str, seed: int, trace: int) -> tuple[dict | None, str]:
    """One run.py invocation; its JSON line (None if it printed none), with
    the process's wall and CPU seconds under ``process``, and its report."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    wall, cpu = time.perf_counter(), cpu_seconds()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    process = {"wall_s": time.perf_counter() - wall, "cpu_s": cpu_seconds() - cpu}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None:
        result["process"] = process
    return result, done.stdout + done.stderr


def report_layers(text: str) -> dict:
    """The per-layer table of a traced run's report, as {name: {value,
    unit, rounds}}; rows measured on other workloads only are skipped."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.startswith("per-layer metric")), len(lines))
    out = {}
    for line in lines[start + 1:]:
        if line.split()[1:2] == ["n/a"]:
            continue
        row = LAYER_ROW.fullmatch(line)
        if row is None:
            break
        name, value, unit, rounds = row.groups()
        out[name] = {"value": float(value), "unit": unit, "rounds": int(rounds)}
    return out


def summary(runs: list[dict], bounds: dict) -> dict:
    """baseline.json's ``end_to_end``: median, quartiles and spread per metric."""
    out = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": median, "q1": q1,
                       "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                       "bound": bounds.get(metric)}
    return out


def comparison(sides: dict, better: dict) -> dict:
    """Per end-to-end metric: change/parent ratio of medians and pairs won."""
    out = {}
    for metric, parent in sides["parent"]["end_to_end"].items():
        change = sides["change"]["end_to_end"][metric]
        pairs = list(zip(sides["parent"]["runs"], sides["change"]["runs"]))
        sign = 1 if better.get(metric) == "higher" else -1
        won = sum(sign * (c["metrics"][metric]["value"] - p["metrics"][metric]["value"]) > 0
                  for p, c in pairs)
        out[metric] = {"parent_median": parent["median"], "change_median": change["median"],
                       "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
                       "better": better.get(metric), "pairs_change_better": f"{won}/{len(pairs)}"}
    cpu = {side: [r["process"]["cpu_s"] for r in sides[side]["runs"]] for side in SIDES}
    parent, change = (statistics.median(cpu[side]) for side in SIDES)
    out["process_cpu_s"] = {"parent_median": parent, "change_median": change,
                            "change_over_parent": change / parent, "better": "lower",
                            "pairs_change_better": f"{sum(c < p for p, c in zip(cpu['parent'], cpu['change']))}/{len(cpu['parent'])}"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default=",".join(map(str, range(10))),
                        help="comma-separated seeds, one run pair each (default 0,1,...,9)")
    parser.add_argument("--out", required=True, help="the BENCH_<slug>.json to write")
    args = parser.parse_args(argv)
    trees = {"parent": tree_root(args.parent_tree), "change": tree_root(args.change_tree)}
    workloads = [w for w in args.workload.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    problems, versions = [], ""
    record = {}
    for workload in workloads:
        sides = {side: {"runs": []} for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result, text = run_bench(trees[side], workload, seed, trace=0)
                versions = versions or next((ln for ln in text.splitlines() if ln.startswith("numpy ")), "")
                print(f"bench_compare: {workload} seed {seed} {side} done", file=sys.stderr)
                if result is None or not result["correct"] or result["failed"]:
                    problems.append(f"{side} {workload} seed {seed} --trace 0: {text.strip()[-300:]}")
                if result is not None:
                    sides[side]["runs"].append(dict(result, seed=seed))
        for side in SIDES:
            result, text = run_bench(trees[side], workload, seeds[0], trace=1)
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{side} {workload} seed {seeds[0]} --trace 1: {text.strip()[-300:]}")
            if result is not None:
                result["report_layers"] = report_layers(text)
            sides[side]["traced_run"] = result
        if all(len(sides[side]["runs"]) == len(seeds) for side in SIDES):
            for side in SIDES:
                sides[side]["end_to_end"] = summary(sides[side]["runs"], bounds)
            sides["comparison"] = comparison(sides, better)
        record[workload] = sides

    payload = {
        "description": ("Before/after record from tools/bench_compare.py: per workload and side, "
                        f"{len(seeds)} untraced runs (seeds {args.seeds}) taken in turns with the other "
                        "side, summarized as in perfbench/baseline.json, and one traced run at the "
                        "first seed. Timings are scaled to the reference host speed."),
        "command": ("python3 perfbench/run.py --workload <name> --seed <n> --trace <0|1> "
                    "(run.py's default --seconds 35)"),
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "libraries": versions},
        "commits": {side: commit(trees[side]) for side in SIDES},
        "workloads": record,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
