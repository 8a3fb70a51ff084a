"""Rank-1 and mAP of dakr's methods by regime, under two source trees.

    python tools/accuracy.py PARENT_SRC CHANGE_SRC [--out ACCURACY.json]

Each tree is a directory holding the ``dakr`` package (a checkout's
``src``), as for ``tools/compare_outputs.py``.  For every regime and
seed the inputs are made once, under PARENT_SRC, by ``dakr gen`` (and,
for the far-sample regimes, by setting every coordinate of the last
gallery row to one value); then ``dakr eval --threads 1`` runs under
each tree on the same files.  The regimes:

* ``imperfect``: an imperfect single-shot scenario (100 identities, 300
  distractors, d = 16, spread 0.21) at k_sigma 20;
* ``imperfect_far_1e6`` and ``imperfect_far_1e13``: the same with the
  last gallery row at 1e6 or 1e13, one far sample;
* ``multi_shot_duplicates``: compare_outputs' scenario whose shots
  coincide, at the default k_sigma, so the sigma floor acts.

The report holds, per regime, tree and method, rank-1 and mAP as the
mean over the seeds and per seed, and each eval's sigma-floor hits per
table (from ``DAKR_LOG=info``).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import compare_outputs

SEEDS = range(5)
METHODS = ("knn", "inv_dakr", "bi_dakr", "inv_dakr+", "bi_dakr+")
IMPERFECT = ["--scenario", "imperfect_single_shot", "--n-identities", "100",
             "--n-distractors", "300", "--dim", "16", "--cluster-spread", "0.21"]
DUPLICATES = compare_outputs.SCENARIOS["multi_shot_duplicates"]
# name: (gen flags without --seed, extra eval flags, value of the last gallery row)
REGIMES = {
    "imperfect": (IMPERFECT, ["--k-sigma", "20"], None),
    "imperfect_far_1e6": (IMPERFECT, ["--k-sigma", "20"], "1e6"),
    "imperfect_far_1e13": (IMPERFECT, ["--k-sigma", "20"], "1e13"),
    "multi_shot_duplicates": (DUPLICATES[:DUPLICATES.index("--seed")], [], None),
}
FLOOR_HITS = re.compile(r", (\d+) sigma floor hits")


def far_last_row(gallery: Path, value: str) -> None:
    """Set every coordinate of ``gallery``'s last row to ``value``."""
    lines = gallery.read_text().splitlines()
    sample_id, *coords = lines[-1].split(",")
    lines[-1] = ",".join([sample_id] + [value] * len(coords))
    gallery.write_text("\n".join(lines) + "\n")


def evaluate(root: Path, inputs: Path, flags: list[str], out: Path) -> dict:
    """``dakr eval`` of every method under ``root``: {method: (rank-1, mAP)}
    and the floor hits of each sigma table it logged."""
    argv = ["eval", "--gallery", inputs / "gallery.csv", "--probes", inputs / "probes.csv",
            "--truth", inputs / "truth.csv", "--method", ",".join(METHODS), "--ranks", "1",
            *flags, "--threads", "1", "--out", out]
    run = compare_outputs.dakr(root, argv)
    if run.returncode != 0:
        raise SystemExit(f"accuracy: dakr eval under {root} exited {run.returncode}:\n{run.stderr}")
    report = json.loads(out.with_suffix(".json").read_text())
    scores = {r["method"]: (r["cmc"][0], r["map"]) for r in report["results"]}
    return {"scores": scores, "floor_hits": [int(h) for h in FLOOR_HITS.findall(run.stderr)]}


def summary(runs: list[dict]) -> dict:
    """Per method, rank-1 and mAP as the mean and per seed, and the floor hits."""
    out = {}
    for method in METHODS:
        out[method] = {}
        for i, metric in enumerate(("rank1", "map")):
            values = [run["scores"][method][i] for run in runs]
            out[method][metric] = {"mean": sum(values) / len(values), "per_seed": values}
    out["sigma_floor_hits_per_seed"] = [run["floor_hits"] for run in runs]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--out", default="ACCURACY.json", help="report path (default: %(default)s)")
    args = parser.parse_args(argv)
    trees = {"parent": compare_outputs.package_root(args.parent_src),
             "change": compare_outputs.package_root(args.change_src)}

    os.environ["DAKR_LOG"] = "info"  # each sigma table's floor hits, on stderr
    report = {"seeds": list(SEEDS), "methods": list(METHODS), "regimes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (gen_flags, eval_flags, far) in REGIMES.items():
            runs = {side: [] for side in trees}
            for seed in SEEDS:
                inputs = work / name / str(seed)
                made = compare_outputs.dakr(
                    trees["parent"], ["gen", *gen_flags, "--seed", str(seed), "--out", inputs]
                )
                if made.returncode != 0:
                    raise SystemExit(f"accuracy: dakr gen failed:\n{made.stderr}")
                if far is not None:
                    far_last_row(inputs / "gallery.csv", far)
                for side, root in trees.items():
                    runs[side].append(evaluate(root, inputs, eval_flags, work / name / f"{side}{seed}"))
            report["regimes"][name] = {
                "gen": gen_flags, "eval": eval_flags, "last_gallery_row": far,
                **{side: summary(side_runs) for side, side_runs in runs.items()},
            }
            print(name, " ".join(
                f"{side}:{m}={report['regimes'][name][side][m]['rank1']['mean']:.3f}"
                for side in trees for m in METHODS
            ))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
