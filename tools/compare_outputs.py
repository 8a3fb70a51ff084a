"""Byte-for-byte comparison of dakr's CLI outputs and text between two source trees.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

Each tree is a directory holding the ``dakr`` package (a checkout's
``src``).  The input scenarios (one of them with coincident shots, for
the sigma floor) and a Mahalanobis matrix are generated
once, under PARENT_SRC; then the same command matrix (``gen --format
csv`` and ``gen --format bin`` of each scenario, ``sigma``, ``sigma
--with-probes``, ``sigma --k-sigma 4``, ``rerank`` for every method
token and with all three sidecars, Mahalanobis ``rerank``s, a squared
euclidean ``sigma`` and two such ``rerank``s, three ``eval``s, the third on a
truth file with an extra row for a probe id absent from the probe file, and
three ``sweep``s per scenario) runs through ``python -m dakr.cli`` under each tree, with
``--threads 1`` wherever the command takes it.  So do the commands that
only print, once per tree from an empty directory: every help text, the
version, and parse errors (no arguments, an unknown command or flag, a
missing required flag, a bad method or thread count).  Every data file
that differs is listed, ``*.timings.json`` skipped (wall-clock figures),
and so is every command whose exit code, stdout or stderr differs, with
the wall-clock ``offline_ms=`` figure and the tree's own output directory
masked.  The exit status is 1 on any difference or failed data command.
``--work`` keeps the files for inspection; it must be empty or absent.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = {
    "multi_shot": ["--scenario", "multi_shot", "--n-identities", "25", "--shots-per-id", "3",
                   "--n-distractors", "10", "--dim", "6", "--cluster-spread", "0.25", "--seed", "3"],
    "imperfect_single_shot": ["--scenario", "imperfect_single_shot", "--n-identities", "30",
                              "--n-distractors", "20", "--dim", "6", "--cluster-spread", "0.25",
                              "--seed", "5"],
    # Every identity's four samples coincide, and the default k_sigma is 3,
    # so the sigma floor acts in sigma, rerank, eval and sweep.
    "multi_shot_duplicates": ["--scenario", "multi_shot", "--n-identities", "12",
                              "--shots-per-id", "3", "--n-distractors", "5", "--dim", "6",
                              "--cluster-spread", "0", "--seed", "7"],
}
TOKENS = ("knn", "inn", "rnn", "inn+", "rnn+", "inv_dakr", "inv_dakr+", "bi_dakr", "bi_dakr+")
MAHALANOBIS_TOKENS = ("knn", "inv_dakr", "bi_dakr")
DIM = 6
COMMAND_NAMES = ("gen", "sigma", "rerank", "eval", "sweep", "bench")
TEXT_ONLY = [[], ["--help"], ["--version"], ["-h", "sigma"], ["bogus"],
             *([name, "--help"] for name in COMMAND_NAMES),
             ["sigma", "--gallery", "x", "--out", "y", "--bogus"],
             ["eval", "--out", "z", "--method", "nope"], ["sigma"],
             ["rerank", "--gallery", "a", "--probes", "b", "--out", "c", "--threads", "0"]]
OFFLINE_MS = re.compile(r"offline_ms=[0-9.]+")


def package_root(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "dakr").is_dir():
        raise SystemExit(f"compare_outputs: no dakr package under {root}")
    return root


def psd_matrix(path: Path, seed: int = 7) -> None:
    """B·Bᵀ/DIM + I for a seeded Gaussian B, as CSV."""
    rng = random.Random(seed)
    b = [[rng.gauss(0.0, 1.0) for _ in range(DIM)] for _ in range(DIM)]
    rows = [
        [sum(b[i][t] * b[j][t] for t in range(DIM)) / DIM + (i == j) for j in range(DIM)]
        for i in range(DIM)
    ]
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))


def extra_truth(inputs: Path) -> None:
    """``truth_extra.csv``: ``truth.csv`` plus a row for a probe id that the
    probe file lacks, matched to the first row's gallery id."""
    lines = (inputs / "probes.csv").read_text().splitlines()[1:]
    absent = max(int(line.split(",", 1)[0]) for line in lines if line) + 1
    truth = (inputs / "truth.csv").read_text()
    match = truth.splitlines()[1].split(",")[1]
    (inputs / "truth_extra.csv").write_text(f"{truth}{absent},{match}\n")


def prepare(inputs: Path, scenario_flags: list[str], gen) -> None:
    """One scenario's inputs under ``inputs``: ``gen(argv)`` runs ``dakr gen``
    into it, then :func:`psd_matrix` and :func:`extra_truth` add theirs."""
    gen(["gen", *scenario_flags, "--out", inputs])
    psd_matrix(inputs / "metric.csv")
    extra_truth(inputs)


def commands(inputs: Path, out: Path, scenario_flags: list[str]):
    """Every command of one scenario, writing under ``out``."""
    files = ["--gallery", inputs / "gallery.csv", "--probes", inputs / "probes.csv"]
    truth = [*files, "--truth", inputs / "truth.csv"]
    for fmt in ("csv", "bin"):
        yield ["gen", *scenario_flags, "--format", fmt, "--out", out / f"gen_{fmt}"]
    yield ["sigma", "--gallery", inputs / "gallery.csv", "--out", out / "gallery.sgt"]
    yield ["sigma", *files, "--with-probes", "--out", out / "with_probes.sgt"]
    yield ["sigma", "--gallery", inputs / "gallery.csv", "--k-sigma", "4", "--out", out / "k4.sgt"]
    for token in TOKENS:
        yield ["rerank", *files, "--method", token, "--k", "4", "--out", out / f"rerank_{token}.csv"]
    for token, table in (("bi_dakr", "gallery.sgt"), ("bi_dakr+", "with_probes.sgt")):
        yield ["rerank", *files, "--method", token, "--sigma-table", out / table,
               "--out", out / f"rerank_{token}_sidecar.csv"]
    yield ["rerank", *files, "--method", "inv_dakr", "--k-sigma", "4", "--sigma-table", out / "k4.sgt",
           "--out", out / "rerank_inv_dakr_k4_sidecar.csv"]
    for token in MAHALANOBIS_TOKENS:
        yield ["rerank", *files, "--method", token, "--metric", "mahalanobis",
               "--metric-matrix", inputs / "metric.csv", "--out", out / f"rerank_{token}_mahalanobis.csv"]
    squared = ["--metric", "squared_euclidean"]
    yield ["sigma", "--gallery", inputs / "gallery.csv", *squared, "--out", out / "squared.sgt"]
    for token in ("inn", "bi_dakr"):
        yield ["rerank", *files, "--method", token, "--k", "4", *squared,
               "--out", out / f"rerank_{token}_squared.csv"]
    yield ["eval", *truth, "--method", "knn,inn,rnn,inv_dakr,bi_dakr", "--k", "3",
           "--out", out / "eval_plain"]
    yield ["eval", *truth, "--method", "inn+,rnn+,inv_dakr+,bi_dakr+", "--k", "5",
           "--k-sigma", "4", "--ranks", "1,3,10", "--out", out / "eval_augmented"]
    yield ["eval", *files, "--truth", inputs / "truth_extra.csv", "--method", "knn,bi_dakr",
           "--out", out / "eval_extra_truth"]
    yield ["sweep", *truth, "--method", "knn,inv_dakr,bi_dakr", "--k-values", "1,3,6",
           "--out", out / "sweep_kernels"]
    yield ["sweep", *truth, "--method", "inn+,inv_dakr+,bi_dakr+", "--k-values", "2,4",
           "--out", out / "sweep_augmented"]
    yield ["sweep", *scenario_flags, "--trials", "3", "--method", "rnn,bi_dakr", "--k-values", "1,5",
           "--ranks", "1,5", "--out", out / "sweep_trials"]


def dakr(root: Path, argv: list, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root)}
    return subprocess.run([sys.executable, "-m", "dakr.cli", *map(str, argv)], env=env, cwd=cwd,
                          capture_output=True, text=True)


def masked(text: str, out: Path) -> str:
    """``text`` with the tree's output directory and wall-clock figures masked."""
    return OFFLINE_MS.sub("offline_ms=<ms>", text.replace(str(out), "<out>"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", help="keep inputs and outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    trees = {"parent": package_root(args.parent_src), "change": package_root(args.change_src)}

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        if any(work.glob("*")):
            raise SystemExit(f"compare_outputs: {work} is not empty")
        problems = []
        # {side: {command as run, its output directory masked: (exit code, stdout, stderr)}}
        texts = {side: {} for side in trees}
        for side, root in trees.items():
            cwd = work / side / "text_only"
            cwd.mkdir(parents=True)
            for argv in TEXT_ONLY:
                run = dakr(root, argv, cwd)
                texts[side][" ".join(["dakr", *argv])] = (run.returncode, run.stdout, run.stderr)

        def gen(argv):
            made = dakr(trees["parent"], argv)
            if made.returncode != 0:
                raise SystemExit(f"compare_outputs: dakr {' '.join(map(str, argv))} failed:\n"
                                 f"{made.stderr}")

        for scenario, flags in SCENARIOS.items():
            inputs = work / "inputs" / scenario
            prepare(inputs, flags, gen)
            for side, root in trees.items():
                out = work / side / scenario
                out.mkdir(parents=True, exist_ok=True)
                for command in commands(inputs, out, flags):
                    argv = command + ([] if command[0] == "gen" else ["--threads", "1"])
                    run = dakr(root, argv)
                    if run.returncode != 0:
                        problems.append(f"{side} {scenario}: dakr {command[0]} exited "
                                        f"{run.returncode}: {run.stderr.strip()[-300:]}")
                    key = masked(" ".join(["dakr", *map(str, argv)]), out)
                    texts[side][key] = (run.returncode, masked(run.stdout, out), masked(run.stderr, out))
        outputs = {
            side: {p.relative_to(work / side): p for p in (work / side).rglob("*")
                   if p.is_file() and not p.name.endswith(".timings.json")}
            for side in trees
        }
        for name in sorted(outputs["parent"].keys() | outputs["change"].keys()):
            a, b = outputs["parent"].get(name), outputs["change"].get(name)
            if a is None or b is None or a.read_bytes() != b.read_bytes():
                problems.append(f"differs: {name}")
        for key in sorted(texts["parent"].keys() | texts["change"].keys()):
            a, b = texts["parent"].get(key), texts["change"].get(key)
            if a != b:
                parts = ("exit code", "stdout", "stderr")
                which = [part for part, x, y in zip(parts, a, b) if x != y] if a and b else ["missing"]
                problems.append(f"text differs ({', '.join(which)}): {key}")
        print(f"compared {len(outputs['change'])} data files and the text of "
              f"{len(texts['change'])} commands under each tree")
        for line in problems:
            print(line)
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
