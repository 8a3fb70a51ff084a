"""Criterion 8's pass counts under two source trees, in fresh processes.

    python tools/timing_gate.py PARENT_TREE CHANGE_TREE [--runs 30]

Each tree is a checkout root holding ``tests/test_acceptance.py`` and
``src/dakr``.  A run is one ``python -m pytest -q
tests/test_acceptance.py -k criterion_8`` in a fresh process per tree,
with ``PYTHONPATH`` set to that tree's ``src``; the two trees take
turns (the parent first on even runs, the change first on odd ones), as
in ``tools/bench_compare.py``, so a drift in host speed lands on both.
Each failure prints its assertion line as it happens; the end prints
each side's pass count.  The exit status is 1 when the change fails
more often than the parent.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def tree_root(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "tests/test_acceptance.py").is_file() or not (root / "src/dakr").is_dir():
        raise SystemExit(f"timing_gate: {root} holds no tests/test_acceptance.py and src/dakr")
    return root


def run_once(root: Path) -> str | None:
    """None if criterion 8 passed in ``root``, else its assertion line."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "criterion_8"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines()
    return next((ln[1:].strip() for ln in lines if ln.startswith("E ")),
                f"exit {done.returncode}: {(lines or [''])[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--runs", type=int, default=30, help="runs per tree (default 30)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {"parent": tree_root(args.parent_tree), "change": tree_root(args.change_tree)}

    failures = {side: 0 for side in SIDES}
    for i in range(args.runs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            line = run_once(trees[side])
            if line is not None:
                failures[side] += 1
                print(f"run {i} {side} failed: {line}", flush=True)
    for side in SIDES:
        print(f"{side}: {args.runs - failures[side]} of {args.runs} passed")
    return 1 if failures["change"] > failures["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
