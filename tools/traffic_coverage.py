"""Which lines of ``src/dakr`` does real traffic reach?

    python tools/traffic_coverage.py

Traffic is the command matrix of ``tools/compare_outputs.py`` (every
scenario, its inputs made by ``compare_outputs.prepare``, ``--threads`` 1
and 2), a small ``dakr bench``, and the three perfbench workloads at
``.tiny()`` size, all run in this process under
``sys.settrace``/``threading.settrace``, which start before ``dakr`` is
imported.  For every function of ``src/dakr`` it prints the lines no
traffic reached, or ``never`` for a function no traffic called; fully
reached functions are not listed.  Perfbench leaves its work files under
``.perfbench/``.  Standard library only.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dakr"


def tracer(reached: dict):
    """A trace function that records, for every call into the package,
    the lines reached under (file, qualified name, first line)."""

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(str(PACKAGE)):
            return None
        lines = reached.setdefault((code.co_filename, code.co_qualname, code.co_firstlineno), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def functions(path: Path):
    """(qualified name, first line, executable lines) for every function
    defined in ``path``, in source order."""
    found = []

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    lines = {line for _, _, line in const.co_lines() if line is not None}
                    found.append((const.co_qualname, const.co_firstlineno,
                                  lines - {const.co_firstlineno}))
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return sorted(found, key=lambda f: f[1])


def spans(lines) -> str:
    """Sorted line numbers as ranges: ``4, 7-9``."""
    ranges = []
    for line in sorted(lines):
        if ranges and line == ranges[-1][1] + 1:
            ranges[-1][1] = line
        else:
            ranges.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)


def drive(work: Path) -> None:
    """Run every piece of traffic, writing under ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT / "perfbench")]
    import compare_outputs
    from dakr.cli import main

    def dakr(argv) -> None:
        argv = [str(a) for a in argv]
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        if code != 0:
            raise SystemExit(f"traffic_coverage: dakr {' '.join(argv)} exited {code}:\n"
                             f"{stderr.getvalue()}")

    for scenario, flags in compare_outputs.SCENARIOS.items():
        inputs = work / "inputs" / scenario
        compare_outputs.prepare(inputs, flags, dakr)
        for threads in ("1", "2"):
            out = work / f"threads{threads}" / scenario
            out.mkdir(parents=True)
            for command in compare_outputs.commands(inputs, out, flags):
                dakr(command + (["--threads", threads] if command[0] != "gen" else []))
    dakr(["bench", "--sizes", "40,80", "--bench-probes", "3", "--out", work / "bench.csv"])

    import run
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        result = run.run(workload.tiny(), seed=3, seconds=0.1, trace=False)
        if result["ledger"].failed:
            raise SystemExit(f"traffic_coverage: perfbench workload {name} failed")


def main() -> int:
    reached: dict = {}
    trace = tracer(reached)
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            drive(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = full = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, lines in functions(path):
            total += 1
            hit = reached.get((str(path), name, first))
            if hit is None:
                print(f"{path.name}:{first} {name}: never")
            elif lines - hit:
                print(f"{path.name}:{first} {name}: {spans(lines - hit)}")
            else:
                full += 1
    print(f"{full} of {total} functions fully reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
