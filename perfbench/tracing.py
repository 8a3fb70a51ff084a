"""Spans recorded around the calls between dakr's modules.

The tracer replaces names that one dakr module looks up in another (for
example ``dakr.kernels.pairwise`` or ``dakr.rerank.bi_dakr_rank``) with
wrappers that record (id, name, start, end, parent, amount, label).
Nothing inside ``src/`` changes.  Spans stay in memory until the run
ends; self time is a span's duration minus the part of it that child
spans cover, so layers add up without double counting.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans whose duration is the cost of ranking one probe.
PER_PROBE = ("kernels.rank", "neighbors.rank_by_distance", "neighbors.inn", "neighbors.rnn")


def _pairwise_amount(args, kwargs, result):
    q, r = result.shape
    d = args[2].shape[-1]
    # (rows, distance evaluations, flops: subtract, square, add per dim)
    return (q, q * r, 3 * q * r * d)


def _size_of_arg(args, kwargs, result):
    return os.path.getsize(args[0])


def _size_of_out(args, kwargs, result):
    return os.path.getsize(args[-1])


def _label_inv(args, kwargs, result):
    return "inv_dakr"


def _label_bi(args, kwargs, result):
    table = args[4] if len(args) > 4 else kwargs["table"]
    return "bi_dakr_wp" if table.policy_mode == "with_probes" else "bi_dakr"


def _label_threads(args, kwargs, result):
    return kwargs.get("n_threads") or 1


# (module, attribute, span name, amount, label)
WRAPPED = (
    ("dakr.kernels", "pairwise", "core.pairwise", _pairwise_amount, None),
    ("dakr.neighbors", "pairwise", "core.pairwise", _pairwise_amount, None),
    ("dakr.kernels", "RankedList", "core.RankedList", None, None),
    ("dakr.neighbors", "RankedList", "core.RankedList", None, None),
    # reference_digest and probe_sigma are looked up in kernels' own
    # namespace by _check_table, compute_sigma_table and bi_dakr_rank.
    ("dakr.kernels", "reference_digest", "kernels.reference_digest", None, None),
    ("dakr.fileio", "reference_digest", "kernels.reference_digest", None, None),
    ("dakr.kernels", "probe_sigma", "kernels.probe_sigma", None, None),
    # evaluation imports compute_sigma_table from kernels at call time.
    ("dakr.kernels", "compute_sigma_table", "kernels.compute_sigma_table", None, None),
    ("dakr.rerank", "compute_sigma_table", "kernels.compute_sigma_table", None, None),
    ("dakr.cli", "compute_sigma_table", "kernels.compute_sigma_table", None, None),
    ("dakr.kernels", "bi_dakr_rank", "kernels.rank", None, _label_bi),
    ("dakr.rerank", "bi_dakr_rank", "kernels.rank", None, _label_bi),
    ("dakr.rerank", "inv_dakr_rank", "kernels.rank", None, _label_inv),
    ("dakr.rerank", "rank_by_distance", "neighbors.rank_by_distance", None, None),
    ("dakr.rerank", "rank_by_inn", "neighbors.inn", None, None),
    ("dakr.rerank", "rank_by_rnn", "neighbors.rnn", None, None),
    ("dakr.neighbors", "gallery_neighbor_set", "neighbors.gallery_neighbor_set", None, None),
    ("dakr.evaluation", "rerank", "rerank.batch", None, _label_threads),
    ("dakr.cli", "rerank", "rerank.batch", None, _label_threads),
    ("dakr.evaluation", "cmc", "evaluation.cmc", None, None),
    ("dakr.evaluation", "mean_average_precision", "evaluation.mean_average_precision", None, None),
    ("dakr.cli", "read_features", "fileio.read_features", _size_of_arg, None),
    ("dakr.cli", "write_rankings_csv", "fileio.write_rankings_csv", _size_of_out, None),
    ("dakr.cli", "write_sigma_sidecar", "fileio.sidecar", _size_of_out, None),
    ("dakr.cli", "read_sigma_sidecar", "fileio.sidecar", _size_of_arg, None),
    ("dakr.cli", "sigma_table_from_sidecar", "fileio.sidecar", None, None),
)


class NullTracer:
    """Tracing off: spans opened by the benchmark cost one call."""

    @contextmanager
    def span(self, name, label=None):
        yield


class Tracer:
    """Spans in memory, and the wrappers that record them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        # A pool worker's outermost span belongs to whatever the main
        # thread has open while it waits on the pool.
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    @contextmanager
    def span(self, name, label=None):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, 0, label))

    def _wrap(self, fn, name, amount, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            tracer.spans.append((
                sid, name, start, end, parent,
                amount(args, kwargs, result) if amount else 0,
                label(args, kwargs, result) if label else None,
            ))
            return result

        return wrapper

    def install(self) -> None:
        originals = [
            (importlib.import_module(mod), attr, name, amount, label)
            for mod, attr, name, amount, label in WRAPPED
        ]
        for module, attr, name, amount, label in originals:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, amount, label))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "amount", "label"],
            "names": names,
            "spans": [
                [s[0], index[s[1]], round(s[2], 7), round(s[3], 7), s[4], s[5], s[6]]
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans) -> dict:
    """Per-layer metrics from one round's spans.

    Keys are ``<layer>.<name>.<quantity>`` plus a few ratios whose base is
    the number of per-probe spans; a ratio with no base is omitted.
    """
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        children[s[4]].append((s[2], s[3]))
        by_id[s[0]] = s

    calls = defaultdict(int)
    self_s = defaultdict(float)
    amount = defaultdict(int)
    for sid, name, start, end, parent, amt, label in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _covered(start, end, children.get(sid, ()))
        if name != "core.pairwise" and amt:
            amount[name] += amt

    def ancestor(span, names):
        while span is not None:
            if span[1] in names:
                return span
            span = by_id.get(span[4])
        return None

    rank_calls = defaultdict(int)
    rank_rows = defaultdict(int)
    digests_in_rank = 0
    probes = 0
    lists_in_probe = 0
    neighbor_probes = 0
    neighbor_evals = 0
    rows = flops = 0
    for s in spans:
        name = s[1]
        if name == "kernels.rank":
            rank_calls[s[6]] += 1
        if name in PER_PROBE:
            probes += 1
            if name != "kernels.rank":
                neighbor_probes += 1
        if name == "core.pairwise":
            q, e, f = s[5]
            rows, flops = rows + q, flops + f
            owner = ancestor(by_id.get(s[4]), PER_PROBE)
            if owner is not None and owner[1] == "kernels.rank":
                rank_rows[owner[6]] += q
            elif owner is not None:
                neighbor_evals += e
        elif name == "kernels.reference_digest":
            if ancestor(by_id.get(s[4]), ("kernels.rank",)) is not None:
                digests_in_rank += 1
        elif name == "core.RankedList":
            if ancestor(by_id.get(s[4]), PER_PROBE) is not None:
                lists_in_probe += 1

    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["core.pairwise.rows"] = rows
    out["core.pairwise.gflop_computed"] = flops / 1e9
    for name, total in amount.items():
        out[f"{name}.bytes"] = total
    for name in ("cli.sigma", "cli.rerank", "cli.eval"):
        if name in calls:
            out[f"{name}.wall_s"] = sum(s[3] - s[2] for s in spans if s[1] == name)
    dakr_probes = sum(rank_calls.values())
    if dakr_probes:
        out["kernels.distance_rows_per_probe"] = sum(rank_rows.values()) / dakr_probes
        out["kernels.reference_digest.calls_per_probe"] = digests_in_rank / dakr_probes
        for label, n in rank_calls.items():
            out[f"kernels.distance_rows_per_probe.{label}"] = rank_rows[label] / n
    if probes:
        out["core.RankedList.calls_per_probe"] = lists_in_probe / probes
    if neighbor_probes:
        out["neighbors.distance_evals_per_probe"] = neighbor_evals / neighbor_probes

    busy = capacity = 0.0
    for s in spans:
        if s[1] == "rerank.batch":
            capacity += (s[3] - s[2]) * (s[6] or 1)
    for s in spans:
        if s[1] in PER_PROBE:
            parent = by_id.get(s[4])
            if parent is not None and parent[1] == "rerank.batch":
                busy += s[3] - s[2]
    if capacity:
        out["rerank.pool_busy_frac"] = busy / capacity
    return out
