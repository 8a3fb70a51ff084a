"""The benchmark's workloads: inputs made from a seed, one measured round
of each, and the checks of their outputs against ``oracle``.

Every call into dakr looks the function up on its module at call time,
so the wrappers that ``tracing`` installs see the benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from calibration import Calibration
from tracing import NullTracer

NPROC = len(os.sched_getaffinity(0))

# Threads for every timed call.  On a shared two-vCPU machine two-thread
# timings spread 25-40% from run to run, one-thread timings 7-15%; the
# effect of threads is measured on its own as rerank.thread_speedup.
THREADS = 1

# Single-probe calls per run, so that at least ten lie beyond p95.
MIN_LATENCY_SAMPLES = 200

# The seed whose ranking digests are pinned in pinned.json.
PIN_SEED = 0

# k for the neighbour-set baselines in cli_eval.
NEIGHBOR_K = 5


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  Single-shot galleries hold one sample per
    identity (plus distractors) and probes are separate samples; the
    multiple-shot gallery holds ``shots + 1`` samples per identity and the
    first of them is also the probe, so its own copy must be excluded.

    Each round ranks one chunk of ``chunk_probes`` probes per method, in
    timed calls of ``window_probes`` probes with the methods taking turns,
    and makes ``latency_per_round`` single-probe calls, timed in bursts of
    ``latency_window``.  A sigma table or a command is repeated until
    ``min_sample_s`` have passed.  The quadratic k-INN and k-RNN scans of
    ``dakr eval`` rank only the first ``neighbor_probes`` probes (0: all),
    so that they do not take up most of a round.  Every timed call or
    burst is one window; many short windows spread over the run make the
    medians steadier on a shared machine.
    """

    name: str
    multi_shot: bool
    identities: int
    distractors: int = 0
    probes_per_identity: int = 1
    shots: int = 0
    dim: int = 64
    spread: float = 0.3
    chunk_probes: int = 50
    window_probes: int = 10
    latency_per_round: int = 100
    latency_window: int = 100
    min_sample_s: float = 0.0
    check_probes: int = 32
    neighbor_probes: int = 0

    def tiny(self) -> "Workload":
        """The same workload at a size that runs in well under a second."""
        return replace(
            self,
            identities=12,
            distractors=min(self.distractors, 36),
            probes_per_identity=min(self.probes_per_identity, 2),
            shots=min(self.shots, 3),
            chunk_probes=8,
            window_probes=4,
            latency_per_round=10,
            latency_window=5,
            min_sample_s=0.0,
            check_probes=4,
            neighbor_probes=min(self.neighbor_probes, 4),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_gallery", multi_shot=False, identities=400, distractors=3600,
                 latency_per_round=200, latency_window=200),
        Workload("small_gallery", multi_shot=False, identities=500, probes_per_identity=8,
                 chunk_probes=250, window_probes=50, latency_per_round=800, latency_window=400,
                 min_sample_s=0.1),
        Workload("cli_eval", multi_shot=True, identities=100, shots=5, spread=0.4,
                 chunk_probes=25, window_probes=25, latency_per_round=400, latency_window=400,
                 min_sample_s=0.3, neighbor_probes=20),
    )
}


@dataclass
class Inputs:
    gallery_ids: np.ndarray
    gallery: np.ndarray
    probe_ids: np.ndarray
    probes: np.ndarray
    matches: dict


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Identity centres uniform in the unit cube, samples Gaussian around
    them with std ``w.spread`` per dimension."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (w.identities + w.distractors, w.dim))
    if w.multi_shot:
        per = w.shots + 1
        owner = np.repeat(np.arange(w.identities), per)
        noisy = centers[owner] + rng.normal(0.0, w.spread, (len(owner), w.dim))
        # The binary feature files store float32; the checks must see
        # exactly what the program reads back.
        gallery = noisy.astype(np.float32).astype(np.float64)
        gallery_ids = np.arange(len(owner), dtype=np.int64)
        probe_ids = gallery_ids[::per].copy()
        matches = {int(p): tuple(range(p + 1, p + per)) for p in probe_ids}
        return Inputs(gallery_ids, gallery, probe_ids, gallery[probe_ids], matches)
    gallery = centers + rng.normal(0.0, w.spread, centers.shape)
    owner = np.repeat(np.arange(w.identities), w.probes_per_identity)
    probes = centers[owner] + rng.normal(0.0, w.spread, (len(owner), w.dim))
    gallery_ids = np.arange(len(gallery), dtype=np.int64)
    probe_ids = len(gallery) + np.arange(len(owner), dtype=np.int64)
    matches = {int(p): (int(o),) for p, o in zip(probe_ids, owner)}
    return Inputs(gallery_ids, gallery, probe_ids, probes, matches)


def write_features(ids: np.ndarray, vectors: np.ndarray, path: Path) -> None:
    """The program's binary feature format: magic, u32 n, u32 d, u64 ids,
    float32 row-major vectors, little-endian."""
    n, d = vectors.shape
    with path.open("wb") as fh:
        fh.write(b"FST1")
        fh.write(np.array([n, d], dtype="<u4").tobytes())
        fh.write(ids.astype("<u8").tobytes())
        fh.write(vectors.astype("<f4").tobytes())


def write_truth(matches: dict, path: Path) -> None:
    lines = ["probe_id,gallery_id"]
    lines += [f"{p},{g}" for p in sorted(matches) for g in matches[p]]
    path.write_text("\n".join(lines) + "\n")


def timed(fn, min_seconds: float):
    """Call ``fn`` until ``min_seconds`` have passed (at least once);
    returns the last result and the duration of every call."""
    durations = []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        result = fn()
        durations.append(perf_counter() - t0)
        if perf_counter() - started >= min_seconds:
            return result, durations


class Dakr:
    """The program's modules, resolved once by name."""

    def __init__(self):
        for name in ("core", "kernels", "neighbors", "rerank", "evaluation", "cli"):
            setattr(self, name, importlib.import_module(f"dakr.{name}"))


class Session:
    """One workload at one seed: its inputs, the program's objects made
    from them, and the outputs of the rounds so far."""

    def __init__(self, w: Workload, seed: int, workdir: Path, ledger: oracle.Ledger):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.d = Dakr()
        self.metric = self.d.core.DistanceMetric.euclidean()
        self.rounds = 0
        self.latency_next = 0
        self.latency_outputs: dict = {}
        self.calibration = Calibration()

    def setup(self) -> float:
        """Make the inputs and the program's objects; returns the time taken."""
        t0 = perf_counter()
        inp = self.inputs = make_inputs(self.w, self.seed)
        core = self.d.core
        self.gallery = core.FeatureSet(inp.gallery_ids, inp.gallery)
        self.probes = core.FeatureSet(inp.probe_ids, inp.probes)
        self.truth = self.d.evaluation.GroundTruth(inp.matches)
        self._write_files()
        return perf_counter() - t0

    def _write_files(self) -> None:
        pass

    def prepare(self) -> None:
        """Untimed work between set-up and the first round: the chunks,
        and the windows each chunk is ranked in."""
        ids, vectors = self.inputs.probe_ids, self.inputs.probes

        def pieces(start, stop, n):
            return [
                (np.arange(s, min(s + n, stop)), self.d.core.FeatureSet(ids[s:min(s + n, stop)],
                                                                        vectors[s:min(s + n, stop)]))
                for s in range(start, stop, n)
            ]

        self.chunks = pieces(0, len(ids), self.w.chunk_probes)
        self.windows = {
            int(rows[0]): pieces(int(rows[0]), int(rows[-1]) + 1, self.w.window_probes) for rows, _ in self.chunks
        }

    def calibrate(self, samples) -> None:
        """One window of the fixed task, to follow the host's speed."""
        samples["calibration_s"].append(self.calibration.window())

    def next_chunk(self):
        chunk = self.chunks[self.rounds % len(self.chunks)]
        self.rounds += 1
        return chunk

    @property
    def k_sigma(self) -> int:
        return self.d.kernels.default_k_sigma(len(self.gallery))

    def rank_batch(self, tracer, method, probes, threads, **kwargs):
        rerank = self.d.rerank.rerank
        with tracer.span("rerank.batch", threads):
            t0 = perf_counter()
            out = rerank(method, probes, self.gallery, self.metric,
                         k_sigma=self.k_sigma, n_threads=threads, **kwargs)
            elapsed = perf_counter() - t0
        self.ledger.ops(len(probes))
        return out, (len(probes), elapsed)

    def in_process(self, samples, tracer, table, chunk) -> None:
        """bi_dakr on the chunk with every thread and with one, then
        single-probe calls for the latency distribution."""
        _, work = self.rank_batch(tracer, "bi_dakr", chunk, NPROC, table=table)
        samples["chunk_bi_dakr_nproc_probes_per_s"].append(work)
        _, work = self.rank_batch(tracer, "bi_dakr", chunk, 1, table=table)
        samples["chunk_bi_dakr_1t_probes_per_s"].append(work)
        self.latency_burst(samples, table, self.w.latency_per_round)

    def latency_burst(self, samples, table, n: int) -> None:
        """``n`` single-probe calls, recorded in bursts of ``latency_window``."""
        bi_dakr_rank = self.d.kernels.bi_dakr_rank
        ids, vectors = self.inputs.probe_ids, self.inputs.probes
        for start in range(0, n, self.w.latency_window):
            latencies = []
            for _ in range(min(self.w.latency_window, n - start)):
                row = self.latency_next % len(ids)
                self.latency_next += 1
                t0 = perf_counter()
                ranked = bi_dakr_rank(int(ids[row]), vectors[row], self.gallery, self.metric, table)
                latencies.append((perf_counter() - t0) * 1e3)
                self.latency_outputs[row] = ranked
            samples["probe_latency_ms"].append(latencies)
        self.ledger.ops(n)

    def finish(self, samples) -> None:
        """Untimed, after the last round: top the latency samples up to
        MIN_LATENCY_SAMPLES."""
        missing = MIN_LATENCY_SAMPLES - sum(map(len, samples["probe_latency_ms"]))
        if missing > 0:
            self.latency_burst(samples, self.table, missing)

    def check_pins(self, digests: dict, pinned: dict) -> None:
        self.pin_digests = digests
        if self.seed == PIN_SEED and self.w == WORKLOADS.get(self.w.name):
            for label, value in digests.items():
                want = pinned.get(self.w.name, {}).get(label)
                self.ledger.check(want == value, f"{label}: ranking digest {value[:12]} != pinned {str(want)[:12]}")


class GallerySession(Session):
    """In-process rankings of a large or a small gallery."""

    METHODS = ("knn", "inv_dakr", "bi_dakr", "bi_dakr_wp")

    def prepare(self) -> None:
        super().prepare()
        self.outputs = {label: [None] * len(self.inputs.probe_ids) for label in self.METHODS}
        self.table = self.table_wp = None

    def tables(self, samples) -> None:
        kernels = self.d.kernels
        G, ks = self.gallery, self.k_sigma
        self.with_probes = self.d.neighbors.AugmentationPolicy.with_probes(self.probes)
        table, times = timed(
            lambda: kernels.compute_sigma_table(G, self.metric, ks, n_threads=THREADS), self.w.min_sample_s
        )
        samples["offline_s"].extend(times)
        table_wp, more = timed(
            lambda: kernels.compute_sigma_table(G, self.metric, ks, self.with_probes, n_threads=THREADS),
            self.w.min_sample_s,
        )
        samples["offline_wp_s"].extend(more)
        self.ledger.ops(len(times) + len(more))
        if self.table is not None:
            self.ledger.check(
                np.array_equal(table.gallery_sigmas, self.table.gallery_sigmas)
                and np.array_equal(table_wp.gallery_sigmas, self.table_wp.gallery_sigmas)
                and np.array_equal(table_wp.probe_sigmas, self.table_wp.probe_sigmas),
                "bandwidth tables changed between rounds",
            )
        self.table, self.table_wp = table, table_wp

    def rank_chunk(self, samples, tracer, rows, chunk) -> None:
        runs = {
            "knn": ("knn", {}),
            "inv_dakr": ("inv_dakr", {"table": self.table}),
            "bi_dakr": ("bi_dakr", {"table": self.table}),
            "bi_dakr_wp": ("bi_dakr", {"table": self.table_wp, "policy": self.with_probes}),
        }
        chunk_ranked = {label: [] for label in self.METHODS}
        # The methods take turns window by window, so that each meets the
        # machine in the same states.
        for _, window in self.windows[int(rows[0])]:
            for label in self.METHODS:
                method, kwargs = runs[label]
                ranked, work = self.rank_batch(tracer, method, window, THREADS, **kwargs)
                samples[f"{label}_probes_per_s"].append(work)
                chunk_ranked[label].extend(ranked)
            self.calibrate(samples)
        for label in self.METHODS:
            ranked = chunk_ranked[label]
            out = self.outputs[label]
            if out[rows[0]] is not None:
                self.ledger.check(
                    all(np.array_equal(out[i].gallery_ids, r.gallery_ids)
                        and np.array_equal(out[i].values, r.values) for i, r in zip(rows, ranked)),
                    f"{label}: probes {rows[0]}-{rows[-1]} ranked differently in a later round",
                )
            for i, r in zip(rows, ranked):
                out[i] = r

    def round(self, samples, tracer) -> None:
        rows, chunk = self.next_chunk()
        self.calibrate(samples)
        self.tables(samples)
        self.calibrate(samples)
        self.rank_chunk(samples, tracer, rows, chunk)
        ranked = [self.outputs["bi_dakr"][i] for i in rows]
        self.d.evaluation.cmc(ranked, self.truth, 1)
        self.d.evaluation.mean_average_precision(ranked, self.truth)
        self.in_process(samples, tracer, self.table, chunk)
        self.calibrate(samples)

    def finish(self, samples) -> None:
        """Also rank the chunks no round reached, so every probe is checked."""
        for rows, chunk in self.chunks:
            if self.outputs["knn"][rows[0]] is None:
                self.rank_chunk(new_samples(), NullTracer(), rows, chunk)
        super().finish(samples)

    def check(self, pinned: dict, samples) -> None:
        L, inp, out, w = self.ledger, self.inputs, self.outputs, self.w
        ks = self.k_sigma
        n_g = len(inp.gallery_ids)
        rows = np.unique(np.linspace(0, n_g - 1, 16).astype(int))
        exp = oracle.bandwidths(inp.gallery, rows, inp.gallery, rows, ks)
        L.check(np.allclose(self.table.gallery_sigmas[rows], exp, rtol=oracle.RTOL, atol=0),
                "gallery_only bandwidths differ from the reference")
        refs = np.vstack([inp.gallery, inp.probes])
        exp = oracle.bandwidths(refs, rows, refs, rows, ks)
        L.check(np.allclose(self.table_wp.gallery_sigmas[rows], exp, rtol=oracle.RTOL, atol=0),
                "with_probes gallery bandwidths differ from the reference")
        sample = np.unique(np.linspace(0, len(inp.probe_ids) - 1, w.check_probes).astype(int))
        exp = oracle.bandwidths(refs, n_g + sample, refs, n_g + sample, ks)
        L.check(np.allclose(self.table_wp.probe_sigmas[sample], exp, rtol=oracle.RTOL, atol=0),
                "with_probes probe bandwidths differ from the reference")

        for label in self.METHODS:
            for row in sample:
                self.check_ranking(label, row, out[label][row])
        for row, ranked in self.latency_outputs.items():
            batch = out["bi_dakr"][row]
            L.check(np.array_equal(ranked.gallery_ids, batch.gallery_ids)
                    and np.array_equal(ranked.values, batch.values),
                    f"single-probe bi_dakr_rank differs from the batch for row {row}")

        evaluation = self.d.evaluation
        rank1 = float(evaluation.cmc(out["bi_dakr"], self.truth, 1)[0])
        mean_ap = float(evaluation.mean_average_precision(out["bi_dakr"], self.truth))
        samples["rank1"].append(rank1)
        samples["map"].append(mean_ap)
        ref_cmc, ref_map = oracle.quality([(r.probe_id, r.gallery_ids) for r in out["bi_dakr"]], inp.matches, 1)
        L.check(np.isclose(rank1, ref_cmc[0], rtol=oracle.RTOL, atol=0)
                and np.isclose(mean_ap, ref_map, rtol=oracle.RTOL, atol=0),
                "evaluation.cmc / mean_average_precision differ from the reference")
        self.check_pins({
            label: oracle.orderings_digest((r.probe_id, r.gallery_ids) for r in out[label])
            for label in self.METHODS
        }, pinned)

    def check_ranking(self, label, row, ranked) -> bool:
        """Compare one probe's ranking with the reference; False on mismatch."""
        inp = self.inputs
        pid, vec = int(inp.probe_ids[row]), inp.probes[row]
        table = self.table_wp if label == "bi_dakr_wp" else self.table
        sigma_i = None
        if label == "bi_dakr":
            sigma_i = oracle.probe_bandwidth(pid, vec, inp.gallery_ids, inp.gallery, self.k_sigma)
        elif label == "bi_dakr_wp":
            sigma_i = table.probe_sigmas[row]
        exp = oracle.expected_ranking(
            "bi_dakr" if label == "bi_dakr_wp" else label,
            pid, vec, inp.gallery_ids, inp.gallery, table.gallery_sigmas, sigma_i,
        )
        return self.ledger.check(
            int(ranked.probe_id) == pid and oracle.same_ranking(ranked.gallery_ids, ranked.values, *exp),
            f"{label}: ranking of probe {pid} differs from the reference",
        )


class CliSession(Session):
    """Whole ``dakr`` commands run in process on files written at set-up."""

    EVALS = (("knn", "knn"), ("inn", "inn"), ("rnn", "rnn"),
             ("inv_dakr", "inv_dakr"), ("bi_dakr_wp", "bi_dakr+"))

    @property
    def k_sigma(self) -> int:
        # What `dakr eval` derives from the truth: the matches per probe.
        return self.w.shots

    @property
    def neighbor_probes(self) -> int:
        """How many probes the k-INN and k-RNN evaluations rank."""
        return self.w.neighbor_probes or len(self.inputs.probe_ids)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write_files(self) -> None:
        inp = self.inputs
        write_features(inp.gallery_ids, inp.gallery, self.workdir / "gallery.fst")
        write_features(inp.probe_ids, inp.probes, self.workdir / "probes.fst")
        n = self.neighbor_probes
        write_features(inp.probe_ids[:n], inp.probes[:n], self.workdir / "neighbor_probes.fst")
        write_truth(inp.matches, self.workdir / "truth.csv")

    def prepare(self) -> None:
        super().prepare()
        self.table = self.d.kernels.compute_sigma_table(self.gallery, self.metric, self.k_sigma)
        self.first_outputs = None

    def cli(self, tracer, span, argv) -> None:
        with tracer.span(span), contextlib.redirect_stdout(io.StringIO()):
            code = self.d.cli.main(argv)
        self.ledger.check(code == 0, f"dakr {' '.join(argv)} exited with {code}")

    def commands(self):
        """(metric, span, probes ranked, argv) for one pass over every command."""
        p = self.path
        common = ["--gallery", p("gallery.fst"), "--threads", str(THREADS)]
        ks = ["--k-sigma", str(self.k_sigma)]
        n = len(self.inputs.probe_ids)
        yield "offline_s", "cli.sigma", n, ["sigma", *common, *ks, "--out", p("gallery.sgt")]
        yield "offline_wp_s", "cli.sigma", n, [
            "sigma", *common, *ks, "--probes", p("probes.fst"), "--with-probes", "--out", p("with_probes.sgt")]
        yield "bi_dakr_probes_per_s", "cli.rerank", n, [
            "rerank", *common, "--probes", p("probes.fst"), "--method", "bi_dakr",
            "--sigma-table", p("gallery.sgt"), "--out", p("bi_dakr.csv")]
        for label, token in self.EVALS:
            scan = label in ("inn", "rnn")
            yield f"{label}_probes_per_s", "cli.eval", self.neighbor_probes if scan else n, [
                "eval", *common, "--probes", p("neighbor_probes.fst" if scan else "probes.fst"),
                "--truth", p("truth.csv"),
                "--method", token, "--k", str(NEIGHBOR_K), "--out", p(f"eval_{label}")]

    def round(self, samples, tracer) -> None:
        rows, chunk = self.next_chunk()
        wall = 0.0
        for metric, span, n_probes, argv in self.commands():
            _, times = timed(lambda: self.cli(tracer, span, argv), self.w.min_sample_s)
            wall += float(np.median(times))
            if metric.endswith("_per_s"):
                samples[metric].extend((n_probes, t) for t in times)
                self.ledger.ops(n_probes * len(times))
            else:
                samples[metric].extend(times)
            self.calibrate(samples)
        samples["cli_wall_s"].append(wall)
        self.in_process(samples, tracer, self.table, chunk)
        self.calibrate(samples)
        # Data files are byte-stable: every round must write the same bytes.
        outputs = {
            name: hashlib.sha256(Path(self.path(name)).read_bytes()).hexdigest()
            for name in ["bi_dakr.csv"] + [f"eval_{label}.json" for label, _ in self.EVALS]
        }
        if self.first_outputs is None:
            self.first_outputs = outputs
        for name, digest in outputs.items():
            self.ledger.check(digest == self.first_outputs[name], f"{name} changed between rounds")

    def check(self, pinned: dict, samples) -> None:
        L, inp, w = self.ledger, self.inputs, self.w
        ks = self.k_sigma
        gids, gallery = inp.gallery_ids, inp.gallery
        rows = np.arange(len(gids))
        sigmas = oracle.bandwidths(gallery, rows, gallery, rows, ks)
        stored = oracle.read_sidecar_sigmas(self.path("gallery.sgt"))
        L.check(np.allclose(stored, sigmas, rtol=oracle.RTOL, atol=0),
                "dakr sigma: bandwidths differ from the reference")
        # Every probe is a gallery sample, so it shares that sample's bandwidth.
        stored = oracle.read_sidecar_sigmas(self.path("with_probes.sgt"))
        expected = np.concatenate([sigmas, sigmas[inp.probe_ids]])
        L.check(stored.shape == expected.shape
                and np.allclose(stored, expected, rtol=oracle.RTOL, atol=0),
                "dakr sigma --with-probes: bandwidths differ from the reference")

        ranked = oracle.read_rankings_csv(self.path("bi_dakr.csv"))
        L.check(list(ranked) == [int(p) for p in inp.probe_ids],
                "dakr rerank: rankings do not list every probe in order")
        sample = np.unique(np.linspace(0, len(inp.probe_ids) - 1, w.check_probes).astype(int))
        for row in sample:
            pid, vec = int(inp.probe_ids[row]), inp.probes[row]
            sigma_i = oracle.probe_bandwidth(pid, vec, gids, gallery, ks)
            exp = oracle.expected_ranking("bi_dakr", pid, vec, gids, gallery, sigmas, sigma_i)
            got = ranked.get(pid, (np.zeros(0, dtype=np.int64), np.zeros(0)))
            L.check(oracle.same_ranking(*got, *exp), f"dakr rerank: ranking of probe {pid} differs")
        orderings = [(p, ranked[p][0]) for p in ranked]
        cmc, mean_ap = oracle.quality(orderings, inp.matches, 1)
        samples["rank1"].append(float(cmc[0]))
        samples["map"].append(mean_ap)

        # Gallery ids are row numbers, and each probe is its own gallery row.
        probe_ids = [int(p) for p in inp.probe_ids]
        references = {
            "knn": [(p, oracle.expected_ranking("knn", p, gallery[p], gids, gallery)[0]) for p in probe_ids],
            "inv_dakr": [(p, oracle.expected_ranking("inv_dakr", p, gallery[p], gids, gallery, sigmas)[0])
                         for p in probe_ids],
            "bi_dakr_wp": [(p, oracle.expected_ranking("bi_dakr", p, gallery[p], gids, gallery, sigmas,
                                                       sigmas[p])[0]) for p in probe_ids],
            "inn": oracle.neighbor_rankings("inn", inp.probe_ids[:self.neighbor_probes], gids, gallery, NEIGHBOR_K),
            "rnn": oracle.neighbor_rankings("rnn", inp.probe_ids[:self.neighbor_probes], gids, gallery, NEIGHBOR_K),
        }
        digests = {"bi_dakr": oracle.orderings_digest(orderings)}
        for label, token in self.EVALS:
            result = json.loads(Path(self.path(f"eval_{label}.json")).read_text())["results"][0]
            cmc, mean_ap = oracle.quality(references[label], inp.matches, len(result["cmc"]))
            L.check(result["method"] == token
                    and np.allclose(result["cmc"], cmc, rtol=oracle.RTOL, atol=0)
                    and np.isclose(result["map"], mean_ap, rtol=oracle.RTOL, atol=0),
                    f"dakr eval --method {token}: CMC or mAP differs from the reference")
            digests[label] = hashlib.sha256(repr(result["cmc"]).encode()).hexdigest()
        for row, got in self.latency_outputs.items():
            pid, vec = int(inp.probe_ids[row]), inp.probes[row]
            sigma_i = oracle.probe_bandwidth(pid, vec, gids, gallery, ks)
            exp = oracle.expected_ranking("bi_dakr", pid, vec, gids, gallery, sigmas, sigma_i)
            L.check(oracle.same_ranking(got.gallery_ids, got.values, *exp),
                    f"bi_dakr_rank: ranking of probe {pid} differs from the reference")
        self.check_pins(digests, pinned)


def session_for(w: Workload, seed: int, workdir: Path, ledger: oracle.Ledger) -> Session:
    cls = CliSession if w.multi_shot else GallerySession
    return cls(w, seed, workdir, ledger)


class Series(list):
    """One metric's samples, with the moment (``perf_counter``) each was
    recorded, so that it can be set against the calibration windows
    timed around it."""

    def __init__(self):
        super().__init__()
        self.times = []

    def append(self, value) -> None:
        super().append(value)
        self.times.append(perf_counter())

    def extend(self, values) -> None:
        values = list(values)
        super().extend(values)
        self.times.extend([perf_counter()] * len(values))


def new_samples():
    return defaultdict(Series)
