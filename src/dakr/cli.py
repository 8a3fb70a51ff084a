"""Command-line surface: scenario generation, bandwidth precompute,
re-ranking, evaluation, parameter sweeps, and timing benchmarks.

Exit codes: 0 success, 2 usage, 3 data/format, 4 internal error.  A
probe file whose id names a gallery sample with another vector is a data
error: probe and gallery ids share one namespace.  So is a truth file
whose match id is not a gallery id; its rows for probes absent from the
probe file are not scored, with one warning.
Set DAKR_LOG=debug|info|warning|error to control verbosity.  Data outputs
are byte-stable for a fixed seed; wall-clock figures go to stdout or to a
separate timings file, never into data files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .core import DistanceMetric, FeatureSet
from .errors import DakrError, EmptyGallery, FormatError, InvalidParams, MissingTruth
from .errors import OutOfRange, StaleSigmaTable
from .evaluation import (
    DEFAULT_RANKS,
    SCENARIO_KINDS,
    evaluate_methods,
    generate_scenario,
    k_sweep,
)
from .fileio import (
    read_features,
    read_sigma_sidecar,
    read_truth_csv,
    sigma_table_from_sidecar,
    write_csv_rows,
    write_features_binary,
    write_features_csv,
    write_json,
    write_rankings_csv,
    write_sigma_sidecar,
    write_truth_csv,
)
from .kernels import compute_sigma_table, default_k_sigma
from .neighbors import GALLERY_ONLY, WITH_PROBES
from .rerank import (
    DAKR_METHODS, NEIGHBOR_METHODS, offline_phase, parse_method_token, rank_probe, rerank,
    resolve_policy,
)

log = logging.getLogger("dakr")

_BENCH_METHODS = ("knn", "inn", "inv_dakr", "bi_dakr")


def _configure_logging() -> None:
    level = os.environ.get("DAKR_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _non_negative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_int_list(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _method_tokens(parser: argparse.ArgumentParser, text: str, k: int | None = 1) -> list[str]:
    """The comma-separated method tokens of ``text``; an unknown or repeated
    method, or k-INN/k-RNN without a k, is a usage error."""
    tokens = [m.strip() for m in text.split(",") if m.strip()]
    if len(set(tokens)) != len(tokens):
        parser.error(f"--method lists a method twice: {text!r}")
    for token in tokens:
        try:
            method, _ = parse_method_token(token)
        except InvalidParams as exc:
            parser.error(str(exc))
        if method in NEIGHBOR_METHODS and k is None:
            parser.error(f"--method {token} requires --k")
    return tokens


def _existing(parser: argparse.ArgumentParser, path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        parser.error(f"{what} file not found: {p}")
    return p


def _read_probes(parser: argparse.ArgumentParser, path: str, gallery: FeatureSet) -> FeatureSet:
    """The probe file, which must match the gallery's dimension; a probe
    whose id is a gallery id is that gallery sample, so it must carry the
    same vector."""
    probes_path = _existing(parser, path, "probes")
    probes = read_features(probes_path)
    if probes.dim != gallery.dim:
        raise FormatError(f"{probes_path}: probe dim {probes.dim} != gallery dim {gallery.dim}")
    shared = np.flatnonzero(np.isin(probes.ids, gallery.ids))
    order = np.argsort(gallery.ids)
    rows = order[np.searchsorted(gallery.ids, probes.ids[shared], sorter=order)]
    differs = np.any(probes.vectors[shared] != gallery.vectors[rows], axis=1)
    if differs.any():
        raise FormatError(
            f"{probes_path}: probe id {probes.ids[shared[differs.argmax()]]} is a gallery id, "
            "but its vector differs from that gallery sample's"
        )
    return probes


def _build_metric(parser: argparse.ArgumentParser, args, dim: int) -> DistanceMetric:
    """The metric for features of dimension ``dim``; a matrix file that
    is not a numeric PSD ``dim`` x ``dim`` matrix is a data error."""
    if args.metric in ("euclidean", "squared_euclidean"):
        if args.metric_matrix:
            parser.error(f"--metric-matrix is not used with {args.metric}")
        return DistanceMetric(args.metric)
    if not args.metric_matrix:
        parser.error(f"--metric {args.metric} requires --metric-matrix")
    path = _existing(parser, args.metric_matrix, "metric matrix")
    try:
        metric = DistanceMetric.mahalanobis(np.loadtxt(path, delimiter=",", ndmin=2))
    except (ValueError, DakrError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if len(metric.matrix) != dim:
        raise FormatError(f"{path}: matrix size {len(metric.matrix)} != feature dim {dim}")
    return metric


def _add_compute_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metric",
        default="euclidean",
        choices=["euclidean", "squared_euclidean", "mahalanobis"],
    )
    sub.add_argument("--metric-matrix", help="CSV matrix for mahalanobis")
    sub.add_argument("--threads", type=_positive_int, default=os.cpu_count())


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=list(SCENARIO_KINDS))
    sub.add_argument("--n-identities", type=int, default=100)
    sub.add_argument("--shots-per-id", type=int, default=1)
    sub.add_argument("--n-distractors", type=int, default=0)
    sub.add_argument("--dim", type=int, default=16)
    sub.add_argument("--cluster-spread", type=float, default=0.21)
    sub.add_argument("--seed", type=_non_negative_int, default=0)


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    """The input, scenario, rank, metric, thread and output flags of eval and sweep."""
    sub.add_argument("--gallery")
    sub.add_argument("--probes")
    sub.add_argument("--truth")
    _add_scenario_flags(sub)
    sub.add_argument("--ranks", type=_positive_int_list, default=list(DEFAULT_RANKS))
    _add_compute_flags(sub)
    sub.add_argument("--out", required=True, help="report base path")


def _scenario_from_args(parser: argparse.ArgumentParser, args, trial: int = 0):
    try:
        return generate_scenario(
            args.scenario,
            n_identities=args.n_identities,
            shots_per_id=args.shots_per_id,
            n_distractors=args.n_distractors,
            dim=args.dim,
            cluster_spread=args.cluster_spread,
            seed=args.seed + trial,
        )
    except InvalidParams as exc:
        parser.error(str(exc))


def _load_eval_data(parser, args):
    """Either the three input files or a synthetic scenario, never both."""
    have_files = args.gallery or args.probes or args.truth
    if args.scenario and have_files:
        parser.error("give either input files or --scenario, not both")
    if args.scenario:
        return _scenario_from_args(parser, args)
    if not (args.gallery and args.probes and args.truth):
        parser.error("need --gallery, --probes and --truth (or --scenario)")
    gallery = read_features(_existing(parser, args.gallery, "gallery"))
    probes = _read_probes(parser, args.probes, gallery)
    truth_path = _existing(parser, args.truth, "truth")
    truth = read_truth_csv(truth_path)
    _check_truth(truth_path, truth, gallery, probes)
    return gallery, probes, truth


def _check_truth(path: Path, truth, gallery: FeatureSet, probes: FeatureSet) -> None:
    """A match id that is not a gallery id can never be ranked, so it is a
    data error; rows for probes absent from the probe file are not scored,
    which one warning reports."""
    gallery_ids = set(gallery.ids.tolist())
    for probe_id in sorted(truth.matches):
        absent = truth.matches[probe_id] - gallery_ids
        if absent:
            raise FormatError(
                f"{path}: match id {min(absent)} of probe {probe_id} is not a gallery id"
            )
    unscored = truth.matches.keys() - set(probes.ids.tolist())
    if unscored:
        log.warning(
            "%s: rows for %d probe id(s) absent from the probe file are not scored (first: %d)",
            path, len(unscored), min(unscored),
        )


def cmd_gen(parser, args) -> int:
    if not args.scenario:
        parser.error("gen requires --scenario")
    gallery, probes, truth = _scenario_from_args(parser, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "bin":
        write_features_binary(gallery, out / "gallery.fst")
        write_features_binary(probes, out / "probes.fst")
    else:
        write_features_csv(gallery, out / "gallery.csv")
        write_features_csv(probes, out / "probes.csv")
    write_truth_csv(truth, out / "truth.csv")
    print(
        f"wrote {len(gallery)} gallery / {len(probes)} probe samples "
        f"(dim={gallery.dim}) to {out}"
    )
    return 0


def cmd_sigma(parser, args) -> int:
    gallery = read_features(_existing(parser, args.gallery, "gallery"))
    metric = _build_metric(parser, args, gallery.dim)
    if bool(args.probes) != args.with_probes:
        parser.error("--probes and --with-probes go together")
    probes = _read_probes(parser, args.probes, gallery) if args.probes else None
    k_sigma = args.k_sigma or default_k_sigma(len(gallery))
    policy = resolve_policy(WITH_PROBES if args.with_probes else GALLERY_ONLY, probes)
    started = time.perf_counter()
    table = compute_sigma_table(gallery, metric, k_sigma, policy, n_threads=args.threads)
    offline_ms = (time.perf_counter() - started) * 1e3
    write_sigma_sidecar(table, args.out)
    print(f"offline_ms={offline_ms:.3f}")
    log.info("bandwidths for %d samples written to %s", len(table.gallery_sigmas), args.out)
    return 0


def cmd_rerank(parser, args) -> int:
    gallery = read_features(_existing(parser, args.gallery, "gallery"))
    probes = _read_probes(parser, args.probes, gallery)
    metric = _build_metric(parser, args, gallery.dim)
    tokens = _method_tokens(parser, args.method, args.k)
    if len(tokens) != 1:
        parser.error("rerank takes exactly one --method")
    method, mode = parse_method_token(tokens[0])
    if args.sigma_table and method not in DAKR_METHODS:
        parser.error(f"--sigma-table is not used with --method {method}")
    policy = resolve_policy(mode, probes)

    table = None
    if args.sigma_table:
        record = read_sigma_sidecar(_existing(parser, args.sigma_table, "sigma table"))
        table = sigma_table_from_sidecar(record, gallery, metric, policy)

    rankings = rerank(
        method,
        probes,
        gallery,
        metric,
        k=args.k,
        k_sigma=args.k_sigma,
        policy=policy,
        table=table,
        n_threads=args.threads,
    )
    token = method + ("+" if policy.mode == WITH_PROBES else "")
    write_rankings_csv(rankings, token, args.out)
    log.info("wrote rankings for %d probes to %s", len(rankings), args.out)
    return 0


def cmd_eval(parser, args) -> int:
    gallery, probes, truth = _load_eval_data(parser, args)
    metric = _build_metric(parser, args, gallery.dim)
    methods = _method_tokens(parser, args.method, args.k)
    report = evaluate_methods(
        gallery,
        probes,
        truth,
        methods,
        metric=metric,
        k=args.k,
        k_sigma=args.k_sigma,
        ranks=args.ranks,
        n_threads=args.threads,
    )
    base = Path(args.out)
    write_json(report.to_json_dict(), base.with_suffix(".json"))
    write_csv_rows(
        report.csv_rows(),
        ["method", "k", "k_sigma", "rank", "cmc", "map"],
        base.with_suffix(".csv"),
    )
    write_json(report.timings_dict(), base.with_suffix(".timings.json"))
    for result in report.results:
        summary = " ".join(
            f"r{rank}={result.cmc[rank - 1]:.4f}" for rank in report.ranks
        )
        print(f"{result.method}: {summary} mAP={result.mean_ap:.4f}")
    return 0


def cmd_sweep(parser, args) -> int:
    methods = _method_tokens(parser, args.method)
    k_values = args.k_values
    if args.scenario:
        trials = [_scenario_from_args(parser, args, t) for t in range(args.trials or 10)]
    elif args.trials is not None:
        parser.error("--trials is used only with --scenario")
    else:
        trials = [_load_eval_data(parser, args)]
    metric = _build_metric(parser, args, trials[0][0].dim)
    ranks, curves = k_sweep(
        methods, trials, k_values, metric=metric, ranks=args.ranks, n_threads=args.threads
    )
    payload = {
        "ranks": list(ranks),
        "k_values": k_values,
        "trials": len(trials),
        "gains": {
            method: {str(k): [float(g) for g in gains] for k, gains in curve.items()}
            for method, curve in curves.items()
        },
    }
    base = Path(args.out)
    write_json(payload, base.with_suffix(".json"))
    rows = [
        {
            "method": method,
            "k": k,
            "rank": rank,
            "gain": float(curves[method][k][i]),
        }
        for method in methods
        for k in k_values
        for i, rank in enumerate(ranks)
    ]
    write_csv_rows(rows, ["method", "k", "rank", "gain"], base.with_suffix(".csv"))
    print(f"swept {len(methods)} methods over k={k_values} on {len(trials)} trials")
    return 0


def _bench_methods(tokens, gallery, probes, metric, k, k_sigma):
    """(offline_ms, median online ms per probe) of every method token.

    Each token goes through the same offline phase as ``eval`` first.  The
    tokens then take turns probe by probe, so a drift in host speed lands
    on all of them alike.  A probe is ranked by the library's per-probe API,
    so inverse neighbor scans pay their full online cost on each probe; it
    counts its fastest of up to 5 calls, stopping once 50 ms are spent.
    """
    phases = [offline_phase(token, probes, gallery, metric, k_sigma) for token in tokens]

    def run(phase, row):
        method, policy, table, _ = phase
        pid, vec = int(probes.ids[row]), probes.vectors[row]
        rank_probe(method, pid, vec, gallery, metric, k, table, policy)

    for phase in phases:
        run(phase, 0)  # warmup, excluded from timing
    samples = [[] for _ in phases]
    for row in range(len(probes)):
        for phase, best in zip(phases, samples):
            calls = []
            while len(calls) < 5 and sum(calls) < 0.05:
                started = time.perf_counter()
                run(phase, row)
                calls.append(time.perf_counter() - started)
            best.append(min(calls) * 1e3)
    return [(phase[3], float(np.median(best))) for phase, best in zip(phases, samples)]


def cmd_bench(parser, args) -> int:
    methods = _method_tokens(parser, args.method)
    if min(args.sizes) < 2:
        parser.error("--sizes must be at least 2: a bandwidth needs two reference samples")
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in args.sizes:
        gallery = FeatureSet(np.arange(n), rng.standard_normal((n, args.dim)))
        probes = FeatureSet(
            n + np.arange(args.bench_probes),
            rng.standard_normal((args.bench_probes, args.dim)),
        )
        metric = DistanceMetric.euclidean()
        k = args.k or max(1, round(0.01 * n))
        k_sigma = args.k_sigma or default_k_sigma(n)
        timings = _bench_methods(methods, gallery, probes, metric, k, k_sigma)
        for method, (offline_ms, online_ms) in zip(methods, timings):
            rows.append(
                {
                    "method": method,
                    "n": n,
                    "dim": args.dim,
                    "offline_ms": f"{offline_ms:.6f}",
                    "online_ms_per_probe": f"{online_ms:.6f}",
                }
            )
            log.info(
                "bench %s n=%d offline=%.2fms online=%.4fms/probe",
                method,
                n,
                offline_ms,
                online_ms,
            )
    write_csv_rows(
        rows, ["method", "n", "dim", "offline_ms", "online_ms_per_probe"], args.out
    )
    print(f"benchmarked {len(methods)} methods at sizes {args.sizes}")
    return 0


def _gen_flags(sub: argparse.ArgumentParser) -> None:
    _add_scenario_flags(sub)
    sub.add_argument("--format", choices=["csv", "bin"], default="csv")
    sub.add_argument("--out", required=True, help="output directory")


def _sigma_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gallery", required=True)
    sub.add_argument("--probes")
    sub.add_argument("--with-probes", action="store_true")
    sub.add_argument("--k-sigma", type=_positive_int)
    _add_compute_flags(sub)
    sub.add_argument("--out", required=True)


def _rerank_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gallery", required=True)
    sub.add_argument("--probes", required=True)
    sub.add_argument("--method", default="knn")
    sub.add_argument("--k", type=_positive_int)
    sub.add_argument("--k-sigma", type=_positive_int)
    sub.add_argument("--sigma-table")
    _add_compute_flags(sub)
    sub.add_argument("--out", required=True)


def _eval_flags(sub: argparse.ArgumentParser) -> None:
    _add_report_flags(sub)
    sub.add_argument("--method", default="knn")
    sub.add_argument("--k", type=_positive_int)
    sub.add_argument("--k-sigma", type=_positive_int)


def _sweep_flags(sub: argparse.ArgumentParser) -> None:
    _add_report_flags(sub)
    sub.add_argument("--trials", type=_positive_int, help="scenario trials (default 10)")
    sub.add_argument("--method", default="inv_dakr,bi_dakr")
    sub.add_argument("--k-values", type=_positive_int_list, default=[1, 2, 5, 10, 20])


def _bench_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sizes", type=_positive_int_list, default=[1000, 2000, 4000, 8000])
    sub.add_argument("--dim", type=_positive_int, default=64)
    sub.add_argument("--method", default=",".join(_BENCH_METHODS))
    sub.add_argument("--k", type=_positive_int)
    sub.add_argument("--k-sigma", type=_positive_int)
    sub.add_argument("--bench-probes", type=_positive_int, default=5)
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument("--out", required=True)


# Each command's help line, flags and handler, in the order --help lists them.
COMMANDS = {
    "gen": ("write a synthetic scenario to files", _gen_flags, cmd_gen),
    "sigma": ("precompute the bandwidth sidecar", _sigma_flags, cmd_sigma),
    "rerank": ("rank the gallery for every probe", _rerank_flags, cmd_rerank),
    "eval": ("CMC/mAP report for one or more methods", _eval_flags, cmd_eval),
    "sweep": ("per-rank gain over the k-NN baseline vs k", _sweep_flags, cmd_sweep),
    "bench": ("offline/online wall-clock table", _bench_flags, cmd_bench),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every command's sub-parser, or only ``command``'s if it names one, with a metavar
    that keeps the usage line (on all six it would rename the choice errors)."""
    parser = argparse.ArgumentParser(
        prog="dakr",
        description="Density-adaptive kernel re-ranking toolkit",
    )
    parser.add_argument("--version", action="version", version=f"dakr {__version__}")
    names = [command] if command in COMMANDS else list(COMMANDS)
    metavar = None if len(names) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_flags, _ = COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    root = logging.getLogger()
    host_logging = root.handlers[:], root.level
    _configure_logging()
    with warnings.catch_warnings():
        # Each warning is one dakr log line, its message alone, until the command returns.
        warnings.showwarning = lambda message, *_: log.warning("%s", message)
        try:
            args = parser.parse_args(argv)
            return COMMANDS[args.command][2](parser, args)
        except (FormatError, StaleSigmaTable, MissingTruth, EmptyGallery, OutOfRange, OSError) as exc:
            print(f"dakr: error: {exc}", file=sys.stderr)
            return 3
        except DakrError as exc:
            print(f"dakr: internal error: {exc}", file=sys.stderr)
            return 4
        finally:
            # The host's root logging is as it was, whichever way the command ends.
            root.handlers[:], root.level = host_logging


if __name__ == "__main__":
    sys.exit(main())
