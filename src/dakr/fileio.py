"""File formats: feature matrices (CSV and packed binary), ground-truth
pairs, bandwidth sidecars, rankings, and report serialization.

All floats are written with ``repr`` (shortest round-trip form) and all
binary fields are little-endian, so outputs are byte-stable across runs.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .core import DistanceMetric, FeatureSet, RankedList
from .errors import DakrError, FormatError, StaleSigmaTable
from .evaluation import GroundTruth
# reference_digest is not called here; it stays importable because
# perfbench/tracing.py wraps dakr.fileio.reference_digest.
from .kernels import SigmaTable, bind_sigma_table, reference_digest
from .neighbors import GALLERY_ONLY, WITH_PROBES, AugmentationPolicy

FEATURE_MAGIC = b"FST1"
SIGMA_MAGIC = b"SGT1"
_POLICY_TO_BYTE = {GALLERY_ONLY: 0, WITH_PROBES: 1}
_BYTE_TO_POLICY = {v: k for k, v in _POLICY_TO_BYTE.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


# --- feature matrices -------------------------------------------------------

def _feature_set(path: Path, ids, vectors) -> FeatureSet:
    """Validate parsed columns: duplicate or negative ids and non-finite
    values are faults of the file, reported with its path."""
    try:
        return FeatureSet(ids, vectors)
    except (DakrError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_features_csv(features: FeatureSet, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for sample_id, row in zip(features.ids, features.vectors):
            writer.writerow([int(sample_id)] + [_fmt(v) for v in row])


def read_features_csv(path) -> FeatureSet:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "id":
                raise FormatError(f"{path}: expected header starting with 'id'")
            dim = len(header) - 1
            if dim < 1:
                raise FormatError(f"{path}: no feature columns")
            ids, rows = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise FormatError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(row)}")
                ids.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
    except (ValueError, OSError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no feature rows")
    return _feature_set(path, ids, np.asarray(rows))


def write_features_binary(features: FeatureSet, path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", len(features), features.dim))
        fh.write(features.ids.astype("<u8").tobytes())
        fh.write(features.vectors.astype("<f4").tobytes())


def read_features_binary(path) -> FeatureSet:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    n, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * n + 4 * n * d
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    ids = np.frombuffer(blob, dtype="<u8", count=n, offset=12)
    if np.any(ids > np.iinfo(np.int64).max):
        raise FormatError(f"{path}: ids must be below 2**63")
    vectors = np.frombuffer(blob, dtype="<f4", count=n * d, offset=12 + 8 * n)
    # Stored as float32; promote once so every downstream sort sees float64.
    return _feature_set(path, ids.astype(np.int64), vectors.astype(np.float64).reshape(n, d))


def read_features(path) -> FeatureSet:
    """Read either format, sniffing the binary magic."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == FEATURE_MAGIC:
        return read_features_binary(path)
    return read_features_csv(path)


# --- ground truth ------------------------------------------------------------

def write_truth_csv(truth: GroundTruth, path) -> None:
    """One probe_id,gallery_id pair per row; multiple-shot truth is simply
    repeated probe ids."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_id", "gallery_id"])
        for probe_id in sorted(truth.matches):
            for gallery_id in sorted(truth.matches[probe_id]):
                writer.writerow([probe_id, gallery_id])


def read_truth_csv(path) -> GroundTruth:
    path = Path(path)
    matches: dict = {}
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["probe_id", "gallery_id"]:
                raise FormatError(f"{path}: expected header probe_id,gallery_id")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise FormatError(f"{path}:{lineno}: expected two fields")
                matches.setdefault(int(row[0]), set()).add(int(row[1]))
    except (ValueError, OSError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc
    if not matches:
        raise FormatError(f"{path}: no truth rows")
    return GroundTruth({p: frozenset(g) for p, g in matches.items()})


# --- bandwidth sidecar --------------------------------------------------------

def write_sigma_sidecar(table: SigmaTable, path) -> None:
    """Versioned binary sidecar so the offline phase survives across
    process runs: magic, u32 count, u32 k_sigma, u8 policy, 32-byte
    reference digest, then count float64 bandwidths (gallery first, then
    cached probe bandwidths under with_probes)."""
    path = Path(path)
    sigmas = table.gallery_sigmas
    if table.probe_sigmas is not None:
        sigmas = np.concatenate([sigmas, table.probe_sigmas])
    with path.open("wb") as fh:
        fh.write(SIGMA_MAGIC)
        fh.write(struct.pack("<II", len(sigmas), table.k_sigma))
        fh.write(struct.pack("<B", _POLICY_TO_BYTE[table.policy_mode]))
        fh.write(table.reference_digest)
        fh.write(sigmas.astype("<f8").tobytes())


def read_sigma_sidecar(path) -> dict:
    """Parse the sidecar into a raw record; digest verification happens in
    :func:`sigma_table_from_sidecar` once the reference data is at hand."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != SIGMA_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {SIGMA_MAGIC!r}")
    if len(blob) < 45:
        raise FormatError(f"{path}: truncated header")
    count, k_sigma = struct.unpack("<II", blob[4:12])
    policy_byte = blob[12]
    if policy_byte not in _BYTE_TO_POLICY:
        raise FormatError(f"{path}: unknown policy byte {policy_byte}")
    digest = blob[13:45]
    expected = 45 + 8 * count
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    if k_sigma < 1:
        raise FormatError(f"{path}: k_sigma must be >= 1, got {k_sigma}")
    sigmas = np.frombuffer(blob, dtype="<f8", count=count, offset=45).copy()
    if np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas)):
        raise FormatError(f"{path}: bandwidths must be positive and finite")
    return {
        "count": count,
        "k_sigma": k_sigma,
        "policy_mode": _BYTE_TO_POLICY[policy_byte],
        "reference_digest": digest,
        "sigmas": sigmas,
    }


def sigma_table_from_sidecar(
    record: dict,
    gallery: FeatureSet,
    metric: DistanceMetric,
    policy: AugmentationPolicy = AugmentationPolicy(),
) -> SigmaTable:
    """Rebuild a verified table from a sidecar record and the reference
    data it claims to describe."""
    if record["policy_mode"] != policy.mode:
        raise StaleSigmaTable(
            f"sidecar was built {record['policy_mode']}, requested {policy.mode}"
        )
    expected_count = len(gallery) + (len(policy.probes) if policy.mode == WITH_PROBES else 0)
    if record["count"] != expected_count:
        raise StaleSigmaTable(
            f"sidecar holds {record['count']} bandwidths, reference data has {expected_count}"
        )
    table = bind_sigma_table(gallery, metric, record["k_sigma"], policy, record["sigmas"])
    if table.reference_digest != record["reference_digest"]:
        raise StaleSigmaTable("sidecar digest does not match the reference data")
    return table


# --- rankings and reports -----------------------------------------------------

def write_rankings_csv(rankings: list[RankedList], method: str, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_id", "rank", "gallery_id", "score_or_distance", "method"])
        for ranking in rankings:
            for position, (gallery_id, value) in enumerate(ranking.entries, start=1):
                writer.writerow([ranking.probe_id, position, gallery_id, _fmt(value), method])


def read_rankings_csv(path) -> dict:
    """Rankings grouped by probe id as [(rank, gallery_id, value, method)]."""
    path = Path(path)
    out: dict = {}
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["probe_id", "rank", "gallery_id", "score_or_distance", "method"]:
                raise FormatError(f"{path}: unexpected rankings header")
            for row in reader:
                if not row:
                    continue
                out.setdefault(int(row[0]), []).append(
                    (int(row[1]), int(row[2]), float(row[3]), row[4])
                )
    except (ValueError, OSError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc
    return out


def write_json(payload: dict, path) -> None:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv_rows(rows: list[dict], fieldnames: list[str], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
