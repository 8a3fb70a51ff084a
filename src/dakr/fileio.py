"""File formats: feature matrices (CSV and packed binary), ground-truth
pairs, bandwidth sidecars, rankings, and report serialization.

All floats are written with ``repr`` (shortest round-trip form) and all
binary fields are little-endian, so outputs are byte-stable across runs.
Feature and ranking CSVs write their header through ``csv`` and their
rows as one ``%``-format per block (``%d`` for integers, ``%r`` for
floats), one ``fh.write`` each; numbers never need quoting, and a ranking
row's free-form fields (probe id, method) are quoted once through
``csv``, so the bytes are those of a ``csv.writer`` row by row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import struct
from contextlib import contextmanager
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
SIGMA_MAGIC = b"SGT2"
_POLICY_TO_BYTE = {GALLERY_ONLY: 0, WITH_PROBES: 1}
_BYTE_TO_POLICY = {v: k for k, v in _POLICY_TO_BYTE.items()}
# Feature rows per %-format and write.
_ROWS_PER_WRITE = 1024


def _csv_field(value) -> str:
    """``value`` as the csv module writes it inside a row, escaped for use
    in a %-format."""
    buf = io.StringIO()
    # A second, empty field: a lone empty field would be written as "".
    # The default line end stays, since it decides what needs quoting.
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3].replace("%", "%%")


@contextmanager
def _csv_rows(path: Path):
    """The header of the CSV file ``path`` and its other non-empty rows, as
    (line number, fields); a ValueError or OSError raised while the file
    is open, other than a FormatError, becomes a FormatError naming it."""
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            yield header, ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
    except FormatError:
        raise
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


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
    row = "%d" + ",%r" * features.dim + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for start in range(0, len(features), _ROWS_PER_WRITE):
            ids = features.ids[start:start + _ROWS_PER_WRITE, None]
            vectors = features.vectors[start:start + _ROWS_PER_WRITE]
            # object cells are Python ints and floats, for %d and %r
            cells = np.hstack([ids.astype(object), vectors.astype(object)])
            fh.write(row * len(ids) % tuple(cells.ravel().tolist()))


def read_features_csv(path) -> FeatureSet:
    path = Path(path)
    with _csv_rows(path) as (header, rows):
        if not header or header[0] != "id":
            raise FormatError(f"{path}: expected header starting with 'id'")
        dim = len(header) - 1
        if dim < 1:
            raise FormatError(f"{path}: no feature columns")
        ids, vectors = [], []
        for lineno, row in rows:
            if len(row) != dim + 1:
                raise FormatError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(row)}")
            ids.append(int(row[0]))
            vectors.append([float(v) for v in row[1:]])
    if not vectors:
        raise FormatError(f"{path}: no feature rows")
    return _feature_set(path, ids, np.asarray(vectors))


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
    matches = truth.matches
    rows = [{"probe_id": p, "gallery_id": g} for p in sorted(matches) for g in sorted(matches[p])]
    write_csv_rows(rows, ["probe_id", "gallery_id"], path)


def read_truth_csv(path) -> GroundTruth:
    path = Path(path)
    matches: dict = {}
    with _csv_rows(path) as (header, rows):
        if header != ["probe_id", "gallery_id"]:
            raise FormatError(f"{path}: expected header probe_id,gallery_id")
        for lineno, row in rows:
            if len(row) != 2:
                raise FormatError(f"{path}:{lineno}: expected two fields")
            matches.setdefault(int(row[0]), set()).add(int(row[1]))
    if not matches:
        raise FormatError(f"{path}: no truth rows")
    return GroundTruth({p: frozenset(g) for p, g in matches.items()})


# --- bandwidth sidecar --------------------------------------------------------

def write_sigma_sidecar(table: SigmaTable, path) -> None:
    """Versioned binary sidecar so the offline phase survives across
    process runs: magic, u32 count, u32 k_sigma, u8 policy, 32-byte
    reference digest, then count float64 bandwidths (gallery first, then
    cached probe bandwidths under with_probes), then the SHA-256 of all
    the bytes before it."""
    sigmas = np.concatenate([table.gallery_sigmas, table.probe_sigmas])
    body = b"".join([
        SIGMA_MAGIC,
        struct.pack("<IIB", len(sigmas), table.k_sigma, _POLICY_TO_BYTE[table.policy_mode]),
        table.reference_digest,
        sigmas.astype("<f8").tobytes(),
    ])
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def read_sigma_sidecar(path) -> dict:
    """Parse the sidecar into a raw record, its path included; digest
    verification happens in :func:`sigma_table_from_sidecar` once the
    reference data is at hand."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == b"SGT1":
        raise FormatError(
            f"{path}: an SGT1 sidecar, whose bandwidths carry no checksum; "
            "re-run `dakr sigma` to rebuild it"
        )
    if blob[:4] != SIGMA_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {SIGMA_MAGIC!r}")
    if len(blob) < 45:
        raise FormatError(f"{path}: truncated header")
    count, k_sigma, policy_byte = struct.unpack("<IIB", blob[4:13])
    expected = 45 + 8 * count + 32
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        raise FormatError(f"{path}: checksum mismatch, the header or bandwidths were altered")
    if policy_byte not in _BYTE_TO_POLICY:
        raise FormatError(f"{path}: unknown policy byte {policy_byte}")
    digest = blob[13:45]
    if k_sigma < 1:
        raise FormatError(f"{path}: k_sigma must be >= 1, got {k_sigma}")
    sigmas = np.frombuffer(blob, dtype="<f8", count=count, offset=45).copy()
    if np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas)):
        raise FormatError(f"{path}: bandwidths must be positive and finite")
    return {
        "path": path,
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
    data it claims to describe; each refusal starts with the sidecar's path."""
    path = record["path"]
    if record["policy_mode"] != policy.mode:
        raise StaleSigmaTable(
            f"{path}: sidecar was built {record['policy_mode']}, requested {policy.mode}"
        )
    expected_count = len(gallery) + (0 if policy.probes is None else len(policy.probes))
    if len(record["sigmas"]) != expected_count:
        raise StaleSigmaTable(
            f"{path}: sidecar holds {len(record['sigmas'])} bandwidths, "
            f"reference data has {expected_count}"
        )
    table = bind_sigma_table(gallery, metric, record["k_sigma"], policy, record["sigmas"])
    if table.reference_digest != record["reference_digest"]:
        raise StaleSigmaTable(f"{path}: sidecar digest does not match the reference data")
    return table


# --- rankings and reports -----------------------------------------------------

def write_rankings_csv(rankings: list[RankedList], method: str, path) -> None:
    """One row per ranking entry: probe id, 1-based rank, gallery id,
    value and method; each ranking is one %-format and one write."""
    path = Path(path)
    tail = ",%d,%d,%r," + _csv_field(method) + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["probe_id", "rank", "gallery_id", "score_or_distance", "method"])
        for ranking in rankings:
            n = len(ranking.gallery_ids)
            cells = [None] * (3 * n)
            cells[0::3] = range(1, n + 1)
            cells[1::3] = ranking.gallery_ids.tolist()
            cells[2::3] = ranking.values.tolist()
            fh.write((_csv_field(ranking.probe_id) + tail) * n % tuple(cells))


def read_rankings_csv(path) -> dict:
    """Rankings grouped by probe id as [(rank, gallery_id, value, method)]."""
    path = Path(path)
    out: dict = {}
    with _csv_rows(path) as (header, rows):
        if header != ["probe_id", "rank", "gallery_id", "score_or_distance", "method"]:
            raise FormatError(f"{path}: unexpected rankings header")
        for lineno, row in rows:
            if len(row) != 5:
                raise FormatError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            probe, rank, gid, value, method = row
            out.setdefault(int(probe), []).append((int(rank), int(gid), float(value), method))
    return out


def write_json(payload: dict, path) -> None:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv_rows(rows: list[dict], fieldnames: list[str], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
