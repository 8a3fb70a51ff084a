import csv
import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from dakr import (
    AugmentationPolicy,
    DistanceMetric,
    FeatureSet,
    GroundTruth,
    SigmaTable,
    compute_sigma_table,
    rerank,
)
from dakr.errors import FormatError, StaleSigmaTable
from dakr.fileio import (
    read_features,
    read_features_binary,
    read_features_csv,
    read_rankings_csv,
    read_sigma_sidecar,
    read_truth_csv,
    sigma_table_from_sidecar,
    write_features_binary,
    write_features_csv,
    write_rankings_csv,
    write_sigma_sidecar,
    write_truth_csv,
)
import dakr.fileio
from dakr.core import ASCENDING_DISTANCE, DESCENDING_SCORE, RankedList

# Floats whose repr is easy to get wrong: infinities, a signed zero, the
# smallest subnormal, exponent forms and a sum with a long repr.
EDGE_FLOATS = [float("inf"), 1e16, 0.1 + 0.2, 1e-05, 5e-324, -0.0, float("-inf")]
RANKINGS_HEADER = ["probe_id", "rank", "gallery_id", "score_or_distance", "method"]


def csv_reference_rankings(rankings, method, path):
    """The rankings file as csv.writer writes it row by row, floats by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RANKINGS_HEADER)
        for ranking in rankings:
            pairs = zip(ranking.gallery_ids.tolist(), ranking.values.tolist())
            for position, (gallery_id, value) in enumerate(pairs, start=1):
                writer.writerow([ranking.probe_id, position, gallery_id, repr(value), method])


def csv_reference_features(features, path):
    """The features file as csv.writer writes it row by row, floats by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for sample_id, row in zip(features.ids.tolist(), features.vectors.tolist()):
            writer.writerow([sample_id] + [repr(v) for v in row])


@pytest.fixture
def features():
    rng = np.random.default_rng(12)
    return FeatureSet([3, 0, 7], rng.normal(size=(3, 5)))


class TestFeatureFiles:
    def test_csv_roundtrip_exact(self, features, tmp_path):
        path = tmp_path / "f.csv"
        write_features_csv(features, path)
        back = read_features_csv(path)
        assert back.ids.tolist() == features.ids.tolist()
        np.testing.assert_array_equal(back.vectors, features.vectors)

    def test_binary_roundtrip(self, features, tmp_path):
        path = tmp_path / "f.fst"
        write_features_binary(features, path)
        back = read_features_binary(path)
        assert back.ids.tolist() == features.ids.tolist()
        # stored as float32 on disk, promoted back to float64
        np.testing.assert_array_equal(
            back.vectors, features.vectors.astype(np.float32).astype(np.float64)
        )

    def test_sniffing_dispatch(self, features, tmp_path):
        csv_path = tmp_path / "a.dat"
        bin_path = tmp_path / "b.dat"
        write_features_csv(features, csv_path)
        write_features_binary(features, bin_path)
        assert read_features(csv_path).ids.tolist() == features.ids.tolist()
        assert read_features(bin_path).ids.tolist() == features.ids.tolist()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(FormatError, match="bad.csv"):
            read_features_csv(path)

    def test_csv_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,f0,f1\n0,1.0\n")
        with pytest.raises(FormatError, match="ragged.csv:2"):
            read_features_csv(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fst"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="bad.fst"):
            read_features_binary(path)

    def test_binary_truncated(self, features, tmp_path):
        path = tmp_path / "t.fst"
        write_features_binary(features, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="expected"):
            read_features_binary(path)

    @pytest.mark.parametrize(
        "rows",
        ["0,1.0\n0,2.0\n", "-1,1.0\n0,2.0\n", "0,1.0\n1,nan\n"],
        ids=["duplicate_ids", "negative_id", "nan_value"],
    )
    def test_csv_invalid_content_names_file(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0\n" + rows)
        with pytest.raises(FormatError, match="bad.csv"):
            read_features_csv(path)

    def test_binary_id_beyond_signed_range_names_file(self, tmp_path):
        # u64 id 2**63 would wrap to a negative int64
        path = tmp_path / "big.fst"
        path.write_bytes(
            b"FST1" + struct.pack("<II", 1, 1) + struct.pack("<Q", 2**63) + struct.pack("<f", 1.0)
        )
        with pytest.raises(FormatError, match="big.fst"):
            read_features_binary(path)

    def test_writes_are_byte_stable(self, features, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(features, a)
        write_features_csv(features, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rows_per_write", [None, 4])
    def test_csv_bytes_match_a_csv_writer(self, tmp_path, monkeypatch, rows_per_write):
        # finite edge values (a FeatureSet refuses infinities) over ten
        # rows, in one block or in blocks of four with a short last one
        if rows_per_write is not None:
            monkeypatch.setattr(dakr.fileio, "_ROWS_PER_WRITE", rows_per_write)
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(10, 5)) * 10.0 ** rng.integers(-300, 300, size=(10, 5))
        vectors[:, 0] = [v for v in EDGE_FLOATS if np.isfinite(v)] * 2
        features = FeatureSet(np.arange(10) * 123_456_789_011 + 3, vectors)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_features_csv(features, got)
        csv_reference_features(features, want)
        assert got.read_bytes() == want.read_bytes()


class TestTruthFiles:
    def test_roundtrip(self, tmp_path):
        truth = GroundTruth({5: {1, 2}, 6: {3}})
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        back = read_truth_csv(path)
        assert back.matches == truth.matches

    def test_bad_header(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            read_truth_csv(path)


def assert_same_table(a: SigmaTable, b: SigmaTable) -> None:
    """Every field equal, arrays by dtype and bytes."""
    for field in dataclasses.fields(SigmaTable):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            x, y = (x.dtype, x.shape, x.tobytes()), (y.dtype, y.shape, y.tobytes())
        assert x == y, field.name


class TestSigmaSidecar:
    def test_roundtrip_gallery_only(self, tmp_path):
        gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        metric = DistanceMetric.euclidean()
        table = compute_sigma_table(gallery, metric, 2)
        # A gallery-only table has an empty probe side, and its sidecar
        # holds the gallery's bandwidths alone.
        assert len(table.probe_ids) == len(table.probe_sigmas) == 0
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(table, path)
        # 45-byte header, the bandwidths, then their 32-byte SHA-256
        assert path.stat().st_size == 45 + 8 * len(gallery) + 32
        record = read_sigma_sidecar(path)
        back = sigma_table_from_sidecar(record, gallery, metric)
        assert back.k_sigma == 2
        np.testing.assert_array_equal(back.gallery_sigmas, table.gallery_sigmas)
        assert back.reference_digest == table.reference_digest
        assert_same_table(back, table)

    def test_roundtrip_with_probes(self, tmp_path):
        rng = np.random.default_rng(9)
        gallery = FeatureSet(np.arange(6), rng.normal(size=(6, 2)))
        probes = FeatureSet(np.arange(50, 53), rng.normal(size=(3, 2)))
        metric = DistanceMetric.euclidean()
        policy = AugmentationPolicy.with_probes(probes)
        table = compute_sigma_table(gallery, metric, 2, policy)
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(table, path)
        back = sigma_table_from_sidecar(read_sigma_sidecar(path), gallery, metric, policy)
        np.testing.assert_array_equal(back.gallery_sigmas, table.gallery_sigmas)
        np.testing.assert_array_equal(back.probe_sigmas, table.probe_sigmas)
        assert_same_table(back, table)

    def test_identical_bytes_across_writes(self, tmp_path):
        gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        table = compute_sigma_table(gallery, DistanceMetric.euclidean(), 1)
        a, b = tmp_path / "a.sgt", tmp_path / "b.sgt"
        write_sigma_sidecar(table, a)
        write_sigma_sidecar(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_magic_names_file(self, tmp_path):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        table = compute_sigma_table(gallery, DistanceMetric.euclidean(), 1)
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(table, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="table.sgt"):
            read_sigma_sidecar(path)

    @pytest.fixture
    def two_sample_sidecar(self, tmp_path):
        gallery = FeatureSet([0, 1], [[0.0], [1.0]])
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(compute_sigma_table(gallery, DistanceMetric.euclidean(), 1), path)
        return path

    def test_sgt1_sidecar_asks_for_a_rebuild(self, two_sample_sidecar):
        path = two_sample_sidecar
        # the version 1 layout: no checksum after the bandwidths
        path.write_bytes(b"SGT1" + path.read_bytes()[4:-32])
        with pytest.raises(FormatError, match=r"table\.sgt: an SGT1 sidecar.*re-run `dakr sigma`"):
            read_sigma_sidecar(path)

    @pytest.mark.parametrize("offset", [4, 8, 12, 13, 44, 45, 52, 61, -1])
    def test_any_altered_byte_is_refused(self, two_sample_sidecar, offset):
        path = two_sample_sidecar
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="table.sgt: (checksum mismatch|expected)"):
            read_sigma_sidecar(path)

    @pytest.mark.parametrize("size", [0, 4, 44, 45, 60, 92])
    def test_truncated_sidecar_is_refused(self, two_sample_sidecar, size):
        path = two_sample_sidecar
        assert path.stat().st_size == 93
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(FormatError, match="table.sgt"):
            read_sigma_sidecar(path)

    @pytest.mark.parametrize("field, value, message", [
        (slice(8, 12), struct.pack("<I", 0), "k_sigma must be >= 1"),
        (slice(12, 13), b"\x07", "unknown policy byte 7"),
        (slice(45, 53), struct.pack("<d", 0.0), "bandwidths must be positive"),
        (slice(45, 53), struct.pack("<d", float("nan")), "bandwidths must be positive"),
    ])
    def test_resealed_fields_are_still_checked(self, two_sample_sidecar, field, value, message):
        # a sidecar whose checksum matches its altered bytes
        path = two_sample_sidecar
        body = bytearray(path.read_bytes()[:-32])
        body[field] = value
        path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match=message):
            read_sigma_sidecar(path)

    def test_stale_against_different_gallery(self, tmp_path):
        gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        metric = DistanceMetric.euclidean()
        table = compute_sigma_table(gallery, metric, 1)
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(table, path)
        other = FeatureSet([0, 1, 2], [[0.0], [1.0], [9.0]])
        with pytest.raises(StaleSigmaTable):
            sigma_table_from_sidecar(read_sigma_sidecar(path), other, metric)

    def test_stale_against_wrong_policy(self, tmp_path):
        gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
        metric = DistanceMetric.euclidean()
        table = compute_sigma_table(gallery, metric, 1)
        path = tmp_path / "table.sgt"
        write_sigma_sidecar(table, path)
        probes = FeatureSet([9, 10], [[0.5], [2.0]])
        with pytest.raises(StaleSigmaTable):
            sigma_table_from_sidecar(
                read_sigma_sidecar(path), gallery, metric,
                AugmentationPolicy.with_probes(probes),
            )


class TestRankingsCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        gallery = FeatureSet(np.arange(5), rng.normal(size=(5, 2)))
        probes = FeatureSet([10, 11], rng.normal(size=(2, 2)))
        rankings = rerank("knn", probes, gallery, DistanceMetric.euclidean())
        path = tmp_path / "ranks.csv"
        write_rankings_csv(rankings, "knn", path)
        back = read_rankings_csv(path)
        assert set(back) == {10, 11}
        for ranked in rankings:
            rows = back[ranked.probe_id]
            assert [gid for _, gid, _, _ in rows] == ranked.gallery_ids.tolist()
            assert [v for _, _, v, _ in rows] == ranked.values.tolist()
            assert all(m == "knn" for _, _, _, m in rows)

    @pytest.mark.parametrize(
        "method",
        ["bi_dakr+", 'a,"b', "100%", "two\nlines", ""],
        ids=["token", "comma_quote", "percent", "newline", "empty"],
    )
    def test_bytes_match_a_csv_writer(self, tmp_path, method):
        rng = np.random.default_rng(43)
        rankings = [
            RankedList(np.int64(7), [3, 1, 9, 4, 2, 8, 5], EDGE_FLOATS, DESCENDING_SCORE),
            RankedList(12, [], [], ASCENDING_DISTANCE),
            RankedList(
                2**40, rng.permutation(1000)[:300], np.sort(rng.normal(size=300)),
                ASCENDING_DISTANCE,
            ),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_rankings_csv(rankings, method, got)
        csv_reference_rankings(rankings, method, want)
        assert got.read_bytes() == want.read_bytes()

    def test_no_rankings_writes_the_header_only(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_rankings_csv([], "knn", got)
        csv_reference_rankings([], "knn", want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_text() == ",".join(RANKINGS_HEADER) + "\n"



_RANKINGS = ",".join(RANKINGS_HEADER) + "\n"
_BAD_INT = "{path}: invalid literal for int() with base 10: 'x'"
_BAD_FLOAT = "{path}: could not convert string to float: 'y'"


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_features_csv, "id,f0\n0,0.5\nx,1.5\n", _BAD_INT),
        (read_features_csv, "id,f0\n0,0.5\n1,y\n", _BAD_FLOAT),
        (read_truth_csv, "probe_id,gallery_id\n5,1\n6,x\n", _BAD_INT),
        (read_truth_csv, "probe_id,gallery_id\n5,1\n6,1,2\n", "{path}:3: expected two fields"),
        (read_rankings_csv, _RANKINGS + "x,1,0,0.5,knn\n", _BAD_INT),
        (read_rankings_csv, _RANKINGS + "5,1,0,y,knn\n", _BAD_FLOAT),
        (
            read_rankings_csv,
            _RANKINGS + "5,1,0,0.5,knn\n5,2,1\n",
            "{path}:3: expected 5 fields, got 3",
        ),
        (
            read_rankings_csv,
            "probe_id,rank,gallery_id,value,method\n",
            "{path}: unexpected rankings header",
        ),
    ],
    ids=[
        "features-bad_int", "features-bad_float", "truth-bad_int", "truth-field_count",
        "rankings-bad_int", "rankings-bad_float", "rankings-field_count", "rankings-header",
    ],
)
def test_csv_reader_faults_name_the_file(tmp_path, reader, text, message):
    # The faults of each CSV reader that no other test covers.
    path = tmp_path / "faulty.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(err.value) == message.format(path=path)
