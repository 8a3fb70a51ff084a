import json
import struct

import numpy as np
import pytest

from dakr import DistanceMetric, FeatureSet, compute_sigma_table, rerank
from dakr.cli import main
from dakr.fileio import (
    read_features,
    read_rankings_csv,
    read_sigma_sidecar,
    write_features_csv,
    write_sigma_sidecar,
)


@pytest.fixture
def line_fixture(tmp_path):
    """3-point 1-D gallery plus one probe, as CSV files."""
    gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [3.0]])
    probes = FeatureSet([9], [[2.1]])
    gpath = tmp_path / "gallery.csv"
    ppath = tmp_path / "probes.csv"
    write_features_csv(gallery, gpath)
    write_features_csv(probes, ppath)
    return gallery, probes, gpath, ppath


def run(*argv):
    return main([str(a) for a in argv])


SCENARIO = ["--scenario", "perfect_single_shot", "--n-identities", "4"]


class TestGen:
    def test_writes_scenario_files(self, tmp_path):
        out = tmp_path / "data"
        code = run(
            "gen", "--scenario", "perfect_single_shot", "--n-identities", "10",
            "--dim", "4", "--cluster-spread", "0.2", "--seed", "3", "--out", out,
        )
        assert code == 0
        gallery = read_features(out / "gallery.csv")
        probes = read_features(out / "probes.csv")
        assert len(gallery) == 10 and len(probes) == 10
        assert (out / "truth.csv").exists()

    def test_binary_format(self, tmp_path):
        out = tmp_path / "data"
        code = run(
            "gen", "--scenario", "perfect_single_shot", "--n-identities", "5",
            "--dim", "3", "--seed", "1", "--format", "bin", "--out", out,
        )
        assert code == 0
        assert read_features(out / "gallery.fst").dim == 3


class TestSigma:
    def test_sidecar_matches_hand_values(self, line_fixture, tmp_path, capsys):
        _, _, gpath, _ = line_fixture
        out = tmp_path / "table.sgt"
        code = run("sigma", "--gallery", gpath, "--k-sigma", "2", "--out", out)
        assert code == 0
        assert "offline_ms=" in capsys.readouterr().out
        record = read_sigma_sidecar(out)
        assert record["sigmas"].tolist() == [3.0, 2.0, 3.0]
        assert record["k_sigma"] == 2

    def test_rerun_identical_bytes(self, line_fixture, tmp_path):
        _, _, gpath, _ = line_fixture
        a, b = tmp_path / "a.sgt", tmp_path / "b.sgt"
        assert run("sigma", "--gallery", gpath, "--k-sigma", "2", "--out", a) == 0
        assert run("sigma", "--gallery", gpath, "--k-sigma", "2", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_magic_read_back(self, line_fixture, tmp_path, capsys):
        gallery, probes, gpath, ppath = line_fixture
        out = tmp_path / "table.sgt"
        assert run("sigma", "--gallery", gpath, "--k-sigma", "2", "--out", out) == 0
        blob = bytearray(out.read_bytes())
        blob[:4] = b"ZZZZ"
        out.write_bytes(bytes(blob))
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath,
            "--method", "inv_dakr", "--sigma-table", out,
            "--out", tmp_path / "r.csv",
        )
        assert code == 3
        assert "table.sgt" in capsys.readouterr().err


class TestRerank:
    def test_knn_matches_library(self, line_fixture, tmp_path):
        gallery, probes, gpath, ppath = line_fixture
        out = tmp_path / "ranks.csv"
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath,
            "--method", "knn", "--out", out,
        )
        assert code == 0
        back = read_rankings_csv(out)
        expected = rerank("knn", probes, gallery, DistanceMetric.euclidean())[0]
        assert [g for _, g, _, _ in back[9]] == expected.gallery_ids.tolist()

    def test_bi_dakr_equals_library_batch(self, line_fixture, tmp_path):
        gallery, probes, gpath, ppath = line_fixture
        out = tmp_path / "ranks.csv"
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath,
            "--method", "bi_dakr", "--k-sigma", "2", "--out", out,
        )
        assert code == 0
        back = read_rankings_csv(out)
        expected = rerank(
            "bi_dakr", probes, gallery, DistanceMetric.euclidean(), k_sigma=2
        )[0]
        assert [g for _, g, _, _ in back[9]] == expected.gallery_ids.tolist()
        assert [v for _, _, v, _ in back[9]] == expected.values.tolist()

    def test_missing_probes_file_is_usage_error(self, line_fixture, tmp_path):
        _, _, gpath, _ = line_fixture
        with pytest.raises(SystemExit) as err:
            run(
                "rerank", "--gallery", gpath, "--probes", tmp_path / "nope.csv",
                "--method", "knn", "--out", tmp_path / "r.csv",
            )
        assert err.value.code == 2

    def test_stale_sidecar_without_recompute_fails(self, line_fixture, tmp_path):
        gallery, probes, gpath, ppath = line_fixture
        stale_gallery = FeatureSet([0, 1, 2], [[0.0], [1.0], [9.0]])
        table = compute_sigma_table(stale_gallery, DistanceMetric.euclidean(), 2)
        sidecar = tmp_path / "stale.sgt"
        write_sigma_sidecar(table, sidecar)
        out = tmp_path / "r.csv"
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath,
            "--method", "inv_dakr", "--sigma-table", sidecar, "--out", out,
        )
        assert code == 3

    def test_sidecar_of_other_k_sigma_fails(self, line_fixture, tmp_path):
        gallery, probes, gpath, ppath = line_fixture
        sidecar = tmp_path / "k2.sgt"
        write_sigma_sidecar(compute_sigma_table(gallery, DistanceMetric.euclidean(), 2), sidecar)
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath, "--method", "inv_dakr",
            "--k-sigma", "3", "--sigma-table", sidecar, "--out", tmp_path / "r.csv",
        )
        assert code == 3

    def test_valid_sidecar_used(self, line_fixture, tmp_path):
        gallery, probes, gpath, ppath = line_fixture
        table = compute_sigma_table(gallery, DistanceMetric.euclidean(), 2)
        sidecar = tmp_path / "table.sgt"
        write_sigma_sidecar(table, sidecar)
        out = tmp_path / "r.csv"
        code = run(
            "rerank", "--gallery", gpath, "--probes", ppath,
            "--method", "inv_dakr", "--sigma-table", sidecar, "--out", out,
        )
        assert code == 0


class TestEval:
    def test_noiseless_scenario_all_methods_perfect(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = run(
            "eval", "--scenario", "perfect_single_shot", "--n-identities", "8",
            "--dim", "3", "--cluster-spread", "0.0", "--seed", "2",
            "--method", "knn,inn,rnn,inv_dakr,bi_dakr", "--k", "3",
            "--ranks", "1,5", "--out", out,
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        for result in payload["results"]:
            assert result["cmc"][0] == 1.0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.timings.json").exists()
        assert "offline_ms" not in (tmp_path / "report.json").read_text()

    def test_file_inputs_and_hand_cmc(self, tmp_path):
        # two probes with matches at positions 2 and 4 of a 4-item gallery
        gallery = FeatureSet([0, 1, 2, 3], [[0.0], [1.0], [2.0], [3.0]])
        probes = FeatureSet([10, 11], [[0.9], [2.9]])
        write_features_csv(gallery, tmp_path / "g.csv")
        write_features_csv(probes, tmp_path / "p.csv")
        (tmp_path / "t.csv").write_text(
            "probe_id,gallery_id\n10,2\n11,0\n"
        )
        out = tmp_path / "report"
        code = run(
            "eval", "--gallery", tmp_path / "g.csv", "--probes", tmp_path / "p.csv",
            "--truth", tmp_path / "t.csv", "--method", "knn",
            "--ranks", "1,2,3,4", "--out", out,
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        # probe 10 ranks [1,0,2,3] -> match 2 at position 3
        # probe 11 ranks [3,2,1,0] -> match 0 at position 4
        assert payload["results"][0]["cmc"] == [0.0, 0.0, 0.5, 1.0]

    def test_requires_exactly_one_input_source(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("eval", "--method", "knn", "--out", tmp_path / "r")
        assert err.value.code == 2


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--scenario", "perfect_single_shot", "--n-identities", "10",
            "--dim", "3", "--cluster-spread", "0.25", "--seed", "1",
            "--trials", "2", "--method", "knn,bi_dakr", "--k-values", "1,2",
            "--ranks", "1,5", "--out", out,
        )
        assert code == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["trials"] == 2
        assert payload["gains"]["knn"]["1"] == [0.0, 0.0]
        assert set(payload["gains"]) == {"knn", "bi_dakr"}


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, method",
        [
            pytest.param(command, method, id=command if method == "foo" else f"{command}-{method}")
            for method in ("foo", "knn,knn", "knn+")
            for command in ("rerank", "eval", "sweep", "bench")
        ],
    )
    def test_unknown_method_is_usage_error(self, line_fixture, tmp_path, command, method):
        _, _, gpath, ppath = line_fixture
        inputs = {
            "rerank": ["--gallery", gpath, "--probes", ppath],
            "eval": ["--scenario", "perfect_single_shot", "--n-identities", "4"],
            "sweep": ["--scenario", "perfect_single_shot", "--n-identities", "4"],
            "bench": ["--sizes", "20", "--dim", "2"],
        }[command]
        with pytest.raises(SystemExit) as err:
            run(command, *inputs, "--method", method, "--out", tmp_path / "out")
        assert err.value.code == 2

    def test_rerank_takes_one_method(self, line_fixture, tmp_path):
        _, _, gpath, ppath = line_fixture
        with pytest.raises(SystemExit) as err:
            run(
                "rerank", "--gallery", gpath, "--probes", ppath,
                "--method", "knn,inv_dakr", "--out", tmp_path / "r.csv",
            )
        assert err.value.code == 2

    def test_eval_inn_without_k_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(
                "eval", "--scenario", "perfect_single_shot", "--n-identities", "4",
                "--method", "knn,inn", "--out", tmp_path / "r",
            )
        assert err.value.code == 2

    def test_rerank_rnn_without_k_is_usage_error(self, line_fixture, tmp_path):
        _, _, gpath, ppath = line_fixture
        with pytest.raises(SystemExit) as err:
            run(
                "rerank", "--gallery", gpath, "--probes", ppath,
                "--method", "rnn", "--out", tmp_path / "r.csv",
            )
        assert err.value.code == 2

    def test_rerank_zero_k_sigma_is_usage_error(self, line_fixture, tmp_path):
        _, _, gpath, ppath = line_fixture
        with pytest.raises(SystemExit) as err:
            run(
                "rerank", "--gallery", gpath, "--probes", ppath,
                "--method", "inv_dakr", "--k-sigma", "0", "--out", tmp_path / "r.csv",
            )
        assert err.value.code == 2

    def test_sigma_zero_k_sigma_is_usage_error(self, line_fixture, tmp_path):
        _, _, gpath, _ = line_fixture
        with pytest.raises(SystemExit) as err:
            run("sigma", "--gallery", gpath, "--k-sigma", "0", "--out", tmp_path / "t.sgt")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", *SCENARIO, "--ranks", "x"],
            ["eval", *SCENARIO, "--ranks", "0,5"],
            ["eval", *SCENARIO, "--ranks", ","],
            ["eval", "--scenario", "perfect_single_shot", "--n-identities", "1"],
            ["eval", *SCENARIO, "--method", "knn", "--with-probes"],
            ["rerank", "--gallery", "g.csv", "--probes", "p.csv", "--with-probes"],
            ["sweep", *SCENARIO, "--k-values", "x"],
            ["sweep", *SCENARIO, "--k-values", "0"],
            ["sweep", *SCENARIO, "--ranks", "-1"],
            ["sweep", *SCENARIO, "--trials", "0"],
            ["sweep", "--scenario", "multi_shot", "--n-identities", "4", "--dim", "0"],
            ["bench", "--sizes", "x"],
            ["bench", "--sizes", "0"],
            ["bench", "--dim", "0"],
            ["bench", "--dim", "-1"],
            ["eval", *SCENARIO, "--threads", "0"],
            ["sweep", *SCENARIO, "--threads", "-2"],
            ["bench", "--sizes", "1", "--method", "inv_dakr"],
            ["bench", "--sizes", "20,1", "--method", "knn"],
            ["gen", *SCENARIO, "--seed", "-1"],
            ["eval", *SCENARIO, "--seed", "-1"],
            ["sweep", *SCENARIO, "--seed", "-1"],
            ["bench", "--sizes", "20", "--method", "knn", "--seed", "-1"],
            ["gen", *SCENARIO, "--cluster-spread", "nan"],
            ["eval", *SCENARIO, "--cluster-spread", "nan"],
            ["sweep", *SCENARIO, "--cluster-spread", "inf"],
        ],
    )
    def test_bad_list_count_or_scenario_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", tmp_path / "out")
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["sigma", "rerank"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_usage_error(self, line_fixture, tmp_path, command, threads):
        _, _, gpath, ppath = line_fixture
        inputs = {"sigma": ["--gallery", gpath], "rerank": ["--gallery", gpath, "--probes", ppath]}
        with pytest.raises(SystemExit) as err:
            run(command, *inputs[command], "--threads", threads, "--out", tmp_path / "out")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["sigma", "--probes", "PROBES"],
            ["rerank", "--probes", "PROBES", "--method", "knn", "--sigma-table", "TABLE"],
            ["rerank", "--probes", "PROBES", "--method", "knn", "--sigma-table", "missing.sgt"],
            ["rerank", "--probes", "PROBES", "--method", "rnn", "--k", "1", "--recompute"],
            ["rerank", "--probes", "PROBES", "--method", "inv_dakr", "--recompute"],
            ["sweep", "--probes", "PROBES", "--truth", "TRUTH", "--trials", "3"],
        ],
    )
    def test_ignored_input_is_usage_error(self, line_fixture, tmp_path, flags):
        gallery, _, gpath, ppath = line_fixture
        table = tmp_path / "table.sgt"
        write_sigma_sidecar(compute_sigma_table(gallery, DistanceMetric.euclidean(), 1), table)
        truth = tmp_path / "truth.csv"
        truth.write_text("probe_id,gallery_id\n9,2\n")
        files = {"PROBES": ppath, "TABLE": table, "TRUTH": truth}
        argv = [flags[0], "--gallery", gpath, *(files.get(f, f) for f in flags[1:])]
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", tmp_path / "out")
        assert err.value.code == 2

    @pytest.mark.parametrize("method", ["knn", "inv_dakr", "bi_dakr"])
    def test_empty_pool_is_data_error(self, tmp_path, capsys, method):
        # The probe is the gallery's only sample, so its pool is empty.
        write_features_csv(FeatureSet([0], [[1.0]]), tmp_path / "g.csv")
        code = run(
            "rerank", "--gallery", tmp_path / "g.csv", "--probes", tmp_path / "g.csv",
            "--method", method, "--out", tmp_path / "r.csv",
        )
        assert code == 3
        assert "internal error" not in capsys.readouterr().err

    def test_missing_truth_is_data_error(self, line_fixture, tmp_path, capsys):
        _, _, gpath, ppath = line_fixture
        truth = tmp_path / "truth.csv"
        truth.write_text("probe_id,gallery_id\n25,2\n")  # nothing for probe 9
        code = run(
            "eval", "--gallery", gpath, "--probes", ppath, "--truth", truth,
            "--method", "knn", "--ranks", "1", "--out", tmp_path / "r",
        )
        assert code == 3
        assert "dakr: error: no ground truth for probe 9\n" in capsys.readouterr().err

    def test_duplicate_ids_in_features_is_data_error(self, line_fixture, tmp_path, capsys):
        _, _, gpath, ppath = line_fixture
        bad = tmp_path / "dup.csv"
        bad.write_text("id,f0\n0,0.0\n0,1.0\n")
        code = run(
            "rerank", "--gallery", bad, "--probes", ppath,
            "--method", "knn", "--out", tmp_path / "r.csv",
        )
        assert code == 3
        assert "dup.csv" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "fault",
        [
            "sidecar_sigma_zero",
            "sidecar_sigma_nan",
            "sidecar_k_sigma_zero",
            "matrix_not_psd",
            "matrix_wrong_size",
            "matrix_not_numeric",
            "probe_dim_rerank",
            "probe_dim_sigma",
        ],
    )
    def test_data_fault_names_the_file(self, line_fixture, tmp_path, capsys, fault):
        gallery, _, gpath, ppath = line_fixture
        bad = tmp_path / "faulty.dat"
        rerank = ["rerank", "--gallery", gpath, "--probes", ppath, "--method", "inv_dakr"]
        if fault.startswith("sidecar"):
            write_sigma_sidecar(compute_sigma_table(gallery, DistanceMetric.euclidean(), 1), bad)
            blob = bytearray(bad.read_bytes())
            if fault == "sidecar_k_sigma_zero":
                blob[8:12] = struct.pack("<I", 0)
            else:
                blob[45:53] = struct.pack("<d", 0.0 if fault == "sidecar_sigma_zero" else np.nan)
            bad.write_bytes(bytes(blob))
            argv = [*rerank, "--sigma-table", bad]
        elif fault.startswith("matrix"):
            text = {"matrix_not_psd": "-1\n", "matrix_wrong_size": "1,0\n0,1\n"}
            bad.write_text(text.get(fault, "x\n"))
            argv = [*rerank, "--metric", "mahalanobis", "--metric-matrix", bad]
        else:
            write_features_csv(FeatureSet([9], [[2.1, 0.0]]), bad)
            argv = {
                "probe_dim_rerank": ["rerank", "--gallery", gpath, "--probes", bad],
                "probe_dim_sigma": ["sigma", "--gallery", gpath, "--probes", bad, "--with-probes"],
            }[fault]
        assert run(*argv, "--out", tmp_path / "out") == 3
        assert "faulty.dat" in capsys.readouterr().err


class TestBench:
    def test_augmented_kernel_methods_run(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--sizes", "50", "--dim", "4",
            "--method", "inv_dakr+,bi_dakr+", "--bench-probes", "3", "--out", out,
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["inv_dakr+", "bi_dakr+"]

    def test_tiny_bench_runs(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--sizes", "50,100", "--dim", "8",
            "--method", "knn,inv_dakr", "--bench-probes", "2", "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,n,dim,offline_ms,online_ms_per_probe"
        assert len(lines) == 5
