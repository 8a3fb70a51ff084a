import importlib.util
import json
import logging
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dakr
from dakr import DistanceMetric, FeatureSet, compute_sigma_table, rerank
from dakr import cli
from dakr.cli import main
from dakr.fileio import (
    read_features,
    read_rankings_csv,
    read_sigma_sidecar,
    write_features_binary,
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


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_parsers(parser) -> dict:
    return next(a for a in parser._actions if a.dest == "command").choices


class TestOneCommandParser:
    """``main`` builds only the named command's sub-parser; what it prints
    must be what the parser with all six prints."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_usage_and_help_match_the_full_parser(self, name):
        full, narrow = cli.build_parser(), cli.build_parser(name)
        assert list(command_parsers(full)) == list(cli.COMMANDS)
        assert list(command_parsers(narrow)) == [name]
        assert narrow.format_usage() == full.format_usage()
        assert command_parsers(narrow)[name].format_help() == command_parsers(full)[name].format_help()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["--version"], ["-h", "sigma"], ["bogus"], ["sigma", "--help"],
        ["eval", "--help"], ["sigma", "--gallery", "x", "--out", "y", "--bogus"],
        ["eval", "--out", "z", "--method", "nope"], ["sigma"],
        ["rerank", "--gallery", "a", "--probes", "b", "--out", "c", "--threads", "0"],
    ], ids=lambda argv: "_".join(argv) or "no-arguments")
    def test_main_prints_what_the_full_parser_prints(self, argv, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        narrowed = outcome(capsys, argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert outcome(capsys, argv) == narrowed
        assert narrowed[0] in (0, 2) and (narrowed[1] or narrowed[2])
        assert not any(tmp_path.iterdir())


class TestWarningHook:
    """A command's warnings are dakr log lines while it runs, and the host
    process's own ``warnings.showwarning`` is back once it returns."""

    @pytest.mark.parametrize("outcome_of_run, code", [("success", 0), ("usage-error", 2), ("data-error", 3)])
    def test_hook_restored_after_the_command(
        self, line_fixture, tmp_path, monkeypatch, caplog, outcome_of_run, code
    ):
        _, _, gpath, _ = line_fixture
        wide = tmp_path / "wide_probes.csv"
        write_features_csv(FeatureSet([9], [[2.1, 0.0]]), wide)
        extra = {"success": [], "usage-error": ["--bogus"],
                 "data-error": ["--probes", wide, "--with-probes"]}[outcome_of_run]
        seen = []
        monkeypatch.setattr(warnings, "showwarning", lambda message, *_: seen.append(str(message)))
        try:
            result = run("sigma", "--gallery", gpath, "--k-sigma", "5000",
                         "--out", tmp_path / "t.sgt", *extra)
        except SystemExit as exc:
            result = exc.code
        assert result == code
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.warn("unrelated library warning")
        assert seen == ["unrelated library warning"]
        dakr_lines = [r.getMessage() for r in caplog.records if r.name == "dakr"]
        assert dakr_lines == (["k_sigma=5000 exceeds pool size 2; clamping"] if code == 0 else [])

    def test_repeated_command_warns_each_time(self, line_fixture, tmp_path, caplog):
        _, _, gpath, _ = line_fixture
        for _ in range(2):
            assert run("sigma", "--gallery", gpath, "--k-sigma", "5000", "--out", tmp_path / "t.sgt") == 0
        assert [r.getMessage() for r in caplog.records if r.name == "dakr"] == [
            "k_sigma=5000 exceeds pool size 2; clamping"] * 2


class TestHostLogging:
    """``main`` logs through the root logger while a command runs, and the
    host process's root handlers and level are back once it returns."""

    HOST = """if True:
        import logging, sys
        from dakr.cli import main
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
        root = logging.getLogger()
        print(code, root.handlers, root.level)
        logging.getLogger("host").warning("host library message")
    """

    @pytest.mark.parametrize("outcome_of_run, code", [("success", 0), ("usage-error", 2), ("data-error", 3)])
    def test_root_logger_restored_after_the_command(self, line_fixture, tmp_path, outcome_of_run, code):
        # In a fresh process: pytest installs root handlers of its own.
        _, _, gpath, _ = line_fixture
        wide = tmp_path / "wide_probes.csv"
        write_features_csv(FeatureSet([9], [[2.1, 0.0]]), wide)
        extra = {"success": [], "usage-error": ["--bogus"],
                 "data-error": ["--probes", wide, "--with-probes"]}[outcome_of_run]
        argv = ["sigma", "--gallery", gpath, "--k-sigma", "5000", "--out", tmp_path / "t.sgt", *extra]
        env = {**os.environ, "DAKR_LOG": "info",
               "PYTHONPATH": str(Path(dakr.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", self.HOST, *map(str, argv)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{code} [] {logging.WARNING}"
        assert done.stderr.splitlines()[-1] == "host library message", done.stderr
        if code == 0:
            assert "WARNING dakr: k_sigma=5000 exceeds pool size 2; clamping" in done.stderr


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

    def test_subnormal_bandwidths_build(self, tmp_path, capsys):
        # squared distances and their median are subnormal; 1e-12 of that
        # median would underflow to a floor of 0 and exit 4
        gpath = tmp_path / "gallery.csv"
        write_features_csv(FeatureSet(np.arange(5), [[0.0, 0.0], [0.0, 0.0], [1e-160, 0.0],
                                                      [2e-160, 0.0], [3e-160, 0.0]]), gpath)
        out = tmp_path / "table.sgt"
        code = run("sigma", "--gallery", gpath, "--metric", "squared_euclidean",
                   "--k-sigma", "1", "--out", out)
        assert code == 0, capsys.readouterr().err
        assert np.all(read_sigma_sidecar(out)["sigmas"] > 0)

    @pytest.mark.parametrize("method", ["inv_dakr", "bi_dakr"])
    def test_subnormal_bandwidths_rank(self, tmp_path, capsys, method):
        # sigma_i*sigma_j and d*d underflow to 0 together: bi_dakr took
        # 0/0 = NaN and exited 4
        gpath, ppath = tmp_path / "gallery.csv", tmp_path / "probes.csv"
        write_features_csv(FeatureSet(np.arange(5), [[0.0, 0.0], [0.0, 0.0], [1e-160, 0.0],
                                                      [2e-160, 0.0], [3e-160, 0.0]]), gpath)
        write_features_csv(FeatureSet([9], [[1.2e-160, 0.0]]), ppath)
        out = tmp_path / "ranks.csv"
        code = run("rerank", "--gallery", gpath, "--probes", ppath, "--method", method,
                   "--metric", "squared_euclidean", "--k-sigma", "1", "--out", out)
        assert code == 0, capsys.readouterr().err
        ranked = read_rankings_csv(out)[9]
        assert sorted(g for _, g, _, _ in ranked) == [0, 1, 2, 3, 4]
        assert all(np.isfinite(v) for _, _, v, _ in ranked)

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

    def test_altered_bandwidth_is_refused(self, tmp_path, capsys):
        # a gallery-only sidecar whose first bandwidth is set to 1e308 would
        # rank by the altered value; its checksum refuses it
        data = tmp_path / "data"
        assert run("gen", "--scenario", "imperfect_single_shot", "--n-identities", "20",
                   "--n-distractors", "10", "--out", data) == 0
        files = ["--gallery", data / "gallery.csv", "--probes", data / "probes.csv"]
        sidecar = tmp_path / "gallery.sgt"
        assert run("sigma", *files[:2], "--out", sidecar) == 0
        rerank = ["rerank", *files, "--method", "inv_dakr", "--sigma-table", sidecar]
        assert run(*rerank, "--out", tmp_path / "intact.csv") == 0
        blob = bytearray(sidecar.read_bytes())
        blob[45:53] = struct.pack("<d", 1e308)
        sidecar.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(*rerank, "--out", tmp_path / "altered.csv") == 3
        assert "gallery.sgt: checksum mismatch" in capsys.readouterr().err
        assert not (tmp_path / "altered.csv").exists()

    @pytest.mark.parametrize("level, lines", [("info", 1), ("warning", 1), ("error", 0)])
    def test_with_probes_fallback_reported_once(self, line_fixture, tmp_path, level, lines):
        # In a fresh process, so that DAKR_LOG configures the logging: the
        # fallback's RuntimeWarning is one dakr line, without the library's
        # path or source line, and dakr logs no copy.
        _, _, gpath, ppath = line_fixture
        argv = ["rerank", "--gallery", gpath, "--probes", ppath, "--method", "bi_dakr+",
                "--out", tmp_path / "out.csv"]
        env = {**os.environ, "DAKR_LOG": level,
               "PYTHONPATH": str(Path(dakr.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "dakr.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("falling back to gallery_only") == lines, done.stderr
        assert "cli.py" not in done.stderr and "py.warnings" not in done.stderr
        warned = [line for line in done.stderr.splitlines() if not line.startswith("INFO dakr: ")]
        assert warned == [
            "WARNING dakr: with_probes requested but the probe set has no extra samples; "
            "falling back to gallery_only"
        ] * lines, done.stderr


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


class TestTruthFile:
    """The truth file is checked against the gallery and probe files."""

    @staticmethod
    def repro(tmp_path, rows):
        """Gallery ids 0-3 at 0.0-3.0, probes 7 -> 0.1 and 8 -> 2.9, and a
        truth file of ``rows``."""
        gpath, ppath = tmp_path / "gallery.csv", tmp_path / "probes.csv"
        write_features_csv(FeatureSet([0, 1, 2, 3], [[0.0], [1.0], [2.0], [3.0]]), gpath)
        write_features_csv(FeatureSet([7, 8], [[0.1], [2.9]]), ppath)
        tpath = tmp_path / "truth.csv"
        tpath.write_text("probe_id,gallery_id\n" + "".join(f"{row}\n" for row in rows))
        return ["--gallery", gpath, "--probes", ppath, "--truth", tpath]

    @pytest.mark.parametrize("match", ["99", "1" * 23])
    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1"]], ids=" ".join)
    def test_match_id_outside_the_gallery_is_data_error(self, tmp_path, capsys, command, match):
        files = self.repro(tmp_path, ["7,0", f"8,{match}", "55,1"])
        code = run(command[0], *files, "--method", "knn", "--ranks", "1,2", *command[1:],
                   "--out", tmp_path / "r")
        assert code == 3
        err = capsys.readouterr().err
        assert f"{files[-1]}: match id {match} of probe 8 is not a gallery id" in err
        assert "internal error" not in err and "Traceback" not in err

    def test_row_for_a_probe_outside_the_probe_file_is_one_warning(self, tmp_path):
        # In a fresh process, so that the warning reaches stderr as dakr logs it.
        env = {**os.environ, "PYTHONPATH": str(Path(dakr.__file__).resolve().parents[1])}
        reports = {}
        for name, rows in (("extra", ["7,0", "8,3", "55,1"]), ("plain", ["7,0", "8,3"])):
            (tmp_path / name).mkdir()
            files = self.repro(tmp_path / name, rows)
            argv = ["eval", *files, "--method", "knn", "--ranks", "1,2",
                    "--out", tmp_path / name / "r"]
            done = subprocess.run([sys.executable, "-m", "dakr.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            reports[name] = ((tmp_path / name / "r.json").read_bytes(), done.stderr.splitlines())
        assert reports["extra"][0] == reports["plain"][0]
        assert reports["plain"][1] == []
        assert reports["extra"][1] == [
            f"WARNING dakr: {tmp_path / 'extra' / 'truth.csv'}: rows for 1 probe id(s) "
            "absent from the probe file are not scored (first: 55)"
        ]

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize(
        "scenario",
        [
            ["perfect_single_shot"],
            ["imperfect_single_shot", "--n-distractors", "3"],
            ["multi_shot", "--shots-per-id", "2", "--n-distractors", "2"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_generated_scenarios_pass_the_checks(self, tmp_path, scenario, fmt):
        data = tmp_path / "data"
        assert run("gen", "--scenario", *scenario, "--n-identities", "6", "--dim", "3",
                   "--format", fmt, "--out", data) == 0
        ext = "csv" if fmt == "csv" else "fst"
        code = run("eval", "--gallery", data / f"gallery.{ext}", "--probes", data / f"probes.{ext}",
                   "--truth", data / "truth.csv", "--method", "knn", "--ranks", "1",
                   "--out", tmp_path / "r")
        assert code == 0


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

    SHARED_ID_COMMANDS = [
        ["sigma", "--with-probes"],
        ["rerank", "--method", "knn"],
        ["rerank", "--method", "bi_dakr+"],
        ["eval", "--method", "knn,bi_dakr+", "--ranks", "1"],
        ["sweep", "--method", "knn,bi_dakr+", "--k-values", "1"],
    ]

    @staticmethod
    def shared_id_argv(command, gpath, ppath, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("probe_id,gallery_id\n0,3\n2,1\n7,0\n")
        argv = [command[0], "--gallery", gpath, "--probes", ppath, *command[1:]]
        if command[0] in ("eval", "sweep"):
            argv += ["--truth", truth]
        return [*argv, "--out", tmp_path / "out"]

    @pytest.mark.parametrize("command", SHARED_ID_COMMANDS, ids=" ".join)
    def test_probe_id_naming_another_gallery_vector(self, tmp_path, capsys, command):
        # Probe 0 is gallery sample 0 by id, so it must be at 0.0: at 2.9 its
        # pool would silently drop gallery 0 and rank the rest.
        gpath, ppath = tmp_path / "gallery.csv", tmp_path / "probes.csv"
        write_features_csv(FeatureSet([0, 1, 2, 3], [[0.0], [1.0], [2.0], [3.0]]), gpath)
        write_features_csv(FeatureSet([0, 7], [[2.9], [0.1]]), ppath)
        assert run(*self.shared_id_argv(command, gpath, ppath, tmp_path)) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"{ppath}: probe id 0 is a gallery id" in err

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("command", SHARED_ID_COMMANDS, ids=" ".join)
    def test_probe_ids_naming_identical_gallery_copies(self, tmp_path, command, fmt):
        # Multiple-shot probes are gallery samples; both formats keep their
        # vectors exact, so the copies compare equal.
        rng = np.random.default_rng(3)
        gallery = FeatureSet([0, 1, 2, 3], rng.normal(size=(4, 3)))
        probes = FeatureSet([0, 7, 2], np.vstack([gallery.vectors[0], [0.1, 0.2, 0.3],
                                                   gallery.vectors[2]]))
        write = write_features_csv if fmt == "csv" else write_features_binary
        gpath, ppath = tmp_path / f"gallery.{fmt}", tmp_path / f"probes.{fmt}"
        write(gallery, gpath)
        write(probes, ppath)
        assert run(*self.shared_id_argv(command, gpath, ppath, tmp_path)) == 0

    @pytest.mark.parametrize(
        "command, code",
        [
            (["sigma", "--with-probes"], 3),
            (["rerank", "--method", "inv_dakr+"], 3),
            (["eval", "--method", "rnn+", "--k", "2", "--ranks", "1"], 3),
            (["rerank", "--method", "rnn", "--k", "2"], 3),
            (["rerank", "--method", "knn"], 0),
            (["rerank", "--method", "inn", "--k", "2"], 0),
            (["rerank", "--method", "inv_dakr"], 0),
            (["rerank", "--method", "bi_dakr"], 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_gallery_id_at_the_int64_limit(self, tmp_path, capsys, command, code):
        # Probes get offset ids past the largest gallery id, and past
        # 2**63 - 1 there is no room: commands that need one are refused.
        gpath, ppath = tmp_path / "big.csv", tmp_path / "probes.csv"
        gpath.write_text("id,f0\n0,0.0\n1,1.0\n9223372036854775807,3.0\n")
        ppath.write_text("id,f0\n9,2.1\n10,0.4\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("probe_id,gallery_id\n9,1\n10,0\n")
        argv = [command[0], "--gallery", gpath, "--probes", ppath, *command[1:]]
        if command[0] == "eval":
            argv += ["--truth", truth]
        assert run(*argv, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err
        if code:
            assert "no offset id" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["sigma", "--with-probes"],
            ["rerank", "--method", "rnn", "--k", "2"],
            ["eval", "--method", "rnn+", "--k", "2", "--ranks", "1"],
        ],
        ids=" ".join,
    )
    def test_negative_probe_id_beside_the_int64_limit(self, tmp_path, capsys, command):
        # -1 plus the offset 2**63 would be the gallery id 2**63 - 1.
        gpath, ppath = tmp_path / "big.csv", tmp_path / "probes.csv"
        gpath.write_text("id,f0\n0,0.0\n1,1.0\n9223372036854775807,3.0\n")
        ppath.write_text("id,f0\n-1,2.1\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("probe_id,gallery_id\n-1,1\n")
        argv = [command[0], "--gallery", gpath, "--probes", ppath, *command[1:]]
        if command[0] == "eval":
            argv += ["--truth", truth]
        assert run(*argv, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "probes.csv" in err and "negative" in err

    @pytest.mark.parametrize(
        "command, code, tail",
        [
            (["sigma", "--k-sigma", "1"], 3, None),
            (["rerank", "--method", "bi_dakr"], 3, None),
            (["rerank", "--method", "inn", "--k", "2"], 0, ["3.0", "3.0"]),
            # k = 5: every sample's pool is the 4 others and the probe, so
            # all five are members, 2 and 3 at the top of the member block.
            (["rerank", "--method", "inn", "--k", "5"], 0, ["1.0", "1.0"]),
            (["rerank", "--method", "rnn", "--k", "5"], 0, [repr(1 - 4 / 6)] * 2),
            (["rerank", "--method", "knn"], 0, ["inf", "inf"]),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_overflowing_distances(self, tmp_path, capsys, command, code, tail):
        # Samples 2 and 3 are too far apart for float64.
        gpath, ppath = tmp_path / "far.csv", tmp_path / "probes.csv"
        gpath.write_text(
            "id,f0,f1\n0,0.0,0.1\n1,0.5,0.2\n2,1e200,0.3\n3,-1e200,0.3\n4,1.0,0.0\n"
        )
        ppath.write_text("id,f0,f1\n9,0.2,0.1\n")
        out = tmp_path / "out.csv"
        argv = [command[0], "--gallery", gpath, *command[1:], "--out", out]
        if command[0] == "rerank":
            argv += ["--probes", ppath]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's inf - inf and inf / inf warn
            assert run(*argv) == code
        err = capsys.readouterr().err
        assert "internal error" not in err
        if code:
            assert "distances overflow float64" in err
        else:
            # Infinite distances rank last, by id, as under knn.
            rows = [row.split(",") for row in out.read_text().splitlines()[-2:]]
            assert [(row[2], row[3]) for row in rows] == list(zip(["2", "3"], tail))


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


def test_compare_outputs_prepares_every_input_its_commands_read(tmp_path):
    # tools/compare_outputs.py and tools/traffic_coverage.py both make their
    # inputs through compare_outputs.prepare, so neither can miss one.
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def gen(argv):
        assert run(*argv) == 0

    for scenario, flags in tool.SCENARIOS.items():
        inputs = tmp_path / scenario
        tool.prepare(inputs, flags, gen)
        named = {arg for command in tool.commands(inputs, tmp_path / "out", flags)
                 for arg in command if isinstance(arg, Path) and arg.parent == inputs}
        assert {"truth_extra.csv", "metric.csv"} <= {p.name for p in named}
        assert [p.name for p in named if not p.is_file()] == [], scenario
