"""End-to-end CLI behavior via main()."""

import argparse
import json
import re

import numpy as np
import pytest
from conftest import MALFORMED_CSVS, SRC, fresh_interpreter

from blockfactor.bench import METHODS, read_csv, report, run_method
from blockfactor.cli import build_parser, main
from blockfactor.datasets import data_dir
from blockfactor.io import load_graph


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return path


@pytest.fixture
def spec_file(tmp_path):
    doc = {
        "experiment": "cli-tiny",
        "model": "sbm",
        "n": 40,
        "k": 2,
        "snr": 4.0,
        "avg_degree": [10.0],
        "sweep": "avg_degree",
        "methods": ["osntf", "spectral"],
        "replicates": 2,
        "base_seed": 1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestFactorize:
    def test_malformed_gml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.gml"
        path.write_text("graph [\n node [ id 0 value 1e400 ] node [ id 1 ] edge [ source 0 target 1 ] ]\n")
        assert main(["factorize", str(path), "--k", "1"]) == 2
        assert "line 2: value must be a 64-bit integer" in capsys.readouterr().err

    def test_single_community_all_zero(self, k3_file, capsys):
        assert main(["factorize", str(k3_file), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["0", "0", "0"]

    def test_labels_file_karate(self, tmp_path, capsys):
        gml = data_dir() / "karate.gml"
        out_path = tmp_path / "labels.txt"
        code = main([
            "factorize", str(gml), "--k", "2", "--method", "snmf",
            "--out", str(out_path), "--seed", "0",
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 34
        assert set(lines) <= {"0", "1"}

    def test_labels_file_uses_names_when_present(self, tmp_path, capsys):
        gml = tmp_path / "named.gml"
        gml.write_text(
            'graph [ node [ id 0 label "ann" ] node [ id 1 label "bob" ] '
            'node [ id 2 label "cal" ] edge [ source 0 target 1 ] '
            "edge [ source 1 target 2 ] edge [ source 2 target 0 ] ]"
        )
        out_path = tmp_path / "labels.txt"
        code = main(["factorize", str(gml), "--k", "1", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == "ann\t0\nbob\t0\ncal\t0\n"

    def test_stdout_refuses_a_name_the_labels_file_refuses(self, tmp_path, capsys):
        # "a#1" would print a line that load_labels reads as the label "a"
        gml = tmp_path / "named.gml"
        gml.write_text(
            'graph [ node [ id 0 label "a#1" ] node [ id 1 label "b" ] node [ id 2 label "c" ] '
            'node [ id 3 label "d" ] edge [ source 0 target 1 ] edge [ source 1 target 2 ] '
            "edge [ source 2 target 3 ] edge [ source 3 target 0 ] ]"
        )
        assert main(["factorize", str(gml), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: a label file name cannot hold #, tab, newline or a lone surrogate: 'a#1'"]

    @pytest.mark.parametrize("method", METHODS)
    def test_karate_labels_are_run_methods(self, method, capsys):
        # factorize runs the one pipeline each method has, with no option to change it
        gml = data_dir() / "karate.gml"
        assert main(["factorize", str(gml), "--k", "2", "--method", method, "--seed", "3"]) == 0
        captured = capsys.readouterr()
        printed = [int(line.split("\t")[-1]) for line in captured.out.splitlines()]
        g, _ = load_graph(gml)
        assert printed == run_method(g, 2, method, seed=3).labels.tolist()
        assert f"# method={method} n=34 k=2" in captured.err

    def test_numpy_error_state_restored(self, k3_file, capsys):
        with np.errstate(all="warn", under="ignore"):
            before = np.geterr()
            assert main(["factorize", str(k3_file), "--k", "1"]) == 0
            assert main(["factorize", "/nonexistent/graph.txt", "--k", "2"]) == 2
            assert np.geterr() == before

    def test_missing_file_errors(self, capsys):
        assert main(["factorize", "/nonexistent/graph.txt", "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_k_above_node_count_errors(self, capsys):
        assert main(["factorize", str(data_dir() / "karate.gml"), "--k", "100"]) == 2
        assert "k must be an integer in [1, 34]" in capsys.readouterr().err

    def test_huge_node_id_errors_with_line(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("0 1\n1 99999999999999999999\n")
        assert main(["factorize", str(path), "--k", "2"]) == 2
        assert "error: line 2:" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_csv_bytes(self, spec_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", str(spec_file), "--out", str(out1), "--quiet"]) == 0
        assert main(["simulate", str(spec_file), "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_spot_check_flag(self, spec_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main([
            "simulate", str(spec_file), "--out", str(out), "--quiet", "--spot-check",
        ])
        assert code == 0
        assert "re-verified" in capsys.readouterr().out

    def test_progress_line_and_replicates_override(self, spec_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["simulate", str(spec_file), "--out", str(out), "--replicates", "1"]) == 0
        # one sweep value at one replicate instead of the spec's two: one cell
        assert capsys.readouterr().err == "\r1/1 cells\n"
        assert [r["method"] for r in read_csv(out)] == ["osntf", "spectral"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_quiet_silences_the_clipping_warning(self, tmp_path, workers):
        spec = tmp_path / "dcsbm.json"
        spec.write_text(json.dumps({
            "experiment": "clipping", "model": "dcsbm", "n": 60, "k": 2, "snr": 4.0, "beta": 2.2,
            "avg_degree": [10.0], "sweep": "avg_degree", "methods": ["spectral"], "replicates": 2,
        }))
        argv = ["-m", "blockfactor", "simulate", str(spec), "--out", str(tmp_path / "rows.csv"), "--workers", workers]
        loud, quiet = fresh_interpreter(argv), fresh_interpreter(argv + ["--quiet"])
        assert loud.returncode == quiet.returncode == 0, loud.stderr + quiet.stderr
        assert "population entries above 1 before sampling" in loud.stderr
        assert quiet.stderr == ""

    def test_bad_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "x"}))
        assert main(["simulate", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_stdout_is_the_report_of_the_csv(self, spec_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["simulate", str(spec_file), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == report([out])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_one_error_line(self, spec_file, tmp_path, capsys, workers):
        out = tmp_path / "rows.csv"
        assert main(["simulate", str(spec_file), "--out", str(out), "--quiet", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [f"error: workers must be a positive integer, got {workers}"]


class TestReportCommand:
    def test_report_tables(self, spec_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["simulate", str(spec_file), "--out", str(out), "--quiet"])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert text == report([out])
        assert text.startswith("### cli-tiny\n") and text.endswith("Wins out of 2 cells: osntf 2, spectral 2.\n")

    def test_the_winners_command_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["winners", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'winners'" in capsys.readouterr().err

    def test_report_takes_no_flag(self):
        parser = subcommands()["report"]
        assert [a.option_strings for a in parser._actions] == [["-h", "--help"], []]

    @pytest.mark.parametrize("text, message", MALFORMED_CSVS.values(), ids=MALFORMED_CSVS.keys())
    def test_unreadable_csv_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: {path}") and message in err

    def test_a_file_read_twice_is_one_error_line(self, spec_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["simulate", str(spec_file), "--out", str(out), "--quiet"])
        capsys.readouterr()
        assert main(["report", str(out), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: {out}, line 2: ")
        assert err.strip().endswith(f"already read at {out}, line 2")


class TestRealdataCommand:
    def test_karate_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "karate.csv"
        code = main([
            "realdata", "karate", "--methods", "reg-spectral",
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        assert capsys.readouterr().out == report([out])
        assert out.read_text().count("\n") == 2  # header + one method
        assert [r["method"] for r in read_csv(out)] == ["reg-spectral"]
        assert main(["realdata", "karate", "--methods", "reg-spectral", "--seed", "0"]) == 0
        assert capsys.readouterr().out == report([out])  # without --out too

    def test_report_reads_the_csvs_of_several_seeds(self, tmp_path, capsys):
        paths = [str(tmp_path / f"karate{seed}.csv") for seed in range(3)]
        for seed, path in enumerate(paths):
            assert main(["realdata", "karate", "--seed", str(seed), "--out", path]) == 0
        capsys.readouterr()
        assert main(["report", *paths]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^### .*", out, flags=re.M) == ["### karate"]
        assert re.findall(r"^\| 34 \| (\S+) \| (\d+) \|", out, flags=re.M) == [(m, "3") for m in METHODS[:4]]

    def test_repeated_method_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "karate.csv"
        assert main(["realdata", "karate", "--methods", "osntf,osntf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == ["error: methods must be a nonempty list without repeats, got ['osntf', 'osntf']"]

    def test_missing_fixture_exit_code(self, capsys):
        assert main(["realdata", "polblogs"]) == 2
        assert "fetch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["realdata", "karate", "--matrix", "adjacency"],
            ["factorize", "graph.txt", "--k", "2", "--matrix", "adjacency"],
            ["factorize", "graph.txt", "--k", "2", "--init", "spectral"],
            ["factorize", "graph.txt", "--k", "2", "--tau", "1"],
            ["realdata", "karate", "--tau", "1"],
            ["realdata", "karate", "--k", "2"],
            ["realdata", "karate", "--nmi-variant", "max"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_deleted_method_flags_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_synopsis_names_every_subcommand():
    # the "Command line" section's code block, one "blockfactor NAME" line per subcommand
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    assert re.findall(r"^blockfactor (\S+)", block, flags=re.M) == list(subcommands())
    assert list(subcommands()) == ["factorize", "simulate", "realdata", "report"]


def test_readme_synopsis_lists_each_subcommands_flags():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    # a subcommand's lines run from its "blockfactor NAME" line to the next one
    synopses = dict(re.findall(r"^blockfactor (\S+)(.*(?:\n\s.*)*)", block, flags=re.M))
    for name, parser in subcommands().items():
        flags = [s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help")]
        assert sorted(re.findall(r"--[\w-]+", synopses[name])) == sorted(flags), name


def test_python_m_blockfactor_runs_the_cli():
    done = fresh_interpreter(
        ["-m", "blockfactor", "factorize", str(SRC / "blockfactor" / "data" / "karate.gml"), "--k", "2"]
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 34
    assert "# method=osntf n=34 k=2" in done.stderr
