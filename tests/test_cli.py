"""End-to-end CLI behavior via main()."""

import json

import pytest

from blockfactor.cli import main


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
    def test_single_community_all_zero(self, k3_file, capsys):
        assert main(["factorize", str(k3_file), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["0", "0", "0"]

    def test_labels_file_karate(self, tmp_path, capsys):
        from blockfactor.datasets import data_dir

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

    def test_missing_file_errors(self, capsys):
        assert main(["factorize", "/nonexistent/graph.txt", "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_tau_errors(self, k3_file, capsys):
        argv = ["factorize", str(k3_file), "--k", "2", "--method", "reg-spectral", "--tau", "-3"]
        assert main(argv) == 2
        assert "tau" in capsys.readouterr().err


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

    def test_bad_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "x"}))
        assert main(["simulate", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


class TestWinnersCommand:
    def test_winner_table(self, spec_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["simulate", str(spec_file), "--out", str(out), "--quiet"])
        capsys.readouterr()
        assert main(["winners", str(out)]) == 0
        table = capsys.readouterr().out
        assert "cli-tiny" in table


class TestRealdataCommand:
    def test_karate_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "karate.csv"
        code = main([
            "realdata", "karate", "--methods", "reg-spectral",
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        assert "reg-spectral" in capsys.readouterr().out
        assert out.read_text().count("\n") == 2  # header + one method

    def test_missing_fixture_exit_code(self, capsys):
        assert main(["realdata", "polblogs"]) == 2
        assert "fetch" in capsys.readouterr().err
