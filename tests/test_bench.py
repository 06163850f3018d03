"""Benchmark harness: specs, simulation sweeps, CSV, winners, realdata."""

import numpy as np
import pytest

import blockfactor.bench as bench
from blockfactor.bench import (
    CSV_COLUMNS,
    ExperimentSpec,
    format_winner_table,
    read_csv,
    realdata_table,
    rows_to_csv_text,
    run_method,
    run_simulation,
    summarize,
    verify_csv_rows,
    winner_counts,
    write_csv,
)
from blockfactor.errors import BlockfactorError
from blockfactor.graphs import Graph


def tiny_spec(**overrides):
    base = dict(
        experiment="tiny",
        model="sbm",
        n=48,
        k=2,
        snr=4.0,
        avg_degree=[8.0, 12.0],
        sweep="avg_degree",
        methods=["osntf", "spectral"],
        replicates=2,
        base_seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        again = ExperimentSpec.from_json(path)
        assert again == spec

    def test_sweep_field_must_be_list(self):
        with pytest.raises(ValueError):
            tiny_spec(avg_degree=10.0)

    def test_only_one_list_allowed(self):
        with pytest.raises(ValueError):
            tiny_spec(n=[10, 20])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(methods=["osntf", "louvain"])

    def test_beta_requires_dcsbm(self):
        with pytest.raises(ValueError):
            tiny_spec(model="sbm", sweep="beta", beta=[2.1])

    def test_dcsbm_spec(self):
        spec = tiny_spec(model="dcsbm", beta=[2.1, 2.6], sweep="beta",
                         avg_degree=10.0)
        assert spec.sweep_values == [2.1, 2.6]

    def test_unsupported_version(self):
        with pytest.raises(ValueError):
            tiny_spec(spec_version=2)


class TestRunSimulation:
    def test_row_grid_and_order(self):
        spec = tiny_spec()
        rows = run_simulation(spec)
        assert len(rows) == 2 * 2 * 2
        keys = [(r.sweep_value, r.method, r.seed) for r in rows]
        assert keys == sorted(
            keys, key=lambda t: (spec.sweep_values.index(t[0]),
                                 spec.methods.index(t[1]), t[2])
        )
        for r in rows:
            assert 0.0 <= r.nmi <= 1.0
            assert 0.0 <= r.misclustering_rate <= 1.0

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = tiny_spec()
        text1 = rows_to_csv_text(run_simulation(spec))
        text2 = rows_to_csv_text(run_simulation(spec))
        assert text1 == text2

    def test_methods_share_the_same_graph(self):
        spec = tiny_spec()
        rows = run_simulation(spec)
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r.sweep_value, r.seed), []).append(len(r.labels))
        for lengths in by_cell.values():
            assert len(set(lengths)) == 1

    def test_spot_check_passes_and_detects_corruption(self, tmp_path):
        spec = tiny_spec()
        rows = run_simulation(spec)
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        checked = verify_csv_rows(spec, path, fraction=0.5)
        assert checked >= 2
        records = read_csv(path)
        text = path.read_text()
        first_labels = records[0]["labels"]
        # flip a prefix (not all bits, which would only relabel the partition)
        cut = len(first_labels) // 3
        corrupted = (
            "".join("1" if c == "0" else "0" for c in first_labels[:cut])
            + first_labels[cut:]
        )
        path.write_text(text.replace(first_labels, corrupted, 1))
        with pytest.raises(BlockfactorError):
            verify_csv_rows(spec, path, fraction=1.0)

    def test_csv_schema(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "out.csv"
        write_csv(run_simulation(spec), path)
        records = read_csv(path)
        assert list(records[0].keys()) == CSV_COLUMNS
        assert "wall_time" not in records[0]

    def test_summarize_mentions_all_methods(self):
        rows = run_simulation(tiny_spec())
        text = summarize(rows)
        assert "osntf" in text and "spectral" in text

    def test_node_count_sweep(self):
        spec = tiny_spec(n=[30, 50], avg_degree=8.0, sweep="n", replicates=1)
        rows = run_simulation(spec)
        assert {r.sweep_value for r in rows} == {30, 50}

    def test_parallel_workers_match_serial(self, tmp_path):
        spec = tiny_spec(replicates=2)
        serial = rows_to_csv_text(run_simulation(spec, workers=1))
        parallel = rows_to_csv_text(run_simulation(spec, workers=2))
        assert serial == parallel


class TestWinners:
    def test_single_method_wins_everywhere(self, tmp_path):
        spec = tiny_spec(methods=["osntf"])
        path = tmp_path / "one.csv"
        write_csv(run_simulation(spec), path)
        result = winner_counts([path])
        assert result["counts"][("tiny", "osntf")] == sum(result["cells"].values())

    def test_hand_tallied_csv(self, tmp_path):
        path = tmp_path / "hand.csv"
        rows = [
            "experiment,sweep,sweep_value,method,seed,nmi,misclustering_rate,iterations,orthogonality_drift,residual,labels",
            "e,avg_degree,10,a,0,0.9,0.1,5,,,01",
            "e,avg_degree,10,b,0,0.8,0.1,5,,,01",
            "e,avg_degree,10,a,1,0.7,0.1,5,,,01",
            "e,avg_degree,10,b,1,0.7,0.1,5,,,01",
        ]
        path.write_text("\r\n".join(rows) + "\r\n")
        result = winner_counts([path])
        # cell (10, 0): a wins; cell (10, 1): tie awards both
        assert result["counts"][("e", "a")] == 2
        assert result["counts"][("e", "b")] == 1
        assert result["cells"]["e"] == 2
        table = format_winner_table(result)
        assert "e" in table and "cells" in table

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(BlockfactorError):
            winner_counts([path])


class TestRunMethod:
    def test_unknown_method(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            run_method(g, 2, "bogus", seed=0)

    def test_unknown_matrix(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            run_method(g, 2, "snmf", seed=0, matrix="modularity")

    @pytest.mark.parametrize("bad", [dict(matrix="modularity"), dict(init="random")])
    def test_bad_option_fails_before_any_work(self, monkeypatch, bad):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for name in ("normalized_laplacian", "spectral_clustering", "sym_eigs_topk"):
            monkeypatch.setattr(bench, name, forbidden)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            run_method(g, 2, "snmf", seed=0, **bad)

    def test_target_built_after_reg_spectral_partition(self, monkeypatch):
        # the dense target and the partition's own dense matrices never coexist
        calls = []

        def recording(name):
            real = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("normalized_laplacian", "spectral_clustering"):
            monkeypatch.setattr(bench, name, recording(name))
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        run_method(g, 2, "osntf", seed=0)
        assert calls == ["spectral_clustering", "normalized_laplacian"]

    def test_adjacency_matrix_path(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        out = run_method(g, 2, "osntf", seed=0, matrix="adjacency")
        assert out.labels.shape == (6,)
        assert out.residual is not None

    def test_spectral_init_path(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        out = run_method(g, 2, "snmf", seed=0, init="spectral")
        assert out.iterations > 0


class TestRealdata:
    def test_karate_table(self):
        rows = realdata_table("karate", methods=["reg-spectral"], seed=0)
        assert rows[0]["n"] == 34
        assert rows[0]["misclustered"] == 0
        assert rows[0]["nmi"] == 1.0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            realdata_table("emailgraph")
