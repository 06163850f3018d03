"""Benchmark harness: specs, simulation sweeps, CSV, winners, realdata."""

import time

import numpy as np
import pytest

import blockfactor.bench as bench
import blockfactor.spectral as spectral
from blockfactor.bench import (
    CSV_COLUMNS,
    METHODS,
    ExperimentSpec,
    format_winner_table,
    read_csv,
    realdata_table,
    rows_to_csv_text,
    run_method,
    run_methods,
    run_simulation,
    summarize,
    verify_csv_rows,
    winner_counts,
    write_csv,
)
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.datasets import load_dataset
from blockfactor.errors import BlockfactorError, InvalidInputError
from blockfactor.factorization import SolverConfig
from blockfactor.graphs import Graph, largest_connected_component


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
        for module, name in (
            (spectral, "regularized_laplacian"), (bench, "kmeans"), (bench, "normalized_laplacian"),
        ):
            monkeypatch.setattr(module, name, recording(getattr(module, name), name, calls))
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        run_method(g, 2, "osntf", seed=0)
        assert calls == ["regularized_laplacian", "kmeans", "normalized_laplacian"]

    def test_target_built_after_spectral_init_partition(self, monkeypatch):
        calls = []
        for module, name in ((spectral, "sym_eigs_topk"), (bench, "normalized_laplacian")):
            monkeypatch.setattr(module, name, recording(getattr(module, name), name, calls))
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        run_method(g, 2, "snmf", seed=0, init="spectral")
        assert calls == ["sym_eigs_topk", "normalized_laplacian"]

    def test_adjacency_matrix_path(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        out = run_method(g, 2, "osntf", seed=0, matrix="adjacency")
        assert out.labels.shape == (6,)
        assert out.residual is not None

    def test_spectral_init_path(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        out = run_method(g, 2, "snmf", seed=0, init="spectral")
        assert out.iterations > 0


def recording(real, name, calls):
    """``real``, appending ``name`` to ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return wrapper


def forbid(monkeypatch, *names):
    """Make each named function fail if called, wherever it is looked up."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for module in (bench, spectral):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def sbm_graph():
    g, _ = largest_connected_component(sample_graph(sbm_snr_preset(150, 3, 3.0, 12.0), seed=[5, 1]))
    return g


def dcsbm_graph():
    params = dcsbm_powerlaw_preset(150, 3, 3.0, 15.0, 2.5, seed=[5, 0])
    g, _ = largest_connected_component(sample_graph(params, seed=[5, 1]))
    return g


def same_output(a, b) -> bool:
    """Every field but wall_time_s equal."""
    return (
        np.array_equal(a.labels, b.labels)
        and a.iterations == b.iterations
        and a.residual == b.residual
        and a.orthogonality_drift == b.orthogonality_drift
    )


SHARED_OPTIONS = [
    {},
    {"matrix": "adjacency"},
    {"init": "spectral"},
    {"matrix": "adjacency", "init": "spectral"},
]


@pytest.mark.filterwarnings("ignore:clipped")
class TestRunMethods:
    """run_methods shares each eigensolve and partition; its outputs must not show it."""

    @pytest.mark.parametrize("make_graph", [sbm_graph, dcsbm_graph])
    @pytest.mark.parametrize("options", SHARED_OPTIONS)
    def test_matches_independent_run_method_calls(self, make_graph, options):
        g = make_graph()
        cfg = SolverConfig(max_iters=60)
        shared = run_methods(g, 3, METHODS, seed=[9, 2], cfg=cfg, **options)
        for method, out in zip(METHODS, shared):
            alone = run_method(g, 3, method, seed=[9, 2], cfg=cfg, **options)
            assert same_output(out, alone), method

    @pytest.mark.parametrize("options", SHARED_OPTIONS)
    def test_method_order_does_not_matter(self, options):
        g = dcsbm_graph()
        cfg = SolverConfig(max_iters=60)
        forward = run_methods(g, 3, METHODS, seed=1, cfg=cfg, **options)
        backward = run_methods(g, 3, METHODS[::-1], seed=1, cfg=cfg, **options)
        for a, b in zip(forward, backward[::-1]):
            assert same_output(a, b)

    @pytest.mark.parametrize(
        "methods, eigs, partitions",
        [
            (["snmf", "osntf", "spectral", "reg-spectral"], 2, 2),  # fig1a/b
            (["snmf", "osntf", "spectral", "reg-spectral", "spectral-wp"], 2, 3),  # fig1c
        ],
    )
    def test_one_eigensolve_per_matrix_one_kmeans_per_embedding(
        self, monkeypatch, methods, eigs, partitions
    ):
        calls = []
        for module in (bench, spectral):
            for name in ("sym_eigs_topk", "kmeans"):
                monkeypatch.setattr(module, name, recording(getattr(module, name), name, calls))
        spec = ExperimentSpec(
            experiment="cell", model="sbm", n=90, k=3, snr=3.0, avg_degree=[12.0],
            sweep="avg_degree", methods=methods, replicates=1,
        )
        rows = bench._simulate_cell(spec, 12.0, 0)
        assert [r.method for r in rows] == methods
        assert calls.count("sym_eigs_topk") == eigs
        assert calls.count("kmeans") == partitions

    @pytest.mark.parametrize("options", SHARED_OPTIONS)
    def test_cache_holds_no_n_by_n_array(self, options):
        g = sbm_graph()
        stages = bench._SharedStages(g, 3, seed=0, tau=None, restarts=20)
        cfg = SolverConfig(max_iters=20)
        for method in METHODS:
            bench._run_one(stages, method, options.get("matrix", "laplacian"), cfg,
                           options.get("init", "reg-spectral"))
        kept = [value for value, _ in stages._done.values()]
        kept += [v for v in vars(stages).values() if isinstance(v, np.ndarray)]
        assert kept
        for value in kept:
            assert value.shape in {(g.n,), (g.n, 3)}

    def test_wall_time_is_the_standalone_cost(self, monkeypatch):
        # every method below uses the L_tau eigensolve, whichever runs it
        def slow_eigenvectors(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        real = bench.graph_eigenvectors
        monkeypatch.setattr(bench, "graph_eigenvectors", slow_eigenvectors)
        g = sbm_graph()
        cfg = SolverConfig(max_iters=5)
        for methods in (["reg-spectral", "spectral-wp", "osntf"], ["osntf", "spectral-wp", "reg-spectral"]):
            for out in run_methods(g, 3, methods, seed=0, cfg=cfg):
                assert out.wall_time_s >= 0.05

    @pytest.mark.parametrize("k", [0, 35, 40, 2.0])
    def test_k_outside_the_graph_fails_before_any_work(self, monkeypatch, k):
        g, _ = load_dataset("karate")
        forbid(monkeypatch, "sym_eigs_topk", "kmeans", "graph_eigenvectors", "normalized_laplacian")
        with pytest.raises(InvalidInputError, match="k must"):
            run_methods(g, k, ["spectral", "osntf"], seed=0)
        with pytest.raises(InvalidInputError):
            run_method(g, k, "osntf", seed=0)

    def test_unknown_method_later_in_the_list_fails_before_any_work(self, monkeypatch):
        g, _ = load_dataset("karate")
        forbid(monkeypatch, "sym_eigs_topk", "kmeans", "graph_eigenvectors", "normalized_laplacian")
        with pytest.raises(InvalidInputError, match="louvain"):
            run_methods(g, 2, ["spectral", "louvain"], seed=0)

    def test_realdata_table_matches_run_method(self):
        rows = realdata_table("karate", methods=list(METHODS), seed=0)
        g, _ = load_dataset("karate")
        for row in rows:
            alone = run_method(g, 2, row["method"], seed=0)
            assert np.array_equal(row["labels"], alone.labels)
            assert row["iterations"] == alone.iterations


class TestRealdata:
    def test_karate_table(self):
        rows = realdata_table("karate", methods=["reg-spectral"], seed=0)
        assert rows[0]["n"] == 34
        assert rows[0]["misclustered"] == 0
        assert rows[0]["nmi"] == 1.0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            realdata_table("emailgraph")
