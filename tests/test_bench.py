"""Benchmark harness: specs, simulation sweeps, CSV, results report, realdata."""

import csv
import json
import time

import numpy as np
import pytest
from conftest import MALFORMED_CSVS, SRC, fresh_output
from scipy.sparse import issparse

import blockfactor.bench as bench
import blockfactor.spectral as spectral
from blockfactor.bench import (
    CSV_COLUMNS,
    METHODS,
    ExperimentSpec,
    read_csv,
    realdata_table,
    report,
    rows_to_csv_text,
    run_method,
    run_methods,
    run_simulation,
    verify_csv_rows,
    write_csv,
)
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.datasets import karate, load_dataset
from blockfactor.errors import BlockfactorError, InvalidInputError
from blockfactor.factorization import (
    SolverConfig,
    assign_communities,
    frobenius_residual,
    osntf,
    snmf,
)
from blockfactor.graphs import Graph, largest_connected_component, normalized_laplacian
from blockfactor.metrics import MAX_EXACT_LABELS
from blockfactor.spectral import nmf_init_from_partition, spectral_clustering


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

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(spec_version=2),
            dict(model="er"),
            dict(sweep="k"),
            dict(sweep="beta", beta=[2.1]),
            dict(model="dcsbm"),
            dict(avg_degree=10.0),
            dict(avg_degree=[]),
            dict(n=[10, 20]),
            dict(replicates=0),
            dict(methods=["osntf", "louvain"]),
        ],
    )
    def test_bad_spec_is_typed(self, overrides):
        with pytest.raises(InvalidInputError):
            tiny_spec(**overrides)

    @pytest.mark.parametrize(
        "text",
        [
            '{"experiment": "x",',
            "[1, 2]",
            '{"experiment": "x"}',
            None,  # a valid spec plus an unknown key
        ],
    )
    def test_bad_json_is_typed(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec().__dict__))
        if text is None:
            text = path.read_text().replace("{", '{"colour": 1,', 1)
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="invalid experiment spec"):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("k", dict(k="2")),
            ("k", dict(k=2.0)),
            ("k", dict(k=True)),
            ("replicates", dict(replicates="2")),
            ("base_seed", dict(base_seed=1.5)),
            ("n", dict(n="48")),
            ("n", dict(sweep="n", n=[48, 96.0], avg_degree=8.0)),
            ("snr", dict(snr="4")),
            ("avg_degree", dict(avg_degree=[8.0, "12"])),
            ("avg_degree", dict(avg_degree=[8.0, None])),
            ("beta", dict(model="dcsbm", beta="2.5")),
            ("beta", dict(model="dcsbm", sweep="beta", beta=[2.1, False], avg_degree=8.0)),
        ],
    )
    @pytest.mark.parametrize("through_json", [False, True], ids=["direct", "json"])
    def test_wrong_field_type_is_typed(self, tmp_path, field, overrides, through_json):
        with pytest.raises(InvalidInputError, match=f"^{field} must be (an integer|a finite number)"):
            if through_json:
                path = tmp_path / "spec.json"
                path.write_text(json.dumps({**tiny_spec().__dict__, "beta": None, **overrides}))
                ExperimentSpec.from_json(path)
            else:
                tiny_spec(**overrides)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("snr", dict(snr=float("nan"))),
            ("snr", dict(snr=float("inf"))),
            ("avg_degree", dict(avg_degree=[8.0, float("nan")])),
            ("avg_degree", dict(sweep="n", n=[48, 64], avg_degree=float("inf"))),
            ("beta", dict(model="dcsbm", beta=float("inf"))),
            ("beta", dict(model="dcsbm", sweep="beta", beta=[2.5, float("-inf")], avg_degree=8.0)),
        ],
    )
    @pytest.mark.parametrize("through_json", [False, True], ids=["direct", "json"])
    def test_non_finite_number_is_refused(self, tmp_path, field, overrides, through_json):
        # json.loads reads NaN and Infinity, which used to reach the first cell
        with pytest.raises(InvalidInputError, match=f"^{field} must be a finite number, got -?(nan|inf)"):
            if through_json:
                path = tmp_path / "spec.json"
                path.write_text(json.dumps({**tiny_spec().__dict__, "beta": None, **overrides}))
                ExperimentSpec.from_json(path)
            else:
                tiny_spec(**overrides)

    def test_numeric_field_types_accepted(self):
        spec = tiny_spec(k=np.int64(2), snr=4, avg_degree=[8, 12], base_seed=np.int32(3))
        assert spec.k == 2 and spec.sweep_values == [8, 12]
        assert tiny_spec(model="dcsbm", sweep="n", n=[48, 64], avg_degree=8, beta=2).beta == 2

    @pytest.mark.parametrize("methods", [["louvain"], ["osntf", "louvain"], ["SNMF"]])
    def test_spec_and_runner_share_checks(self, methods):
        with pytest.raises(InvalidInputError) as from_spec:
            tiny_spec(methods=methods)
        with pytest.raises(InvalidInputError) as from_runner:
            run_methods(karate()[0], 2, methods, seed=0)
        assert str(from_spec.value) == str(from_runner.value)

    @pytest.mark.parametrize("matrix", ["laplacian", "adjacency"])
    def test_spec_file_with_the_deleted_matrix_key_is_refused(self, tmp_path, matrix):
        # the NMF target is always L, so a file that names one is not silently run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**tiny_spec().__dict__, "matrix": matrix}))
        with pytest.raises(InvalidInputError, match="matrix"):
            ExperimentSpec.from_json(path)


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

    @pytest.mark.parametrize("fraction", [0.0, -1.0, float("nan"), 1.5, "0.5", True])
    def test_spot_check_refuses_a_bad_fraction_before_reading(self, tmp_path, fraction):
        # the CSV does not exist, so only a check before reading it can raise this
        with pytest.raises(InvalidInputError, match=r"fraction must be a number in \(0, 1\]"):
            verify_csv_rows(tiny_spec(), tmp_path / "missing.csv", fraction=fraction)

    @pytest.mark.parametrize("column, value, message", [
        ("seed", "x", "cannot read seed 'x'"),
        ("sweep_value", "", "cannot read sweep_value ''"),
        ("labels", "01x", "cannot read labels"),
        ("misclustering_rate", "", "cannot read misclustering_rate ''"),
        ("nmi", "nan", "stored metrics do not match"),
    ])
    def test_spot_check_names_the_unreadable_line(self, tmp_path, column, value, message):
        spec = tiny_spec()
        path = tmp_path / "out.csv"
        write_csv(run_simulation(spec), path)
        records = read_csv(path)
        records[1][column] = value
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(records)
        with pytest.raises(BlockfactorError, match=f"line 3: {message}"):
            verify_csv_rows(spec, path, fraction=1.0)

    @pytest.mark.parametrize("overrides", [
        dict(avg_degree=[8, 12.5]),
        dict(model="dcsbm", sweep="beta", beta=[3, 2.5], avg_degree=8),
        dict(sweep="n", n=[48, 60], avg_degree=8),
    ], ids=["avg_degree", "beta", "n"])
    def test_spot_check_reads_back_mixed_numbers(self, tmp_path, monkeypatch, overrides):
        # an int first in a swept list must not truncate the floats after it
        spec = tiny_spec(**overrides)
        path = tmp_path / "out.csv"
        write_csv(run_simulation(spec), path)
        seen, real = [], bench._cell_graph

        def cell_graph(spec, sweep_value, seed):
            seen.append(sweep_value)
            return real(spec, sweep_value, seed)

        monkeypatch.setattr(bench, "_cell_graph", cell_graph)
        assert verify_csv_rows(spec, path, fraction=1.0) == len(read_csv(path))
        assert sorted(set(seen)) == sorted(spec.sweep_values)

    def test_csv_schema(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "out.csv"
        write_csv(run_simulation(spec), path)
        records = read_csv(path)
        assert list(records[0].keys()) == CSV_COLUMNS
        assert "wall_time" not in records[0]

    def test_a_label_above_9_is_refused_before_the_file_exists(self, tmp_path):
        # one digit per label: [0, 10, 1] would write "0101", four labels
        rows = run_simulation(tiny_spec(avg_degree=[8.0], replicates=1))
        rows[1].labels = np.array([0, 10, 1])
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidInputError, match=r"^tiny spectral seed 3: CSV labels must be 0-9, got \[0, 10, 1\]$"):
            write_csv(rows, path)
        assert not path.exists()

    def test_node_count_sweep(self):
        spec = tiny_spec(n=[30, 50], avg_degree=8.0, sweep="n", replicates=1)
        rows = run_simulation(spec)
        assert {r.sweep_value for r in rows} == {30, 50}

    def test_parallel_workers_match_serial(self, tmp_path):
        spec = tiny_spec(replicates=2)
        serial = rows_to_csv_text(run_simulation(spec, workers=1))
        parallel = rows_to_csv_text(run_simulation(spec, workers=2))
        assert serial == parallel

    def test_csv_does_not_depend_on_the_blas_thread_count(self):
        # fig1a's avg_degree 15 cell, seed 1: L has over 10^4 stored entries,
        # where a BLAS dot product for ||L||^2 split across two threads and
        # moved snmf's residual in the last digit
        code = f"""
from blockfactor.bench import ExperimentSpec, _simulate_cell, rows_to_csv_text
spec = ExperimentSpec.from_json({str(SRC.parent / "configs" / "fig1a.json")!r})
print(rows_to_csv_text(_simulate_cell(spec, 15.0, 0)))
"""
        texts = [fresh_output(code, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t) for t in ("1", "2")]
        assert texts[0].count("\n") == 4  # a header and one row per method
        assert texts[0] == texts[1]

    def test_import_does_not_load_the_process_pool(self):
        assert fresh_output(
            "import sys, blockfactor.bench; print('concurrent.futures.process' in sys.modules)"
        ) == "False"

    def test_pool_forks_after_the_scipy_imports(self):
        # every cell uses scipy.sparse's csgraph and linalg: loaded in the
        # parent before the fork, no worker imports them on its first cell
        assert fresh_output(
            "import sys\n"
            "from blockfactor.bench import ExperimentSpec, run_simulation\n"
            "spec = ExperimentSpec(experiment='tiny', model='sbm', n=48, k=2, snr=4.0, avg_degree=[8.0],\n"
            "                      sweep='avg_degree', methods=['spectral'], replicates=2, base_seed=3)\n"
            "run_simulation(spec, workers=2)\n"
            "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules))"
        ) == "['scipy.sparse.csgraph', 'scipy.sparse.linalg']"

    def test_the_pre_fork_imports_are_every_scipy_module_a_cell_loads(self):
        # the first points of fig1a and fig1c, whose 800- and 600-node
        # components take the ARPACK path that a 48-node cell does not
        code = f"""
import dataclasses, importlib, sys
from blockfactor.bench import ExperimentSpec, run_simulation
for module in ("scipy.sparse.csgraph", "scipy.sparse.linalg"):
    importlib.import_module(module)
before = set(sys.modules)
sizes = []
for config in ("fig1a", "fig1c"):
    spec = ExperimentSpec.from_json({str(SRC.parent / "configs")!r} + f"/{{config}}.json")
    spec = dataclasses.replace(spec, replicates=1, **{{spec.sweep: spec.sweep_values[:1]}})
    sizes.append(len(run_simulation(spec)[0].labels))
print(min(sizes) >= 150, sorted(m for m in set(sys.modules) - before if m.startswith("scipy")))
"""
        assert fresh_output(code) == "True []"

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_workers_must_be_a_positive_integer(self, monkeypatch, workers):
        monkeypatch.setattr(bench, "_simulate_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidInputError, match=r"^workers must be a positive integer, got "):
            run_simulation(tiny_spec(), workers=workers)

    def test_k_above_the_exact_search_bound_fails_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(bench, "_simulate_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidInputError, match=rf"^k must be at most {MAX_EXACT_LABELS}, .*got 9$"):
            run_simulation(tiny_spec(k=9))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reports_every_cell(self, workers):
        calls = []
        run_simulation(tiny_spec(replicates=1), workers=workers,
                       progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 2), (2, 2)]


HAND_CSV_ROWS = [
    ",".join(CSV_COLUMNS),
    # experiment f comes first, and has no reg-spectral to pair osntf with
    "f,n,200,osntf,5,0.5,0.25,3,,,01",
    "f,n,200,spectral,5,0.5,0.25,0,,,01",
    # cell (10, 0): osntf and snmf tie; cell (10, 1): reg-spectral, snmf and spectral tie
    "e,avg_degree,10,reg-spectral,0,0.5,0.25,0,,,01",
    "e,avg_degree,10,reg-spectral,1,0.625,0.25,0,,,01",
    "e,avg_degree,10,osntf,0,0.75,0.125,4,,,01",
    "e,avg_degree,10,osntf,1,0.5,0.25,4,,,01",
    "e,avg_degree,10,snmf,0,0.75,0.125,4,,,01",
    "e,avg_degree,10,snmf,1,0.625,0.25,4,,,01",
    "e,avg_degree,10,spectral,0,0.25,0.5,0,,,01",
    "e,avg_degree,10,spectral,1,0.625,0.25,0,,,01",
    # cell (20, 0): one replicate, no spectral row; reg-spectral and osntf tie
    "e,avg_degree,20,reg-spectral,0,1.0,0.0,0,,,01",
    "e,avg_degree,20,osntf,0,1.0,0.0,4,,,01",
    "e,avg_degree,20,snmf,0,0.875,0.0625,4,,,01",
]

# worked by hand: an sd is |a - b| / sqrt(2) for two values, blank for one
HAND_REPORT = """\
### f

| n | method | reps | NMI mean ± sd | misclustering rate | wins | NMI gain over reg-spectral |
|---:|---|---:|---:|---:|---:|---:|
| 200 | osntf | 1 | 0.5000 | 0.2500 | 1 |  |
| 200 | spectral | 1 | 0.5000 | 0.2500 | 1 |  |

Wins out of 1 cells: osntf 1, spectral 1.

### e

| avg_degree | method | reps | NMI mean ± sd | misclustering rate | wins | NMI gain over reg-spectral |
|---:|---|---:|---:|---:|---:|---:|
| 10 | reg-spectral | 2 | 0.5625 ± 0.0884 | 0.2500 | 1 |  |
| 10 | osntf | 2 | 0.6250 ± 0.1768 | 0.1875 | 1 | +0.0625 ± 0.2652 |
| 10 | snmf | 2 | 0.6875 ± 0.0884 | 0.1875 | 2 | +0.1250 ± 0.1768 |
| 10 | spectral | 2 | 0.4375 ± 0.2652 | 0.3750 | 1 |  |
| 20 | reg-spectral | 1 | 1.0000 | 0.0000 | 1 |  |
| 20 | osntf | 1 | 1.0000 | 0.0000 | 1 | +0.0000 |
| 20 | snmf | 1 | 0.8750 | 0.0625 | 0 | -0.1250 |

Wins out of 3 cells: reg-spectral 2, osntf 2, snmf 2, spectral 1.
"""


class TestReport:
    def test_single_method_wins_everywhere(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(run_simulation(tiny_spec(methods=["osntf"])), path)
        lines = report([path]).splitlines()
        assert lines[-1] == "Wins out of 4 cells: osntf 4."
        assert [line.split(" | ")[-2] for line in lines[4:6]] == ["2", "2"]

    def test_hand_computed_csv(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("\r\n".join(HAND_CSV_ROWS) + "\r\n")
        assert report([path]) == HAND_REPORT

    def test_files_add_up_like_one(self, tmp_path):
        # a cell's rows split over two files are one cell
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        paths[0].write_text("\n".join(HAND_CSV_ROWS[:8]) + "\n")
        paths[1].write_text("\n".join(HAND_CSV_ROWS[:1] + HAND_CSV_ROWS[8:]) + "\n")
        assert report(paths) == HAND_REPORT

    def test_simulated_rows_in_sweep_and_method_order(self, tmp_path):
        spec = tiny_spec(methods=["snmf", "osntf", "spectral", "reg-spectral"])
        path = tmp_path / "rows.csv"
        write_csv(run_simulation(spec), path)
        rows = [line.split(" | ") for line in report([path]).splitlines()[4:12]]
        assert [(row[0], row[1], row[2]) for row in rows] == [
            (f"| {v}", m, "2") for v in spec.sweep_values for m in spec.methods
        ]
        assert [bool(row[-1].strip(" |")) for row in rows[:4]] == [True, True, False, False]

    def test_a_file_read_twice_is_refused(self, tmp_path):
        # osntf would win 4 of 2 cells
        path = tmp_path / "a.csv"
        write_csv(run_simulation(tiny_spec(avg_degree=[8.0], replicates=2)), path)
        report([path])
        with pytest.raises(BlockfactorError) as exc:
            report([path, path])
        assert str(exc.value).startswith(f"{path}, line 2: ") and str(exc.value).endswith(f"already read at {path}, line 2")

    def test_rows_read_as_their_csv(self, tmp_path):
        rows = run_simulation(tiny_spec(avg_degree=[8.0]))
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert report([rows]) == report([path])
        with pytest.raises(BlockfactorError, match=r"^rows, line 2: .* already read at rows, line 2$"):
            report([rows, rows])

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(BlockfactorError):
            report([path])

    @pytest.mark.parametrize("text, message", MALFORMED_CSVS.values(), ids=MALFORMED_CSVS.keys())
    def test_unreadable_csv_names_path_and_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(BlockfactorError) as exc:
            report([path])
        assert str(exc.value).startswith(str(path)) and message in str(exc.value)


class TestRunMethod:
    def test_unknown_method(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            run_method(g, 2, "bogus", seed=0)

    def test_methods_are_the_nmf_methods_then_the_spectral_variants(self):
        assert METHODS == ("snmf", "osntf", "spectral", "reg-spectral", "spectral-wp")
        assert METHODS[2:] == tuple(spectral.VARIANTS)

    @pytest.mark.parametrize("method", list(spectral.VARIANTS))
    @pytest.mark.parametrize("graph", ["karate", "dcsbm"])
    def test_spectral_clustering_is_the_method(self, graph, method):
        g, k = (karate()[0], 2) if graph == "karate" else (dcsbm_graph(), 3)
        for seed in (0, 7):
            expected = run_method(g, k, method, seed).labels
            assert np.array_equal(spectral_clustering(g, k, method, seed), expected)

    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_target_built_after_reg_spectral_partition(self, monkeypatch, method):
        # the dense target and the partition's own dense matrices never coexist
        calls = []
        for module, name in (
            (spectral, "regularized_laplacian"), (spectral, "kmeans"), (spectral, "normalized_laplacian"),
        ):
            monkeypatch.setattr(module, name, recording(getattr(module, name), name, calls))
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        run_method(g, 2, method, seed=0)
        assert calls == ["regularized_laplacian", "kmeans", "normalized_laplacian"]

    @pytest.mark.parametrize("runner", ["run_method", "run_methods"])
    @pytest.mark.parametrize("option", [dict(matrix="adjacency"), dict(init="spectral"), dict(tau=1.0)],
                             ids=lambda option: next(iter(option)))
    def test_deleted_options_are_refused(self, monkeypatch, runner, option):
        forbid(monkeypatch, "sym_eigs_topk", "kmeans", "regularized_laplacian", "normalized_laplacian")
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(TypeError, match=next(iter(option))):
            if runner == "run_method":
                run_method(g, 2, "snmf", seed=0, **option)
            else:
                run_methods(g, 2, ["snmf"], seed=0, **option)


class TestReportedResidual:
    """The reported residual is the solve's last trace entry, which for the
    CSR targets run_method builds is frobenius_residual's value bit for bit."""

    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    @pytest.mark.parametrize("graph", ["karate", "sbm", "dcsbm"])
    def test_equals_frobenius_residual(self, graph, method):
        if graph == "karate":
            g, _ = karate()
            k = 2
        elif graph == "sbm":
            g, _ = largest_connected_component(
                sample_graph(sbm_snr_preset(300, 3, 4.0, 12.0), seed=[3, 1])
            )
            k = 3
        else:
            g, k = dcsbm_graph(), 3
        out = run_method(g, k, method, seed=0)
        x = normalized_laplacian(g)
        h0 = nmf_init_from_partition(spectral_clustering(g, k, "reg-spectral", seed=0), k)
        f = (snmf if method == "snmf" else osntf)(x, k, h0)
        assert np.array_equal(out.labels, assign_communities(f.h))
        assert type(out.residual) is float
        assert out.residual == frobenius_residual(x, f.h, f.s)


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


# Method lists for the shared-stage tests: every method; the NMF methods
# alone, so only they use the "reg-spectral" partition; and a mix in which
# no method shares its eigensolve with the one listed before it.
SHARED_METHODS = [METHODS, ("osntf", "snmf"), ("spectral-wp", "snmf", "spectral")]


class TestRunMethods:
    """run_methods shares each eigensolve and partition; its outputs must not show it."""

    @pytest.mark.parametrize("make_graph", [sbm_graph, dcsbm_graph])
    @pytest.mark.parametrize("methods", SHARED_METHODS)
    def test_matches_independent_run_method_calls(self, make_graph, methods):
        g = make_graph()
        cfg = SolverConfig(max_iters=60)
        shared = run_methods(g, 3, methods, seed=[9, 2], cfg=cfg)
        for method, out in zip(methods, shared):
            alone = run_method(g, 3, method, seed=[9, 2], cfg=cfg)
            assert same_output(out, alone), method

    @pytest.mark.parametrize("methods", SHARED_METHODS)
    def test_method_order_does_not_matter(self, methods):
        g = dcsbm_graph()
        cfg = SolverConfig(max_iters=60)
        forward = run_methods(g, 3, methods, seed=1, cfg=cfg)
        backward = run_methods(g, 3, methods[::-1], seed=1, cfg=cfg)
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

    @pytest.mark.parametrize("methods", SHARED_METHODS)
    def test_one_laplacian_per_graph(self, monkeypatch, methods):
        calls = []
        for module in (bench, spectral):
            monkeypatch.setattr(module, "normalized_laplacian",
                                recording(module.normalized_laplacian, "normalized_laplacian", calls))
        run_methods(sbm_graph(), 3, methods, seed=0, cfg=SolverConfig(max_iters=5))
        assert calls == ["normalized_laplacian"]

    @pytest.mark.parametrize("methods", SHARED_METHODS)
    def test_cache_holds_no_dense_n_by_n_array(self, methods):
        g = sbm_graph()
        stages = spectral.SharedStages(g, 3, seed=0)
        cfg = SolverConfig(max_iters=20)
        for method in methods:
            bench._run_one(stages, method, cfg)
        kept = [value for value, _ in stages._done.values()]
        kept += [v for v in vars(stages).values() if isinstance(v, np.ndarray)]
        assert kept
        for value in kept:
            if issparse(value):  # L, with its 2m stored entries
                assert value.nnz == 2 * g.num_edges
            else:
                assert value.shape in {(g.n,), (g.n, 3)}

    def test_wall_time_is_the_standalone_cost(self, monkeypatch):
        # every method below uses the L_tau eigensolve, whichever runs it
        def slow_regularized_laplacian(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        real = spectral.regularized_laplacian
        monkeypatch.setattr(spectral, "regularized_laplacian", slow_regularized_laplacian)
        g = sbm_graph()
        cfg = SolverConfig(max_iters=5)
        for methods in (["reg-spectral", "spectral-wp", "osntf"], ["osntf", "spectral-wp", "reg-spectral"]):
            for out in run_methods(g, 3, methods, seed=0, cfg=cfg):
                assert out.wall_time_s >= 0.05

    @pytest.mark.parametrize("k", [0, 35, 40, 2.0, True, "2"])
    def test_k_outside_the_graph_fails_before_any_work(self, monkeypatch, k):
        g, _ = load_dataset("karate")
        forbid(monkeypatch, "sym_eigs_topk", "kmeans", "regularized_laplacian", "normalized_laplacian")
        with pytest.raises(InvalidInputError, match="k must"):
            run_methods(g, k, ["spectral", "osntf"], seed=0)
        with pytest.raises(InvalidInputError):
            run_method(g, k, "osntf", seed=0)

    def test_unknown_method_later_in_the_list_fails_before_any_work(self, monkeypatch):
        g, _ = load_dataset("karate")
        forbid(monkeypatch, "sym_eigs_topk", "kmeans", "regularized_laplacian", "normalized_laplacian")
        with pytest.raises(InvalidInputError, match="louvain"):
            run_methods(g, 2, ["spectral", "louvain"], seed=0)

    def test_realdata_table_matches_run_method(self):
        rows = realdata_table("karate", methods=list(METHODS), seed=0)
        g, _ = load_dataset("karate")
        for row in rows:
            alone = run_method(g, 2, row.method, seed=0)
            assert np.array_equal(row.labels, alone.labels)
            assert row.iterations == alone.iterations


class TestRealdata:
    def test_karate_table(self):
        rows = realdata_table("karate", methods=["reg-spectral"], seed=0)
        assert rows[0].sweep_value == 34
        assert rows[0].misclustering_rate == 0.0
        assert rows[0].nmi == 1.0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            realdata_table("emailgraph")
