"""``Graph.edge_array`` is the only edge form: ``Graph`` has no ``edges``
attribute, and equality, pickling and written files are unchanged."""

import pickle

import numpy as np

from blockfactor.bench import (
    METHODS,
    ExperimentSpec,
    run_methods,
    run_simulation,
    verify_csv_rows,
    write_csv,
)
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.datasets import karate
from blockfactor.graphs import Graph, largest_connected_component
from blockfactor.io import load_gml, load_graph, save_edgelist, save_gml


def sampled_graphs():
    """Largest components of a few sampled SBM and DCSBM graphs, with labels."""
    out = []
    for seed, params in enumerate(
        [
            sbm_snr_preset(300, 3, 4.0, 10.0),
            sbm_snr_preset(500, 2, 2.0, 6.0),
            dcsbm_powerlaw_preset(400, 3, 4.0, 12.0, 2.5, seed=[5, 0]),
        ]
    ):
        g, nodes = largest_connected_component(sample_graph(params, seed=[seed, 1]))
        out.append((g, params.z[nodes]))
    return out


class TestNoTuplePath:
    def test_sampling_components_and_methods(self):
        assert not hasattr(Graph.from_edges(2, [(0, 1)]), "edges")
        for g, _ in sampled_graphs():
            outputs = run_methods(g, 2, METHODS, seed=0)
            assert all(out.labels.shape == (g.n,) for out in outputs)

    def test_edgelist_round_trip(self, tmp_path):
        for g, _ in sampled_graphs():
            path = tmp_path / "g.edges"
            save_edgelist(g, path)
            assert load_graph(path) == (g, None)

    def test_gml_round_trip(self, tmp_path):
        g, labels = karate()
        path = tmp_path / "karate.gml"
        save_gml(g, path, labels=labels)
        g2, labels2 = load_gml(path)
        assert g2 == g and np.array_equal(labels2, labels)

    def test_simulation_and_spot_check(self, tmp_path):
        spec = ExperimentSpec(
            experiment="tiny", model="sbm", n=48, k=2, snr=4.0, avg_degree=[8.0, 12.0],
            sweep="avg_degree", methods=["osntf", "spectral"], replicates=2, base_seed=3,
        )
        path = tmp_path / "tiny.csv"
        write_csv(run_simulation(spec), path)
        assert verify_csv_rows(spec, path, fraction=1.0) == 8


class TestGraphValue:
    def test_equality(self):
        for g, _ in sampled_graphs():
            assert g == Graph(g.n, g.edge_array.copy())
            assert g == Graph(g.n, g.edge_array.tolist())
            assert g != Graph(g.n + 1, g.edge_array)
            assert g != Graph(g.n, g.edge_array[1:])
            assert g != Graph(g.n, g.edge_array, tuple(map(str, range(g.n))))
            assert g != g.edge_array.tolist()  # a Graph equals only a Graph
            assert hash(g) == hash(Graph(g.n, g.edge_array))
        listed = Graph(3, [(0, 1)], node_names=["a", "b", "c"])
        assert listed == Graph(3, [(0, 1)], ("a", "b", "c"))
        assert hash(listed) == hash(Graph(3, [(0, 1)], ("a", "b", "c")))

    def test_pickle_round_trip(self):
        for g, _ in sampled_graphs():
            named = Graph(g.n, g.edge_array, tuple(f"v{i}" for i in range(g.n)))
            for h in (g, named):
                again = pickle.loads(pickle.dumps(h))
                assert again == h and again.node_names == h.node_names
                assert not again.edge_array.flags.writeable

    def test_caller_array_is_copied_not_frozen(self):
        e = np.array([[0, 1], [1, 2]])
        g = Graph(3, e)
        assert e.flags.writeable
        e[0] = [0, 2]
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]
        assert not g.edge_array.flags.writeable


class TestWrittenFiles:
    def test_edgelist_literal(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edgelist(Graph.from_edges(4, [(2, 1), (3, 0), (1, 0)]), path)
        assert path.read_bytes() == b"0 1\n0 3\n1 2\n"

    def test_edgelist_matches_per_tuple_writer(self, tmp_path):
        for g, _ in sampled_graphs():
            path = tmp_path / "g.edges"
            save_edgelist(g, path)
            expected = "".join(f"{i} {j}\n" for i, j in g.edge_array.tolist())
            assert path.read_bytes() == expected.encode()

    def test_gml_literal(self, tmp_path):
        path = tmp_path / "g.gml"
        g = Graph.from_edges(3, [(1, 0), (2, 1)], node_names=["a", "b", "c"])
        save_gml(g, path, labels=np.array([1, -1, 0]))
        assert path.read_text() == (
            "graph [\n"
            '  node [ id 0 value 1 label "a" ]\n'
            '  node [ id 1 label "b" ]\n'
            '  node [ id 2 value 0 label "c" ]\n'
            "  edge [ source 0 target 1 ]\n"
            "  edge [ source 1 target 2 ]\n"
            "]\n"
        )
