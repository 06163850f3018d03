"""Graph construction, degrees, Laplacians and component extraction."""

import re
from pathlib import Path

import numpy as np
import pytest

from blockfactor.errors import EmptyGraphError, GraphParseError, InvalidInputError, IsolatedNodeError
from blockfactor.graphs import (
    MAX_NODES,
    Graph,
    degrees,
    induced_subgraph,
    largest_connected_component,
    normalized_laplacian,
    regularized_laplacian,
    symmetrize_directed,
)
from blockfactor.graphs import _canonical_edges, _component_labels

DATA = Path(__file__).parent.parent / "src" / "blockfactor" / "data"

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < p
    return Graph.from_edges(n, zip(iu[hit].tolist(), ju[hit].tolist()))


def reachability_components(g):
    """Components read off the transitive closure of I + A, smallest member first."""
    reach = np.eye(g.n, dtype=bool)
    for i, j in g.edge_array.tolist():
        reach[i, j] = reach[j, i] = True
    while True:
        closed = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def label_components(g):
    """The components ``_component_labels`` gives, smallest member first."""
    labels = _component_labels(g)
    return sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels))


def component_test_graphs():
    """Edgeless graphs, sparse random graphs with isolated nodes, and size ties."""
    rng = np.random.default_rng(7)
    graphs = [Graph(n=1, edge_array=()), Graph(n=6, edge_array=())]
    for _ in range(90):
        graphs.append(random_graph(rng, int(rng.integers(1, 30)), float(rng.random()) * 0.15))
    for _ in range(10):
        # equal-size blocks on shuffled ids: every component ties for largest
        size, count = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        ids = rng.permutation(size * count).reshape(count, size)
        edges = [(b[t], b[t + 1]) for b in ids for t in range(size - 1)]
        graphs.append(Graph.from_edges(size * count, edges))
    return graphs


class TestGraphType:
    def test_canonical_edges(self):
        g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize("edges", [[(-1, 1)], [(0, 1, 2)]])
    def test_malformed_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            Graph.from_edges(2, edges)

    def test_array_input_matches_pairs(self):
        g = Graph.from_edges(4, np.array([[2, 1], [1, 2], [0, 3]]))
        assert g == Graph.from_edges(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]

    def test_edge_array_matches_edges_and_is_read_only(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 30, 0.2)
        built = [
            g,
            Graph(n=g.n, edge_array=g.edge_array.tolist()),
            induced_subgraph(g, rng.permutation(30)[:20]),
            symmetrize_directed(g.edge_array.tolist()[::-1] + [[4, 4]], n=30),
            Graph.from_edges(5, []),
        ]
        for h in built:
            e = h.edge_array
            assert e.dtype == np.int64 and e.shape == (h.num_edges, 2)
            assert (e[:, 0] < e[:, 1]).all()
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0:1] = 0

    @pytest.mark.parametrize(
        "edges", [((1, 0),), ((0, 1), (0, 1)), ((0, 2), (0, 1)), ((0, 3),), ((-1, 1),)]
    )
    def test_malformed_canonical_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            Graph(n=3, edge_array=edges)

    def test_adjacency_symmetric_binary_zero_diagonal(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 12, 0.3)
        a = g.adjacency.toarray()
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(np.diag(a) == 0)
        assert set(zip(*np.nonzero(np.triu(a)))) == set(map(tuple, g.edge_array.tolist()))

    def test_adjacency_readonly(self):
        with pytest.raises(ValueError):
            K3.adjacency[0, 1] = 5.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Graph.from_edges(2, [(0, 1, 2)]),
            lambda: symmetrize_directed([(0, 1)], n=MAX_NODES + 1),
            lambda: Graph(n=-1, edge_array=[]),
            lambda: Graph(n=3, edge_array=[(1, 0)]),
            lambda: Graph(n=3, edge_array=[(0, 2), (0, 1)]),
            lambda: Graph(n=2, edge_array=[], node_names=("a",)),
            lambda: Graph.from_edges(3, [(1, 1)]),
            lambda: Graph.from_edges(2, [(0, 2)]),
            lambda: induced_subgraph(K3, [0, 3]),
            lambda: induced_subgraph(K3, [0, 0]),
        ],
    )
    def test_bad_argument_is_a_typed_error(self, make):
        with pytest.raises(InvalidInputError):
            make()


class TestDegrees:
    def test_triangle(self):
        assert degrees(K3).tolist() == [2, 2, 2]

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert degrees(g).tolist() == [1, 1]

    def test_sum_is_twice_edges(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng, 15, 0.25)
            assert degrees(g).sum() == 2 * g.num_edges

    def test_karate_node0_matches_independent_count(self):
        # count node 0's incident edges straight from the fixture text
        text = (DATA / "karate.gml").read_text()
        incident = 0
        for m in re.finditer(r"edge \[ source (\d+) target (\d+) \]", text):
            if "0" in (m.group(1), m.group(2)):
                incident += 1
        from blockfactor.io import load_gml

        g, _ = load_gml(DATA / "karate.gml")
        assert degrees(g)[0] == incident == 16


class TestNormalizedLaplacian:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert np.array_equal(normalized_laplacian(g).toarray(), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_triangle_half_offdiagonal(self):
        lap = normalized_laplacian(K3).toarray()
        expected = (np.ones((3, 3)) - np.eye(3)) / 2
        np.testing.assert_allclose(lap, expected, rtol=0, atol=1e-15)

    def test_path_graph_hand_computed(self):
        # path 0-1-2: degrees [1,2,1], L_01 = L_12 = 1/sqrt(2), L_02 = 0
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lap = normalized_laplacian(g)
        assert lap[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert lap[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert lap[0, 2] == 0.0

    def test_isolated_node_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedNodeError) as exc:
            normalized_laplacian(g)
        assert exc.value.node == 2

    def test_entries_in_unit_interval_and_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, 20, 0.4)
            if (degrees(g) == 0).any():
                continue
            lap = normalized_laplacian(g).toarray()
            assert np.array_equal(lap, lap.T)
            assert lap.min() >= 0 and lap.max() <= 1
            assert np.all(np.diag(lap) == 0)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(9)
        # first an edgeless graph, where d + tau is 0 and L_tau's guard
        # divides by 1 instead, and one with isolated nodes, whose rows are 0
        graphs = [Graph(5, np.empty((0, 2), dtype=np.int64)), Graph.from_edges(6, [(0, 1), (1, 2)])]
        graphs += [random_graph(rng, int(rng.integers(2, 30)), 0.3) for _ in range(20)]
        for g in graphs:
            a = g.adjacency.toarray()
            d = a.sum(axis=1)
            reg = np.where(d + d.mean() > 0, d + d.mean(), 1.0)
            expected = a / np.sqrt(np.outer(reg, reg))
            np.testing.assert_allclose(regularized_laplacian(g).toarray(), expected, rtol=0, atol=1e-15)
            if d.min() > 0:
                np.testing.assert_allclose(
                    normalized_laplacian(g).toarray(), a / np.sqrt(np.outer(d, d)), rtol=0, atol=1e-15
                )

    def test_eigenvalues_within_unit_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, 18, 0.35)
            if (degrees(g) == 0).any():
                continue
            vals = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
            assert vals.min() >= -1 - 1e-10 and vals.max() <= 1 + 1e-10


class TestComponents:
    def test_two_triangles_and_isolated(self):
        g = Graph.from_edges(
            7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        lcc, nodes = largest_connected_component(g)
        assert lcc.n == 3
        # tie broken toward the component holding node 0
        assert nodes.tolist() == [0, 1, 2]
        assert len(label_components(lcc)) == 1

    def test_connected_graph_identity_map(self):
        lcc, nodes = largest_connected_component(K3)
        assert lcc.edge_array.tolist() == K3.edge_array.tolist()
        assert nodes.dtype == np.int64 and nodes.tolist() == [0, 1, 2]

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            largest_connected_component(Graph(n=0, edge_array=()))

    def test_lcc_is_connected_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng, 25, 0.08)
            lcc, _ = largest_connected_component(g)
            assert len(label_components(lcc)) == 1
            sizes = [len(c) for c in label_components(g)]
            assert lcc.n == max(sizes)

    def test_node_names_follow(self):
        g = Graph.from_edges(4, [(2, 3)], node_names=["a", "b", "c", "d"])
        lcc, _ = largest_connected_component(g)
        assert lcc.node_names == ("c", "d")

    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = induced_subgraph(g, [1, 2, 4])
        assert isinstance(sub, Graph) and sub.n == 3
        assert sub.edge_array.tolist() == [[0, 1]]

    def test_induced_subgraph_keeps_given_order(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = induced_subgraph(g, [4, 2, 1, 3])
        assert sub.edge_array.tolist() == [[0, 3], [1, 2], [1, 3]]

    def test_induced_subgraph_equals_from_edges(self):
        # increasing node lists skip from_edges; the result must not change
        from blockfactor.blockmodels import sample_graph, sbm_snr_preset

        rng = np.random.default_rng(11)
        for seed in range(6):
            g = sample_graph(sbm_snr_preset(300, 3, 3.0, 8.0), seed=seed)
            g = Graph(g.n, g.edge_array, tuple(f"v{i}" for i in range(g.n)))
            subsets = [
                np.arange(g.n),
                np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)),
                rng.choice(g.n, size=int(rng.integers(2, g.n)), replace=False),
                rng.permutation(g.n),
                np.arange(g.n)[::-1],
                np.array([], dtype=np.int64),
            ]
            for nodes in subsets:
                new = np.full(g.n, -1)
                new[nodes] = np.arange(nodes.size)
                e = new[g.edge_array]
                want = Graph.from_edges(nodes.size, e[(e >= 0).all(axis=1)],
                                        [g.node_names[i] for i in nodes])
                sub = induced_subgraph(g, nodes)
                assert sub == want and sub.n == nodes.size
                assert not sub.edge_array.flags.writeable

    @pytest.mark.parametrize("nodes", [[5, 1], [-1, 1], [3]])
    def test_induced_subgraph_rejects_unknown_nodes(self, nodes):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="outside"):
            induced_subgraph(g, nodes)

    def test_induced_subgraph_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            induced_subgraph(K3, [0, 0])

    def test_components_match_reachability_closure(self):
        for g in component_test_graphs():
            expected = reachability_components(g)
            assert label_components(g) == expected
            best = max(expected, key=len)  # first of the largest: smallest member
            lcc, nodes = largest_connected_component(g)
            assert nodes.dtype == np.int64 and nodes.tolist() == list(best)
            new = {old: i for i, old in enumerate(best)}
            expected_edges = [[new[i], new[j]] for i, j in g.edge_array.tolist() if i in new]
            assert lcc.edge_array.tolist() == expected_edges

    def test_long_shuffled_path_is_one_component(self):
        # propagating labels one hop per round would take ~n rounds here
        n = 20_000
        order = np.random.default_rng(8).permutation(n)
        g = Graph.from_edges(n, np.column_stack((order[:-1], order[1:])))
        assert (_component_labels(g) == _component_labels(g)[0]).all()
        lcc, nodes = largest_connected_component(g)
        assert lcc.edge_array.tolist() == g.edge_array.tolist()
        assert np.array_equal(nodes, np.arange(n))


class TestSymmetrizeDirected:
    def test_reciprocal_pair_collapses(self):
        g = symmetrize_directed([(0, 1), (1, 0)])
        assert g.edge_array.tolist() == [[0, 1]]

    def test_self_loop_dropped(self):
        g = symmetrize_directed([(0, 0)], n=1)
        assert g.edge_array.tolist() == []

    def test_out_of_declared_range(self):
        with pytest.raises(GraphParseError):
            symmetrize_directed([(0, 5)], n=3)

    def test_node_count_above_key_range_rejected(self):
        # i * n + j would overflow int64 and garble the canonical edges
        with pytest.raises(ValueError, match="exceeds"):
            symmetrize_directed([(0, 1), (3999999999, 4000000000)])
        with pytest.raises(ValueError, match="exceeds"):
            Graph.from_edges(MAX_NODES + 1, [(0, 1)])
        top = np.array([[MAX_NODES - 1, MAX_NODES - 2], [0, 1]])
        expected = [[0, 1], [MAX_NODES - 2, MAX_NODES - 1]]
        assert _canonical_edges(top, MAX_NODES).tolist() == expected

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pairs = [tuple(rng.integers(0, 12, size=2)) for _ in range(30)]
            g1 = symmetrize_directed(pairs, n=12)
            g2 = symmetrize_directed(g1.edge_array.tolist(), n=12)
            assert g1.edge_array.tolist() == g2.edge_array.tolist()


class TestEdgelistRoundTrip:
    def test_edge_set_survives(self, tmp_path):
        from blockfactor.io import load_edgelist, save_edgelist

        rng = np.random.default_rng(6)
        for i in range(10):
            g = random_graph(rng, 14, 0.3)
            if g.num_edges == 0 or g.edge_array.max() < g.n - 1:
                continue  # trailing isolated nodes are not representable
            path = tmp_path / f"g{i}.txt"
            save_edgelist(g, path)
            g2 = load_edgelist(path)
            assert g2.edge_array.tolist() == g.edge_array.tolist()
