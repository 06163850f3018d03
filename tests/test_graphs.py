"""Graph construction, degrees, Laplacians and component extraction."""

import re
from pathlib import Path

import numpy as np
import pytest

from blockfactor.errors import EmptyGraphError, GraphParseError, IsolatedNodeError
from blockfactor.graphs import (
    Graph,
    connected_components,
    degrees,
    induced_subgraph,
    is_connected,
    largest_connected_component,
    normalized_laplacian,
    symmetrize_directed,
)
from blockfactor.spectral import regularized_laplacian

DATA = Path(__file__).parent.parent / "src" / "blockfactor" / "data"

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < p
    return Graph.from_edges(n, zip(iu[hit].tolist(), ju[hit].tolist()))


def reachability_components(g):
    """Components read off the transitive closure of I + A, smallest member first."""
    reach = np.eye(g.n, dtype=bool)
    for i, j in g.edges:
        reach[i, j] = reach[j, i] = True
    while True:
        closed = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def component_test_graphs():
    """Edgeless graphs, sparse random graphs with isolated nodes, and size ties."""
    rng = np.random.default_rng(7)
    graphs = [Graph(n=1, edges=()), Graph(n=6, edges=())]
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
        assert g.edges == ((0, 3), (1, 2))

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
        assert g.edges == ((0, 3), (1, 2))
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]

    def test_adjacency_symmetric_binary_zero_diagonal(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 12, 0.3)
        a = g.adjacency
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(np.diag(a) == 0)
        assert set(zip(*np.nonzero(np.triu(a)))) == set(g.edges)

    def test_adjacency_readonly(self):
        with pytest.raises(ValueError):
            K3.adjacency[0, 1] = 5.0


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
        assert np.array_equal(normalized_laplacian(g), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_triangle_half_offdiagonal(self):
        lap = normalized_laplacian(K3)
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
            lap = normalized_laplacian(g)
            assert np.array_equal(lap, lap.T)
            assert lap.min() >= 0 and lap.max() <= 1
            assert np.all(np.diag(lap) == 0)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 30)), 0.3)
            a = g.adjacency
            d = a.sum(axis=1)
            for tau in (0.0, 0.5, None):
                t = d.mean() if tau is None else tau
                reg = np.where(d + t > 0, d + t, 1.0)
                expected = a / np.sqrt(np.outer(reg, reg))
                np.testing.assert_allclose(
                    regularized_laplacian(g, tau=tau), expected, rtol=0, atol=1e-15
                )
            if d.min() > 0:
                np.testing.assert_allclose(
                    normalized_laplacian(g), a / np.sqrt(np.outer(d, d)), rtol=0, atol=1e-15
                )

    def test_eigenvalues_within_unit_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, 18, 0.35)
            if (degrees(g) == 0).any():
                continue
            vals = np.linalg.eigvalsh(normalized_laplacian(g))
            assert vals.min() >= -1 - 1e-10 and vals.max() <= 1 + 1e-10


class TestComponents:
    def test_two_triangles_and_isolated(self):
        g = Graph.from_edges(
            7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        lcc, index_map = largest_connected_component(g)
        assert lcc.n == 3
        # tie broken toward the component holding node 0
        assert sorted(index_map) == [0, 1, 2]
        assert is_connected(lcc)

    def test_connected_graph_identity_map(self):
        lcc, index_map = largest_connected_component(K3)
        assert lcc.edges == K3.edges
        assert index_map == {0: 0, 1: 1, 2: 2}

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            largest_connected_component(Graph(n=0, edges=()))

    def test_lcc_is_connected_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng, 25, 0.08)
            lcc, _ = largest_connected_component(g)
            assert is_connected(lcc)
            sizes = [len(c) for c in connected_components(g)]
            assert lcc.n == max(sizes)

    def test_node_names_follow(self):
        g = Graph.from_edges(4, [(2, 3)], node_names=["a", "b", "c", "d"])
        lcc, _ = largest_connected_component(g)
        assert lcc.node_names == ("c", "d")

    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, index_map = induced_subgraph(g, [1, 2, 4])
        assert sub.n == 3
        assert sub.edges == ((0, 1),)
        assert index_map == {1: 0, 2: 1, 4: 2}

    def test_induced_subgraph_keeps_given_order(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, index_map = induced_subgraph(g, [4, 2, 1, 3])
        assert sub.edges == ((0, 3), (1, 2), (1, 3))
        assert index_map == {4: 0, 2: 1, 1: 2, 3: 3}

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
            assert connected_components(g) == [list(c) for c in expected]
            assert is_connected(g) == (len(expected) == 1)
            best = max(expected, key=len)  # first of the largest: smallest member
            lcc, index_map = largest_connected_component(g)
            assert list(index_map) == list(best)
            assert list(index_map.values()) == list(range(len(best)))
            expected_edges = tuple(
                (index_map[i], index_map[j]) for i, j in g.edges if i in index_map
            )
            assert lcc.edges == expected_edges

    def test_long_shuffled_path_is_one_component(self):
        # propagating labels one hop per round would take ~n rounds here
        n = 20_000
        order = np.random.default_rng(8).permutation(n)
        g = Graph.from_edges(n, np.column_stack((order[:-1], order[1:])))
        assert connected_components(g) == [list(range(n))]
        lcc, index_map = largest_connected_component(g)
        assert lcc.edges == g.edges and len(index_map) == n


class TestSymmetrizeDirected:
    def test_reciprocal_pair_collapses(self):
        g = symmetrize_directed([(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_self_loop_dropped(self):
        g = symmetrize_directed([(0, 0)], n=1)
        assert g.edges == ()

    def test_out_of_declared_range(self):
        with pytest.raises(GraphParseError):
            symmetrize_directed([(0, 5)], n=3)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pairs = [tuple(rng.integers(0, 12, size=2)) for _ in range(30)]
            g1 = symmetrize_directed(pairs, n=12)
            g2 = symmetrize_directed(list(g1.edges), n=12)
            assert g1.edges == g2.edges


class TestEdgelistRoundTrip:
    def test_edge_set_survives(self, tmp_path):
        from blockfactor.io import load_edgelist, save_edgelist

        rng = np.random.default_rng(6)
        for i in range(10):
            g = random_graph(rng, 14, 0.3)
            if g.num_edges == 0 or max(max(e) for e in g.edges) < g.n - 1:
                continue  # trailing isolated nodes are not representable
            path = tmp_path / f"g{i}.txt"
            save_edgelist(g, path)
            g2 = load_edgelist(path)
            assert g2.edges == g.edges
