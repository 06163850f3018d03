#!/usr/bin/env python3
"""Build graphs, inspect degrees and normalized Laplacians, extract components."""

import numpy as np

from blockfactor import (
    Graph,
    degrees,
    largest_connected_component,
    load_graph,
    normalized_laplacian,
    symmetrize_directed,
)
from blockfactor.datasets import data_dir

# a triangle plus a pendant edge, by hand
g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3)])
print("nodes:", g.n, "edges:", g.edge_array.tolist())
print("degrees:", degrees(g))

# node 4 is isolated, so the Laplacian refuses until we take the LCC
try:
    normalized_laplacian(g)
except Exception as exc:
    print("as expected:", exc)
lcc, kept = largest_connected_component(g)
print("largest component has", lcc.n, "nodes; kept original ids:", kept)
lap = normalized_laplacian(lcc)  # a sparse (CSR) matrix
print("Laplacian row sums:", np.round(lap.sum(axis=1), 3))
print("eigenvalues lie in [-1, 1]:", np.round(np.linalg.eigvalsh(lap.toarray()), 3))

# directed pairs collapse to a simple undirected graph
directed = [(0, 1), (1, 0), (2, 2), (1, 2)]
print("symmetrized:", symmetrize_directed(directed).edge_array.tolist())

# the bundled karate fixture carries ground-truth labels in its GML values
karate, labels = load_graph(data_dir() / "karate.gml")
print(f"karate: {karate.n} nodes, {karate.num_edges} edges, "
      f"faction sizes {np.bincount(labels)}")
print("highest-degree member has", degrees(karate).max(), "ties")
