"""Undirected simple graphs: construction, degrees, Laplacians, components."""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyGraphError, GraphParseError, IsolatedNodeError

__all__ = [
    "Graph",
    "degrees",
    "normalized_laplacian",
    "largest_connected_component",
    "connected_components",
    "is_connected",
    "induced_subgraph",
    "symmetrize_directed",
]


def _pair_array(pairs) -> np.ndarray:
    """Any iterable of (a, b) pairs, or an (m, 2) array, as an (m, 2) int64 array."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    e = np.array(pairs, dtype=np.int64)
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got shape {e.shape}")
    return e


def _canonical_edges(e: np.ndarray, n: int) -> tuple[tuple[int, int], ...]:
    """Loop-free in-range pairs as sorted, deduplicated (i, j) tuples with i < j."""
    key = np.unique(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
    return tuple(zip((key // n).tolist(), (key % n).tolist()))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Edges are canonical (i, j) pairs with i < j, sorted and deduplicated,
    so the adjacency matrix is symmetric, binary and zero on the diagonal
    by construction.  Instances are immutable and safe to share across
    parallel workers.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    node_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        i, j = self.edge_array.T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= self.n))
        if bad.size:
            b = bad[0]
            raise ValueError(f"edge ({i[b]}, {j[b]}) is not canonical for n={self.n}")
        if ((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))).any():
            raise ValueError("edges must be sorted and unique")
        if self.node_names is not None and len(self.node_names) != self.n:
            raise ValueError("node_names length must equal n")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        node_names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from an arbitrary edge iterable or (m, 2) array.

        Self loops are rejected, endpoints are reordered to i < j, and
        duplicates collapse.
        """
        e = _pair_array(edges)
        bad = np.flatnonzero((e[:, 0] == e[:, 1]) | (e < 0).any(axis=1) | (e >= n).any(axis=1))
        if bad.size:
            i, j = e[bad[0]].tolist()
            if i == j:
                raise ValueError(f"self loop on node {i} not allowed")
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        names = tuple(node_names) if node_names is not None else None
        return cls(n=n, edges=_canonical_edges(e, n), node_names=names)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """``edges`` as a read-only (m, 2) int64 array."""
        a = np.array(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        a.setflags(write=False)
        return a

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only)."""
        a = _scaled_adjacency(self, np.ones(self.n))
        a.setflags(write=False)
        return a


def _scaled_adjacency(g: Graph, w: np.ndarray) -> np.ndarray:
    """Dense W A W for the diagonal node weights w: entry (i, j) is w_i * w_j on edges."""
    i, j = g.edge_array.T
    a = np.zeros((g.n, g.n))
    a[i, j] = a[j, i] = w[i] * w[j]
    return a


def degrees(g: Graph) -> np.ndarray:
    """Per-node degree vector; sums to twice the edge count."""
    return np.bincount(g.edge_array.ravel(), minlength=g.n)


def normalized_laplacian(g: Graph) -> np.ndarray:
    """L = D^{-1/2} A D^{-1/2} with exact symmetry.

    Raises IsolatedNodeError if any node has degree 0; callers should
    restrict to the largest connected component first.
    """
    d = degrees(g)
    zero = np.flatnonzero(d == 0)
    if zero.size:
        raise IsolatedNodeError(int(zero[0]))
    return _scaled_adjacency(g, 1.0 / np.sqrt(d.astype(np.float64)))


def _component_roots(g: Graph) -> np.ndarray:
    """The smallest node of each node's component.

    Every node points at a smaller or equal node of its own component.
    Each round hooks the root of an edge's larger-labelled end onto the
    other end's label, then pointer-jumps until every node points at a
    root.  Once no edge joins two roots, the root of a component is its
    smallest node, the only node that cannot point lower.
    """
    root = np.arange(g.n)
    i, j = g.edge_array.T
    while True:
        ri, rj = root[i], root[j]
        if np.array_equal(ri, rj):
            return root
        np.minimum.at(root, ri, rj)
        np.minimum.at(root, rj, ri)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    root = _component_roots(g)
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)] if g.n else []


def is_connected(g: Graph) -> bool:
    return g.n > 0 and bool((_component_roots(g) == 0).all())


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the largest component plus the old->new index map.

    Ties between equally large components go to the one containing the
    smallest original node index.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot take the largest component of an empty graph")
    root = _component_roots(g)
    best = np.bincount(root).argmax()  # first maximum: the smallest root
    return induced_subgraph(g, np.flatnonzero(root == best))


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the given nodes (kept in the given order) plus old->new map."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise ValueError(f"node list has ids outside [0, {g.n})")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("node list contains duplicates")
    new = np.full(g.n, -1)
    new[nodes] = np.arange(nodes.size)
    e = new[g.edge_array]
    names = None
    if g.node_names is not None:
        names = tuple(g.node_names[old] for old in nodes)
    sub = Graph.from_edges(nodes.size, e[(e >= 0).all(axis=1)], names)
    return sub, dict(zip(nodes.tolist(), range(nodes.size)))


def symmetrize_directed(
    pairs: Iterable[tuple[int, int]], n: Optional[int] = None
) -> Graph:
    """Collapse a directed edge list into an undirected simple graph.

    An undirected edge is present if either direction appears.  Self loops
    are dropped; reciprocal and duplicate pairs collapse.  When ``n`` is
    given, endpoints outside [0, n) raise GraphParseError.
    """
    e = _pair_array(pairs)
    if n is None:
        n = 1 + int(e.max(initial=-1))
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if bad.size:
        a, b = e[bad[0]].tolist()
        raise GraphParseError(f"edge ({a}, {b}) out of declared range [0, {n})")
    return Graph(n=n, edges=_canonical_edges(e[e[:, 0] != e[:, 1]], n))
