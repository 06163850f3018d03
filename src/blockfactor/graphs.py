"""Undirected simple graphs: construction, degrees, Laplacians, components.

Graph matrices (the adjacency matrix and the normalized Laplacians L and
L_tau) are scipy CSR (compressed sparse row) arrays built from
``Graph.edge_array`` on demand, O(n + m) in time and memory.  scipy is
imported on the first such build or component search, not when this
module is imported.
"""

import sys
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GraphParseError, InvalidInputError, float_array, integer_array, is_integer

__all__ = [
    "Graph",
    "degrees",
    "normalized_laplacian",
    "regularized_laplacian",
    "largest_connected_component",
    "induced_subgraph",
    "symmetrize_directed",
]


def _pair_array(pairs) -> np.ndarray:
    """Integer (a, b) pairs as an (m, 2) int64 array; an int64 array is not copied."""
    e = integer_array(pairs if isinstance(pairs, np.ndarray) else list(pairs), "edge endpoints")
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise InvalidInputError(f"edges must be (i, j) pairs, got shape {e.shape}")
    return e


def _node_count(n) -> int:
    if not (is_integer(n) and n >= 0):
        raise InvalidInputError(f"node count must be a nonnegative integer, got {n!r}")
    return n


# canonical edges are sorted by the int64 key i * n + j, which bounds n
MAX_NODES = isqrt(np.iinfo(np.int64).max)


def _canonical_edges(e: np.ndarray, n: int) -> np.ndarray:
    """Loop-free in-range pairs as a sorted, deduplicated (m, 2) array with i < j."""
    if n > MAX_NODES:
        raise InvalidInputError(f"n={n} exceeds the supported maximum of {MAX_NODES} nodes")
    key = _sorted_unique(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
    return np.column_stack(np.divmod(key, n))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for 1-D integer ``a``, by one sort: numpy 2.4's
    hash-based ``unique`` took 0.98 s on 10^6 keys, against 15 ms here."""
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if a.size else a


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    ``edge_array`` is the one stored form of the edges: a read-only (m, 2)
    int64 array of canonical pairs i < j, sorted and unique, so the
    adjacency matrix is symmetric, binary and zero on the diagonal.  The
    constructor checks any (m, 2) array-like and keeps a read-only copy;
    ``from_edges`` takes arbitrary pairs.  Instances are immutable and safe
    to share across parallel workers.
    """

    n: int
    edge_array: np.ndarray
    node_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        _node_count(self.n)
        e = _pair_array(self.edge_array).copy()  # the caller's array is never frozen
        i, j = e.T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= self.n))
        if bad.size:
            b = bad[0]
            raise InvalidInputError(f"edge ({i[b]}, {j[b]}) is not canonical for n={self.n}")
        if ((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))).any():
            raise InvalidInputError("edges must be sorted and unique")
        e.setflags(write=False)
        object.__setattr__(self, "edge_array", e)
        if self.node_names is not None:
            iterable = isinstance(self.node_names, Iterable) and not isinstance(self.node_names, str)
            names = tuple(self.node_names) if iterable else None
            if names is None or len(names) != self.n or not all(isinstance(name, str) for name in names):
                raise InvalidInputError(f"node_names must be a sequence of {self.n} str, one per node")
            object.__setattr__(self, "node_names", names)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.node_names) == (other.n, other.node_names) and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes(), self.node_names))

    def __reduce__(self):
        # through the constructor, so an unpickled edge_array is read-only too
        return type(self), (self.n, self.edge_array, self.node_names)

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
        e, n = _pair_array(edges), _node_count(n)
        bad = np.flatnonzero((e[:, 0] == e[:, 1]) | (e < 0).any(axis=1) | (e >= n).any(axis=1))
        if bad.size:
            i, j = e[bad[0]].tolist()
            if i == j:
                raise InvalidInputError(f"self loop on node {i} not allowed")
            raise InvalidInputError(f"edge ({i}, {j}) out of range for n={n}")
        return cls(n, _canonical_edges(e, n), node_names)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def adjacency(self):
        """Symmetric 0/1 adjacency matrix as a read-only CSR array, built
        on each access (nothing n x n is kept on the graph)."""
        return _scaled_adjacency(self, np.ones(self.n))


def _scaled_adjacency(g: Graph, w: np.ndarray):
    """W A W for the diagonal node weights w, as a read-only CSR array.

    Entry (i, j) is w_i * w_j on edges, so ``toarray()`` is exactly
    symmetric.  Indices are sorted and unique (canonical CSR).
    """
    from scipy import sparse

    i, j = g.edge_array.T
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    a = sparse.csr_array((w[rows] * w[cols], (rows, cols)), shape=(g.n, g.n))
    a.data.setflags(write=False)
    return a


def as_matrix(x):
    """``x`` as a float64 CSR array in canonical form if it is a scipy
    sparse matrix, else as a dense float64 array.

    Only a module that has already imported scipy.sparse can have made a
    sparse ``x``, so dense callers never load scipy through this test.
    """
    sparse = sys.modules.get("scipy.sparse")
    if sparse is None or not sparse.issparse(x):
        return float_array(x, "matrix")
    if x.dtype.kind == "c":  # the cast would drop the imaginary part
        raise InvalidInputError("matrix must be an array of real numbers")
    x = sparse.csr_array(x, dtype=np.float64)
    if not x.has_canonical_format:
        x = x.copy()
        x.sum_duplicates()
    return x


def symmetric_matrix(x, k):
    """``as_matrix(x)`` once it is square, ``k`` is an integer in [1, n], and
    it is finite and symmetric to within 1e-8 per entry, else
    InvalidInputError: the one matrix check of ``spectral.sym_eigs_topk``
    and both solvers.  For CSR x it reads only the stored entries, O(m)."""
    x = as_matrix(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {x.shape}")
    n, dense = x.shape[0], isinstance(x, np.ndarray)
    if not (is_integer(k) and 1 <= k <= n):
        raise InvalidInputError(f"k={k!r} must be an integer in [1, {n}]")
    if not np.isfinite(x if dense else x.data).all():
        raise InvalidInputError("matrix must be finite (it has NaN or infinite entries)")
    if dense:  # exact equality implies the tolerance test and is several times cheaper
        symmetric = np.array_equal(x, x.T) or np.allclose(x, x.T, rtol=0, atol=1e-8)
    else:
        symmetric = np.abs((x - x.T).data).max(initial=0.0) <= 1e-8
    if not symmetric:
        raise InvalidInputError("matrix must be symmetric to within 1e-8 per entry")
    return x


def degrees(g: Graph) -> np.ndarray:
    """Per-node degree vector; sums to twice the edge count."""
    return np.bincount(g.edge_array.ravel(), minlength=g.n)


def normalized_laplacian(g: Graph):
    """L = D^{-1/2} A D^{-1/2} as a read-only CSR array, exactly symmetric.

    Raises InvalidInputError if any node has degree 0; callers should
    restrict to the largest connected component first.
    """
    d = degrees(g)
    zero = np.flatnonzero(d == 0)
    if zero.size:
        raise InvalidInputError(
            f"node {int(zero[0])} is isolated (degree 0); restrict to the largest "
            "connected component before building the normalized Laplacian"
        )
    return _scaled_adjacency(g, 1.0 / np.sqrt(d.astype(np.float64)))


def regularized_laplacian(g: Graph):
    """L_tau = (D + tau I)^{-1/2} A (D + tau I)^{-1/2} as a read-only CSR
    array, with tau the average node degree (Qin & Rohe, NeurIPS 2013).

    Defined for any graph, including ones with isolated nodes.
    """
    d = degrees(g).astype(np.float64)
    reg = d + (d.mean() if g.n else 0.0)
    # reg is 0 only on an edgeless graph's nodes, whose weight never enters
    return _scaled_adjacency(g, 1.0 / np.sqrt(np.where(reg > 0, reg, 1.0)))


def _component_labels(g: Graph) -> np.ndarray:
    """scipy's component label of each node: equal labels, same component.

    ``connected_components`` labels the upper-triangular pattern, built
    straight from ``edge_array``: its rows are sorted, so the row pointers
    are a cumulative sum of row counts and no sort is needed.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    i, j = g.edge_array.T
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=g.n))))
    upper = csr_array((np.ones(i.size), np.ascontiguousarray(j), indptr), shape=(g.n, g.n))
    return connected_components(upper, directed=False)[1]


def largest_connected_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component plus its nodes' original
    ids, ascending as an int64 array: node i of the subgraph is ``nodes[i]``.

    Ties between equally large components go to the one containing the
    smallest original node index.
    """
    if g.n == 0:
        raise InvalidInputError("cannot take the largest component of an empty graph")
    labels = _component_labels(g)
    sizes = np.bincount(labels)
    best = labels[np.argmax(sizes[labels] == sizes.max())]  # the first node in a largest one
    nodes = np.flatnonzero(labels == best)
    return induced_subgraph(g, nodes), nodes


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on the given nodes, kept in the given order: its node i is ``nodes[i]``."""
    nodes = integer_array(nodes, "node ids")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise InvalidInputError(f"node list has ids outside [0, {g.n})")
    if _sorted_unique(nodes).size != nodes.size:
        raise InvalidInputError("node list contains duplicates")
    new = np.full(g.n, -1)
    new[nodes] = np.arange(nodes.size)
    e = new[g.edge_array]
    e = e[(e >= 0).all(axis=1)]
    names = None
    if g.node_names is not None:
        names = tuple(g.node_names[old] for old in nodes)
    # an increasing map keeps i < j and the sorted order: e is canonical
    build = Graph if (nodes[1:] > nodes[:-1]).all() else Graph.from_edges
    return build(int(nodes.size), e, names)


def symmetrize_directed(
    pairs: Iterable[tuple[int, int]], n: Optional[int] = None
) -> Graph:
    """Collapse a directed edge list into an undirected simple graph.

    An undirected edge is present if either direction appears.  Self loops
    are dropped; reciprocal and duplicate pairs collapse.  When ``n`` is
    given, endpoints outside [0, n) raise GraphParseError.
    """
    e = _pair_array(pairs)
    n = _node_count(1 + int(e.max(initial=-1)) if n is None else n)
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if bad.size:
        a, b = e[bad[0]].tolist()
        raise GraphParseError(f"edge ({a}, {b}) out of declared range [0, {n})")
    return Graph(n, _canonical_edges(e[e[:, 0] != e[:, 1]], n))
