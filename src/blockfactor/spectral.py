"""Top-k symmetric eigenpairs, k-means and spectral clustering baselines.

Graph matrices are CSR arrays (see ``blockfactor.graphs``).  Their top-k
eigenpairs come from LOBPCG, a block eigensolver (Knyazev, "Toward the
optimal preconditioned eigensolver", SISC 2001), which needs only
matrix products with an n x k block; dense matrices, and CSR ones small
enough that a full ``np.linalg.eigh`` is faster, go to ``eigh``.
scipy.sparse.linalg is imported on the first LOBPCG solve.
"""

import warnings
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError, NoConvergenceError
from .graphs import Graph, _scaled_adjacency, as_csr, degrees, normalized_laplacian

__all__ = [
    "EigenPairs",
    "sym_eigs_topk",
    "kmeans",
    "regularized_laplacian",
    "graph_eigenvectors",
    "unit_rows",
    "spectral_clustering",
    "nmf_init_from_partition",
]

# A LOBPCG eigenpair is accepted once its residual ||M v - lambda v|| is
# below _LOBPCG_TOL times a bound on ||M||_2, and each run aims 10x lower.
# The largest principal-angle sine against the exact top-k subspace is
# then about the residual over the eigengap.  At a highly repeated
# eigenvalue the residuals can stall near 2e-10 run after run.
_LOBPCG_TOL = 1e-9
_LOBPCG_MAXITER = 1000
_LOBPCG_RUNS = 10
_LOBPCG_SEED = 0

# CSR matrices with fewer rows go to dense eigh.  Top-3 of a sampled L or
# L_tau on 2 cores: LOBPCG 10-14 ms vs eigh 1 ms at 90 rows, about even
# (25-32 vs 25-27 ms) at 400, and 24-35 vs 38-43 ms at 500.
_DENSE_EIGH_BELOW = 450


class EigenPairs(NamedTuple):
    """Top eigenvalues (descending) with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigs_topk(m, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix by algebraic value.

    A dense ``m`` is solved by ``np.linalg.eigh``.  A CSR ``m`` is solved
    by ``_lobpcg_topk`` once it has at least ``_DENSE_EIGH_BELOW`` rows and
    5k rows (LOBPCG's own lower limit), and by ``eigh`` on ``m.toarray()``
    below that, where the dense solve is the faster one.  Signs follow
    the convention that the first nonzero coordinate of each eigenvector
    is positive, so repeated runs are comparable.
    """
    csr = as_csr(m)
    m = np.asarray(m, dtype=np.float64) if csr is None else csr
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k={k} out of range for n={n}")
    if csr is not None and n >= max(5 * k, _DENSE_EIGH_BELOW):
        vals, vecs = _lobpcg_topk(csr, k)
    else:
        if csr is not None:
            m = csr.toarray()
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(str(exc)) from exc
        order = np.arange(n)[::-1][:k]
        vals = vals[order].copy()
        vecs = vecs[:, order].copy()
    for col in range(k):
        nz = np.flatnonzero(np.abs(vecs[:, col]) > 1e-12)
        if nz.size and vecs[nz[0], col] < 0:
            vecs[:, col] = -vecs[:, col]
    return EigenPairs(values=vals, vectors=vecs)


def _lobpcg_topk(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a CSR matrix by LOBPCG from a fixed random block.

    A block method, unlike a one-vector Krylov solver, finds every copy of
    a repeated eigenvalue, such as the eigenvalue 1 of a Laplacian with k
    components.  There, though, LOBPCG can stop early when its residual
    block loses rank; each restart goes on from the block it returned.
    Raises NoConvergenceError if a residual is still above tolerance.
    """
    from scipy.sparse.linalg import lobpcg

    # the largest absolute row sum bounds ||m||_2
    tol = _LOBPCG_TOL * max(1.0, float(abs(m).sum(axis=1).max()))
    vecs = np.random.default_rng(_LOBPCG_SEED).standard_normal((m.shape[0], k))
    for _ in range(_LOBPCG_RUNS):
        with warnings.catch_warnings():
            # a miss is judged below, from the residuals of what it returns
            warnings.simplefilter("ignore")
            vals, vecs = lobpcg(m, vecs, tol=tol / 10, maxiter=_LOBPCG_MAXITER, largest=True)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        resid = float(np.linalg.norm(m @ vecs - vecs * vals, axis=0).max())
        if resid <= tol:
            return vals, vecs
    raise NoConvergenceError(
        f"LOBPCG residual {resid:.3g} above tolerance {tol:.3g} after {_LOBPCG_RUNS} runs"
    )


def _plusplus_centroids(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    dist_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = dist_sq.sum()
        if total > 0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)
        centroids[c] = points[idx]
        dist_sq = np.minimum(dist_sq, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iterations with farthest-point re-seeding of empty clusters.

    Returns (labels, wcss, per-iteration wcss history).
    """
    k = centroids.shape[0]
    history = []
    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        own = d2[np.arange(points.shape[0]), labels]
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                far = int(own.argmax())
                centroids[c] = points[far]
                own[far] = 0.0  # keep a second empty cluster from stealing it
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    wcss = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, wcss, history


def kmeans(
    points: np.ndarray,
    k: int,
    seed,
    restarts: int = 20,
    max_iter: int = 100,
) -> np.ndarray:
    """k-means labels, best of `restarts` k-means++ runs by within-cluster SS.

    Deterministic given the seed.  Degenerate inputs (fewer distinct
    points than k) may leave clusters empty; the surviving labels are
    still valid in [0, k).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be an N x D matrix")
    if not 1 <= k <= points.shape[0]:
        raise InvalidInputError(f"k={k} out of range for {points.shape[0]} points")
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(max(1, restarts)):
        centroids = _plusplus_centroids(points, k, rng)
        labels, wcss, _ = _lloyd(points, centroids, max_iter)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels.astype(np.int64)


def regularized_laplacian(g: Graph, tau: Optional[float] = None):
    """L_tau = (D + tau I)^{-1/2} A (D + tau I)^{-1/2}, a read-only CSR array.

    tau defaults to the average node degree and must be nonnegative.
    Defined for any graph, including ones with isolated nodes.
    """
    d = degrees(g).astype(np.float64)
    if tau is None:
        tau = float(d.mean()) if g.n else 0.0
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    reg = d + tau
    # reg is 0 only on isolated nodes at tau = 0, whose weight never enters
    return _scaled_adjacency(g, 1.0 / np.sqrt(np.where(reg > 0, reg, 1.0)))


def graph_eigenvectors(
    g: Graph, k: int, matrix: str = "laplacian", tau: Optional[float] = None
) -> np.ndarray:
    """The n x k top eigenvectors of one of the graph's matrices.

    matrix: "laplacian" (L), "regularized" (L_tau, with ``tau`` as in
    ``regularized_laplacian``) or "adjacency" (A).  The CSR matrix is
    built and dropped inside the call.
    """
    if matrix == "laplacian":
        m = normalized_laplacian(g)
    elif matrix == "regularized":
        m = regularized_laplacian(g, tau=tau)
    elif matrix == "adjacency":
        m = g.adjacency
    else:
        raise InvalidInputError(f"unknown graph matrix {matrix!r}")
    return sym_eigs_topk(m, k).vectors


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows are left alone."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, None]


def spectral_clustering(
    g: Graph,
    k: int,
    variant: str = "plain",
    seed=0,
    tau: Optional[float] = None,
    restarts: int = 20,
) -> np.ndarray:
    """Spectral clustering on the normalized Laplacian.

    variant:
      * "plain": k-means on the raw rows of the top-k eigenvectors of L;
        requires every node to have an edge.
      * "regularized": eigenvectors of L_tau, rows projected to the unit
        circle (zero rows left alone) before k-means.
      * "regularized_no_projection": same without the row normalization.
    """
    if variant == "plain":
        rows = graph_eigenvectors(g, k, "laplacian")
    elif variant in ("regularized", "regularized_no_projection"):
        rows = graph_eigenvectors(g, k, "regularized", tau=tau)
        if variant == "regularized":
            rows = unit_rows(rows)
    else:
        raise ValueError(f"unknown spectral variant {variant!r}")
    return kmeans(rows, k, seed=seed, restarts=restarts)


def nmf_init_from_partition(labels: np.ndarray, k: int, offset: float = 0.2) -> np.ndarray:
    """Indicator matrix of a partition plus a constant offset, unit-norm columns.

    A positive offset keeps every entry strictly positive, which the
    multiplicative-update solvers require to avoid zero-locking.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    h = np.full((labels.shape[0], k), float(offset))
    h[np.arange(labels.shape[0]), labels] += 1.0
    norms = np.linalg.norm(h, axis=0)
    h /= np.where(norms > 0, norms, 1.0)
    return h
