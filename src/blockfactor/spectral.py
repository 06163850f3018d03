"""Dense symmetric eigendecomposition, k-means and spectral clustering baselines."""

from typing import NamedTuple, Optional

import numpy as np

from .errors import NoConvergenceError
from .graphs import Graph, _scaled_adjacency, degrees, normalized_laplacian

__all__ = [
    "EigenPairs",
    "sym_eigs_topk",
    "kmeans",
    "regularized_laplacian",
    "spectral_clustering",
    "nmf_init_from_partition",
]


class EigenPairs(NamedTuple):
    """Top eigenvalues (descending) with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigs_topk(m: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a dense symmetric matrix by algebraic value.

    Signs follow the convention that the first nonzero coordinate of each
    eigenvector is positive, so repeated runs are comparable.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not 1 <= k <= m.shape[0]:
        raise ValueError(f"k={k} out of range for n={m.shape[0]}")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.arange(m.shape[0])[::-1][:k]
    vals = vals[order].copy()
    vecs = vecs[:, order].copy()
    for col in range(k):
        nz = np.flatnonzero(np.abs(vecs[:, col]) > 1e-12)
        if nz.size and vecs[nz[0], col] < 0:
            vecs[:, col] = -vecs[:, col]
    return EigenPairs(values=vals, vectors=vecs)


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
        raise ValueError(f"k={k} out of range for {points.shape[0]} points")
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(max(1, restarts)):
        centroids = _plusplus_centroids(points, k, rng)
        labels, wcss, _ = _lloyd(points, centroids, max_iter)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels.astype(np.int64)


def regularized_laplacian(g: Graph, tau: Optional[float] = None) -> np.ndarray:
    """L_tau = (D + tau I)^{-1/2} A (D + tau I)^{-1/2}.

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
        lap = normalized_laplacian(g)
        rows = sym_eigs_topk(lap, k).vectors
    elif variant in ("regularized", "regularized_no_projection"):
        lap = regularized_laplacian(g, tau=tau)
        rows = sym_eigs_topk(lap, k).vectors
        if variant == "regularized":
            norms = np.linalg.norm(rows, axis=1)
            safe = np.where(norms > 0, norms, 1.0)
            rows = rows / safe[:, None]
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
