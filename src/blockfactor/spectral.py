"""Top-k symmetric eigenpairs, k-means and spectral clustering baselines.

Graph matrices are CSR arrays (see ``blockfactor.graphs``).  Their top-k
eigenpairs come from ARPACK's implicitly restarted Lanczos method
(Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998) when the
matrix is non-negative and its pattern connected, and from LOBPCG, a
block eigensolver (Knyazev, "Toward the optimal preconditioned
eigensolver", SISC 2001), otherwise or when ARPACK fails.  Dense
matrices, and CSR ones small enough that a full ``np.linalg.eigh`` is
faster, go to ``eigh``.  scipy.sparse.linalg and scipy.sparse.csgraph
are imported on the first sparse solve.

k-means runs its restarts side by side.  All k-means++ starts are drawn
first; then one Lloyd loop advances every restart that is still moving,
over whole (restarts, k, n) arrays instead of one restart at a time.
Each distance, cluster sum and objective is added in the order the
one-restart loop adds it, so the labels are bit for bit the same.
Restarts go through the loop in blocks, so that its temporaries stay
near 2 MiB, or one restart's n x k x d values when that is larger.
"""

import contextlib
import functools
import threading
import time
import warnings
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError, NoConvergenceError, float_array, integer_array, is_integer, is_real, seeded_rng
from .graphs import Graph, as_matrix, is_symmetric, normalized_laplacian, regularized_laplacian

__all__ = [
    "EigenPairs",
    "sym_eigs_topk",
    "kmeans",
    "unit_rows",
    "VARIANTS",
    "SharedStages",
    "spectral_clustering",
    "nmf_init_from_partition",
]

# An eigenpair from ARPACK or LOBPCG is accepted once its residual
# ||M v - lambda v|| is below _LOBPCG_TOL times a bound on ||M||_2; each
# LOBPCG run aims 10x lower.  The largest principal-angle sine against the
# exact top-k subspace is then about the residual over the eigengap.  At a
# highly repeated eigenvalue LOBPCG's residuals can stall near 2e-10 run
# after run.
_LOBPCG_TOL = 1e-9
_LOBPCG_MAXITER = 1000
_LOBPCG_RUNS = 10
_LOBPCG_SEED = 0

# ARPACK's restart budget before LOBPCG takes over.  scipy's default, 10n,
# let a 2 * 10^4-node cycle (eigengap 5e-8) run for over ten minutes; 1000
# took 10 s.  Sampled SBM and DCSBM components of 200-3000 nodes at mean
# degree 3-30 needed at most 39, and at 10^4 and 10^5 nodes at most 5.
_ARPACK_MAXITER = 1000

# CSR matrices with fewer rows go to dense eigh.  Top-3 of sampled L and
# L_tau (SBM, mean degree 10-30), eigh on toarray() vs the ARPACK path
# with its guard, median of per-matrix minima on 2 cores: 0.9 vs 1.8-3.9 ms
# at 90 rows, 1.5-1.7 vs 1.7-3.0 ms at 120, 2.6-2.8 vs 2.0-3.6 ms at 150,
# 5.3-6.3 vs 3.5-4.8 ms at 200 and 32-33 vs 3.5-7.2 ms at 450.
_DENSE_EIGH_BELOW = 150

# A block of b k-means restarts has b * n * k * d at most this many values
# (2 MiB of float64), or b = 1 where one restart alone has more, as at
# n = 10^5, k = d = 3.  Its distances are summed over two (b, k, n) arrays
# below 8 coordinates, and over one (b, k, n, d) array from 8 on.
_LLOYD_BLOCK_VALUES = 1 << 18
_RESTARTS = 20  # k-means++ starts (Arthur & Vassilvitskii, SODA 2007) per k-means
_MAX_ITER = 100  # Lloyd steps at most per start


class EigenPairs(NamedTuple):
    """Top eigenvalues (descending) with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigs_topk(m, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix by algebraic value.

    A dense ``m``, or a CSR one with fewer than ``_DENSE_EIGH_BELOW`` or
    5k rows, is solved by ``np.linalg.eigh``, the faster solve there.  A
    larger CSR ``m`` goes to ARPACK (``_arpack_topk``) when its stored
    entries are all positive and its pattern is connected, and to LOBPCG
    (``_lobpcg_topk``) otherwise or when ARPACK's answer is refused.

    Lanczos grows one Krylov vector, so only rounding brings in a second
    copy of a repeated eigenvalue: ARPACK alone missed a copy of the
    eigenvalue 1 of a Laplacian with k components on 85 of the 200
    disconnected test graphs, and a copy never returned cannot be
    detected.  A connected non-negative matrix is irreducible, so by
    Perron-Frobenius its top eigenvalue is simple; for repeats below it
    see ``_arpack_topk``.  LOBPCG, a block method started from k random
    vectors, returns every copy.

    Signs follow the convention that the first nonzero coordinate of each
    eigenvector is positive, so repeated runs are comparable.  A matrix not
    finite, or not symmetric to 1e-8 per entry, raises InvalidInputError.
    """
    m = as_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("matrix must be square")
    n = m.shape[0]
    if not (is_integer(k) and 1 <= k <= n):
        raise InvalidInputError(f"k={k!r} must be an integer in [1, {n}]")
    dense = isinstance(m, np.ndarray)
    if not np.isfinite(m if dense else m.data).all():
        raise InvalidInputError("matrix must be finite")
    if not is_symmetric(m):
        raise InvalidInputError("matrix must be symmetric")
    if not dense and n >= max(5 * k, _DENSE_EIGH_BELOW):
        pairs = _arpack_topk(m, k) if _irreducible_nonnegative(m) else None
        vals, vecs = pairs if pairs is not None else _lobpcg_topk(m, k)
    else:
        try:
            vals, vecs = np.linalg.eigh(m if dense else m.toarray())
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


def _irreducible_nonnegative(m) -> bool:
    """Whether every stored entry of CSR ``m`` is positive and its pattern
    is strongly connected, which for a non-negative matrix is
    irreducibility.  On a symmetric pattern strong and undirected
    components agree; the strong ones are found without a transpose,
    0.06 s against 0.22 s at 10^5 rows and 2 * 10^6 entries."""
    from scipy.sparse.csgraph import connected_components

    if not (m.data > 0).all():
        return False
    return connected_components(m, connection="strong", return_labels=False) == 1


def _residual_tol(m) -> float:
    # the largest absolute row sum bounds ||m||_2
    return _LOBPCG_TOL * max(1.0, float(abs(m).sum(axis=1).max()))


def _max_residual(m, vals: np.ndarray, vecs: np.ndarray) -> float:
    return float(np.linalg.norm(m @ vecs - vecs * vals, axis=0).max())


def _arpack_topk(m, k: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Top-k eigenpairs of a CSR matrix by ARPACK, descending, or None if
    it does not converge, misses the residual bound, or returns two
    eigenvalues equal within that bound.

    A returned repeat may lack a further copy: of the 4-fold second
    eigenvalue of L for a 20 x 20 torus ARPACK returned 3 copies, of the
    7-fold one of a star of 8 cliques of 20 it returned 6.  These were the
    only misses in 194 top-k solves (k = 2..9) on cycles, grids, tori,
    circulants, hypercubes and stars of cliques, run to machine precision
    as here; at scipy's ``tol=1e-10`` there were 111, and 101 of them
    returned no repeat at all.

    The start vector is random with a fixed seed, not all ones: on a
    regular graph that is L's top eigenvector, and its Krylov space holds
    nothing else.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(_LOBPCG_SEED).standard_normal(m.shape[0])
    try:
        with _scipy_blas_on_one_thread():
            vals, vecs = eigsh(m, k, which="LA", v0=v0, maxiter=_ARPACK_MAXITER)
    except (ArpackNoConvergence, ArpackError):
        return None
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    tol = _residual_tol(m)
    if not _max_residual(m, vals, vecs) <= tol or (np.diff(vals) >= -tol).any():
        return None
    return vals, vecs


@functools.cache
def _scipy_openblas():
    """The OpenBLAS library bundled with scipy's wheels, through ctypes,
    or None where there is none (a scipy built on another BLAS)."""
    import ctypes
    import glob
    import os

    import scipy

    root = os.path.dirname(scipy.__file__)
    for path in glob.glob(root + ".libs/libscipy_openblas*") + glob.glob(
        root + "/.dylibs/libscipy_openblas*"
    ):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
            return lib
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads = 0


@contextlib.contextmanager
def _scipy_blas_on_one_thread():
    """Run the block with scipy's bundled OpenBLAS, a thread pool apart
    from numpy's, on one thread; a no-op without that library.

    On 2 cores, with scipy's default two threads that pool's idle threads
    spun beside numpy's and slowed the work around each solve: a
    fig1-sweep pass took 3.1-3.7 s (k-means 1.0-1.2 s, both solvers
    0.65-0.77 s), and 2.2-2.5 s (0.81-0.92 s, 0.41-0.45 s) with ARPACK on
    one thread.  The thread count is process-wide, so the first of
    overlapping blocks, in any Python thread, saves it and the last one
    out restores it.
    """
    global _blas_users, _blas_threads
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    with _blas_lock:
        if _blas_users == 0:
            _blas_threads = lib.scipy_openblas_get_num_threads()
            lib.scipy_openblas_set_num_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                lib.scipy_openblas_set_num_threads(_blas_threads)


def _lobpcg_topk(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a CSR matrix by LOBPCG from a fixed random block.

    A block method, unlike a one-vector Krylov solver, finds every copy of
    a repeated eigenvalue, such as the eigenvalue 1 of a Laplacian with k
    components.  There, though, LOBPCG can stop early when its residual
    block loses rank; each restart goes on from the block it returned.
    Raises NoConvergenceError if a residual is still above tolerance.
    """
    from scipy.sparse.linalg import lobpcg

    tol = _residual_tol(m)
    vecs = np.random.default_rng(_LOBPCG_SEED).standard_normal((m.shape[0], k))
    for _ in range(_LOBPCG_RUNS):
        with warnings.catch_warnings():
            # a miss is judged below, from the residuals of what it returns
            warnings.simplefilter("ignore")
            vals, vecs = lobpcg(m, vecs, tol=tol / 10, maxiter=_LOBPCG_MAXITER, largest=True)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        resid = _max_residual(m, vals, vecs)
        if resid <= tol:
            return vals, vecs
    raise NoConvergenceError(
        f"LOBPCG residual {resid:.3g} above tolerance {tol:.3g} after {_LOBPCG_RUNS} runs"
    )


def _choice(rng, p: np.ndarray) -> int:
    """``rng.choice(p.size, p=p)`` by the same inverse-CDF draw, so the
    same index and generator state after, without choice's O(n) checks
    of ``p``, which took a quarter of k-means at fig1 sizes."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _plusplus_centroids(cols: np.ndarray, k: int, rng) -> np.ndarray:
    """One (k, d) k-means++ start (Arthur & Vassilvitskii, SODA 2007) for
    the (d, n) point coordinates ``cols``."""
    d, n = cols.shape
    centroids = np.empty((k, d))
    centroids[0] = cols[:, rng.integers(n)]
    dist_sq = _nearest(cols, centroids[None, :1])[1][0]
    for c in range(1, k):
        total = dist_sq.sum()
        if not np.isfinite(total):
            raise InvalidInputError("squared distances between points overflow float64")
        if total > 0:
            idx = _choice(rng, dist_sq / total)
        else:
            idx = rng.integers(n)
        centroids[c] = cols[:, idx]
        dist_sq = np.minimum(dist_sq, _nearest(cols, centroids[None, c : c + 1])[1][0])
    return centroids


def _nearest(cols: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid (the first on ties) and its squared
    distance, per restart: (r, n) labels and distances for the (d, n)
    point coordinates ``cols`` and (r, k, d) centroids.

    A distance sums its d squared coordinate differences in the order
    ``((points[:, None] - c[None]) ** 2).sum(axis=2)`` does for one
    restart's c.  numpy adds fewer than 8 values one by one, which runs
    here over whole (r, k, n) arrays; from 8 on it sums pairwise, so the
    differences go to one (r, k, n, d) array that the same ``.sum`` reduces.
    """
    def sq_diff(j):  # each term is freed once added, so its block is reused for the next
        diff = cols[j] - centroids[:, :, j, None]
        return np.square(diff, out=diff)

    if cols.shape[0] < 8:
        d2 = sq_diff(0)
        for j in range(1, cols.shape[0]):
            d2 += sq_diff(j)
    else:
        # C order, so each point's d differences are contiguous, as in the
        # reference's (n, k, d) array, and .sum reduces them pairwise
        diff = np.empty((*centroids.shape[:2], *cols.T.shape))
        np.subtract(cols.T, centroids[:, :, None, :], out=diff)
        d2 = np.square(diff, out=diff).sum(axis=-1)
    labels = np.zeros(d2[:, 0].shape, dtype=np.intp)
    own = d2[:, 0].copy()
    for c in range(1, centroids.shape[1]):
        labels[d2[:, c] < own] = c
        np.minimum(own, d2[:, c], out=own)
    return labels, own


def _cluster_sums(cols: np.ndarray, key: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(bins, d) sums of the points in each bin, bin ``key[j]`` for point
    ``j % n`` of the (d, n) coordinates ``cols``: one restart's labels per
    n consecutive keys.

    The sums are the ones ``points[mask].mean(axis=0)`` divides: added in
    point order (``np.bincount``) for two or more columns, where numpy's
    axis-0 sum runs row by row, and by numpy's pairwise sum over each
    bin's run of values for a single column.
    """
    d, n = cols.shape
    shape = (key.size // n, n)
    if d == 1:
        vals = np.broadcast_to(cols[0], shape).ravel()[np.argsort(key, kind="stable")]
        runs = np.split(vals, np.cumsum(counts)[:-1])
        return np.array([run.sum() for run in runs])[:, None]
    return np.stack(
        [
            np.bincount(key, weights=np.broadcast_to(col, shape).ravel(), minlength=counts.size)
            for col in cols
        ],
        axis=1,
    )


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iterations for a block of restarts, run side by side.

    ``centroids`` is (b, k, d), one start per restart, updated in place.
    Each step assigns every point of every live restart to its nearest
    centroid, the first one on ties.  A restart retires once its labels
    repeat, or after ``max_iter`` centroid updates; the others move each
    centroid to its cluster mean and re-seed each empty cluster with the
    point farthest from its own centroid.  Every distance, mean and sum
    is added in the order the one-restart loop adds it, so each restart
    ends bit for bit where it would alone.

    Returns (labels (b, n), within-cluster sum of squares (b,)).
    """
    b, k, d = centroids.shape
    cols = np.ascontiguousarray(points.T)
    labels = np.empty((b, points.shape[0]), dtype=np.intp)
    wcss = np.empty(b)
    live, prev = np.arange(b), None
    steps = max_iter + 1
    for step in range(steps):
        new, own = _nearest(cols, centroids[live])
        if step == steps - 1:
            done = np.ones(live.size, dtype=bool)
        elif prev is None:
            done = np.zeros(live.size, dtype=bool)
        else:
            done = (new == prev).all(axis=1)
        labels[live[done]] = new[done]
        wcss[live[done]] = own[done].sum(axis=1)
        live, new, own = live[~done], new[~done], own[~done]
        if not live.size:
            break
        key = (new + k * np.arange(live.size)[:, None]).ravel()
        counts = np.bincount(key, minlength=live.size * k)
        means = _cluster_sums(cols, key, counts) / np.maximum(counts, 1)[:, None]
        filled = (counts > 0).reshape(-1, k)
        moved = centroids[live]
        moved[filled] = means.reshape(-1, k, d)[filled]
        for r in np.flatnonzero(~filled.all(axis=1)):
            for c in np.flatnonzero(~filled[r]):
                far = int(own[r].argmax())
                moved[r, c] = points[far]
                own[r, far] = 0.0  # keep a second empty cluster from stealing it
        centroids[live] = moved
        prev = new
    return labels, wcss


def kmeans(points: np.ndarray, k: int, seed) -> np.ndarray:
    """k-means labels, best of ``_RESTARTS`` k-means++ runs by within-cluster SS.

    All k-means++ starts are drawn first, from one generator seeded by
    ``seed``; Lloyd's steps draw nothing, so they are the starts a
    one-restart-at-a-time loop would draw.  The restarts then run in
    blocks through one batched Lloyd loop (``_lloyd``, at most
    ``_MAX_ITER`` steps); a block holds as many restarts as keep
    b * n * k * d within ``_LLOYD_BLOCK_VALUES``, and at least one.  The
    first restart with the smallest within-cluster sum of squares wins.
    Every distance, cluster sum and objective is added in the order that
    one-restart loop adds it (see ``_nearest`` and ``_cluster_sums``),
    so the labels and each restart's sum of squares are bit for bit that
    loop's.

    Deterministic given the seed.  Degenerate inputs (fewer distinct
    points than k) may leave clusters empty; the surviving labels are
    still valid in [0, k).  Raises InvalidInputError for points that are
    not a finite N x D matrix with D >= 1 or whose squared distances
    overflow, for a non-integer ``k``, and for a seed numpy refuses.
    """
    points = float_array(points, "points")
    if points.ndim != 2 or points.shape[1] == 0:
        raise InvalidInputError("points must be an N x D matrix with D >= 1")
    n, d = points.shape
    if not (is_integer(k) and 1 <= k <= n):
        raise InvalidInputError(f"k={k!r} must be an integer in [1, {n}] for {n} points")
    if not np.isfinite(points).all():
        raise InvalidInputError("points must be finite")
    rng = seeded_rng(seed)
    cols = np.ascontiguousarray(points.T)
    starts = np.stack([_plusplus_centroids(cols, k, rng) for _ in range(_RESTARTS)])
    block = max(1, _LLOYD_BLOCK_VALUES // (n * k * d))
    best_labels, best_wcss = None, np.inf
    for first in range(0, len(starts), block):
        labels, wcss = _lloyd(points, starts[first : first + block], _MAX_ITER)
        i = int(wcss.argmin())
        if wcss[i] < best_wcss:
            best_labels, best_wcss = labels[i], wcss[i]
    if best_labels is None:
        raise InvalidInputError("squared distances between points overflow float64")
    return best_labels.astype(np.int64)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows are left alone."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, None]


# Spectral-clustering method -> (eigenvectors of L_tau rather than L,
# rows scaled to unit length before k-means).
VARIANTS = {
    "spectral": (False, False),
    "reg-spectral": (True, True),
    "spectral-wp": (True, False),
}


class SharedStages:
    """The spectral stages of the methods run on one graph, each done once.

    A stage is the normalized Laplacian L, the top-k eigensolve of L or
    L_tau, or the k-means partition of one embedding of it.  Each is kept
    with the seconds it took.  L is the one matrix kept: its eigensolve
    and both NMF targets use it, and as CSR it is O(m); L_tau is built
    and dropped inside its eigensolve.  The builders, the eigensolver and
    k-means are looked up in this module when a stage runs.
    """

    def __init__(self, g: Graph, k: int, seed):
        self.g = g
        self.k = k
        self.seed = seed
        self._done: dict[tuple, tuple[np.ndarray, float]] = {}

    def _stage(self, key: tuple, compute) -> tuple[np.ndarray, float]:
        if key not in self._done:
            start = time.perf_counter()
            value = compute()
            self._done[key] = (value, time.perf_counter() - start)
        return self._done[key]

    def laplacian(self):
        """L as a read-only CSR array, and the seconds it took to build."""
        return self._stage(("L",), lambda: normalized_laplacian(self.g))

    def partition(self, method: str) -> tuple[np.ndarray, float]:
        """The k-means labels of spectral method ``method`` (a ``VARIANTS``
        key), and the seconds every stage it used took."""
        if method not in VARIANTS:
            raise InvalidInputError(f"unknown spectral method {method!r}; choose from {tuple(VARIANTS)}")
        regularized, unit = VARIANTS[method]
        lap, build_s = (None, 0.0) if regularized else self.laplacian()
        vectors, eigs_s = self._stage(
            ("eigs", regularized),
            lambda: sym_eigs_topk(regularized_laplacian(self.g) if regularized else lap, self.k).vectors,
        )
        labels, kmeans_s = self._stage(
            ("kmeans", regularized, unit),
            lambda: kmeans(unit_rows(vectors) if unit else vectors, self.k, seed=self.seed),
        )
        return labels, build_s + eigs_s + kmeans_s


def spectral_clustering(g: Graph, k: int, method: str = "spectral", seed=0) -> np.ndarray:
    """Spectral clustering on the normalized Laplacian, by ``VARIANTS`` entry:

      * "spectral": k-means on the raw rows of the top-k eigenvectors of L;
        requires every node to have an edge.
      * "reg-spectral": eigenvectors of L_tau, tau the average degree, rows
        projected to the unit circle (zero rows left alone) before k-means.
      * "spectral-wp": same without the row normalization.

    It is ``SharedStages(g, k, seed).partition(method)``, the partition
    the benchmark's methods share.
    """
    return SharedStages(g, k, seed).partition(method)[0]


def nmf_init_from_partition(labels: np.ndarray, k: int, offset: float = 0.2) -> np.ndarray:
    """Indicator matrix of a partition plus a constant offset, unit-norm columns.

    The offset must be finite and positive: it keeps every entry strictly
    positive, which the multiplicative-update solvers require to avoid
    zero-locking.
    """
    labels = integer_array(labels, "labels")
    if not (is_integer(k) and is_real(offset) and 0 < offset and labels.ndim == 1 and labels.size
            and 0 <= labels.min() and labels.max() < k):
        raise InvalidInputError(
            f"need nonempty 1-D labels in [0, k), integer k, finite positive offset: {labels.shape}, {k!r}, {offset!r}"
        )
    h = np.full((labels.shape[0], k), float(offset))
    h[np.arange(labels.shape[0]), labels] += 1.0
    norms = np.linalg.norm(h, axis=0)
    h /= np.where(norms > 0, norms, 1.0)
    return h
