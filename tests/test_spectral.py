"""Eigendecomposition, k-means and the spectral clustering baselines."""

import numpy as np
import pytest

from blockfactor.blockmodels import SbmParams, population_laplacian
from blockfactor.errors import InvalidInputError
from blockfactor.graphs import Graph, normalized_laplacian, regularized_laplacian
from blockfactor.metrics import misclustered_count, misclustering_rate
from blockfactor.spectral import (
    VARIANTS,
    _lloyd,
    graph_eigenvectors,
    kmeans,
    nmf_init_from_partition,
    spectral_clustering,
    sym_eigs_topk,
)


def clique(size, offset=0):
    return [(i + offset, j + offset) for i in range(size) for j in range(i + 1, size)]


def two_cliques(a=5, b=6):
    return Graph.from_edges(a + b, clique(a) + clique(b, offset=a))


class TestSymEigsTopk:
    def test_diagonal_matrix(self):
        pairs = sym_eigs_topk(np.diag([3.0, 2.0, 1.0]), 2)
        assert pairs.values.tolist() == [3.0, 2.0]
        np.testing.assert_allclose(pairs.vectors, np.eye(3)[:, :2], atol=1e-12)

    def test_triangle_laplacian_perron_root(self):
        lap = normalized_laplacian(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        pairs = sym_eigs_topk(lap, 1)
        assert pairs.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_cliques_both_unit_eigenvalues(self):
        lap = normalized_laplacian(two_cliques())
        pairs = sym_eigs_topk(lap, 2)
        np.testing.assert_allclose(pairs.values, [1.0, 1.0], atol=1e-10)

    def test_component_count_matches_unit_eigenvalues(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 4):
            sizes = rng.integers(4, 8, size=k)
            edges, offset = [], 0
            for s in sizes:
                edges += clique(int(s), offset=offset)
                offset += int(s)
            lap = normalized_laplacian(Graph.from_edges(offset, edges))
            pairs = sym_eigs_topk(lap, k)
            np.testing.assert_allclose(pairs.values, np.ones(k), atol=1e-10)

    def test_residual_and_orthonormality_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            m = rng.standard_normal((n, n))
            m = 0.5 * (m + m.T)
            k = int(rng.integers(1, n + 1))
            vals, vecs = sym_eigs_topk(m, k)
            norm = np.linalg.norm(m)
            for j in range(k):
                resid = np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
                assert resid <= 1e-8 * max(norm, 1.0)
            gram = vecs.T @ vecs
            assert np.abs(gram - np.eye(k)).max() < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8))
        m = 0.5 * (m + m.T)
        _, vecs = sym_eigs_topk(m, 3)
        for j in range(3):
            nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
            assert vecs[nz[0], j] > 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sym_eigs_topk(np.eye(3), 4)

    def test_solver_failure_wrapped(self, monkeypatch):
        from blockfactor.errors import NoConvergenceError

        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NoConvergenceError):
            sym_eigs_topk(np.eye(3), 2)


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (25, 2))])
        labels = kmeans(pts, 2, seed=0)
        truth = np.array([0] * 20 + [1] * 25)
        assert misclustered_count(truth, labels) == 0

    def test_identical_points_degenerate(self):
        labels = kmeans(np.ones((10, 2)), 2, seed=0)
        # one nonempty cluster is allowed for degenerate data
        assert set(labels.tolist()) <= {0, 1}

    def test_population_eigenvector_rows_recover_blocks(self):
        # rows of the top-K eigenvectors of a block Laplacian collapse to
        # K distinct points, one per block
        z = np.repeat(np.arange(3), [7, 6, 7])
        b = np.array([[0.6, 0.1, 0.05], [0.1, 0.5, 0.15], [0.05, 0.15, 0.4]])
        lap = population_laplacian(SbmParams(z=z, b=b))
        vecs = sym_eigs_topk(lap, 3).vectors
        labels = kmeans(vecs, 3, seed=0)
        rate, _ = misclustering_rate(z, labels)
        assert rate == 0.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((40, 3))
        assert np.array_equal(kmeans(pts, 3, seed=5), kmeans(pts, 3, seed=5))

    def test_lloyd_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.standard_normal((30, 2))
            centroids = pts[rng.choice(30, size=3, replace=False)][None]
            # the WCSS after t centroid updates, for t up to 50
            history = [_lloyd(pts, centroids.copy(), max_iter=t)[1][0] for t in range(51)]
            diffs = np.diff(history)
            assert (diffs <= 1e-9).all()


class TestSpectralClustering:
    def test_two_disjoint_cliques_plain(self):
        g = two_cliques()
        labels = spectral_clustering(g, 2, "spectral", seed=0)
        truth = np.array([0] * 5 + [1] * 6)
        assert misclustered_count(truth, labels) == 0

    def test_plain_requires_no_isolated_nodes(self):
        from blockfactor.errors import IsolatedNodeError

        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedNodeError):
            spectral_clustering(g, 2, "spectral", seed=0)

    def test_regularized_tolerates_isolated_nodes(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        for method in ("reg-spectral", "spectral-wp"):
            labels = spectral_clustering(g, 2, method, seed=0)
            assert labels.shape == (4,)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            spectral_clustering(two_cliques(), 2, "bogus", seed=0)

    def test_variants_are_the_method_names(self):
        assert VARIANTS == {
            "spectral": ("laplacian", False),
            "reg-spectral": ("regularized", True),
            "spectral-wp": ("regularized", False),
        }

    @pytest.mark.parametrize("old", ["plain", "regularized", "regularized_no_projection"])
    def test_old_variant_names_are_refused(self, old):
        with pytest.raises(InvalidInputError, match=f"unknown spectral method '{old}'"):
            spectral_clustering(two_cliques(), 2, old, seed=0)

    def test_regularized_laplacian_shrinks_entries(self):
        g = two_cliques()
        lap = regularized_laplacian(g).toarray()
        assert np.array_equal(lap, lap.T)
        assert lap.max() < 1.0  # regularization strictly shrinks entries

    def test_regularized_laplacian_takes_no_tau(self):
        with pytest.raises(TypeError, match="tau"):
            regularized_laplacian(two_cliques(), tau=1.0)


class TestTypedErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kmeans_non_finite_points(self, bad):
        points = np.random.default_rng(0).standard_normal((10, 2))
        points[3, 1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            kmeans(points, 2, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("points, k", [
        ([[-1e200, 0.0], [1e200, 0.0], [0.0, 1e200]], 2),
        # k = 1 seeds no second centroid; the one cluster's WCSS overflows
        ([[1e200], [-1e200]], 1),
    ], ids=["seeding", "wcss"])
    def test_kmeans_overflowing_distances(self, points, k):
        with pytest.raises(InvalidInputError, match="overflow"):
            kmeans(np.array(points), k, seed=0)

    def test_unknown_graph_matrix(self):
        with pytest.raises(InvalidInputError, match="unknown graph matrix 'bogus'"):
            graph_eigenvectors(two_cliques(), 2, "bogus")

    def test_kmeans_points_not_a_matrix(self):
        for points in (np.zeros(5), np.zeros((5, 0))):
            with pytest.raises(InvalidInputError, match="N x D"):
                kmeans(points, 2, seed=0)

    def test_non_square_matrix(self):
        with pytest.raises(InvalidInputError, match="square"):
            sym_eigs_topk(np.zeros((3, 4)), 1)

    def test_unknown_variant(self):
        with pytest.raises(InvalidInputError, match="spectral method"):
            spectral_clustering(two_cliques(), 2, "bogus", seed=0)

    def test_labels_out_of_range(self):
        with pytest.raises(InvalidInputError, match="labels"):
            nmf_init_from_partition(np.array([-1, 0]), 2)

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), True, "2"])
    def test_non_integer_k(self, k):
        points = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(InvalidInputError, match="integer"):
            sym_eigs_topk(np.eye(4), k)
        with pytest.raises(InvalidInputError, match="integer"):
            kmeans(points, k, 0)

    def test_numpy_integer_k(self):
        assert sym_eigs_topk(np.eye(4), np.int64(2)).vectors.shape == (4, 2)


class TestNmfInit:
    def test_documented_example(self):
        h = nmf_init_from_partition(np.array([0, 1]), 2, offset=0.2)
        expected = np.array([[1.2, 0.2], [0.2, 1.2]])
        expected /= np.linalg.norm(expected, axis=0)
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_columns_unit_norm_and_positive(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, size=50)
        labels[:4] = np.arange(4)
        h = nmf_init_from_partition(labels, 4, offset=0.2)
        np.testing.assert_allclose(np.linalg.norm(h, axis=0), np.ones(4), atol=1e-12)
        assert h.min() > 0

    def test_zero_offset_contains_zeros(self):
        h = nmf_init_from_partition(np.array([0, 1]), 2, offset=0.0)
        assert h.min() == 0.0  # solvers reject this start (zero-locking)

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            nmf_init_from_partition(np.array([0, 3]), 2)
