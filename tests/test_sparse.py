"""CSR graph matrices, the ARPACK and LOBPCG eigensolvers and CSR solver input, each
checked against the dense reference: subspaces and labels, not raw vectors,
because eigenvectors of repeated eigenvalues are not unique."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import fresh_output, random_connected_component

from blockfactor import spectral
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.datasets import karate
from blockfactor.errors import InvalidInputError, NoConvergenceError
from blockfactor.factorization import (
    assign_communities,
    exactness_diagnostics,
    frobenius_residual,
    osntf,
    snmf,
)
from blockfactor.graphs import Graph, as_matrix, degrees, largest_connected_component, normalized_laplacian
from blockfactor.spectral import (
    _lobpcg_topk,
    nmf_init_from_partition,
    regularized_laplacian,
    spectral_clustering,
    sym_eigs_topk,
)


def sampled_components(count, seed=0):
    """Largest components of SBM and DCSBM graphs at the Fig. 1 presets'
    signal strength, n in [60, 300), with k = 3; karate (k = 2) last."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(60, 300))
        degree = float(rng.uniform(8.0, 30.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # DCSBM clipping notes
            if t % 2:
                params = sbm_snr_preset(n, 3, 3.0, degree)
            else:
                beta = float(rng.uniform(2.1, 3.1))
                params = dcsbm_powerlaw_preset(n, 3, 3.0, degree, beta, seed=[seed, t])
            g, _ = largest_connected_component(sample_graph(params, seed=[seed, t]))
        out.append((g, 3))
    out.append((karate()[0], 2))
    return out


def graph_matrices(g):
    return {
        "L": normalized_laplacian(g),
        "L_tau": regularized_laplacian(g),
        "A": g.adjacency,
    }


def max_sine(u, v):
    """Sine of the largest principal angle between span(u) and span(v),
    both with orthonormal columns."""
    return float(np.linalg.norm(v - u @ (u.T @ v), 2))


GRAPHS = sampled_components(50)


class TestGraphMatrices:
    def test_csr_read_only_canonical(self):
        g, _ = GRAPHS[0]
        for m in graph_matrices(g).values():
            assert m.format == "csr" and m.shape == (g.n, g.n)
            assert m.has_canonical_format
            assert m.nnz == 2 * g.num_edges
            assert not m.data.flags.writeable


def disconnected_graphs(count=200, seed=5):
    """Graphs of 2-6 connected components, each with its owner vector; a
    quarter repeat one component, so lower eigenvalues repeat too."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        c = int(rng.integers(2, 7))
        sizes = rng.integers(5, 30, size=c)
        parts = [random_connected_component(rng, int(s)) for s in sizes]
        if trial % 4 == 0:
            sizes[:], parts = sizes[0], [parts[0]] * c
        edges, offset, owner = [], 0, []
        for comp, (size, part) in enumerate(zip(sizes, parts)):
            edges += [(u + offset, v + offset) for u, v in part]
            owner += [comp] * int(size)
            offset += int(size)
        yield Graph.from_edges(offset, edges), c, owner


def assert_full_multiplicity_of_unit_eigenvalue(solve, count=200):
    # A Laplacian's eigenvalue 1 has one eigenvector per component,
    # D^{1/2} times the component's indicator.
    for g, c, owner in disconnected_graphs(count):
        vals, vecs = solve(normalized_laplacian(g), c)
        np.testing.assert_allclose(vals, np.ones(c), rtol=0, atol=1e-10)
        basis = np.zeros((g.n, c))
        basis[np.arange(g.n), owner] = np.sqrt(degrees(g))
        basis /= np.linalg.norm(basis, axis=0)
        assert max_sine(basis, vecs) <= 1e-7


def assert_matches_dense(m, k, pairs):
    """Eigenvalues within 1e-9 times the row-sum bound of dense eigh's,
    orthonormal vectors, largest principal-angle sine at most 1e-7."""
    dense = sym_eigs_topk(m.toarray(), k)
    scale = max(1.0, float(abs(m).sum(axis=1).max()))
    np.testing.assert_allclose(pairs[0], dense.values, rtol=0, atol=1e-9 * scale)
    assert np.abs(pairs[1].T @ pairs[1] - np.eye(k)).max() < 1e-10
    assert max_sine(dense.vectors, pairs[1]) <= 1e-7


def with_entry(m, value):
    """A copy of CSR ``m`` whose entries (0, j) and (j, 0), j the first
    stored column of row 0, are set to ``value`` and kept stored, so the
    pattern is unchanged."""
    m = m.copy()
    assert m.indptr[1] > 0
    j = int(m.indices[0])
    m.data[0] = value
    m.data[m.indptr[j] + np.flatnonzero(m.indices[m.indptr[j]:m.indptr[j + 1]] == 0)] = value
    return m


class TestCsrEigensolver:
    """LOBPCG, called directly: sym_eigs_topk reaches it only off ARPACK's
    guard, or when ARPACK fails."""

    def test_subspace_matches_dense_on_sampled_graphs(self):
        assert len(GRAPHS) >= 51
        worst = 0.0
        for g, k in GRAPHS:
            assert g.n >= 5 * k  # LOBPCG's own lower limit
            for name, m in graph_matrices(g).items():
                dense = sym_eigs_topk(m.toarray(), k)
                vals, vecs = _lobpcg_topk(m, k)
                scale = max(1.0, float(abs(m).sum(axis=1).max()))
                np.testing.assert_allclose(vals, dense.values, rtol=0, atol=1e-9 * scale)
                assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-10
                worst = max(worst, max_sine(dense.vectors, vecs))
        assert worst <= 1e-7

    def test_full_multiplicity_of_unit_eigenvalue_on_disconnected_graphs(self):
        assert_full_multiplicity_of_unit_eigenvalue(_lobpcg_topk)

    def test_deterministic_and_descending(self):
        g, k = GRAPHS[1]
        m = normalized_laplacian(g)
        a, b = _lobpcg_topk(m, k), _lobpcg_topk(m, k)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert (np.diff(a[0]) <= 0).all()

    def test_small_csr_takes_the_dense_path_bit_for_bit(self, monkeypatch):
        # below 5k rows LOBPCG would fall back to a dense solve anyway;
        # with the size cut-over off, only the 5k bound routes to eigh
        monkeypatch.setattr(spectral, "_DENSE_EIGH_BELOW", 0)
        for name in ("_arpack_topk", "_lobpcg_topk"):
            monkeypatch.setattr(spectral, name, None)
        g = Graph.from_edges(11, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                             + [(i, j) for i in range(5, 11) for j in range(i + 1, 11)])
        m = normalized_laplacian(g)
        for k in (3, 4):
            a, b = sym_eigs_topk(m, k), sym_eigs_topk(m.toarray(), k)
            assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)

    def test_dense_input_is_eigh(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((30, 30))
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        pairs = sym_eigs_topk(m, 4)
        assert np.array_equal(pairs.values, vals[::-1][:4])
        assert np.array_equal(np.abs(pairs.vectors), np.abs(vecs[:, ::-1][:, :4]))

    def test_missed_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_LOBPCG_MAXITER", 1)
        monkeypatch.setattr(spectral, "_LOBPCG_RUNS", 1)
        g, k = GRAPHS[2]
        with pytest.raises(NoConvergenceError, match="LOBPCG"):
            _lobpcg_topk(normalized_laplacian(g), k)

    def test_k_checked_for_csr(self):
        with pytest.raises(InvalidInputError):
            sym_eigs_topk(normalized_laplacian(GRAPHS[0][0]), 0)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid(side, torus=False):
    ids = np.arange(side * side).reshape(side, side)
    pairs = [
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
    ]
    if torus:
        pairs += [np.column_stack([ids[:, -1], ids[:, 0]]), np.column_stack([ids[-1], ids[0]])]
    return Graph.from_edges(side * side, np.concatenate(pairs))


def star_of_cliques(cliques, size):
    """Node 0 joined to one node of each of ``cliques`` equal cliques."""
    edges = []
    for c in range(cliques):
        first = 1 + c * size
        edges.append((0, first))
        edges += [(first + i, first + j) for i in range(size) for j in range(i + 1, size)]
    return Graph.from_edges(1 + cliques * size, edges)


class TestSolverDispatch:
    """Which solver ``sym_eigs_topk`` sends a CSR matrix to, and that each
    route matches dense eigh."""

    @pytest.fixture(autouse=True)
    def routes(self, monkeypatch):
        # every CSR matrix here is past the dense cut-over; calls records
        # (solver, returned pairs) for each ARPACK or LOBPCG call
        monkeypatch.setattr(spectral, "_DENSE_EIGH_BELOW", 0)
        calls = []
        for name in ("_arpack_topk", "_lobpcg_topk"):
            def spy(m, k, real=getattr(spectral, name), name=name):
                out = real(m, k)
                calls.append((name, out is not None))
                return out
            monkeypatch.setattr(spectral, name, spy)
        return calls

    def test_arpack_subspace_matches_dense_on_sampled_graphs(self, routes):
        for g, k in GRAPHS:
            for m in graph_matrices(g).values():
                assert_matches_dense(m, k, sym_eigs_topk(m, k))
        assert routes == [("_arpack_topk", True)] * (3 * len(GRAPHS))

    @pytest.mark.parametrize("g, k, repeats", [
        (cycle(200), 3, 2),  # cos(2 pi / n) twice
        (cycle(301), 5, 2),
        (grid(15), 3, 2),  # the x <-> y mirror
        (star_of_cliques(4, 40), 4, 3),  # permuting the cliques
        # ARPACK alone returns 3 of 4 and 6 of 7 copies here
        (grid(20, torus=True), 5, 4),
        (star_of_cliques(8, 20), 8, 7),
    ], ids=["cycle-200", "cycle-301", "grid-15", "star-of-4-cliques", "torus-20",
            "star-of-8-cliques"])
    def test_repeated_second_eigenvalue_on_connected_graphs(self, routes, g, k, repeats):
        # a returned repeat may be short of a copy, so it goes to LOBPCG
        m = normalized_laplacian(g)
        exact = np.linalg.eigvalsh(m.toarray())[::-1]
        assert np.ptp(exact[1:1 + repeats]) < 1e-12 and exact[0] - exact[1] > 1e-6
        assert exact[k - 1] - exact[k] > 1e-6  # the top-k subspace is well defined
        assert_matches_dense(m, k, sym_eigs_topk(m, k))
        assert routes == [("_arpack_topk", False), ("_lobpcg_topk", True)]

    def test_disconnected_graphs_reach_lobpcg(self, routes):
        # ARPACK alone missed a copy on 85 of the 200 graphs; multiplicity
        # on all 200 is TestCsrEigensolver's check of LOBPCG
        assert_full_multiplicity_of_unit_eigenvalue(sym_eigs_topk, count=3)
        assert routes == [("_lobpcg_topk", True)] * 3

    @pytest.mark.parametrize("value", [-0.05, 0.0], ids=["negative", "zero"])
    def test_entry_that_is_not_positive_reaches_lobpcg(self, routes, value):
        g, k = GRAPHS[1]
        m = with_entry(normalized_laplacian(g), value)
        assert m.nnz == 2 * g.num_edges
        assert_matches_dense(m, k, sym_eigs_topk(m, k))
        assert routes == [("_lobpcg_topk", True)]

    @pytest.mark.parametrize("failure", ["no-convergence", "error", "residual"])
    def test_arpack_failure_reaches_lobpcg(self, routes, monkeypatch, failure):
        import scipy.sparse.linalg as sla

        real = sla.eigsh

        def eigsh(m, k, **kwargs):
            if failure == "no-convergence":
                raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            if failure == "error":
                raise sla.ArpackError(-9999)
            vals, vecs = real(m, k, **kwargs)
            return vals, vecs + 1e-6 * np.random.default_rng(0).standard_normal(vecs.shape)

        monkeypatch.setattr(sla, "eigsh", eigsh)
        g, k = GRAPHS[1]
        m = normalized_laplacian(g)
        assert_matches_dense(m, k, sym_eigs_topk(m, k))
        assert routes == [("_arpack_topk", False), ("_lobpcg_topk", True)]

    def test_scipy_blas_on_one_thread_during_arpack(self, routes, monkeypatch):
        # and the thread count restored after
        import scipy.sparse.linalg as sla

        lib = spectral._scipy_openblas()
        threads = lib.scipy_openblas_get_num_threads if lib else lambda: None
        before, seen, real = threads(), [], sla.eigsh

        def eigsh(m, k, **kwargs):
            seen.append(threads())
            return real(m, k, **kwargs)

        monkeypatch.setattr(sla, "eigsh", eigsh)
        g, k = GRAPHS[1]
        assert spectral._arpack_topk(normalized_laplacian(g), k) is not None
        assert seen == [None if lib is None else 1]
        assert threads() == before

    def test_overlapping_one_thread_blocks_restore_the_count(self, monkeypatch):
        # the process-wide count is saved by the first block in and
        # restored by the last one out, whatever order they leave in
        class Lib:
            count = 4

            def scipy_openblas_get_num_threads(self):
                return self.count

            def scipy_openblas_set_num_threads(self, count):
                self.count = count

        lib = Lib()
        monkeypatch.setattr(spectral, "_scipy_openblas", lambda: lib)
        first, second = spectral._scipy_blas_on_one_thread(), spectral._scipy_blas_on_one_thread()
        first.__enter__()
        second.__enter__()
        assert lib.count == 1
        first.__exit__(None, None, None)
        assert lib.count == 1
        second.__exit__(None, None, None)
        assert lib.count == 4

    def test_one_thread_block_is_a_no_op_without_the_library(self, monkeypatch):
        # a scipy built on another BLAS has no bundled OpenBLAS to set
        monkeypatch.setattr(spectral, "_scipy_openblas", lambda: None)
        ran = []
        with spectral._scipy_blas_on_one_thread():
            ran.append(spectral._blas_users)
        assert ran == [0] and spectral._blas_users == 0
        g, k = GRAPHS[1]
        assert spectral._arpack_topk(normalized_laplacian(g), k) is not None

    @pytest.mark.parametrize("route", ["_arpack_topk", "_lobpcg_topk"])
    def test_deterministic_descending_and_signed(self, routes, route):
        g, k = GRAPHS[1]
        m = normalized_laplacian(g)
        if route == "_lobpcg_topk":
            m = with_entry(m, -0.05)
        a, b = sym_eigs_topk(m, k), sym_eigs_topk(m, k)
        assert routes == [(route, True)] * 2
        assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
        assert (np.diff(a.values) <= 0).all()
        for j in range(k):
            nz = np.flatnonzero(np.abs(a.vectors[:, j]) > 1e-12)
            assert a.vectors[nz[0], j] > 0


def test_csr_below_the_cut_over_is_eigh_bit_for_bit():
    g, k = next((g, k) for g, k in GRAPHS if 5 * k <= g.n < spectral._DENSE_EIGH_BELOW)
    m = normalized_laplacian(g)
    a, b = sym_eigs_topk(m, k), sym_eigs_topk(m.toarray(), k)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)


class TestCsrSolvers:
    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_match_dense_input(self, solver):
        for g, k in GRAPHS[::4]:
            h0 = nmf_init_from_partition(spectral_clustering(g, k, "regularized", seed=0), k)
            for x in (normalized_laplacian(g), g.adjacency):
                dense, csr = solver(x.toarray(), k, h0), solver(x, k, h0)
                assert np.array_equal(assign_communities(csr.h), assign_communities(dense.h))
                assert np.linalg.norm(csr.h - dense.h) <= 1e-9 * np.linalg.norm(dense.h)
                assert abs(csr.iterations - dense.iterations) <= 1

    def test_residual_and_diagnostics_match_dense(self):
        g, k = GRAPHS[3]
        x = normalized_laplacian(g)
        h0 = nmf_init_from_partition(spectral_clustering(g, k, "regularized", seed=0), k)
        f = osntf(x, k, h0)
        norm_x = np.linalg.norm(x.toarray())
        exact = frobenius_residual(x.toarray(), f.h, f.s)
        assert abs(frobenius_residual(x, f.h, f.s) - exact) <= 1e-8 * norm_x
        assert frobenius_residual(x, f.h, f.s) == f.objective_trace[-1]
        sparse_report = exactness_diagnostics(x, f)
        dense_report = exactness_diagnostics(x.toarray(), f)
        assert sparse_report.relative_residual == pytest.approx(dense_report.relative_residual, rel=1e-8)
        assert sparse_report.row_sparsity == dense_report.row_sparsity

    def test_input_checks(self):
        x = sp.csr_array(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
        h0 = np.ones((3, 1))
        snmf(x + sp.csr_array(([5e-9], ([0], [1])), shape=(3, 3)), 1, h0)  # within 1e-8
        cases = {
            "symmetric": sp.csr_array(([1e-7], ([0], [1])), shape=(3, 3)),
            "nonnegative": sp.csr_array(([-1.0, -1.0], ([0, 2], [2, 0])), shape=(3, 3)),
            "finite": sp.csr_array(([np.nan], ([1], [1])), shape=(3, 3)),
        }
        for word, delta in cases.items():
            with pytest.raises(InvalidInputError, match=word):
                osntf(x + delta, 1, h0)

    def test_uncanonical_csr_is_summed_on_a_copy(self):
        # built from its index arrays, scipy keeps row 1's duplicate (1, 0)
        x = sp.csr_array((np.ones(5), [1, 1, 0, 0, 2], [0, 2, 4, 5]), shape=(3, 3))
        assert not x.has_canonical_format
        y = as_matrix(x)
        assert y.has_canonical_format and y.nnz == 3
        assert np.array_equal(y.toarray(), [[0, 2, 0], [2, 0, 0], [0, 0, 1]])
        assert x.nnz == 5  # the caller's matrix is left as it was

    def test_duplicate_entries_are_summed(self):
        # an uncanonical COO-built matrix: (0, 1) and (1, 0) stored twice
        x = sp.coo_array(([1.0, 1.0, 1.0, 1.0, 3.0], ([0, 0, 1, 1, 2], [1, 1, 0, 0, 2])),
                         shape=(3, 3))
        h0 = np.full((3, 2), 0.5)
        a, b = snmf(x, 2, h0), snmf(x.toarray(), 2, h0)
        assert a.objective_trace[0] == pytest.approx(b.objective_trace[0], rel=1e-12)
        np.testing.assert_allclose(a.h, b.h, rtol=1e-9)


class TestLazyScipy:
    """scipy loads only on a CSR path, so a dense-only run never pays for it."""

    def test_import_does_not_load_scipy(self):
        assert fresh_output(
            "import sys, blockfactor.bench; print('scipy' in sys.modules)"
        ) == "False"

    def test_dense_solver_run_does_not_load_scipy(self):
        code = """
import sys
import numpy as np
from blockfactor.factorization import osntf, snmf, assign_communities
from blockfactor.metrics import misclustering_rate
from blockfactor.spectral import kmeans, nmf_init_from_partition
rng = np.random.default_rng(0)
x = rng.random((30, 30))
x = x + x.T
labels = kmeans(np.linalg.eigh(x)[1][:, -3:], 3, seed=0)
h0 = nmf_init_from_partition(labels, 3)
for solver in (osntf, snmf):
    misclustering_rate(labels, assign_communities(solver(x, 3, h0).h))
print('scipy' in sys.modules)
"""
        assert fresh_output(code) == "False"
