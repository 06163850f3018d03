"""CSR graph matrices, the LOBPCG eigensolver and CSR solver input, each
checked against the dense reference: subspaces and labels, not raw vectors,
because eigenvectors of repeated eigenvalues are not unique."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import random_connected_component

from blockfactor import spectral
from blockfactor.blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.datasets import karate
from blockfactor.errors import InvalidInputError, NoConvergenceError
from blockfactor.factorization import (
    assign_communities,
    exactness_diagnostics,
    frobenius_residual,
    osntf,
    osntf_objective,
    snmf,
)
from blockfactor.graphs import Graph, degrees, largest_connected_component, normalized_laplacian
from blockfactor.spectral import (
    nmf_init_from_partition,
    regularized_laplacian,
    spectral_clustering,
    sym_eigs_topk,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


class TestCsrEigensolver:
    @pytest.fixture(autouse=True)
    def lobpcg_at_every_size(self, monkeypatch):
        # the sampled components lie below the dense-eigh cut-over
        monkeypatch.setattr(spectral, "_DENSE_EIGH_BELOW", 0)

    def test_subspace_matches_dense_on_sampled_graphs(self):
        assert len(GRAPHS) >= 51
        worst = 0.0
        for g, k in GRAPHS:
            assert g.n >= 5 * k  # every one goes to LOBPCG, not the dense fallback
            for name, m in graph_matrices(g).items():
                dense = sym_eigs_topk(m.toarray(), k)
                csr = sym_eigs_topk(m, k)
                scale = max(1.0, float(abs(m).sum(axis=1).max()))
                np.testing.assert_allclose(csr.values, dense.values, rtol=0, atol=1e-9 * scale)
                assert np.abs(csr.vectors.T @ csr.vectors - np.eye(k)).max() < 1e-10
                worst = max(worst, max_sine(dense.vectors, csr.vectors))
        assert worst <= 1e-7

    def test_full_multiplicity_of_unit_eigenvalue_on_disconnected_graphs(self):
        # A Laplacian's eigenvalue 1 has one eigenvector per component,
        # D^{1/2} times the component's indicator; a quarter of the graphs
        # repeat one component, so lower eigenvalues repeat too.
        rng = np.random.default_rng(5)
        for trial in range(200):
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
            g = Graph.from_edges(offset, edges)
            vals, vecs = sym_eigs_topk(normalized_laplacian(g), c)
            np.testing.assert_allclose(vals, np.ones(c), rtol=0, atol=1e-10)
            basis = np.zeros((g.n, c))
            basis[np.arange(g.n), owner] = np.sqrt(degrees(g))
            basis /= np.linalg.norm(basis, axis=0)
            assert max_sine(basis, vecs) <= 1e-7

    def test_deterministic_descending_and_signed(self):
        g, k = GRAPHS[1]
        m = normalized_laplacian(g)
        a, b = sym_eigs_topk(m, k), sym_eigs_topk(m, k)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
        assert (np.diff(a.values) <= 0).all()
        for j in range(k):
            nz = np.flatnonzero(np.abs(a.vectors[:, j]) > 1e-12)
            assert a.vectors[nz[0], j] > 0

    def test_small_csr_takes_the_dense_path_bit_for_bit(self):
        # below 5k rows LOBPCG would fall back to a dense solve anyway
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
            sym_eigs_topk(normalized_laplacian(g), k)

    def test_k_checked_for_csr(self):
        with pytest.raises(InvalidInputError):
            sym_eigs_topk(normalized_laplacian(GRAPHS[0][0]), 0)


def test_csr_below_the_cut_over_is_eigh_bit_for_bit():
    g, k = GRAPHS[0]
    assert 5 * k <= g.n < spectral._DENSE_EIGH_BELOW
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
        assert osntf_objective(x, f.h) == pytest.approx(osntf_objective(x.toarray(), f.h), rel=1e-12)

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

    def test_duplicate_entries_are_summed(self):
        # an uncanonical COO-built matrix: (0, 1) and (1, 0) stored twice
        x = sp.coo_array(([1.0, 1.0, 1.0, 1.0, 3.0], ([0, 0, 1, 1, 2], [1, 1, 0, 0, 2])),
                         shape=(3, 3))
        h0 = np.full((3, 2), 0.5)
        a, b = snmf(x, 2, h0), snmf(x.toarray(), 2, h0)
        assert a.objective_trace[0] == pytest.approx(b.objective_trace[0], rel=1e-12)
        np.testing.assert_allclose(a.h, b.h, rtol=1e-9)


def _fresh_interpreter(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestLazyScipy:
    """scipy loads only on a CSR path, so a dense-only run never pays for it."""

    def test_import_does_not_load_scipy(self):
        assert _fresh_interpreter(
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
        assert _fresh_interpreter(code) == "False"
