"""SNMF and OSNTF solvers: fixed points, recovery oracles, diagnostics."""

import numpy as np
import pytest
from conftest import random_full_rank_dcsbm, random_full_rank_sbm, topk_by_magnitude

from blockfactor.blockmodels import membership_matrix, population_laplacian
from blockfactor.errors import (
    AllZeroRowError,
    BlockfactorError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteUpdateError,
)
from blockfactor.factorization import (
    Factorization,
    SolverConfig,
    assign_communities,
    exactness_diagnostics,
    frobenius_residual,
    load_factor_matrices,
    osntf,
    osntf_objective,
    osntf_step,
    save_factor_matrices,
    snmf,
    snmf_step,
)
from blockfactor.graphs import Graph, normalized_laplacian
from blockfactor.metrics import misclustering_rate
from blockfactor.spectral import kmeans, nmf_init_from_partition


def random_nonneg_symmetric(rng, n):
    m = rng.random((n, n))
    return 0.5 * (m + m.T)


def clique_pair_graph(a=4, b=5):
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(a + i, a + j) for i in range(b) for j in range(i + 1, b)]
    return Graph.from_edges(a + b, edges), np.array([0] * a + [1] * b)


class TestSnmf:
    def test_identity_matrix_exact(self):
        h0 = np.eye(2) + 0.05
        f = snmf(np.eye(2), 2, h0, SolverConfig(max_iters=2000, rel_tol=0.0))
        assert frobenius_residual(np.eye(2), f.h) < 1e-6
        np.testing.assert_allclose(f.h @ f.h.T, np.eye(2), atol=1e-5)

    def test_recovers_planted_factorization(self):
        rng = np.random.default_rng(0)
        h_true = rng.uniform(0.5, 1.5, size=(6, 2))
        x = h_true @ h_true.T
        h0 = rng.uniform(0.5, 1.5, size=(6, 2))
        f = snmf(x, 2, h0, SolverConfig(max_iters=5000, rel_tol=0.0))
        assert f.objective_trace[-1] < 1e-4

    def test_trace_monotone_and_converged_flag(self):
        rng = np.random.default_rng(1)
        x = random_nonneg_symmetric(rng, 12)
        f = snmf(x, 3, rng.random((12, 3)) + 0.1)
        diffs = np.diff(f.objective_trace)
        assert (diffs <= 1e-10 * np.abs(f.objective_trace[:-1])).all()
        assert f.converged
        assert f.s is None and f.orthogonality_drift is None

    def test_zero_init_rejected(self):
        h0 = np.ones((4, 2))
        h0[0, 0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            snmf(np.eye(4), 2, h0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            snmf(np.eye(4), 2, np.ones((5, 2)))

    def test_asymmetric_rejected(self):
        x = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            snmf(x, 1, np.ones((2, 1)))

    @pytest.mark.parametrize("offset, accepted", [(0.0, True), (5e-9, True), (1e-7, False)])
    def test_symmetry_tolerance(self, offset, accepted):
        x = np.array([[1.0, 0.5], [0.5 + offset, 1.0]])
        if accepted:
            snmf(x, 1, np.ones((2, 1)), SolverConfig(max_iters=5))
        else:
            with pytest.raises(ValueError, match="symmetric"):
                snmf(x, 1, np.ones((2, 1)))

    def test_non_finite_update_detected(self):
        x = np.full((4, 4), 1e200)
        with pytest.raises(NonFiniteUpdateError):
            snmf(x, 2, np.ones((4, 2)), SolverConfig(max_iters=50, rel_tol=0.0))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = random_nonneg_symmetric(rng, 8)
        h0 = rng.random((8, 3)) + 0.1
        perm = rng.permutation(8)
        f = snmf(x, 3, h0, SolverConfig(max_iters=60, rel_tol=0.0))
        f_p = snmf(x[np.ix_(perm, perm)], 3, h0[perm], SolverConfig(max_iters=60, rel_tol=0.0))
        np.testing.assert_allclose(f_p.h, f.h[perm], rtol=1e-10, atol=1e-12)


class TestOsntf:
    def test_two_cliques_block_recovery(self):
        g, truth = clique_pair_graph()
        lap = normalized_laplacian(g)
        part = kmeans(topk_by_magnitude(lap, 2), 2, seed=0)
        f = osntf(lap, 2, nmf_init_from_partition(part, 2))
        rate, _ = misclustering_rate(truth, assign_communities(f.h))
        assert rate == 0.0

    def test_population_laplacian_recovery(self):
        # exact-recovery oracle: build the population matrix from the block
        # closed form, factorize, and match partitions by brute force
        rng = np.random.default_rng(3)
        p = random_full_rank_sbm(rng, n=60, k=3)
        lap = population_laplacian(p)
        part = kmeans(topk_by_magnitude(lap, 3), 3, seed=0)
        h0 = nmf_init_from_partition(part, 3, offset=0.02)
        f = osntf(lap, 3, h0, SolverConfig(max_iters=12000, rel_tol=0.0))
        rate, _ = misclustering_rate(p.z, assign_communities(f.h))
        assert rate == 0.0
        assert f.objective_trace[-1] / np.linalg.norm(lap) < 1e-6

    def test_s_symmetric_nonnegative(self):
        rng = np.random.default_rng(4)
        x = random_nonneg_symmetric(rng, 10)
        f = osntf(x, 3, rng.random((10, 3)) + 0.1)
        assert f.s.min() >= 0
        assert np.abs(f.s - f.s.T).max() < 1e-10
        assert f.orthogonality_drift is not None

    def test_trace_monotone(self):
        rng = np.random.default_rng(5)
        x = random_nonneg_symmetric(rng, 15)
        f = osntf(x, 4, rng.random((15, 4)) + 0.1, SolverConfig(max_iters=300, rel_tol=0.0))
        diffs = np.diff(f.objective_trace)
        assert (diffs <= 1e-10 * np.abs(f.objective_trace[:-1])).all()

    def test_non_finite_update_detected(self):
        x = np.full((4, 4), 1e200)
        with pytest.raises(NonFiniteUpdateError):
            osntf(x, 2, np.ones((4, 2)), SolverConfig(max_iters=50, rel_tol=0.0))


class TestUpdateSteps:
    def test_exact_zeros_stay_zero(self):
        rng = np.random.default_rng(6)
        x = random_nonneg_symmetric(rng, 8)
        h = rng.random((8, 3)) + 0.1
        h[2, 1] = 0.0
        h2 = snmf_step(x, h)
        assert h2[2, 1] == 0.0
        s = h.T @ x @ h
        h3, s3 = osntf_step(x, h, s)
        assert h3[2, 1] == 0.0
        s[0, 1] = s[1, 0] = 0.0
        _, s4 = osntf_step(x, h, s)
        assert s4[0, 1] == 0.0

    def test_steps_preserve_nonnegativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_nonneg_symmetric(rng, 10)
            h = rng.random((10, 3)) + 0.05
            assert snmf_step(x, h).min() >= 0
            s = h.T @ x @ h
            h2, s2 = osntf_step(x, h, s)
            assert h2.min() >= 0 and s2.min() >= 0


def replay(x, h0, sweeps, method):
    """The solver run by hand: public steps and the dense residual."""
    h = np.array(h0, dtype=np.float64)
    s = None
    if method == "osntf":
        s = h.T @ (x @ h)
        s = 0.5 * (s + s.T)
    trace = [frobenius_residual(x, h, s)]
    for _ in range(sweeps):
        if method == "osntf":
            h, s = osntf_step(x, h, s)
        else:
            h = snmf_step(x, h)
        trace.append(frobenius_residual(x, h, s))
    return h, s, np.array(trace)


def random_instance():
    rng = np.random.default_rng(17)
    return random_nonneg_symmetric(rng, 20), rng.random((20, 3)) + 0.1, 300


def population_instance():
    # Criterion 4's set-up; at 4000 sweeps the OSNTF residual is near 1e-6
    # relative, where the identity's cancellation floor matters
    rng = np.random.default_rng(3)
    p = random_full_rank_sbm(rng, n=60, k=3)
    lap = population_laplacian(p)
    part = kmeans(topk_by_magnitude(lap, 3), 3, seed=0)
    return lap, nmf_init_from_partition(part, 3, offset=0.02), 4000


class TestSweepLoop:
    """The solvers against a replay of the public steps with the dense residual."""

    @pytest.mark.parametrize("instance", [random_instance, population_instance])
    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_matches_replay_of_public_steps(self, instance, method):
        x, h0, sweeps = instance()
        solver = snmf if method == "snmf" else osntf
        f = solver(x, 3, h0, SolverConfig(max_iters=sweeps, rel_tol=0.0))
        h, s, trace = replay(x, h0, sweeps, method)
        assert f.iterations == sweeps
        assert np.array_equal(f.h, h)
        assert (f.s is None) == (s is None)
        if s is not None:
            assert np.array_equal(f.s, s)
        norm_x = np.linalg.norm(x)
        err = np.abs(f.objective_trace - trace)
        assert err.max() <= 1e-7 * norm_x
        large = trace >= 1e-2 * norm_x
        assert large.any()
        assert (err[large] <= 1e-10 * trace[large]).all()

    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_overflowing_first_sweep_is_not_a_zero_residual(self, solver):
        # x is finite, but H H^T overflows: the identity's terms turn
        # non-finite and must not be clamped to a perfect fit
        x = np.eye(4) + 0.5
        with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError):
            solver(x, 2, np.full((4, 2), 1e160), SolverConfig(max_iters=50, rel_tol=0.0))


    @pytest.mark.parametrize("generator", [random_full_rank_sbm, random_full_rank_dcsbm])
    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_never_stops_before_the_dense_replay(self, generator, method):
        # near 1e-6 relative residual the identity's rounding noise exceeds
        # a 1e-6 relative change, so its trace alone must not end the solve
        rng = np.random.default_rng(0)
        x = population_laplacian(generator(rng, n=60, k=3))
        part = kmeans(topk_by_magnitude(x, 3), 3, seed=0)
        h0 = nmf_init_from_partition(part, 3, offset=0.02)
        cfg = SolverConfig(max_iters=3000, rel_tol=1e-6)
        f = (snmf if method == "snmf" else osntf)(x, 3, h0, cfg)
        _, _, trace = replay(x, h0, cfg.max_iters, method)
        hits = np.flatnonzero(np.abs(np.diff(trace)) < cfg.rel_tol * trace[:-1])
        dense_stop = int(hits[0]) + 1 if hits.size else cfg.max_iters
        assert f.iterations >= dense_stop
        if method == "snmf":
            # SNMF cannot fit these indefinite matrices: its residual stays
            # far above the noise, where the stop rule is as before
            assert f.converged and f.iterations == dense_stop


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_non_finite_entry_is_a_typed_error(self, solver, bad):
        x = np.eye(3)
        x[0, 0] = bad
        with pytest.raises(InvalidInputError, match="finite") as exc:
            solver(x, 1, np.ones((3, 1)))
        assert isinstance(exc.value, BlockfactorError) and isinstance(exc.value, ValueError)

    def test_off_diagonal_nan_is_not_called_asymmetric(self):
        x = np.eye(3)
        x[0, 1] = x[1, 0] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            snmf(x, 1, np.ones((3, 1)))


class TestAssignCommunities:
    def test_indicator_matrix(self):
        h = np.eye(3)
        assert assign_communities(h).tolist() == [0, 1, 2]

    def test_tie_takes_smaller_column(self):
        assert assign_communities(np.array([[0.2, 0.2]])).tolist() == [0]

    def test_scaled_membership_recovers_labels(self):
        # rows of Z Q^{-1/2} have their single positive entry at the block column
        rng = np.random.default_rng(8)
        p = random_full_rank_sbm(rng, n=30, k=3)
        z_mat = membership_matrix(p)
        q = z_mat.T @ z_mat
        h_bar = z_mat @ np.diag(1.0 / np.sqrt(np.diag(q)))
        assert np.array_equal(assign_communities(h_bar), p.z)

    def test_all_zero_row_raises(self):
        h = np.array([[0.5, 0.1], [0.0, 0.0]])
        with pytest.raises(AllZeroRowError) as exc:
            assign_communities(h)
        assert exc.value.row == 1


class TestObjective:
    def test_standard_basis_selects_leading_submatrix(self):
        rng = np.random.default_rng(9)
        x = random_nonneg_symmetric(rng, 6)
        h = np.eye(6)[:, :2]
        assert osntf_objective(x, h) == pytest.approx(np.linalg.norm(x[:2, :2]))

    def test_pythagoras_identity_for_orthonormal_h(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = random_nonneg_symmetric(rng, 9)
            q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
            s = q.T @ x @ q
            lhs = frobenius_residual(x, q, s) ** 2 + osntf_objective(x, q) ** 2
            assert lhs == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)

    def test_population_objective_attains_matrix_norm(self):
        # at the exact population factor the objective equals ||A||_F
        rng = np.random.default_rng(11)
        p = random_full_rank_sbm(rng, n=45, k=3)
        from blockfactor.blockmodels import population_adjacency

        pop = population_adjacency(p)
        z_mat = membership_matrix(p)
        q = z_mat.T @ z_mat
        h_bar = z_mat @ np.diag(1.0 / np.sqrt(np.diag(q)))
        assert osntf_objective(pop, h_bar) == pytest.approx(np.linalg.norm(pop), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            osntf_objective(np.eye(3), np.ones((4, 2)))


class TestExactnessDiagnostics:
    def test_exact_input_scores_one(self):
        rng = np.random.default_rng(12)
        p = random_full_rank_sbm(rng, n=40, k=3)
        z_mat = membership_matrix(p)
        q = z_mat.T @ z_mat
        h_bar = z_mat @ np.diag(1.0 / np.sqrt(np.diag(q)))
        lap = population_laplacian(p)
        s_bar = h_bar.T @ lap @ h_bar
        f = Factorization(h=h_bar, s=s_bar, objective_trace=np.zeros(1), iterations=0, converged=True)
        report = exactness_diagnostics(lap, f)
        assert report.row_sparsity == 1.0
        assert report.relative_residual < 1e-10

    def test_noisy_input_reports_positive_residual(self):
        rng = np.random.default_rng(13)
        x = random_nonneg_symmetric(rng, 12)
        f = osntf(x, 3, rng.random((12, 3)) + 0.1)
        report = exactness_diagnostics(x, f)
        assert report.residual > 0
        assert 0.0 <= report.row_sparsity <= 1.0

    def test_solved_population_laplacian_nearly_row_sparse(self):
        # iteratively solved factors approach the one-nonzero-per-row
        # structure as a slow power law; probe with a loose threshold
        rng = np.random.default_rng(14)
        p = random_full_rank_sbm(rng, n=50, k=3)
        lap = population_laplacian(p)
        part = kmeans(topk_by_magnitude(lap, 3), 3, seed=0)
        f = osntf(lap, 3, nmf_init_from_partition(part, 3, offset=0.02),
                  SolverConfig(max_iters=12000, rel_tol=0.0))
        report = exactness_diagnostics(lap, f, sparsity_threshold=1e-2)
        assert report.row_sparsity >= 0.99
        assert report.relative_residual < 1e-6


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        x = random_nonneg_symmetric(rng, 8)
        f = osntf(x, 2, rng.random((8, 2)) + 0.1)
        path = tmp_path / "factors.txt"
        save_factor_matrices(f, path)
        h, s = load_factor_matrices(path)
        np.testing.assert_array_equal(h, f.h)
        np.testing.assert_array_equal(s, f.s)

    def test_snmf_round_trip_without_s(self, tmp_path):
        rng = np.random.default_rng(16)
        x = random_nonneg_symmetric(rng, 6)
        f = snmf(x, 2, rng.random((6, 2)) + 0.1)
        path = tmp_path / "factors.txt"
        save_factor_matrices(f, path)
        h, s = load_factor_matrices(path)
        np.testing.assert_array_equal(h, f.h)
        assert s is None
