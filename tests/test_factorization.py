"""SNMF and OSNTF solvers: fixed points, recovery oracles, diagnostics."""

import math

import numpy as np
import pytest
from conftest import random_full_rank_dcsbm, random_full_rank_sbm, topk_by_magnitude

from blockfactor.blockmodels import (
    dcsbm_powerlaw_preset,
    population_laplacian,
    sample_graph,
    sbm_snr_preset,
)
from blockfactor.datasets import karate
from blockfactor.errors import BlockfactorError, InvalidInputError, NonFiniteUpdateError
from blockfactor.factorization import (
    Factorization,
    SolverConfig,
    assign_communities,
    exactness_diagnostics,
    frobenius_residual,
    osntf,
    snmf,
)
from blockfactor.graphs import Graph, as_matrix, largest_connected_component, normalized_laplacian, regularized_laplacian
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
        with pytest.raises(InvalidInputError, match=r"h0 must have shape \(4, 2\), got \(5, 2\)"):
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
        part = kmeans(topk_by_magnitude(lap.toarray(), 2), 2, seed=0)
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


def snmf_step(x, h):
    """A frozen copy of the SNMF rule H <- H * (1/2 + (XH) / (2 H H^T H)),
    with the solvers' 1e-12 guard: the reference the sweep loop must match."""
    return h * (0.5 + 0.5 * ((x @ h) / (h @ (h.T @ h) + 1e-12)))


def osntf_step(x, h, s):
    """A frozen copy of the OSNTF sweep: the S rule, then the H rule."""
    xh, gram = x @ h, h.T @ h
    s = s * np.sqrt((h.T @ xh) / (gram @ s @ gram + 1e-12))
    xhs = xh @ s
    return h * np.sqrt(xhs / (h @ (h.T @ xhs) + 1e-12)), s


def replay(x, h0, sweeps, method):
    """The solver run by hand: the frozen step rules and the dense residual."""
    h = np.array(h0, dtype=np.float64, order="C")  # as the solver's copy, whatever h0's order
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
    """The solvers against a replay of the frozen step rules with the dense residual."""

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


    def test_overflowing_identity_terms_are_rescaled(self):
        # ||X||^2 = 1e308 is finite, but 2 <H, XH> overflows; h0 is an exact
        # factor, so the residual must stay near 0, not turn non-finite
        x = 2.5e153 * np.ones((4, 4))
        h0 = np.sqrt(1.25e153) * np.ones((4, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            f = snmf(x, 2, h0)
        assert np.isfinite(f.objective_trace).all()
        assert f.objective_trace[-1] <= 1e-6 * np.linalg.norm(x)
        # a start whose residual exceeds sqrt(float max): the stop test's
        # r^2 overflows to inf instead of raising a bare OverflowError
        x = 3e153 * np.ones((4, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            f = snmf(x, 2, 1e77 * np.ones((4, 2)))
        assert f.objective_trace[0] > 1.4e154
        assert f.objective_trace[-1] <= 1e-6 * np.linalg.norm(x)

    # an exact start, and the 1e77 start whose trace reads 0 from sweep 5 on
    ZERO_TRACE_CASES = {
        "exact": (np.ones((4, 4)), np.full((4, 2), np.sqrt(0.5))),
        "overflowing": (3e153 * np.ones((4, 4)), 1e77 * np.ones((4, 2))),
    }

    @pytest.mark.parametrize("case", sorted(ZERO_TRACE_CASES))
    def test_two_exact_zeros_stop_the_solve(self, case):
        x, h0 = self.ZERO_TRACE_CASES[case]
        with np.errstate(all="ignore"):
            f = snmf(x, 2, h0)
            full = snmf(x, 2, h0, SolverConfig(rel_tol=0.0))
        assert f.converged and f.iterations < 10
        assert (f.objective_trace[-2:] == 0).all()
        # rel_tol = 0 never stops early, and the stopped trace is its prefix
        assert not full.converged and full.iterations == 500
        assert np.array_equal(f.objective_trace, full.objective_trace[: f.iterations + 1])

    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.parametrize("generator", [random_full_rank_sbm, random_full_rank_dcsbm])
    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_finite_traces_unchanged_by_the_rescaling(self, monkeypatch, n, generator, solver):
        # population-recovery's instances and solver settings (fewer sweeps
        # at n = 300): no finite r^2 may reach the overflow rescaling.  Its
        # scaling by powers of two is exact, so comparing traces cannot see
        # it; a spy on the rescaling can, and the 1e77 start of
        # test_overflowing_identity_terms_are_rescaled shows that the spy
        # sees the sweeps and not only the starting residual
        from blockfactor import factorization

        finite = []
        rescaled_residual = factorization._rescaled_residual

        def spy(x_sq, xh, h, s):
            finite.append(math.isfinite(factorization._shared_products(x_sq, xh, h, s)[0]))
            return rescaled_residual(x_sq, xh, h, s)

        monkeypatch.setattr(factorization, "_rescaled_residual", spy)
        with np.errstate(all="ignore"):
            snmf(3e153 * np.ones((4, 4)), 2, 1e77 * np.ones((4, 2)), SolverConfig(max_iters=3, rel_tol=0.0))
        assert len(finite) == 4 and not any(finite)
        finite.clear()
        rng = np.random.default_rng(11)
        params = generator(rng, n=n, k=3)
        x = population_laplacian(params)
        h0 = nmf_init_from_partition(kmeans(topk_by_magnitude(x, 3), 3, seed=0), 3, offset=0.02)
        cfg = SolverConfig(max_iters=12000 if n == 60 else 3000, rel_tol=0.0)
        solver(x, 3, h0, cfg)
        assert finite == []

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


# The sweep loop as it was before each sweep's k x k products were formed
# once and shared by its residual and the next update, kept verbatim as
# the bit-for-bit reference.  Its inputs are valid, so the checks are left out.
# Its ||X||^2 is numpy's pairwise sum, as in the solver since that sum
# stopped going through a BLAS dot product, whose bits follow the thread count.


def _parent_identity_sq(x_sq, xh, h, s):
    gram = h.T @ h
    if s is None:
        return float(x_sq - 2.0 * np.vdot(h, xh) + np.vdot(gram, gram))
    return float(x_sq - 2.0 * np.vdot(h.T @ xh, s) + np.vdot(s, gram @ s @ gram))


def _parent_residual_from(x_sq, xh, h, s):
    e = 0
    r_sq = _parent_identity_sq(x_sq, xh, h, s)
    if not math.isfinite(r_sq) and math.isfinite(x_sq):
        e = math.frexp(x_sq)[1] // 4
        r_sq = _parent_identity_sq(math.ldexp(x_sq, -4 * e), np.ldexp(xh, -3 * e), np.ldexp(h, -e), s)
    if not math.isfinite(r_sq):
        return math.nan
    return math.ldexp(math.sqrt(max(r_sq, 0.0)), 2 * e)


def _parent_snmf_update(xh, h):
    denom = h @ (h.T @ h) + 1e-12
    return h * (0.5 + 0.5 * (xh / denom))


def _parent_osntf_update(xh, h, s):
    gram = h.T @ h
    s_num = h.T @ xh
    s_den = gram @ s @ gram + 1e-12
    s = s * np.sqrt(s_num / s_den)

    xhs = xh @ s
    h_den = h @ (h.T @ xhs) + 1e-12
    h = h * np.sqrt(xhs / h_den)
    return h, s


def _parent_initial_s(xh, h):
    s = h.T @ xh
    return 0.5 * (s + s.T)


def parent_solve(method, x, k, h0, cfg):
    x = as_matrix(x)
    entries = x if isinstance(x, np.ndarray) else x.data
    h = np.array(h0, dtype=np.float64, order="C")  # as the solver's copy, whatever h0's order
    x_sq = float(np.square(entries).sum())
    noise_sq = x.shape[0] * k * np.finfo(np.float64).eps * x_sq
    if method == "snmf":
        s0, update = None, lambda xh, h, s: (_parent_snmf_update(xh, h), None)
    else:
        s0, update = _parent_initial_s, _parent_osntf_update
    xh = x @ h
    s = None if s0 is None else s0(xh, h)
    trace = [_parent_residual_from(x_sq, xh, h, s)]
    converged = False
    for _ in range(cfg.max_iters):
        h, s = update(xh, h, s)
        xh = x @ h
        trace.append(_parent_residual_from(x_sq, xh, h, s))
        if not np.isfinite(trace[-1]):
            raise NonFiniteUpdateError(f"{method.upper()} update produced non-finite entries")
        resolvable = 2.0 * cfg.rel_tol * (trace[-2] * trace[-2]) > noise_sq
        if resolvable and abs(trace[-2] - trace[-1]) / trace[-2] < cfg.rel_tol:
            converged = True
            break
    return Factorization(
        h=h,
        s=s,
        objective_trace=np.array(trace),
        iterations=len(trace) - 1,
        converged=converged,
        orthogonality_drift=None if s is None else float(np.linalg.norm(h.T @ h - np.eye(k))),
    )


def assert_same_as_parent(method, x, k, h0, cfg):
    """The solver's Factorization equals the reference's, or both raise the
    same error; returns the Factorization or the error."""
    try:
        ref = parent_solve(method, x, k, h0, cfg)
    except NonFiniteUpdateError as exc:
        with pytest.raises(NonFiniteUpdateError, match=str(exc)) as raised:
            (snmf if method == "snmf" else osntf)(x, k, h0, cfg)
        return raised.value
    f = (snmf if method == "snmf" else osntf)(x, k, h0, cfg)
    assert np.array_equal(f.h, ref.h)
    assert (f.s is None) == (ref.s is None) and (f.s is None or np.array_equal(f.s, ref.s))
    assert np.array_equal(f.objective_trace, ref.objective_trace)
    assert f.iterations == ref.iterations and f.converged == ref.converged
    assert f.orthogonality_drift == ref.orthogonality_drift
    return f


def sampled_component(model, seed):
    n, degree = 200, 12.0
    if model == "sbm":
        params = sbm_snr_preset(n, 3, 3.0, degree)
    else:
        params = dcsbm_powerlaw_preset(n, 3, 3.0, degree, 2.5, seed=[seed, 0])
    g, _ = largest_connected_component(sample_graph(params, seed=[seed, 1]))
    return g, 3


GRAPH_CASES = {
    "karate": lambda: (karate()[0], 2),
    "sbm": lambda: sampled_component("sbm", 1),
    "dcsbm": lambda: sampled_component("dcsbm", 2),
}


class TestSharedProducts:
    """The solvers against a frozen copy of the loop that formed each k x k
    product afresh for the residual and again for the update: h, s, the
    trace, the counts and the drift must be bit for bit the same."""

    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.parametrize("generator", [random_full_rank_sbm, random_full_rank_dcsbm])
    @pytest.mark.parametrize("rel_tol", [0.0, 1e-6])
    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_population_instances(self, n, generator, rel_tol, method):
        x = population_laplacian(generator(np.random.default_rng(11), n=n, k=3))
        h0 = nmf_init_from_partition(kmeans(topk_by_magnitude(x, 3), 3, seed=0), 3, offset=0.02)
        cfg = SolverConfig(max_iters=12000 if n == 60 else 3000, rel_tol=rel_tol)
        assert_same_as_parent(method, x, 3, h0, cfg)

    @pytest.mark.parametrize("graph", sorted(GRAPH_CASES))
    @pytest.mark.parametrize("matrix", ["L", "L_tau", "A"])
    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_csr_graph_matrices(self, graph, matrix, method):
        g, k = GRAPH_CASES[graph]()
        x = {"L": normalized_laplacian, "L_tau": regularized_laplacian, "A": lambda g: g.adjacency}[matrix](g)
        assert x.format == "csr"
        rng = np.random.default_rng(5)
        h0 = nmf_init_from_partition(rng.integers(0, k, size=g.n), k)
        for cfg in (SolverConfig(), SolverConfig(max_iters=300, rel_tol=0.0)):
            assert_same_as_parent(method, x, k, h0, cfg)

    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_fortran_ordered_h0(self, method):
        # the solver copies h0 into C order; a reference that kept the
        # Fortran order would take other BLAS paths and differ in the last bits
        rng = np.random.default_rng(29)
        x = random_nonneg_symmetric(rng, 60)
        h0 = np.asfortranarray(rng.random((60, 5)) + 0.1)
        assert not h0.flags.c_contiguous
        assert_same_as_parent(method, x, 5, h0, SolverConfig(max_iters=30, rel_tol=0.0))

    @pytest.mark.parametrize("method", ["snmf", "osntf"])
    def test_overflowing_starts(self, method):
        # the 1e77 start of TestSweepLoop, whose first residual is rescaled
        # (OSNTF then overflows), and an H H^T that overflows at once.  The
        # first runs at rel_tol 0: its SNMF trace reads 0 from sweep 5 on,
        # where the default stop now ends the solve and the frozen loop's
        # did not (test_two_exact_zeros_stop_the_solve)
        with np.errstate(all="ignore"):
            f = assert_same_as_parent(
                method, 3e153 * np.ones((4, 4)), 2, 1e77 * np.ones((4, 2)), SolverConfig(rel_tol=0.0)
            )
            if method == "snmf":
                assert f.objective_trace[0] > 1.4e154
            else:
                assert isinstance(f, NonFiniteUpdateError)
            f = assert_same_as_parent(method, np.eye(4) + 0.5, 2, np.full((4, 2), 1e160), SolverConfig(max_iters=50))
            assert isinstance(f, NonFiniteUpdateError)


class TestInputsUntouched:
    """The solvers update their own copy of h0 in place and never write to
    x or h0, whether x is dense or CSR and h0 writable or read-only."""

    @pytest.mark.parametrize("matrix", ["dense", "csr"])
    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_x_and_h0_keep_their_bytes(self, matrix, writable, solver):
        from scipy import sparse

        g = karate()[0]
        dense = normalized_laplacian(g).toarray()
        x = dense if matrix == "dense" else sparse.csr_array(dense)
        h0 = nmf_init_from_partition(np.random.default_rng(5).integers(0, 2, size=g.n), 2)
        h0.setflags(write=writable)
        parts = [x] if matrix == "dense" else [x.data, x.indices, x.indptr]
        before = [p.tobytes() for p in (*parts, h0)]
        f = solver(x, 2, h0, SolverConfig(max_iters=50, rel_tol=0.0))
        assert [p.tobytes() for p in (*parts, h0)] == before
        assert not np.shares_memory(f.h, h0) and not any(np.shares_memory(f.h, p) for p in parts)


class TestInputChecks:
    @pytest.mark.parametrize(
        "options",
        [
            dict(max_iters=2.5),
            dict(max_iters=True),
            dict(max_iters="5"),
            dict(max_iters=0),
            dict(max_iters=-1),
            dict(rel_tol=1.0),
            dict(rel_tol=-1e-3),
            dict(rel_tol=float("nan")),
            dict(rel_tol="x"),
            dict(rel_tol=None),
        ],
    )
    def test_bad_config_is_a_typed_error(self, options):
        with pytest.raises(InvalidInputError):
            SolverConfig(**options)

    def test_numpy_integer_max_iters(self):
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_non_finite_entry_is_a_typed_error(self, solver, bad):
        x = np.eye(3)
        x[0, 0] = bad
        with pytest.raises(InvalidInputError, match="finite") as exc:
            solver(x, 1, np.ones((3, 1)))
        assert isinstance(exc.value, BlockfactorError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("solver", [snmf, osntf])
    def test_non_square_matrix(self, solver):
        with pytest.raises(InvalidInputError, match=r"square, got shape \(2, 3\)"):
            solver(np.ones((2, 3)), 1, np.ones((2, 1)))

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
        z_mat = np.eye(p.k)[p.z]
        q = z_mat.T @ z_mat
        h_bar = z_mat @ np.diag(1.0 / np.sqrt(np.diag(q)))
        assert np.array_equal(assign_communities(h_bar), p.z)

    def test_one_dimensional_h_raises(self):
        with pytest.raises(InvalidInputError, match="N x K"):
            assign_communities(np.ones(3))

    def test_all_zero_row_raises(self):
        h = np.array([[0.5, 0.1], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="row 1 of H has no positive entry"):
            assign_communities(h)


class TestExactnessDiagnostics:
    def test_exact_input_scores_one(self):
        rng = np.random.default_rng(12)
        p = random_full_rank_sbm(rng, n=40, k=3)
        z_mat = np.eye(p.k)[p.z]
        q = z_mat.T @ z_mat
        h_bar = z_mat @ np.diag(1.0 / np.sqrt(np.diag(q)))
        lap = population_laplacian(p)
        s_bar = h_bar.T @ lap @ h_bar
        f = Factorization(h=h_bar, s=s_bar, objective_trace=np.zeros(1), iterations=0, converged=True)
        report = exactness_diagnostics(lap, f)
        assert report.row_sparsity == 1.0
        assert report.relative_residual < 1e-10

    def test_one_column_scores_rows_with_a_positive_entry(self):
        # X = h s h^T exactly; at k = 1 a row is sparse when its entry is positive
        h = np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2.0)
        x = 3.0 * h @ h.T
        f = Factorization(h=h, s=np.array([[3.0]]), objective_trace=np.zeros(1), iterations=0, converged=True)
        report = exactness_diagnostics(x, f)
        assert report.row_sparsity == pytest.approx(2 / 3)
        assert report.relative_residual < 1e-15
        assert report.orthogonality_drift < 1e-15

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


