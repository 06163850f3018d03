"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The dolphins and political-blogs criteria need their data
fixtures (see scripts/fetch_dolphins.py and scripts/fetch_polblogs.py);
without them those tests fail with fetch instructions.
"""

import itertools
import time

import numpy as np
import pytest
from conftest import (
    disjoint_components_graph,
    random_full_rank_dcsbm,
    random_full_rank_sbm,
    topk_by_magnitude,
)

from blockfactor.bench import ExperimentSpec, realdata_table, run_method, run_simulation
from blockfactor.blockmodels import population_laplacian
from blockfactor.cli import main as cli_main
from blockfactor.datasets import load_dataset
from blockfactor.factorization import (
    SolverConfig,
    assign_communities,
    osntf,
    snmf,
)
from blockfactor.graphs import normalized_laplacian
from blockfactor.metrics import (
    misclustered_count,
    misclustered_nodes,
    misclustering_rate,
    nmi,
)
from blockfactor.spectral import kmeans, nmf_init_from_partition, sym_eigs_topk


def _passed(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


class TestCriterion1Karate:
    def test_karate_exact_recovery(self):
        """All four methods recover the karate split with 0 misclustered."""
        start = time.perf_counter()
        methods = ["snmf", "osntf", "spectral", "reg-spectral"]
        rows = realdata_table("karate", methods=methods, seed=0)
        counts = {r.method: round(r.misclustering_rate * r.sweep_value) for r in rows}
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
        assert all(c == 0 for c in counts.values()), (
            f"ACCEPTANCE 1 (karate exact recovery): FAIL — misclustered counts {counts} "
            "(expected 0 for every method)"
        )
        _passed("1 (karate exact recovery)", f"counts {counts}, {elapsed:.1f}s")


class TestCriterion2Dolphins:
    def test_dolphins_single_misfit(self):
        """SNMF/OSNTF miss exactly the dolphin SN89; spectral baselines bracket it."""
        start = time.perf_counter()
        g, truth = load_dataset("dolphins")
        counts = {m: [] for m in ("snmf", "osntf", "spectral", "reg-spectral")}
        misfits = []
        for seed in range(10):
            for method in counts:
                out = run_method(g, 2, method, seed=seed)
                counts[method].append(misclustered_count(truth, out.labels))
                if method in ("snmf", "osntf"):
                    idx = misclustered_nodes(truth, out.labels)
                    misfits.append({g.node_names[i] for i in idx})
        med = {m: float(np.median(v)) for m, v in counts.items()}
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        detail = f"medians {med}"
        assert med["snmf"] == 1 and med["osntf"] == 1, f"ACCEPTANCE 2 (dolphins): FAIL — {detail}"
        sn89_runs = sum(1 for s in misfits if s == {"SN89"})
        assert sn89_runs >= len(misfits) / 2, (
            f"ACCEPTANCE 2 (dolphins): FAIL — single misfit is SN89 in only "
            f"{sn89_runs}/{len(misfits)} NMF runs"
        )
        assert med["reg-spectral"] <= 3, f"ACCEPTANCE 2 (dolphins): FAIL — {detail}"
        assert med["spectral"] >= 8, f"ACCEPTANCE 2 (dolphins): FAIL — {detail}"
        _passed("2 (dolphins)", f"{detail}, SN89 in {sn89_runs}/{len(misfits)} runs, {elapsed:.1f}s")


class TestCriterion3Polblogs:
    def test_polblogs_table(self):
        """NMF methods near the published blog-network error counts."""
        start = time.perf_counter()
        g, truth = load_dataset("polblogs")
        assert g.n == 1222
        counts = {m: [] for m in ("snmf", "osntf", "spectral", "reg-spectral")}
        nmis = {m: [] for m in ("snmf", "osntf")}
        for seed in range(10):
            for method in counts:
                out = run_method(g, 2, method, seed=seed)
                counts[method].append(misclustered_count(truth, out.labels))
                if method in nmis:
                    best = max(
                        nmi(truth, out.labels, variant=v)
                        for v in ("sum", "sqrt", "max", "min")
                    )
                    nmis[method].append(best)
        med = {m: float(np.median(v)) for m, v in counts.items()}
        med_nmi = {m: float(np.median(v)) for m, v in nmis.items()}
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min"
        detail = f"medians {med}, NMF nmi {med_nmi}"
        assert med["snmf"] <= 70 and med["osntf"] <= 70, f"ACCEPTANCE 3 (polblogs): FAIL — {detail}"
        assert med_nmi["snmf"] >= 0.70 and med_nmi["osntf"] >= 0.70, (
            f"ACCEPTANCE 3 (polblogs): FAIL — {detail}"
        )
        assert med["reg-spectral"] <= 90, f"ACCEPTANCE 3 (polblogs): FAIL — {detail}"
        assert med["spectral"] >= 400, f"ACCEPTANCE 3 (polblogs): FAIL — {detail}"
        _passed("3 (polblogs)", f"{detail}, {elapsed:.0f}s")


class TestCriterion4PopulationRecovery:
    def test_population_laplacian_exact_recovery(self):
        """Tri-factorizing 40 random population Laplacians recovers every label."""
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        cfg = SolverConfig(max_iters=12000, rel_tol=0.0)
        failures = []
        for trial in range(40):
            params = (
                random_full_rank_sbm(rng, n=60, k=3)
                if trial < 20
                else random_full_rank_dcsbm(rng, n=60, k=3)
            )
            lap = population_laplacian(params)
            init = kmeans(topk_by_magnitude(lap, 3), 3, seed=trial)
            h0 = nmf_init_from_partition(init, 3, offset=0.02)
            f = osntf(lap, 3, h0, cfg)
            rel_resid = f.objective_trace[-1] / np.linalg.norm(lap)
            rate, _ = misclustering_rate(params.z, assign_communities(f.h))
            if rate > 0 or rel_resid >= 1e-6:
                failures.append((trial, rate, rel_resid))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        assert not failures, f"ACCEPTANCE 4 (population recovery): FAIL — {failures}"
        _passed("4 (population recovery)", f"40/40 exact, rel residual < 1e-6, {elapsed:.0f}s")


class TestCriterion5BlockDiagonal:
    def test_disjoint_components_recovered_exactly(self):
        """Both solvers label disconnected components perfectly, 20/20 graphs."""
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        failures = []
        for trial in range(20):
            k = (2, 3, 4)[trial % 3]
            sizes = rng.integers(4, 10, size=k)
            g, truth = disjoint_components_graph(rng, sizes)
            lap = normalized_laplacian(g)
            vecs = sym_eigs_topk(lap, k).vectors
            rows = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            init = kmeans(rows, k, seed=trial)
            h0 = nmf_init_from_partition(init, k)
            for solver, name in ((snmf, "snmf"), (osntf, "osntf")):
                f = solver(lap, k, h0)
                rate, _ = misclustering_rate(truth, assign_communities(f.h))
                if rate > 0:
                    failures.append((trial, name, rate))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        assert not failures, f"ACCEPTANCE 5 (block-diagonal exactness): FAIL — {failures}"
        _passed("5 (block-diagonal exactness)", f"20/20 graphs, both solvers, {elapsed:.1f}s")


class TestCriterion6Monotonicity:
    def test_updates_never_increase_objective(self):
        """No update sweep of either solver raises its residual beyond 1e-10 relative."""
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        cfg = SolverConfig()  # the shipped stopping rule
        worst = {"snmf": 0.0, "osntf": 0.0}
        for _ in range(100):
            n = int(rng.integers(5, 41))
            k = int(rng.integers(1, 6))
            m = rng.random((n, n))
            x = 0.5 * (m + m.T)
            h0 = rng.random((n, k)) + 0.05
            for solver, name in ((snmf, "snmf"), (osntf, "osntf")):
                trace = solver(x, k, h0, cfg).objective_trace
                rel_increase = np.diff(trace) / np.maximum(trace[:-1], 1e-300)
                worst[name] = max(worst[name], float(rel_increase.max()))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        assert max(worst.values()) <= 1e-10, (
            f"ACCEPTANCE 6 (update monotonicity): FAIL — worst relative increase {worst} "
            "(the tri-factorization rules bounce transiently on some random inputs)"
        )
        _passed("6 (update monotonicity)", f"worst relative increase {worst}, {elapsed:.0f}s")


class TestCriterion7SimulationTrends:
    def test_sbm_increasing_degree_trend(self):
        """Dense-regime accuracy and sparse-regime ordering on the SBM sweep."""
        start = time.perf_counter()
        spec = ExperimentSpec(
            experiment="trend-a",
            model="sbm",
            n=800,
            k=3,
            snr=3.0,
            avg_degree=[10.0, 30.0],
            sweep="avg_degree",
            methods=["osntf", "spectral"],
            replicates=32,
            base_seed=0,
        )
        rows = run_simulation(spec)
        mean = lambda sv, m: float(
            np.mean([r.nmi for r in rows if r.sweep_value == sv and r.method == m])
        )
        osntf_30 = mean(30.0, "osntf")
        osntf_10, spectral_10 = mean(10.0, "osntf"), mean(10.0, "spectral")
        elapsed = time.perf_counter() - start
        detail = (
            f"deg30 osntf {osntf_30:.3f}; deg10 osntf {osntf_10:.3f} "
            f"vs spectral {spectral_10:.3f}; {elapsed:.0f}s"
        )
        assert osntf_30 >= 0.8, f"ACCEPTANCE 7a (SBM trend): FAIL — {detail}"
        assert osntf_10 >= spectral_10, f"ACCEPTANCE 7a (SBM trend): FAIL — {detail}"
        _passed("7a (SBM degree trend)", detail)

    def test_dcsbm_heterogeneity_trend(self):
        """Heavy-tailed regime: tri-factorization beats the spectral baselines."""
        start = time.perf_counter()
        spec = ExperimentSpec(
            experiment="trend-c",
            model="dcsbm",
            n=600,
            k=3,
            snr=3.0,
            avg_degree=30.0,
            beta=[2.1],
            sweep="beta",
            methods=["osntf", "spectral", "reg-spectral"],
            replicates=32,
            base_seed=0,
        )
        rows = run_simulation(spec)
        mean = lambda m: float(np.mean([r.nmi for r in rows if r.method == m]))
        osntf_nmi, spectral_nmi, reg_nmi = mean("osntf"), mean("spectral"), mean("reg-spectral")
        elapsed = time.perf_counter() - start
        assert elapsed < 800.0, f"runtime {elapsed:.0f}s exceeds the shared 15min budget"
        detail = (
            f"osntf {osntf_nmi:.3f}, spectral {spectral_nmi:.3f}, "
            f"reg-spectral {reg_nmi:.3f}; {elapsed:.0f}s"
        )
        assert osntf_nmi >= reg_nmi - 0.02, f"ACCEPTANCE 7c (DCSBM trend): FAIL — {detail}"
        assert spectral_nmi <= 0.3, f"ACCEPTANCE 7c (DCSBM trend): FAIL — {detail}"
        assert osntf_nmi >= spectral_nmi + 0.3, f"ACCEPTANCE 7c (DCSBM trend): FAIL — {detail}"
        _passed("7c (DCSBM heterogeneity trend)", detail)


class TestCriterion8MetricOracles:
    def test_misclustering_matches_exhaustive_search(self):
        """Permutation-minimized rate agrees with direct Hamming search everywhere."""
        start = time.perf_counter()

        def direct(truth, cand, k):
            best = truth.size + 1
            for perm in itertools.permutations(range(k)):
                best = min(best, int((np.array(perm)[cand] != truth).sum()))
            return best / truth.size

        rng = np.random.default_rng(1)
        checked = 0
        for n in range(1, 9):
            truths = [np.arange(n) % 3, rng.integers(0, 3, size=n)]
            for cand in itertools.product(range(3), repeat=n):
                cand = np.array(cand)
                for truth in truths:
                    rate, _ = misclustering_rate(truth, cand)
                    assert rate == pytest.approx(direct(truth, cand, 3), abs=1e-12)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        _passed("8 (metric oracles: misclustering)", f"{checked} exhaustive cases, {elapsed:.0f}s")

    def test_nmi_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            assert nmi(a, a) == 1.0
            v = nmi(a, b)
            assert v == pytest.approx(nmi(b, a), abs=1e-12)
            perm = rng.permutation(4)
            assert v == pytest.approx(nmi(perm[a], b), abs=1e-12)
            assert 0.0 <= v <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        _passed("8 (metric oracles: NMI identities)", f"1000 random pairs, {elapsed:.0f}s")


class TestCriterion9Determinism:
    def test_simulate_byte_identical(self, tmp_path):
        """The simulate command writes byte-identical CSV on reruns."""
        start = time.perf_counter()
        spec = {
            "experiment": "determinism",
            "model": "dcsbm",
            "n": 90,
            "k": 3,
            "snr": 3.0,
            "avg_degree": 10.0,
            "beta": [2.3, 3.0],
            "sweep": "beta",
            "methods": ["snmf", "osntf", "spectral", "reg-spectral", "spectral-wp"],
            "replicates": 3,
            "base_seed": 7,
        }
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(["simulate", str(spec_path), "--out", str(out1), "--quiet"]) == 0
        assert cli_main(["simulate", str(spec_path), "--out", str(out2), "--quiet"]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        elapsed = time.perf_counter() - start
        assert b1 == b2, "ACCEPTANCE 9 (determinism): FAIL — CSV bytes differ between reruns"
        _passed("9 (determinism)", f"{len(b1)} CSV bytes identical, {elapsed:.0f}s")
