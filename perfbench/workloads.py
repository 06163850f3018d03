"""The benchmark's three workloads, each a closed loop of serial calls.

A workload is built from the workload seed, sets its inputs up with
``set_up`` (repeatable, so its time can be taken as a median), then runs
whole passes over the same inputs.  Every pass repeats the previous one
exactly, so each job's output is checked against the first pass.  A job
that raises or fails its check is recorded and the run goes on.

Calls go through the module attributes (``bench.run_simulation``,
``io.load_graph`` ...), which is where the tracer installs its wrappers.
"""

import dataclasses
import time
import traceback

import numpy as np

from blockfactor import bench, blockmodels, factorization, graphs, io, metrics, spectral
from blockfactor.blockmodels import DcsbmParams, SbmParams

K = 3


class Workload:
    """Inputs from the seed, repeatable set-up, and whole passes of checked jobs."""

    name = ""
    # methods whose per-pass time is reported as ``<method>_s``
    TIMED = ("osntf", "snmf")

    def __init__(self, root, work_dir, seed: int, smoke: bool):
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        self.smoke = smoke
        self.tracer = None
        self.attempted = 0
        self.failed_jobs: set[str] = set()
        # per pass, seconds spent producing each timed method's labels
        self.method_s: dict[str, list[float]] = {method: [] for method in self.TIMED}

    def start_pass(self) -> None:
        for times in self.method_s.values():
            times.append(0.0)

    def add_method_time(self, method: str, seconds: float) -> None:
        if method in self.method_s:
            self.method_s[method][-1] += seconds

    def run_job(self, job_id: str, fn) -> None:
        """Run one job; an exception or a False check marks it failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job_id
        try:
            ok = fn()
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"job {job_id} failed its output check", flush=True)
            self.failed_jobs.add(job_id)

    def set_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, pass_no: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks too slow to repeat every pass; run once, untimed."""

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Median per-pass time of each timed method, plus the workload's own metrics."""
        return {
            f"{method.replace('-', '_')}_s": (float(np.median(times)), "s")
            for method, times in self.method_s.items()
        }


# -- fig1-sweep -----------------------------------------------------------------
def _one_point(spec, n: int):
    """The spec cut to its first sweep value at ``n`` nodes."""
    first = spec.sweep_values[0] if spec.sweep != "n" else n
    changes = {"replicates": 1, spec.sweep: [first]}
    if spec.sweep != "n":
        changes["n"] = n
    return dataclasses.replace(spec, **changes)


class Fig1Sweep(Workload):
    """The shipped Fig. 1 configs at two replicates, serial through run_simulation."""

    name = "fig1-sweep"
    CONFIGS = ("fig1a", "fig1b", "fig1c")
    # 28 cells a pass: fewer let the solvers' seed-dependent iteration
    # counts (a few DCSBM cells run 5x longer) dominate the pass time.
    REPLICATES = 2

    def set_up(self):
        specs = []
        for config in self.CONFIGS:
            spec = bench.ExperimentSpec.from_json(self.root / "configs" / f"{config}.json")
            spec = dataclasses.replace(
                spec, replicates=self.REPLICATES, base_seed=spec.base_seed + 1000 * self.seed
            )
            specs.append(_one_point(spec, 120) if self.smoke else spec)
        # warm-up: one small cell of the config that runs every method
        bench.run_simulation(_one_point(specs[-1], 90))
        self.specs = specs
        self.first_csv: dict[str, tuple] = {}
        self.cell_s: list[float] = []
        self.cells = 0
        self.sweep_s = 0.0
        self.nmis: list[float] = []

    def run_pass(self, pass_no):
        self.start_pass()
        for spec in self.specs:
            self.run_job(f"{spec.experiment}/pass{pass_no}", lambda: self._sweep(spec, pass_no))

    def _sweep(self, spec, pass_no) -> bool:
        path = self.work_dir / f"{spec.experiment}-pass{pass_no}.csv"
        stamps = [time.perf_counter()]
        rows = bench.run_simulation(spec, progress=lambda i, n: stamps.append(time.perf_counter()))
        bench.write_csv(rows, path)
        end = time.perf_counter()
        self.cell_s.extend(np.diff(stamps).tolist())
        self.cells += len(stamps) - 1
        self.sweep_s += end - stamps[0]
        for row in rows:
            self.add_method_time(row.method, row.wall_time_s)
        data = path.read_bytes()
        if spec.experiment not in self.first_csv:
            self.first_csv[spec.experiment] = (spec, path, data)
            self.nmis.extend(r.nmi for r in rows)
        return data == self.first_csv[spec.experiment][2]

    def finish(self):
        for name, (spec, path, _) in self.first_csv.items():
            self.run_job(
                f"{name}/verify",
                lambda: bench.verify_csv_rows(spec, path, fraction=1.0) > 0,
            )

    def metrics(self):
        return {
            **super().metrics(),
            "cells_per_s": (self.cells / self.sweep_s, "1/s"),
            "cell_s_p50": (float(np.median(self.cell_s)), "s"),
            "nmi_mean": (float(np.mean(self.nmis)), "1"),
        }


# -- large-sbm ------------------------------------------------------------------
class LargeSbm(Workload):
    """One sparse SBM graph, n = 3000, file to labels per method."""

    name = "large-sbm"
    TIMED = ("osntf", "snmf", "reg-spectral")

    def _write_graph(self, n: int, path):
        params = blockmodels.sbm_snr_preset(n, K, 3.0, 20.0)
        g = blockmodels.sample_graph(params, seed=[self.seed, 1])
        g_lcc, index_map = graphs.largest_connected_component(g)
        io.save_edgelist(g_lcc, path)
        return params.z[list(index_map)]

    def set_up(self):
        warm = self.work_dir / "warm.edges"
        self._write_graph(150, warm)
        for method in self.TIMED:
            self._file_to_labels(warm, method)
        self.graph_path = self.work_dir / "large.edges"
        self.truth = self._write_graph(300 if self.smoke else 3000, self.graph_path)
        self.first_labels: dict[str, np.ndarray] = {}
        self.nmis: dict[str, float] = {}

    def _file_to_labels(self, path, method):
        g, _ = io.load_graph(path)
        out = bench.run_method(g, K, method, seed=[self.seed, 2])
        labels_path = path.with_suffix(f".{method}.labels")
        io.save_labels(out.labels, labels_path)
        return out.labels, labels_path

    def run_pass(self, pass_no):
        self.start_pass()
        for method in self.TIMED:
            self.run_job(f"{method}/pass{pass_no}", lambda: self._job(method))

    def _job(self, method) -> bool:
        start = time.perf_counter()
        labels, labels_path = self._file_to_labels(self.graph_path, method)
        self.add_method_time(method, time.perf_counter() - start)
        if method not in self.first_labels:
            self.first_labels[method] = labels
            self.nmis[method] = metrics.nmi(self.truth, labels)
        return np.array_equal(labels, self.first_labels[method]) and np.array_equal(
            io.load_labels(labels_path), labels
        )

    def metrics(self):
        return {
            **super().metrics(),
            "nmi_mean": (float(np.mean(list(self.nmis.values()))), "1"),
        }


# -- population-recovery --------------------------------------------------------
# Frozen copies of the Criterion 4 generators, so the benchmark's inputs
# cannot change when the tests' helpers do.
def _random_full_rank_sbm(rng, n, k=K, margin=1e-3) -> SbmParams:
    while True:
        z = rng.integers(0, k, size=n)
        z[:k] = np.arange(k)
        b = rng.uniform(0.05, 0.95, size=(k, k))
        b = 0.5 * (b + b.T)
        p = SbmParams(z=z, b=b)
        vals = np.sort(np.abs(np.linalg.eigvalsh(blockmodels.population_laplacian(p))))[::-1]
        if vals[k - 1] > margin:
            return p


def _random_full_rank_dcsbm(rng, n, k=K, margin=1e-3) -> DcsbmParams:
    while True:
        z = rng.integers(0, k, size=n)
        z[:k] = np.arange(k)
        b = rng.uniform(0.5, 3.0, size=(k, k))
        b = 0.5 * (b + b.T)
        theta = rng.uniform(0.5, 2.0, size=n)
        for q in range(k):
            theta[z == q] /= theta[z == q].sum()
        p = DcsbmParams(z=z, b_prime=b, theta=theta)
        vals = np.sort(np.abs(np.linalg.eigvalsh(blockmodels.population_laplacian(p))))[::-1]
        if vals[k - 1] > margin:
            return p


def _topk_by_magnitude(m, k):
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, np.argsort(-np.abs(vals))[:k]]


class PopulationRecovery(Workload):
    """Noiseless population Laplacians solved at Criterion 4's configuration."""

    name = "population-recovery"
    CFG = factorization.SolverConfig(max_iters=12000, rel_tol=0.0)

    def set_up(self):
        rng = np.random.default_rng(self.seed)
        sizes = (60,) if self.smoke else (60, 300)
        self.instances = []
        for n in sizes:
            for gen in (_random_full_rank_sbm, _random_full_rank_dcsbm):
                params = gen(rng, n)
                self.instances.append((params, blockmodels.population_laplacian(params)))
        # warm-up: a short solve of each kind on the smallest instance
        params, lap = self.instances[0]
        h0 = spectral.nmf_init_from_partition(params.z, K, offset=0.02)
        short = factorization.SolverConfig(max_iters=20, rel_tol=0.0)
        factorization.osntf(lap, K, h0, short)
        factorization.snmf(lap, K, h0, short)
        self.solve_s: list[float] = []
        self.osntf_solves = 0
        self.exact = 0
        self.nmis: list[float] = []

    def run_pass(self, pass_no):
        self.start_pass()
        self.solve_s.append(0.0)
        for i, (params, lap) in enumerate(self.instances):
            self.run_job(f"instance{i}/pass{pass_no}", lambda: self._job(i, params, lap))

    def _job(self, i, params, lap) -> bool:
        start = time.perf_counter()
        init = spectral.kmeans(_topk_by_magnitude(lap, K), K, seed=i)
        h0 = spectral.nmf_init_from_partition(init, K, offset=0.02)
        solved = {}
        for method in self.TIMED:
            begin = time.perf_counter()
            solved[method] = getattr(factorization, method)(lap, K, h0, self.CFG)
            self.add_method_time(method, time.perf_counter() - begin)
        self.solve_s[-1] += time.perf_counter() - start
        f, g = solved["osntf"], solved["snmf"]
        labels = factorization.assign_communities(f.h)
        rate, _ = metrics.misclustering_rate(params.z, labels)
        exact = rate == 0 and f.objective_trace[-1] / np.linalg.norm(lap) < 1e-6
        self.osntf_solves += 1
        self.exact += int(exact)
        # SNMF fits X ~ H H^T, which cannot equal an indefinite population
        # Laplacian, so only OSNTF's labels measure recovery here.
        self.nmis.append(metrics.nmi(params.z, labels))
        return exact and bool(np.isfinite(g.h).all() and (g.h >= 0).all())

    def metrics(self):
        return {
            **super().metrics(),
            "solve_s": (float(np.median(self.solve_s)), "s"),
            "exact_recovery_frac": (self.exact / self.osntf_solves, "1"),
            "nmi_mean": (float(np.mean(self.nmis)), "1"),
        }


WORKLOADS = {w.name: w for w in (Fig1Sweep, LargeSbm, PopulationRecovery)}
