"""In-memory span tracer that wraps blockfactor's public functions.

Each function is wrapped in the module namespace where its callers look
it up (``bench`` binds ``sym_eigs_topk``, ``kmeans``, ``osntf`` ... into
its own globals; ``spectral_clustering`` resolves them in
``blockfactor.spectral``), so no file under ``src/`` changes.  A span is
``(name, start, end, parent, job)``; spans stay in memory until the
benchmark writes them out at exit.  A span's self time is its duration
minus the durations of its direct children, which never overlap because
every workload is serial.

Work the tracer does for its own counters (hashing inputs, reading
objective traces) runs inside ``trace.*`` spans, so it is subtracted from
the caller's self time and shows only in ``trace.overhead_s``.
"""

import hashlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from blockfactor import bench, factorization, graphs, io, metrics, spectral

# Per-layer metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "spectral.eigs_s": ("spectral.eigs",),
    "spectral.kmeans_s": ("spectral.kmeans",),
    "spectral.regularized_laplacian_s": ("spectral.regularized_laplacian",),
    "graphs.laplacian_s": ("graphs.laplacian",),
    "graphs.lcc_s": ("graphs.lcc",),
    "graphs.build_s": ("graphs.build",),
    "blockmodels.params_s": ("blockmodels.params",),
    "blockmodels.sample_s": ("blockmodels.sample",),
    "io.load_s": ("io.load",),
    "io.save_labels_s": ("io.save_labels",),
    "factorization.osntf_s": ("factorization.osntf",),
    "factorization.snmf_s": ("factorization.snmf",),
    "factorization.residual_s": ("factorization.residual",),
    "metrics.s": ("metrics",),
    "bench.overhead_s": ("bench.simulation", "bench.cell", "bench.run_method"),
    "bench.csv_s": ("bench.csv",),
}

# Per-layer metric -> span name whose calls it counts.
CALL_METRICS = {
    "spectral.eigs_calls": "spectral.eigs",
    "spectral.kmeans_calls": "spectral.kmeans",
    "metrics.calls": "metrics",
}

# Metric name -> unit, for every per-layer metric the tracer reports.
UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "count" for name in CALL_METRICS},
    "spectral.eigs_useful_ratio": "1",
    "spectral.kmeans_useful_ratio": "1",
    "graphs.edges_built": "count",
    "io.bytes_read": "B",
    "factorization.sweeps": "count",
    "factorization.sweep_us": "us",
    "factorization.x_bytes_per_sweep": "B_computed",
    "factorization.sweeps_to_1e-6": "count",
    "blockmodels.clipped_cells": "count",
    "numpy.runtime_warnings": "count",
    "bench.csv_bytes": "B",
    "trace.overhead_s": "s",
}


def storage_bytes(x) -> int:
    """Bytes held by a dense array, or by the data/index arrays of a CSR one
    (the solvers' planned sparse input)."""
    if hasattr(x, "indptr"):
        return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
    return int(np.asarray(x).nbytes)


def _digest(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, hashlib.blake2b(a.data, digest_size=16).digest()


def sweeps_to(trace: np.ndarray, rel: float = 1e-6) -> int:
    """First sweep whose relative objective change falls below ``rel``
    (the default stopping rule); the sweep count when none does."""
    trace = np.asarray(trace, dtype=np.float64)
    prev, cur = trace[:-1], trace[1:]
    change = np.abs(prev - cur) / np.where(prev > 0, prev, 1.0)
    hit = np.flatnonzero(change < rel)
    return int(hit[0]) + 1 if hit.size else len(cur)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.job = None
        self.counters: Counter = Counter()
        self.digests: dict[str, set] = defaultdict(set)
        self.solves: list[tuple[int, int, int]] = []  # (sweeps, sweeps_to_1e-6, x bytes)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _hook(self, fn, *args) -> None:
        idx = self.open("trace.hook")
        try:
            fn(self, *args)
        finally:
            self.close(idx)

    # -- installing wrappers ----------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args, kwargs)`` and ``after(tracer, args, kwargs,
        result)`` feed counters; both run in ``trace.hook`` spans.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        for owner, attr, name, before, after in _WRAPS:
            self.wrap(owner, attr, name, before, after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Layer metrics over everything recorded (the benchmark traces one pass)."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {
            metric: sum(selfs.get(n, 0.0) for n in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
        for kind in ("eigs", "kmeans"):
            n_calls = calls[f"spectral.{kind}"]
            out[f"spectral.{kind}_useful_ratio"] = (
                len(self.digests[kind]) / n_calls if n_calls else 1.0
            )
        sweeps = sum(s for s, _, _ in self.solves)
        solver_s = selfs.get("factorization.osntf", 0.0) + selfs.get("factorization.snmf", 0.0)
        out["graphs.edges_built"] = self.counters["edges_built"]
        out["io.bytes_read"] = self.counters["bytes_read"]
        out["bench.csv_bytes"] = self.counters["csv_bytes"]
        out["factorization.sweeps"] = sweeps
        out["factorization.sweep_us"] = 1e6 * solver_s / sweeps if sweeps else 0.0
        out["factorization.x_bytes_per_sweep"] = (
            sum(s * b for s, _, b in self.solves) / sweeps if sweeps else 0.0
        )
        out["factorization.sweeps_to_1e-6"] = (
            float(np.mean([t for _, t, _ in self.solves])) if self.solves else 0.0
        )
        return out

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": [
                [name, start - self.origin, end - self.origin, parent, job]
                for name, start, end, parent, job in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- counter hooks ------------------------------------------------------------
def _digest_first_arg(kind):
    def hook(tracer, args, kwargs):
        tracer.digests[kind].add(_digest(args[0]))
    return hook


def _count_edges(tracer, args, kwargs, g):
    tracer.counters["edges_built"] += g.num_edges


def _count_bytes_read(tracer, args, kwargs, result):
    tracer.counters["bytes_read"] += os.path.getsize(args[0])


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counters["csv_bytes"] += os.path.getsize(args[1])


def _record_solve(tracer, args, kwargs, f):
    x = args[0] if args else kwargs["x"]
    tracer.solves.append((f.iterations, sweeps_to(f.objective_trace), storage_bytes(x)))


def _solver_wraps(owner):
    return [
        (owner, "osntf", "factorization.osntf", None, _record_solve),
        (owner, "snmf", "factorization.snmf", None, _record_solve),
    ]


def _spectral_wraps(owner):
    return [
        (owner, "sym_eigs_topk", "spectral.eigs", _digest_first_arg("eigs"), None),
        (owner, "kmeans", "spectral.kmeans", _digest_first_arg("kmeans"), None),
        (owner, "normalized_laplacian", "graphs.laplacian", None, None),
    ]


# (module or class, attribute, span name, before hook, after hook)
_WRAPS = [
    # bench looks these up in its own globals
    (bench, "run_simulation", "bench.simulation", None, None),
    (bench, "_simulate_cell", "bench.cell", None, None),
    (bench, "run_method", "bench.run_method", None, None),
    (bench, "write_csv", "bench.csv", None, _count_csv_bytes),
    (bench, "sbm_snr_preset", "blockmodels.params", None, None),
    (bench, "dcsbm_powerlaw_preset", "blockmodels.params", None, None),
    (bench, "sample_graph", "blockmodels.sample", None, None),
    (bench, "largest_connected_component", "graphs.lcc", None, None),
    (bench, "spectral_clustering", "spectral.clustering", None, None),
    (bench, "nmf_init_from_partition", "spectral.nmf_init", None, None),
    (bench, "frobenius_residual", "factorization.residual", None, None),
    (bench, "assign_communities", "factorization.assign", None, None),
    (bench, "misclustering_rate", "metrics", None, None),
    (bench, "nmi", "metrics", None, None),
    *_spectral_wraps(bench),
    *_solver_wraps(bench),
    # spectral_clustering resolves its helpers in blockfactor.spectral
    *_spectral_wraps(spectral),
    (spectral, "regularized_laplacian", "spectral.regularized_laplacian", None, None),
    (spectral, "nmf_init_from_partition", "spectral.nmf_init", None, None),
    # the workloads call these through their modules
    *_solver_wraps(factorization),
    (factorization, "assign_communities", "factorization.assign", None, None),
    (metrics, "misclustering_rate", "metrics", None, None),
    (metrics, "nmi", "metrics", None, None),
    (io, "load_graph", "io.load", None, _count_bytes_read),
    (io, "save_labels", "io.save_labels", None, None),
    (io, "symmetrize_directed", "graphs.build", None, _count_edges),
    # every sampled graph and every component is built here
    (graphs.Graph, "from_edges", "graphs.build", None, _count_edges),
]
