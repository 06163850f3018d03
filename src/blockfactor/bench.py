"""Benchmark harness: method runner, simulation sweeps, CSV output, winners.

Everything is deterministic given the experiment base seed.  Replicate r
derives its seed as base_seed + r; sub-streams (degree weights, graph
sampling, k-means) come from numpy SeedSequence entropy tuples on top of
that seed, so sweeps parallelize without sharing generator state.
"""

import csv
import io as _io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from .datasets import load_dataset
from .errors import BlockfactorError, InvalidInputError
from .factorization import SolverConfig, assign_communities, frobenius_residual, osntf, snmf
from .graphs import Graph, largest_connected_component, normalized_laplacian
from .metrics import misclustering_rate, nmi
from .spectral import graph_eigenvectors, kmeans, nmf_init_from_partition, unit_rows

# Not called here, but bound in this module because perfbench/tracing.py
# wraps them where bench looks them up.
from .spectral import spectral_clustering, sym_eigs_topk  # noqa: F401

__all__ = [
    "METHODS",
    "MethodOutput",
    "run_method",
    "run_methods",
    "ExperimentSpec",
    "ResultRow",
    "run_simulation",
    "write_csv",
    "read_csv",
    "summarize",
    "verify_csv_rows",
    "realdata_table",
    "winner_counts",
    "format_winner_table",
]

METHODS = ("snmf", "osntf", "spectral", "reg-spectral", "spectral-wp")

# Sub-stream tags appended to the replicate seed, so each random purpose
# draws from its own generator.
_STREAM_THETA = 0
_STREAM_GRAPH = 1
_STREAM_KMEANS = 2


# The partition each spectral method clusters: (graph matrix, rows scaled
# to unit length before k-means).  "reg-spectral" also seeds the NMF methods.
_SPECTRAL = {
    "spectral": ("laplacian", False),
    "reg-spectral": ("regularized", True),
    "spectral-wp": ("regularized", False),
}


@dataclass
class MethodOutput:
    """Labels plus solver diagnostics (empty for the spectral baselines).

    ``wall_time_s`` is the method's standalone cost: its own time plus the
    recorded time of every shared spectral stage it used, whether it
    computed the stage or another method on the same graph did.  So it
    does not depend on which methods run alongside it, or in what order.
    """

    labels: np.ndarray
    iterations: int = 0
    orthogonality_drift: Optional[float] = None
    residual: Optional[float] = None
    wall_time_s: float = 0.0


class _SharedStages:
    """The spectral stages of the methods run on one graph, each done once.

    A stage is the top-k eigensolve of one graph matrix or the k-means
    partition of one embedding of it.  Only their n x k vectors and labels
    are kept, with the seconds each took; no n x n matrix is.
    """

    def __init__(self, g: Graph, k: int, seed, tau: Optional[float], restarts: int):
        self.g = g
        self.k = k
        self.seed = seed
        self.tau = tau
        self.restarts = restarts
        self._done: dict[tuple, tuple[np.ndarray, float]] = {}

    def _stage(self, key: tuple, compute) -> tuple[np.ndarray, float]:
        if key not in self._done:
            start = time.perf_counter()
            value = compute()
            self._done[key] = (value, time.perf_counter() - start)
        return self._done[key]

    def partition(self, matrix: str, unit: bool) -> tuple[np.ndarray, float]:
        """k-means labels of the top-k eigenvectors of ``matrix`` (rows scaled
        to unit length when ``unit``), and the seconds both stages took."""
        vectors, eigs_s = self._stage(
            (matrix,), lambda: graph_eigenvectors(self.g, self.k, matrix, tau=self.tau)
        )
        labels, kmeans_s = self._stage(
            (matrix, unit),
            lambda: kmeans(
                unit_rows(vectors) if unit else vectors,
                self.k, seed=self.seed, restarts=self.restarts,
            ),
        )
        return labels, eigs_s + kmeans_s


def _check_method_options(g: Graph, k: int, methods: Sequence[str], matrix: str, init: str):
    for method in methods:
        if method not in METHODS:
            raise InvalidInputError(f"unknown method {method!r}; choose from {METHODS}")
    if matrix not in ("laplacian", "adjacency"):
        raise InvalidInputError(f"matrix must be 'laplacian' or 'adjacency', got {matrix!r}")
    if init not in ("reg-spectral", "spectral"):
        raise InvalidInputError(f"init must be 'reg-spectral' or 'spectral', got {init!r}")
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= g.n):
        raise InvalidInputError(f"k must be an integer in [1, {g.n}] for this graph, got {k!r}")


def _run_one(stages: _SharedStages, method: str, matrix: str, cfg: SolverConfig, init: str):
    """One method on the shared graph; its dense target is freed on return.

    The partition, computed here or reused, is charged at its recorded cost.
    """
    if method in _SPECTRAL:
        embedding = _SPECTRAL[method]
    elif init == "reg-spectral":
        embedding = _SPECTRAL["reg-spectral"]
    else:
        embedding = (matrix, False)  # the target's own top-k eigenvectors
    labels, partition_s = stages.partition(*embedding)
    start = time.perf_counter()
    if method in _SPECTRAL:
        out = MethodOutput(labels=labels)
    else:
        # the target is built after the seeding partition, so it never
        # coexists with the eigensolve's own dense matrix
        g, k = stages.g, stages.k
        x = normalized_laplacian(g) if matrix == "laplacian" else np.array(g.adjacency)
        h0 = nmf_init_from_partition(labels, k, offset=cfg.init_offset)
        f = snmf(x, k, h0, cfg) if method == "snmf" else osntf(x, k, h0, cfg)
        out = MethodOutput(
            labels=assign_communities(f.h),
            iterations=f.iterations,
            orthogonality_drift=f.orthogonality_drift,
            residual=frobenius_residual(x, f.h, f.s),
        )
    out.wall_time_s = partition_s + time.perf_counter() - start
    return out


def run_methods(
    g: Graph,
    k: int,
    methods: Sequence[str],
    seed,
    matrix: str = "laplacian",
    cfg: SolverConfig = SolverConfig(),
    init: str = "reg-spectral",
    tau: Optional[float] = None,
    restarts: int = 20,
) -> list[MethodOutput]:
    """Run community-detection methods on one graph, one output per method.

    ``matrix`` selects the factorization target for the NMF methods
    (the spectral baselines are defined on the Laplacian regardless);
    ``init`` picks the seeding partition for the NMF methods, either
    "spectral" (on the same matrix being factorized) or "reg-spectral".

    The methods share their spectral stages: each graph matrix's top-k
    eigensolve and each k-means partition is computed at most once, so
    "spectral-wp" reuses the L_tau eigenvectors of "reg-spectral", and the
    NMF methods start from the partition that "reg-spectral" (or, for
    ``init="spectral"`` on the Laplacian, "spectral") outputs.  Every
    argument is checked before any of that work starts.
    """
    _check_method_options(g, k, methods, matrix, init)
    stages = _SharedStages(g, k, seed, tau, restarts)
    return [_run_one(stages, method, matrix, cfg, init) for method in methods]


def run_method(
    g: Graph,
    k: int,
    method: str,
    seed,
    matrix: str = "laplacian",
    cfg: SolverConfig = SolverConfig(),
    init: str = "reg-spectral",
    tau: Optional[float] = None,
    restarts: int = 20,
) -> MethodOutput:
    """Run one community-detection method on a graph (see ``run_methods``)."""
    return run_methods(g, k, [method], seed, matrix, cfg, init, tau, restarts)[0]


@dataclass
class ExperimentSpec:
    """Declarative simulation sweep.

    Exactly one of avg_degree / n / beta is a list (named by ``sweep``);
    the others stay scalar.  The JSON file schema mirrors the field
    names, plus a ``spec_version`` integer (currently 1).
    """

    experiment: str
    model: str
    n: object
    k: int
    snr: float
    avg_degree: object
    sweep: str
    methods: list[str] = field(default_factory=lambda: list(METHODS[:4]))
    beta: object = None
    replicates: int = 32
    base_seed: int = 0
    matrix: str = "laplacian"
    spec_version: int = 1

    def __post_init__(self):
        if self.spec_version != 1:
            raise ValueError(f"unsupported spec_version {self.spec_version}")
        if self.model not in ("sbm", "dcsbm"):
            raise ValueError("model must be 'sbm' or 'dcsbm'")
        if self.sweep not in ("avg_degree", "n", "beta"):
            raise ValueError("sweep must be one of avg_degree, n, beta")
        if self.model == "sbm" and self.sweep == "beta":
            raise ValueError("beta sweeps require the dcsbm model")
        if self.model == "dcsbm" and self.beta is None:
            raise ValueError("dcsbm experiments need beta")
        values = getattr(self, self.sweep)
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ValueError(f"swept field {self.sweep!r} must be a nonempty list")
        for name in ("avg_degree", "n", "beta"):
            if name != self.sweep and isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"only the swept field may be a list, {name!r} is too")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.matrix not in ("laplacian", "adjacency"):
            raise ValueError("matrix must be 'laplacian' or 'adjacency'")

    @property
    def sweep_values(self) -> list:
        return list(getattr(self, self.sweep))

    def params_for(self, sweep_value, seed):
        """Block-model parameters for one sweep point of one replicate."""
        n = sweep_value if self.sweep == "n" else self.n
        deg = sweep_value if self.sweep == "avg_degree" else self.avg_degree
        if self.model == "sbm":
            return sbm_snr_preset(int(n), self.k, self.snr, float(deg))
        beta = sweep_value if self.sweep == "beta" else self.beta
        return dcsbm_powerlaw_preset(
            int(n), self.k, self.snr, float(deg), float(beta),
            seed=[seed, _STREAM_THETA],
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        doc = json.loads(Path(path).read_text())
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ValueError(f"invalid experiment spec {path}: {exc}") from exc

    def to_json(self, path) -> None:
        doc = {k: v for k, v in self.__dict__.items() if v is not None}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass
class ResultRow:
    """One (sweep value, method, replicate) outcome.

    wall_time_s is reported in summaries but never serialized to CSV,
    which must be byte-identical across reruns of the same spec.
    """

    experiment: str
    sweep: str
    sweep_value: object
    method: str
    seed: int
    nmi: float
    misclustering_rate: float
    iterations: int
    orthogonality_drift: Optional[float]
    residual: Optional[float]
    labels: np.ndarray
    wall_time_s: float = 0.0


CSV_COLUMNS = [
    "experiment",
    "sweep",
    "sweep_value",
    "method",
    "seed",
    "nmi",
    "misclustering_rate",
    "iterations",
    "orthogonality_drift",
    "residual",
    "labels",
]


def _cell_graph(spec: ExperimentSpec, sweep_value, seed: int) -> tuple[Graph, np.ndarray]:
    """One cell's sampled graph restricted to its largest component, with planted labels."""
    params = spec.params_for(sweep_value, seed)
    g = sample_graph(params, seed=[seed, _STREAM_GRAPH])
    g_lcc, index_map = largest_connected_component(g)
    return g_lcc, params.z[list(index_map)]


def _simulate_cell(spec: ExperimentSpec, sweep_value, rep: int) -> list[ResultRow]:
    """All methods on one sampled graph, sharing its spectral stages."""
    seed = spec.base_seed + rep
    g_lcc, truth = _cell_graph(spec, sweep_value, seed)
    outputs = run_methods(
        g_lcc, spec.k, spec.methods, seed=[seed, _STREAM_KMEANS], matrix=spec.matrix
    )
    rows = []
    for method, out in zip(spec.methods, outputs):
        rate, _ = misclustering_rate(truth, out.labels)
        rows.append(
            ResultRow(
                experiment=spec.experiment,
                sweep=spec.sweep,
                sweep_value=sweep_value,
                method=method,
                seed=seed,
                nmi=nmi(truth, out.labels),
                misclustering_rate=rate,
                iterations=out.iterations,
                orthogonality_drift=out.orthogonality_drift,
                residual=out.residual,
                labels=out.labels,
                wall_time_s=out.wall_time_s,
            )
        )
    return rows


def run_simulation(spec: ExperimentSpec, workers: int = 1, progress=None) -> list[ResultRow]:
    """Every (sweep value, method, replicate) row, in deterministic order.

    Cells run in a process pool when workers > 1; results merge in
    (sweep, method, replicate) order regardless of completion order.
    """
    cells = [(sv, rep) for sv in spec.sweep_values for rep in range(spec.replicates)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_simulate_cell, *zip(*[(spec, sv, rep) for sv, rep in cells])))
    else:
        chunks = []
        for i, (sv, rep) in enumerate(cells):
            chunks.append(_simulate_cell(spec, sv, rep))
            if progress is not None:
                progress(i + 1, len(cells))
    by_cell = {cell: chunk for cell, chunk in zip(cells, chunks)}
    method_order = {m: i for i, m in enumerate(spec.methods)}
    rows = [row for cell in cells for row in by_cell[cell]]
    rows.sort(
        key=lambda r: (
            spec.sweep_values.index(r.sweep_value),
            method_order[r.method],
            r.seed,
        )
    )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows: Sequence[ResultRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.experiment,
                r.sweep,
                _fmt(r.sweep_value),
                r.method,
                r.seed,
                _fmt(float(r.nmi)),
                _fmt(float(r.misclustering_rate)),
                r.iterations,
                _fmt(r.orthogonality_drift),
                _fmt(r.residual),
                "".join(str(int(v)) for v in r.labels),
            ]
        )
    return buf.getvalue()


def write_csv(rows: Sequence[ResultRow], path) -> None:
    Path(path).write_text(rows_to_csv_text(rows), newline="")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verify_csv_rows(spec: ExperimentSpec, path, fraction: float = 0.05) -> int:
    """Recompute metrics from persisted labels for a deterministic sample of rows.

    Returns the number of rows re-verified; raises BlockfactorError on
    any mismatch.
    """
    records = read_csv(path)
    step = max(1, int(round(1.0 / max(fraction, 1e-9))))
    checked = 0
    for idx in range(0, len(records), step):
        rec = records[idx]
        seed = int(rec["seed"])
        sweep_value = type(spec.sweep_values[0])(float(rec["sweep_value"]))
        _, truth = _cell_graph(spec, sweep_value, seed)
        labels = np.array([int(c) for c in rec["labels"]])
        rate, _ = misclustering_rate(truth, labels)
        value = nmi(truth, labels)
        if abs(value - float(rec["nmi"])) > 1e-12 or abs(rate - float(rec["misclustering_rate"])) > 1e-12:
            raise BlockfactorError(
                f"row {idx}: stored metrics do not match recomputation "
                f"(nmi {rec['nmi']} vs {value!r}, rate {rec['misclustering_rate']} vs {rate!r})"
            )
        checked += 1
    return checked


def summarize(rows: Sequence[ResultRow]) -> str:
    """Aligned mean-NMI (and mean wall time) table, one line per sweep/method."""
    keys = []
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        key = (r.sweep_value, r.method)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(r)
    lines = [
        f"{'sweep_value':>12s}  {'method':<14s} {'mean_nmi':>9s} {'mean_rate':>10s} "
        f"{'reps':>5s} {'mean_time_s':>12s}"
    ]
    for key in keys:
        grp = groups[key]
        mean_nmi = float(np.mean([g.nmi for g in grp]))
        mean_rate = float(np.mean([g.misclustering_rate for g in grp]))
        mean_t = float(np.mean([g.wall_time_s for g in grp]))
        lines.append(
            f"{str(key[0]):>12s}  {key[1]:<14s} {mean_nmi:9.4f} {mean_rate:10.4f} "
            f"{len(grp):5d} {mean_t:12.4f}"
        )
    return "\n".join(lines)


def realdata_table(
    dataset: str,
    methods: Sequence[str] = ("snmf", "osntf", "spectral", "reg-spectral"),
    seed=0,
    k: int = 2,
    tau: Optional[float] = None,
    nmi_variant: str = "sum",
    cfg: SolverConfig = SolverConfig(),
) -> list[dict]:
    """Per-method misclustered count and NMI on a benchmark dataset."""
    g, truth = load_dataset(dataset)
    out = []
    for method, res in zip(methods, run_methods(g, k, methods, seed=seed, tau=tau, cfg=cfg)):
        rate, _ = misclustering_rate(truth, res.labels)
        out.append(
            {
                "dataset": dataset,
                "method": method,
                "n": g.n,
                "misclustered": round(rate * g.n),
                "nmi": nmi(truth, res.labels, variant=nmi_variant),
                "iterations": res.iterations,
                "wall_time_s": res.wall_time_s,
                "labels": res.labels,
                "graph": g,
            }
        )
    return out


def format_realdata_table(rows: list[dict]) -> str:
    lines = [f"{'method':<14s} {'misclustered':>12s} {'nmi':>8s} {'iters':>6s}"]
    for r in rows:
        lines.append(
            f"{r['method']:<14s} {r['misclustered']:>12d} {r['nmi']:>8.4f} {r['iterations']:>6d}"
        )
    return "\n".join(lines)


def winner_counts(csv_paths: Sequence) -> dict:
    """Count, per experiment and method, how often the method attains the
    best NMI in a (sweep value, replicate) cell; ties award every method."""
    cells: dict[tuple, list[tuple[str, float]]] = {}
    methods_seen: set[str] = set()
    for path in csv_paths:
        for rec in read_csv(path):
            if not rec.get("experiment"):
                raise BlockfactorError(f"{path}: malformed CSV (missing experiment column)")
            cell = (rec["experiment"], rec["sweep_value"], rec["seed"])
            cells.setdefault(cell, []).append((rec["method"], float(rec["nmi"])))
            methods_seen.add(rec["method"])
    counts: dict[tuple[str, str], int] = {}
    totals: dict[str, int] = {}
    for (exp, _, _), entries in cells.items():
        best = max(v for _, v in entries)
        totals[exp] = totals.get(exp, 0) + 1
        for method, value in entries:
            if value == best:
                counts[(exp, method)] = counts.get((exp, method), 0) + 1
    return {"counts": counts, "cells": totals, "methods": sorted(methods_seen)}


def format_winner_table(result: dict) -> str:
    counts, totals = result["counts"], result["cells"]
    methods = result.get("methods") or sorted({m for _, m in counts})
    header = f"{'experiment':<20s}" + "".join(f"{m:>14s}" for m in methods) + f"{'cells':>8s}"
    lines = [header]
    for exp in sorted(totals):
        row = f"{exp:<20s}" + "".join(
            f"{counts.get((exp, m), 0):>14d}" for m in methods
        )
        lines.append(row + f"{totals[exp]:>8d}")
    return "\n".join(lines)
