"""Benchmark harness: method runner, simulation sweeps, CSV output, winners.

Everything is deterministic given the experiment base seed.  Replicate r
derives its seed as base_seed + r; sub-streams (degree weights, graph
sampling, k-means) come from numpy SeedSequence entropy tuples on top of
that seed, so sweeps parallelize without sharing generator state.
"""

import contextlib
import csv
import io as _io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .blockmodels import dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from .datasets import load_dataset
from .errors import BlockfactorError, InvalidInputError, is_integer, is_real
from .factorization import SolverConfig, assign_communities, osntf, snmf
from .graphs import Graph, largest_connected_component, normalized_laplacian
from .metrics import misclustered_count, misclustering_rate, nmi
from .spectral import VARIANTS, graph_eigenvectors, kmeans, nmf_init_from_partition, sym_eigs_topk, unit_rows

# Not called here, but bound in this module because perfbench/tracing.py
# wraps them where bench looks them up.
from .factorization import frobenius_residual  # noqa: F401
from .spectral import spectral_clustering  # noqa: F401

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

# the NMF methods, then the spectral ones; METHODS[:4] is the default list
METHODS = ("snmf", "osntf", *VARIANTS)

# Sub-stream tags appended to the replicate seed, so each random purpose
# draws from its own generator.
_STREAM_THETA = 0
_STREAM_GRAPH = 1
_STREAM_KMEANS = 2


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
    """The stages of the methods run on one graph, each done once.

    A stage is the normalized Laplacian L, the top-k eigensolve of one
    graph matrix, or the k-means partition of one embedding of it.  Each
    is kept with the seconds it took.  L is the one matrix kept: its
    eigensolve and both NMF targets use it, and as CSR it is O(m).
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

    def partition(self, matrix: str, unit: bool) -> tuple[np.ndarray, float]:
        """k-means labels of the top-k eigenvectors of ``matrix`` (rows scaled
        to unit length when ``unit``), and the seconds every stage took."""
        if matrix == "laplacian":
            lap, build_s = self.laplacian()
            vectors, eigs_s = self._stage((matrix,), lambda: sym_eigs_topk(lap, self.k).vectors)
            eigs_s += build_s
        else:
            vectors, eigs_s = self._stage((matrix,), lambda: graph_eigenvectors(self.g, self.k, matrix))
        labels, kmeans_s = self._stage(
            (matrix, unit),
            lambda: kmeans(unit_rows(vectors) if unit else vectors, self.k, seed=self.seed),
        )
        return labels, eigs_s + kmeans_s


def _check_methods(methods: Sequence[str]):
    for method in methods:
        if method not in METHODS:
            raise InvalidInputError(f"unknown method {method!r}; choose from {METHODS}")


def _run_one(stages: _SharedStages, method: str, cfg: SolverConfig):
    """One method on the shared graph: a spectral method's own partition,
    or an NMF method's factorization of L from the "reg-spectral" partition.

    The partition and L, computed here or reused, are charged at their
    recorded cost.
    """
    labels, shared_s = stages.partition(*VARIANTS.get(method, VARIANTS["reg-spectral"]))
    start = time.perf_counter()
    if method in VARIANTS:
        out = MethodOutput(labels=labels)
    else:
        k = stages.k
        x, build_s = stages.laplacian()
        shared_s += build_s
        h0 = nmf_init_from_partition(labels, k)
        f = snmf(x, k, h0, cfg) if method == "snmf" else osntf(x, k, h0, cfg)
        out = MethodOutput(
            labels=assign_communities(f.h),
            iterations=f.iterations,
            orthogonality_drift=f.orthogonality_drift,
            # the trace's last entry is frobenius_residual(x, f.h, f.s) for CSR x
            residual=float(f.objective_trace[-1]),
        )
    out.wall_time_s = shared_s + time.perf_counter() - start
    return out


def run_methods(
    g: Graph,
    k: int,
    methods: Sequence[str],
    seed,
    cfg: SolverConfig = SolverConfig(),
) -> list[MethodOutput]:
    """Run community-detection methods on one graph, one output per method.

    The NMF methods factorize the normalized Laplacian L, starting from
    the partition that "reg-spectral" outputs (tau the average degree);
    ``cfg`` bounds their solves.

    The methods share their spectral stages: each graph matrix's top-k
    eigensolve and each k-means partition is computed at most once, so
    "spectral-wp" and the NMF methods reuse the L_tau eigenvectors of
    "reg-spectral".  Every argument is checked before any of that work
    starts.
    """
    _check_methods(methods)
    if not (is_integer(k) and 1 <= k <= g.n):
        raise InvalidInputError(f"k must be an integer in [1, {g.n}] for this graph, got {k!r}")
    stages = _SharedStages(g, k, seed)
    return [_run_one(stages, method, cfg) for method in methods]


def run_method(g: Graph, k: int, method: str, seed, cfg: SolverConfig = SolverConfig()) -> MethodOutput:
    """Run one community-detection method on a graph, as ``run_methods`` does."""
    return run_methods(g, k, [method], seed, cfg)[0]


# The type check of each numeric ExperimentSpec field, or of each swept value.
_SPEC_FIELD_TYPES = {
    "k": is_integer,
    "replicates": is_integer,
    "base_seed": is_integer,
    "n": is_integer,
    "snr": is_real,
    "avg_degree": is_real,
    "beta": is_real,
}


@dataclass
class ExperimentSpec:
    """Declarative simulation sweep.

    Exactly one of avg_degree / n / beta is a list (named by ``sweep``);
    the others stay scalar.  The JSON file schema mirrors the field
    names, plus a ``spec_version`` integer (currently 1).  An inconsistent
    spec, or a field of the wrong type (see ``_SPEC_FIELD_TYPES``), raises
    InvalidInputError (a ValueError).
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
    spec_version: int = 1

    def __post_init__(self):
        if self.spec_version != 1:
            raise InvalidInputError(f"unsupported spec_version {self.spec_version}")
        if self.model not in ("sbm", "dcsbm"):
            raise InvalidInputError("model must be 'sbm' or 'dcsbm'")
        if self.sweep not in ("avg_degree", "n", "beta"):
            raise InvalidInputError("sweep must be one of avg_degree, n, beta")
        if self.model == "sbm" and self.sweep == "beta":
            raise InvalidInputError("beta sweeps require the dcsbm model")
        if self.model == "dcsbm" and self.beta is None:
            raise InvalidInputError("dcsbm experiments need beta")
        values = getattr(self, self.sweep)
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise InvalidInputError(f"swept field {self.sweep!r} must be a nonempty list")
        for name in ("avg_degree", "n", "beta"):
            if name != self.sweep and isinstance(getattr(self, name), (list, tuple)):
                raise InvalidInputError(f"only the swept field may be a list, {name!r} is too")
        for name, kind in _SPEC_FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and name == "beta":
                continue  # sbm specs leave it out
            for v in value if name == self.sweep else [value]:
                if not kind(v):
                    noun = "an integer" if kind is is_integer else "a number"
                    raise InvalidInputError(f"{name} must be {noun}, got {v!r}")
        if self.replicates < 1:
            raise InvalidInputError("replicates must be >= 1")
        _check_methods(self.methods)

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
        """Read a spec file; malformed JSON, unknown or missing keys and
        inconsistent values raise InvalidInputError."""
        try:
            return cls(**json.loads(Path(path).read_text()))
        except (json.JSONDecodeError, TypeError) as exc:
            raise InvalidInputError(f"invalid experiment spec {path}: {exc}") from exc


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


# every ResultRow field but wall_time_s, in field order
CSV_COLUMNS = [name for name in ResultRow.__dataclass_fields__ if name != "wall_time_s"]


def _cell_graph(spec: ExperimentSpec, sweep_value, seed: int) -> tuple[Graph, np.ndarray]:
    """One cell's sampled graph restricted to its largest component, with planted labels."""
    params = spec.params_for(sweep_value, seed)
    g = sample_graph(params, seed=[seed, _STREAM_GRAPH])
    g_lcc, nodes = largest_connected_component(g)
    return g_lcc, params.z[nodes]


def _simulate_cell(spec: ExperimentSpec, sweep_value, rep: int) -> list[ResultRow]:
    """All methods on one sampled graph, sharing its spectral stages."""
    seed = spec.base_seed + rep
    g_lcc, truth = _cell_graph(spec, sweep_value, seed)
    outputs = run_methods(g_lcc, spec.k, spec.methods, seed=[seed, _STREAM_KMEANS])
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
    ``progress(done, total)``, when given, is called as each cell's rows
    arrive, in cell order.
    """
    cells = [(spec, sv, rep) for sv in spec.sweep_values for rep in range(spec.replicates)]
    chunks = []
    if workers > 1:  # imported only here: the pool module takes about 15 ms to load
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        # both maps yield in argument order
        for chunk in (map if pool is None else pool.map)(_simulate_cell, *zip(*cells)):
            chunks.append(chunk)
            if progress is not None:
                progress(len(chunks), len(cells))
    method_order = {m: i for i, m in enumerate(spec.methods)}
    rows = [row for chunk in chunks for row in chunk]
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
    if isinstance(value, float):  # numpy floats too, whose repr names their type
        return repr(float(value))
    return str(value)


def rows_to_csv_text(rows: Sequence[ResultRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        cells = [_fmt(getattr(r, name)) for name in CSV_COLUMNS[:-1]]
        writer.writerow(cells + ["".join(map(str, r.labels.tolist()))])
    return buf.getvalue()


def write_csv(rows: Sequence[ResultRow], path) -> None:
    Path(path).write_text(rows_to_csv_text(rows), newline="")


def _located_rows(path) -> list[tuple[str, dict]]:
    """("<path>, line <n>", row) per row of a CSV whose header names every CSV_COLUMNS entry."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in CSV_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise BlockfactorError(f"{path}: CSV header lacks column(s) {', '.join(missing)}")
        return [(f"{path}, line {reader.line_num}", rec) for rec in reader]


def read_csv(path) -> list[dict]:
    return [rec for _, rec in _located_rows(path)]


def _field(rec: dict, name: str, convert, where: str):
    """convert(rec[name]), or BlockfactorError naming ``where`` (file and line)."""
    try:
        return convert(rec[name])
    except (TypeError, ValueError, OverflowError):
        raise BlockfactorError(f"{where}: cannot read {name} {rec[name]!r}") from None


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ValueError(text)
    return value


def verify_csv_rows(spec: ExperimentSpec, path, fraction: float = 0.05) -> int:
    """Recompute metrics from persisted labels for a deterministic sample of rows.

    Returns the number of rows re-verified; raises BlockfactorError on
    any mismatch.
    """
    records = _located_rows(path)
    step = max(1, int(round(1.0 / max(fraction, 1e-9))))
    to_sweep_value = (lambda v: int(float(v))) if spec.sweep == "n" else float
    checked = 0
    for idx in range(0, len(records), step):
        where, rec = records[idx]
        seed = _field(rec, "seed", int, where)
        sweep_value = _field(rec, "sweep_value", to_sweep_value, where)
        _, truth = _cell_graph(spec, sweep_value, seed)
        labels = np.array(_field(rec, "labels", lambda v: [int(c) for c in v], where))
        rate, _ = misclustering_rate(truth, labels)
        value = nmi(truth, labels)
        stored_nmi, stored_rate = (_field(rec, name, float, where) for name in ("nmi", "misclustering_rate"))
        if not (abs(value - stored_nmi) <= 1e-12 and abs(rate - stored_rate) <= 1e-12):  # NaN fails too
            raise BlockfactorError(
                f"{where}: stored metrics do not match recomputation "
                f"(nmi {rec['nmi']} vs {value!r}, rate {rec['misclustering_rate']} vs {rate!r})"
            )
        checked += 1
    return checked


def summarize(rows: Sequence[ResultRow]) -> str:
    """Aligned mean-NMI (and mean wall time) table, one line per sweep/method."""
    groups: dict[tuple, list[ResultRow]] = {}  # in first-seen order
    for r in rows:
        groups.setdefault((r.sweep_value, r.method), []).append(r)
    lines = [
        f"{'sweep_value':>12s}  {'method':<14s} {'mean_nmi':>9s} {'mean_rate':>10s} "
        f"{'reps':>5s} {'mean_time_s':>12s}"
    ]
    for key, grp in groups.items():
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
    methods: Sequence[str] = METHODS[:4],
    seed=0,
    k: int = 2,
    nmi_variant: str = "sum",
) -> list[dict]:
    """Per-method misclustered count and NMI on a benchmark dataset."""
    g, truth = load_dataset(dataset)
    out = []
    for method, res in zip(methods, run_methods(g, k, methods, seed=seed)):
        out.append(
            {
                "dataset": dataset,
                "method": method,
                "n": g.n,
                "misclustered": misclustered_count(truth, res.labels),
                "nmi": nmi(truth, res.labels, variant=nmi_variant),
                "iterations": res.iterations,
                "labels": res.labels,
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
    best NMI in a (sweep value, replicate) cell; ties award every method.
    An nmi outside [0, 1], NaN included, raises BlockfactorError."""
    cells: dict[tuple, list[tuple[str, float]]] = {}
    methods_seen: set[str] = set()
    for path in csv_paths:
        for where, rec in _located_rows(path):
            value = _field(rec, "nmi", _unit_interval, where)
            cells.setdefault((rec["experiment"], rec["sweep_value"], rec["seed"]), []).append((rec["method"], value))
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
