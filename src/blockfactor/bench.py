"""Benchmark harness: method runner, simulation sweeps, CSV output, results report.

Everything is deterministic given the experiment base seed.  Replicate r
derives its seed as base_seed + r; sub-streams (degree weights, graph
sampling, k-means) come from numpy SeedSequence entropy tuples on top of
that seed, so sweeps parallelize without sharing generator state.
"""

import contextlib
import csv
import importlib
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
from .graphs import Graph, largest_connected_component
from .metrics import MAX_EXACT_LABELS, misclustering_rate, nmi
from .spectral import VARIANTS, SharedStages, nmf_init_from_partition

# Not called here, but bound in this module because perfbench/tracing.py
# wraps them where bench looks them up.
from .factorization import frobenius_residual  # noqa: F401
from .graphs import normalized_laplacian  # noqa: F401
from .spectral import kmeans, spectral_clustering, sym_eigs_topk  # noqa: F401

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
    "verify_csv_rows",
    "realdata_table",
    "report",
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


def _check_methods(methods: Sequence[str]):
    for method in methods:
        if method not in METHODS:
            raise InvalidInputError(f"unknown method {method!r}; choose from {METHODS}")
    if not methods or len(set(methods)) < len(methods):
        raise InvalidInputError(f"methods must be a nonempty list without repeats, got {list(methods)}")


def _run_one(stages: SharedStages, method: str, cfg: SolverConfig):
    """One method on the shared graph: a spectral method's own partition,
    or an NMF method's factorization of L from the "reg-spectral" partition.

    The partition and L, computed here or reused, are charged at their
    recorded cost.
    """
    labels, shared_s = stages.partition(method if method in VARIANTS else "reg-spectral")
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
    stages = SharedStages(g, k, seed)
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
                    noun = "an integer" if kind is is_integer else "a finite number"
                    raise InvalidInputError(f"{name} must be {noun}, got {v!r}")
        if self.k > MAX_EXACT_LABELS:  # else misclustering_rate raises only after a cell's whole run
            raise InvalidInputError(f"k must be at most {MAX_EXACT_LABELS}, the exact misclustering search's bound, got {self.k}")
        if len(set(values)) < len(values):  # [10, 10.0] would sample one graph twice
            raise InvalidInputError(f"swept field {self.sweep!r} repeats a value: {values!r}")
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

    wall_time_s is the method's charged time (``MethodOutput``); it is
    never serialized to CSV, which must be byte-identical across reruns
    of the same spec.
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


def _rows(experiment, sweep, sweep_value, seed, truth, methods, outputs) -> list[ResultRow]:
    """One ResultRow per method, scoring ``run_methods`` outputs against the planted labels."""
    rows = []
    for method, out in zip(methods, outputs):
        rate, _ = misclustering_rate(truth, out.labels)
        rows.append(
            ResultRow(
                experiment=experiment,
                sweep=sweep,
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


def _simulate_cell(spec: ExperimentSpec, sweep_value, rep: int) -> list[ResultRow]:
    """All methods on one sampled graph, sharing its spectral stages."""
    seed = spec.base_seed + rep
    g_lcc, truth = _cell_graph(spec, sweep_value, seed)
    outputs = run_methods(g_lcc, spec.k, spec.methods, seed=[seed, _STREAM_KMEANS])
    return _rows(spec.experiment, spec.sweep, sweep_value, seed, truth, spec.methods, outputs)


def run_simulation(spec: ExperimentSpec, workers: int = 1, progress=None) -> list[ResultRow]:
    """Every (sweep value, method, replicate) row, in deterministic order.

    Cells run in a process pool when workers > 1; results merge in
    (sweep, method, replicate) order regardless of completion order.
    ``progress(done, total)``, when given, is called as each cell's rows
    arrive, in cell order.  ``workers`` must be a positive integer.
    """
    if not (is_integer(workers) and workers >= 1):
        raise InvalidInputError(f"workers must be a positive integer, got {workers!r}")
    cells = [(spec, sv, rep) for sv in spec.sweep_values for rep in range(spec.replicates)]
    chunks = []
    if workers > 1:  # imported only here: the pool module takes about 15 ms to load
        from concurrent.futures import ProcessPoolExecutor
        for module in ("scipy.sparse.csgraph", "scipy.sparse.linalg"):  # every cell's, loaded before the fork
            importlib.import_module(module)  # so that no worker imports it on its first cell
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
    """The CSV text of ``rows``, one digit per label; a label outside 0-9 raises InvalidInputError."""
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        labels = r.labels.tolist()
        if not all(0 <= label <= 9 for label in labels):
            raise InvalidInputError(f"{r.experiment} {r.method} seed {r.seed}: CSV labels must be 0-9, got {labels}")
        cells = [_fmt(getattr(r, name)) for name in CSV_COLUMNS[:-1]]
        writer.writerow(cells + ["".join(map(str, labels))])
    return buf.getvalue()


def write_csv(rows: Sequence[ResultRow], path) -> None:
    Path(path).write_text(rows_to_csv_text(rows), newline="")


def _located_rows(source) -> list[tuple[str, dict]]:
    """("<name>, line <n>", row) per row of a CSV whose header names every
    CSV_COLUMNS entry.  ``source`` is a CSV path, or a list of ResultRows,
    read as the CSV that ``write_csv`` writes for them and named "rows"."""
    if isinstance(source, list):
        name, fh = "rows", _io.StringIO(rows_to_csv_text(source))
    else:
        name, fh = source, open(source, newline="")
    with fh:
        reader = csv.DictReader(fh)
        missing = [column for column in CSV_COLUMNS if column not in (reader.fieldnames or ())]
        if missing:
            raise BlockfactorError(f"{name}: CSV header lacks column(s) {', '.join(missing)}")
        return [(f"{name}, line {reader.line_num}", rec) for rec in reader]


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

    ``fraction``, a number in (0, 1], re-verifies every round(1 / fraction)-th
    row.  Returns the number of rows re-verified; raises BlockfactorError on
    any mismatch.
    """
    if not (is_real(fraction) and 0 < fraction <= 1):
        raise InvalidInputError(f"fraction must be a number in (0, 1], got {fraction!r}")
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


def realdata_table(dataset: str, methods: Sequence[str] = METHODS[:4], seed: int = 0) -> list[ResultRow]:
    """One row per method on a benchmark dataset, k its number of classes.

    The rows are simulate's: experiment is the dataset, the sweep is "n"
    at the node count, and nmi is ``nmi``'s default normalization.
    """
    g, truth = load_dataset(dataset)
    outputs = run_methods(g, np.unique(truth).size, methods, seed=seed)
    return _rows(dataset, "n", g.n, seed, truth, methods, outputs)


def _mean_sd(values: list, spec: str) -> str:
    """The mean, then " ± " and the sample sd when there are two or more values."""
    text = format(float(np.mean(values)), spec)
    return text if len(values) < 2 else f"{text} ± {float(np.std(values, ddof=1)):.4f}"


def report(csv_paths: Sequence) -> str:
    """Markdown results of simulate CSVs: one table per experiment, in
    first-seen order, with one row per (sweep value, method).  An entry
    of ``csv_paths`` may also be a list of ResultRows, read as their CSV.

    A row gives the replicate count, the NMI mean ± sample sd, the mean
    misclustering rate, and the wins: the (sweep value, seed) cells where
    the method has the best NMI, ties awarding every tied method.  For
    snmf and osntf it also gives the mean ± sd of NMI(method) -
    NMI(reg-spectral) over the cells that hold both.  Under each table,
    one line gives each method's total wins out of the experiment's cells.

    An nmi or misclustering_rate outside [0, 1], NaN included, or a row
    whose (experiment, sweep_value, seed, method) an earlier row of any of
    the files already had, raises BlockfactorError naming file and line.
    """
    experiments: dict[str, tuple] = {}  # experiment -> (sweep, {(sweep_value, method): {seed: (nmi, rate)}})
    seen: dict[tuple, str] = {}  # (experiment, sweep_value, seed, method) -> where
    for path in csv_paths:
        for where, rec in _located_rows(path):
            scores = tuple(_field(rec, name, _unit_interval, where) for name in ("nmi", "misclustering_rate"))
            key = tuple(rec[name] for name in ("experiment", "sweep_value", "seed", "method"))
            if key in seen:
                raise BlockfactorError(f"{where}: (experiment, sweep_value, seed, method) {key} already read at {seen[key]}")
            seen[key] = where
            _, groups = experiments.setdefault(key[0], (rec["sweep"], {}))
            groups.setdefault((key[1], key[3]), {})[key[2]] = scores
    blocks = []
    for experiment, (sweep, groups) in experiments.items():
        best: dict[tuple, float] = {}  # (sweep_value, seed) -> the cell's best nmi
        for (sweep_value, _), runs in groups.items():
            for seed, (value, _) in runs.items():
                best[sweep_value, seed] = max(value, best.get((sweep_value, seed), 0.0))
        lines = [
            f"### {experiment}",
            "",
            f"| {sweep} | method | reps | NMI mean ± sd | misclustering rate | wins | NMI gain over reg-spectral |",
            "|---:|---|---:|---:|---:|---:|---:|",
        ]
        wins: dict[str, int] = {}
        for (sweep_value, method), runs in groups.items():
            won = sum(value == best[sweep_value, seed] for seed, (value, _) in runs.items())
            wins[method] = wins.get(method, 0) + won
            seeded = groups.get((sweep_value, "reg-spectral"), {}) if method in ("snmf", "osntf") else {}
            gains = [value - seeded[seed][0] for seed, (value, _) in runs.items() if seed in seeded]
            lines.append(
                f"| {sweep_value} | {method} | {len(runs)} | {_mean_sd([v for v, _ in runs.values()], '.4f')} "
                f"| {np.mean([r for _, r in runs.values()]):.4f} | {won} | {_mean_sd(gains, '+.4f') if gains else ''} |"
            )
        lines += ["", f"Wins out of {len(best)} cells: " + ", ".join(f"{m} {w}" for m, w in wins.items()) + "."]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
