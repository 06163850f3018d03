"""Shared generators for the population-recovery and block-diagonal oracles,
and a runner for code that must start in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from blockfactor.bench import CSV_COLUMNS
from blockfactor.blockmodels import DcsbmParams, SbmParams, population_laplacian
from blockfactor.graphs import Graph

SRC = Path(__file__).resolve().parent.parent / "src"

# simulate CSVs that bench.report cannot read, each with the text its
# BlockfactorError must hold besides the file's path
_HEADER = ",".join(CSV_COLUMNS)
MALFORMED_CSVS = {
    "experiment and method only": ("experiment,method\ne,a\n", "lacks column(s) sweep, sweep_value, seed, nmi,"),
    "no nmi column": (_HEADER.replace("nmi,", "") + "\ne,avg_degree,10,a,0,0.1,5,,,01\n", "lacks column(s) nmi"),
    "blank nmi": (_HEADER + "\ne,avg_degree,10,a,0,0.9,0.1,5,,,01\ne,avg_degree,10,b,0,,0.1,5,,,01\n",
                  "line 3: cannot read nmi ''"),
    # an nmi outside [0, 1] would win, or leave its cell without a winner
    **{
        f"{kind} nmi": (_HEADER + f"\ne,avg_degree,10,a,0,0.9,0.1,5,,,01\ne,avg_degree,10,b,0,{value},0.1,5,,,01\n",
                        f"line 3: cannot read nmi '{value}'")
        for kind, value in [("NaN", "nan"), ("infinite", "inf"), ("negative", "-0.1"), ("above 1", "1.5")]
    },
    # a mean misclustering rate is read the same way
    **{
        f"{kind} misclustering rate": (_HEADER + f"\ne,avg_degree,10,a,0,0.9,0.1,5,,,01\ne,avg_degree,10,b,0,0.8,{value},5,,,01\n",
                                       f"line 3: cannot read misclustering_rate '{value}'")
        for kind, value in [("NaN", "nan"), ("negative", "-0.1"), ("above 1", "1.5")]
    },
    # a cell's method read twice would win it twice
    "repeated row": (_HEADER + "\ne,avg_degree,10,a,0,0.9,0.1,5,,,01\ne,avg_degree,10,b,0,0.8,0.1,5,,,01"
                     "\ne,avg_degree,10,a,0,0.7,0.1,5,,,01\n",
                     "line 4: (experiment, sweep_value, seed, method) ('e', '10', '0', 'a') already read at "),
}


def fresh_interpreter(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter with the checkout's ``src``
    first on PYTHONPATH and ``env`` added to the environment."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300)


def fresh_output(code: str, **env: str) -> str:
    """The stripped stdout of ``python -c code`` in a fresh interpreter,
    which must exit 0."""
    out = fresh_interpreter(["-c", code], **env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def topk_by_magnitude(m: np.ndarray, k: int) -> np.ndarray:
    """Eigenvectors of the k largest-|eigenvalue| pairs (robust init for
    population matrices whose block eigenvalues may be negative)."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-np.abs(vals))[:k]
    return vecs[:, order]


def random_full_rank_sbm(rng, n=60, k=3, margin=1e-3) -> SbmParams:
    """Random SBM whose population Laplacian has K clearly nonzero eigenvalues."""
    while True:
        z = rng.integers(0, k, size=n)
        z[:k] = np.arange(k)
        b = rng.uniform(0.05, 0.95, size=(k, k))
        b = 0.5 * (b + b.T)
        p = SbmParams(z=z, b=b)
        vals = np.sort(np.abs(np.linalg.eigvalsh(population_laplacian(p))))[::-1]
        if vals[k - 1] > margin:
            return p


def random_full_rank_dcsbm(rng, n=60, k=3, margin=1e-3) -> DcsbmParams:
    while True:
        z = rng.integers(0, k, size=n)
        z[:k] = np.arange(k)
        b = rng.uniform(0.5, 3.0, size=(k, k))
        b = 0.5 * (b + b.T)
        theta = rng.uniform(0.5, 2.0, size=n)
        for q in range(k):
            theta[z == q] /= theta[z == q].sum()
        p = DcsbmParams(z=z, b_prime=b, theta=theta)
        vals = np.sort(np.abs(np.linalg.eigvalsh(population_laplacian(p))))[::-1]
        if vals[k - 1] > margin:
            return p


def random_connected_component(rng, size: int) -> list[tuple[int, int]]:
    """Edges of a connected graph on 0..size-1: spanning tree plus extras."""
    edges = set()
    for v in range(1, size):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, size))
    for _ in range(extra):
        u, v = rng.choice(size, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def disjoint_components_graph(rng, sizes) -> tuple[Graph, np.ndarray]:
    """Graph assembled from disjoint connected components, plus membership."""
    edges = []
    labels = []
    offset = 0
    for comp, size in enumerate(sizes):
        edges += [(u + offset, v + offset) for u, v in random_connected_component(rng, size)]
        labels += [comp] * size
        offset += size
    return Graph.from_edges(offset, edges), np.array(labels)
