"""SBM/DCSBM parameterizations, population matrices and graph sampling."""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    DcsbmEntryOutOfRangeError,
    InfeasibleDegreeError,
    ZeroExpectedDegreeError,
)
from .graphs import Graph

__all__ = [
    "SbmParams",
    "DcsbmParams",
    "block_sizes",
    "membership_matrix",
    "population_adjacency",
    "population_laplacian",
    "expected_degrees",
    "sample_graph",
    "sbm_snr_preset",
    "sbm_four_parameter",
    "dcsbm_powerlaw_preset",
    "save_params",
    "load_params",
]


def _frozen_array(values, dtype=None) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _check_membership(z: np.ndarray, k: int):
    if z.ndim != 1:
        raise ValueError("membership vector must be one-dimensional")
    if z.min() < 0 or z.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    counts = np.bincount(z, minlength=k)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"community {empty} has no node")


@dataclass(frozen=True)
class SbmParams:
    """Stochastic block model: memberships z and K×K probability matrix b."""

    z: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        z = _frozen_array(self.z, dtype=np.int64)
        b = _frozen_array(self.b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("b must be square")
        if not np.array_equal(b, b.T):
            raise ValueError("b must be symmetric")
        if b.min() < 0 or b.max() > 1:
            raise ValueError("b entries must be probabilities in [0, 1]")
        _check_membership(z, b.shape[0])
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class DcsbmParams:
    """Degree-corrected block model: z, rate matrix b_prime, degree weights theta.

    Identifiability follows the convention that theta sums to 1 within
    each block, which the constructor enforces to 1e-8.
    """

    z: np.ndarray
    b_prime: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        z = _frozen_array(self.z, dtype=np.int64)
        b = _frozen_array(self.b_prime, dtype=np.float64)
        theta = _frozen_array(self.theta, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("b_prime must be square")
        if not np.array_equal(b, b.T):
            raise ValueError("b_prime must be symmetric")
        if b.min() < 0:
            raise ValueError("b_prime entries must be nonnegative")
        _check_membership(z, b.shape[0])
        if theta.shape != z.shape:
            raise ValueError("theta must have one entry per node")
        if theta.min() <= 0:
            raise ValueError("theta entries must be strictly positive")
        for q in range(b.shape[0]):
            s = theta[z == q].sum()
            if abs(s - 1.0) > 1e-8:
                raise ValueError(
                    f"theta must sum to 1 within each block; block {q} sums to {s!r}"
                )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b_prime", b)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.b_prime.shape[0]


BlockModel = Union[SbmParams, DcsbmParams]


def block_sizes(p: BlockModel) -> np.ndarray:
    return np.bincount(p.z, minlength=p.k)


def membership_matrix(p: BlockModel) -> np.ndarray:
    """N×K 0/1 indicator matrix with one 1 per row."""
    m = np.zeros((p.n, p.k))
    m[np.arange(p.n), p.z] = 1.0
    return m


def population_adjacency(p: BlockModel, check_probabilities: bool = False) -> np.ndarray:
    """Expected adjacency matrix of the model (exactly symmetric, rank <= K).

    DCSBM entries can exceed 1; pass check_probabilities=True to reject
    such parameterizations when probability semantics are required.
    """
    if isinstance(p, SbmParams):
        return p.b[p.z[:, None], p.z[None, :]]
    pop = p.b_prime[p.z[:, None], p.z[None, :]]
    pop = pop * (p.theta[:, None] * p.theta[None, :])
    if check_probabilities and pop.max() > 1.0:
        i, j = np.unravel_index(int(np.argmax(pop)), pop.shape)
        raise DcsbmEntryOutOfRangeError(
            f"population entry ({i}, {j}) = {pop[i, j]!r} exceeds 1"
        )
    return pop


def expected_degrees(p: BlockModel) -> np.ndarray:
    return population_adjacency(p).sum(axis=1)


def population_laplacian(p: BlockModel) -> np.ndarray:
    """Population normalized Laplacian via the block closed form.

    Equals direct normalization of the population adjacency by the
    expected degrees; the identity is exercised in the tests.
    """
    if isinstance(p, SbmParams):
        counts = block_sizes(p).astype(np.float64)
        d_b = p.b @ counts
        if (d_b <= 0).any():
            q = int(np.flatnonzero(d_b <= 0)[0])
            node = int(np.flatnonzero(p.z == q)[0])
            raise ZeroExpectedDegreeError(node)
        inv = 1.0 / np.sqrt(d_b)
        b_l = inv[:, None] * p.b * inv[None, :]
        return b_l[p.z[:, None], p.z[None, :]]
    row = p.b_prime.sum(axis=1)
    if (row <= 0).any():
        q = int(np.flatnonzero(row <= 0)[0])
        node = int(np.flatnonzero(p.z == q)[0])
        raise ZeroExpectedDegreeError(node)
    inv = 1.0 / np.sqrt(row)
    b_l = inv[:, None] * p.b_prime * inv[None, :]
    sqrt_theta = np.sqrt(p.theta)
    return b_l[p.z[:, None], p.z[None, :]] * (sqrt_theta[:, None] * sqrt_theta[None, :])


def sample_graph(p: BlockModel, seed) -> Graph:
    """One Bernoulli draw per node pair, deterministic given the seed.

    DCSBM entries above 1 are clipped to 1 before sampling; a warning
    reports the clipped fraction.
    """
    probs = population_adjacency(p)
    over = probs > 1.0
    if over.any():
        frac = over.sum() / over.size
        warnings.warn(
            f"clipped {frac:.4%} of population entries above 1 before sampling",
            stacklevel=2,
        )
        probs = np.minimum(probs, 1.0)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(p.n, k=1)
    hit = rng.random(iu.shape[0]) < probs[iu, ju]
    return Graph.from_edges(p.n, np.column_stack((iu[hit], ju[hit])))


def _balanced_labels(n: int, k: int) -> np.ndarray:
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return np.repeat(np.arange(k), sizes)


def sbm_snr_preset(n: int, k: int, snr: float, target_avg_degree: float) -> SbmParams:
    """Planted-partition SBM hitting a population mean degree exactly.

    B has a constant diagonal snr times the constant off-diagonal; the
    scale solves sum(pop adjacency) / n == target_avg_degree, which is
    linear in the scale.
    """
    if snr < 1:
        raise ValueError("snr must be >= 1 (diagonal at least off-diagonal)")
    z = _balanced_labels(n, k)
    sizes = np.bincount(z, minlength=k).astype(np.float64)
    pattern = np.ones((k, k)) + (snr - 1.0) * np.eye(k)
    mass = float(sizes @ pattern @ sizes)
    p_off = target_avg_degree * n / mass
    if p_off * snr > 1.0:
        raise InfeasibleDegreeError(
            f"within-block probability {p_off * snr!r} exceeds 1 for "
            f"n={n}, k={k}, snr={snr}, target degree {target_avg_degree}"
        )
    return SbmParams(z=z, b=p_off * pattern)


def sbm_four_parameter(k: int, s: int, a: float, b: float) -> SbmParams:
    """K blocks of size s, probability a within and b between blocks."""
    z = np.repeat(np.arange(k), s)
    mat = np.full((k, k), float(b)) + (float(a) - float(b)) * np.eye(k)
    return SbmParams(z=z, b=mat)


def dcsbm_powerlaw_preset(
    n: int,
    k: int,
    snr: float,
    target_avg_degree: float,
    beta: float,
    seed,
) -> DcsbmParams:
    """DCSBM with power-law degree weights, density p(x) ~ x^(-beta), x >= 1.

    beta is the density exponent (finite mean needs beta > 2; smaller
    beta means heavier tails and stronger degree heterogeneity).  Raw
    draws renormalize to sum 1 within each block.  The rate matrix is
    the SNR pattern scaled so that the population mean degree AFTER
    clipping entries at probability 1 equals the target exactly (the
    clipped mean is monotone in the scale, so a bisection solves it);
    heavy tails would otherwise lose a large fraction of the target to
    clipping.  Deterministic given the seed.
    """
    if beta <= 2:
        raise ValueError("beta must exceed 2 for a finite-mean power law")
    if snr < 1:
        raise ValueError("snr must be >= 1")
    if target_avg_degree >= n:
        raise InfeasibleDegreeError(
            f"target degree {target_avg_degree} unreachable with {n} nodes"
        )
    z = _balanced_labels(n, k)
    rng = np.random.default_rng(seed)
    theta = rng.pareto(beta - 1.0, size=n) + 1.0
    for q in range(k):
        mask = z == q
        theta[mask] = theta[mask] / theta[mask].sum()
    pattern = np.ones((k, k)) + (snr - 1.0) * np.eye(k)
    outer = (theta[:, None] * theta[None, :]) * pattern[z[:, None], z[None, :]]

    def clipped_mean(scale: float) -> float:
        return float(np.minimum(scale * outer, 1.0).sum()) / n

    hi = target_avg_degree * n / float(pattern.sum())  # exact when nothing clips
    while clipped_mean(hi) < target_avg_degree:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if clipped_mean(mid) < target_avg_degree:
            lo = mid
        else:
            hi = mid
    return DcsbmParams(z=z, b_prime=hi * pattern, theta=theta)


def save_params(p: BlockModel, path) -> None:
    """Write model parameters as JSON."""
    if isinstance(p, SbmParams):
        doc = {"model": "sbm", "z": p.z.tolist(), "b": p.b.tolist()}
    else:
        doc = {
            "model": "dcsbm",
            "z": p.z.tolist(),
            "b_prime": p.b_prime.tolist(),
            "theta": p.theta.tolist(),
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_params(path) -> BlockModel:
    doc = json.loads(Path(path).read_text())
    if doc["model"] == "sbm":
        return SbmParams(z=np.array(doc["z"]), b=np.array(doc["b"]))
    if doc["model"] == "dcsbm":
        return DcsbmParams(
            z=np.array(doc["z"]),
            b_prime=np.array(doc["b_prime"]),
            theta=np.array(doc["theta"]),
        )
    raise ValueError(f"unknown model {doc['model']!r}")
