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


def _rates(p: BlockModel) -> tuple[np.ndarray, np.ndarray]:
    """Block rates C and node weights t with population entries C[z_i, z_j] * (t_i * t_j).

    The SBM is the DCSBM with every t_i = 1.
    """
    if isinstance(p, SbmParams):
        return p.b, np.ones(p.n)
    return p.b_prime, p.theta


def population_adjacency(p: BlockModel, check_probabilities: bool = False) -> np.ndarray:
    """Expected adjacency matrix C[z_i, z_j] * (t_i * t_j) of the model (see
    ``_rates``); exactly symmetric, rank <= K.

    DCSBM entries can exceed 1; pass check_probabilities=True to reject
    such parameterizations when probability semantics are required.
    """
    c, t = _rates(p)
    pop = c[p.z[:, None], p.z[None, :]] * (t[:, None] * t[None, :])
    if check_probabilities and pop.max() > 1.0:
        i, j = np.unravel_index(int(np.argmax(pop)), pop.shape)
        raise DcsbmEntryOutOfRangeError(
            f"population entry ({i}, {j}) = {pop[i, j]!r} exceeds 1"
        )
    return pop


def expected_degrees(p: BlockModel) -> np.ndarray:
    return population_adjacency(p).sum(axis=1)


def population_laplacian(p: BlockModel) -> np.ndarray:
    """Population normalized Laplacian, by one closed form for both models:

        L_ij = C[z_i, z_j] / sqrt(deg_{z_i} * deg_{z_j}) * sqrt(t_i) * sqrt(t_j),
        deg = C @ bincount(z, weights=t)

    with C and t from ``_rates``.  Node i's expected degree is t_i * deg_{z_i},
    so this is the population adjacency normalized by the expected degrees,
    whatever theta sums to in each block.  The first node of zero expected
    degree raises ZeroExpectedDegreeError.
    """
    c, t = _rates(p)
    deg = c @ np.bincount(p.z, weights=t, minlength=p.k)
    if (zero := np.flatnonzero(deg[p.z] <= 0)).size:
        raise ZeroExpectedDegreeError(int(zero[0]))
    inv, root_t = 1.0 / np.sqrt(deg), np.sqrt(t)
    block = inv[:, None] * c * inv[None, :]
    return block[p.z[:, None], p.z[None, :]] * (root_t[:, None] * root_t[None, :])


def _first_above(c: np.ndarray, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
    """Per i, the first index into ascending ``tj`` with c_i * (ti_i * tj) > 1.

    searchsorted finds it from the rounded threshold 1 / (c_i * ti_i); the
    steps after it move to the boundary of the product as
    ``population_adjacency`` rounds it, which is monotone in tj.
    """
    with np.errstate(divide="ignore"):
        cut = np.searchsorted(tj, 1.0 / (c * ti), side="right")
    last = tj.size - 1

    def above(at):
        return (at >= 0) & (at <= last) & (c * (ti * tj[np.clip(at, 0, last)]) > 1.0)

    while (back := above(cut - 1)).any():
        cut -= back
    while (on := (cut <= last) & ~above(cut)).any():
        cut += on
    return cut


def _clipped_entries(z: np.ndarray, t: np.ndarray, rates: np.ndarray) -> int:
    """How many of the n^2 entries rates[z_i, z_j] * (t_i * t_j) exceed 1, in O(n log n)."""
    count = 0
    for r in range(rates.shape[0]):
        tr = np.sort(t[z == r])
        count += int((tr.size - _first_above(rates[z, r], t, tr)).sum())
    return count


def _clipped_mean_degree(z: np.ndarray, t: np.ndarray, rates: np.ndarray) -> float:
    """The mean over i of sum_j min(1, rates[z_i, z_j] * t_i * t_j), in O(n log n).

    Against block r, sorted by t, node i's entries clip from one
    searchsorted position on; below it they sum to rate * t_i times a
    prefix sum of block r's t.
    """
    total = 0.0
    for r in range(rates.shape[0]):
        tr = np.sort(t[z == r])
        below = np.concatenate(([0.0], np.cumsum(tr)))
        rate = rates[z, r] * t
        with np.errstate(divide="ignore"):
            cut = np.searchsorted(tr, 1.0 / rate, side="right")
        total += float((tr.size - cut).sum() + (rate * below[cut]).sum())
    return total / z.size


def _skip_positions(rng, sizes: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent Bernoulli(probs[s]) trials on range(sizes[s]) for every
    segment s, as the (segment, index) pairs of the successes.

    Geometric skipping: the gaps between successive successes are iid
    Geometric(p), so each round draws a few more gaps per unfinished segment
    than its expected remaining count and sums them within the segment.
    A gap is capped at sizes[s] + 1, which leaves the range either way.
    """
    segs, hits = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    last = np.full(sizes.size, -1, dtype=np.int64)
    todo = np.flatnonzero((sizes > 0) & (probs > 0))
    while todo.size:
        mean = (sizes[todo] - 1 - last[todo]) * probs[todo]
        draws = np.ceil(mean + 4.0 * np.sqrt(mean) + 4.0).astype(np.int64)
        seg = np.repeat(todo, draws)
        gaps = np.minimum(rng.geometric(probs[seg]), sizes[seg] + 1)
        total = np.cumsum(gaps)
        ends = np.cumsum(draws)
        before = np.repeat(np.concatenate(([0], total[ends[:-1] - 1])), draws)
        at = last[seg] + total - before
        inside = at < sizes[seg]
        segs.append(seg[inside])
        hits.append(at[inside])
        last[todo] = at[ends - 1]
        todo = todo[last[todo] < sizes[todo] - 1]
    return np.concatenate(segs), np.concatenate(hits)


def _unrank_pairs(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j numbered idx in the order (0, 1), (0, 2), (1, 2), (0, 3), ...

    j comes from the square root.  From about idx = 2^50 on, the float root
    can round up across a triangular number, never down; one exact integer
    step down fixes it.
    """
    j = ((1.0 + np.sqrt(1.0 + 8.0 * idx)) // 2).astype(np.int64)
    j -= j * (j - 1) // 2 > idx
    return idx - j * (j - 1) // 2, j


def sample_graph(p: BlockModel, seed) -> Graph:
    """One independent Bernoulli(p_ij) draw per node pair i < j, with
    p_ij = min(1, C[z_i, z_j] * (t_i * t_j)); t is 1 under the SBM and
    theta under the DCSBM.  Deterministic given the seed.

    Expected O(n + m) time and memory for m edges (Batagelj & Brandes,
    Phys. Rev. E 2005; Miller & Hagberg, WAW 2011).  Nodes are grouped by
    block and by the binary exponent of t, so t varies by less than 2x
    within a group.  Each pair of groups has the upper bound
    min(1, C * (t_max * t_max')) on its p_ij, and geometric skipping
    selects each of its pairs with that probability; a selected pair is
    then kept with probability p_ij / bound, at least 1/4.

    DCSBM entries above 1 are clipped to 1; a warning reports the
    fraction of the n^2 population entries that were.
    """
    rates, t = _rates(p)
    clipped = _clipped_entries(p.z, t, rates)
    if clipped:
        warnings.warn(
            f"clipped {clipped / p.n**2:.4%} of population entries above 1 before sampling",
            stacklevel=2,
        )
    # nodes sorted by block, then binary exponent of t, then index
    exponent = np.frexp(t)[1]
    order = np.lexsort((exponent, p.z))
    zs, es = p.z[order], exponent[order]
    starts = np.flatnonzero(np.r_[True, (zs[1:] != zs[:-1]) | (es[1:] != es[:-1])])
    sizes = np.diff(starts, append=p.n)
    block = zs[starts]
    top = np.maximum.reduceat(t[order], starts)
    a, b = np.triu_indices(starts.size)
    pairs = np.where(a == b, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
    bound = np.minimum(1.0, rates[block[a], block[b]] * (top[a] * top[b]))

    rng = np.random.default_rng(seed)
    seg, idx = _skip_positions(rng, pairs, bound)
    a, b = a[seg], b[seg]
    i, j = np.divmod(idx, sizes[b])
    within = np.flatnonzero(a == b)
    i[within], j[within] = _unrank_pairs(idx[within])
    i, j = order[starts[a] + i], order[starts[b] + j]
    prob = np.minimum(1.0, rates[p.z[i], p.z[j]] * (t[i] * t[j]))
    keep = rng.random(i.size) < prob / bound[seg]
    return Graph.from_edges(p.n, np.column_stack((i[keep], j[keep])))


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
    clipping.  Each bisection step costs O(n log n), not O(n^2): against
    one block sorted by theta, a node's entries clip from one searchsorted
    position on, and a prefix sum of theta gives the unclipped rest.
    Deterministic given the seed.
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

    def clipped_mean(scale: float) -> float:
        return _clipped_mean_degree(z, theta, scale * pattern)

    hi = target_avg_degree * n / float(pattern.sum())  # exact when nothing clips
    while clipped_mean(hi) < target_avg_degree:
        hi *= 2.0
    # clipped_mean(lo) < target <= clipped_mean(hi) throughout, so once mid
    # rounds to lo or hi every further step would reassign the same value
    lo = 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
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
