"""SBM/DCSBM parameterizations, population matrices and graph sampling."""

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError, float_array, integer_array, is_integer, is_real, seeded_rng
from .graphs import Graph

__all__ = [
    "BlockModel",
    "SbmParams",
    "DcsbmParams",
    "population_adjacency",
    "population_laplacian",
    "sample_graph",
    "sbm_snr_preset",
    "dcsbm_powerlaw_preset",
]


@dataclass(frozen=True)
class BlockModel:
    """Memberships z and block rates C = ``rates``, with node weights
    t = ``weights``: population entry (i, j) is C[z_i, z_j] * (t_i * t_j),
    and the SBM is the DCSBM with every t_i = 1 (Karrer & Newman 2011).

    The constructor freezes the fields and checks that C is square,
    symmetric and nonnegative, that the labels are integers in [0, K) and
    that no block is empty; subclasses add their own checks.  Each raises
    InvalidInputError.
    """

    z: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # np.array copies, so the caller's array is never frozen
            a = np.array(integer_array(value, "membership labels") if f.name == "z" else float_array(value, f.name))
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)
        c, z, name = self.rates, self.z, type(self).__name__
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvalidInputError(f"{name} rates must be a square matrix, got shape {c.shape}")
        if not np.array_equal(c, c.T):
            raise InvalidInputError(f"{name} rates are not symmetric")
        if (c < 0).any():
            raise InvalidInputError(f"{name} rates must be nonnegative")
        if z.ndim != 1 or ((z < 0) | (z >= self.k)).any():
            raise InvalidInputError(f"membership labels must be a one-dimensional vector in [0, {self.k})")
        if (empty := np.flatnonzero(np.bincount(z, minlength=self.k) == 0)).size:
            raise InvalidInputError(f"community {int(empty[0])} has no node")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.rates.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The node weights t; all 1 unless a subclass says otherwise."""
        return np.ones(self.n)


@dataclass(frozen=True)
class SbmParams(BlockModel):
    """Stochastic block model: memberships z and K×K probability matrix b."""

    b: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if (self.b > 1).any():
            raise InvalidInputError("b entries must be probabilities in [0, 1]")

    @property
    def rates(self) -> np.ndarray:
        return self.b


@dataclass(frozen=True)
class DcsbmParams(BlockModel):
    """Degree-corrected block model: z, rate matrix b_prime, degree weights theta.

    Identifiability follows the convention that theta sums to 1 within
    each block, which the constructor enforces to 1e-8.
    """

    b_prime: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.theta.shape != self.z.shape:
            raise InvalidInputError("theta must have one entry per node")
        if not (self.theta > 0).all():
            raise InvalidInputError("theta entries must be strictly positive")
        sums = np.bincount(self.z, weights=self.theta, minlength=self.k)
        if not (np.abs(sums - 1.0) <= 1e-8).all():
            raise InvalidInputError(f"theta must sum to 1 within each block, not {sums.tolist()}")

    @property
    def rates(self) -> np.ndarray:
        return self.b_prime

    @property
    def weights(self) -> np.ndarray:
        return self.theta


def population_adjacency(p: BlockModel) -> np.ndarray:
    """Expected adjacency matrix C[z_i, z_j] * (t_i * t_j) of the model (see
    ``BlockModel``); exactly symmetric, rank <= K.

    DCSBM entries can exceed 1; ``sample_graph`` clips them and warns.
    """
    c, t = p.rates, p.weights
    return c[p.z[:, None], p.z[None, :]] * (t[:, None] * t[None, :])


def _block_degrees(p: BlockModel) -> np.ndarray:
    """deg = C @ (t summed over each block); node i's expected degree is t_i * deg[z_i]."""
    return p.rates @ np.bincount(p.z, weights=p.weights, minlength=p.k)


def population_laplacian(p: BlockModel) -> np.ndarray:
    """Population normalized Laplacian, by one closed form for both models:

        L_ij = C[z_i, z_j] / sqrt(deg_{z_i} * deg_{z_j}) * sqrt(t_i) * sqrt(t_j)

    with C, t and deg as in ``_block_degrees``.  This is the population
    adjacency normalized by the expected degrees t_i * deg_{z_i}, whatever
    theta sums to in each block.  The first node of zero expected degree
    raises InvalidInputError.
    """
    deg = _block_degrees(p)
    if (zero := np.flatnonzero(deg[p.z] <= 0)).size:
        raise InvalidInputError(f"node {int(zero[0])} has zero expected degree")
    inv, root_t = 1.0 / np.sqrt(deg), np.sqrt(p.weights)
    block = inv[:, None] * p.rates * inv[None, :]
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


def _sorted_blocks(z: np.ndarray, t: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block r < k, its t in ascending order and that order's prefix sums from 0."""
    sorted_t = [np.sort(t[z == r]) for r in range(k)]
    return [(tr, np.concatenate(([0.0], np.cumsum(tr)))) for tr in sorted_t]


def _clipped_entries(z: np.ndarray, t: np.ndarray, rates: np.ndarray) -> int:
    """How many of the n^2 entries rates[z_i, z_j] * (t_i * t_j) exceed 1, in O(n log n)."""
    count = 0
    for r, (tr, _) in enumerate(_sorted_blocks(z, t, rates.shape[0])):
        count += int((tr.size - _first_above(rates[z, r], t, tr)).sum())
    return count


def _clipped_mean_degree(z: np.ndarray, t: np.ndarray, rates: np.ndarray, blocks: list) -> float:
    """The mean over i of sum_j min(1, rates[z_i, z_j] * t_i * t_j), in O(n log n).

    Against block r, sorted by t (``blocks``, from ``_sorted_blocks``),
    node i's entries clip from one searchsorted position on; below it they
    sum to rate * t_i times a prefix sum of block r's t.
    """
    total = 0.0
    for r, (tr, below) in enumerate(blocks):
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
    rates, t = p.rates, p.weights
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

    rng = seeded_rng(seed)
    seg, idx = _skip_positions(rng, pairs, bound)
    a, b = a[seg], b[seg]
    i, j = np.divmod(idx, sizes[b])
    within = np.flatnonzero(a == b)
    i[within], j[within] = _unrank_pairs(idx[within])
    i, j = order[starts[a] + i], order[starts[b] + j]
    prob = np.minimum(1.0, rates[p.z[i], p.z[j]] * (t[i] * t[j]))
    keep = rng.random(i.size) < prob / bound[seg]
    return Graph.from_edges(p.n, np.column_stack((i[keep], j[keep])))


def _planted_partition(n, k, snr, target_avg_degree) -> tuple[np.ndarray, np.ndarray]:
    """After the presets' shared checks, balanced labels z (larger blocks
    first) and the K x K SNR pattern: 1 off the diagonal, snr on it."""
    if not (is_integer(n) and is_integer(k) and 1 <= k <= n):
        raise InvalidInputError(f"need integers 1 <= k <= n, got n={n!r}, k={k!r}")
    if not (is_real(snr) and snr >= 1):
        raise InvalidInputError(f"snr must be a finite number >= 1, got {snr!r}")
    if not (is_real(target_avg_degree) and target_avg_degree >= 0):
        raise InvalidInputError(f"target_avg_degree must be a finite number >= 0, got {target_avg_degree!r}")
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return np.repeat(np.arange(k), sizes), np.ones((k, k)) + (snr - 1.0) * np.eye(k)


def sbm_snr_preset(n: int, k: int, snr: float, target_avg_degree: float) -> SbmParams:
    """Planted-partition SBM hitting a population mean degree exactly.

    B has a constant diagonal snr times the constant off-diagonal; the
    scale solves sum(pop adjacency) / n == target_avg_degree, which is
    linear in the scale.
    """
    z, pattern = _planted_partition(n, k, snr, target_avg_degree)
    sizes = np.bincount(z, minlength=k).astype(np.float64)
    mass = float(sizes @ pattern @ sizes)
    p_off = target_avg_degree * n / mass
    if p_off * snr > 1.0:
        raise InvalidInputError(
            f"within-block probability {p_off * snr!r} exceeds 1 for "
            f"n={n}, k={k}, snr={snr}, target degree {target_avg_degree}"
        )
    return SbmParams(z=z, b=p_off * pattern)


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
    z, pattern = _planted_partition(n, k, snr, target_avg_degree)
    if not (is_real(beta) and beta > 2):
        raise InvalidInputError(f"beta must be a finite number above 2 for a finite-mean power law, got {beta!r}")
    if target_avg_degree >= n:
        raise InvalidInputError(
            f"target degree {target_avg_degree} unreachable with {n} nodes"
        )
    rng = seeded_rng(seed)
    theta = rng.pareto(beta - 1.0, size=n) + 1.0
    for q in range(k):
        mask = z == q
        theta[mask] = theta[mask] / theta[mask].sum()

    blocks = _sorted_blocks(z, theta, k)  # sorted once, read at every bisection step

    def clipped_mean(scale: float) -> float:
        return _clipped_mean_degree(z, theta, scale * pattern, blocks)

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

