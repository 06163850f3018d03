"""Partition agreement metrics: NMI and permutation-minimized misclustering."""

import itertools

import numpy as np

from .errors import InvalidInputError, integer_array

__all__ = [
    "NMI_VARIANTS",
    "confusion_table",
    "nmi",
    "misclustering_rate",
    "misclustered_count",
    "misclustered_nodes",
]

MAX_EXACT_LABELS = 8
NMI_VARIANTS = ("sum", "sqrt", "max", "min")


def _as_labels(a) -> np.ndarray:
    a = integer_array(a, "labels")
    if a.ndim != 1 or (a.size and a.min() < 0):
        raise InvalidInputError("a partition must be a one-dimensional vector of nonnegative labels")
    return a


def confusion_table(a, b) -> np.ndarray:
    """Count matrix with entry (i, j) = #nodes labeled i in a and j in b.

    Every metric here starts from it, so it is where empty partitions
    raise InvalidInputError.
    """
    a, b = _as_labels(a), _as_labels(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"partition lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise InvalidInputError("partitions must be nonempty")
    na, nb = int(a.max()) + 1, int(b.max()) + 1
    return np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)


def nmi(a, b, variant: str = "sum") -> float:
    """Normalized mutual information between two partitions, in [0, 1].

    The default, "sum", normalizes by the mean entropy, 2 I(a;b) / (H(a) +
    H(b)), with natural logarithms and 0 log 0 = 0.  The other
    ``NMI_VARIANTS``, for matching published numbers, are "sqrt"
    (geometric mean), "max" and "min".  When both partitions are single-class (zero total
    entropy) the partitions agree trivially and the value is 1.
    """
    if variant not in NMI_VARIANTS:
        raise InvalidInputError(f"unknown NMI variant {variant!r}; choose from {NMI_VARIANTS}")
    counts = confusion_table(a, b)
    pij = counts / counts.sum()
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    # entropy form keeps nmi(a, a) at exactly 1.0
    h_a = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    h_b = float(-(pb[pb > 0] * np.log(pb[pb > 0])).sum())
    h_ab = float(-(pij[pij > 0] * np.log(pij[pij > 0])).sum())
    info = max(0.0, h_a + h_b - h_ab)
    if h_a + h_b == 0.0:
        return 1.0
    if variant == "sum":
        denom = 0.5 * (h_a + h_b)
    elif variant == "sqrt":
        denom = float(np.sqrt(h_a * h_b))
    elif variant == "max":
        denom = max(h_a, h_b)
    else:
        denom = min(h_a, h_b)
    if denom == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, info / denom)))


def misclustering_rate(truth, cand) -> tuple[float, tuple[int, ...]]:
    """Minimum disagreement fraction over relabelings of the candidate.

    Searches all K! label permutations exactly (K <= 8 enforced) and
    returns the rate together with the minimizing permutation, where
    perm[j] is the truth label matched to candidate label j.
    """
    counts = confusion_table(truth, cand)
    n = counts.sum()
    k = max(counts.shape)
    if k > MAX_EXACT_LABELS:
        raise InvalidInputError(
            f"{k} labels exceed the exact permutation-search bound of {MAX_EXACT_LABELS}; "
            "an assignment-solver extension is required for larger K"
        )
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    best_agree = -1
    best_perm = None
    for perm in itertools.permutations(range(k)):
        agree = int(padded[perm, range(k)].sum())
        if agree > best_agree:
            best_agree = agree
            best_perm = perm
    return 1.0 - best_agree / n, best_perm


def misclustered_count(truth, cand) -> int:
    """Number of disagreeing nodes under the best relabeling (exact integer)."""
    rate, _ = misclustering_rate(truth, cand)
    n = np.asarray(truth).size
    return round(rate * n)


def misclustered_nodes(truth, cand) -> np.ndarray:
    """Indices of the nodes that disagree under the best relabeling."""
    truth = _as_labels(truth)
    cand = _as_labels(cand)
    _, perm = misclustering_rate(truth, cand)
    relabeled = np.array(perm)[cand]
    return np.flatnonzero(relabeled != truth)
