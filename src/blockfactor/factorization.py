"""SNMF and OSNTF solvers via multiplicative updates, with diagnostics.

Both solvers minimize a Frobenius residual over nonnegative factors:

  SNMF:   min ||X - H H^T||_F              over H >= 0
  OSNTF:  min ||X - H S H^T||_F            over H >= 0, S >= 0, H^T H = I

The orthogonality constraint is not enforced during the iterations; the
multiplicative rules only approximately preserve it, and the drift
||H^T H - I||_F is reported as a diagnostic instead.  Entries of H that
are exactly zero are fixed points of both rules, hence the requirement
of a strictly positive starting point.

X may be a dense array or a scipy CSR array (as the graph matrices of
``blockfactor.graphs`` are).  A sweep touches X only through one
product X H, which costs O(mk) for CSR X with m stored entries.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, NonFiniteUpdateError, float_array, is_integer, is_real
from .graphs import as_matrix, symmetric_matrix

__all__ = [
    "SolverConfig",
    "Factorization",
    "snmf",
    "osntf",
    "assign_communities",
    "ExactnessReport",
    "exactness_diagnostics",
    "frobenius_residual",
]


# Added to every update denominator: avoids 0/0 without measurably
# moving the fixed points.
_GUARD = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """The stopping rule both solvers share.

    max_iters: hard cap on update sweeps, a positive integer.
    rel_tol: stop when the relative objective change falls below this,
        provided the residual trace can resolve a change that small, or
        when the residual reads exactly 0 twice; 0 never stops early.
    """

    max_iters: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (is_integer(self.max_iters) and self.max_iters > 0):
            raise InvalidInputError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (is_real(self.rel_tol) and 0 <= self.rel_tol < 1):
            raise InvalidInputError(f"rel_tol must be a number in [0, 1), got {self.rel_tol!r}")


@dataclass
class Factorization:
    """Result of a solver run.

    ``s`` and ``orthogonality_drift`` are present for OSNTF only.  The
    objective trace holds the Frobenius residual before any update and
    after every sweep, so monotonicity is checkable from it directly.
    Each entry comes from the identity

        ||X - H S H^T||^2 = ||X||^2 - 2 <H^T X H, S> + <S, G S G>,  G = H^T H

    (S = I for SNMF), which reuses the sweep's X H and costs O(n k^2)
    beyond it; its k x k products are formed once per sweep and feed the
    next update too.  Cancellation sets its floor at about 1e-8 * ||X||_F, far
    below the 1e-6 relative residual that exact recovery asks for; use
    ``frobenius_residual`` on dense X where the exact value matters.
    """

    h: np.ndarray
    s: Optional[np.ndarray]
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    orthogonality_drift: Optional[float] = None


def _entries(x) -> np.ndarray:
    """The stored entries of an ``as_matrix`` result; ||x||_F is their 2-norm."""
    return x if isinstance(x, np.ndarray) else x.data


def _sq_norm(x) -> float:
    """||x||_F^2 of an ``as_matrix`` result by numpy's pairwise sum: a BLAS dot
    product splits 10^4 entries across threads, so its last bit follows their count."""
    return float(np.square(_entries(x)).sum())


def _check_solver_inputs(x, k: int, h0: np.ndarray):
    """The solvers' own checks, all before any sweep: the shape, finiteness
    and strict positivity of ``h0``, and no negative entry in ``x``, which
    has passed ``symmetric_matrix``."""
    n = x.shape[0]
    if h0.shape != (n, k):
        raise InvalidInputError(f"h0 must have shape ({n}, {k}), got {h0.shape}")
    if not np.isfinite(h0).all():
        raise InvalidInputError("h0 must be finite (it has NaN or infinite entries)")
    if _entries(x).min(initial=0.0) < 0:
        raise InvalidInputError("x must be nonnegative")
    if h0.min() <= 0:
        raise InvalidInputError(
            "h0 must be strictly positive: exact zeros are fixed points of "
            "multiplicative updates (zero-locking)"
        )


def frobenius_residual(x, h: np.ndarray, s: Optional[np.ndarray] = None) -> float:
    """||x - h s h^T||_F, or ||x - h h^T||_F when s is None.

    Exact for dense x.  For CSR x it is the Gram identity's value (see
    ``Factorization``), which needs no n x n array.
    """
    x = as_matrix(x)
    if not isinstance(x, np.ndarray):
        return _residual_from(_sq_norm(x), x @ h, h, s)[0]
    return math.sqrt(_sq_norm(x - (h @ h.T if s is None else h @ s @ h.T)))


def _shared_products(x_sq: float, xh: np.ndarray, h: np.ndarray, s: Optional[np.ndarray]) -> tuple[float, tuple]:
    """A sweep's k x k products ``p = (G, H^T X H, G S G)``, G = H^T H (the
    last two None for SNMF, ``s`` None), and the r^2 they give by the
    identity of ``Factorization``."""
    ht = h.T
    gram = np.dot(ht, h)
    if s is None:
        return x_sq - 2.0 * float(np.vdot(h, xh)) + float(np.vdot(gram, gram)), (gram, None, None)
    hxh = np.dot(ht, xh)
    gsg = np.dot(np.dot(gram, s), gram)
    # S need not be symmetric: ||H S H^T||^2 = <S, G S G>, not <S G, (G S)^T>
    return x_sq - 2.0 * float(np.vdot(hxh, s)) + float(np.vdot(s, gsg)), (gram, hxh, gsg)


def _residual_from(x_sq: float, xh: np.ndarray, h: np.ndarray, s: Optional[np.ndarray]) -> tuple[float, tuple]:
    """``(||x - h s h^T||_F, p)`` from ``x_sq = ||x||^2`` and ``xh = x @ h``,
    where ``p`` is the ``_shared_products`` of h.  A square below zero is
    cancellation noise and reads as 0; only a non-finite one is rescaled."""
    r_sq, p = _shared_products(x_sq, xh, h, s)
    return (math.sqrt(max(r_sq, 0.0)) if math.isfinite(r_sq) else _rescaled_residual(x_sq, xh, h, s)), p


def _rescaled_residual(x_sq: float, xh: np.ndarray, h: np.ndarray, s: Optional[np.ndarray]) -> float:
    """The residual for an r^2 that is not finite, from the identity on
    h * 2^-e and xh * 2^-3e with 2^4e near ``x_sq``: every term of r^2 then
    scales by exactly 2^-4e, and r by 2^-2e.  NaN if r^2 stays non-finite."""
    e = math.frexp(x_sq)[1] // 4
    r_sq, _ = _shared_products(math.ldexp(x_sq, -4 * e), np.ldexp(xh, -3 * e), np.ldexp(h, -e), s)
    return math.ldexp(math.sqrt(max(r_sq, 0.0)), 2 * e) if math.isfinite(r_sq) else math.nan


def snmf(x: np.ndarray, k: int, h0: np.ndarray, cfg: SolverConfig = SolverConfig()) -> Factorization:
    """Symmetric NMF of a nonnegative symmetric matrix.

    Uses the damped multiplicative rule

        H_ik <- H_ik * (1/2 + (X H)_ik / (2 (H H^T H)_ik)),

    which keeps H nonnegative and decreases ||X - H H^T||_F.
    """
    return _solve("snmf", x, k, h0, cfg)


def osntf(x: np.ndarray, k: int, h0: np.ndarray, cfg: SolverConfig = SolverConfig()) -> Factorization:
    """Orthogonal symmetric nonnegative tri-factorization X ~ H S H^T.

    S starts at H0^T X H0 and each sweep applies, in order,

        S_ik <- S_ik * sqrt((H^T X H)_ik / (H^T H S H^T H)_ik),
        H_ik <- H_ik * sqrt((X H S)_ik / (H H^T X H S)_ik).

    Column orthogonality of H is tracked, not enforced; renormalizing
    during the run would break the monotonicity of the updates.
    """
    return _solve("osntf", x, k, h0, cfg)


def _solve(method: str, x, k: int, h0, cfg: SolverConfig) -> Factorization:
    """The sweep loop both solvers share; OSNTF's S starts at h0^T x h0,
    symmetrized.  Each sweep updates S and H in place, forms ``x @ h``
    once, for the new H, and then its ``_shared_products`` once: both feed
    that sweep's residual and the next update.  Only a CSR ``x @ h`` makes
    a new n x k array, and no n x n one is built.  Stops once the relative
    residual change drops below ``cfg.rel_tol`` outside the identity's
    rounding noise, or two residuals in a row are exactly 0 (never when
    ``cfg.rel_tol`` is 0), and raises NonFiniteUpdateError as soon as one
    is not finite."""
    x = symmetric_matrix(x, k)
    h = float_array(h0, "h0").copy()
    _check_solver_inputs(x, k, h)
    x_sq = _sq_norm(x)
    # The identity's r^2 is off by up to about n k eps ||X||^2 (measured at
    # most 12 eps ||X||^2 at n = 60 and 57 at n = 300).  A relative change
    # of r below rel_tol moves r^2 by about 2 rel_tol r^2, so once that is
    # under the noise the trace cannot resolve it and the stop test is off.
    noise_sq = x.shape[0] * k * np.finfo(np.float64).eps * x_sq
    xh, ht, dense = x @ h, h.T, isinstance(x, np.ndarray)  # ht follows the in-place H
    ratio, s, xhs = np.empty_like(h), None, None  # the H update's ratio; XHS
    if method == "osntf":
        s, xhs = np.dot(ht, xh), np.empty_like(h)
        s = 0.5 * (s + s.T)
    r, (gram, hxh, gsg) = _residual_from(x_sq, xh, h, s)
    trace = [r]
    converged = False
    for _ in range(cfg.max_iters):
        if s is None:  # H <- H (1/2 + XH / (2 (H G + guard)))
            np.dot(h, gram, out=ratio)
            ratio += _GUARD
            np.divide(xh, ratio, out=ratio)
            ratio *= 0.5
            ratio += 0.5
        else:  # S <- S sqrt(H^T X H / (G S G + guard)), then H <- H sqrt(XHS / (H H^T XHS + guard))
            gsg += _GUARD
            np.divide(hxh, gsg, out=gsg)
            s *= np.sqrt(gsg, out=gsg)
            np.dot(xh, s, out=xhs)
            np.dot(h, np.dot(ht, xhs), out=ratio)
            ratio += _GUARD
            np.divide(xhs, ratio, out=ratio)
            np.sqrt(ratio, out=ratio)
        h *= ratio
        xh = np.dot(x, h, out=xh) if dense else x @ h
        r, (gram, hxh, gsg) = _residual_from(x_sq, xh, h, s)
        trace.append(r)
        if not math.isfinite(r):
            raise NonFiniteUpdateError(f"{method.upper()} update produced non-finite entries")
        # a resolvable change has trace[-2] > 0; two exact zeros are a fixed point
        resolvable = 2.0 * cfg.rel_tol * (trace[-2] * trace[-2]) > noise_sq
        fixed = cfg.rel_tol > 0 and trace[-2] == r == 0
        if fixed or (resolvable and abs(trace[-2] - r) / trace[-2] < cfg.rel_tol):
            converged = True
            break
    return Factorization(
        h=h,
        s=s,
        objective_trace=np.array(trace),
        iterations=len(trace) - 1,
        converged=converged,
        orthogonality_drift=None if s is None else float(np.linalg.norm(gram - np.eye(k))),
    )


def assign_communities(h: np.ndarray) -> np.ndarray:
    """Each row goes to its largest entry; ties break to the smaller column."""
    h = float_array(h, "h")
    if h.ndim != 2 or h.shape[1] < 1:
        raise InvalidInputError("h must be an N x K matrix with K >= 1")
    if (bad := np.flatnonzero(~np.isfinite(h).all(axis=1))).size:
        raise InvalidInputError(f"row {int(bad[0])} of h is not finite")
    row_max = h.max(axis=1)
    dead = np.flatnonzero(row_max <= 0)
    if dead.size:
        raise InvalidInputError(f"row {int(dead[0])} of H has no positive entry (degenerate factorization)")
    return h.argmax(axis=1).astype(np.int64)


@dataclass(frozen=True)
class ExactnessReport:
    """How close a factorization is to an exact one."""

    residual: float
    relative_residual: float
    orthogonality_drift: float
    row_sparsity: float


def exactness_diagnostics(
    x, f: Factorization, sparsity_threshold: float = 1e-6
) -> ExactnessReport:
    """Residual, orthogonality drift and the one-nonzero-per-row score.

    An exact tri-factorization with orthonormal nonnegative H has exactly
    one positive entry per row, so the row-sparsity score (fraction of
    rows whose second-largest entry is below the threshold times the
    largest) equals 1.0 there.  Iteratively solved factorizations
    approach that structure slowly; probe them with a looser threshold.
    A non-finite H raises InvalidInputError.
    """
    x, h = as_matrix(x), float_array(f.h, "h")
    if not np.isfinite(h).all():
        raise InvalidInputError("h must be finite")
    residual = frobenius_residual(x, h, f.s)
    norm_x = math.sqrt(_sq_norm(x))
    drift = float(np.linalg.norm(h.T @ h - np.eye(h.shape[1])))
    if h.shape[1] == 1:
        sparse_rows = float(np.mean(h.max(axis=1) > 0))
    else:
        ordered = np.sort(h, axis=1)
        largest = ordered[:, -1]
        second = ordered[:, -2]
        sparse_rows = float(np.mean((largest > 0) & (second < sparsity_threshold * largest)))
    return ExactnessReport(
        residual=residual,
        relative_residual=residual / norm_x if norm_x > 0 else 0.0,
        orthogonality_drift=drift,
        row_sparsity=sparse_rows,
    )
