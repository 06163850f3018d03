"""SNMF and OSNTF solvers via multiplicative updates, with diagnostics.

Both solvers minimize a Frobenius residual over nonnegative factors:

  SNMF:   min ||X - H H^T||_F              over H >= 0
  OSNTF:  min ||X - H S H^T||_F            over H >= 0, S >= 0, H^T H = I

The orthogonality constraint is not enforced during the iterations; the
multiplicative rules only approximately preserve it, and the drift
||H^T H - I||_F is reported as a diagnostic instead.  Entries of H that
are exactly zero are fixed points of both rules, hence the requirement
of a strictly positive starting point.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    AllZeroRowError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteUpdateError,
)

__all__ = [
    "SolverConfig",
    "Factorization",
    "snmf",
    "osntf",
    "snmf_step",
    "osntf_step",
    "assign_communities",
    "osntf_objective",
    "ExactnessReport",
    "exactness_diagnostics",
    "frobenius_residual",
    "save_factor_matrices",
    "load_factor_matrices",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    max_iters: hard cap on update sweeps.
    rel_tol: stop when the relative objective change falls below this,
        provided the residual trace can resolve a change that small.
    denom_guard: epsilon added inside every update denominator (avoids
        0/0 without measurably moving the fixed points).
    init_offset: constant added to indicator initializations.
    """

    max_iters: int = 500
    rel_tol: float = 1e-6
    denom_guard: float = 1e-12
    init_offset: float = 0.2

    def __post_init__(self):
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")
        if not 0 <= self.rel_tol < 1:
            raise ValueError("rel_tol must lie in [0, 1)")
        if self.denom_guard <= 0 or self.init_offset < 0:
            raise ValueError("denom_guard must be positive and init_offset nonnegative")


@dataclass
class Factorization:
    """Result of a solver run.

    ``s`` and ``orthogonality_drift`` are present for OSNTF only.  The
    objective trace holds the Frobenius residual before any update and
    after every sweep, so monotonicity is checkable from it directly.
    Each entry comes from the identity

        ||X - H S H^T||^2 = ||X||^2 - 2 <H^T X H, S> + <S, G S G>,  G = H^T H

    (S = I for SNMF), which reuses the sweep's X H and costs O(n k^2)
    beyond it.  Cancellation sets its floor at about 1e-8 * ||X||_F, far
    below the 1e-6 relative residual that exact recovery asks for; use
    ``frobenius_residual`` where the exact value matters.
    """

    h: np.ndarray
    s: Optional[np.ndarray]
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    orthogonality_drift: Optional[float] = None
    method: str = field(default="", repr=False)


def _check_solver_inputs(x: np.ndarray, x_sq: float, k: int, h0: np.ndarray):
    """Shape, finiteness, symmetry and sign checks; ``x_sq`` is ``||x||_F^2``."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"x must be square, got shape {x.shape}")
    n = x.shape[0]
    if h0.shape != (n, k):
        raise DimensionMismatchError(
            f"h0 must have shape ({n}, {k}), got {h0.shape}"
        )
    # Only a NaN or infinite entry, or an overflowing norm, makes x_sq
    # non-finite.  Tested before symmetry, which NaN would fail; finite x
    # whose norm overflows is left to the sweep loop's NonFiniteUpdateError.
    if not math.isfinite(x_sq) and not np.isfinite(x).all():
        raise InvalidInputError("x must be finite (it has NaN or infinite entries)")
    # exact equality implies the tolerance test and is several times cheaper
    if not (np.array_equal(x, x.T) or np.allclose(x, x.T, rtol=0, atol=1e-8)):
        raise InvalidInputError("x must be symmetric")
    if x.min() < 0:
        raise InvalidInputError("x must be nonnegative")
    if h0.min() <= 0:
        raise InvalidInputError(
            "h0 must be strictly positive: exact zeros are fixed points of "
            "multiplicative updates (zero-locking)"
        )


def frobenius_residual(x: np.ndarray, h: np.ndarray, s: Optional[np.ndarray] = None) -> float:
    """||x - h s h^T||_F, or ||x - h h^T||_F when s is None."""
    if s is None:
        approx = h @ h.T
    else:
        approx = h @ s @ h.T
    return float(np.linalg.norm(x - approx))


def _residual_from(x_sq: float, xh: np.ndarray, h: np.ndarray, s: Optional[np.ndarray]) -> float:
    """``frobenius_residual(x, h, s)`` from ``x_sq = ||x||^2`` and ``xh = x @ h``.

    A square below zero is cancellation noise and reads as 0; a
    non-finite one stays non-finite so the caller can detect it.
    """
    gram = h.T @ h
    if s is None:
        r_sq = x_sq - 2.0 * np.vdot(h, xh) + np.vdot(gram, gram)
    else:
        # S need not be symmetric: ||H S H^T||^2 = <S, G S G>, not <S G, (G S)^T>
        r_sq = x_sq - 2.0 * np.vdot(h.T @ xh, s) + np.vdot(s, gram @ s @ gram)
    r_sq = float(r_sq)
    return math.sqrt(max(r_sq, 0.0)) if math.isfinite(r_sq) else math.nan


def _relative_change(prev: float, cur: float) -> float:
    if prev == 0.0:
        return 0.0
    return abs(prev - cur) / prev


def _snmf_update(xh: np.ndarray, h: np.ndarray, guard: float) -> np.ndarray:
    denom = h @ (h.T @ h) + guard
    return h * (0.5 + 0.5 * (xh / denom))


def snmf_step(x: np.ndarray, h: np.ndarray, guard: float = 1e-12) -> np.ndarray:
    """One damped multiplicative sweep H <- H * (1/2 + (XH) / (2 H H^T H))."""
    return _snmf_update(x @ h, h, guard)


def snmf(x: np.ndarray, k: int, h0: np.ndarray, cfg: SolverConfig = SolverConfig()) -> Factorization:
    """Symmetric NMF of a nonnegative symmetric matrix.

    Uses the damped multiplicative rule

        H_ik <- H_ik * (1/2 + (X H)_ik / (2 (H H^T H)_ik)),

    which keeps H nonnegative and decreases ||X - H H^T||_F.
    """
    return _solve(
        "snmf", x, k, h0, cfg, None, lambda xh, h, s, guard: (_snmf_update(xh, h, guard), None)
    )


def _osntf_update(
    xh: np.ndarray, h: np.ndarray, s: np.ndarray, guard: float
) -> tuple[np.ndarray, np.ndarray]:
    gram = h.T @ h
    s_num = h.T @ xh
    s_den = gram @ s @ gram + guard
    s = s * np.sqrt(s_num / s_den)

    xhs = xh @ s
    h_den = h @ (h.T @ xhs) + guard
    h = h * np.sqrt(xhs / h_den)
    return h, s


def osntf_step(
    x: np.ndarray, h: np.ndarray, s: np.ndarray, guard: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """One tri-factorization sweep: the S rule, then the H rule."""
    return _osntf_update(x @ h, h, s, guard)


def _initial_s(xh: np.ndarray, h: np.ndarray) -> np.ndarray:
    s = h.T @ xh
    return 0.5 * (s + s.T)


def osntf(x: np.ndarray, k: int, h0: np.ndarray, cfg: SolverConfig = SolverConfig()) -> Factorization:
    """Orthogonal symmetric nonnegative tri-factorization X ~ H S H^T.

    S starts at H0^T X H0 and each sweep applies, in order,

        S_ik <- S_ik * sqrt((H^T X H)_ik / (H^T H S H^T H)_ik),
        H_ik <- H_ik * sqrt((X H S)_ik / (H H^T X H S)_ik).

    Column orthogonality of H is tracked, not enforced; renormalizing
    during the run would break the monotonicity of the updates.
    """
    return _solve("osntf", x, k, h0, cfg, _initial_s, _osntf_update)


def _solve(method: str, x, k: int, h0, cfg: SolverConfig, s0, update) -> Factorization:
    """The sweep loop both solvers share.

    ``s0(xh, h)`` gives the starting S, or ``s0`` is None for a solver
    without one; ``update(xh, h, s, guard)`` returns the next ``(h, s)``,
    where ``xh = x @ h``.  Each sweep forms ``x @ h`` once, for the new H:
    it feeds both that sweep's residual and the next update, and no n x n
    array is built inside the loop.  Stops once the relative residual
    change drops below ``cfg.rel_tol``, unless that change is within the
    identity's rounding noise (then it keeps going, up to ``cfg.max_iters``),
    and raises NonFiniteUpdateError as soon as a residual is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.array(h0, dtype=np.float64)
    x_sq = float(np.vdot(x, x))
    _check_solver_inputs(x, x_sq, k, h)
    # The identity's r^2 is off by up to about n k eps ||X||^2 (measured at
    # most 12 eps ||X||^2 at n = 60 and 57 at n = 300).  A relative change
    # of r below rel_tol moves r^2 by about 2 rel_tol r^2, so once that is
    # under the noise the trace cannot resolve it and the stop test is off.
    noise_sq = x.shape[0] * k * np.finfo(np.float64).eps * x_sq
    xh = x @ h
    s = None if s0 is None else s0(xh, h)
    trace = [_residual_from(x_sq, xh, h, s)]
    converged = False
    for _ in range(cfg.max_iters):
        h, s = update(xh, h, s, cfg.denom_guard)
        xh = x @ h
        trace.append(_residual_from(x_sq, xh, h, s))
        if not np.isfinite(trace[-1]):
            raise NonFiniteUpdateError(f"{method.upper()} update produced non-finite entries")
        resolvable = 2.0 * cfg.rel_tol * trace[-2] ** 2 > noise_sq
        if resolvable and _relative_change(trace[-2], trace[-1]) < cfg.rel_tol:
            converged = True
            break
    return Factorization(
        h=h,
        s=s,
        objective_trace=np.array(trace),
        iterations=len(trace) - 1,
        converged=converged,
        orthogonality_drift=None if s is None else float(np.linalg.norm(h.T @ h - np.eye(k))),
        method=method,
    )


def assign_communities(h: np.ndarray) -> np.ndarray:
    """Each row goes to its largest entry; ties break to the smaller column."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[1] < 1:
        raise DimensionMismatchError("h must be an N x K matrix with K >= 1")
    row_max = h.max(axis=1)
    dead = np.flatnonzero(row_max <= 0)
    if dead.size:
        raise AllZeroRowError(int(dead[0]))
    return h.argmax(axis=1).astype(np.int64)


def osntf_objective(x: np.ndarray, h: np.ndarray) -> float:
    """||h^T x h||_F, the quantity the tri-factorization maximizes.

    For h with orthonormal columns, minimizing ||x - h s h^T||_F with
    s = h^T x h is equivalent to maximizing this value.
    """
    x = np.asarray(x)
    h = np.asarray(h)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or h.ndim != 2 or h.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes x={x.shape}, h={h.shape}"
        )
    return float(np.linalg.norm(h.T @ x @ h))


@dataclass(frozen=True)
class ExactnessReport:
    """How close a factorization is to an exact one."""

    residual: float
    relative_residual: float
    orthogonality_drift: float
    row_sparsity: float


def exactness_diagnostics(
    x: np.ndarray, f: Factorization, sparsity_threshold: float = 1e-6
) -> ExactnessReport:
    """Residual, orthogonality drift and the one-nonzero-per-row score.

    An exact tri-factorization with orthonormal nonnegative H has exactly
    one positive entry per row, so the row-sparsity score (fraction of
    rows whose second-largest entry is below the threshold times the
    largest) equals 1.0 there.  Iteratively solved factorizations
    approach that structure slowly; probe them with a looser threshold.
    """
    x = np.asarray(x)
    residual = frobenius_residual(x, f.h, f.s)
    norm_x = float(np.linalg.norm(x))
    drift = float(np.linalg.norm(f.h.T @ f.h - np.eye(f.h.shape[1])))
    if f.h.shape[1] == 1:
        sparse_rows = float(np.mean(f.h.max(axis=1) > 0))
    else:
        ordered = np.sort(f.h, axis=1)
        largest = ordered[:, -1]
        second = ordered[:, -2]
        sparse_rows = float(np.mean((largest > 0) & (second < sparsity_threshold * largest)))
    return ExactnessReport(
        residual=residual,
        relative_residual=residual / norm_x if norm_x > 0 else 0.0,
        orthogonality_drift=drift,
        row_sparsity=sparse_rows,
    )


def save_factor_matrices(f: Factorization, path) -> None:
    """Write H (and S when present) as plain text, one matrix row per line."""
    lines = [f"# h {f.h.shape[0]} {f.h.shape[1]}"]
    for row in f.h:
        lines.append(" ".join(repr(float(v)) for v in row))
    if f.s is not None:
        lines.append(f"# s {f.s.shape[0]} {f.s.shape[1]}")
        for row in f.s:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_factor_matrices(path) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverse of save_factor_matrices; returns (h, s-or-None)."""
    blocks: dict[str, list[list[float]]] = {}
    current = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            current = line.split()[1]
            blocks[current] = []
        else:
            blocks[current].append([float(tok) for tok in line.split()])
    h = np.array(blocks["h"])
    s = np.array(blocks["s"]) if "s" in blocks else None
    return h, s
