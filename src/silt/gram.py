"""Gram matrices, determinants and projections of process increments.

The central identity (quadratic form of the inverse Gram matrix equals the
squared norm of the projection on the increment span) is computed along two
numerically distinct routes and self-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

from .errors import ConsistencyError, DegenerateConfigurationError, ValidationError
from .function_space import GridFunction, inner
from .process_models import ProcessModel

COND_CUTOFF = 1e12
DEFAULT_MIN_GAP = 1e-9


@dataclass(frozen=True)
class TimeTuple:
    """Strictly increasing times in [0, T], a point of the open simplex."""

    times: Tuple[float, ...]
    min_gap: float = DEFAULT_MIN_GAP

    def __init__(self, times: Sequence[float], min_gap: float = DEFAULT_MIN_GAP):
        times = tuple(float(t) for t in times)
        if len(times) < 2:
            raise ValidationError("a time tuple needs at least two times")
        if min_gap <= 0:
            raise ValidationError("min_gap must be positive")
        gaps = np.diff(times)
        if np.any(gaps < min_gap):
            i = int(np.argmin(gaps))
            raise ValidationError(
                f"gap t[{i + 1}]-t[{i}] = {gaps[i]:.3e} below min_gap {min_gap:.1e}"
            )
        if times[0] < 0:
            raise ValidationError("times must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "min_gap", min_gap)

    @property
    def k(self) -> int:
        return len(self.times)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))


def _pivoted_cholesky_det(A: np.ndarray) -> float:
    """Determinant of an SPD matrix via pivoted Cholesky (LAPACK pstrf)."""
    (pstrf,) = get_lapack_funcs(("pstrf",), (A,))
    c, piv, rank, info = pstrf(A, lower=1)
    if rank < A.shape[0]:
        raise DegenerateConfigurationError(
            f"Gram matrix numerically rank deficient ({rank} < {A.shape[0]})"
        )
    return float(np.prod(np.diag(c)[:rank]) ** 2)


@dataclass(frozen=True)
class GramDecomposition:
    """Increments, Gram matrix, determinant and orthonormalized basis."""

    tt: TimeTuple
    increments: Tuple[GridFunction, ...]
    A: np.ndarray
    gamma: float
    chol: np.ndarray       # lower Cholesky factor of A, in index order
    inv_chol: np.ndarray   # L^{-1}; rows give Gram-Schmidt combinations
    ortho: Tuple[GridFunction, ...] = field(repr=False)

    def coeffs(self, h: GridFunction) -> np.ndarray:
        """u = ((dg(t_1), h), ..., (dg(t_{k-1}), h))."""
        return np.array([inner(dg, h) for dg in self.increments])

    def ortho_coeffs(self, h: GridFunction) -> np.ndarray:
        """Coefficients of h on the orthonormalized increments, via L^{-1} u."""
        return self.inv_chol @ self.coeffs(h)


def decompose(model: ProcessModel, tt: TimeTuple) -> GramDecomposition:
    """Gram decomposition of the increments g(t_{i+1}) - g(t_i)."""
    times = np.asarray(tt.times)
    if times[-1] > model.grid.T + 1e-12:
        raise ValidationError(
            f"time {times[-1]} beyond the model interval [0, {model.grid.T}]"
        )
    V, X = model.factor_values(times)
    incs = tuple(
        GridFunction(model.grid, V[i + 1] - V[i], X[i + 1] - X[i])
        for i in range(tt.k - 1)
    )
    E = np.stack([dg.embedded() for dg in incs])
    A = E @ E.T
    A = (A + A.T) / 2.0

    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > COND_CUTOFF:
        gaps = np.diff(times)
        i = int(np.argmin(gaps))
        raise DegenerateConfigurationError(
            f"degenerate increment configuration: condition number "
            f"{'inf' if eigs[0] <= 0 else f'{eigs[-1] / eigs[0]:.2e}'} "
            f"(offending gap t[{i + 1}]-t[{i}] = {gaps[i]:.3e})"
        )
    gamma = _pivoted_cholesky_det(A)
    L = np.linalg.cholesky(A)
    inv_chol = solve_triangular(L, np.eye(tt.k - 1), lower=True)
    ortho = tuple(
        _combine(incs, inv_chol[i]) for i in range(tt.k - 1)
    )
    return GramDecomposition(tt, incs, A, gamma, L, inv_chol, ortho)


def _combine(funcs: Sequence[GridFunction], coeffs: np.ndarray) -> GridFunction:
    out = coeffs[0] * funcs[0]
    for c, f in zip(coeffs[1:], funcs[1:]):
        out = out + c * f
    return out


def projection_norm_sq(dec: GramDecomposition, h: GridFunction) -> float:
    """||P h||^2 on the increment span, with a dual-route self-check.

    Route (i): quadratic form u^T A^{-1} u via the SPD triangular solve.
    Route (ii): sum of squared inner products with the orthonormalized basis.
    Returns (i); raises if the two disagree beyond 1e-8 * (1 + ||h||^2).
    """
    u = dec.coeffs(h)
    y = solve_triangular(dec.chol, u, lower=True)
    quad = float(np.dot(y, y))
    basis = float(sum(inner(h, e) ** 2 for e in dec.ortho))
    if abs(quad - basis) > 1e-8 * (1.0 + h.norm_sq()):
        raise ConsistencyError(
            f"projection self-check failed: {quad!r} vs {basis!r} "
            "(ill-conditioned Gram matrix)"
        )
    return quad


def subset_projection_norm_sq(dec: GramDecomposition, M, h: GridFunction) -> float:
    """||P_M h||^2 = sum over i in M of (h, orthonormalized dg(t_i))^2.

    Indices in M are 1-based, matching the increment labels 1..k-1.
    """
    k1 = len(dec.increments)
    M = sorted(set(int(i) for i in M))
    if any(i < 1 or i > k1 for i in M):
        raise ValidationError(f"subset {M} out of range 1..{k1}")
    if not M:
        return 0.0
    c = dec.ortho_coeffs(h)
    return float(sum(c[i - 1] ** 2 for i in M))


def single_interval_projection(
    model: ProcessModel, t_lo: float, t_hi: float, h: GridFunction
) -> float:
    """||P_{[t_lo, t_hi]} h||^2 = (h, dg)^2 / ||dg||^2 for one increment."""
    if not t_lo < t_hi:
        raise ValidationError("interval endpoints must be increasing")
    dg = model.factor(t_hi) - model.factor(t_lo)
    nsq = dg.norm_sq()
    if nsq <= 0:
        raise DegenerateConfigurationError(
            f"zero-norm increment on [{t_lo}, {t_hi}]"
        )
    return inner(h, dg) ** 2 / nsq


# ---------------------------------------------------------------------------
# batched machinery for the quadrature engine


def batch_decompose(model: ProcessModel, times: np.ndarray):
    """Cholesky data for a batch of time tuples.

    times: (B, k) with strictly increasing rows.  Returns (inc, L, gamma): the
    model's structured increments (B, k-1), lower Cholesky factors
    (B, k-1, k-1) and Gram determinants (B,).  The Gram matrices come from
    the structured increments in O(1) per tuple; no factor rows are built.
    """
    inc = model.increments(times)
    A = model.increment_gram(inc)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        bad = _first_non_spd(A)
        row = times[bad]
        raise DegenerateConfigurationError(
            f"degenerate tuple {tuple(float(t) for t in row)} in batch "
            f"(smallest gap {np.diff(row).min():.3e})"
        ) from None
    diag = np.einsum("bii->bi", L)
    gamma = np.prod(diag, axis=1) ** 2
    return inc, L, gamma


def _first_non_spd(A: np.ndarray) -> int:
    """Index of the first matrix of A (B, m, m) with a non-positive or non-finite
    Cholesky pivot; raises ConsistencyError when every pivot is fine."""
    L = np.zeros_like(A)
    bad = np.zeros(A.shape[0], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(A.shape[1]):
            pivot = A[:, j, j] - np.sum(L[:, j, :j] ** 2, axis=1)
            bad |= ~(np.isfinite(pivot) & (pivot > 0))
            L[:, j, j] = np.sqrt(pivot)
            L[:, j + 1 :, j] = (
                A[:, j + 1 :, j] - np.einsum("bik,bk->bi", L[:, j + 1 :, :j], L[:, j, :j])
            ) / L[:, j, j, None]
    rows = np.flatnonzero(bad)
    if rows.size == 0:
        raise ConsistencyError(
            "batched Cholesky factorization failed, but no tuple has a bad pivot"
        )
    return int(rows[0])


def batch_ortho_coeffs(L: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficients on the orthonormalized increments: L y = u by forward substitution.

    L: (B, m, m) lower Cholesky factors, u: (B, m) increment coefficients.
    """
    y = np.empty_like(u)
    for i in range(u.shape[1]):
        y[:, i] = (u[:, i] - np.einsum("bj,bj->b", L[:, i, :i], y[:, :i])) / L[:, i, i]
    return y
