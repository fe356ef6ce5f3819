"""Gram matrices, determinants and projections of process increments.

One kernel, ``batch_decompose``, builds the Gram matrices of a batch of time
tuples from the models' structured increments, exact integrals over the
intervals between the times, and factors them with ``batch_cholesky``, the one
conditioning check of the package; ``decompose`` is its B=1 call.  Every other
factorization (SLND and Berman ratios, the eps-smoothed transform) goes
through ``batch_cholesky`` too.  Projections on the increment span, batched in
``batch_projections``, are forward substitutions of the shift coefficients
through the Cholesky factor, once per distinct shift; ``projection_norm_sq``
is its B=1 row.  Gram matrices and factors are stored tuple-last, (m, m, B),
and coefficients (m, B); the (B, m, m) and (B, m) arrays the functions return
are transposed views.  The Wiener oracle ``wiener_projections`` integrates the
shifts from their exact cumulative and calls nothing of the models or the
kernel.
Per-call code calls ufuncs' reduce, not numpy's wrappers such as np.sum (1-3 us slower).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DegenerateConfigurationError, ValidationError
from .function_space import GridFunction, cumulative
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
        if not all(map(math.isfinite, times)):
            raise ValidationError(f"times must be finite, got {times}")
        if not 0 < min_gap < math.inf:
            raise ValidationError(f"min_gap must be positive and finite, got {min_gap}")
        gaps = [b - a for a, b in zip(times, times[1:])]
        if min(gaps) < min_gap:
            i = gaps.index(min(gaps))
            raise ValidationError(
                f"gap t[{i + 1}]-t[{i}] = {gaps[i]:.3e} below min_gap {min_gap:.1e}"
            )
        if times[0] < 0:
            raise ValidationError(f"times must be nonnegative, got {times[0]}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "min_gap", min_gap)

    @property
    def k(self) -> int:
        return len(self.times)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))


def decreasing_values(values: Sequence[float], what: str) -> List[float]:
    """A scan or probe sequence as floats, checked nonempty, finite, positive and
    strictly decreasing; the error names ``what`` and the values."""
    v = [float(x) for x in values]
    decreasing = all(a > b for a, b in zip(v, v[1:]))
    if not (v and decreasing and all(math.isfinite(x) and x > 0 for x in v)):
        raise ValidationError(
            f"{what} must be finite, positive and strictly decreasing, got {tuple(v)}"
        )
    return v


def gap_scan_tuple(times: Sequence[float], indices: Sequence[int], gap: float, T: float):
    """``times`` with the gaps at the 1-based ``indices`` set to ``gap`` and the
    later times shifted to keep the other gaps; it must stay inside [0, T]."""
    times = [float(t) for t in times]
    if not all(1 <= i < len(times) for i in indices):
        raise ValidationError(f"gap indices {list(indices)} out of range 1..{len(times) - 1}")
    gaps = [b - a for a, b in zip(times, times[1:])]
    gaps = [float(gap) if i in indices else g for i, g in enumerate(gaps, 1)]
    times = times[:1] + [times[0] + s for s in itertools.accumulate(gaps)]
    if times[-1] > T + 1e-12:
        raise ValidationError(f"scanned tuple at gap {gap} leaves the interval [0, {T}]")
    return TimeTuple(times, min_gap=min(gap / 2, 1e-9))


@dataclass(frozen=True)
class GramDecomposition:
    """Gram matrix and determinant of one time tuple: a B=1 result of ``batch_decompose``."""

    A: np.ndarray
    gamma: float


def decompose(model: ProcessModel, tt: TimeTuple) -> GramDecomposition:
    """Gram decomposition of the increments g(t_{i+1}) - g(t_i)."""
    _, A, _, gamma = batch_decompose(model, np.asarray(tt.times)[None])
    return GramDecomposition(A[0], float(gamma[0]))


def projection_norm_sq(model: ProcessModel, times: Sequence[float], h: GridFunction) -> float:
    """||P h||^2 on the span of the increments of ``times``: a B=1 row of
    ``batch_projections``, the quadratic form u^T A^{-1} u = |L^{-1} u|^2."""
    _, (y,) = batch_projections(model, h)(np.asarray(times, dtype=float)[None])
    return float(np.add.reduce(y[0] ** 2))


def wiener_projections(tt: TimeTuple, *hs: GridFunction) -> np.ndarray:
    """(H(b) - H(a))^2 / (b - a) for each Wiener increment 1I_[a,b] and shift h, with H
    the exact cumulative integral of h, shape (k-1, len(hs)): the Wiener oracle, from
    ``cumulative`` and ``np.interp`` alone."""
    times = np.asarray(tt.times)
    sums = [np.diff(np.interp(times, *cumulative(h))) for h in hs]
    return np.array(sums).T ** 2 / tt.gaps[:, None]


# ---------------------------------------------------------------------------
# the batched kernel behind every Gram computation


def batch_decompose(model: ProcessModel, times: np.ndarray):
    """Gram data for a batch of time tuples.

    times: (B, k) with strictly increasing rows.  Returns (inc, A, L, gamma):
    the model's structured increments (B, k-1), Gram matrices and their lower
    Cholesky factors (B, k-1, k-1), and Gram determinants (B,).  The Gram
    matrices come from the structured increments in O(1) per tuple; no factor
    rows are built.  ``batch_cholesky`` checks and factors them.
    """
    inc = model.increments(times)
    A = model.increment_gram(inc)
    L, gamma = batch_cholesky(A, times)
    return inc, A, L, gamma


def batch_projections(model: ProcessModel, *hs: GridFunction):
    """Times (B, k) -> (gamma (B,), [y_h (B, k-1)]): each shift's coefficients on the
    orthonormalized increments, ||P h||^2 = sum y_h^2, from pairings built once.

    Shifts equal in grid, values and aux (``--h1 const1 --h2 const1`` parses
    into two objects) share one pairing and one forward substitution.
    """
    keys = [(h.grid, h.values.tobytes(), h.aux.tobytes()) for h in hs]
    pairs = {key: model.pairing(h) for key, h in dict(zip(keys, hs)).items()}

    def f(times: np.ndarray):
        inc, _, L, gamma = batch_decompose(model, times)
        ys = {key: batch_ortho_coeffs(L, pair(inc)) for key, pair in pairs.items()}
        return gamma, [ys[key] for key in keys]

    return f


def batch_cholesky(A: np.ndarray, times: np.ndarray):
    """The one degeneracy check, then lower Cholesky factors and determinants.

    A: (B, m, m) symmetric matrices built from the time tuples ``times``
    (B, k).  A matrix that is not finite, not positive definite or has
    condition number above COND_CUTOFF raises DegenerateConfigurationError
    naming the tuple of the first such matrix.  A Cholesky factorization that
    passes the check cannot fail in double precision; m <= 2 takes LAPACK's
    steps in closed form (bitwise equal to ``np.linalg.cholesky`` on OpenBLAS),
    on the rows of A.T, contiguous for a view of tuple-last storage.
    """
    At, m = A.T, A.shape[1]  # At[j, i] is A[:, i, j]
    finite = np.logical_and.reduce(np.isfinite(At), axis=(0, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m == 1:
            lo = hi = At[0, 0]
        elif m == 2:  # closed form: the larger root has no cancellation, lo = det / hi
            a, b, d = At[0, 0], At[1, 0], At[1, 1]
            hi = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
            lo = (a * d - b * b) / hi
        else:
            ok = np.logical_and.reduce(finite)
            eigs = np.linalg.eigvalsh(A if ok else np.where(finite[:, None, None], A, np.eye(m)))
            lo, hi = eigs[:, 0], eigs[:, -1]
        bad = (~(finite & (lo > 0) & (hi <= COND_CUTOFF * lo))).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        cond = f"{hi[i] / lo[i]:.2e}" if finite[i] and lo[i] > 0 else "inf"
        raise DegenerateConfigurationError(
            f"degenerate tuple {tuple(float(t) for t in times[i])}: condition number "
            f"{cond} (smallest gap {np.diff(times[i]).min():.3e})"
        )
    if m == 1:
        Lt = np.sqrt(At)
    elif m == 2:  # LAPACK's steps: the column scaled by the reciprocal pivot
        Lt = np.zeros(At.shape)
        Lt[0, 0] = np.sqrt(At[0, 0])
        Lt[0, 1] = At[0, 1] * (1.0 / Lt[0, 0])
        Lt[1, 1] = np.sqrt(At[1, 1] - Lt[0, 1] ** 2)
    else:
        Lt = np.ascontiguousarray(np.linalg.cholesky(A).T)
    return Lt.T, np.multiply.reduce(Lt.diagonal(), axis=1) ** 2


def batch_ortho_coeffs(L: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficients on the orthonormalized increments: L y = u by forward substitution.

    L: (B, m, m) lower Cholesky factors, u: (B, m) increment coefficients; the
    substitution runs on the rows of L.T and u.T, each sum in index order for any B.
    """
    Lt, ut = L.T, u.T
    y = np.empty(ut.shape)
    y[0] = ut[0] / Lt[0, 0]
    for i in range(1, len(ut)):
        y[i] = (ut[i] - np.add.accumulate(Lt[:i, i] * y[:i])[-1]) / Lt[i, i]
    return y.T
