"""Gram matrices, determinants and projections of process increments.

One kernel, ``batch_decompose``, builds the Gram matrices of a batch of time
tuples from the models' structured increments, exact integrals over the
intervals between the times, and factors them with ``batch_cholesky``, the one
degeneracy check of the package (on the normalized Gram determinant, which the
paper's strong local nondeterminism bounds); ``decompose`` is its B=1 call.
Every other factorization (SLND and Berman ratios, the eps-smoothed transform)
goes through ``batch_cholesky`` too.  It returns the normalized pivots whose product
is the checked determinant, not the factor.  Projections on the increment span,
batched in ``batch_projections``, come from the same factorization: the Gram matrix
bordered by the shifts' pairings, one border column per distinct shift, whose factor
holds each shift's coefficients y = L^{-1} u on the orthonormalized increments, with
||h - P h||^2 = Gamma(dg, h) / Gamma(dg); ``projection_norm_sq`` is its B=1 row.
The factor bordered by s shifts is stored tuple-last, (m, m + s, B); the (B, m)
pivots and coefficients the functions return are transposed views.
Per-call code calls ufuncs' reduce, not numpy's wrappers such as np.sum (1-3 us slower).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DegenerateConfigurationError, ValidationError
from .function_space import GridFunction
from .process_models import ProcessModel

# the smallest accepted determinant of the normalized Gram matrix: cond2(G) <= m^m / DET_MIN
DET_MIN = 1e-8
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class TimeTuple:
    """Strictly increasing times in [0, T], a point of the open simplex; however small
    its gaps, ``batch_cholesky`` alone may refuse it.  No Wiener tuple is refused for
    its scale: det G = 1 there, and only a subnormal product of gaps fails."""

    times: Tuple[float, ...]

    def __init__(self, times: Sequence[float]):
        times = tuple(float(t) for t in times)
        if len(times) < 2:
            raise ValidationError(f"a time tuple needs at least two times, got {times}")
        if not all(map(math.isfinite, times)):
            raise ValidationError(f"times must be finite, got {times}")
        gaps = [b - a for a, b in zip(times, times[1:])]
        if min(gaps) <= 0:
            i = gaps.index(min(gaps))
            raise ValidationError(f"gap t[{i + 1}]-t[{i}] = {gaps[i]:.3e} is not positive")
        if times[0] < 0:
            raise ValidationError(f"times must be nonnegative, got {times[0]}")
        object.__setattr__(self, "times", times)

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
    return TimeTuple(times)


@dataclass(frozen=True)
class GramDecomposition:
    """Gram matrix and determinant of one time tuple: a B=1 result of ``batch_decompose``."""

    A: np.ndarray
    gamma: float


def decompose(model: ProcessModel, tt: TimeTuple) -> GramDecomposition:
    """Gram decomposition of the increments g(t_{i+1}) - g(t_i)."""
    A, gamma, _ = batch_decompose(model, np.asarray(tt.times)[None])
    return GramDecomposition(A[0], float(gamma[0]))


def projection_norm_sq(model: ProcessModel, times: Sequence[float], h: GridFunction) -> float:
    """||P h||^2 on the span of the increments of ``times``: a B=1 row of
    ``batch_projections``, the quadratic form u^T A^{-1} u = |L^{-1} u|^2."""
    _, (y,) = batch_projections(model, h)(np.asarray(times, dtype=float)[None])
    return float(np.add.reduce(y[0] ** 2))


# ---------------------------------------------------------------------------
# the batched kernel behind every Gram computation


def batch_decompose(model: ProcessModel, times: np.ndarray, eps: float = 0.0, pairs=()):
    """Gram data for a batch of time tuples.

    times: (B, k) with strictly increasing rows; pairs: shifts' pairings
    (``model.pairing``).  Returns (A, gamma, ys): Gram matrices (B, k-1, k-1), Gram
    determinants (B,) and each pairing's coefficients (B, k-1) from ``batch_cholesky``,
    which checks A and factors it bordered by the pairings.  A comes from the
    structured increments in O(1) per tuple.  With eps > 0 the increments carry
    independent noise of variance eps: A + eps I.
    """
    inc = model.increments(times)
    A = model.increment_gram(inc)
    if eps:
        A = A + eps * np.eye(A.shape[1])
    _, gamma, ys = batch_cholesky(A, times, [pair(inc) for pair in pairs])
    return A, gamma, ys


def batch_projections(model: ProcessModel, *hs: GridFunction):
    """(times (B, k), eps) -> (gamma (B,), [y_h (B, k-1)]): each shift's coefficients on
    the orthonormalized increments (eps as in ``batch_decompose``), ||P h||^2 = sum y_h^2,
    from pairings built once per ``batch_projections`` call, so each scalar call builds them.

    Shifts equal in grid, values and aux (``--h1 const1 --h2 const1`` parses
    into two objects) share one pairing and one border column.
    """
    keys = [(h.grid, h.values.tobytes(), h.aux.tobytes()) for h in hs]
    pairs = {key: model.pairing(h) for key, h in dict(zip(keys, hs)).items()}

    def f(times: np.ndarray, eps: float = 0.0):
        _, gamma, ys = batch_decompose(model, times, eps, pairs.values())
        by_key = dict(zip(pairs, ys))
        return gamma, [by_key[key] for key in keys]

    return f


def batch_cholesky(A: np.ndarray, times: np.ndarray, us: Sequence[np.ndarray] = ()):
    """Normalized Cholesky pivots, Gram determinants and the border's coefficients,
    with the one degeneracy check.

    A: (B, m, m) symmetric matrices built from the time tuples ``times`` (B, k), lower
    triangle read; us: s border vectors (B, m).  One loop over the columns takes
    LAPACK's steps for any m, s and B on the rows of [A, U].T, contiguous tuple-last
    W (m, m + s, B): pivot s_j, l_jj = sqrt(s_j), the row times 1 / l_jj, the trailing
    update of rows j+1..m-1; one last division by l_{m-1,m-1} finishes the border,
    whose columns then hold y = L^{-1} u; the entries below W's diagonal feed no
    result and are not cleared.  The pivots give Gamma = (prod l_jj)^2 and
    det G = prod s_j / A_jj, G = D^{-1/2} A D^{-1/2} with D = diag(A).  The first
    row with det G < DET_MIN, or whose Gamma is not a normal, finite, positive float,
    raises DegenerateConfigurationError naming the tuple; a non-finite or indefinite
    row is a NaN pivot and fails alike.  Cholesky's accuracy is governed by
    cond2(G) <= m^m / DET_MIN, not by cond2(A) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10).  Returns (pivots (B, m), gamma, [y]): the pivots
    s_j / A_jj of G, whose product the check judged.
    """
    m, s = A.shape[1], len(us)
    W = np.empty((m, m + s, len(A)))  # W[j, i] is A[:, i, j], then u_{i-m}[:, j]
    W[:, :m] = A.T
    for i, u in enumerate(us, m):
        W[:, i] = u.T
    d = W.reshape(m * (m + s), -1)[:: m + s + 1]  # the diagonal (m, B), a view: A_jj, then s_j
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m - 1):
            W[j, j + 1 :] *= 1.0 / np.sqrt(d[j])
            W[j + 1 :, j + 1 :] -= W[j, j + 1 : m, None] * W[j, None, j + 1 :]
        pivots = d / A.diagonal(0, 1, 2).T
        det_g = np.multiply.reduce(pivots, axis=0)
        np.sqrt(d, out=d)
        W[m - 1, m:] /= d[m - 1]
        gamma = np.multiply.reduce(d, axis=0) ** 2
    bad = (~((det_g >= DET_MIN) & (gamma >= _TINY) & (gamma <= _HUGE))).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise DegenerateConfigurationError(
            f"degenerate tuple {tuple(float(t) for t in times[i])}: normalized Gram "
            f"determinant {det_g[i]:.2e}, Gram determinant {gamma[i]:.2e} "
            f"(smallest gap {np.diff(times[i]).min():.3e})"
        )
    return pivots.T, gamma, [W[:, i].T for i in range(m, m + s)]
