"""Diagnostics for strong local nondeterminism and Berman's local version.

Ratios are Gram determinants of normalized increments, which stay well
conditioned at small gaps.  Each is a product of ratios s_j / A_jj of the
Cholesky pivots of the Gram matrix A to its diagonal, read from the Gram
kernel's ``batch_cholesky``, whose one check judges the same normalized
determinant; A is built in O(1) per time like every other Gram matrix.
Scans drive the chosen gaps toward zero and record the ratios, whose
defining limit is 1; the caller judges how close the last one comes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .function_space import GridFunction
from .gram import TimeTuple, batch_cholesky, decreasing_values, gap_scan_tuple, projection_norm_sq
from .process_models import ProcessModel


@dataclass(frozen=True)
class SLNDReport:
    """Gap scan of the strong-local-nondeterminism ratio."""

    gaps: Tuple[float, ...]
    ratios: Tuple[float, ...]


def _pivot_ratios(model: ProcessModel, times: Sequence[float], order: Sequence[int]):
    """s_j / A_jj from ``batch_cholesky``'s factor of the Gram matrix A of the increments
    of consecutive ``times``, rows and columns in ``order``: the squared Cholesky pivots
    of G = D^{-1/2} A D^{-1/2}, whose product is det G."""
    times = np.asarray(times, dtype=float)[None]
    A = model.increment_gram(model.increments(times))[:, order][:, :, order]
    L, _, _ = batch_cholesky(A, times)
    return L[0].diagonal() ** 2 / A[0].diagonal()


def slnd_ratio(model: ProcessModel, tt: TimeTuple, M: Iterable[int]) -> float:
    """Gamma / (complement Gram determinant * product of squared norms over M).

    Computed as G(all normalized) / G(complement normalized): with the
    complement ordered first, that quotient is the product of the squared
    Cholesky pivots of G at the indices in M.  M = full set is allowed and
    M = empty set returns 1 by convention.
    """
    k1 = tt.k - 1
    M = sorted(set(int(i) for i in M))
    if any(i < 1 or i > k1 for i in M):
        raise ValidationError(f"subset {M} out of range 1..{k1}")
    if not M:
        return 1.0
    order = [i - 1 for i in range(1, k1 + 1) if i not in M] + [i - 1 for i in M]
    return float(np.multiply.reduce(_pivot_ratios(model, tt.times, order)[k1 - len(M):]))


def slnd_scan(
    model: ProcessModel,
    base_tt: TimeTuple,
    M: Iterable[int],
    gap_sequence: Sequence[float],
) -> SLNDReport:
    """Shrink the M-indexed gaps toward their left endpoints and record ratios."""
    M = sorted(set(int(i) for i in M))
    gap_sequence = decreasing_values(gap_sequence, "scan gaps")
    ratios = [
        slnd_ratio(model, gap_scan_tuple(base_tt.times, M, g, model.grid.T), M)
        for g in gap_sequence
    ]
    return SLNDReport(tuple(gap_sequence), tuple(ratios))


def berman_stat(model: ProcessModel, tt: TimeTuple) -> float:
    """Gram determinant of the normalized value x(t_1) and normalized increments.

    x(t_1) is the increment over [0, t_1], since g(0) = 0 in every model.
    """
    if not tt.times[0] > 0:
        raise ValidationError(f"t1 = {tt.times[0]}: x(0) = 0 in every model, need t1 > 0")
    return float(np.multiply.reduce(_pivot_ratios(model, (0.0,) + tt.times, range(tt.k))))


def berman_scan(
    model: ProcessModel,
    t1: float,
    m: int,
    window_sequence: Sequence[float],
) -> SLNDReport:
    """Berman statistic for m equispaced points in a shrinking window after t_1.

    The statistic tends to 1 as the window shrinks; the report records it per
    window and judges nothing.  The infimum over all tuples in Berman's
    definition is not computable and is not claimed.
    """
    window_sequence = decreasing_values(window_sequence, "scan windows")
    stats = []
    for wdw in window_sequence:
        times = t1 + np.linspace(0.0, wdw, m)
        if times[-1] > model.grid.T + 1e-12:
            raise ValidationError(f"window {wdw} leaves the interval [0, {model.grid.T}]")
        stats.append(berman_stat(model, TimeTuple(times)))
    return SLNDReport(tuple(window_sequence), tuple(stats))


def projection_decay(
    model: ProcessModel, t1: float, t2: float, h: GridFunction
) -> float:
    """|(h, dg)| / ||dg|| for the increment on [t1, t2] (= ||P_{t1 t2} h||)."""
    if not t1 < t2:
        raise ValidationError("need t1 < t2")
    return math.sqrt(projection_norm_sq(model, (t1, t2), h))


def point_projection_norm_sq(model: ProcessModel, t1: float, h: GridFunction) -> float:
    """||projection of h on g(t1)||^2 = (h, g(t1))^2 / ||g(t1)||^2."""
    if not t1 > 0:
        raise ValidationError(f"t1 = {t1}: x(0) = 0 in every model, need t1 > 0")
    return projection_norm_sq(model, (0.0, t1), h)
