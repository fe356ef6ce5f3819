"""Diagnostics for strong local nondeterminism and Berman's local version.

Ratios are Gram determinants of normalized increments, which stay well
conditioned at small gaps.  Each is a product of the normalized pivots
s_j / A_jj that the Gram kernel's ``batch_cholesky`` returns, the numbers whose
product its one check judges; A is built in O(1) per time like every other
Gram matrix.  Scans drive the chosen gaps toward zero and return rows
(gap, ratio), whose defining limit is 1; the caller judges how close the last
one comes.  Projection decay, the paper's other half of the distinction, needs
no code here: it is the Gram kernel's ``projection_norm_sq`` on the two times
[t1, t2], or on (0, t1) for the projection on g(t1).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .gram import TimeTuple, batch_cholesky, decreasing_values, gap_scan_tuple
from .process_models import ProcessModel


def slnd_ratio(model: ProcessModel, tt: TimeTuple, M: Iterable[int]) -> float:
    """Gamma / (complement Gram determinant * product of squared norms over M).

    Computed as G(all normalized) / G(complement normalized): with the
    complement ordered first, that quotient is the product of the kernel's
    normalized pivots at the indices in M.  M = full set is allowed and
    M = empty set returns 1 by convention.
    """
    k1 = tt.k - 1
    M = sorted(set(int(i) for i in M))
    if any(i < 1 or i > k1 for i in M):
        raise ValidationError(f"subset {M} out of range 1..{k1}")
    if not M:
        return 1.0
    order = [i - 1 for i in range(1, k1 + 1) if i not in M] + [i - 1 for i in M]
    times = np.asarray(tt.times, dtype=float)[None]
    A = model.increment_gram(model.increments(times))[:, order][:, :, order]
    pivots, _, _ = batch_cholesky(A, times)
    return float(np.multiply.reduce(pivots[0, k1 - len(M) :]))


def slnd_scan(
    model: ProcessModel,
    base_tt: TimeTuple,
    M: Iterable[int],
    gap_sequence: Sequence[float],
) -> List[Tuple[float, float]]:
    """Shrink the M-indexed gaps toward their left endpoints: rows (gap, ratio)."""
    M = sorted(set(int(i) for i in M))
    return [
        (g, slnd_ratio(model, gap_scan_tuple(base_tt.times, M, g, model.grid.T), M))
        for g in decreasing_values(gap_sequence, "scan gaps")
    ]


def berman_stat(model: ProcessModel, tt: TimeTuple) -> float:
    """Gram determinant of the normalized value x(t_1) and normalized increments:
    the full-set ``slnd_ratio`` at (0, t_1, ..., t_k), the det G the check judged.

    x(t_1) is the increment over [0, t_1], since g(0) = 0 in every model.
    """
    if not tt.times[0] > 0:
        raise ValidationError(f"t1 = {tt.times[0]}: x(0) = 0 in every model, need t1 > 0")
    return slnd_ratio(model, TimeTuple((0.0,) + tt.times), range(1, tt.k + 1))


def berman_scan(
    model: ProcessModel,
    t1: float,
    m: int,
    window_sequence: Sequence[float],
) -> List[Tuple[float, float]]:
    """Berman statistic for m equispaced points in a shrinking window after t_1:
    rows (window, statistic).

    The statistic tends to 1 as the window shrinks; the rows judge nothing.
    The infimum over all tuples in Berman's definition is not computable and
    is not claimed.
    """
    rows = []
    for wdw in decreasing_values(window_sequence, "scan windows"):
        times = t1 + np.linspace(0.0, wdw, m)
        if times[-1] > model.grid.T + 1e-12:
            raise ValidationError(f"window {wdw} leaves the interval [0, {model.grid.T}]")
        rows.append((wdw, berman_stat(model, TimeTuple(times))))
    return rows

