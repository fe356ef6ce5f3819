"""Singularity-aware quadrature over the ordered simplex.

Coordinates are (t_1, gap_1, ..., gap_{k-1}).  Each gap variable is
integrated on a logarithmic (geometrically graded) midpoint lattice from a
diagonal exclusion floor up to its row-dependent upper limit; the first time
t_1 is scaled onto the leftover interval, so the lattice covers the simplex
exactly with no boundary indicator.  An optional closure node accounts for
the sliver below the exclusion floor by constant extension of the (bounded)
integrand.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from .errors import ValidationError


def gap_lattice(
    T: float,
    k: int,
    min_gap: float,
    n_cells: int,
    closure: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gap tuples (B, k-1) and weights (B,) covering the simplex gap region."""
    if not 0 < min_gap < T:
        raise ValidationError(f"min_gap {min_gap} must lie in (0, T)")
    gaps = np.zeros((1, 0))
    wts = np.ones(1)
    v = (np.arange(n_cells) + 0.5) / n_cells
    for _ in range(k - 1):
        upper = T - gaps.sum(axis=1)
        keep = upper > min_gap * (1.0 + 1e-12)
        gaps, wts, upper = gaps[keep], wts[keep], upper[keep]
        if gaps.shape[0] == 0:
            break
        ratio = upper / min_gap
        g = min_gap * ratio[:, None] ** v[None, :]
        logr = np.log(ratio)[:, None]
        gw = g * logr / n_cells
        if closure:
            pad = np.full((g.shape[0], 1), min_gap)
            g = np.concatenate([pad, g], axis=1)
            gw = np.concatenate([pad, gw], axis=1)
        ncols = g.shape[1]
        gaps = np.concatenate(
            [np.repeat(gaps, ncols, axis=0), g.reshape(-1, 1)], axis=1
        )
        wts = (wts[:, None] * gw).ravel()
    return gaps, wts


def integrate_simplex_level(
    T: float,
    k: int,
    integrand: Callable[[np.ndarray], np.ndarray],
    min_gap: float,
    gap_cells: int,
    t_cells: int,
    closure: bool,
    chunk: int = 4096,
) -> float:
    """One fixed-level estimate of the integral over the ordered simplex.

    ``integrand`` maps an array of time tuples (B, k) to values (B,).
    Reduction uses numpy's pairwise summation per chunk plus a final pairwise
    pass, so the result does not depend on how work would be distributed.
    """
    gaps, wts = gap_lattice(T, k, min_gap, gap_cells, closure)
    if gaps.shape[0] == 0:
        return 0.0
    rest = T - gaps.sum(axis=1)
    p = (np.arange(t_cells) + 0.5) / t_cells
    prefix = np.concatenate(
        [np.zeros((gaps.shape[0], 1)), np.cumsum(gaps, axis=1)], axis=1
    )
    rows_per_chunk = max(1, chunk // t_cells)
    partials: List[float] = []
    for lo in range(0, gaps.shape[0], rows_per_chunk):
        hi = min(lo + rows_per_chunk, gaps.shape[0])
        t1 = rest[lo:hi, None] * p[None, :]                      # (R, t_cells)
        times = t1[:, :, None] + prefix[lo:hi, None, :]          # (R, t_cells, k)
        w = wts[lo:hi, None] * (rest[lo:hi, None] / t_cells)     # (R, 1)
        vals = integrand(times.reshape(-1, k)).reshape(hi - lo, t_cells)
        partials.append(float(np.sum(vals * w)))
    return float(np.sum(np.asarray(partials)))


def level_schedule(base: float, grading: float, levels: int) -> List[int]:
    """Cells per dimension at each refinement level."""
    if levels < 2:
        raise ValidationError("need at least 2 levels for a refinement ratio")
    return [max(2, math.ceil(base * grading ** (lev - 1))) for lev in range(1, levels + 1)]
