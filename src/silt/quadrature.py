"""Gauss–Legendre quadrature over the ordered simplex.

Coordinates are (t_1, gap_1, ..., gap_{k-1}).  Each gap variable is
integrated in log(gap), from a diagonal exclusion floor up to its
row-dependent upper limit; the first time t_1 is scaled onto the leftover
interval, so the lattice covers the simplex exactly with no boundary
indicator.  Every coordinate uses the same Gauss–Legendre rule on [0, 1].
An optional closure accounts for the sliver below the exclusion floor by
linear extrapolation of the (bounded) integrand.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Tuple

import numpy as np

from .errors import ValidationError


@functools.lru_cache
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss–Legendre rule on [0, 1]."""
    # Newton's method on the three-term recurrence of P_n, from the asymptotic roots
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(20):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    nodes, wts = 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * dp * dp)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def gap_lattice(
    T: float,
    k: int,
    min_gap: float,
    n_cells: int,
    closure: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gap tuples (B, k-1) and weights (B,) covering the simplex gap region.

    Each gap takes ``n_cells`` Gauss points in log(gap) on [min_gap, upper].
    ``closure`` adds the gaps min_gap and 2 min_gap, weighted 1.5 and -0.5
    times min_gap: [0, min_gap) at the integrand extrapolated to min_gap / 2.
    """
    if not 0 < min_gap < T:
        raise ValidationError(f"min_gap {min_gap} must lie in (0, T)")
    v, w = gauss_legendre(n_cells)
    floor = 2.0 * min_gap if closure else min_gap  # no closure node may leave [0, T]
    gaps, wts = np.zeros((1, 0)), np.ones(1)
    for _ in range(k - 1):
        upper = T - gaps.sum(axis=1)
        keep = upper > floor * (1.0 + 1e-12)
        gaps, wts, upper = gaps[keep], wts[keep], upper[keep]
        ratio = upper / min_gap
        g = min_gap * ratio[:, None] ** v[None, :]
        gw = g * np.log(ratio)[:, None] * w[None, :]
        if closure:
            pad = np.full((g.shape[0], 1), min_gap)
            g = np.concatenate([pad, 2.0 * pad, g], axis=1)
            gw = np.concatenate([1.5 * pad, -0.5 * pad, gw], axis=1)
        gaps = np.concatenate([np.repeat(gaps, g.shape[1], axis=0), g.reshape(-1, 1)], axis=1)
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
    """One fixed-order estimate of the integral over the ordered simplex.

    ``gap_cells`` and ``t_cells`` are the Gauss points per gap and in t_1.
    ``integrand`` maps an array of time tuples (B, k) to values (B,).
    Reduction uses numpy's pairwise summation per chunk plus a final pairwise
    pass, so the result does not depend on how work would be distributed.
    """
    gaps, wts = gap_lattice(T, k, min_gap, gap_cells, closure)
    rest = T - gaps.sum(axis=1)
    p, pw = gauss_legendre(t_cells)
    prefix = np.concatenate([np.zeros((gaps.shape[0], 1)), np.cumsum(gaps, axis=1)], axis=1)
    rows_per_chunk = max(1, chunk // t_cells)
    partials: List[float] = []
    for lo in range(0, gaps.shape[0], rows_per_chunk):
        hi = min(lo + rows_per_chunk, gaps.shape[0])
        t1 = rest[lo:hi, None] * p[None, :]                      # (R, t_cells)
        times = t1[:, :, None] + prefix[lo:hi, None, :]          # (R, t_cells, k)
        w = (wts[lo:hi] * rest[lo:hi])[:, None] * pw[None, :]    # (R, t_cells)
        vals = integrand(times.reshape(-1, k)).reshape(hi - lo, t_cells)
        partials.append(float(np.sum(vals * w)))
    return float(np.sum(np.asarray(partials)))
