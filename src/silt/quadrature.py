"""Gauss–Legendre quadrature over the ordered simplex.

Coordinates are (t_1, gap_1, ..., gap_{k-1}).  Each gap variable is
integrated in log(gap), from a diagonal exclusion floor up to its
row-dependent upper limit; the first time t_1 is scaled onto the leftover
interval, so the lattice covers the simplex exactly with no boundary
indicator.  Every coordinate uses the same Gauss–Legendre rule on [0, 1].
An optional closure accounts for the sliver below the exclusion floor by
linear extrapolation of the (bounded) integrand.

``simplex_rule`` gives one order's nodes and weights in groups of lattice
rows, and ``integrate_simplex_orders`` evaluates the groups of several orders
as one stream, in integrand batches of at most ``chunk`` tuples, so that the
integrand's fixed cost per call is paid once for all of them.  Each order
reduces its own groups, so its estimate is bitwise that of a separate
``integrate_simplex_level`` call whenever an integrand value does not depend
on the rest of its batch.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError

# largest row bound (n_cells + 2 closure)^(k-1) of a gap lattice that may be built
_MAX_LATTICE_ROWS = 10**6

# Freeing one untouched 2 MiB block raises glibc's heap-trim threshold to 4 MiB, so batch
# temporaries (3.4 MB at k=3 on perturbed:sl) are not trimmed and refaulted per call.
np.empty(1 << 18)


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
    A closure lattice with k*min_gap >= T keeps no row (no room for k-2 gaps and 2 min_gap).
    """
    if not 0 < min_gap < T:
        raise ValidationError(f"min_gap {min_gap} must lie in (0, T)")
    rows = (n_cells + 2 * closure) ** (k - 1)
    if rows > _MAX_LATTICE_ROWS:
        raise ValidationError(
            f"a k={k} lattice with {n_cells} points per gap has up to {rows} gap rows, "
            f"above the limit of {_MAX_LATTICE_ROWS}"
        )
    v, w = gauss_legendre(n_cells)
    floor = 2.0 * min_gap if closure else min_gap  # no closure node may leave [0, T]
    gaps, wts = np.zeros((1, 0)), np.array([1.0])
    for _ in range(k - 1):
        upper = T - np.add.reduce(gaps, axis=1)
        keep = upper > floor * (1.0 + 1e-12)
        gaps, wts, upper = gaps[keep], wts[keep], upper[keep]
        ratio = upper / min_gap
        g = min_gap * ratio[:, None] ** v[None, :]
        gw = g * np.log(ratio)[:, None] * w[None, :]
        if closure:
            pad = np.zeros((g.shape[0], 1)) + min_gap
            g = np.concatenate([pad, 2.0 * pad, g], axis=1)
            gw = np.concatenate([1.5 * pad, -0.5 * pad, gw], axis=1)
        gaps = np.concatenate([gaps.repeat(g.shape[1], axis=0), g.reshape(-1, 1)], axis=1)
        wts = (wts[:, None] * gw).ravel()
    if closure and not wts.size:
        raise ValidationError(f"a k={k} closure needs k*min_gap < T, got min_gap {min_gap}, T {T}")
    return gaps, wts


def simplex_rule(
    T: float,
    k: int,
    min_gap: float,
    gap_cells: int,
    t_cells: int,
    closure: bool,
    chunk: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One order's rule over the ordered simplex, in groups of max(1, chunk // t_cells)
    lattice rows: time tuples (R * t_cells, k) and weights (R, t_cells) per group.

    ``gap_cells`` and ``t_cells`` are the Gauss points per gap and in t_1.
    """
    gaps, wts = gap_lattice(T, k, min_gap, gap_cells, closure)
    rest = T - np.add.reduce(gaps, axis=1)
    p, pw = gauss_legendre(t_cells)
    prefix = np.concatenate([np.zeros((gaps.shape[0], 1)), np.add.accumulate(gaps, axis=1)], axis=1)
    rows = max(1, chunk // t_cells)
    for lo in range(0, gaps.shape[0], rows):
        r = slice(lo, lo + rows)
        times = (rest[r, None] * p)[:, :, None] + prefix[r, None, :]   # (R, t_cells, k)
        yield times.reshape(-1, k), (wts[r] * rest[r])[:, None] * pw    # (R, t_cells)


def integrate_simplex_orders(
    T: float,
    k: int,
    integrand: Callable[[np.ndarray], np.ndarray],
    min_gap: float,
    orders: Sequence[Tuple[int, int]],
    closure: bool,
    chunk: int = 4096,
) -> List[float]:
    """Fixed-order estimates of the integral over the ordered simplex, one per
    (gap_cells, t_cells) in ``orders``, from one stream of nodes.

    ``integrand`` maps an array of time tuples (B, k) to values (B,), each value
    independent of the rest of its batch.  The rule groups of all orders
    (``simplex_rule``) are evaluated in order, as many whole groups per call as
    fit in ``chunk`` tuples.  Each order reduces its own groups: numpy's pairwise
    sum per group plus a final pairwise pass over the group sums, so an estimate
    does not depend on the other orders of the stream.
    """
    groups = (
        (j, *group)
        for j, (gap_cells, t_cells) in enumerate(orders)
        for group in simplex_rule(T, k, min_gap, gap_cells, t_cells, closure, chunk)
    )
    partials: List[List[float]] = [[] for _ in orders]
    for batch in _batches(groups, chunk):
        vals, start = integrand(np.concatenate([times for _, times, _ in batch])), 0
        for j, _, w in batch:
            terms, start = vals[start : start + w.size].reshape(w.shape) * w, start + w.size
            partials[j].append(float(np.add.reduce(terms, None)))
    return [float(np.add.reduce(np.asarray(p))) for p in partials]


def _batches(groups: Iterable[tuple], chunk: int) -> Iterator[list]:
    """Consecutive (order, times, weights) groups, as many per batch as fit in
    ``chunk`` tuples; a larger group is a batch of its own."""
    batch: list = []
    n = 0
    for group in groups:
        if batch and n + len(group[1]) > chunk:
            yield batch
            batch, n = [], 0
        batch.append(group)
        n += len(group[1])
    if batch:
        yield batch


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
    """One fixed-order estimate of the integral over the ordered simplex: the
    one-order call of ``integrate_simplex_orders``."""
    return integrate_simplex_orders(
        T, k, integrand, min_gap, [(gap_cells, t_cells)], closure, chunk
    )[0]
