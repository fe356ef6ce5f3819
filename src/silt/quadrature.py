"""Gauss–Legendre quadrature over the ordered simplex.

Coordinates are (t_1, gap_1, ..., gap_{k-1}).  Each gap variable is
integrated over its row-dependent range [0, upper], linearly in the gap; the
first time t_1 is scaled onto the leftover interval, so the lattice covers the
simplex exactly with no boundary indicator.  Every coordinate uses the same
Gauss–Legendre rule on [0, 1], whose nodes are interior: no gap is ever zero.
A given floor ``min_gap`` truncates the simplex instead, integrating each gap
in log(gap) on [min_gap, upper], for integrands that grow like 1/gap.

``simplex_rule`` gives one order's nodes and weights in groups of lattice
rows, and ``integrate_simplex_orders`` evaluates the groups of several orders
as one stream, in integrand batches of at most ``chunk`` tuples, so that the
integrand's fixed cost per call is paid once for all of them.  Each order
reduces its own groups, so its estimate is bitwise that of a one-order call
whenever an integrand value does not depend on the rest of its batch.

``integrate_simplex``, the driver of every simplex integral in silt, tries the
orders ``_ORDERS`` in turn until the stop rule (``stop_reason``) holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SiltError, ValidationError

# largest row bound n_cells^(k-1) of a gap lattice that may be built
_MAX_LATTICE_ROWS = 10**6
# Gauss points per coordinate of the orders that integrate_simplex tries in turn.  Each is
# at least 1.5 times the one before: for an error C n^-p the last difference is the last
# error times (r^p - 1), r the ratio of the last two orders, so r >= 1.5 keeps it at least
# the error for p >= 1.71.  None is below 4, so each is exact for degree-3 monomials at k=4.
_ORDERS = (4, 6, 9, 14, 21, 32)

# Freeing one untouched 2 MiB block raises glibc's heap-trim threshold to 4 MiB, so batch
# temporaries (1.1 MB at k=3 on perturbed:sl) are not trimmed and refaulted per call.
np.empty(1 << 18)


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the Gauss simplex quadrature; ``levels`` caps the orders tried, and a
    ``min_gap`` truncates the simplex at that gap (None integrates all of it)."""

    k: int
    levels: int = 6
    min_gap: Optional[float] = None
    tol: float = 1e-3

    def __post_init__(self):
        # the orders are sized for k = 2, 3, 4: the top order has 32^k nodes, 1.05 M at k=4
        if self.k not in (2, 3, 4):
            raise ValidationError(f"multiplicity k must be 2, 3 or 4, got {self.k}")
        if not 2 <= self.levels <= len(_ORDERS):
            raise ValidationError(f"levels must lie in 2..{len(_ORDERS)}, got {self.levels}")
        if not 0 < self.tol < math.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class RegularizedValue:
    """Level estimates and convergence diagnostics of a simplex integral."""

    value: float
    level_estimates: Tuple[float, ...]
    error_estimate: float  # the last difference of successive level estimates
    converged: bool


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
    min_gap: Optional[float],
    n_cells: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gap tuples (B, k-1) and weights (B,) covering the simplex gap region.

    With ``min_gap`` None each gap takes ``n_cells`` Gauss points linearly on
    [0, upper].  A given ``min_gap`` truncates the region: each gap takes them in
    log(gap) on [min_gap, upper], and a row with no room above min_gap is dropped,
    so an empty truncation integrates to 0.
    """
    if min_gap is not None and not 0 < min_gap < T:
        raise ValidationError(f"min_gap {min_gap} must lie in (0, T)")
    rows = n_cells ** (k - 1)
    if rows > _MAX_LATTICE_ROWS:
        raise ValidationError(
            f"a k={k} lattice with {n_cells} points per gap has up to {rows} gap rows, "
            f"above the limit of {_MAX_LATTICE_ROWS}"
        )
    v, w = gauss_legendre(n_cells)
    gaps, wts = np.zeros((1, 0)), np.array([1.0])
    for _ in range(k - 1):
        upper = T - np.add.reduce(gaps, axis=1)
        if min_gap is None:
            g, gw = upper[:, None] * v, upper[:, None] * w
        else:
            keep = upper > min_gap * (1.0 + 1e-12)
            gaps, wts, upper = gaps[keep], wts[keep], upper[keep]
            ratio = upper / min_gap
            g = min_gap * ratio[:, None] ** v[None, :]
            gw = g * np.log(ratio)[:, None] * w[None, :]
        gaps = np.concatenate([gaps.repeat(n_cells, axis=0), g.reshape(-1, 1)], axis=1)
        wts = (wts[:, None] * gw).ravel()
    return gaps, wts


def simplex_rule(
    T: float,
    k: int,
    min_gap: Optional[float],
    gap_cells: int,
    t_cells: int,
    chunk: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One order's rule over the ordered simplex, in groups of max(1, chunk // t_cells)
    lattice rows: time tuples (R * t_cells, k) and weights (R, t_cells) per group.

    ``gap_cells`` and ``t_cells`` are the Gauss points per gap and in t_1.
    """
    gaps, wts = gap_lattice(T, k, min_gap, gap_cells)
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
    min_gap: Optional[float],
    orders: Sequence[Tuple[int, int]],
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
        for group in simplex_rule(T, k, min_gap, gap_cells, t_cells, chunk)
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


def integrate_simplex(
    T: float,
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    chunk: int = 4096,
) -> RegularizedValue:
    """Integral of ``f`` over the ordered simplex of ``spec.k`` times in [0, T], truncated
    at ``spec.min_gap`` if one is given: the first ``spec.levels`` orders of ``_ORDERS``
    in turn, up to the first estimate that meets the stop rule (``stop_reason``)."""
    estimates, orders = [], [(o, o) for o in _ORDERS[: spec.levels]]
    # the stop rule needs three estimates, so the first three orders share one stream
    for run in (orders[:3], *([order] for order in orders[3:])):
        estimates += integrate_simplex_orders(T, spec.k, f, spec.min_gap, run, chunk=chunk)
        why = stop_reason(estimates, spec.tol)
        if why is None:
            break
    diff = abs(estimates[-1] - estimates[-2])
    return RegularizedValue(estimates[-1], tuple(estimates), diff, why is None)


def stop_reason(estimates: Sequence[float], tol: float) -> Optional[str]:
    """The stop rule: None once the last difference of the estimates is at most tol (1 +
    |value|) and no larger than the one before it (a lone one never is), else why not."""
    last = estimates[-3:]
    diffs = [abs(b - a) for a, b in zip(last, last[1:])]
    bound = tol * (1.0 + abs(last[-1]))
    if diffs[-1] > bound:
        return f"> tol*(1+|value|) = {bound:.3e}"
    if len(diffs) == 1:
        return "is the only one, and a lone difference is not trusted (levels >= 3)"
    return None if diffs[1] <= diffs[0] else "grew from the difference before it"


def check_converged(rv: RegularizedValue, tol: float, what: str = "") -> None:
    """Raise ``SiltError`` unless ``rv``, integrated at ``tol``, converged; the message
    starts with ``what`` and names the last difference and the failed stop condition."""
    if not rv.converged:
        diff, why = rv.error_estimate, stop_reason(rv.level_estimates, tol)
        raise SiltError(f"{what}not converged: last level difference {diff:.3e} {why}")
