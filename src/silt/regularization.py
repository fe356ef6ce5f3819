"""Inclusion-exclusion regularization of the transform integrand.

The regularized integrand is Gamma^{-1} times the alternating sum over
subsets M of exp(-||P_M h||^2 terms); because subset projection norms are
additive over the orthonormalized increments, the alternating sum telescopes
into a product, evaluated in the numerically stable expm1 form by the
batched integrand; the scalar integrand is its B=1 call.  The Wiener product form,
built from per-interval projections without any Gram matrix, provides an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .function_space import (
    Grid,
    GridFunction,
    KernelOperator,
    cumulative,
    inner,
    make_grid,
    operator_norm,
)
from .gram import (
    TimeTuple,
    batch_projections,
    decreasing_values,
    gap_scan_tuple,
    wiener_projections,
)
from .process_models import ProcessModel
from .quadrature import gap_lattice, integrate_simplex_level, integrate_simplex_orders
from .transform import batch_fw_limit

# Gauss points per coordinate of the orders that regularized_integral tries in turn
_ORDERS = (4, 8, 12, 16, 24, 32)
# Gauss orders of the Schur-test checks, and truncation and orders of the
# iterated-product bound check
_SCHUR_CELLS = 1024
_SCHUR_KERNEL_CELLS = 512
_ITERATED_MIN_GAP = 1e-6
_ITERATED_GAP_CELLS = 32
_ITERATED_T_CELLS = 32


def _check_k(k: int) -> None:
    """The simplex lattices are sized for k = 2, 3, 4; a larger k would have too many nodes."""
    if k not in (2, 3, 4):
        raise ValidationError(f"multiplicity k must be 2, 3 or 4, got {k}")


def default_min_gap(grid: Grid) -> float:
    """Diagonal exclusion floor tied to grid resolution."""
    return max(1e-6, 2.0 * grid.T / grid.n)


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the Gauss simplex quadrature; ``levels`` caps the orders tried."""

    k: int
    levels: int = 6
    min_gap: Optional[float] = None
    tol: float = 1e-3

    def __post_init__(self):
        _check_k(self.k)
        if not 2 <= self.levels <= len(_ORDERS):
            raise ValidationError(f"levels must lie in 2..{len(_ORDERS)}, got {self.levels}")
        if not 0 < self.tol < math.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class RegularizedValue:
    """Level estimates and convergence diagnostics of a regularized integral."""

    value: float
    level_estimates: Tuple[float, ...]
    error_estimate: float  # the last difference of successive level estimates
    converged: bool


def product_form_wiener(tt: TimeTuple, h1: GridFunction, h2: GridFunction) -> float:
    """Factorized Wiener form: prod_i (1 - e^{-(per-interval projections)/2}) / prod gaps."""
    out = 1.0
    for (p1, p2), gap in zip(wiener_projections(tt, h1, h2), tt.gaps):
        out *= -math.expm1(-0.5 * (p1 + p2)) / gap
    return float(out)


def batch_regularized_integrand(model: ProcessModel, h1: GridFunction, h2: GridFunction):
    """Vectorized regularized integrand over arrays of time tuples (B, k) -> (B,).

    The 2^{k-1}-term alternating sum over subsets is evaluated by recursively
    pairing the subsets that differ in one index: each pairing step factors
    out (1 - e^{-a_i}) exactly, so the result is a rearrangement of the
    literal sum that avoids its catastrophic cancellation (the literal sum
    has O(1) terms but a result that can be many orders of magnitude
    smaller).  Works from the model's structured primitives; no factor rows
    are built.
    """
    projections = batch_projections(model, h1, h2)

    def f(times: np.ndarray) -> np.ndarray:
        gamma, (y1, y2) = projections(times)
        return np.multiply.reduce(-np.expm1(-0.5 * (y1**2 + y2**2)), axis=1) / gamma

    return f


def regularized_integrand(
    model: ProcessModel, tt: TimeTuple, h1: GridFunction, h2: GridFunction
) -> float:
    """Gamma^{-1} sum over subsets M of (-1)^|M| exp(-||P_M h||^2 terms / 2).

    The B=1 call of ``batch_regularized_integrand``.
    """
    f = batch_regularized_integrand(model, h1, h2)
    return float(f(np.asarray(tt.times)[None])[0])


def regularized_integral(
    model: ProcessModel,
    k: int,
    h1: GridFunction,
    h2: GridFunction,
    spec: Optional[QuadratureSpec] = None,
) -> RegularizedValue:
    """Integral of the regularized integrand over the ordered simplex.

    Stops at the first difference of successive estimates that is at most tol (1 + |value|)
    and no larger than the difference before it; a lone difference is never trusted.
    """
    spec = spec if spec is not None else QuadratureSpec(k=k)
    if spec.k != k:
        raise ValidationError(f"spec.k={spec.k} does not match k={k}")
    min_gap = spec.min_gap if spec.min_gap is not None else default_min_gap(model.grid)
    f = batch_regularized_integrand(model, h1, h2)
    T, estimates, orders = model.grid.T, [], [(o, o) for o in _ORDERS[: spec.levels]]
    # the stop rule needs three estimates, so the first three orders share one stream
    for run in (orders[:3], *([order] for order in orders[3:])):
        estimates += integrate_simplex_orders(T, k, f, min_gap, run, closure=True)
        last = estimates[-3:]
        diffs = [abs(b - a) for a, b in zip(last, last[1:])]
        converged = len(diffs) == 2 and diffs[1] <= min(diffs[0], spec.tol * (1 + abs(last[-1])))
        if converged:
            break
    return RegularizedValue(estimates[-1], tuple(estimates), diffs[-1], converged)


def divergence_probe(
    model: ProcessModel,
    k: int,
    h1: GridFunction,
    h2: GridFunction,
    deltas: Sequence[float],
    normalization: str = "paper",
    gap_cells: int = 384,
    t_cells: int = 192,
    chunk: int = 4096,
) -> List[Tuple[float, float]]:
    """Unregularized integral over the delta-truncated simplex, per delta.

    No diagonal closure: the point is to watch the truncated values grow
    without bound as delta decreases.
    """
    _check_k(k)
    deltas = decreasing_values(deltas, "deltas")
    T, f = model.grid.T, batch_fw_limit(model, h1, h2, normalization)
    return [
        (d, integrate_simplex_level(T, k, f, d, gap_cells, t_cells, closure=False, chunk=chunk))
        for d in deltas
    ]


def integrand_diagonal_scan(
    model: ProcessModel,
    base_times: Sequence[float],
    index: int,
    gaps: Sequence[float],
    h1: GridFunction,
    h2: GridFunction,
) -> List[Tuple[float, float]]:
    """|regularized integrand| along a shrinking gap, other gaps fixed.

    Gap ``index`` (1-based) of the base tuple is replaced by each value in
    ``gaps``; later times shift to keep the remaining gaps unchanged.
    """
    gaps = decreasing_values(gaps, "scan gaps")
    tts = [gap_scan_tuple(base_times, [index], g, model.grid.T) for g in gaps]
    return [(g, abs(regularized_integrand(model, tt, h1, h2))) for g, tt in zip(gaps, tts)]


# ---------------------------------------------------------------------------
# Schur-test machinery behind the finiteness proof


def _norm_sq_on(h: GridFunction, a: float) -> float:
    """Exact integral of h^2 over [a, T] for cellwise-constant h."""
    w = h.grid.weight
    edges = np.arange(h.grid.n) * w
    cover = np.clip((edges + w - a) / w, 0.0, 1.0)
    return float(np.sum(h.values**2 * cover) * w)


def schur_bound_check(h: GridFunction, a: float = 0.0) -> Tuple[float, float, bool]:
    """Check int_a^T (int_a^t h)^2 / (t-a)^2 dt <= 8 ||h||^2 on [a, T].

    The left side is integrated at Gauss points in log(t - a), with the
    linear closure toward t = a (the integrand is bounded there,
    approaching h(a)^2).
    """
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    T = h.grid.T
    if not 0 <= a < T:
        raise ValidationError(f"left endpoint a={a} must lie in [0, T={T})")
    edges, cum = cumulative(h)
    x, wts = gap_lattice(T - a, 2, (T - a) * 1e-10, _SCHUR_CELLS, closure=True)
    x = x[:, 0]                                # t - a, log-graded
    H = np.interp(a + x, edges, cum) - np.interp(a, edges, cum)
    lhs = float(np.sum((H / x) ** 2 * wts))
    rhs = 8.0 * _norm_sq_on(h, a)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)


def schur_kernel_norm() -> float:
    """Power-iteration norm of the discretized kernel 1/(s2-a) on {s2 > s1}.

    On every interval [a, T] the matrix is 1/(j + 1/2) for j > i, so [0, 1] serves all.
    """
    grid = make_grid(1.0, _SCHUR_KERNEL_CELLS)

    def kernel(s1, s2):
        return np.where(s2 > s1, 1.0 / s2, 0.0)

    return operator_norm(KernelOperator.from_kernel(grid, kernel))


def iterated_bound_check(h: GridFunction, k: int) -> Tuple[float, float, bool]:
    """Compare the iterated-product integral against (8 ||h||^2)^{k-1}.

    Integrates prod_i (int_{t_i}^{t_{i+1}} h)^2 / gap_i^2 over the simplex
    truncated at _ITERATED_MIN_GAP (the integral is monotone in the truncation).
    """
    if k not in (2, 3):
        raise ValidationError(f"iterated bound check supports k in {{2, 3}}, got {k}")
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    edges, cum = cumulative(h)
    nsq = inner(h, h)
    bound = (8.0 * nsq) ** (k - 1)
    if nsq == 0.0:
        return 0.0, 0.0, True

    def integrand(times: np.ndarray) -> np.ndarray:
        H = np.interp(times, edges, cum)
        dH = np.diff(H, axis=1)
        g = np.diff(times, axis=1)
        return np.prod((dH / g) ** 2, axis=1)

    val = integrate_simplex_level(
        h.grid.T, k, integrand, _ITERATED_MIN_GAP, _ITERATED_GAP_CELLS, _ITERATED_T_CELLS,
        closure=False,
    )
    return float(val), bound, val <= bound * (1.0 + 1e-6)
