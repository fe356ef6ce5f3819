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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .function_space import GridFunction, cell_table
from .gram import TimeTuple, batch_projections, decreasing_values
from .process_models import ProcessModel
from .quadrature import QuadratureSpec, RegularizedValue, check_converged, integrate_simplex
from .quadrature import integrate_simplex_orders
from .transform import batch_fw_limit, wiener_projections


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
    smaller).  Works from the model's structured primitives.
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
    """Integral of the regularized integrand over the ordered simplex
    (``integrate_simplex``)."""
    spec = spec if spec is not None else QuadratureSpec(k=k)
    if spec.k != k:
        raise ValidationError(f"spec.k={spec.k} does not match k={k}")
    return integrate_simplex(model.grid.T, batch_regularized_integrand(model, h1, h2), spec)


def divergence_probe(
    model: ProcessModel,
    k: int,
    h1: GridFunction,
    h2: GridFunction,
    deltas: Sequence[float],
    normalization: str = "paper",
    gap_cells: Optional[int] = None,
    t_cells: Optional[int] = None,
    chunk: int = 4096,
) -> List[Tuple[float, float]]:
    """Unregularized integral over the delta-truncated simplex, per delta.

    Each truncation is integrated in log(gap) above delta by ``integrate_simplex``: the
    point is to watch the truncated values grow without bound as delta decreases.  The
    first delta whose estimates do not converge raises ``SiltError``.
    """
    deltas = decreasing_values(deltas, "deltas")
    T, f = model.grid.T, batch_fw_limit(model, h1, h2, normalization)
    if (gap_cells is None) != (t_cells is None):
        raise ValidationError("gap_cells and t_cells are given together or not at all")
    if gap_cells is not None:
        # One fixed order, which the diverge benchmark passes; the [benchmark] edit of
        # ROADMAP item 1 moves that workload to the driver and deletes this branch.
        order = [(gap_cells, t_cells)]
        return [(d, integrate_simplex_orders(T, k, f, d, order, chunk)[0]) for d in deltas]
    rows = []
    for d in deltas:
        spec = QuadratureSpec(k, min_gap=d)
        rv = integrate_simplex(T, f, spec, chunk)
        check_converged(rv, spec.tol, f"delta {d!r} ")
        rows.append((d, rv.value))
    return rows


# ---------------------------------------------------------------------------
# Schur-test machinery behind the finiteness proof


def schur_bound_check(h: GridFunction, a: float = 0.0) -> Tuple[float, float, bool]:
    """Check int_a^T (int_a^t h)^2 / (t-a)^2 dt <= 8 ||h||^2 on [a, T].

    Both sides are exact for cellwise-constant h.  On a cell [a + x0, a + x1] past a,
    int_a^t h = s x + d with x = t - a, s the cell's value and d = int_a^{a + x0} h - s x0,
    so the cell adds s^2 D + 2 s d log1p(D / x0) + d^2 D / (x0 x1) to the left side and
    s^2 D to ||h||^2, D = x1 - x0; the cell holding a has x0 = d = 0 and adds s^2 D to both.
    """
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    T = h.grid.T
    if not 0 <= a < T:
        raise ValidationError(f"left endpoint a={a} must lie in [0, T={T})")
    edges = cell_table(h.grid, False)[0]
    past = edges[1:] > a
    x0, x1, s = np.maximum(edges[:-1][past] - a, 0.0), edges[1:][past] - a, h.values[past]
    D = x1 - x0
    d = np.concatenate([[0.0], np.cumsum(s * D)[:-1]]) - s * x0
    norm_sq = float(np.sum(s * s * D))
    x0, x1, s, d, D = x0[1:], x1[1:], s[1:], d[1:], D[1:]
    lhs = norm_sq + float(np.sum(2.0 * s * d * np.log1p(D / x0) + d * d * D / (x0 * x1)))
    rhs = 8.0 * norm_sq
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)
