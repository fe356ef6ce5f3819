"""Inclusion-exclusion regularization of the transform integrand.

The regularized integrand is Gamma^{-1} times the alternating sum over
subsets M of exp(-||P_M h||^2 terms); because subset projection norms are
additive over the orthonormalized increments, the alternating sum telescopes
into a product, which both the scalar and the batched quadrature paths
evaluate in the numerically stable expm1 form.  The Wiener product form,
built from per-interval projections without any Gram matrix, provides an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .function_space import GridFunction, Grid, GridMismatchError, inner
from .gram import (
    TimeTuple,
    batch_decompose,
    batch_ortho_coeffs,
    decompose,
    single_interval_projection,
)
from .process_models import ProcessModel, wiener_model
from .quadrature import integrate_simplex_level, level_schedule
from .transform import NORMALIZATIONS

_BASE_CELLS = {2: 12.0, 3: 4.0, 4: 1.6}


def default_min_gap(grid: Grid) -> float:
    """Diagonal exclusion floor tied to grid resolution."""
    return max(1e-6, 2.0 * grid.T / grid.n)


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the graded simplex quadrature."""

    k: int
    levels: int = 6
    grading: float = 2.0
    min_gap: Optional[float] = None
    tol: float = 1e-3
    base_cells: Optional[float] = None
    t_cells: Optional[float] = None
    diagonal_closure: bool = True
    chunk: int = 4096

    def __post_init__(self):
        if self.k not in (2, 3, 4):
            raise ValidationError(f"multiplicity k must be 2, 3 or 4, got {self.k}")
        if self.levels < 2:
            raise ValidationError("need at least 2 refinement levels")
        if self.grading <= 1:
            raise ValidationError("grading factor must exceed 1")

    def resolve(self, grid: Grid) -> Tuple[float, float, float]:
        gap = self.min_gap if self.min_gap is not None else default_min_gap(grid)
        base = self.base_cells if self.base_cells is not None else _BASE_CELLS[self.k]
        tc = self.t_cells if self.t_cells is not None else base
        return gap, base, tc


@dataclass(frozen=True)
class RegularizedValue:
    """Level estimates and convergence diagnostics of a regularized integral."""

    value: float
    level_estimates: Tuple[float, ...]
    refinement_ratios: Tuple[float, ...]
    converged: bool


def regularized_integrand(
    model: ProcessModel, tt: TimeTuple, h1: GridFunction, h2: GridFunction
) -> float:
    """Gamma^{-1} sum over subsets M of (-1)^|M| exp(-||P_M h||^2 terms / 2).

    The 2^{k-1}-term alternating sum is evaluated by recursively pairing the
    subsets that differ in one index: each pairing step factors out
    (1 - e^{-a_i}) exactly, so the result is a rearrangement of the literal
    sum that avoids its catastrophic cancellation (the literal sum has O(1)
    terms but a result that can be many orders of magnitude smaller).
    """
    dec = decompose(model, tt)
    a = 0.5 * (dec.ortho_coeffs(h1) ** 2 + dec.ortho_coeffs(h2) ** 2)
    total = 1.0
    for ai in a:
        total *= -math.expm1(-ai)
    return total / dec.gamma


def product_form_wiener(tt: TimeTuple, h1: GridFunction, h2: GridFunction) -> float:
    """Factorized Wiener form: prod_i (1 - e^{-(per-interval projections)/2}) / prod gaps."""
    model = wiener_model(h1.grid)
    out = 1.0
    for lo, hi in zip(tt.times[:-1], tt.times[1:]):
        p = single_interval_projection(model, lo, hi, h1) + single_interval_projection(
            model, lo, hi, h2
        )
        out *= -math.expm1(-0.5 * p) / (hi - lo)
    return out


def batch_regularized_integrand(model: ProcessModel, h1: GridFunction, h2: GridFunction):
    """Vectorized integrand over arrays of time tuples (B, k) -> (B,).

    Works from the model's structured primitives; no factor rows are built.
    """
    pair1, pair2 = model.pairing(h1), model.pairing(h2)

    def f(times: np.ndarray) -> np.ndarray:
        inc, L, gamma = batch_decompose(model, times)
        q = 0.5 * (
            batch_ortho_coeffs(L, pair1(inc)) ** 2 + batch_ortho_coeffs(L, pair2(inc)) ** 2
        )
        return np.prod(-np.expm1(-q), axis=1) / gamma

    return f


def batch_fw_limit(
    model: ProcessModel,
    h1: GridFunction,
    h2: GridFunction,
    normalization: str = "paper",
):
    """Vectorized unregularized limit integrand (the divergent one)."""
    if normalization not in NORMALIZATIONS:
        raise ValidationError(f"unknown normalization '{normalization}'")
    pair1, pair2 = model.pairing(h1), model.pairing(h2)

    def f(times: np.ndarray) -> np.ndarray:
        inc, L, gamma = batch_decompose(model, times)
        proj = (batch_ortho_coeffs(L, pair1(inc)) ** 2).sum(axis=1) + (
            batch_ortho_coeffs(L, pair2(inc)) ** 2
        ).sum(axis=1)
        factor = (
            1.0
            if normalization == "paper"
            else (2.0 * math.pi) ** (-(times.shape[1] - 1))
        )
        return factor * np.exp(-0.5 * proj) / gamma

    return f


def _check_pair(model: ProcessModel, h1: GridFunction, h2: GridFunction):
    for h in (h1, h2):
        if h.grid != model.grid or h.aux_dim != model.aux_dim:
            raise GridMismatchError("shift functions must live on the model's space")


def _run_levels(grid_T, k, integrand, spec: QuadratureSpec, min_gap, base, tcells):
    gap_cells = level_schedule(base, spec.grading, spec.levels)
    t_cells = level_schedule(tcells, spec.grading, spec.levels)
    estimates = [
        integrate_simplex_level(
            grid_T,
            k,
            integrand,
            min_gap,
            gc,
            tc,
            spec.diagonal_closure,
            chunk=spec.chunk,
        )
        for gc, tc in zip(gap_cells, t_cells)
    ]
    diffs = np.abs(np.diff(estimates))
    ratios = [
        float(diffs[i] / diffs[i + 1]) if diffs[i + 1] > 0 else math.inf
        for i in range(len(diffs) - 1)
    ]
    converged = bool(diffs[-1] <= spec.tol * (1.0 + abs(estimates[-1]))) if len(
        diffs
    ) else False
    return RegularizedValue(
        float(estimates[-1]), tuple(float(e) for e in estimates), tuple(ratios), converged
    )


def regularized_integral(
    model: ProcessModel,
    k: int,
    h1: GridFunction,
    h2: GridFunction,
    spec: Optional[QuadratureSpec] = None,
) -> RegularizedValue:
    """Integral of the regularized integrand over the ordered simplex."""
    spec = spec if spec is not None else QuadratureSpec(k=k)
    if spec.k != k:
        raise ValidationError(f"spec.k={spec.k} does not match k={k}")
    _check_pair(model, h1, h2)
    min_gap, base, tcells = spec.resolve(model.grid)
    integrand = batch_regularized_integrand(model, h1, h2)
    return _run_levels(model.grid.T, k, integrand, spec, min_gap, base, tcells)


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
    deltas = [float(d) for d in deltas]
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValidationError("deltas must be strictly decreasing")
    if deltas[-1] <= 0:
        raise ValidationError("deltas must be positive")
    _check_pair(model, h1, h2)
    integrand = batch_fw_limit(model, h1, h2, normalization)
    out = []
    for d in deltas:
        val = integrate_simplex_level(
            model.grid.T, k, integrand, d, gap_cells, t_cells, closure=False, chunk=chunk
        )
        out.append((d, float(val)))
    return out


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
    base = list(float(t) for t in base_times)
    base_gaps = np.diff(base)
    if not 1 <= index <= len(base_gaps):
        raise ValidationError(f"gap index {index} out of range")
    out = []
    for g in gaps:
        new_gaps = base_gaps.copy()
        new_gaps[index - 1] = g
        times = np.concatenate([[base[0]], base[0] + np.cumsum(new_gaps)])
        if times[-1] > model.grid.T:
            raise ValidationError("scanned tuple leaves the model interval")
        tt = TimeTuple(times, min_gap=min(1e-12 + g / 2, 1e-9))
        out.append((float(g), abs(regularized_integrand(model, tt, h1, h2))))
    return out


# ---------------------------------------------------------------------------
# Schur-test machinery behind the finiteness proof


def _cumulative(h: GridFunction) -> Tuple[np.ndarray, np.ndarray]:
    """Breakpoints and exact cumulative integral of a cellwise-constant h."""
    w = h.grid.weight
    edges = np.arange(h.grid.n + 1) * w
    cum = np.concatenate([[0.0], np.cumsum(h.values) * w])
    return edges, cum


def _norm_sq_on(h: GridFunction, a: float) -> float:
    """Exact integral of h^2 over [a, T] for cellwise-constant h."""
    w = h.grid.weight
    edges = np.arange(h.grid.n) * w
    cover = np.clip((edges + w - a) / w, 0.0, 1.0)
    return float(np.sum(h.values**2 * cover) * w)


def schur_bound_check(
    h: GridFunction, a: float = 0.0, cells: int = 4096
) -> Tuple[float, float, bool]:
    """Check int_a^T (int_a^t h)^2 / (t-a)^2 dt <= 8 ||h||^2 on [a, T].

    The left side is integrated on a logarithmically graded lattice toward
    t = a (the integrand is bounded there, approaching h(a)^2).
    """
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    T = h.grid.T
    if not a < T:
        raise ValidationError(f"left endpoint a={a} must be below T={T}")
    edges, cum = _cumulative(h)
    span = T - a
    floor = span * 1e-10
    v = (np.arange(cells) + 0.5) / cells
    x = floor * (span / floor) ** v            # t - a, log-graded
    wts = x * math.log(span / floor) / cells
    x = np.concatenate([[floor], x])
    wts = np.concatenate([[floor], wts])
    H = np.interp(a + x, edges, cum) - np.interp(a, edges, cum)
    lhs = float(np.sum((H / x) ** 2 * wts))
    rhs = 8.0 * _norm_sq_on(h, a)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)


def schur_kernel_norm(a: float = 0.0, T: float = 1.0, cells: int = 512) -> float:
    """Power-iteration norm of the discretized kernel 1/(s2-a) on {s2 > s1}."""
    from .function_space import KernelOperator, make_grid, operator_norm

    grid = make_grid(T - a, cells)

    def kernel(s1, s2):
        return np.where(s2 > s1, 1.0 / s2, 0.0)

    return operator_norm(KernelOperator.from_kernel(grid, kernel))


def iterated_bound_check(
    h: GridFunction,
    k: int,
    min_gap: float = 1e-6,
    gap_cells: int = 192,
    t_cells: int = 128,
) -> Tuple[float, float, bool]:
    """Compare the iterated-product integral against (8 ||h||^2)^{k-1}.

    Integrates prod_i (int_{t_i}^{t_{i+1}} h)^2 / gap_i^2 over the simplex
    truncated at min_gap (the integral is monotone in the truncation).
    """
    if k not in (2, 3):
        raise ValidationError(f"iterated bound check supports k in {{2, 3}}, got {k}")
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    edges, cum = _cumulative(h)
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
        h.grid.T, k, integrand, min_gap, gap_cells, t_cells, closure=False
    )
    return float(val), bound, val <= bound * (1.0 + 1e-6)
