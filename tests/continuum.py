"""The continuum oracle: exact increment rows of each model on a refined grid.

The refined grid cuts [0, T] at every cell edge and at every end of an interval.
On each of its cells the increments of wiener, counterexample and perturbed:file
are constant and those of perturbed:sl are smooth, so their values at the nodes of
a Gauss–Legendre rule on each cell (one node, or eight for perturbed:sl), scaled by
the square roots of the weights, are rows whose dot products are the continuum
inner products, to rounding.  The oracle reads the grid, the closed form of
S 1I_[0,t] and the perturbed:file matrix; it calls nothing of silt's kernel.

``iterated_bound_check``, criterion 7's iterated Schur bound from the paper's
finiteness proof, is no oracle: it integrates the kernel's Wiener projections,
and only the tests call it.
"""

import numpy as np

from silt import ValidationError, inner, wiener_model
from silt.gram import batch_projections
from silt.quadrature import QuadratureSpec, integrate_simplex

SL_NODES = 8


def sl_correction(a, b, u):
    """(S 1I_[0,b] - S 1I_[0,a])(u) of perturbed:sl, S 1I_[0,t](u) = -cos t sin u for
    u < t and -sin t cos u beyond, a <= b.  Below a and above b it is (cos a - cos b)
    sin u and (sin a - sin b) cos u, taken as products so that b near a keeps its digits."""
    half, mid = 2.0 * np.sin(0.5 * (b - a)), 0.5 * (a + b)
    inside = -np.cos(b) * np.sin(u) + np.sin(a) * np.cos(u)
    return np.where(u < a, half * np.sin(mid) * np.sin(u),
                    np.where(u > b, -half * np.cos(mid) * np.cos(u), inside))


def interval_rows(model, a, b, hs=(), kernel=None):
    """Rows (m, D) of g(b_i) - g(a_i) for intervals [a_i, b_i] and rows (len(hs), D) of
    the shifts, whose dot products are the continuum inner products.

    ``kernel`` is the matrix M of a perturbed:file model, which acts on the cell
    shares of an interval: S 1I_[a,b] is M x on the cells.
    """
    grid = model.grid
    n, w = grid.n, grid.weight
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]
    cuts = np.unique(np.concatenate([np.arange(n + 1) * w, a.ravel(), b.ravel()]))
    lo, hi = cuts[:-1], cuts[1:]
    lo, hi = lo[hi > lo], hi[hi > lo]
    x, c = np.polynomial.legendre.leggauss(SL_NODES if model.name == "perturbed:sl" else 1)
    half = 0.5 * (hi - lo)[:, None]
    u = (0.5 * (lo + hi)[:, None] + half * x).ravel()
    scale = np.sqrt((half * c).ravel())
    cell = np.minimum(np.floor(u / w), n - 1).astype(int)
    rows = ((a <= u) & (u < b)).astype(float)
    if model.name == "perturbed:sl":
        rows += sl_correction(a, b, u)
    if kernel is not None:
        edges = np.arange(n + 1) * w
        share = np.maximum(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]), 0.0) / w
        rows += (share @ kernel.T)[:, cell]
    rows *= scale
    shifts = np.zeros((len(hs), u.size + model.aux_dim))
    for row, h in zip(shifts, hs):
        row[: u.size], row[u.size :] = h.values[cell] * scale, h.aux
    if model.aux_dim:
        rows = np.hstack([rows, np.sqrt(b) - np.sqrt(a)])
    return rows, shifts


def increment_rows(model, times, hs=(), kernel=None):
    """``interval_rows`` of the increments of consecutive times."""
    times = np.asarray(times, dtype=float)
    return interval_rows(model, times[:-1], times[1:], hs, kernel)


def continuum_decompose(model, times, hs=(), kernel=None):
    """(A, gamma, ortho coefficients per shift) of one tuple from the continuum rows."""
    rows, shifts = increment_rows(model, times, hs, kernel)
    A = rows @ rows.T
    L = np.linalg.cholesky(A)
    return A, np.prod(np.diag(L)) ** 2, [np.linalg.solve(L, rows @ h) for h in shifts]


def iterated_bound_check(h, k):
    """Compare the iterated-product integral against (8 ||h||^2)^{k-1}: (value, bound, ok).

    Integrates prod_i (int_{t_i}^{t_{i+1}} h)^2 / gap_i^2 over the whole simplex, as
    prod_i y_i^2 / Gamma from the kernel's Wiener projections (``batch_projections``):
    there y_i^2 = (int h)^2 / gap_i and Gamma = prod gap_i.  ``integrate_simplex`` takes
    its ratio to the bound, so the value scales exactly with h^2; only a converged one passes.
    """
    if np.any(h.values < -1e-12):
        raise ValidationError("the bound applies to nonnegative h only")
    nsq = inner(h, h)
    bound = (8.0 * nsq) ** (k - 1)
    if nsq == 0.0:
        return 0.0, 0.0, True
    projections = batch_projections(wiener_model(h.grid), h)

    def ratio(times):
        gamma, (y,) = projections(times)
        return np.multiply.reduce(y * y, axis=1) / (gamma * bound)

    rv = integrate_simplex(h.grid.T, ratio, QuadratureSpec(k))
    return rv.value * bound, bound, rv.converged and rv.value <= 1.0 + 1e-6
