"""Named Gaussian process models given by their factor map t -> g(t).

Every process is represented through its factor map: x(t) = ((g(t),xi1),
(g(t),xi2)) for white noises xi, so covariances and all Gram machinery
reduce to inner products of factors.

The structured primitives (``increments``, ``increment_gram``, ``pairing``
and ``covariance``) give every Gram matrix, projection and ratio the package
computes, from the two-cell parameters of the indicators and O(n) prefix sums
built once per model or shift.  They work on increments g(b) - g(a), so that
the large common part of g(a) and g(b) never enters a difference.  The cell
format of the indicator steps belongs to ``function_space``: this module
reads the steps only through their methods and keeps the model math, the
perturbed:sl coefficients z, segment sums G and contractions, and the shift
and kernel tables.  A Gram matrix costs O(k) per tuple: the steps form a band
(``IndicatorIncrements.gram``).  The perturbed:sl corrections of a tuple live
in one basis of sin u and cos u on the k+1 segments between its times
(``_SLBasis``); perturbed:file pairs the steps through the 2-D prefix table
of its kernel (``kernel_form``).  Every per-tuple array is stored with the
tuple axis last, (..., B); ``increments`` checks and transposes the times
once, and the (B, m) and (B, m, m) arrays the primitives return are
transposed views.  ``factor_values`` builds the dense grid rows of g(t);
only the Monte Carlo sampler, ``silt selftest`` and the tests use them.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Tuple

import numpy as np

from .errors import ValidationError
from .function_space import (
    Grid,
    GridFunction,
    KernelOperator,
    GridMismatchError,
    IndicatorIncrements,
    cell_sums,
    grid_times,
    indicator_increments,
    indicator_values,
    operator_norm,
)

_SL_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class Increments:
    """Increments g(b) - g(a) of consecutive times, in a model's structured form.

    ``steps`` are the indicator differences 1I_[0,b] - 1I_[0,a]; ``extra`` is
    what the model adds to them: None, an array, or a tuple of arrays.
    """

    steps: IndicatorIncrements
    extra: Any


@dataclass(frozen=True)
class ProcessModel:
    """A process x(t) = (g(t), xi) described by its factor map g.

    ``_values`` is the dense factor map.  The structured primitives are
    ``_extra(times, steps)``, the model's part of ``Increments`` from the
    tuple-last times (k, B) and the steps; ``_gram(inc)``, the Gram matrices
    of a (B, m) batch of increments; and ``_pairing(h)``, which returns
    increments -> (g(b) - g(a), h).
    """

    name: str
    grid: Grid
    aux_dim: int
    _values: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    _extra: Callable[[np.ndarray], Any]
    _gram: Callable[[Increments], np.ndarray]
    _pairing: Callable[[GridFunction], Callable[[Increments], np.ndarray]]

    def factor_values(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized factor map: (B,) times -> grid values (B,n), aux (B,m)."""
        return self._values(grid_times(self.grid, np.atleast_1d(times)))

    def embedded_factors(self, times) -> np.ndarray:
        """Euclidean embeddings of g(t) for an array of times, shape (B, n+m)."""
        V, X = self.factor_values(times)
        return np.concatenate([V * math.sqrt(self.grid.weight), X], axis=1)

    def increments(self, times) -> Increments:
        """Structured increments g(b) - g(a) of consecutive times, O(1) each:
        (B, k) nondecreasing times -> (B, k-1) increments, stored tuple-last."""
        times = grid_times(self.grid, times)
        steps = indicator_increments(self.grid, times)
        return Increments(steps, self._extra(times.T, steps))

    def covariance(self, s, t) -> np.ndarray:
        """(g(s), g(t)) for broadcastable time arrays, O(1) per pair: A00 + A01 of the
        Gram matrix of the increments of (0, u, v), u = min(s, t), v = max(s, t)."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        u, v = np.minimum(s, t).ravel(), np.maximum(s, t).ravel()
        A = self.increment_gram(self.increments(np.stack([np.zeros_like(u), u, v], axis=-1)))
        return (A[:, 0, 0] + A[:, 0, 1]).reshape(s.shape)

    def increment_gram(self, inc: Increments) -> np.ndarray:
        """Gram matrices (B, m, m) of increments of shape (B, m)."""
        return self._gram(inc)

    def pairing(self, h: GridFunction) -> Callable[[Increments], np.ndarray]:
        """Increments -> (g(b) - g(a), h), from prefix sums built once per shift.

        t -> (g(t), h) is the pairing of the increments of (0, t).
        """
        if h.grid != self.grid or h.aux_dim != self.aux_dim:
            raise GridMismatchError("shift function must live on the model's space")
        return self._pairing(h)


def _prefix(x: np.ndarray) -> np.ndarray:
    """[0, cumsum(x)] along the last axis: range sums as differences."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.add.accumulate(x, axis=-1, out=out[..., 1:])
    return out


def _no_extra(times, steps):
    return None


def _steps_pairing(grid: Grid, x: np.ndarray) -> Callable[[Increments], np.ndarray]:
    """Increments -> sum over cells of the indicator differences times x, in L2 units."""
    cum = _prefix(x)
    return lambda inc: grid.weight * inc.steps.pair(x, cum)


def wiener_model(grid: Grid) -> ProcessModel:
    """Planar Wiener process: g(t) = 1I_[0,t]."""

    def values(ts):
        return indicator_values(grid, ts), np.zeros((len(ts), 0))

    def gram(inc):
        return grid.weight * inc.steps.gram()

    def pairing(h):
        return _steps_pairing(grid, h.values)

    return ProcessModel("wiener", grid, 0, values, _no_extra, gram, pairing)


def perturbed_model(grid: Grid, S: KernelOperator, name: str = "perturbed") -> ProcessModel:
    """Compact perturbation of the Wiener process: g(t) = (I+S) 1I_[0,t].

    Requires ||S|| < 1 (checked on the discretization); norms in [0.95, 1)
    only warn, at or above 1 the model is rejected.  The structured
    primitives hold the 2-D prefix table of K = (I+S)^T (I+S) - I, O(n^2) like
    the operator itself.
    """
    if S.grid != grid:
        raise GridMismatchError("perturbation operator lives on a different grid")
    nrm = operator_norm(S)
    if nrm >= 1.0:
        raise ValidationError(
            f"perturbation norm {nrm:.6f} >= 1; I+S has no continuous inverse"
        )
    if nrm >= 0.95:
        warnings.warn(
            f"perturbation norm {nrm:.6f} is close to 1; results may be fragile",
            stacklevel=2,
        )

    M = S.matrix
    K = M + M.T + M.T @ M
    P = _prefix(_prefix(K).T).T

    def rect(x0, x1, y0, y1):
        x1, y1 = np.maximum(x0, x1), np.maximum(y0, y1)
        return P[x1, y1] - P[x0, y1] - P[x1, y0] + P[x0, y0]

    def values(ts):
        ind = indicator_values(grid, ts)
        return ind + ind @ M.T, np.zeros((len(ts), 0))

    def gram(inc):
        return grid.weight * (inc.steps.gram() + inc.steps.kernel_form(rect, lambda i, j: K[i, j]))

    def pairing(h):
        return _steps_pairing(grid, h.values + M.T @ h.values)

    return ProcessModel(name, grid, 0, values, _no_extra, gram, pairing)


def sturm_liouville_operator(grid: Grid) -> KernelOperator:
    """The compact operator S whose action on indicators is the Green solution.

    Kernel: k(s,u) = -cos u cos s for u < s and sin u sin s for u >= s, so
    that (S 1I_[0,t])(s) = -cos t sin s for s < t and -sin t cos s for s > t.
    """
    if abs(grid.T - math.pi / 2) > _SL_ENDPOINT_TOL:
        raise ValidationError(
            f"Sturm-Liouville operator needs the interval [0, pi/2], got T={grid.T}"
        )

    def kernel(s, u):
        return np.where(u >= s, np.sin(u) * np.sin(s), -np.cos(u) * np.cos(s))

    return KernelOperator.from_kernel(grid, kernel)


def sl_factor_correction(grid: Grid, ts: np.ndarray) -> np.ndarray:
    """(S 1I_[0,t]) evaluated in closed form on the grid nodes, shape (B, n)."""
    u = grid.nodes[None, :]
    t = np.asarray(ts, dtype=float)[:, None]
    return np.where(u < t, -np.cos(t) * np.sin(u), -np.sin(t) * np.cos(u))


def _contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of x * y over the two leading (sin/cos, segment) axes, adding the terms in
    the order of the flattened axes whatever the batch size.  ``einsum`` does so while
    the tuple axis (last) is its inner loop, B >= 2, with no temporary larger than
    the result; one tuple accumulates the flattened products, in index order."""
    if x.shape[-1] > 1 or y.shape[-1] > 1:
        return np.einsum("ab...,ab...->...", x, y)
    terms = x * y
    return np.add.accumulate(terms.reshape((-1,) + terms.shape[2:]))[-1]


class _SLBasis:
    """S 1I_[0,b] - S 1I_[0,a] on the nodes, for the increments of a batch of
    tuples (B, k), in one basis of segments per tuple.

    With q(t) = #{nodes u_j < t}, the switch point of ``sl_factor_correction``,
    the times cut the cells into the k+1 segments [edges[s], edges[s+1]) with
    edges = (0, q(t_0), ..., q(t_{k-1}), n).  On segment s the difference of
    increment i (times t_i, t_{i+1}) is z[0, s, i] sin u + z[1, s, i] cos u:
    (cos t_i - cos t_{i+1}, 0) for s <= i, (-cos t_{i+1}, sin t_i) for s = i+1
    and (0, sin t_i - sin t_{i+1}) beyond.  Sums over segments are differences
    of the node-sampled prefix sums of sin u, cos u and their products.  The
    tuple axis is last, so that every pass over these arrays runs over B
    contiguous values.
    """

    def __init__(self, grid: Grid):
        self.grid, self.n, self.u = grid, grid.n, grid.nodes
        self.trig = np.stack([np.sin(self.u), np.cos(self.u)])
        self.trig_sums = _prefix(self.trig)
        self.products = self.trig[[0, 0, 1]] * self.trig[[0, 1, 1]]  # sin^2, sin cos, cos^2
        self.product_sums = _prefix(self.products)

    def segments(self, times, steps: IndicatorIncrements):
        """(edges (k+2, B), z (2, k+1, k-1, B)) of a batch of tuples, times (k, B)."""
        q = steps.switch_points(self.u, times)
        edges = np.empty((len(q) + 2,) + q.shape[1:], dtype=q.dtype)
        edges[0], edges[1:-1], edges[-1] = 0, q, self.n
        c, s = np.cos(times), np.sin(times)
        cols = np.zeros((5,) + s[1:].shape)
        cols[0], cols[1], cols[2], cols[3] = c[:-1] - c[1:], -c[1:], s[:-1], s[:-1] - s[1:]
        return edges, cols[_sl_columns(len(times))]

    def pairing(self, h: GridFunction) -> Callable[[Increments], np.ndarray]:
        """Increments -> (g(b) - g(a), h): the steps' pairing plus the segment sums
        of h sin u and h cos u times the correction coefficients."""
        steps, f = _steps_pairing(self.grid, h.values), h.values * self.trig
        F = _prefix(f)

        def pair(inc):
            edges, z = inc.extra
            sums = cell_sums(edges[:-1], edges[1:], f, F)
            return steps(inc) + self.grid.weight * _contract(sums[:, :, None], z).T

        return pair

    def gram(self, inc: Increments) -> np.ndarray:
        """Gram matrices (B, m, m), a view of (m, m, B), of a batch of sl increments.

        The corrections give z^T G z, G the 2x2 sums of the products of sin u
        and cos u over each segment, except that a one-cell segment enters
        through its cell's values, which keeps their digits; steps times
        corrections give w^T z, w the segment sums of each increment's steps
        times sin u and cos u.
        """
        d, (edges, z) = inc.steps, inc.extra
        w = d.segment_sums(edges, self.trig, self.trig_sums)
        G = cell_sums(edges[:-1], edges[1:], self.products, self.product_sums)[:, :, None]
        gzw = G[:2] * z[:1]
        gzw += G[1:] * z[1:]
        gzw += w
        A = _contract(z[:, :, None], gzw[:, :, :, None])
        A += _contract(w[:, :, None], z[:, :, :, None])
        return self.grid.weight * (d.gram() + A.T)


@functools.lru_cache
def _sl_columns(k: int):
    """z (2, k+1, k-1) from columns (5, k-1): x is 0, 1, 4 and y 4, 2, 3 before, at, after i+1."""
    i = np.arange(k - 1)
    col = np.array([[0, 1, 4], [4, 2, 3]])[:, np.sign(np.arange(k + 1)[:, None] - i - 1) + 1]
    col.flags.writeable = i.flags.writeable = False
    return col, i


def sturm_liouville_model(grid: Grid) -> ProcessModel:
    """perturbed:sl model from the closed form of S 1I_[0,t] alone: no n x n kernel
    matrix.  ||S|| < 1 (I+S invertible) holds for this fixed operator, 2/3 in the
    limit; the tests and ``silt selftest`` check it, not each build."""
    if abs(grid.T - math.pi / 2) > _SL_ENDPOINT_TOL:
        raise ValidationError(
            f"perturbed:sl needs the interval [0, pi/2], got T={grid.T}"
        )
    basis = _SLBasis(grid)

    def values(ts):
        return indicator_values(grid, ts) + sl_factor_correction(grid, ts), np.zeros((len(ts), 0))

    return ProcessModel("perturbed:sl", grid, 0, values, basis.segments, basis.gram, basis.pairing)


def counterexample_model(grid: Grid) -> ProcessModel:
    """x(t) = w(t) + sqrt(t) xi: grid part 1I_[0,t], one aux coordinate sqrt(t)."""

    def values(ts):
        return indicator_values(grid, ts), np.sqrt(ts)[:, None]

    def extra(times, steps):
        return np.sqrt(times[1:]) - np.sqrt(times[:-1])

    def gram(inc):
        e = inc.extra
        return grid.weight * inc.steps.gram() + (e[:, None] * e[None, :]).T

    def pairing(h):
        steps, e = _steps_pairing(grid, h.values), h.aux[0]
        return lambda inc: steps(inc) + e * inc.extra.T

    return ProcessModel("counterexample", grid, 1, values, extra, gram, pairing)


def load_kernel_csv(grid: Grid, path: str) -> KernelOperator:
    """Kernel CSV: rows s,u,value on grid nodes; missing entries are zero."""
    nodes, w = grid.nodes, grid.weight
    M = np.zeros((grid.n, grid.n))
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip() in ("s", ""):
                continue
            try:
                s, u, v = float(row[0]), float(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"bad kernel CSV row {row!r}") from exc
            if not all(map(math.isfinite, (s, u, v))):
                raise ValidationError(f"non-finite entry in kernel CSV row {row!r}")
            i = int(round(s / w - 0.5))
            j = int(round(u / w - 0.5))
            if not (0 <= i < grid.n and abs(nodes[i] - s) < 1e-9 * max(1, grid.T)):
                raise ValidationError(f"kernel CSV point s={s} is not a grid node")
            if not (0 <= j < grid.n and abs(nodes[j] - u) < 1e-9 * max(1, grid.T)):
                raise ValidationError(f"kernel CSV point u={u} is not a grid node")
            M[i, j] = v * w
    return KernelOperator(grid, M)


def parse_model(spec: str, grid: Grid) -> ProcessModel:
    """Model selection string: wiener | perturbed:sl | perturbed:file=<csv> | counterexample."""
    if spec == "wiener":
        return wiener_model(grid)
    if spec == "counterexample":
        return counterexample_model(grid)
    if spec == "perturbed:sl":
        return sturm_liouville_model(grid)
    if spec.startswith("perturbed:file="):
        path = spec[len("perturbed:file="):]
        return perturbed_model(grid, load_kernel_csv(grid, path), name=spec)
    raise ValidationError(f"unknown model spec '{spec}'")
