"""Named Gaussian process models given by their factor map t -> g(t).

Every process is represented through its factor map: x(t) = ((g(t),xi1),
(g(t),xi2)) for white noises xi, so covariances and all Gram machinery
reduce to inner products of factors.

Each model answers these inner products in two ways.  The structured
primitives (``increments``, ``increment_gram``, ``pairing`` and
``covariance``) give the discrete inner products in O(1) per time from the
two-cell parameters of the indicators and O(n) prefix sums built once per
model or shift; every Gram matrix, projection and ratio the package
computes comes from them.  ``factor_values`` builds the dense grid rows of
g(t); only the Monte Carlo sampler, ``silt selftest`` and the tests use them.
The structured primitives are computed on increments g(b) - g(a), the
quantities the Gram matrices need, so that the large common part of g(a) and
g(b) never enters a difference.
"""

from __future__ import annotations

import csv
import dataclasses
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
    indicator_increments,
    indicator_values,
    operator_norm,
)

_SL_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class Increments:
    """Increments g(b) - g(a) of consecutive times, in a model's structured form.

    ``steps`` are the indicator differences 1I_[0,b] - 1I_[0,a]; ``extra`` is
    what the model adds to them: None, an array, or a dataclass of arrays.
    """

    steps: IndicatorIncrements
    extra: Any


def _take(x, idx):
    """x with every array in it (through dataclass fields) indexed by idx on axis 1."""
    if isinstance(x, np.ndarray):
        return x[:, idx]
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(
            x, **{f.name: _take(getattr(x, f.name), idx) for f in dataclasses.fields(x)}
        )
    return x


@dataclass(frozen=True)
class ProcessModel:
    """A process x(t) = (g(t), xi) described by its factor map g.

    ``_values`` is the dense factor map.  The structured primitives are
    ``_extra(times)``, the model's part of ``Increments``; ``_inner(x, y)``,
    the inner products of aligned increments; and ``_pairing(h)``, which
    returns increments -> (g(b) - g(a), h).
    """

    name: str
    grid: Grid
    aux_dim: int
    _values: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    _extra: Callable[[np.ndarray], Any]
    _inner: Callable[[Increments, Increments], np.ndarray]
    _pairing: Callable[[GridFunction], Callable[[Increments], np.ndarray]]

    def _times(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if np.any(times < -1e-12) or np.any(times > self.grid.T + 1e-12):
            raise ValidationError(f"model time outside [0, {self.grid.T}]")
        return np.clip(times, 0.0, self.grid.T)

    def factor_values(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized factor map: (B,) times -> grid values (B,n), aux (B,m)."""
        return self._values(self._times(np.atleast_1d(times)))

    def embedded_factors(self, times) -> np.ndarray:
        """Euclidean embeddings of g(t) for an array of times, shape (B, n+m)."""
        V, X = self.factor_values(times)
        return np.concatenate([V * math.sqrt(self.grid.weight), X], axis=1)

    def increments(self, times) -> Increments:
        """Structured increments g(b) - g(a) of consecutive times (last axis),
        O(1) each: (..., k) nondecreasing times -> (..., k-1) increments."""
        times = self._times(times)
        return Increments(indicator_increments(self.grid, times), self._extra(times))

    def covariance(self, s, t) -> np.ndarray:
        """(g(s), g(t)) for broadcastable time arrays, O(1) per pair."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        x = self.increments(np.stack([np.zeros_like(s), s], axis=-1))
        y = self.increments(np.stack([np.zeros_like(t), t], axis=-1))
        return self._inner(x, y)[..., 0]

    def increment_gram(self, inc: Increments) -> np.ndarray:
        """Gram matrices (B, m, m) of increments of shape (B, m)."""
        B, m = inc.steps.lo.shape
        i, j = np.triu_indices(m)
        upper = self._inner(_take(inc, i), _take(inc, j))
        A = np.empty((B, m, m))
        A[:, i, j] = upper
        A[:, j, i] = upper
        return A

    def pairing(self, h: GridFunction) -> Callable[[Increments], np.ndarray]:
        """Increments -> (g(b) - g(a), h), from prefix sums built once per shift.

        t -> (g(t), h) is the pairing of the increments of (0, t).
        """
        if h.grid != self.grid or h.aux_dim != self.aux_dim:
            raise GridMismatchError("shift function must live on the model's space")
        return self._pairing(h)


def _prefix(x: np.ndarray) -> np.ndarray:
    """[0, cumsum(x)] along the last axis: range sums as differences."""
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)


def _no_extra(times):
    return None


def _steps_pairing(grid: Grid, x: np.ndarray) -> Callable[[Increments], np.ndarray]:
    """Increments -> sum over cells of the indicator differences times x, in L2 units."""
    cum = _prefix(x)
    return lambda inc: grid.weight * inc.steps.pair(x, cum)


def wiener_model(grid: Grid) -> ProcessModel:
    """Planar Wiener process: g(t) = 1I_[0,t]."""

    def values(ts):
        return indicator_values(grid, ts), np.zeros((len(ts), 0))

    def inner_(x, y):
        return grid.weight * x.steps.dot(y.steps)

    def pairing(h):
        return _steps_pairing(grid, h.values)

    return ProcessModel("wiener", grid, 0, values, _no_extra, inner_, pairing)


def _kernel_form(d1, d2, K: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Sum over cells i, j of d1[i] K[i, j] d2[j]; P is the 2-D prefix table of K.

    Block-by-block and block-by-cell terms are rectangle sums of P, the
    cell-by-cell terms entries of K.
    """

    def rect(x0, x1, y0, y1):
        x1, y1 = np.maximum(x0, x1), np.maximum(y0, y1)
        return P[x1, y1] - P[x0, y1] - P[x1, y0] + P[x0, y0]

    lo1, hi1, lo2, hi2 = (z[..., None] for z in (d1.lo, d1.hi, d2.lo, d2.hi))
    cells = K[d1.pos[..., :, None], d2.pos[..., None, :]]
    return (
        rect(d1.lo, d1.hi, d2.lo, d2.hi)
        + np.sum(d2.val * rect(lo1, hi1, d2.pos, d2.pos + 1), axis=-1)
        + np.sum(d1.val * rect(d1.pos, d1.pos + 1, lo2, hi2), axis=-1)
        + np.sum(d1.val[..., :, None] * d2.val[..., None, :] * cells, axis=(-2, -1))
    )


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

    def values(ts):
        ind = indicator_values(grid, ts)
        return ind + ind @ M.T, np.zeros((len(ts), 0))

    def inner_(x, y):
        return grid.weight * (x.steps.dot(y.steps) + _kernel_form(x.steps, y.steps, K, P))

    def pairing(h):
        return _steps_pairing(grid, h.values + M.T @ h.values)

    return ProcessModel(name, grid, 0, values, _no_extra, inner_, pairing)


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


class _SLTables:
    """Node-sampled sin, cos and the prefix sums of sin, cos, sin^2, sin cos, cos^2."""

    def __init__(self, grid: Grid):
        self.n, self.u = grid.n, grid.nodes
        self.sn, self.cs = np.sin(self.u), np.cos(self.u)
        self.S, self.C = _prefix(self.sn), _prefix(self.cs)
        self.SS, self.SC, self.CC = (
            _prefix(self.sn * self.sn),
            _prefix(self.sn * self.cs),
            _prefix(self.cs * self.cs),
        )


@dataclass(frozen=True)
class _SLCorrections:
    """(S 1I_[0,b] - S 1I_[0,a]) on the nodes for times a <= b, in three pieces.

    With q(t) = #{nodes u_j < t}, the switch point of ``sl_factor_correction``,
    the difference is x[s] sin u_j + y[s] cos u_j on segment s of the cells
    [edges[s], edges[s+1]) = [0, q(a)), [q(a), q(b)), [q(b), n).  Sums over a
    range of cells are differences of the node-sampled prefix sums; a range
    of one cell is summed directly, because a sub-cell increment has at most
    one middle cell, whose value is far smaller than the prefix sums.
    """

    tables: _SLTables
    edges: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def build(cls, tables: _SLTables, times) -> "_SLCorrections":
        """The differences over consecutive times (last axis)."""
        q, c, s = np.searchsorted(tables.u, times), np.cos(times), np.sin(times)
        qa, qb = q[..., :-1], q[..., 1:]
        ca, cb, sa, sb = c[..., :-1], c[..., 1:], s[..., :-1], s[..., 1:]
        zero = np.zeros(ca.shape)
        edges = np.stack([np.zeros_like(qa), qa, qb, np.full_like(qa, tables.n)], axis=-1)
        x = np.stack([ca - cb, -cb, zero], axis=-1)
        y = np.stack([zero, sa, sa - sb], axis=-1)
        return cls(tables, edges, x, y)

    def at(self, j):
        """Coefficients (x, y) at cells j (last axis)."""
        first, middle = j < self.edges[..., 1:2], j < self.edges[..., 2:3]
        x = np.where(first, self.x[..., 0:1], np.where(middle, self.x[..., 1:2], 0.0))
        y = np.where(first, 0.0, np.where(middle, self.y[..., 1:2], self.y[..., 2:3]))
        return x, y

    def _sum(self, r0, r1, x, y, fs, fc, Fs, Fc):
        """Sum over cells [r0, r1) of (x sin u + y cos u) f; fs = f sin u, Fs its prefix sums."""
        r1 = np.maximum(r0, r1)
        j = np.minimum(r0, self.tables.n - 1)
        one = x * fs[j] + y * fc[j]
        many = x * (Fs[r1] - Fs[r0]) + y * (Fc[r1] - Fc[r0])
        return np.where(r1 - r0 == 1, one, many)

    def pair(self, fs, fc, Fs, Fc) -> np.ndarray:
        """Sum over cells of the difference times f."""
        e = self.edges
        return np.sum(self._sum(e[..., :-1], e[..., 1:], self.x, self.y, fs, fc, Fs, Fc), axis=-1)

    def with_steps(self, d: IndicatorIncrements) -> np.ndarray:
        """Sum over cells of the difference times the indicator difference d."""
        t = self.tables
        r0 = np.maximum(d.lo[..., None], self.edges[..., :-1])
        r1 = np.minimum(d.hi[..., None], self.edges[..., 1:])
        block = np.sum(self._sum(r0, r1, self.x, self.y, t.sn, t.cs, t.S, t.C), axis=-1)
        px, py = self.at(d.pos)
        return block + np.sum(d.val * (px * t.sn[d.pos] + py * t.cs[d.pos]), axis=-1)

    def dot(self, other: "_SLCorrections") -> np.ndarray:
        """Sum over cells of the product of two differences.

        The cells split at the four inner edges of the two into five ranges,
        on each of which both differences keep one segment.
        """
        t = self.tables
        (a0, a1), (b0, b1) = (np.split(e[..., 1:3], 2, axis=-1) for e in (self.edges, other.edges))
        lo, hi = np.maximum(a0, b0), np.minimum(a1, b1)  # merge two sorted pairs
        z = [np.minimum(a0, b0), np.minimum(lo, hi), np.maximum(lo, hi), np.maximum(a1, b1)]
        r0 = np.concatenate([np.zeros_like(a0)] + z, axis=-1)
        r1 = np.concatenate(z + [np.full_like(a0, t.n)], axis=-1)
        ax, ay = self.at(r0)
        bx, by = other.at(r0)
        j = np.minimum(r0, t.n - 1)
        sn, cs = t.sn[j], t.cs[j]
        one = (ax * sn + ay * cs) * (bx * sn + by * cs)
        many = (
            ax * bx * (t.SS[r1] - t.SS[r0])
            + (ax * by + ay * bx) * (t.SC[r1] - t.SC[r0])
            + ay * by * (t.CC[r1] - t.CC[r0])
        )
        return np.sum(np.where(r1 - r0 == 1, one, many), axis=-1)


def sturm_liouville_model(grid: Grid) -> ProcessModel:
    """perturbed:sl model with the closed-form factor map.

    Uses the analytic expression for S 1I_[0,t] node-wise, so it stays cheap
    and accurate on very fine grids where the n x n kernel matrix would not
    fit.  The operator norm precondition is checked on a moderate grid.
    """
    if abs(grid.T - math.pi / 2) > _SL_ENDPOINT_TOL:
        raise ValidationError(
            f"perturbed:sl needs the interval [0, pi/2], got T={grid.T}"
        )
    probe = grid if grid.n <= 600 else Grid(grid.T, 600)
    nrm = operator_norm(sturm_liouville_operator(probe))
    if nrm >= 1.0:
        raise ValidationError(f"perturbation norm {nrm:.6f} >= 1")
    tables = _SLTables(grid)

    def values(ts):
        return (
            indicator_values(grid, ts) + sl_factor_correction(grid, ts),
            np.zeros((len(ts), 0)),
        )

    def extra(times):
        return _SLCorrections.build(tables, times)

    def inner_(x, y):
        c1, c2 = x.extra, y.extra
        mixed = c2.with_steps(x.steps) + c1.with_steps(y.steps)
        return grid.weight * (x.steps.dot(y.steps) + mixed + c1.dot(c2))

    def pairing(h):
        steps = _steps_pairing(grid, h.values)
        fs, fc = h.values * tables.sn, h.values * tables.cs
        Fs, Fc = _prefix(fs), _prefix(fc)
        return lambda inc: steps(inc) + grid.weight * inc.extra.pair(fs, fc, Fs, Fc)

    return ProcessModel("perturbed:sl", grid, 0, values, extra, inner_, pairing)


def counterexample_model(grid: Grid) -> ProcessModel:
    """x(t) = w(t) + sqrt(t) xi: grid part 1I_[0,t], one aux coordinate sqrt(t)."""

    def values(ts):
        return indicator_values(grid, ts), np.sqrt(ts)[:, None]

    def extra(times):
        return np.diff(np.sqrt(times), axis=-1)

    def inner_(x, y):
        return grid.weight * x.steps.dot(y.steps) + x.extra * y.extra

    def pairing(h):
        steps, e = _steps_pairing(grid, h.values), h.aux[0]
        return lambda inc: steps(inc) + e * inc.extra

    return ProcessModel("counterexample", grid, 1, values, extra, inner_, pairing)


def load_kernel_csv(grid: Grid, path: str) -> KernelOperator:
    """Kernel CSV: rows s,u,value on grid nodes; missing entries are zero."""
    nodes = grid.nodes
    w = grid.weight
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
