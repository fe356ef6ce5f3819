"""Named Gaussian process models given by their factor map t -> g(t).

Every process is represented through its factor map: x(t) = ((g(t),xi1),
(g(t),xi2)) for white noises xi, so covariances and all Gram machinery
reduce to inner products of factors.

The structured primitives (``increments``, ``increment_gram``, ``pairing``
and ``covariance``) give every Gram matrix, projection and ratio the package
computes as exact integrals over the intervals between the times, in O(1) per
time, from closed forms and from prefix sums built once per model or shift.
They work on increments g(b) - g(a), so that the large common part of g(a) and
g(b) never enters a difference.  The indicator steps of consecutive times have
the Gram matrix diag(gaps), to which wiener adds nothing and counterexample its
sqrt(t) aux coordinate.  perturbed:sl writes the corrections of a tuple in one
basis of sin u and cos u on the k+1 segments between its times, with
closed-form integrals; perturbed:file sums its kernel's 2-D prefix table over
the cell parts of the intervals.  A pairing integrates the cellwise-constant
shift, alone or times sin u and cos u, over the intervals
(``interval_integrals``).  Every per-tuple array is stored with the tuple axis
last, (..., B); ``increments`` checks and transposes the times once, and the
(B, m) and (B, m, m) arrays the primitives return are transposed views.
``factor_values`` builds the dense two-cell grid rows of g(t), the discrete
model of the Monte Carlo sampler; only the sampler and the tests use them.
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
    GridMismatchError,
    Intervals,
    KernelOperator,
    grid_times,
    indicator_values,
    interval_integrals,
    interval_weights,
    operator_norm,
    prefix_sums,
)

_SL_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class Increments:
    """Increments g(b) - g(a) of consecutive tuple-last times (k, B) in a model's form:
    ``extra`` holds what the model's Gram matrices and pairings read."""

    times: np.ndarray
    extra: Any


@dataclass(frozen=True)
class ProcessModel:
    """A process x(t) = (g(t), xi) described by its factor map g.

    ``_values`` is the dense factor map.  The structured primitives are
    ``_extra(times)``, the model's part of ``Increments`` from the tuple-last
    times (k, B); ``_gram(inc)``, the Gram matrices of a (B, m) batch of
    increments; and ``_pairing(h)``, which returns increments -> (g(b) - g(a), h).
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
        times = grid_times(self.grid, times).T
        return Increments(times, self._extra(times))

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


def _gap_gram(times: np.ndarray) -> np.ndarray:
    """diag(gaps) (m, m, B) of tuple-last times (k, B): the Gram matrices of the
    indicator steps 1I_[t_i, t_{i+1}]."""
    m, B = len(times) - 1, times.shape[1]
    A = np.zeros((m * m, B))
    np.subtract(times[1:], times[:-1], out=A[:: m + 1])
    return A.reshape(m, m, B)


def _steps_pairing(grid: Grid, x: np.ndarray) -> Callable[[Increments], np.ndarray]:
    """Increments -> int of the cellwise-constant x over each [t_i, t_{i+1}], (B, m)."""
    integrate = interval_integrals(grid, x)
    return lambda inc: integrate(inc.extra)[0].T


def wiener_model(grid: Grid) -> ProcessModel:
    """Planar Wiener process: g(t) = 1I_[0,t]."""

    def values(ts):
        return indicator_values(grid, ts), np.zeros((len(ts), 0))

    def gram(inc):
        return _gap_gram(inc.times).T

    def pairing(h):
        return _steps_pairing(grid, h.values)

    extra = functools.partial(Intervals.between, grid)
    return ProcessModel("wiener", grid, 0, values, extra, gram, pairing)


def perturbed_model(grid: Grid, S: KernelOperator, name: str = "perturbed") -> ProcessModel:
    """Compact perturbation of the Wiener process: g(t) = (I+S) 1I_[0,t].

    Requires ||S|| < 1 (checked on the discretization); norms in [0.95, 1)
    only warn, at or above 1 the model is rejected.  S acts on the cell averages:
    S 1I_[a,b] is M x on the cells, x the share of each cell that [a, b] covers, so
    the Gram entries are the overlaps plus w x^T K y, K = M + M^T + M^T M, which
    the rectangle sums of K's 2-D prefix table give over the head, block and tail
    of each interval, weighted by their shares: the bilinear extension of the table
    to fractional cell positions, in which a sub-cell interval's terms carry its
    small share.  The table is O(n^2), like the operator itself.
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
    P = prefix_sums(prefix_sums(M + M.T + M.T @ M).T).T

    def values(ts):
        ind = indicator_values(grid, ts)
        return ind + ind @ M.T, np.zeros((len(ts), 0))

    def gram(inc):
        lo, hi, share = inc.extra.parts()
        x, y = (slice(None), slice(None), None, None), (None, None)  # parts (3, m, 3, m, B)
        rect = P[hi[x], hi[y]] - P[hi[x], lo[y]]  # grouped so that an empty range gives 0
        rect -= P[lo[x], hi[y]] - P[lo[x], lo[y]]
        rect *= share[x] * share[y]
        A = np.add.reduce(np.add.reduce(rect, axis=2))
        A *= grid.weight
        A += _gap_gram(inc.times)
        return A.T

    def pairing(h):
        return _steps_pairing(grid, h.values + M.T @ h.values)

    extra = functools.partial(Intervals.between, grid)
    return ProcessModel(name, grid, 0, values, extra, gram, pairing)


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
    limit; the tests and ``silt selftest`` check it, not each build.

    The times t_0 < ... < t_{k-1} cut [0, pi/2] into the k+1 segments between (0, t, pi/2).
    On segment s the correction S 1I_[0,b] - S 1I_[0,a] of increment i is z[0, s, i] sin u
    + z[1, s, i] cos u: (cos t_i - cos t_{i+1}, 0) for s <= i, (-cos t_{i+1}, sin t_i) for
    s = i+1 and (0, sin t_i - sin t_{i+1}) beyond.  So A = diag(gaps) + z^T G z + w^T z +
    z^T w, with G the closed-form integrals of sin^2, sin cos and cos^2 over each segment
    and w those of sin and cos over segment i+1, the only one the step of increment i
    meets; a pairing adds the integrals of h sin u and h cos u over the segments times z.
    Differences of sin and cos over a gap are products, which keep the digits of short gaps.
    """
    if abs(grid.T - math.pi / 2) > _SL_ENDPOINT_TOL:
        raise ValidationError(
            f"perturbed:sl needs the interval [0, pi/2], got T={grid.T}"
        )

    def values(ts):
        return indicator_values(grid, ts) + sl_factor_correction(grid, ts), np.zeros((len(ts), 0))

    def extra(times):
        """(segments, z (2, k+1, k-1, B), w (2, k-1, B)) of times (k, B)."""
        points = np.empty((len(times) + 2,) + times.shape[1:])
        points[0], points[1:-1], points[-1] = 0.0, times, grid.T
        iv = Intervals.between(grid, points, trig=True)
        s, c = iv.trig[:, 1:-1]
        # cos t_i - cos t_{i+1}, sin t_{i+1} - sin t_i
        w = interval_weights(times[1:] - times[:-1], (s[:-1], c[:-1]))[1:]
        cols = np.zeros((5,) + w.shape[1:])
        cols[0], cols[1], cols[2], cols[3] = w[0], -c[1:], s[:-1], -w[1]
        return iv, cols[_sl_columns(len(times))], w

    def gram(inc):
        iv, z, w = inc.extra
        a, b = iv.bounds[0], iv.bounds[3]
        d, mid = b - a, a + b
        sd = np.sin(d)
        sc = sd * np.cos(mid)
        G = np.empty((3,) + d.shape)  # int sin^2, sin cos, cos^2 over each segment
        np.subtract(d, sc, out=G[0])
        np.multiply(sd, np.sin(mid), out=G[1])
        np.add(d, sc, out=G[2])
        G *= 0.5
        G = G[:, :, None]
        gz = G[:2] * z[:1]
        gz += G[1:] * z[1:]
        A = _contract(z[:, :, None], gz[:, :, :, None])
        wz = w[:, :, None] * z[:, 1:-1]
        wz = wz[0] + wz[1]
        A += wz
        A += wz.transpose(1, 0, 2)
        A += _gap_gram(inc.times)
        return A.T

    def pairing(h):
        integrate = interval_integrals(grid, h.values, trig=True)

        def pair(inc):
            iv, z, _ = inc.extra
            f = integrate(iv)
            return (f[0, 1:-1] + _contract(f[1:, :, None], z)).T

        return pair

    return ProcessModel("perturbed:sl", grid, 0, values, extra, gram, pairing)


def counterexample_model(grid: Grid) -> ProcessModel:
    """x(t) = w(t) + sqrt(t) xi: grid part 1I_[0,t], one aux coordinate sqrt(t)."""

    def values(ts):
        return indicator_values(grid, ts), np.sqrt(ts)[:, None]

    def extra(times):
        return Intervals.between(grid, times), np.sqrt(times[1:]) - np.sqrt(times[:-1])

    def gram(inc):
        e = inc.extra[1]
        return (_gap_gram(inc.times) + e[:, None] * e[None, :]).T

    def pairing(h):
        integrate, e = interval_integrals(grid, h.values), h.aux[0]
        return lambda inc: (integrate(inc.extra[0])[0] + e * inc.extra[1]).T

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
