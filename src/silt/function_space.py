"""Discretized real Hilbert space L2([0,T]) + R^m.

Functions are cellwise constant on a uniform grid of n cells (stored by their
cell values); an optional block of auxiliary coordinates (orthonormal to the
grid part by construction) carries finite-dimensional directions such as the
e+0 direction of the counterexample process.

The Gram kernel integrates exactly over intervals.  ``Intervals`` cuts the
intervals between consecutive times into a head and a tail inside the cells of
their ends and a block of whole cells between them, and ``interval_integrals``
integrates a cellwise-constant function, alone or times sin u and cos u, over
each: a block from prefix sums built once per function, head and tail directly,
so a sub-cell interval keeps its digits.  Only this module reads that cell
format; the models get integrals, and the cell parts with their shares.

The dense rows of 1I_[0,t] (``indicator_values``), the discrete model of the
Monte Carlo sampler, use a two-cell boundary construction: the two cells around
t carry values chosen so that ||1I_[0,t]||^2 = t holds to machine precision for
every t, and so does the mass past the first cell; in the first cell the mass
is exact only to about eps*sqrt(t*w) (see ``indicator_params``).  Inner
products of such rows are exact only when the boundary cell pairs {p, p+1} of
the times, p = min(floor(t/w), n-2), are disjoint.
Per-call code calls ufuncs' reduce/accumulate, not numpy's wrappers (1-3 us slower).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import GridMismatchError, ValidationError

# power iteration in operator_norm: relative tolerance and iteration cap
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 200


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [0, T] with n cells."""

    T: float
    n: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValidationError(f"grid endpoint must be positive and finite, got T={self.T}")
        if self.n < 2:
            raise ValidationError(f"grid needs at least 2 cells, got n={self.n}")

    @property
    def weight(self) -> float:
        return self.T / self.n

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.weight


def make_grid(T: float, n: int) -> Grid:
    """Build a uniform midpoint grid covering [0, T]."""
    return Grid(float(T), int(n))


@dataclass(frozen=True)
class GridFunction:
    """Element of the discretized space: grid samples plus aux coordinates."""

    grid: Grid
    values: np.ndarray
    aux: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        aux = np.asarray(self.aux, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValidationError(
                f"values must have shape ({self.grid.n},), got {values.shape}"
            )
        if aux.ndim != 1:
            raise ValidationError("aux must be a 1-d array")
        if not (np.isfinite(values).all() and np.isfinite(aux).all()):
            raise ValidationError("grid function values and aux must be finite")
        values.setflags(write=False)
        aux.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "aux", aux)

    @property
    def aux_dim(self) -> int:
        return self.aux.shape[0]

    def _check_compatible(self, other: "GridFunction"):
        if self.grid != other.grid or self.aux_dim != other.aux_dim:
            raise GridMismatchError(
                "grid functions live on different grids or aux dimensions"
            )

    def embedded(self) -> np.ndarray:
        """Euclidean embedding: (values * sqrt(weight), aux) concatenated.

        Plain dot products of embedded vectors equal the Hilbert inner product.
        """
        return np.concatenate([self.values * math.sqrt(self.grid.weight), self.aux])

    def norm_sq(self) -> float:
        return inner(self, self)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.grid, self.values + other.values, self.aux + other.aux)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.grid, self.values - other.values, self.aux - other.aux)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * c, self.aux * c)

    __rmul__ = __mul__


def inner(f: GridFunction, g: GridFunction) -> float:
    """Inner product: sum f_i g_i * weight plus the aux dot product."""
    f._check_compatible(g)
    return float(
        np.dot(f.values, g.values) * f.grid.weight + np.dot(f.aux, g.aux)
    )


def grid_times(grid: Grid, t) -> np.ndarray:
    """Times in [0, T]: a time at most 1e-12 outside is clipped, any other (NaN
    too) raises naming it.  For (B, k) tuples the result is the view of a
    tuple-last (k, B) copy, which the Gram kernel runs on."""
    t = np.asarray(t, dtype=float)
    ok = (t >= -1e-12) & (t <= grid.T + 1e-12)  # False for NaN
    if not np.logical_and.reduce(ok, None):
        raise ValidationError(f"model time {t[~ok][0]} outside [0, {grid.T}]")
    out = np.maximum(0.0, t.T, order="C")  # np.clip's values, -0.0 too
    return np.minimum(out, grid.T, out=out).T


def indicator_params(grid: Grid, t):
    """Two-cell construction of 1I_[0,t] for an array of times in [0, T]
    (``grid_times``): (p, alpha, beta), each of the shape of t.

    The cell representation is one on cells [0, p), alpha on cell p, beta on
    cell p + 1 and zero beyond, with alpha + beta and alpha^2 + beta^2 chosen
    so that the mass and the squared norm are t.  The norm holds to machine
    precision, the mass too except in the first cell: there alpha and -beta
    are about sqrt(t*w/2), so the mass is exact only to about eps*sqrt(t*w).
    On [0, 1] with n=512, t = 3.35e-248 has mass 0, and the shift pairing
    inherits the error: point_projection_norm_sq(wiener, t1, const1) = t1 is
    off by 6.3e-8 relative at t1 = 1e-20.  A time in the last cell, and
    t = T (alpha = beta = 1), use the cells n-2 and n-1, so p <= n-2.
    """
    n = grid.n
    x = np.minimum(t / grid.weight, n)  # t = T is the last cell at f = 1: alpha = beta = 1
    c = np.minimum(np.floor(x), n - 1)
    f = x - c
    last = c == n - 1
    s = f + last
    d = np.sqrt(s * ((2.0 - last) - f))  # s (1 - f) in the last cell, f (2 - f) before it
    return np.minimum(c, n - 2).astype(int), (s + d) / 2.0, (s - d) / 2.0


def indicator_values(grid: Grid, t) -> np.ndarray:
    """Cell representations of 1I_[0,t] for an array of times, shape (B, n).

    Built from ``indicator_params``: norm^2 = t exactly.
    """
    t = grid_times(grid, np.atleast_1d(t))
    p, alpha, beta = (x[:, None] for x in indicator_params(grid, t))
    j = np.arange(grid.n)
    return np.where(j < p, 1.0, np.where(j == p, alpha, np.where(j == p + 1, beta, 0.0)))


def prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, cumsum(x)] along the last axis: range sums as differences."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.add.accumulate(x, axis=-1, out=out[..., 1:])
    return out


def interval_weights(d: np.ndarray, at_start=None) -> np.ndarray:
    """Integrals over [a, a + d] of 1, or of 1, sin u and cos u given at_start = (sin a,
    cos a): (1 or 3,) + d.shape.  The trig ones are 2 sin(d/2) times sin and cos of the
    midpoint, by angle addition from a: one sine per interval, and an interval far
    shorter than its distance from 0 keeps its digits."""
    out = np.empty((1 + 2 * (at_start is not None),) + d.shape)
    out[0] = d
    if at_start is not None:
        half = np.sin(0.5 * d)
        full = np.sqrt(1.0 - half * half)  # cos(d/2)
        sin_a, cos_a = at_start
        np.multiply(sin_a, full, out=out[1])
        out[1] += cos_a * half
        np.multiply(cos_a, full, out=out[2])
        out[2] -= sin_a * half
        half *= 2.0
        out[1:] *= half
    return out


@dataclass(frozen=True)
class Intervals:
    """The intervals [t_j, t_{j+1}] between consecutive tuple-last points t (s + 1, B) of
    [0, T] (``grid_times``), each cut on the grid into a head, a block and a tail.

    With c_j = min(floor(t_j / w), n - 1) the cell of t_j, the head [t_j, m_j], m_j =
    min((c_j + 1) w, t_{j+1}), lies in cell c_j; the block is the whole cells [c_j + 1,
    max(c_{j+1}, c_j + 1)); the tail [max(c_{j+1} w, m_j), t_{j+1}] lies in cell c_{j+1}.
    Block and tail are empty when both ends share a cell.  ``bounds`` (4, s, B) holds
    t_j, m_j, the tail start and t_{j+1}; ``cells`` (s + 1, B) the c_j; ``trig``, if
    asked for, sin t and cos t (2, s + 1, B).
    """

    grid: Grid
    bounds: np.ndarray
    cells: np.ndarray
    trig: Optional[np.ndarray] = None

    @classmethod
    def between(cls, grid: Grid, t: np.ndarray, trig: bool = False) -> "Intervals":
        w = grid.weight
        c = np.minimum(np.floor(t / w), grid.n - 1).astype(np.intp)
        bounds = np.empty((4,) + t[1:].shape)
        bounds[0], bounds[3] = t[:-1], t[1:]
        np.minimum((c[:-1] + 1) * w, t[1:], out=bounds[1])
        np.maximum(c[1:] * w, bounds[1], out=bounds[2])
        return cls(grid, bounds, c, np.array([np.sin(t), np.cos(t)]) if trig else None)

    def parts(self):
        """Head, block and tail as cell ranges [lo, hi) and the share of each of their
        cells that they cover: three (3, s, B) arrays."""
        (a, m, tail, b), c, w = self.bounds, self.cells, self.grid.weight
        first = c[:-1] + 1
        lo = np.array([c[:-1], first, c[1:]])
        hi = np.array([first, np.maximum(c[1:], first), c[1:] + 1])
        share = np.empty(lo.shape)
        share[0], share[1], share[2] = m - a, w, b - tail
        return lo, hi, share / w


def interval_integrals(grid: Grid, f: np.ndarray, trig: bool = False):
    """Intervals -> exact integrals over each of the cellwise-constant f (n,), (1, s, B),
    or of f, f sin u and f cos u with ``trig`` (Intervals built with trig), (3, s, B).

    A block is a difference of prefix sums of f times the cell integrals, built here
    once per f; head and tail are f on their cell times the integrals over them, so a
    sub-cell interval is never a difference of sums over [0, t].  A tail starts on the
    edge of its cell, or is empty.
    """
    edges = np.arange(grid.n + 1) * grid.weight
    at_edges = np.array([np.sin(edges), np.cos(edges)]) if trig else None
    cells = interval_weights(edges[1:] - edges[:-1], at_edges[:, :-1] if trig else None)
    cum = prefix_sums(f * cells)

    def integrate(iv: Intervals) -> np.ndarray:
        (a, m, tail, b), c = iv.bounds, iv.cells
        heads, tails = (iv.trig[:, :-1], at_edges.take(c[1:], axis=1)) if trig else (None, None)
        first = c[:-1] + 1
        out = cum.take(np.maximum(c[1:], first), axis=1)
        out -= cum.take(first, axis=1)
        out += f.take(c[:-1]) * interval_weights(m - a, heads)
        out += f.take(c[1:]) * interval_weights(b - tail, tails)
        return out

    return integrate


def cumulative(h: GridFunction) -> Tuple[np.ndarray, np.ndarray]:
    """Cell edges and the exact cumulative integral of h at them: with ``np.interp``, the
    cumulative H(t) = int_0^t h of the cellwise-constant h at any t."""
    w = h.grid.weight
    edges = np.arange(h.grid.n + 1) * w
    return edges, np.concatenate([[0.0], np.cumsum(h.values) * w])


def indicator(grid: Grid, t: float) -> GridFunction:
    """Discretized 1I_[0,t] with exact squared norm t."""
    return GridFunction(grid, indicator_values(grid, t)[0])


@dataclass(frozen=True)
class KernelOperator:
    """Discretized integral operator: matrix entry (i,j) = k(node_i, node_j) * weight."""

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.grid.n, self.grid.n):
            raise ValidationError(
                f"kernel matrix must be {self.grid.n}x{self.grid.n}, got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_kernel(cls, grid: Grid, kernel) -> "KernelOperator":
        """Build the operator from a vectorized kernel k(s, u)."""
        nodes = grid.nodes
        return cls(grid, kernel(nodes[:, None], nodes[None, :]) * grid.weight)


def operator_norm(K: KernelOperator) -> float:
    """Largest singular value via power iteration on K*K.

    Deterministic start vector (normalized constant); relative tolerance on
    the dominant eigenvalue of K*K.
    """
    M = K.matrix
    v = np.ones(K.grid.n) / math.sqrt(K.grid.n)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        u = M.T @ (M @ v)
        new = float(np.linalg.norm(u))
        if new == 0.0:
            return 0.0
        v = u / new
        if abs(new - lam) <= _POWER_TOL * new:
            lam = new
            break
        lam = new
    return math.sqrt(lam)


# ---------------------------------------------------------------------------
# built-in function names and CSV I/O


def parse_function(spec: str, grid: Grid, aux_dim: int = 0) -> GridFunction:
    """Resolve a built-in function name or a CSV path to a GridFunction.

    Built-ins: const1 | zero | indicator:a:b | sin:m | hat:c:w
    Anything else is treated as a CSV file path.
    """
    pad = np.zeros(aux_dim)
    name, _, rest = spec.partition(":")
    if name == "const1" and not rest:
        return GridFunction(grid, np.ones(grid.n), pad)
    if name == "zero" and not rest:
        return GridFunction(grid, np.zeros(grid.n), pad)
    if name == "indicator":
        try:
            a, b = (float(x) for x in rest.split(":"))
        except ValueError as exc:
            raise ValidationError(f"bad indicator spec '{spec}'") from exc
        if not 0 <= a <= b <= grid.T:
            raise ValidationError(f"indicator bounds {a},{b} outside [0,{grid.T}]")
        f = indicator(grid, b) - indicator(grid, a)
        return GridFunction(grid, f.values, pad)
    if name == "sin":
        try:
            m = int(rest)
        except ValueError as exc:
            raise ValidationError(f"bad sin spec '{spec}'") from exc
        v = np.sin(m * math.pi * grid.nodes / grid.T)
        nrm = math.sqrt(float(np.dot(v, v)) * grid.weight)
        if nrm == 0:
            raise ValidationError(f"sin:{m} vanishes on this grid")
        return GridFunction(grid, v / nrm, pad)
    if name == "hat":
        try:
            c, width = (float(x) for x in rest.split(":"))
        except ValueError as exc:
            raise ValidationError(f"bad hat spec '{spec}'") from exc
        if width <= 0:
            raise ValidationError("hat width must be positive")
        v = np.clip(1.0 - np.abs(grid.nodes - c) / width, 0.0, None)
        return GridFunction(grid, v, pad)
    try:
        with open(spec, newline="") as fh:
            return read_grid_function(grid, fh)
    except OSError as exc:
        raise ValidationError(f"unknown function name or unreadable file '{spec}'") from exc


def read_grid_function(grid: Grid, fh) -> GridFunction:
    """Read a grid function from an open CSV file: a node,value header, n rows
    node,value in grid order (nodes are not matched to the grid), then optionally
    a row starting with aux and index,value rows of the aux coordinates.
    Blank rows are skipped."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["node", "value"]:
        raise ValidationError("grid function CSV must start with header node,value")
    values, aux = [], []
    in_aux = False
    for row in reader:
        if not row:
            continue
        if row[0].strip() == "aux":
            in_aux = True
            continue
        try:
            x, v = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"bad CSV row {row!r}") from exc
        if in_aux:
            aux.append(v)
        else:
            values.append(v)
    if len(values) != grid.n:
        raise ValidationError(
            f"CSV has {len(values)} grid values, expected {grid.n}"
        )
    return GridFunction(grid, np.array(values), np.array(aux))
