"""Discretized real Hilbert space L2([0,T]) + R^m.

Functions are sampled on a uniform midpoint grid; an optional block of
auxiliary coordinates (orthonormal to the grid part by construction) carries
finite-dimensional directions such as the e+0 direction of the
counterexample process.

Indicator elements 1I_[0,t] use a two-cell boundary construction: the two
cells around t carry values chosen so that ||1I_[0,t]||^2 = t holds to
machine precision for every t, and so does the mass past the first cell; in
the first cell the mass is exact only to about eps*sqrt(t*w) (see
``indicator_params``).  (1I_[0,s], 1I_[0,t]) = min(s, t) is exact when the
boundary cell pairs {p, p+1} of s and t, with p = min(floor(t/w), n-2), are
disjoint.  Near T that takes more than two cells between the times: a time
in the last cell uses the cells n-2 and n-1.  This module owns the cell
format of the increments 1I_[0,b] - 1I_[0,a]: only ``IndicatorIncrements``
reads its cells and values, and the models hand it kernels (``kernel_form``),
nodes (``switch_points``) and functions (``pair``, ``segment_sums``).
Per-call code calls ufuncs' reduce/accumulate, not numpy's wrappers (1-3 us slower).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class IndicatorIncrements:
    """Cell representations of 1I_[0,b] - 1I_[0,a] for arrays a <= b, O(1) each.

    The difference is one on the block of cells [cells[0] + 2, cells[2]) (empty
    when cells[2] <= cells[0] + 2) and takes the ``values`` at the four ``cells`` around
    the two boundaries; it is zero elsewhere.  A cell listed twice carries value
    0 at its second listing, and no listed cell lies in the block.  Each
    boundary value is a difference of two cell values, as in the dense rows, so
    sums over cells lose no digits to cancellation.

    Storage is tuple-last, so every pass runs over B contiguous values:
    ``cells`` and ``values`` are (4, m, B) for a (B, m) batch, and the methods
    return (B, ...) transposed views.
    """

    cells: np.ndarray
    values: np.ndarray

    def kernel_form(self, rect, entry, rows=slice(None)) -> np.ndarray:
        """Sums over cells i, j of d_x[i] K[i, j] d_y[j] for every pair of increments
        x, y of the tuples ``rows``: (R, m, m).

        rect(x0, x1, y0, y1) is the sum of K over the cells [x0, x1) x [y0, y1),
        zero when either range is empty, for the block-by-block and block-by-cell
        terms; entry(i, j) is K[i, j], for the cell-by-cell terms.
        """
        x = self.cells[..., rows], self.values[..., rows]
        (c1, v1), (c2, v2) = (a[:, None] for a in x), (a[:, :, None] for a in x)
        lo1, hi1, lo2, hi2 = c1[0] + 2, c1[2], c2[0] + 2, c2[2]
        return (
            rect(lo1, hi1, lo2, hi2)
            + np.add.reduce(v1 * rect(c1, c1 + 1, lo2, hi2))
            + np.add.reduce(v2 * rect(lo1, hi1, c2, c2 + 1))
            + _cell_pair_sum(v1[:, None] * v2[None, :] * entry(c1[:, None], c2[None, :]))
        ).T

    def gram(self) -> np.ndarray:
        """Sums over cells of the products of every pair of differences of a (B, m)
        batch of consecutive increments, O(m) per tuple: (B, m, m).

        The diagonal is the block length plus the squared boundary values.  When
        the boundary pairs of consecutive times lie two cells apart or more
        (cells[2] - cells[0] >= 2), increments i and i+1 meet only at the cells of
        their common time and increments further apart not at all; the tuples
        that break that rule go through ``kernel_form`` with the identity kernel.
        """
        c, v = self.cells, self.values
        _, m, B = c.shape
        A = np.zeros((m * m, B))  # rows i*m + j of the (m, m, B) matrices
        A[:: m + 1] = np.maximum(c[2] - c[0] - 2, 0) + np.add.reduce(v * v)
        A[1 :: m + 1] = A[m :: m + 1] = v[2, :-1] * v[0, 1:] + v[3, :-1] * v[1, 1:]
        A = A.reshape(m, m, B)
        close = np.logical_or.reduce(c[2] - c[0] < 2).nonzero()[0]
        if close.size:
            A[..., close] = self.kernel_form(_overlap, np.equal, close).T
        return A.T

    def pair(self, x: np.ndarray, cum: np.ndarray) -> np.ndarray:
        """Sum over cells of the difference times x, given cum = [0, cumsum(x)]."""
        c = self.cells
        lo, hi = c[0] + 2, c[2]
        block = cum.take(np.maximum(hi, lo)) - cum.take(lo)
        return (block + np.add.reduce(self.values * x.take(c))).T

    def switch_points(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """q(t) = #{nodes < t} for the times (k, B) whose differences these are: the
        boundary cell p(t) plus the nodes u_p, u_{p+1} below t, shape (k, B)."""
        p = np.concatenate([self.cells[0, :1], self.cells[2]])
        return p + (nodes.take(p) < times) + (nodes.take(p + 1) < times)

    def segment_sums(self, edges: np.ndarray, f: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Sums over cells of the differences times the rows of f (X, n), F = [0,
        cumsum(f)], in the s segments [edges[j], edges[j+1]) of each tuple: (X, s, m, B).

        edges (s + 1, B) are 0, the ``switch_points`` and n, so the block of
        increment i lies in segment i + 1 (q(t_i) <= p(t_i) + 2, p(t_{i+1}) <=
        q(t_{i+1})) and a boundary cell in the segment of the switch points at or
        below it, one ``bincount`` per row of f.  Temporaries are freed before the
        caller's, whose peak memory decides whether the heap is trimmed and refaulted.
        """
        c = self.cells
        _, m, B = c.shape
        s1, slab = len(edges) - 1, m * B
        bins = sum(edges[s] <= c for s in range(1, s1)) * slab + np.arange(slab).reshape(m, B)
        boundary = f.take(c, axis=1)
        boundary *= self.values
        w = np.empty((len(f), s1 * slab))
        for wc, bc in zip(w, boundary):
            wc[:] = np.bincount(bins.ravel(), bc.ravel(), minlength=s1 * slab)
        w, i = w.reshape(len(f), s1, m, B), np.arange(m)
        w[:, i + 1, i] += cell_sums(c[0] + 2, c[2], f, F)
        return w


def _overlap(x0, x1, y0, y1):
    """Cells shared by [x0, x1) and [y0, y1): the rectangle sums of the identity kernel."""
    return np.maximum(np.minimum(x1, y1) - np.maximum(x0, y0), 0)


def _cell_pair_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (4, 4) cell-pair axes in numpy's pairwise order for 16
    contiguous values (eight partial sums, then a tree), the order of ``np.sum``
    over the (..., 4, 4) transpose: the sums do not depend on the layout."""
    r = x[:2] + x[2:]
    r = r[:, 0::2] + r[:, 1::2]
    return (r[0, 0] + r[0, 1]) + (r[1, 0] + r[1, 1])


def cell_sums(r0, r1, f, F):
    """Sums of the rows of f (X, n) over the cells [r0, r1), F = [0, cumsum(f)]:
    (X,) + r0.shape.  A one-cell range is summed directly: a sub-cell increment has
    at most one cell between its switch points, far smaller than the prefix sums."""
    r1 = np.maximum(r0, r1)
    out = F.take(r1, axis=1)
    out -= F.take(r0, axis=1)
    np.copyto(out, f.take(np.minimum(r0, f.shape[1] - 1), axis=1), where=r1 - r0 == 1)
    return out


def indicator_increments(grid: Grid, times) -> IndicatorIncrements:
    """Differences 1I_[0,b] - 1I_[0,a] of consecutive times (last axis), a <= b.

    times: (B, k) in [0, T], best the tuple-last view from ``grid_times``.  With
    d = p_b - p_a >= 0 the boundary values at cells p_a, p_a + 1, p_b, p_b + 1
    are those of the representation of b less those of a; a cell that d < 2
    lists twice carries 0 at its second listing.
    """
    p, alpha, beta = indicator_params(grid, np.asarray(times).T)
    (pa, pb), (aa, ab), (ba, bb) = ((x[:-1], x[1:]) for x in (p, alpha, beta))
    cells = np.empty((4,) + pa.shape, dtype=pa.dtype)
    cells[0], cells[2] = pa, pb
    np.add(cells[::2], 1, out=cells[1::2])
    d = pb - pa
    one, two = d >= 1, d >= 2
    values = np.empty(cells.shape)
    np.subtract(np.where(one, 1.0, ab), aa, out=values[0])
    np.subtract(np.where(two, 1.0, np.where(one, ab, bb)), ba, out=values[1])
    np.multiply(two, ab, out=values[2])
    np.multiply(one, bb, out=values[3])
    return IndicatorIncrements(cells, values)


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
