"""Discretized real Hilbert space L2([0,T]) + R^m.

Functions are sampled on a uniform midpoint grid; an optional block of
auxiliary coordinates (orthonormal to the grid part by construction) carries
finite-dimensional directions such as the e+0 direction of the
counterexample process.

Indicator elements 1I_[0,t] use a two-cell boundary construction: the two
cells around t carry values chosen so that both the mass and the squared
norm of the cell representation are exact.  As a consequence
||1I_[0,t]||^2 = t holds to machine precision for every t, and inner
products of indicators whose boundary cells are at least two cells apart
are exact as well.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ValidationError


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [0, T] with n cells."""

    T: float
    n: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValidationError(f"grid endpoint must be positive, got T={self.T}")
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

    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq(), 0.0))

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


def indicator_params(grid: Grid, t):
    """Two-cell construction of 1I_[0,t] for an array of times: (p, alpha, beta).

    The cell representation is one on cells [0, p), alpha on cell p, beta on
    cell p + 1 and zero beyond, with alpha + beta and alpha^2 + beta^2 chosen
    so that both the mass and the squared norm are exact.  A time in the last
    cell, and t = T (alpha = beta = 1), use the cells n-2 and n-1, so p <= n-2.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > grid.T + 1e-12):
        bad = t[(t < -1e-12) | (t > grid.T + 1e-12)][0]
        raise ValidationError(f"time {bad} outside [0, {grid.T}]")
    t = np.clip(t, 0.0, grid.T)
    n, w = grid.n, grid.weight
    c = np.minimum(np.floor(t / w).astype(int), n)
    f = t / w - c
    last = c == n - 1
    s = np.where(last, 1.0 + f, f)
    d = np.sqrt(np.where(last, s * (1.0 - f), f * (2.0 - f)))
    alpha = np.where(c == n, 1.0, (s + d) / 2.0)
    beta = np.where(c == n, 1.0, (s - d) / 2.0)
    return np.minimum(c, n - 2), alpha, beta


def _indicator_cells(j, p, alpha, beta):
    """Values at cells j of the representations with parameters (p, alpha, beta)."""
    return np.where(j < p, 1.0, np.where(j == p, alpha, np.where(j == p + 1, beta, 0.0)))


def indicator_values(grid: Grid, t) -> np.ndarray:
    """Cell representations of 1I_[0,t] for an array of times, shape (B, n).

    Built from ``indicator_params``: norm^2 = t exactly.
    """
    p, alpha, beta = indicator_params(grid, np.atleast_1d(t))
    V = (np.arange(grid.n)[None, :] < p[:, None]).astype(float)
    rows = np.arange(p.shape[0])
    V[rows, p] = alpha
    V[rows, p + 1] = beta
    return V


@dataclass(frozen=True)
class IndicatorIncrements:
    """Cell representations of 1I_[0,b] - 1I_[0,a] for arrays a <= b, O(1) each.

    The difference is one on the block of cells [lo, hi) (empty when
    hi <= lo) and takes the values ``val`` at the four cells ``pos`` (last
    axis) around the two boundaries; it is zero elsewhere.  A cell listed
    twice carries value 0 at its second listing, and no listed cell lies in
    the block.  Each boundary value is a difference of two cell values, as in
    the dense rows, so sums over cells lose no digits to cancellation.
    """

    lo: np.ndarray
    hi: np.ndarray
    pos: np.ndarray
    val: np.ndarray

    def dot(self, other: "IndicatorIncrements") -> np.ndarray:
        """Sum over cells of the product of two differences (broadcasting)."""
        both = np.minimum(self.hi, other.hi) - np.maximum(self.lo, other.lo)
        mine = self._listed_in(other.lo, other.hi)
        theirs = other._listed_in(self.lo, self.hi)
        same = self.pos[..., :, None] == other.pos[..., None, :]
        cross = self.val[..., :, None] * other.val[..., None, :]
        return (
            np.maximum(both, 0)
            + np.sum(self.val * mine, axis=-1)
            + np.sum(other.val * theirs, axis=-1)
            + np.sum(cross * same, axis=(-2, -1))
        )

    def pair(self, x: np.ndarray, cum: np.ndarray) -> np.ndarray:
        """Sum over cells of the difference times x, given cum = [0, cumsum(x)]."""
        block = cum[np.maximum(self.hi, self.lo)] - cum[self.lo]
        return block + np.sum(self.val * x[self.pos], axis=-1)

    def _listed_in(self, lo, hi) -> np.ndarray:
        return (self.pos >= lo[..., None]) & (self.pos < hi[..., None])


def indicator_increments(grid: Grid, times) -> IndicatorIncrements:
    """Differences 1I_[0,b] - 1I_[0,a] of consecutive times (last axis), a <= b."""
    p, alpha, beta = (x[..., None] for x in indicator_params(grid, times))
    pa, pb = p[..., :-1, :], p[..., 1:, :]
    pos = np.concatenate([pa, pa + 1, pb, pb + 1], axis=-1)
    val = _indicator_cells(pos, pb, alpha[..., 1:, :], beta[..., 1:, :]) - _indicator_cells(
        pos, pa, alpha[..., :-1, :], beta[..., :-1, :]
    )
    pa, pb = pa[..., 0], pb[..., 0]
    val[..., 2] = np.where(pb <= pa + 1, 0.0, val[..., 2])
    val[..., 3] = np.where(pb == pa, 0.0, val[..., 3])
    return IndicatorIncrements(pa + 2, pb, pos, val)


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


def apply_operator(K: KernelOperator, f: GridFunction) -> GridFunction:
    """(Kf)(node_i) = sum_j matrix(i,j) f(node_j)."""
    if K.grid != f.grid:
        raise GridMismatchError("operator and function live on different grids")
    if f.aux_dim != 0:
        raise GridMismatchError("kernel operators act on grid-only functions")
    return GridFunction(K.grid, K.matrix @ f.values)


def operator_norm(K: KernelOperator, tol: float = 1e-8, max_iter: int = 200) -> float:
    """Largest singular value via power iteration on K*K.

    Deterministic start vector (normalized constant); relative tolerance on
    the dominant eigenvalue of K*K.
    """
    M = K.matrix
    v = np.ones(K.grid.n) / math.sqrt(K.grid.n)
    lam = 0.0
    for _ in range(max_iter):
        u = M.T @ (M @ v)
        new = float(np.linalg.norm(u))
        if new == 0.0:
            return 0.0
        v = u / new
        if abs(new - lam) <= tol * new:
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


def write_grid_function(f: GridFunction, fh) -> None:
    """CSV with header node,value; aux coordinates in a trailing aux,value block."""
    writer = csv.writer(fh)
    writer.writerow(["node", "value"])
    for x, v in zip(f.grid.nodes, f.values):
        writer.writerow([repr(float(x)), repr(float(v))])
    if f.aux_dim:
        writer.writerow(["aux", "value"])
        for i, v in enumerate(f.aux):
            writer.writerow([i, repr(float(v))])


def read_grid_function(grid: Grid, fh) -> GridFunction:
    """Read the CSV format written by write_grid_function."""
    if isinstance(fh, str):
        fh = io.StringIO(fh)
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
