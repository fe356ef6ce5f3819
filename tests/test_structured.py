"""The structured covariance route against the continuum oracle.

The batched quadrature computes Gram matrices and shift coefficients as exact
integrals over intervals, in O(1) per time.  ``continuum`` builds the oracle:
rows of the increments on a refined grid that holds every cell edge and every
time, whose dot products are the continuum inner products (``scipy``'s
``quad`` for the perturbed:sl Gram entries).  These tests hold the kernel to
that oracle: random tuples drawn by hypothesis, the nodes of the
``regularized_integral`` lattices, the acceptance quadratures level by level
against closed forms, and every route run on the structured primitives.
The Monte Carlo sampler draws from the same exact covariance and closes on
``fw_eps`` on every model.
"""

import ast
import dataclasses
import functools
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from continuum import continuum_decompose, increment_rows, interval_rows, sl_correction
from silt import (
    DegenerateConfigurationError,
    QuadratureSpec,
    TimeTuple,
    TransformPoint,
    berman_stat,
    counterexample_model,
    decompose,
    divergence_probe,
    fw_eps,
    fw_limit,
    fw_wiener,
    make_grid,
    mc_fw_estimate,
    parse_function,
    parse_model,
    perturbed_model,
    product_form_wiener,
    projection_norm_sq,
    regularized_integral,
    regularized_integrand,
    slnd_ratio,
    slnd_scan,
    sturm_liouville_model,
    wiener_model,
)
from silt import function_space, gram, process_models, regularization, transform
from silt.cli import _sl_covariance
from silt.function_space import Intervals, KernelOperator, interval_integrals
from silt.gram import batch_decompose, batch_projections, gap_scan_tuple
from silt.process_models import ProcessModel
from silt.quadrature import _ORDERS, gap_lattice, gauss_legendre, simplex_rule
from silt.regularization import batch_fw_limit, batch_regularized_integrand
from silt.transform import MC_CHUNK

HALF_PI = math.pi / 2
N = 64


def _file_matrix(n):
    """A seeded nonnegative n x n kernel matrix of norm 1/2."""
    M = np.random.default_rng(5).uniform(size=(n, n))
    return M * (0.5 / np.linalg.norm(M, 2))


_FILE_MATRIX = _file_matrix(N)


def _file_model(n=N):
    """perturbed:file with a seeded nonnegative kernel of norm 1/2."""
    grid = make_grid(1.0, n)
    return perturbed_model(grid, KernelOperator(grid, _file_matrix(n)), "file")


MODELS = {
    "wiener": (wiener_model(make_grid(1.0, N)), 1e-12),
    "counterexample": (counterexample_model(make_grid(1.0, N)), 1e-12),
    "perturbed:sl": (sturm_liouville_model(make_grid(HALF_PI, N)), 1e-12),
    "perturbed:file": (_file_model(), 1e-12),
}
KERNELS = {"perturbed:file": _FILE_MATRIX}


# ---------------------------------------------------------------------------
# the oracles: continuum rows, quad and closed forms


def sl_quad_gram(times):
    """Gram matrix of the perturbed:sl increments of ``times``, each entry by ``quad``
    of the closed form, with break points at the times."""
    times = [float(t) for t in times]

    def increment(a, b):
        return lambda u: float(a <= u < b) + sl_correction(a, b, u)

    incs = [increment(a, b) for a, b in zip(times, times[1:])]
    A = np.empty((len(incs), len(incs)))
    for i, f in enumerate(incs):
        for j, g in enumerate(incs[: i + 1]):
            with warnings.catch_warnings():  # roundoff near a zero entry, far below the bounds
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                A[i, j] = A[j, i] = integrate.quad(
                    lambda u: f(u) * g(u), 0.0, HALF_PI, points=times, epsabs=0.0,
                    epsrel=1e-13, limit=200,
                )[0]
    return A


def continuum_gram(name, times):
    """The continuum Gram matrix of one tuple: ``quad`` for perturbed:sl, the rows
    of the refined grid for the other models."""
    if name == "perturbed:sl":
        return sl_quad_gram(times)
    rows, _ = increment_rows(MODELS[name][0], times, (), KERNELS.get(name))
    return rows @ rows.T


def normalized(rows):
    """Gram matrix of the rows scaled to unit norm."""
    U = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return U @ U.T


def closed_form_integrand(spec, limit=False):
    """Times (B, k) -> the regularized integrand with const1 shifts (or, with ``limit``,
    the limit integrand with zero shifts) from the closed-form covariance and pairing:
    min(s, t) and t on wiener, ``cli._sl_covariance`` and t + 1 - cos t - sin t (the
    integral of g(t)) on perturbed:sl."""
    cov, mass = {
        "wiener": (np.minimum, lambda t: t),
        "perturbed:sl": (_sl_covariance, lambda t: t + 1.0 - np.cos(t) - np.sin(t)),
    }[spec]

    def f(times):
        C = cov(times[:, :, None], times[:, None, :])
        A = np.diff(np.diff(C, axis=1), axis=2)
        L = np.linalg.cholesky(A)
        gamma = np.prod(np.einsum("bii->bi", L), axis=1) ** 2
        if limit:
            return 1.0 / gamma
        y = np.linalg.solve(L, np.diff(mass(times), axis=1)[..., None])[..., 0]
        return np.prod(-np.expm1(-(y**2)), axis=1) / gamma

    return f


# ---------------------------------------------------------------------------
# property: structured == continuum at random tuples


@st.composite
def time_tuples(draw, grid):
    """Tuples with gaps of two cells, at most one sub-cell gap, and
    first or last times at 0, at T or in the last cell.

    Sub-cell gaps go down to 1/20 of a cell; far shorter gaps are the cases of
    ``test_tiny_gap_keeps_the_gram_entries_of_its_neighbours``.
    """
    T, w = grid.T, grid.weight
    two_cells = 2.0 * w
    k = draw(st.integers(2, 4))
    sub = draw(st.integers(-1, k - 2))  # index of the sub-cell gap, -1 for none
    gaps = []
    for i in range(k - 1):
        if i == sub:
            gaps.append(draw(st.floats(0.05, 0.999)) * w)
        elif draw(st.booleans()):
            gaps.append(two_cells)
        else:
            gaps.append(draw(st.floats(two_cells, 0.3 * T)))
    span = sum(gaps)
    where = draw(st.sampled_from(["zero", "end", "last_cell", "free"]))
    if where == "zero":
        t0 = 0.0
    elif where == "end":
        t0 = T - span
    elif where == "last_cell":
        t0 = T - span - draw(st.floats(0.0, 0.999)) * w
    else:
        t0 = draw(st.floats(0.0, 1.0)) * (T - span)
    times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    if where == "end":
        times[-1] = T
    return times[None, :]


def _shifts(model, p1, p2):
    """Two decreasing shifts p - u, positive on [0, T].

    A shift of that shape keeps every coefficient (g(b) - g(a), h) of every
    model here away from 0.  A constant one does not: for perturbed:sl the
    coefficient of a short increment at 0 is about (h(0) - int h cos) (b - a),
    which vanishes, and relative errors of a vanishing projection mean
    nothing.
    """
    g, m = model.grid, model.aux_dim
    aux = np.full(m, 0.5)
    return (function_space.GridFunction(g, p - g.nodes, aux) for p in (p1, p2))


def _rel(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_structured_route_matches_the_continuum(name, data):
    model, rtol = MODELS[name]
    kernel = KERNELS.get(name)
    times = data.draw(time_tuples(model.grid))
    h1, h2 = _shifts(model, data.draw(st.floats(2.0, 3.0)), data.draw(st.floats(2.0, 3.0)))
    k, t = times.shape[1], times[0]

    # g(t_1) and the increments on one refined grid, and the values g(t_j)
    rows, shifts = interval_rows(
        model, np.concatenate([[0.0], t[:-1], np.zeros(k)]), np.concatenate([t, t]),
        (h1, h2), kernel,
    )
    inc_d, E = rows[1:k], rows[k:]
    A = inc_d @ inc_d.T
    L_d = np.linalg.cholesky(A)
    gamma_d = np.prod(np.diag(L_d)) ** 2
    us = [inc_d @ h for h in shifts]
    y1_d, y2_d = (np.linalg.solve(L_d, u) for u in us)
    d = np.sqrt(np.diag(A))
    tol = rtol * np.linalg.cond(A / np.outer(d, d))

    s_, t_ = np.repeat(t, k), np.tile(t, k)
    cov = (E @ E.T).ravel()
    assert np.max(np.abs(model.covariance(s_, t_) - cov)) <= rtol * np.max(cov)

    _, gamma, ys = batch_decompose(model, times, pairs=map(model.pairing, (h1, h2)))
    assert _rel(gamma, gamma_d) <= tol
    for y, y_d in zip(ys, (y1_d, y2_d)):
        assert np.max(np.abs(y - y_d)) <= tol * np.max(np.abs(y_d))

    reg_d = np.prod(-np.expm1(-0.5 * (y1_d**2 + y2_d**2))) / gamma_d
    limit_d = np.exp(-0.5 * np.sum(y1_d**2 + y2_d**2)) / gamma_d
    assert _rel(batch_regularized_integrand(model, h1, h2)(times), reg_d) <= tol
    assert _rel(batch_fw_limit(model, h1, h2)(times), limit_d) <= tol

    # the scalar route: B=1 calls into the same kernel
    tt = TimeTuple(t)
    dec = decompose(model, tt)
    for h in (h1, h2):
        assert 0.0 <= projection_norm_sq(model, tt.times, h) <= h.norm_sq() * (1.0 + tol)
    reg = regularized_integrand(model, tt, h1, h2)
    assert 0.0 <= reg <= 1.0 / dec.gamma
    assert reg == regularized_integrand(model, tt, h2, h1)
    swapped = TransformPoint(model, tt, h2, h1)
    assert fw_limit(TransformPoint(model, tt, h1, h2)) == fw_limit(swapped)
    M = sorted(data.draw(st.sets(st.integers(1, k - 1), min_size=1)))
    comp = [i - 1 for i in range(1, k) if i not in M]
    G = normalized(inc_d)
    want = np.linalg.det(G) / (np.linalg.det(G[np.ix_(comp, comp)]) if comp else 1.0)
    assert abs(slnd_ratio(model, tt, M) / want - 1.0) <= tol

    if t[0] > 0.0 and np.linalg.det(rows[:k] @ rows[:k].T) >= np.finfo(float).tiny:
        G = normalized(rows[:k])
        assert abs(berman_stat(model, tt) / np.linalg.det(G) - 1.0) <= rtol * np.linalg.cond(G)
    elif t[0] > 0.0:  # Gamma of (0, t) is subnormal: refused like any such tuple
        named = re.escape(f"tuple {(0.0, *map(float, t))}")
        with pytest.raises(DegenerateConfigurationError, match=named):
            berman_stat(model, tt)

    eps = 0.1 * np.mean(np.diag(A))
    Ae = A + eps * np.eye(k - 1)
    want = np.exp(-0.5 * sum(u @ np.linalg.solve(Ae, u) for u in us)) / np.linalg.det(Ae)
    assert abs(fw_eps(TransformPoint(model, tt, h1, h2), eps) / want - 1.0) <= tol

    got = [math.sqrt(projection_norm_sq(model, (a, b), h1)) for a, b in zip(t[:-1], t[1:])]
    assert _rel(np.array(got), np.abs(us[0]) / d) <= tol


@st.composite
def cell_tuples(draw, grid):
    """k = 2..5 times (c + f) w whose cells c differ by 0 (at most once), 1, 2 or
    more, so that the boundary cells p differ by 0, 1, 2 or more, with gaps of
    at least w/20, starting at 0 or anywhere, or ending in the last cell or at T.
    The gap inside one cell may instead be drawn log-uniformly in [1e-12, 1e-9].

    A cell difference of 0, or of 1 with a smaller fraction, is a sub-cell gap.
    """
    n = grid.n
    k = draw(st.integers(2, 5))
    sub = draw(st.integers(-1, k - 2))  # index of the gap inside one cell, -1 for none
    steps = [0 if i == sub else draw(st.sampled_from([1, 2, 3, n // 8])) for i in range(k - 1)]
    cells = np.concatenate([[0], np.cumsum(steps)])
    where = draw(st.sampled_from(["zero", "free", "last_cell", "end"]))
    if where == "zero":
        first = 0
    elif where == "free":
        first = draw(st.integers(0, n - 1 - cells[-1]))
    else:
        first = n - 1 - cells[-1] + (where == "end")
    fracs = [draw(st.floats(0.0, 0.9 if sub == 0 else 0.999))]
    for i, step in enumerate(steps, 1):
        lo = {0: fracs[-1] + 0.05, 1: max(0.0, fracs[-1] - 0.95)}.get(step, 0.0)
        fracs.append(draw(st.floats(lo, 0.9 if i == sub else 0.999)))
    if where == "end":
        fracs[-1] = 0.0
    times = (first + cells + np.array(fracs)) * grid.weight
    if sub >= 0 and draw(st.booleans()):  # still inside the cell, below the next time
        times[sub + 1] = times[sub] + 10.0 ** draw(st.floats(-12.0, -9.0))
    return np.minimum(times, grid.T)[None, :]


@functools.lru_cache
def _lattice(T, k, order):
    """Gap rows (R, k-1) of ``regularized_integral``'s order-``order`` lattice and its
    Gauss points in t_1, as ``simplex_rule`` combines them."""
    return gap_lattice(T, k, None, order)[0], gauss_legendre(order)[0]


@st.composite
def lattice_tuples(draw, grid):
    """A node of the ``regularized_integral`` lattice of any k = 2..4 and any order."""
    k, order = draw(st.integers(2, 4)), draw(st.sampled_from(_ORDERS))
    gaps, p = _lattice(grid.T, k, order)
    row = gaps[draw(st.integers(0, len(gaps) - 1))]
    t1 = (grid.T - np.add.reduce(row)) * p[draw(st.integers(0, order - 1))]
    return (t1 + np.concatenate([[0.0], np.add.accumulate(row)]))[None]


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_gram_entries_match_the_continuum(name, data):
    """``increment_gram`` on lattice nodes and on k = 2..5 tuples with sub-cell gaps,
    t_k in the last cell or at T: every entry within 1e-13 sqrt(A_ii A_jj) of the
    continuum (``quad`` of the closed form on perturbed:sl)."""
    model, _ = MODELS[name]
    times = data.draw(st.one_of(lattice_tuples(model.grid), cell_tuples(model.grid)))
    assume(np.min(np.diff(times)) > 0.0)
    A = model.increment_gram(model.increments(times))[0]
    want = continuum_gram(name, times[0])
    d = np.sqrt(np.diag(want))
    assert np.all(np.abs(A - want) <= 1e-13 * np.outer(d, d))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_scalar_calls_equal_rows_of_the_batch(name, data):
    """The scalar calls at a tuple equal, to 4 ulp, its row in one batched call
    on a seeded batch of other tuples: Gamma, ||P h||^2, fw_limit, fw_eps and
    the regularized integrand, for k = 2..5, last-cell and sub-cell tuples
    included.  No value may depend on the batch size or the row."""
    model, _ = MODELS[name]
    times = data.draw(cell_tuples(model.grid))
    assume(np.min(np.diff(times)) > 0)  # two times clipped onto T are no tuple
    tt, k = TimeTuple(times[0]), times.shape[1]
    h1, h2 = _shifts(model, data.draw(st.floats(2.0, 3.0)), data.draw(st.floats(2.0, 3.0)))
    point = TransformPoint(model, tt, h1, h2)
    try:
        scalar = [decompose(model, tt).gamma, projection_norm_sq(model, tt.times, h1)]
    except DegenerateConfigurationError:
        assume(False)
    eps = 0.1
    scalar += [fw_limit(point), fw_eps(point, eps), regularized_integrand(model, tt, h1, h2)]

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    others = np.sort(rng.uniform(0.0, model.grid.T, (data.draw(st.integers(0, 300)), k)), axis=1)
    others = others[np.min(np.diff(others, axis=1), axis=1) > 3 * model.grid.weight]
    row = int(rng.integers(0, len(others) + 1))
    batch = np.insert(others, row, times[0], axis=0)
    gamma, (y1,) = batch_projections(model, h1)(batch)
    fw = batch_fw_limit(model, h1, h2)
    batched = [
        gamma[row],
        float(np.sum(y1[row] ** 2)),
        fw(batch)[row],
        fw(batch, eps)[row],
        batch_regularized_integrand(model, h1, h2)(batch)[row],
    ]
    for got, want in zip(scalar, batched):
        assert abs(got - want) <= 4 * np.spacing(abs(want))


def _arrays(x):
    """The arrays inside an increments' ``extra``: arrays, ``Intervals`` and tuples."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, Intervals):
        return [x.bounds, x.cells]
    return [a for y in (x if isinstance(x, tuple) else ()) for a in _arrays(y)]


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kernel_arrays_keep_the_tuple_axis_innermost(name, k):
    """The Gram kernel stores every per-tuple array tuple-last: the (B, ...)
    arrays that ``increment_gram``, the pairings, ``batch_decompose`` and
    ``batch_cholesky`` return, the normalized pivots and each shift's coefficients
    included, are views whose tuple axis has a stride of one item, and the
    increments' times and the model's extra arrays end with the tuple axis."""
    model, _ = MODELS[name]
    T, B = model.grid.T, 6
    times = T * (np.arange(1, k + 1) / (k + 1) + 0.01 * np.arange(B)[:, None])
    inc = model.increments(times)
    pairs = [model.pairing(parse_function(f, model.grid, model.aux_dim)) for f in ("sin:1", "zero")]
    A, _, ys = batch_decompose(model, times, pairs=pairs)
    pivots, _, _ = gram.batch_cholesky(A, times)
    assert len(ys) == 2 and all(a.shape == (B, k - 1) for a in (pivots, *ys))
    for a in (model.increment_gram(inc), pivots, pairs[0](inc), *ys):
        assert a.base is not None and a.shape[0] == B and a.strides[0] == a.itemsize
    extra = _arrays(inc.extra)
    assert extra
    for a in [inc.times] + extra:
        assert a.shape[-1] == B and a.strides[-1] == a.itemsize


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("gap", [1e-100, 1e-12, 1e-6])
def test_tiny_gap_keeps_the_gram_entries_of_its_neighbours(name, gap):
    """An interval far shorter than a cell, from 0 or from inside a cell, next to
    one of many cells: every Gram entry within 1e-13 sqrt(A_ii A_jj) of the
    continuum.  A rectangle sum over an empty cell range is exactly 0."""
    model, _ = MODELS[name]
    T = model.grid.T
    for times in ([0.0, gap, 0.25 * T], [0.3 * T, 0.3 * T + gap, 0.7 * T]):
        A = model.increment_gram(model.increments(np.array([times])))[0]
        want = continuum_gram(name, times)
        d = np.sqrt(np.diag(want))
        assert np.all(np.abs(A - want) <= 1e-13 * np.outer(d, d))


def _short_segment_tuples(gap):
    """Tuples with a segment of length ``gap`` at 0, pi/4 and pi/2: as an increment, as
    the first or last segment, and beside a segment of nearly pi/2."""
    q = math.pi / 4
    return [
        [0.0, gap, 0.7], [gap, 0.7], [gap, 2 * gap],
        [0.2, q, q + gap, 1.3], [0.2, q - gap, q, 1.3],
        [0.4, HALF_PI - gap, HALF_PI], [0.4, HALF_PI - gap], [HALF_PI - 2 * gap, HALF_PI - gap],
    ]


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6])
def test_sl_gram_of_short_segments_matches_the_continuum(gap):
    """perturbed:sl integrates sin^2, sin cos and cos^2 over each segment at the doubled
    angle.  Its hardest segments, short ones at 0, pi/4 and pi/2 and one of nearly pi/2
    (twice the angle near pi): every Gram entry within 1e-13 sqrt(A_ii A_jj) of the
    continuum rows."""
    model = MODELS["perturbed:sl"][0]
    for times in _short_segment_tuples(gap):
        A = model.increment_gram(model.increments(np.array([times])))[0]
        rows, _ = increment_rows(model, times)
        want = rows @ rows.T
        d = np.sqrt(np.diag(want))
        assert np.all(np.abs(A - want) <= 1e-13 * np.outer(d, d)), times


def test_pairings_on_one_grid_read_one_read_only_table_each(monkeypatch):
    """A wiener pairing and the Wiener oracle read one cell table of the grid, with no sin
    and cos rows; a perturbed:sl pairing and the heads and tails of its intervals
    (``Intervals.ends``) read the grid's trig table.  Each is built once and its arrays
    are read-only."""
    cell_table, read = function_space.cell_table, []

    def spy(grid, trig):
        read.append(cell_table(grid, trig))
        return read[-1]

    monkeypatch.setattr(function_space, "cell_table", spy)
    grid = make_grid(HALF_PI, 48)
    h = parse_function("sin:1", grid)
    for model in (wiener_model(grid), sturm_liouville_model(grid), wiener_model(grid)):
        model.pairing(h)(model.increments(np.array([[0.2, 0.5, 0.9]])))
    transform.wiener_projections(TimeTuple([0.2, 0.5]), h)
    plain, trig = read[0], read[1]
    assert len(read) == 5 and read[2] is trig and read[3] is plain and read[4] is plain
    assert plain[1] is None and plain[2].shape == (1, 48)
    assert trig[1].shape == (2, 49) and trig[2].shape == (3, 48)
    assert np.array_equal(plain[0], trig[0]) and np.array_equal(plain[2], trig[2][:1])
    for a in (*plain[::2], *trig):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_wiener_gram_is_the_gap_diagonal_on_every_lattice():
    """On every lattice of ``regularized_integral`` at n=512 (k = 2..4, every order)
    the Wiener Gram matrices are diag(gaps) exactly, also on the tuples whose t_k
    lies in the last cell (up to 349,548 per lattice), where the two-cell rows
    were off."""
    grid = make_grid(1.0, 512)
    model = wiener_model(grid)
    last = []
    for k in (2, 3, 4):
        for order in _ORDERS:
            for times, _ in simplex_rule(1.0, k, None, order, order, 4096):
                A = model.increment_gram(model.increments(times))
                gaps = np.diff(times, axis=1)
                assert np.array_equal(A, gaps[:, :, None] * np.eye(k - 1))
                last.append(np.sum(times[:, -1] > 1.0 - grid.weight))
    assert min(last) == 0 and max(last) > 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_wiener_const1_integrand_is_the_product_form_at_every_node(k):
    """Wiener with const1 shifts: the regularized integrand is prod (1 - e^{-g_i}) / g_i
    to 1e-13 at every node of every order of ``regularized_integral`` at n=512."""
    grid = make_grid(1.0, 512)
    one = parse_function("const1", grid)
    f = batch_regularized_integrand(wiener_model(grid), one, one)
    orders = _ORDERS if k < 4 else _ORDERS[:-1]  # the order-32 k=4 lattice is 1.2 M nodes
    for order in orders:
        for times, _ in simplex_rule(1.0, k, None, order, order, 4096):
            g = np.diff(times, axis=1)
            assert _rel(f(times), np.prod(-np.expm1(-g) / g, axis=1)) <= 1e-13


@pytest.mark.parametrize("frac", [0.1, 0.3, 0.6, 0.9])
def test_sub_cell_gap_around_a_node_keeps_its_digits(frac):
    """perturbed:sl on the diverge grid, gaps a fraction of a cell straddling a node
    or a cell edge: Gamma within 1e-12 of ``quad``.

    Head and tail of such an increment are integrated directly; summed through
    prefix sums of size O(T), they would cost about eps T / (frac^2 w) of Gamma.
    """
    grid = make_grid(HALF_PI, 8192)
    model = sturm_liouville_model(grid)
    half, node, w = 0.5 * frac * grid.weight, grid.nodes, grid.weight
    rows = [[node[j] - half, node[j] + half, node[j] + half + 0.3] for j in (17, 2900, 6000)]
    rows += [[0.2, 4000 * w - half, 4000 * w + half]]
    gamma = batch_decompose(model, np.array(rows))[1]
    want = [np.linalg.det(sl_quad_gram(t)) for t in rows]
    assert _rel(gamma, np.array(want)) <= 1e-12


def test_sl_gamma_of_a_sub_cell_tuple_matches_quad():
    """Gamma(0.3, 0.30092, 1.0) of perturbed:sl at n=512, a gap of half a cell: within
    1e-12 of ``quad`` of the closed form (the two-cell rows were 48% low)."""
    model = sturm_liouville_model(make_grid(HALF_PI, 512))
    times = [0.3, 0.30092, 1.0]
    gamma = decompose(model, TimeTuple(times)).gamma
    assert abs(gamma / np.linalg.det(sl_quad_gram(times)) - 1.0) <= 1e-12


def test_wiener_tuple_ending_in_the_last_cell_has_the_gap_diagonal():
    """t_3 in the last cell and t_2 two cells before it, where the two-cell rows
    were 3.35% off on the diagonal: A = diag(gaps) exactly."""
    grid = make_grid(1.0, 512)
    times = np.array([[0.5, 0.99509766, 0.99900391]])
    A = wiener_model(grid).increment_gram(wiener_model(grid).increments(times))[0]
    assert np.array_equal(A, np.diag(np.diff(times[0])))


# ---------------------------------------------------------------------------
# the acceptance quadratures agree level by level with the closed forms


@pytest.mark.parametrize(
    "spec, T, k",
    [
        ("wiener", 1.0, 2),
        ("wiener", 1.0, 3),
        ("perturbed:sl", HALF_PI, 2),
        ("perturbed:sl", HALF_PI, 3),
    ],
)
def test_regularized_levels_match_the_closed_form_integrand(monkeypatch, spec, T, k):
    grid = make_grid(T, 512)
    model = process_models.parse_model(spec, grid)
    one = parse_function("const1", grid)
    quad = QuadratureSpec(k=k, levels=4, tol=5e-3)
    got = regularized_integral(model, k, one, one, quad)
    oracle = closed_form_integrand(spec)
    monkeypatch.setattr(regularization, "batch_regularized_integrand", lambda *a: oracle)
    want = regularized_integral(model, k, one, one, quad)
    assert np.allclose(got.level_estimates, want.level_estimates, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [512, 8192])
def test_divergence_probe_matches_the_closed_form_integrand(monkeypatch, n):
    grid = make_grid(1.0, n)
    model = wiener_model(grid)
    zero = parse_function("zero", grid)
    args = (model, 2, zero, zero, (1e-2, 1e-3, 1e-4))
    kw = dict(gap_cells=64, t_cells=32, chunk=1024)
    got = divergence_probe(*args, **kw)
    oracle = closed_form_integrand("wiener", limit=True)
    monkeypatch.setattr(regularization, "batch_fw_limit", lambda *a: oracle)
    want = divergence_probe(*args, **kw)
    assert np.allclose([v for _, v in got], [v for _, v in want], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the intervals of the kernel


@st.composite
def boundary_times(draw, grid):
    """2 to 4 sorted times, each free, on a cell edge, in the last cell, 0 or T."""
    T, w = grid.T, grid.weight
    one = st.one_of(
        st.floats(0.0, T),
        st.integers(0, grid.n).map(lambda j: min(j * w, T)),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: T - f * w),
        st.just(T),
        st.just(0.0),
    )
    return np.sort([draw(one) for _ in range(draw(st.integers(2, 4)))])


@pytest.mark.parametrize("n", [8, 64, 512])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_wiener_gram_is_the_gap_diagonal_on_boundary_times(n, data):
    """Times at 0, T, on cell edges, in the last cell or equal: A = diag(gaps) exactly."""
    grid = make_grid(1.0, n)
    model = wiener_model(grid)
    times = data.draw(boundary_times(grid))
    A = model.increment_gram(model.increments(times[None]))[0]
    assert np.array_equal(A, np.diag(np.diff(times)))


def _assert_exact_cover(grid, times):
    """``Intervals.parts`` rebuilt as cell shares (R, m, n) equal the share of each
    cell that each interval covers, and ``interval_integrals`` of a seeded f with and
    without sin u and cos u equal the sums of f times the integrals over those shares."""
    times = np.asarray(times, dtype=float)
    iv = Intervals.between(grid, np.ascontiguousarray(times.T), trig=True)
    lo, hi, share = (x.T for x in iv.parts())  # (R, m, 3)
    R, m, _ = lo.shape
    cols = np.arange(grid.n)
    got = np.zeros((R, m, grid.n))
    for j in range(3):
        got += ((cols >= lo[..., j : j + 1]) & (cols < hi[..., j : j + 1])) * share[..., j : j + 1]
    edges = np.arange(grid.n + 1) * grid.weight
    a, b = times[:, :-1, None], times[:, 1:, None]
    lo_u, hi_u = np.maximum(a, edges[:-1]), np.minimum(b, edges[1:])
    want = np.maximum(hi_u - lo_u, 0.0) / grid.weight
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    f = np.random.default_rng(3).normal(size=grid.n)
    hi_u = np.maximum(hi_u, lo_u)
    parts = [hi_u - lo_u, np.cos(lo_u) - np.cos(hi_u), np.sin(hi_u) - np.sin(lo_u)]
    for trig, count in ((False, 1), (True, 3)):
        got = interval_integrals(grid, f, trig)(iv)
        want = np.array([np.sum(x * f, axis=-1).T for x in parts[:count]])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [8, 64, 512])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_intervals_cover_the_cells_exactly(n, data):
    """Intervals between times a cell difference 0, 1, 2, 3 or more apart, at 0, on
    cell edges, in the last cell and at T (``cell_tuples`` needs n >= 64)."""
    grid = make_grid(1.0, n)
    tuples = boundary_times(grid).map(lambda t: t[None])
    times = data.draw(st.one_of(tuples, cell_tuples(grid)) if n >= 64 else tuples)
    _assert_exact_cover(grid, times)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_intervals_lattice(n):
    """Every cell difference 0..3 from a time at 0, in the middle, ending in the
    last cell and ending at T, with cell fractions 0, 0.3 and 0.999."""
    grid, w = make_grid(1.0, n), 1.0 / n
    pairs = []
    for d in range(4):
        for fa in (0.0, 0.3, 0.999):
            for fb in (0.0, 0.3, 0.999):
                for ca in (0, n // 2 - 2, n - 1 - d, n - d):
                    a, b = (ca + fa) * w, (ca + d + fb) * w
                    if 0 <= a <= b <= 1.0:
                        pairs.append((a, b))
                pairs += [(0.0, (d + fb) * w), (1.0 - (d + fa) * w, 1.0)]
    times = np.clip(np.array(pairs), 0.0, 1.0)
    cells = Intervals.between(grid, np.ascontiguousarray(times.T)).cells
    assert set(np.diff(cells, axis=0).ravel()) >= {0, 1, 2, 3}
    assert np.any(times == 0.0) and np.any(times == 1.0) and np.any(times[:, 1] > 1.0 - w)
    _assert_exact_cover(grid, times)


# ---------------------------------------------------------------------------
# the Gram kernel's check over thirteen decades of gaps


@st.composite
def log_uniform_tuples(draw, T):
    """k = 2..7 times in [0, T] whose gaps are log-uniform from 1e-13 T to T, all
    scaled down together when their sum passes T, at a uniform offset."""
    k = draw(st.integers(2, 7))
    exponents = draw(st.lists(st.floats(-13.0, 0.0), min_size=k - 1, max_size=k - 1))
    gaps = T * 10.0 ** np.array(exponents)
    if gaps.sum() > T:
        gaps *= (1.0 - 1e-12) * T / gaps.sum()
    times = draw(st.floats(0.0, 1.0)) * (T - gaps.sum()) + np.concatenate([[0.0], np.cumsum(gaps)])
    assume(np.all(np.diff(times) > 0.0) and times[-1] <= T)
    return times


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_tuple_is_refused_for_its_scale(name, data):
    """Gamma is exact (to rounding) and no tuple is refused, with gaps spread over
    thirteen decades: det G stays far above DET_MIN on every model.  Wiener's Gamma
    lies within 4 m ulps of the product of the float gaps; the other models' Gamma
    within 1e-13 (relative) of the continuum oracle's wherever every gap is at least
    1e-6 T, below which the oracle's own rows lose digits.  A drawn shift's
    coefficients keep Bessel's inequality, 0 <= |y|^2 <= ||h||^2 (1 + 4 m eps); with
    const1 in the span (Wiener tuples from 0 to T) |y|^2 exceeded ||h||^2 by 1 m eps."""
    model, _ = MODELS[name]
    T = model.grid.T
    times = data.draw(log_uniform_tuples(T))
    shift = data.draw(st.sampled_from(["const1", "sin:1", "sin:3", "hat:0.5:0.4"]))
    h = parse_function(shift, model.grid, model.aux_dim)
    _, (gamma,), (y,) = batch_decompose(model, times[None], pairs=[model.pairing(h)])
    gaps = np.diff(times)
    bessel = h.norm_sq() * (1.0 + 4 * len(gaps) * np.finfo(float).eps)
    assert 0.0 <= np.add.reduce(y[0] ** 2) <= bessel
    if name == "wiener":
        want = np.prod(gaps)
        assert abs(gamma - want) <= 4 * len(gaps) * np.spacing(want)
    elif gaps.min() >= 1e-6 * T:
        _, want, _ = continuum_decompose(model, times, (), KERNELS.get(name))
        assert abs(gamma / want - 1.0) <= 1e-13


def test_kernel_path_calls_no_eigen_solver_or_lapack_cholesky(monkeypatch):
    """With np.linalg's eigvalsh, eigh and cholesky patched to raise, batch_decompose
    runs at B = 1 and B = 4,096 for m = 1..6 on every model, and so do fw_eps,
    slnd_ratio and berman_stat: one loop factors and checks every Gram matrix."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called on the kernel path")

    for fn in ("eigvalsh", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, fn, refuse)
    rng = np.random.default_rng(8)
    for model, _ in MODELS.values():
        T = model.grid.T
        h = parse_function("sin:1", model.grid, model.aux_dim)
        for k in range(2, 8):
            times = np.sort(rng.uniform(0.0, T, (4096, k)), axis=1)
            times = times[np.all(np.diff(times, axis=1) > 1e-3 * T, axis=1)]
            for batch in (times[:1], np.resize(times, (4096, k))):
                assert np.all(np.isfinite(batch_decompose(model, batch)[1]))
            tt = TimeTuple(times[0])
            values = [
                fw_eps(TransformPoint(model, tt, h, h), 0.1),
                slnd_ratio(model, tt, range(1, k)),
                berman_stat(model, tt) if tt.times[0] > 0 else 1.0,
            ]
            assert np.all(np.isfinite(values))


def test_projections_make_one_factorization_per_batch(monkeypatch):
    """Each batch of batch_projections (h1, h1, h2: two distinct shifts; eps = 0
    and eps > 0), of batch_fw_limit at eps > 0, fw_eps, fw_limit,
    regularized_integrand and projection_norm_sq makes exactly one batch_cholesky
    call, bordered by one column per distinct shift: the shifts' coefficients
    come from that factorization, with no second pass."""
    assert not hasattr(gram, "batch_ortho_coeffs")
    calls, cholesky = [], gram.batch_cholesky

    def counted(A, times, us=()):
        calls.append(len(us))
        return cholesky(A, times, us)

    monkeypatch.setattr(gram, "batch_cholesky", counted)
    for model, _ in MODELS.values():
        h1, h2 = (parse_function(f, model.grid, model.aux_dim) for f in ("sin:1", "sin:2"))
        tt = TimeTuple([f * model.grid.T for f in (0.2, 0.5, 0.9)])
        pt = TransformPoint(model, tt, h1, h2)
        projections, batch = batch_projections(model, h1, h1, h2), np.array([tt.times] * 5)
        for call, border in (
            (lambda: projections(batch), 2),
            (lambda: projections(batch, 0.1), 2),
            (lambda: batch_fw_limit(model, h1, h2)(batch, 0.1), 2),
            (lambda: fw_eps(pt, 0.1), 2),
            (lambda: fw_limit(pt), 2),
            (lambda: regularized_integrand(model, tt, h1, h2), 2),
            (lambda: projection_norm_sq(model, tt.times, h1), 1),
        ):
            calls.clear()
            call()
            assert calls == [border]


# ---------------------------------------------------------------------------
# neither route builds dense factor rows


@pytest.fixture
def no_dense_rows():
    """The four models with a shift each; src/silt has no function that builds dense
    factor rows, so every route below runs on the structured primitives."""
    models = [m for m, _ in MODELS.values()]
    shifts = [parse_function("sin:1", m.grid, m.aux_dim) for m in models]
    return list(zip(models, shifts))


def test_batched_route_builds_no_factor_rows(no_dense_rows):
    for model, h in no_dense_rows:
        rv = regularized_integral(model, 2, h, h, QuadratureSpec(k=2, levels=3))
        assert np.isfinite(rv.value)
        rows = divergence_probe(model, 2, h, h, (1e-1, 1e-2), gap_cells=16, t_cells=8)
        assert all(np.isfinite(v) for _, v in rows)


def test_scalar_route_builds_no_factor_rows(no_dense_rows):
    for model, h in no_dense_rows:
        t = [f * model.grid.T for f in (0.2, 0.5, 0.9)]
        tt = TimeTuple(t)
        dec = decompose(model, tt)
        pt = TransformPoint(model, tt, h, h)
        values = [
            dec.gamma,
            projection_norm_sq(model, tt.times, h),
            fw_limit(pt),
            fw_eps(pt, 0.1),
            regularized_integrand(model, tt, h, h),
            slnd_ratio(model, tt, {1}),
            berman_stat(model, tt),
            projection_norm_sq(model, (t[0], t[1]), h),
            projection_norm_sq(model, (0.0, t[1]), h),
        ]
        assert np.all(np.isfinite(values))


# numpy's Python-level wrappers around ufuncs and array methods
_NUMPY_WRAPPERS = {"fromnumeric", "_methods", "numeric", "shape_base", "_function_base_impl"}


def test_kernel_route_enters_no_numpy_wrapper(no_dense_rows):
    """The scalar calls at k = 2, 3, with their time tuples, a slnd and a
    diagonal-integrand scan over two gaps and a batched ``regularized_integral``
    on the four models call ufuncs and their reduce/accumulate directly: no call
    enters numpy's wrapper modules, each of which costs a B = 1 call about 1-3 us.
    A first unprofiled pass fills the caches."""

    def route():
        for model, h in no_dense_rows:
            T = model.grid.T
            for t in ((0.2, 0.9), (0.2, 0.5, 0.9)):
                tt = TimeTuple([f * T for f in t])
                pt = TransformPoint(model, tt, h, h)
                decompose(model, tt)
                projection_norm_sq(model, tt.times, h)
                fw_limit(pt)
                fw_eps(pt, 0.1)
                regularized_integrand(model, tt, h, h)
                slnd_ratio(model, tt, {1})
                berman_stat(model, tt)
            base, gaps = (0.2 * T, 0.5 * T, 0.9 * T), (0.1 * T, 0.01 * T)
            slnd_scan(model, TimeTuple(base), {1}, gaps)
            for g in gaps:
                regularized_integrand(model, gap_scan_tuple(base, [1], g, T), h, h)
            regularized_integral(model, 2, h, h, QuadratureSpec(k=2, levels=3))

    entered = []

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("numpy."):
            if module.rsplit(".", 1)[1] in _NUMPY_WRAPPERS:
                entered.append(f"{module}.{frame.f_code.co_name}")

    route()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
    assert entered == []


# ---------------------------------------------------------------------------
# the Monte Carlo sampler against the kernel's closed form


def _mc_point(model, rng, k):
    """A seeded analytic-normalization point: gaps of at least T/20, shifts
    with normal coefficients on sin:1 and sin:2."""
    T = model.grid.T
    times = np.sort(rng.uniform(0.0, T, k))
    while np.min(np.diff(times)) < 0.05 * T:
        times = np.sort(rng.uniform(0.0, T, k))
    b1, b2 = (parse_function(f"sin:{j}", model.grid, model.aux_dim) for j in (1, 2))
    h1, h2 = (rng.normal() * b1 + rng.normal() * b2 for _ in range(2))
    return TransformPoint(model, TimeTuple(times), h1, h2, "analytic")


@pytest.mark.parametrize("name", list(MODELS))
def test_mc_sampler_closes_on_fw_eps(name):
    """mc_fw_estimate (eps = 0.5, 200k samples, seed 0) within 4 standard
    errors of fw_eps, at 3 seeded points for each k = 2, 3, 4.

    A correct sampler misses this bound on one of the 36 checks over the
    four models with probability about 0.2%.
    """
    model = MODELS[name][0]
    rng = np.random.default_rng(0)
    z = []
    for k in (2, 3, 4):
        for _ in range(3):
            pt = _mc_point(model, rng, k)
            mean, stderr = mc_fw_estimate(pt, 0.5, 200_000, seed=0)
            z.append(abs(mean - fw_eps(pt, 0.5)) / stderr)
    print(f"{name}: max |z| {max(z):.2f}")
    assert max(z) <= 4.0, z


@pytest.mark.parametrize("name", list(MODELS))
def test_mc_sampler_closes_on_a_sub_cell_gap(name):
    """At times (0.5003, 0.5004), a gap of 1/20 cell at n = 512, the sampler
    (eps = 1e-4, 20k samples, seed 0) is within 4 standard errors of fw_eps.
    Sampling the two-cell grid rows of g(t) instead gave z of about 50."""
    T = HALF_PI if name == "perturbed:sl" else 1.0
    grid = make_grid(T, 512)
    model = _file_model(512) if name == "perturbed:file" else parse_model(name, grid)
    h1, h2 = (parse_function(f, grid, model.aux_dim) for f in ("sin:1", "zero"))
    pt = TransformPoint(model, TimeTuple([0.5003, 0.5004]), h1, h2, "analytic")
    mean, stderr = mc_fw_estimate(pt, 1e-4, 20_000, seed=0)
    z = abs(mean - fw_eps(pt, 1e-4)) / stderr
    print(f"{name}: |z| {z:.2f}")
    assert z <= 4.0


def test_mc_sampler_memory_does_not_grow_with_the_sample_count():
    """The sampler holds one chunk of draws: its peak traced allocation at
    16 * MC_CHUNK samples is that at MC_CHUNK, within a tenth."""
    pt = _mc_point(MODELS["wiener"][0], np.random.default_rng(2), 3)
    peaks = []
    for n in (MC_CHUNK, 16 * MC_CHUNK):
        mc_fw_estimate(pt, 0.5, 1000, seed=0)  # caches and imports outside the trace
        tracemalloc.start()
        try:
            mc_fw_estimate(pt, 0.5, n, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    print(f"peaks {peaks}")
    assert peaks[1] <= 1.1 * peaks[0]


def test_mc_chunks_merge_into_the_variance_of_all_samples(monkeypatch):
    """With one sample per chunk every deviation enters through the merge of the
    chunks: the standard error matches that of one chunk to sampling noise (zero
    shifts keep the samples bounded; 0.98 to 1.02 over seeds 0-19)."""
    model = MODELS["wiener"][0]
    zero = parse_function("zero", model.grid)
    pt = TransformPoint(model, TimeTuple([0.2, 0.5, 0.9]), zero, zero, "analytic")
    one = mc_fw_estimate(pt, 0.5, 4000, seed=0)
    monkeypatch.setattr(transform, "MC_CHUNK", 1)
    each = mc_fw_estimate(pt, 0.5, 4000, seed=0)
    assert abs(each[1] / one[1] - 1.0) <= 0.1
    assert abs(each[0] - one[0]) <= 4.0 * math.hypot(each[1], one[1])


def test_mc_sampler_calls_no_gram_kernel(monkeypatch):
    """The sampler reads the models' primitives but none of the algebra it
    validates: with the Gram factorization, the projections and fw_eps raising,
    it still runs on all four models and at a tuple whose Gram matrix is singular."""

    def kernel_called(*args, **kwargs):
        raise AssertionError("the sampler called the Gram kernel")

    monkeypatch.setattr(gram, "batch_decompose", kernel_called)
    monkeypatch.setattr(gram, "batch_cholesky", kernel_called)
    for module in (gram, transform):
        monkeypatch.setattr(module, "batch_projections", kernel_called)
    monkeypatch.setattr(transform, "fw_eps", kernel_called)
    points = [_mc_point(model, np.random.default_rng(1), 3) for model, _ in MODELS.values()]
    singular = TimeTuple([0.1, 0.1 + 1e-13, 0.9])
    points.append(dataclasses.replace(points[0], tt=singular))
    for pt in points:
        mean, stderr = mc_fw_estimate(pt, 0.5, 2000, seed=0)
        assert np.isfinite(mean) and stderr > 0


def test_wiener_oracles_call_no_model_or_kernel(monkeypatch):
    """fw_wiener and product_form_wiener integrate the shifts from their cumulative: with
    the models' primitives and the Gram kernel raising, they give the same values."""
    model = wiener_model(make_grid(1.0, N))
    h1 = 0.7 * parse_function("sin:1", model.grid) - parse_function("sin:2", model.grid)
    h2 = parse_function("hat:0.4:0.3", model.grid)
    tts = [TimeTuple(t) for t in ([0.1, 0.45], [0.2, 0.5, 0.9], [0.05, 0.3, 0.31, 0.7, 1.0])]
    want = [(fw_wiener(tt, h1, h2), product_form_wiener(tt, h1, h2)) for tt in tts]

    def called(*args, **kwargs):
        raise AssertionError("the Wiener oracle called a model or the Gram kernel")

    for name in ("increments", "increment_gram", "pairing"):
        monkeypatch.setattr(ProcessModel, name, called)
    monkeypatch.setattr(gram, "batch_decompose", called)
    monkeypatch.setattr(gram, "batch_cholesky", called)
    got = [(fw_wiener(tt, h1, h2), product_form_wiener(tt, h1, h2)) for tt in tts]
    assert got == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_mc_estimate_is_reproducible_for_a_seed(data):
    """Two calls with the same seed give bitwise-equal (mean, stderr), also
    for sample counts that are not a multiple of the chunk size."""
    model = MODELS[data.draw(st.sampled_from(list(MODELS)))][0]
    times = data.draw(time_tuples(model.grid))[0]
    h1, h2 = _shifts(model, data.draw(st.floats(2.0, 3.0)), data.draw(st.floats(2.0, 3.0)))
    pt = TransformPoint(model, TimeTuple(times), h1, h2, "analytic")
    n = data.draw(
        st.one_of(
            st.integers(1000, 3 * MC_CHUNK),
            st.sampled_from([MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK]),
        )
    )
    seed = data.draw(st.integers(0, 2**63))
    first = mc_fw_estimate(pt, 0.5, n, seed)
    assert np.all(np.isfinite(first))
    assert mc_fw_estimate(pt, 0.5, n, seed) == first


# ---------------------------------------------------------------------------
# every public name of src/silt has a caller outside the tests


def _assigned(node):
    """The names a module- or class-level (annotated) assignment binds, else []."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_has_a_production_caller():
    """Every public module-level function, class and constant of ``src/silt``, and
    every public member of its classes (methods, properties, dataclass fields), is
    read, as a name or an attribute outside its own module-level definition, by
    ``src/silt`` outside ``__init__.py`` or by the benchmark code outside
    ``perfbench/tests``: code with no caller outside the tests is deleted, with no
    allowlist.  Read from the source with ``ast``."""
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "silt").glob("*.py"))
    bench = root / "perfbench"
    callers = [p for p in sources if p.name != "__init__.py"] + [
        p for p in sorted(bench.rglob("*.py")) if bench / "tests" not in p.parents
    ]
    public = {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                members = [getattr(m, "name", None) for m in node.body] + [
                    n for m in node.body for n in _assigned(m)
                ]
                public.update(
                    (f"{path.name}:{node.name}.{n}", n) for n in members if n and n[0] != "_"
                )
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            public.update((f"{path.name}:{n}", n) for n in names + _assigned(node) if n[0] != "_")
    assert any("." in key.partition(":")[2] for key in public)  # members were collected

    referenced = set()
    for path in callers:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name != own:
                        referenced.add(name)
    unused = sorted(key for key, name in public.items() if name not in referenced)
    assert not unused, f"no caller outside the tests: {unused}"
