"""The structured covariance route against the dense factor rows.

The batched quadrature computes Gram matrices and shift coefficients from
O(1)-per-time primitives; ``embedded_factors`` builds the dense rows that
the same inner products used to come from.  These tests hold the two to
rounding: random tuples drawn by hypothesis, the acceptance quadratures
level by level, and a run in which building a dense row is an error.  The
Monte Carlo sampler, which draws from the dense rows alone, closes on the
kernel's closed form ``fw_eps`` on every model.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    integrand_diagonal_scan,
    make_grid,
    mc_fw_estimate,
    parse_function,
    perturbed_model,
    point_projection_norm_sq,
    product_form_wiener,
    projection_decay,
    projection_norm_sq,
    regularized_integral,
    regularized_integrand,
    slnd_ratio,
    slnd_scan,
    sturm_liouville_model,
    wiener_model,
)
from silt import function_space, gram, process_models, regularization, transform
from silt.function_space import KernelOperator
from silt.gram import batch_decompose, batch_ortho_coeffs, batch_projections
from silt.process_models import ProcessModel
from silt.quadrature import integrate_simplex_level
from silt.regularization import batch_fw_limit, batch_regularized_integrand, default_min_gap
from silt.transform import MC_CHUNK

HALF_PI = math.pi / 2
N = 64


def _file_model():
    """perturbed:file with a seeded nonnegative kernel of norm 1/2."""
    grid = make_grid(1.0, N)
    M = np.random.default_rng(5).uniform(size=(N, N))
    return perturbed_model(grid, KernelOperator(grid, 0.5 * M / np.linalg.norm(M, 2)), "file")


MODELS = {
    "wiener": (wiener_model(make_grid(1.0, N)), 1e-12),
    "counterexample": (counterexample_model(make_grid(1.0, N)), 1e-12),
    "perturbed:sl": (sturm_liouville_model(make_grid(HALF_PI, N)), 1e-12),
    "perturbed:file": (_file_model(), 1e-10),
}


# ---------------------------------------------------------------------------
# the dense oracle: increments of embedded factor rows


def dense_decompose(model, times, hs):
    """(A, gamma, ortho coefficients per shift) from the dense factor rows."""
    B, k = times.shape
    inc = np.diff(model.embedded_factors(times.ravel()).reshape(B, k, -1), axis=1)
    A = inc @ inc.transpose(0, 2, 1)
    L = np.linalg.cholesky(A)
    gamma = np.prod(np.einsum("bii->bi", L), axis=1) ** 2
    ys = [np.linalg.solve(L, (inc @ h.embedded())[..., None])[..., 0] for h in hs]
    return A, gamma, ys


def dense_normalized(rows):
    """Gram matrix of the rows scaled to unit norm."""
    U = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return U @ U.T


def dense_regularized_integrand(model, h1, h2):
    def f(times):
        _, gamma, (y1, y2) = dense_decompose(model, times, (h1, h2))
        return np.prod(-np.expm1(-0.5 * (y1**2 + y2**2)), axis=1) / gamma

    return f


def dense_fw_limit(model, h1, h2, normalization="paper"):
    assert normalization == "paper"

    def f(times):
        _, gamma, (y1, y2) = dense_decompose(model, times, (h1, h2))
        return np.exp(-0.5 * (y1**2 + y2**2).sum(axis=1)) / gamma

    return f


# ---------------------------------------------------------------------------
# property: structured == dense at random tuples


@st.composite
def time_tuples(draw, grid):
    """Tuples with closure gaps (min_gap), at most one sub-cell gap, and
    first or last times at 0, at T or in the last cell.

    Sub-cell gaps go down to 1/20 of a cell.  Below that the dense rows of
    the perturbed models lose digits themselves: a cell of S 1I_[0,b] -
    S 1I_[0,a] is a difference of O(1) numbers worth about b - a.
    """
    T, w = grid.T, grid.weight
    min_gap = default_min_gap(grid)
    k = draw(st.integers(2, 4))
    sub = draw(st.integers(-1, k - 2))  # index of the sub-cell gap, -1 for none
    gaps = []
    for i in range(k - 1):
        if i == sub:
            gaps.append(draw(st.floats(0.05, 0.999)) * w)
        elif draw(st.booleans()):
            gaps.append(min_gap)
        else:
            gaps.append(draw(st.floats(min_gap, 0.3 * T)))
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
def test_structured_route_matches_dense_factor_rows(name, data):
    model, rtol = MODELS[name]
    times = data.draw(time_tuples(model.grid))
    h1, h2 = _shifts(model, data.draw(st.floats(2.0, 3.0)), data.draw(st.floats(2.0, 3.0)))

    A, gamma_d, (y1_d, y2_d) = dense_decompose(model, times, (h1, h2))
    d = np.sqrt(np.diag(A[0]))
    cond = np.linalg.cond(A[0] / np.outer(d, d))
    tol = rtol * cond

    s, t = np.repeat(times[0], k := times.shape[1]), np.tile(times[0], k)
    E = model.embedded_factors(times[0])
    cov = (E @ E.T).ravel()
    assert np.max(np.abs(model.covariance(s, t) - cov)) <= rtol * np.max(cov)

    inc, _, L, gamma = batch_decompose(model, times)
    assert _rel(gamma, gamma_d) <= tol
    for h, y_d in ((h1, y1_d), (h2, y2_d)):
        y = batch_ortho_coeffs(L, model.pairing(h)(inc))
        assert np.max(np.abs(y - y_d)) <= tol * np.max(np.abs(y_d))

    for structured, dense in (
        (batch_regularized_integrand, dense_regularized_integrand),
        (batch_fw_limit, dense_fw_limit),
    ):
        assert _rel(structured(model, h1, h2)(times), dense(model, h1, h2)(times)) <= tol

    # the scalar route: B=1 calls into the same kernel
    tt = TimeTuple(times[0])
    dec = decompose(model, tt)
    for h in (h1, h2):
        assert 0.0 <= projection_norm_sq(model, tt.times, h) <= h.norm_sq() * (1.0 + tol)
    reg = regularized_integrand(model, tt, h1, h2)
    assert 0.0 <= reg <= 1.0 / dec.gamma
    assert reg == regularized_integrand(model, tt, h2, h1)
    swapped = TransformPoint(model, tt, h2, h1)
    assert fw_limit(TransformPoint(model, tt, h1, h2)) == fw_limit(swapped)
    inc_d = np.diff(E, axis=0)
    M = sorted(data.draw(st.sets(st.integers(1, k - 1), min_size=1)))
    comp = [i - 1 for i in range(1, k) if i not in M]
    G = dense_normalized(inc_d)
    want = np.linalg.det(G) / (np.linalg.det(G[np.ix_(comp, comp)]) if comp else 1.0)
    assert abs(slnd_ratio(model, tt, M) / want - 1.0) <= tol

    # a dense row of g(t_1) with subnormal entries has no accurate norm
    if times[0, 0] >= np.finfo(float).tiny:
        G = dense_normalized(np.vstack([E[:1], inc_d]))
        assert abs(berman_stat(model, tt) / np.linalg.det(G) - 1.0) <= rtol * np.linalg.cond(G)

    eps = 0.1 * np.mean(np.diag(A[0]))
    Ae = A[0] + eps * np.eye(k - 1)
    us = (inc_d @ h1.embedded(), inc_d @ h2.embedded())
    want = np.exp(-0.5 * sum(u @ np.linalg.solve(Ae, u) for u in us)) / np.linalg.det(Ae)
    assert abs(fw_eps(TransformPoint(model, tt, h1, h2), eps) / want - 1.0) <= tol

    got = [projection_decay(model, a, b, h1) for a, b in zip(times[0, :-1], times[0, 1:])]
    assert _rel(np.array(got), np.abs(us[0]) / np.linalg.norm(inc_d, axis=1)) <= tol


@st.composite
def cell_tuples(draw, grid):
    """k = 2..5 times (c + f) w whose cells c differ by 0 (at most once), 1, 2 or
    more, so that the boundary cells p differ by 0, 1, 2 or more, with gaps of
    at least w/20, starting at 0 or anywhere, or ending in the last cell or at T.

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
    return np.minimum((first + cells + np.array(fracs)) * grid.weight, grid.T)[None, :]


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_band_gram_matches_dense_factor_rows(name, data):
    """``increment_gram`` (the band, its pairwise fallback and the sl segment
    basis) against the dense factor rows, entry by entry."""
    model, rtol = MODELS[name]
    times = data.draw(cell_tuples(model.grid))
    A = model.increment_gram(model.increments(times))[0]
    E = np.diff(model.embedded_factors(times[0]), axis=0)
    d = np.sqrt(np.diag(E @ E.T))
    assert np.all(np.abs(A - E @ E.T) <= rtol * np.outer(d, d))


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
    assume(np.min(np.diff(times)) >= 1e-9)  # two times clipped onto T are no tuple
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
    noise = eps * np.eye(k - 1)
    noisy = dataclasses.replace(model, _gram=lambda inc: model.increment_gram(inc) + noise)
    det, ys = batch_projections(noisy, h1, h2)(batch)
    smoothed = math.exp(-0.5 * sum(float(np.sum(y[row] ** 2)) for y in ys)) / float(det[row])
    batched = [
        gamma[row],
        float(np.sum(y1[row] ** 2)),
        batch_fw_limit(model, h1, h2)(batch)[row],
        smoothed,
        batch_regularized_integrand(model, h1, h2)(batch)[row],
    ]
    for got, want in zip(scalar, batched):
        assert abs(got - want) <= 4 * np.spacing(abs(want))


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kernel_arrays_keep_the_tuple_axis_innermost(name, k):
    """The Gram kernel stores every per-tuple array tuple-last: the (B, ...)
    arrays that ``increments``, ``increment_gram``, the pairings and
    ``batch_decompose`` return are views whose tuple axis has a stride of one
    item, and the model's extra arrays end with the tuple axis."""
    model, _ = MODELS[name]
    T, B = model.grid.T, 6
    times = T * (np.arange(1, k + 1) / (k + 1) + 0.01 * np.arange(B)[:, None])
    inc = model.increments(times)
    _, _, L, _ = batch_decompose(model, times)
    u = model.pairing(parse_function("sin:1", model.grid, model.aux_dim))(inc)
    for a in (inc.steps.cells, inc.steps.values):
        assert a.shape[-1] == B and a.strides[-1] == a.itemsize
    for a in (model.increment_gram(inc), L, u):
        assert a.shape[0] == B and a.strides[0] == a.itemsize
    extra = inc.extra if isinstance(inc.extra, tuple) else (inc.extra,) * (inc.extra is not None)
    for a in extra:
        assert a.shape[-1] == B and a.strides[-1] == a.itemsize


@pytest.mark.parametrize("spec, T", [("wiener", 1.0), ("perturbed:sl", HALF_PI)])
def test_pairwise_dot_gets_exactly_the_rows_that_break_the_separation_rule(
    monkeypatch, spec, T
):
    """On the order-12, k=3 lattice of ``regularized_integral`` at n=512, the 4
    tuples whose boundary cells p of consecutive times differ by less than 2
    (t_3 in the last cell) go through ``IndicatorIncrements.kernel_form``, and no
    other; on the others the band equals the pairwise form of the same kernel."""
    grid = make_grid(T, 512)
    model = process_models.parse_model(spec, grid)
    lattice = []

    def record(times):
        lattice.append(times)
        return np.zeros(len(times))

    integrate_simplex_level(T, 3, record, default_min_gap(grid), 12, 12, closure=True)
    times = np.concatenate(lattice)
    p = function_space.indicator_params(grid, times)[0]
    breaks = np.any(np.diff(p, axis=1) < 2, axis=1)
    assert breaks.sum() == 4 and np.all(p[breaks, -1] == grid.n - 2)
    inc = model.increments(times)
    seen = []
    form = function_space.IndicatorIncrements.kernel_form

    def spy(d, rect, entry, rows):
        seen.append((d, rect, entry, rows))
        return form(d, rect, entry, rows)

    monkeypatch.setattr(function_space.IndicatorIncrements, "kernel_form", spy)
    A = inc.steps.gram()
    assert len(seen) == 1
    d, rect, entry, rows = seen[0]
    assert np.array_equal(d.cells[..., rows], inc.steps.cells[..., breaks])
    monkeypatch.undo()
    pairwise = inc.steps.kernel_form(rect, entry)
    assert np.max(np.abs(A - pairwise)) <= 1e-15 * np.max(np.abs(pairwise))


@pytest.mark.parametrize("frac", [0.1, 0.3, 0.6, 0.9])
def test_sub_cell_gap_around_a_node_keeps_its_digits(frac):
    """perturbed:sl on the diverge grid, gaps a fraction of a cell straddling a node.

    Such an increment has one cell between the switch points q(a) and q(b).
    Summed through prefix sums of size O(T), that cell would cost about
    eps T / (frac^2 w) of Gamma (1e-10 at frac 0.1); it is summed directly.
    """
    grid = make_grid(HALF_PI, 8192)
    model = sturm_liouville_model(grid)
    half, node = 0.5 * frac * grid.weight, grid.nodes
    rows = [[node[j] - half, node[j] + half, node[j] + half + 0.3] for j in (17, 2900, 6000)]
    times = np.array(rows + [[0.2, node[4000] - half, node[4000] + half]])
    A, gamma_d, _ = dense_decompose(model, times, ())
    gamma = batch_decompose(model, times)[3]
    assert _rel(gamma, gamma_d) <= 1e-12


# ---------------------------------------------------------------------------
# the acceptance quadratures agree level by level


@pytest.mark.parametrize(
    "spec, T, k",
    [
        ("wiener", 1.0, 2),
        ("wiener", 1.0, 3),
        ("perturbed:sl", HALF_PI, 2),
        ("perturbed:sl", HALF_PI, 3),
    ],
)
def test_regularized_levels_match_dense_integrand(monkeypatch, spec, T, k):
    grid = make_grid(T, 512)
    model = process_models.parse_model(spec, grid)
    one = parse_function("const1", grid)
    quad = QuadratureSpec(k=k, levels=4, tol=5e-3)
    got = regularized_integral(model, k, one, one, quad)
    monkeypatch.setattr(regularization, "batch_regularized_integrand", dense_regularized_integrand)
    want = regularized_integral(model, k, one, one, quad)
    assert np.allclose(got.level_estimates, want.level_estimates, rtol=1e-12, atol=0.0)


def test_divergence_probe_matches_dense_integrand(monkeypatch):
    grid = make_grid(1.0, 8192)
    model = wiener_model(grid)
    zero = parse_function("zero", grid)
    args = (model, 2, zero, zero, (1e-2, 1e-3, 1e-4))
    kw = dict(gap_cells=64, t_cells=32, chunk=1024)
    got = divergence_probe(*args, **kw)
    monkeypatch.setattr(regularization, "batch_fw_limit", dense_fw_limit)
    want = divergence_probe(*args, **kw)
    assert np.allclose([v for _, v in got], [v for _, v in want], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the separation rule of the two-cell indicators


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
def test_separated_increments_have_exact_gram_entries(n, data):
    """(1I_[0,s], 1I_[0,t]) = min(s, t) when the boundary cell pairs {p, p+1}
    of s and t, p = min(floor(t/w), n-2), are disjoint.  So the Gram entries
    of increments are exact when those pairs of their distinct times are.

    Boundary cells two cells apart are not enough: a time in the last cell
    has p = n-2, the pair of a time in cell n-3.
    """
    grid = make_grid(1.0, n)
    model = wiener_model(grid)
    times = data.draw(boundary_times(grid))
    p = function_space.indicator_params(grid, times)[0]
    same = times[:, None] == times[None, :]
    assume(np.all(same | (np.abs(p[:, None] - p[None, :]) >= 2)))
    a, b = times[:-1], times[1:]
    exact = np.maximum(np.minimum(b[:, None], b) - np.maximum(a[:, None], a), 0.0)
    A = model.increment_gram(model.increments(times[None]))[0]
    assert np.max(np.abs(A - exact)) <= 1e-14
    E = np.diff(model.embedded_factors(times), axis=0)
    assert np.max(np.abs(E @ E.T - exact)) <= 1e-14


def _assert_dense_differences(grid, times):
    """Each row of ``indicator_increments`` rebuilt from its cells and values (the
    block [cells[0] + 2, cells[2]) of ones plus the four boundary values) is
    bitwise the difference of the dense rows of its two times."""
    inc = function_space.indicator_increments(grid, times)
    cells, values = inc.cells.T, inc.values.T  # (R, m, 4)
    R, m, _ = cells.shape
    cols = np.arange(grid.n)
    rows = (cols >= cells[..., :1] + 2) & (cols < cells[..., 2:3])
    rows = rows.astype(float)
    r, i = np.indices((R, m))
    for j in range(4):
        rows[r, i, cells[..., j]] += values[..., j]
    dense = function_space.indicator_values(grid, times.ravel()).reshape(R, -1, grid.n)
    np.testing.assert_array_equal(rows, dense[:, 1:] - dense[:, :-1])


@pytest.mark.parametrize("n", [8, 64, 512])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_indicator_increments_are_the_dense_differences(n, data):
    """The closed-form boundary values of ``indicator_increments`` on times a
    cell difference 0, 1, 2, 3 or more apart, at 0, on cell edges, in the last
    cell and at T (``cell_tuples`` needs n >= 64)."""
    grid = make_grid(1.0, n)
    tuples = boundary_times(grid).map(lambda t: t[None])
    times = data.draw(st.one_of(tuples, cell_tuples(grid)) if n >= 64 else tuples)
    _assert_dense_differences(grid, times)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_indicator_increments_lattice(n):
    """Every p-difference 0..3 from a time at 0, in the middle, ending in the
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
    p = function_space.indicator_params(grid, times)[0]
    assert set(np.diff(p, axis=1).ravel()) >= {0, 1, 2, 3}
    assert np.any(times == 0.0) and np.any(times == 1.0) and np.any(times[:, 1] > 1.0 - w)
    _assert_dense_differences(grid, times)


# ---------------------------------------------------------------------------
# neither route builds dense factor rows


@pytest.fixture
def no_dense_rows(monkeypatch):
    """The four models with a shift each; building a dense factor row raises."""
    models = [m for m, _ in MODELS.values()]
    shifts = [parse_function("sin:1", m.grid, m.aux_dim) for m in models]

    def dense_row_built(*args, **kwargs):
        raise AssertionError("dense factor rows built")

    monkeypatch.setattr(ProcessModel, "factor_values", dense_row_built)
    monkeypatch.setattr(function_space, "indicator_values", dense_row_built)
    monkeypatch.setattr(process_models, "indicator_values", dense_row_built)
    return list(zip(models, shifts))


def test_batched_route_builds_no_factor_rows(no_dense_rows):
    for model, h in no_dense_rows:
        rv = regularized_integral(model, 2, h, h, QuadratureSpec(k=2, levels=2))
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
            projection_decay(model, t[0], t[1], h),
            point_projection_norm_sq(model, t[1], h),
        ]
        assert np.all(np.isfinite(values))


# numpy's Python-level wrappers around ufuncs and array methods
_NUMPY_WRAPPERS = {"fromnumeric", "_methods", "numeric", "shape_base", "_function_base_impl"}


def test_kernel_route_enters_no_numpy_wrapper(no_dense_rows):
    """The scalar calls at k = 2, 3, with their time tuples, a slnd and a
    diagonal-integrand scan over two gaps and a batched ``regularized_integral``
    on the four models call ufuncs and their reduce/accumulate directly: no call
    enters numpy's wrapper modules, each of which costs a B = 1 call about 1-3 us.
    (The Berman statistic at k = 3 factors a 3 x 3 matrix through ``np.linalg``,
    whose wrappers lie outside these modules.)  A first unprofiled pass fills the
    caches."""

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
            integrand_diagonal_scan(model, base, 1, gaps, h, h)
            regularized_integral(model, 2, h, h, QuadratureSpec(k=2, levels=2))

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
# the Monte Carlo sampler: dense rows against the kernel's closed form


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
    errors of fw_eps at 3 seeded points for each k = 2, 3, 4.

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


def test_mc_sampler_calls_no_gram_kernel(monkeypatch):
    """The sampler stays independent of the kernel it validates: with the
    kernel's entry points raising, it still runs on all four models."""

    def kernel_called(*args, **kwargs):
        raise AssertionError("the sampler called the Gram kernel")

    monkeypatch.setattr(ProcessModel, "increment_gram", kernel_called)
    monkeypatch.setattr(ProcessModel, "pairing", kernel_called)
    monkeypatch.setattr(gram, "batch_decompose", kernel_called)
    monkeypatch.setattr(gram, "batch_cholesky", kernel_called)
    for module in (gram, transform):
        monkeypatch.setattr(module, "batch_projections", kernel_called)
    for model, _ in MODELS.values():
        pt = _mc_point(model, np.random.default_rng(1), 3)
        mean, stderr = mc_fw_estimate(pt, 0.5, 2000, seed=0)
        assert np.isfinite(mean) and stderr > 0


def test_wiener_oracles_call_no_model_or_kernel(monkeypatch):
    """fw_wiener and product_form_wiener build their own indicator rows: with
    the models' primitives and the Gram kernel raising, they give the same values."""
    model = wiener_model(make_grid(1.0, N))
    h1 = 0.7 * parse_function("sin:1", model.grid) - parse_function("sin:2", model.grid)
    h2 = parse_function("hat:0.4:0.3", model.grid)
    tts = [TimeTuple(t) for t in ([0.1, 0.45], [0.2, 0.5, 0.9], [0.05, 0.3, 0.31, 0.7, 1.0])]
    want = [(fw_wiener(tt, h1, h2), product_form_wiener(tt, h1, h2)) for tt in tts]

    def called(*args, **kwargs):
        raise AssertionError("the Wiener oracle called a model or the Gram kernel")

    for name in ("factor_values", "increments", "increment_gram", "pairing"):
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
