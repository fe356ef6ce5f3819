"""The structured covariance route against the dense factor rows.

The batched quadrature computes Gram matrices and shift coefficients from
O(1)-per-time primitives; ``embedded_factors`` builds the dense rows that
the same inner products used to come from.  These tests hold the two to
rounding: random tuples drawn by hypothesis, the acceptance quadratures
level by level, and a run in which building a dense row is an error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silt import (
    QuadratureSpec,
    counterexample_model,
    divergence_probe,
    make_grid,
    parse_function,
    perturbed_model,
    regularized_integral,
    sturm_liouville_model,
    wiener_model,
)
from silt import function_space, process_models, regularization
from silt.function_space import KernelOperator
from silt.gram import batch_decompose, batch_ortho_coeffs
from silt.process_models import ProcessModel
from silt.regularization import batch_fw_limit, batch_regularized_integrand, default_min_gap

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

    inc, L, gamma = batch_decompose(model, times)
    assert _rel(gamma, gamma_d) <= tol
    for h, y_d in ((h1, y1_d), (h2, y2_d)):
        y = batch_ortho_coeffs(L, model.pairing(h)(inc))
        assert np.max(np.abs(y - y_d)) <= tol * np.max(np.abs(y_d))

    for structured, dense in (
        (batch_regularized_integrand, dense_regularized_integrand),
        (batch_fw_limit, dense_fw_limit),
    ):
        assert _rel(structured(model, h1, h2)(times), dense(model, h1, h2)(times)) <= tol


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
    _, _, gamma = batch_decompose(model, times)
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
# the batched route builds no dense factor rows


def test_batched_route_builds_no_factor_rows(monkeypatch):
    models = [m for m, _ in MODELS.values()]
    shifts = [parse_function("sin:1", m.grid, m.aux_dim) for m in models]

    def dense_row_built(*args, **kwargs):
        raise AssertionError("dense factor rows built on the batched route")

    monkeypatch.setattr(ProcessModel, "factor_values", dense_row_built)
    monkeypatch.setattr(function_space, "indicator_values", dense_row_built)
    monkeypatch.setattr(process_models, "indicator_values", dense_row_built)
    for model, h in zip(models, shifts):
        rv = regularized_integral(model, 2, h, h, QuadratureSpec(k=2, levels=2))
        assert np.isfinite(rv.value)
        rows = divergence_probe(model, 2, h, h, (1e-1, 1e-2), gap_cells=16, t_cells=8)
        assert all(np.isfinite(v) for _, v in rows)
