import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silt import (
    GridMismatchError,
    KernelOperator,
    ValidationError,
    indicator,
    inner,
    make_grid,
    operator_norm,
    parse_function,
)
from silt.function_space import GridFunction, indicator_values, read_grid_function


def test_make_grid_examples():
    grid = make_grid(1.0, 4)
    assert np.allclose(grid.nodes, [0.125, 0.375, 0.625, 0.875])
    assert grid.weight == 0.25
    assert make_grid(math.pi / 2, 100).weight == pytest.approx(math.pi / 200)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_grid(1.0, 1)
    with pytest.raises(ValidationError):
        make_grid(0.0, 16)
    with pytest.raises(ValidationError):
        make_grid(-2.0, 16)


def test_inner_product_and_norm():
    grid = make_grid(2.0, 64)
    f = parse_function("const1", grid)
    assert inner(f, f) == pytest.approx(2.0)
    g = GridFunction(grid, grid.nodes)
    # integral of t over [0,2] = 2; midpoint rule is exact for linear functions
    assert inner(f, g) == pytest.approx(2.0)


def test_inner_includes_aux_block():
    grid = make_grid(1.0, 8)
    f = GridFunction(grid, np.zeros(8), np.array([3.0, 4.0]))
    assert inner(f, f) == pytest.approx(25.0)
    assert f.norm_sq() == pytest.approx(25.0)


def test_grid_mismatch_rejected():
    f = parse_function("const1", make_grid(1.0, 8))
    g = parse_function("const1", make_grid(1.0, 16))
    with pytest.raises(GridMismatchError):
        inner(f, g)


def test_indicator_norm_exact_for_arbitrary_t():
    grid = make_grid(1.0, 37)
    for t in [0.0, 0.013, 0.25, 1 / 3, 0.5, 0.731, 0.999, 1.0]:
        ind = indicator(grid, t)
        assert ind.norm_sq() == pytest.approx(t, abs=1e-14)


@pytest.mark.parametrize("n", [2, 8, 512])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_indicator_norm_and_mass_are_exact(n, data):
    """||1I_[0,t]||^2 = t and the mass sum(values) w = t to a few ulp of t, for
    t anywhere in [0, T]: 0, T, cell edges, last-cell and first-cell times.

    In the first cell the two boundary values are about +-sqrt(t w / 2), so
    their sum, the mass, is exact only to a few ulp of sqrt(t w).
    """
    grid = make_grid(1.0, n)
    T, w = grid.T, grid.weight
    t = data.draw(
        st.one_of(
            st.floats(0.0, T),
            st.floats(0.0, w),
            st.integers(0, n).map(lambda j: min(j * w, T)),
            st.floats(0.0, 1.0, exclude_max=True).map(lambda f: T - f * w),
            st.just(0.0),
            st.just(T),
        )
    )
    ind = indicator(grid, t)
    assert abs(ind.norm_sq() - t) <= 4 * np.spacing(t)
    assert abs(ind.values.sum() * w - t) <= 4 * np.spacing(max(t, math.sqrt(t * w)))


def test_indicator_cross_products_exact_when_separated():
    grid = make_grid(1.0, 128)
    # disjoint boundary cell pairs {p, p+1}: (1I_[0,s], 1I_[0,t]) = min(s,t)
    for s, t in [(0.2, 0.7), (0.111, 0.555), (0.05, 0.95)]:
        assert inner(indicator(grid, s), indicator(grid, t)) == pytest.approx(
            min(s, t), abs=1e-14
        )


def test_indicator_batch_matches_scalar():
    grid = make_grid(1.0, 50)
    ts = np.array([0.1, 0.42, 0.9999])
    V = indicator_values(grid, ts)
    for row, t in zip(V, ts):
        assert np.allclose(row, indicator(grid, t).values)


def test_indicator_rejects_out_of_range():
    grid = make_grid(1.0, 16)
    with pytest.raises(ValidationError):
        indicator(grid, 1.5)
    with pytest.raises(ValidationError):
        indicator(grid, -0.2)


def test_operator_norm_diagonal_kernel():
    grid = make_grid(1.0, 200)
    K = KernelOperator(grid, 3.0 * np.eye(grid.n))
    assert operator_norm(K) == pytest.approx(3.0, rel=1e-6)


def test_parse_function_builtins():
    grid = make_grid(1.0, 256)
    assert parse_function("zero", grid).norm_sq() == 0.0
    s = parse_function("sin:2", grid)
    assert s.norm_sq() == pytest.approx(1.0)
    ind = parse_function("indicator:0.2:0.7", grid)
    assert ind.norm_sq() == pytest.approx(0.5, abs=1e-12)
    hat = parse_function("hat:0.5:0.25", grid)
    assert hat.values.max() <= 1.0
    assert hat.values.min() == 0.0


def test_parse_function_rejects_garbage():
    grid = make_grid(1.0, 8)
    with pytest.raises(ValidationError):
        parse_function("no-such-function", grid)
    with pytest.raises(ValidationError):
        parse_function("indicator:0.9:0.1:5", grid)


def test_grid_function_csv_roundtrip():
    grid = make_grid(1.0, 4)
    # a blank row is skipped; the aux block follows the grid rows
    text = "node,value\n0.125,1.5\n0.375,-2.0\n\n0.625,0.25\n0.875,3e-3\naux,value\n0,7\n1,-0.5\n"
    f = read_grid_function(grid, io.StringIO(text))
    assert f.values.tolist() == [1.5, -2.0, 0.25, 3e-3]
    assert f.aux.tolist() == [7.0, -0.5]


def test_arithmetic_operators():
    grid = make_grid(1.0, 8)
    f = parse_function("const1", grid)
    g = 2.0 * f - f
    assert np.allclose(g.values, 1.0)
    assert (f + f).norm_sq() == pytest.approx(4.0)
