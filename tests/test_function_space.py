import ast
import io
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silt import (
    GridMismatchError,
    KernelOperator,
    ValidationError,
    counterexample_model,
    inner,
    make_grid,
    operator_norm,
    parse_function,
    wiener_model,
)
import silt
from silt.function_space import GridFunction, _double_angle, interval_weights, read_grid_function


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


def grid_time(grid):
    """A time in [0, T]: free, on a cell edge, in the first or the last cell, 0 or T."""
    T, w = grid.T, grid.weight
    return st.one_of(
        st.floats(0.0, T),
        st.integers(0, grid.n).map(lambda j: j * w),
        st.floats(0.0, w),
        st.floats(T - w, T),
        st.just(0.0),
        st.just(T),
    )


@pytest.mark.parametrize("n", [8, 64, 512])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_indicator_shift_is_the_cell_shares_of_its_interval(n, data):
    """indicator:a:b holds the share of each cell that [a, b] covers: its mass is b - a;
    every Wiener and counterexample pairing of an increment [s, t] whose ends lie
    outside the cells of a and b is |[s, t] n [a, b]|; and ||h||^2 <= b - a, with
    equality when a and b are cell edges."""
    grid = make_grid(1.0, n)
    w = grid.weight
    a = data.draw(grid_time(grid))
    b = data.draw(st.one_of(grid_time(grid), st.floats(0.0, 1.0).map(lambda f: a + f * w)))
    a, b = sorted((a, min(b, 1.0)))
    h = parse_function(f"indicator:{a!r}:{b!r}", grid)
    assert abs(h.values.sum() * w - (b - a)) <= 4e-16
    assert h.norm_sq() <= (b - a) + 4e-16
    if a % w == 0.0 and b % w == 0.0:
        assert abs(h.norm_sq() - (b - a)) <= 4e-16
    near = [min(max(x + j * w, 0.0), 1.0) for x in (a, b) for j in (-2, -1, 1, 2)]
    points = data.draw(st.lists(st.one_of(grid_time(grid), st.sampled_from(near)), max_size=8))
    points = np.sort(np.array(points + [a, b]))
    s, t = (x.ravel() for x in np.meshgrid(points, points, indexing="ij"))
    ends, ab = (np.minimum(np.floor(np.array(x) / w), n - 1) for x in ([s, t], [a, b]))
    keep = (s <= t) & ~np.isin(ends, ab).any(axis=0)
    s, t = s[keep], t[keep]
    want = np.maximum(np.minimum(t, b) - np.maximum(s, a), 0.0)
    for model in (wiener_model(grid), counterexample_model(grid)):
        shift = parse_function(f"indicator:{a!r}:{b!r}", grid, model.aux_dim)
        got = model.pairing(shift)(model.increments(np.stack([s, t], axis=1)))[:, 0]
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


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
    assert ind.values.sum() * grid.weight == pytest.approx(0.5, abs=1e-12)
    hat = parse_function("hat:0.5:0.25", grid)
    assert hat.values.max() <= 1.0
    assert hat.values.min() == 0.0


def test_parse_function_rejects_garbage():
    grid = make_grid(1.0, 8)
    with pytest.raises(ValidationError):
        parse_function("no-such-function", grid)
    with pytest.raises(ValidationError):
        parse_function("indicator:0.9:0.1:5", grid)
    for bounds in ("-0.2:0.5", "0.5:1.5", "0.7:0.3"):
        with pytest.raises(ValidationError, match="outside"):
            parse_function(f"indicator:{bounds}", grid)


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


# ---------------------------------------------------------------------------
# sines and cosines from one tangent

EPS = np.finfo(float).eps


def _exact(f, x):
    """f (an mpmath function) of the float x, correctly rounded to a float."""
    with mpmath.workdps(40):
        return float(f(mpmath.mpf(x)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    a=st.floats(0.0, math.pi),
    d=st.one_of(
        st.floats(math.log(1e-12), math.log(math.pi)).map(math.exp),
        st.floats(math.log(1e-9), math.log(1e-2)).map(lambda x: math.pi - math.exp(x)),
    ),
)
def test_interval_trig_integrals_are_within_4_eps_d(a, d):
    """The integrals of sin u and cos u over [a, a + d] lie within 4 eps d of
    cos a - cos(a + d) and sin(a + d) - sin a, given sin a and cos a correctly rounded:
    for d from 1e-12 to pi, and for d within 1e-9 of pi, where cos(d/2) taken as
    sqrt(1 - sin^2(d/2)) cancels (3e-11 off, 3e7 eps d)."""
    sin_a, cos_a = _exact(mpmath.sin, a), _exact(mpmath.cos, a)
    got = interval_weights(np.array([d]), (np.array([sin_a]), np.array([cos_a])))[1:, 0]
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(a), mpmath.mpf(a) + mpmath.mpf(d)
        want = [float(mpmath.cos(lo) - mpmath.cos(hi)), float(mpmath.sin(hi) - mpmath.sin(lo))]
    assert np.all(np.abs(got - want) <= 4.0 * EPS * d), (got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(2.0**-1021, math.pi / 2), min_size=1, max_size=64))
def test_tangent_sine_and_cosine_are_within_2_eps(x):
    """On [0, pi/2] the tangent forms give sin x within 2 eps relative and cos x within
    2 eps absolute, at the endpoints too; x/2 keeps every bit of x, which is 0 or normal."""
    x = np.array(x + [0.0, math.pi / 2])
    got = _double_angle(0.5 * x)
    sin_x = np.array([_exact(mpmath.sin, v) for v in x])
    cos_x = np.array([_exact(mpmath.cos, v) for v in x])
    assert np.all(np.abs(got[0] - sin_x) <= 2.0 * EPS * sin_x)
    assert np.all(np.abs(got[1] - cos_x) <= 2.0 * EPS)


# where np.sin and np.cos may run: once per grid, function or operator, or at set-up
_TRIG_SITES = {
    ("function_space", "cell_table"),
    ("function_space", "parse_function"),
    ("process_models", "sturm_liouville_operator"),
    ("quadrature", "gauss_legendre"),
    ("cli", "_sl_covariance"),
}


def test_per_batch_code_takes_sines_and_cosines_from_tangents():
    """Every np.sin and np.cos in ``src/silt`` sits in a function that runs once per
    grid, function or operator, or at set-up; per-batch code takes its sines and cosines
    from ``_double_angle``, whose float64 tan runs numpy's SIMD loop."""
    found = set()
    for path in sorted(Path(silt.__file__).parent.glob("*.py")):

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("sin", "cos")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                outer = next((f for f in scope if (path.stem, f) in _TRIG_SITES), None)
                assert outer is not None, f"{path.name}:{node.lineno} np.{node.attr} in {scope}"
                found.add((path.stem, outer))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), ())
    assert ("function_space", "cell_table") in found
