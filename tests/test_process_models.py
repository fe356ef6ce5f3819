import math
import re
import warnings

import numpy as np
import pytest

from continuum import sl_correction
from silt import (
    ValidationError,
    counterexample_model,
    make_grid,
    operator_norm,
    parse_function,
    parse_model,
    perturbed_model,
    sturm_liouville_model,
    sturm_liouville_operator,
    wiener_model,
)
from silt import process_models
from silt.function_space import KernelOperator
from silt.gram import batch_decompose


def test_wiener_covariance_is_min():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    for s, t in [(0.2, 0.9), (0.5, 0.5), (0.7, 0.3)]:
        assert float(m.covariance(s, t)) == pytest.approx(min(s, t), abs=1e-12)


def test_sl_kernel_point_value():
    grid = make_grid(math.pi / 2, 64)
    S = sturm_liouville_operator(grid)
    # k(pi/4, pi/4) = sin^2(pi/4) = 1/2 (diagonal belongs to the sin branch)
    i = np.argmin(np.abs(grid.nodes - math.pi / 4))
    s = grid.nodes[i]
    assert S.matrix[i, i] / grid.weight == pytest.approx(math.sin(s) ** 2)


def test_sl_operator_action_on_indicator_matches_closed_form():
    grid = make_grid(math.pi / 2, 2000)
    S = sturm_liouville_operator(grid)
    t = 0.8
    out = S.matrix @ parse_function(f"indicator:0:{t}", grid).values  # cell shares of [0, t]
    exact = sl_correction(0.0, t, grid.nodes)  # S 1I_[0,t], as S 1I_[0,0] = 0
    # midpoint-rule error of a piecewise-smooth kernel
    assert np.max(np.abs(out - exact)) < 5e-4


def test_sl_operator_norm_below_one():
    """I+S is invertible on every grid: perturbed:sl is built from the closed form
    of S alone and never checks ||S||, so this is where the bound is checked.
    The norm is largest on the coarsest grid (0.7586 at n = 2) and tends to 2/3."""
    for n in [*range(2, 33), 64, 128, 256, 500, 512, 600, 1000]:
        nrm = operator_norm(sturm_liouville_operator(make_grid(math.pi / 2, n)))
        assert nrm < 1.0, n
        if n >= 256:
            assert abs(nrm - 2 / 3) < 1e-3, n


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_sl_model_builds_no_kernel_operator(monkeypatch, n):
    def built(*args, **kwargs):
        raise AssertionError("kernel operator built or normed")

    monkeypatch.setattr(process_models, "operator_norm", built)
    monkeypatch.setattr(process_models, "sturm_liouville_operator", built)
    monkeypatch.setattr(KernelOperator, "__init__", built)
    model = parse_model("perturbed:sl", make_grid(math.pi / 2, n))
    _, _, gamma, _ = batch_decompose(model, np.array([[0.2, 0.5, 0.9, 1.3]]))
    assert gamma[0] > 0


def test_perturbed_with_zero_kernel_equals_wiener():
    """Bitwise-equal Gram matrices and pairings, sub-cell and last-cell gaps too."""
    grid = make_grid(1.0, 128)
    S = KernelOperator(grid, np.zeros((grid.n, grid.n)))
    mp = perturbed_model(grid, S)
    mw = wiener_model(grid)
    ts = np.array([[0.1, 0.55, 0.99], [0.0, 0.5003, 0.5004], [0.3, 0.999, 1.0]])
    h = parse_function("hat:0.4:0.3", grid)
    incs = mp.increments(ts), mw.increments(ts)
    assert np.array_equal(*(m.increment_gram(inc) for m, inc in zip((mp, mw), incs)))
    assert np.array_equal(*(m.pairing(h)(inc) for m, inc in zip((mp, mw), incs)))


def test_perturbed_rejects_large_norm():
    grid = make_grid(1.0, 64)
    S = KernelOperator(grid, 1.2 * np.eye(grid.n))
    with pytest.raises(ValidationError):
        perturbed_model(grid, S)


@pytest.mark.parametrize("n", [64, 512])
def test_operator_norm_of_a_kernel_orthogonal_to_constants(n):
    """36 (s - 1/2)(u - 1/2) + 0.3 has the singular values 3 (1 - 1/n^2) and 0.3 on the
    midpoint grid, the first on a direction orthogonal to the constants: the norm is
    the larger, and the perturbation is refused."""
    grid = make_grid(1.0, n)
    S = KernelOperator.from_kernel(grid, lambda s, u: 36.0 * (s - 0.5) * (u - 0.5) + 0.3)
    assert operator_norm(S) == pytest.approx(3.0 * (1.0 - 1.0 / n**2), rel=1e-12)
    with pytest.raises(ValidationError, match="perturbation norm 2.99"):
        perturbed_model(grid, S)


def test_sl_model_matches_matrix_perturbation():
    """The Gram entries of closed-form perturbed:sl and of perturbed_model on the
    midpoint-rule matrix of S agree to the discretization error of S, which falls
    as 1/n: 1.8e-3 at n = 500, 6.1e-4 at n = 1500, 3.0e-4 at n = 3000."""
    grid = make_grid(math.pi / 2, 1500)
    closed = sturm_liouville_model(grid)
    matrix = perturbed_model(grid, sturm_liouville_operator(grid))
    ts = np.array([[0.0, 0.3, 0.9, 1.4, math.pi / 2]])
    Ac, Am = (m.increment_gram(m.increments(ts))[0] for m in (closed, matrix))
    assert np.max(np.abs(Ac - Am)) < 1e-3


def test_sl_model_requires_half_pi_interval():
    with pytest.raises(ValidationError):
        sturm_liouville_model(make_grid(1.0, 64))


def test_counterexample_covariance_and_increments():
    grid = make_grid(1.0, 200_000)
    m = counterexample_model(grid)
    # Cov x(s) x(t) = min(s,t) + sqrt(st)
    for s, t in [(0.2, 0.8), (0.5, 0.5)]:
        assert float(m.covariance(s, t)) == pytest.approx(
            min(s, t) + math.sqrt(s * t), abs=1e-10
        )
    # normalized-increment correlation of x(t) = w(t) + sqrt(t) xi:
    # corr = (1/2) (1-sqrt(t0/t1))^{1/2} (1-sqrt(t2/t3))^{1/2} for disjoint intervals
    t0, t1, t2, t3 = 0.2, 0.4, 0.6, 0.9
    A = m.increment_gram(m.increments([[t0, t1, t2, t3]]))[0]
    got = A[0, 2] / math.sqrt(A[0, 0] * A[2, 2])
    want = 0.5 * math.sqrt(1 - math.sqrt(t0 / t1)) * math.sqrt(1 - math.sqrt(t2 / t3))
    assert got == pytest.approx(want, abs=1e-10)


def test_parse_model_strings():
    grid = make_grid(1.0, 64)
    assert parse_model("wiener", grid).name == "wiener"
    assert parse_model("counterexample", grid).aux_dim == 1
    with pytest.raises(ValidationError):
        parse_model("ornstein", grid)


def test_model_rejects_times_outside_interval():
    m = wiener_model(make_grid(1.0, 64))
    with pytest.raises(ValidationError):
        m.increments([[0.2, 1.5]])


@pytest.mark.parametrize("spec, T", [("wiener", 1.0), ("perturbed:sl", math.pi / 2)])
@pytest.mark.parametrize("where", ["below 0", "past T"])
def test_out_of_range_time_is_named_on_every_route(spec, T, where):
    """The one time check of a kernel call names the time on the batched kernel and
    the covariance; a time at most 1e-12 past T is clipped to T."""
    grid = make_grid(T, 64)
    model = parse_model(spec, grid)
    bad = -1e-3 if where == "below 0" else T + 1e-9
    times = np.array([[0.1, 0.5], sorted([0.2, bad])])
    named = re.escape(f"model time {bad} outside [0, {T}]")
    for call in (
        lambda: batch_decompose(model, times),
        lambda: model.covariance(0.3, bad),
    ):
        with pytest.raises(ValidationError, match=named):
            call()
    close = T + 5e-13
    assert model.covariance(0.3, close) == model.covariance(0.3, T)
    clipped, at_T = (batch_decompose(model, [[0.3, t]])[:3] for t in (close, T))
    assert all(np.array_equal(a, b) for a, b in zip(clipped, at_T))


def test_nan_time_is_named_on_every_route():
    """NaN fails the one time check like a time outside [0, T], before the cast to
    cell indices could give cells of -2**63, the row of t = 0 or a NaN covariance."""
    model = wiener_model(make_grid(1.0, 512))
    named = re.escape(f"model time nan outside [0, {model.grid.T}]")
    for call in (
        lambda: model.covariance(math.nan, 0.5),
        lambda: model.increments(np.array([[0.1, math.nan]])),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=named):
                call()
