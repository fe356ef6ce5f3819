import math

import numpy as np
import pytest

from silt import (
    DegenerateConfigurationError,
    TimeTuple,
    TransformPoint,
    ValidationError,
    fw_eps,
    fw_limit,
    fw_wiener,
    make_grid,
    mc_fw_estimate,
    parse_function,
    wiener_model,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 512)


@pytest.fixture(scope="module")
def model(grid):
    return wiener_model(grid)


def zero(grid):
    return parse_function("zero", grid)


def test_fw_eps_example(grid, model):
    # wiener, k=2, gap 0.5, zero shifts, eps=0.1: 1/det(A+eps I) = 1/0.6
    pt = TransformPoint(model, TimeTuple([0.25, 0.75]), zero(grid), zero(grid))
    assert fw_eps(pt, 0.1) == pytest.approx(1.0 / 0.6, rel=1e-12)


def test_fw_eps_rejects_nonpositive_eps(grid, model):
    pt = TransformPoint(model, TimeTuple([0.25, 0.75]), zero(grid), zero(grid))
    with pytest.raises(ValidationError):
        fw_eps(pt, 0.0)


def test_fw_limit_zero_shifts_is_inverse_gamma(grid, model):
    pt = TransformPoint(model, TimeTuple([0.2, 0.5, 0.9]), zero(grid), zero(grid))
    assert fw_limit(pt) == pytest.approx(1.0 / 0.12, rel=1e-12)


def test_fw_wiener_examples(grid):
    # h1 = const1, h2 = 0, times (0,1): exp(-1/2)
    one = parse_function("const1", grid)
    got = fw_wiener(TimeTuple([0.0, 1.0]), one, zero(grid))
    assert got == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert fw_wiener(TimeTuple([0.25, 0.75]), zero(grid), zero(grid)) == pytest.approx(
        2.0, rel=1e-12
    )


def test_fw_limit_equals_fw_wiener_random(grid, model):
    rng = np.random.default_rng(5)
    b1 = parse_function("sin:1", grid)
    b2 = parse_function("hat:0.4:0.3", grid)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        while True:
            ts = np.sort(rng.uniform(0.02, 1.0, k))
            if np.all(np.diff(ts) >= 0.02):
                break
        h1 = rng.normal() * b1 + rng.normal() * b2
        h2 = rng.normal() * b1
        pt = TransformPoint(model, TimeTuple(ts), h1, h2)
        assert fw_limit(pt) == pytest.approx(fw_wiener(pt.tt, h1, h2), rel=1e-10)


def test_eps_ladder_converges_to_limit(grid, model):
    h1 = parse_function("sin:1", grid)
    h2 = parse_function("sin:2", grid)
    pt = TransformPoint(model, TimeTuple([0.0, 1.0]), h1, h2)
    limit = fw_limit(pt)
    errs = [abs(fw_eps(pt, e) / limit - 1.0) for e in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-6


def test_transform_symmetric_in_shifts(grid, model):
    h1 = parse_function("sin:1", grid)
    h2 = parse_function("hat:0.6:0.2", grid)
    tt = TimeTuple([0.3, 0.8])
    a = TransformPoint(model, tt, h1, h2)
    b = TransformPoint(model, tt, h2, h1)
    assert fw_eps(a, 0.2) == pytest.approx(fw_eps(b, 0.2), rel=1e-12)
    assert fw_limit(a) == pytest.approx(fw_limit(b), rel=1e-12)


def test_normalization_conventions(grid, model):
    tt = TimeTuple([0.2, 0.5, 0.9])
    h = parse_function("sin:1", grid)
    paper = TransformPoint(model, tt, h, h, "paper")
    analytic = TransformPoint(model, tt, h, h, "analytic")
    ratio = fw_limit(paper) / fw_limit(analytic)
    assert ratio == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    with pytest.raises(ValidationError):
        TransformPoint(model, tt, h, h, "other")


def test_mc_estimate_within_three_sigma():
    grid = make_grid(1.0, 128)
    model = wiener_model(grid)
    h1 = parse_function("sin:1", grid)
    h2 = parse_function("hat:0.5:0.3", grid)
    pt = TransformPoint(model, TimeTuple([0.3, 0.8]), h1, h2, "analytic")
    mean, stderr = mc_fw_estimate(pt, 0.5, 50_000, seed=2)
    assert abs(mean - fw_eps(pt, 0.5)) <= 3.0 * stderr
    # deterministic for a fixed seed
    again, _ = mc_fw_estimate(pt, 0.5, 50_000, seed=2)
    assert again == mean


def test_fw_eps_exists_where_the_gram_matrix_is_singular(grid, model):
    # a gap of 1e-13 next to one of 0.8: cond(A) is about 1e13, above the
    # cutoff, but A + eps I is well conditioned and the sampler closes
    h1 = parse_function("sin:1", grid)
    pt = TransformPoint(
        model, TimeTuple([0.1, 0.1 + 1e-13, 0.9], min_gap=1e-14), h1, zero(grid), "analytic"
    )
    value = fw_eps(pt, 0.5)
    mean, stderr = mc_fw_estimate(pt, 0.5, 400_000, seed=0)
    assert math.isfinite(value)
    assert abs(mean - value) <= 4.0 * stderr
    with pytest.raises(DegenerateConfigurationError):
        fw_limit(pt)


def test_mc_exponent_tilt_has_mean_one():
    # with eps huge the density factor is nearly constant; the tilt E(h1,h2)
    # must average to ~1 by the mean-one property of the stochastic exponent
    grid = make_grid(1.0, 64)
    model = wiener_model(grid)
    h = parse_function("sin:1", grid)
    pt = TransformPoint(model, TimeTuple([0.0, 1.0]), h, h, "analytic")
    eps = 1e6
    mean, stderr = mc_fw_estimate(pt, eps, 100_000, seed=3)
    scale = (2 * math.pi * eps) ** (-1)
    assert abs(mean / scale - 1.0) <= 4.0 * stderr / scale


def test_mc_requires_enough_samples():
    grid = make_grid(1.0, 64)
    model = wiener_model(grid)
    z = parse_function("zero", grid)
    pt = TransformPoint(model, TimeTuple([0.3, 0.8]), z, z)
    with pytest.raises(ValidationError):
        mc_fw_estimate(pt, 0.5, 10, seed=0)
