import math

import numpy as np
import pytest

from silt import (
    TimeTuple,
    ValidationError,
    berman_scan,
    berman_stat,
    counterexample_model,
    make_grid,
    point_projection_norm_sq,
    projection_decay,
    slnd_ratio,
    slnd_scan,
    sturm_liouville_model,
    wiener_model,
)
from silt.function_space import GridFunction, parse_function


def test_wiener_ratios_identically_one():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    tt = TimeTuple([0.1, 0.3, 0.55, 0.9])
    import itertools

    for r in range(1, 4):
        for M in itertools.combinations(range(1, 4), r):
            assert abs(slnd_ratio(m, tt, M) - 1.0) <= 1e-12


def test_empty_subset_is_one_and_validation():
    grid = make_grid(1.0, 128)
    m = wiener_model(grid)
    tt = TimeTuple([0.2, 0.5, 0.9])
    assert slnd_ratio(m, tt, []) == 1.0
    with pytest.raises(ValidationError):
        slnd_ratio(m, tt, {5})


def test_sl_scan_approaches_one():
    grid = make_grid(math.pi / 2, 100_000)
    m = sturm_liouville_model(grid)
    tt = TimeTuple([0.3, 0.6, 0.9])
    rep = slnd_scan(m, tt, {1}, [1e-2, 1e-3, 1e-4])
    assert abs(rep.ratios[-1] - 1.0) < 0.05
    with pytest.raises(ValidationError):
        slnd_scan(m, tt, {1}, [1e-3, 1e-2])


def test_berman_stat_wiener_includes_value_direction():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    # x(t1) overlaps the increments only through [0, t1], so for wiener the
    # normalized rows are orthogonal and the statistic is 1
    assert berman_stat(m, TimeTuple([0.2, 0.5, 0.9])) == pytest.approx(1.0, abs=1e-12)


def test_counterexample_separation():
    """For x(t) = w(t) + sqrt(t) xi, Berman's LND holds (stat -> 1 on small
    windows) while the projection of e+0 never decays (norm^2 = 1/2)."""
    grid = make_grid(1.0, 200_000)
    m = counterexample_model(grid)
    rep = berman_scan(m, 0.3, 3, [1e-2, 1e-3, 1e-4])
    assert rep.ratios[-1] >= 0.95
    e = GridFunction(grid, np.zeros(grid.n), np.array([1.0]))
    for t1 in (0.1, 0.4, 0.9):
        assert point_projection_norm_sq(m, t1, e) == pytest.approx(0.5, abs=1e-6)


def test_projection_decay_wiener():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    h = parse_function("const1", grid)
    # |(h, dg)|/||dg|| = gap/sqrt(gap) = sqrt(gap) -> 0
    for gap in (0.4, 0.1, 0.02):
        got = projection_decay(m, 0.3, 0.3 + gap, h)
        assert got == pytest.approx(math.sqrt(gap), abs=1e-8)


def test_scan_validates_interval():
    grid = make_grid(1.0, 256)
    m = wiener_model(grid)
    with pytest.raises(ValidationError):
        berman_scan(m, 0.99, 3, [0.5, 0.1])


def test_t1_zero_is_a_validation_error():
    # x(0) = 0 in every model: the statistic and the point projection are
    # undefined there, and the error names t1
    m = wiener_model(make_grid(1.0, 64))
    h = parse_function("const1", m.grid)
    for call in (
        lambda: berman_stat(m, TimeTuple([0.0, 0.5])),
        lambda: berman_scan(m, 0.0, 3, [0.1, 0.01]),
        lambda: point_projection_norm_sq(m, 0.0, h),
    ):
        with pytest.raises(ValidationError, match="t1 = 0.0"):
            call()
