import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from silt import (
    DegenerateConfigurationError,
    KernelOperator,
    TimeTuple,
    ValidationError,
    berman_scan,
    berman_stat,
    counterexample_model,
    make_grid,
    perturbed_model,
    projection_norm_sq,
    slnd_ratio,
    slnd_scan,
    sturm_liouville_model,
    wiener_model,
)
from silt import gram
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
    rows = slnd_scan(m, tt, {1}, [1e-2, 1e-3, 1e-4])
    assert abs(rows[-1][1] - 1.0) < 0.05
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
    rows = berman_scan(m, 0.3, 3, [1e-2, 1e-3, 1e-4])
    assert rows[-1][1] >= 0.95
    e = GridFunction(grid, np.zeros(grid.n), np.array([1.0]))
    for t1 in (0.1, 0.4, 0.9):
        assert projection_norm_sq(m, (0.0, t1), e) == pytest.approx(0.5, abs=1e-6)


def test_projection_decay_wiener():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    h = parse_function("const1", grid)
    # |(h, dg)|/||dg|| = gap/sqrt(gap) = sqrt(gap) -> 0
    for gap in (0.4, 0.1, 0.02):
        got = math.sqrt(projection_norm_sq(m, (0.3, 0.3 + gap), h))
        assert got == pytest.approx(math.sqrt(gap), abs=1e-8)


def test_scan_validates_interval():
    grid = make_grid(1.0, 256)
    m = wiener_model(grid)
    with pytest.raises(ValidationError):
        berman_scan(m, 0.99, 3, [0.5, 0.1])


def test_t1_zero_is_a_validation_error():
    # x(0) = 0 in every model: the statistic is undefined there, and the error
    # names t1
    m = wiener_model(make_grid(1.0, 64))
    for call in (
        lambda: berman_stat(m, TimeTuple([0.0, 0.5])),
        lambda: berman_scan(m, 0.0, 3, [0.1, 0.01]),
    ):
        with pytest.raises(ValidationError, match="t1 = 0.0"):
            call()


# ---------------------------------------------------------------------------
# the ratios are the normalized determinant the check judges, to a few ulps


def _models():
    """counterexample, perturbed:sl and perturbed:file (a seeded nonnegative kernel
    of norm 1/2) on 64 cells."""
    grid = make_grid(1.0, 64)
    M = np.random.default_rng(5).uniform(size=(64, 64))
    file_kernel = KernelOperator(grid, M * (0.5 / np.linalg.norm(M, 2)))
    return [
        counterexample_model(grid),
        sturm_liouville_model(make_grid(math.pi / 2, 64)),
        perturbed_model(grid, file_kernel, "file"),
    ]


def _exact_ratio(A, M):
    """det A / (det A_cc prod_{i in M} A_ii) of the float matrix A in 60 digits, c the
    complement of the 0-based indices M: the normalized Gram determinant ratio."""
    rest = [i for i in range(len(A)) if i not in M]
    with mpmath.workdps(60):
        sub = mpmath.det(mpmath.matrix(A[np.ix_(rest, rest)].tolist())) if rest else 1
        diag = mpmath.fprod(mpmath.mpf(A[i, i]) for i in M)
        return float(mpmath.det(mpmath.matrix(A.tolist())) / (sub * diag))


def test_ratios_are_within_ulps_of_the_exact_normalized_determinant():
    """slnd_ratio and berman_stat against mpmath's ratio of normalized determinants of
    the same float Gram matrix, on 40 seeded tuples per model and k = 2..5, gaps
    log-uniform from 1e-8 T to T and a random nonempty subset M: within 8 ulps (bound
    fixed before the run; largest seen 4, and 7 before the ratios read the pivots)."""
    rng = np.random.default_rng(36)
    worst = 0.0
    for model in _models():
        T = model.grid.T
        for k in range(2, 6):
            for _ in range(40):
                gaps = T * 10.0 ** rng.uniform(-8.0, 0.0, k)
                gaps *= min(1.0, 0.999 * T / gaps.sum())
                times = np.cumsum(gaps)
                tt = TimeTuple(times)
                M = sorted(rng.choice(np.arange(1, k), rng.integers(1, k), replace=False))
                A = model.increment_gram(model.increments(np.concatenate([[0.0], times])[None]))[0]
                for got, want in (
                    (slnd_ratio(model, tt, M), _exact_ratio(A[1:, 1:], [i - 1 for i in M])),
                    (berman_stat(model, tt), _exact_ratio(A, range(k))),
                ):
                    worst = max(worst, abs(got - want) / np.spacing(want))
    assert worst <= 8.0, worst


def test_berman_stat_is_the_checked_determinant(monkeypatch):
    """berman_stat is bitwise the full-set slnd_ratio at (0, t_1, ..., t_k), and the det
    G that the kernel's check compares with DET_MIN: with DET_MIN set to the returned
    value the tuple is accepted, and one ulp above it the tuple is refused by name, on
    five seeded tuples per model and k = 2..5."""
    rng = np.random.default_rng(37)
    for model, k, _ in itertools.product(_models(), range(2, 6), range(5)):
        tt = TimeTuple(np.sort(rng.uniform(0.05, 1.0, k)) * model.grid.T)
        value = berman_stat(model, tt)
        zero_t = TimeTuple((0.0,) + tt.times)
        assert value == slnd_ratio(model, zero_t, range(1, tt.k + 1))
        named = re.escape(f"degenerate tuple {zero_t.times}: normalized Gram determinant")
        with monkeypatch.context() as patch:
            patch.setattr(gram, "DET_MIN", value)
            assert berman_stat(model, tt) == value
            patch.setattr(gram, "DET_MIN", np.nextafter(value, np.inf))
            with pytest.raises(DegenerateConfigurationError, match=named):
                berman_stat(model, tt)
