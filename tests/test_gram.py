import math

import numpy as np
import pytest

from silt import (
    ConsistencyError,
    DegenerateConfigurationError,
    TimeTuple,
    ValidationError,
    counterexample_model,
    decompose,
    inner,
    make_grid,
    parse_function,
    projection_norm_sq,
    single_interval_projection,
    sturm_liouville_model,
    subset_projection_norm_sq,
    wiener_model,
)
from silt.gram import _first_non_spd, batch_decompose, batch_ortho_coeffs


def random_tuple(rng, T, k, min_gap):
    while True:
        ts = np.sort(rng.uniform(0.0, T, k))
        if np.all(np.diff(ts) >= min_gap) and ts[0] > min_gap:
            return TimeTuple(ts)


def test_time_tuple_validation():
    with pytest.raises(ValidationError):
        TimeTuple([0.5])
    with pytest.raises(ValidationError):
        TimeTuple([0.5, 0.5])
    with pytest.raises(ValidationError):
        TimeTuple([-0.1, 0.5])
    tt = TimeTuple([0.1, 0.4, 1.0])
    assert tt.k == 3
    assert np.allclose(tt.gaps, [0.3, 0.6])


def test_wiener_gram_is_diagonal_of_gaps():
    grid = make_grid(1.0, 512)
    dec = decompose(wiener_model(grid), TimeTuple([0.2, 0.5, 0.9]))
    assert np.allclose(dec.A, np.diag([0.3, 0.4]), atol=1e-12)
    assert dec.gamma == pytest.approx(0.12, abs=1e-12)


def test_identity_quadratic_form_equals_projection():
    """A^{-1}(u,u) computed from the Gram matrix equals the squared norm of
    the projection on the increment span (sum over the orthonormalized
    basis) for all three models."""
    grid = make_grid(1.0, 512)
    gpi = make_grid(math.pi / 2, 512)
    models = [wiener_model(grid), counterexample_model(grid), sturm_liouville_model(gpi)]
    rng = np.random.default_rng(42)
    for trial in range(200):
        m = models[trial % 3]
        k = int(rng.integers(2, 6))
        tt = random_tuple(rng, m.grid.T, k, 0.02 * m.grid.T)
        h = parse_function("sin:1", m.grid, m.aux_dim) * rng.normal()
        dec = decompose(m, tt)
        u = dec.coeffs(h)
        quad = float(u @ np.linalg.solve(dec.A, u))
        basis = sum(inner(h, e) ** 2 for e in dec.ortho)
        assert abs(quad - basis) <= 1e-8 * (1.0 + h.norm_sq())
        # projection_norm_sq runs the same dual-route check internally
        assert projection_norm_sq(dec, h) == pytest.approx(quad, abs=1e-10)


def test_projection_monotone_in_subset():
    grid = make_grid(1.0, 512)
    dec = decompose(wiener_model(grid), TimeTuple([0.1, 0.3, 0.6, 0.95]))
    h = parse_function("hat:0.5:0.4", grid)
    full = projection_norm_sq(dec, h)
    p1 = subset_projection_norm_sq(dec, {1}, h)
    p12 = subset_projection_norm_sq(dec, {1, 2}, h)
    assert 0.0 <= p1 <= p12 <= full + 1e-12
    assert subset_projection_norm_sq(dec, {1, 2, 3}, h) == pytest.approx(full)
    assert subset_projection_norm_sq(dec, [], h) == 0.0
    assert full <= h.norm_sq() + 1e-12


def test_projection_hadamard_inequality():
    # Gamma <= product of squared increment norms (diagonal of A)
    grid = make_grid(1.0, 512)
    m = counterexample_model(grid)
    rng = np.random.default_rng(3)
    for _ in range(20):
        tt = random_tuple(rng, 1.0, 4, 0.03)
        dec = decompose(m, tt)
        assert dec.gamma <= np.prod(np.diag(dec.A)) * (1 + 1e-12)


def test_degenerate_tuple_raises_with_gap_location():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    with pytest.raises(DegenerateConfigurationError, match="gap"):
        decompose(m, TimeTuple([0.5, 0.5 + 1e-14, 0.9], min_gap=1e-15))


def test_subset_validation():
    grid = make_grid(1.0, 128)
    dec = decompose(wiener_model(grid), TimeTuple([0.2, 0.5, 0.9]))
    h = parse_function("const1", grid)
    with pytest.raises(ValidationError):
        subset_projection_norm_sq(dec, {0}, h)
    with pytest.raises(ValidationError):
        subset_projection_norm_sq(dec, {3}, h)


def test_single_interval_projection_wiener():
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    h = parse_function("const1", grid)
    # projection of const1 on the normalized increment over [a,b]:
    # (int_a^b 1)^2 / (b-a) = b-a
    assert single_interval_projection(m, 0.2, 0.7, h) == pytest.approx(0.5, abs=1e-10)


def test_batch_decompose_matches_scalar():
    grid = make_grid(1.0, 256)
    m = counterexample_model(grid)
    h = parse_function("sin:2", grid, aux_dim=1)
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.05, 1.0, size=(40, 3)), axis=1)
    times = times[np.min(np.diff(times, axis=1), axis=1) > 0.02]
    inc, L, gamma = batch_decompose(m, times)
    c = batch_ortho_coeffs(L, m.pairing(h)(inc))
    for row, g, ci in zip(times, gamma, c):
        dec = decompose(m, TimeTuple(row))
        assert g == pytest.approx(dec.gamma, rel=1e-10)
        assert np.allclose(np.abs(ci), np.abs(dec.ortho_coeffs(h)), atol=1e-10)


def test_batch_decompose_names_the_degenerate_tuple():
    m = wiener_model(make_grid(1.0, 64))
    times = np.array([[0.1, 0.4, 0.8], [0.2, 0.5, 0.9], [0.3, 0.3, 0.7], [0.15, 0.6, 0.95]])
    with pytest.raises(DegenerateConfigurationError, match=r"tuple \(0\.3, 0\.3, 0\.7\)"):
        batch_decompose(m, times)


def test_first_non_spd_never_blames_an_innocent_row():
    A = np.repeat(np.eye(3)[None], 4, axis=0)
    A[2, 1, 1] = np.nan
    assert _first_non_spd(A) == 2
    A[2, 1, 1] = 1.0
    with pytest.raises(ConsistencyError):
        _first_non_spd(A)
