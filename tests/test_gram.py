import dataclasses
import math
import re

import numpy as np
import pytest

from continuum import increment_rows
from silt import (
    DegenerateConfigurationError,
    TimeTuple,
    TransformPoint,
    ValidationError,
    counterexample_model,
    decompose,
    fw_eps,
    make_grid,
    parse_function,
    projection_norm_sq,
    sturm_liouville_model,
    wiener_model,
)
from silt.cli import main
from silt.gram import (
    COND_CUTOFF,
    batch_cholesky,
    batch_decompose,
    batch_ortho_coeffs,
    batch_projections,
    gap_scan_tuple,
    wiener_projections,
)
from silt.process_models import ProcessModel, parse_model


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
    with pytest.raises(ValidationError, match="finite"):
        TimeTuple([math.nan, 0.5])
    tt = TimeTuple([0.1, 0.4, 1.0])
    assert tt.k == 3
    assert np.allclose(tt.gaps, [0.3, 0.6])


def test_time_tuple_names_the_first_smallest_gap():
    with pytest.raises(ValidationError, match=re.escape("gap t[2]-t[1] = -5.000e-02 is not")):
        TimeTuple([0.0, 0.25, 0.2, 0.5, 0.45])
    with pytest.raises(ValidationError, match=re.escape("gap t[1]-t[0] = 0.000e+00 is not")):
        TimeTuple([0.5, 0.5, 0.5])


def test_time_tuple_leaves_a_tiny_gap_to_the_gram_kernel():
    """A positive gap is a tuple, however small: a gap of 2^-40 next to 0.25 factors
    (condition number 2.7e11), Gamma equal to the product of the gaps; 1e-13 does not."""
    m = wiener_model(make_grid(1.0, 64))
    times = [0.0, 0.25, 0.25 + 2**-40, 0.5]
    assert decompose(m, TimeTuple(times)).gamma == pytest.approx(
        math.prod(np.diff(times)), rel=1e-12, abs=0.0
    )
    named = r"tuple \(0\.0, 0\.25, 0\.2500000000001, 0\.5\): condition number 2\.50e\+12"
    with pytest.raises(DegenerateConfigurationError, match=named):
        decompose(m, TimeTuple([0.0, 0.25, 0.25 + 1e-13, 0.5]))


def test_gap_scan_tuple_adds_the_gaps_in_cumsum_order():
    """The scanned times are bitwise the first time plus np.cumsum of the gaps, on
    2,000 seeded five-time tuples with 1-4 gaps replaced."""
    rng = np.random.default_rng(3)
    for _ in range(2000):
        times = np.array(random_tuple(rng, 1.0, 5, 1e-3).times)
        indices = sorted(int(i) + 1 for i in rng.choice(4, rng.integers(1, 5), replace=False))
        gap = 10.0 ** rng.uniform(-8, -1)
        gaps = np.diff(times)
        gaps[np.array(indices) - 1] = gap
        want = np.concatenate([[times[0]], times[0] + np.cumsum(gaps)])
        assert gap_scan_tuple(times, indices, gap, 2.0).times == tuple(want)


def test_wiener_gram_is_diagonal_of_gaps():
    grid = make_grid(1.0, 512)
    dec = decompose(wiener_model(grid), TimeTuple([0.2, 0.5, 0.9]))
    assert np.allclose(dec.A, np.diag([0.3, 0.4]), atol=1e-12)
    assert dec.gamma == pytest.approx(0.12, abs=1e-12)


def continuum_projection_norm_sq(model, tt, h):
    """||P h||^2 from an orthonormal basis of the continuum increment rows."""
    rows, (h_rows,) = increment_rows(model, tt.times, (h,))
    Q = np.linalg.qr(rows.T)[0]
    return float(np.sum((Q.T @ h_rows) ** 2))


def test_identity_quadratic_form_equals_projection():
    """A^{-1}(u,u) computed from the Gram matrix equals the squared norm of
    the projection on the increment span (sum over an orthonormal basis of
    the continuum increment rows) for all three models."""
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
        u = m.pairing(h)(m.increments(np.asarray(tt.times)[None]))[0]
        quad = float(u @ np.linalg.solve(dec.A, u))
        basis = continuum_projection_norm_sq(m, tt, h)
        assert abs(quad - basis) <= 1e-8 * (1.0 + h.norm_sq())
        assert projection_norm_sq(m, tt.times, h) == pytest.approx(quad, abs=1e-10)


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
        decompose(m, TimeTuple([0.5, 0.5 + 1e-14, 0.9]))


def test_single_interval_projection_wiener():
    grid = make_grid(1.0, 512)
    h = parse_function("const1", grid)
    # projection of const1 on the normalized increment over [a,b]:
    # (int_a^b 1)^2 / (b-a) = b-a
    assert wiener_projections(TimeTuple([0.2, 0.7]), h)[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_batch_decompose_names_the_degenerate_tuple():
    m = wiener_model(make_grid(1.0, 64))
    times = np.array([[0.1, 0.4, 0.8], [0.2, 0.5, 0.9], [0.3, 0.3, 0.7], [0.15, 0.6, 0.95]])
    with pytest.raises(DegenerateConfigurationError, match=r"tuple \(0\.3, 0\.3, 0\.7\)"):
        batch_decompose(m, times)
    # all-equal tuples: a zero Gram matrix has condition number 0/0
    for tup in ((0.5, 0.5), (0.5, 0.5, 0.5)):
        with pytest.raises(DegenerateConfigurationError, match=re.escape(f"tuple {tup}")):
            batch_decompose(m, np.array([tup]))


def test_ill_conditioned_tuple_is_rejected_on_every_path(capsys):
    """A positive definite Gram matrix with condition number above 1e12 in the
    middle of a batch: the batched kernel, its B=1 call and the CLI reject it
    by name.  Gram entries are exact, so on Wiener gaps of 1e-13 and 0.6 do."""
    m = wiener_model(make_grid(1.0, 64))
    bad = [0.3, 0.3000000000001, 0.9]
    times = np.array([[0.1, 0.4, 0.8], bad, [0.2, 0.5, 0.9]])
    A = m.increment_gram(m.increments(np.array([bad])))
    np.linalg.cholesky(A)
    assert np.linalg.cond(A[0]) > COND_CUTOFF
    named = (
        r"tuple \(0\.3, 0\.3000000000001, 0\.9\): condition number \d\.\d\de\+\d\d "
        r"\(smallest gap 1\.000e-13\)"
    )
    with pytest.raises(DegenerateConfigurationError, match=named):
        batch_decompose(m, times)
    with pytest.raises(DegenerateConfigurationError, match=named):
        decompose(m, TimeTuple(bad))
    argv = ["gram", "--grid-n", "64", "--times", "0.3,0.3000000000001,0.9"]
    assert main(argv) == 3
    assert "0.3000000000001" in capsys.readouterr().err


def test_closed_form_2x2_check_decides_like_eigvalsh():
    """batch_cholesky finds the eigenvalues of a 2x2 matrix in closed form.  On
    seeded SPD matrices with condition numbers 1e10 to 1e14 and norms 1e-8 to
    10 it accepts and rejects the same matrices as the eigvalsh test does,
    except within 1e-3 (relative) of COND_CUTOFF, where both are rounding."""
    rng = np.random.default_rng(12)
    B = 2000
    cond, scale = 10.0 ** rng.uniform(10, 14, B), 10.0 ** rng.uniform(-8, 1, B)
    theta = rng.uniform(0, np.pi, B)
    c, s = np.cos(theta), np.sin(theta)
    Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -1)
    A = (Q * np.stack([scale, scale / cond], -1)[:, None, :]) @ Q.transpose(0, 2, 1)
    A = 0.5 * (A + A.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(A)
    by_eigvalsh = (eigs[:, 0] > 0) & (eigs[:, 1] <= COND_CUTOFF * eigs[:, 0])
    far = np.abs(eigs[:, 1] / (COND_CUTOFF * eigs[:, 0]) - 1.0) > 1e-3
    times = np.array([[0.1, 0.2, 0.3]])
    accepted = []
    for a in A:
        try:
            batch_cholesky(a[None], times)
            accepted.append(True)
        except DegenerateConfigurationError:
            accepted.append(False)
    accepted = np.array(accepted)
    assert 0 < by_eigvalsh[far].sum() < far.sum() and far.sum() > 0.99 * B
    assert np.array_equal(accepted[far], by_eigvalsh[far])


def test_batch_decompose_never_blames_an_innocent_row(monkeypatch):
    m = wiener_model(make_grid(1.0, 64))
    times = np.array(
        [[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.4, 0.5], [0.3, 0.4, 0.5, 0.6], [0.4, 0.5, 0.6, 0.7]]
    )
    A = np.repeat(np.eye(3)[None], 4, axis=0)
    monkeypatch.setattr(ProcessModel, "increment_gram", lambda self, inc: A)
    assert np.allclose(batch_decompose(m, times)[3], 1.0)
    A[2, 1, 1] = np.nan
    with pytest.raises(DegenerateConfigurationError, match=r"tuple \(0\.3, .*condition number inf"):
        batch_decompose(m, times)
    A[1, 2, 2] = -1.0
    with pytest.raises(DegenerateConfigurationError, match=r"tuple \(0\.2, "):
        batch_decompose(m, times)


def _spd(rng, B, m, cond):
    """Seeded SPD m x m matrices with the given condition numbers and norms 1e-8 to 10."""
    scale = 10.0 ** rng.uniform(-8, 1, B)
    Q = np.linalg.qr(rng.standard_normal((B, m, m)))[0]
    eig = scale[:, None] * np.exp(np.linspace(0.0, -1.0, m) * np.log(cond)[:, None])
    A = (Q * eig[:, None, :]) @ Q.transpose(0, 2, 1)
    return 0.5 * (A + A.transpose(0, 2, 1))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_factor_matches_lapack(m):
    """For m <= 2 batch_cholesky factors in closed form; on seeded SPD matrices
    with condition numbers 1 to 1e12 its factor and Gamma are within 1 ulp of
    np.linalg.cholesky's, and the upper triangle is zero."""
    rng = np.random.default_rng(20 + m)
    B = 4000
    A = _spd(rng, B, m, 10.0 ** rng.uniform(0, 12 if m == 2 else 0, B))
    L, gamma = batch_cholesky(A, np.tile([0.1, 0.2, 0.3][: m + 1], (B, 1)))
    ref = np.linalg.cholesky(A)
    assert np.all(np.abs(L - ref) <= np.spacing(np.abs(ref)))
    ref_gamma = np.prod(np.einsum("bii->bi", ref), axis=1) ** 2
    assert np.all(np.abs(gamma - ref_gamma) <= np.spacing(ref_gamma))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_factor_keeps_the_check(m):
    """A non-finite, non positive definite or too ill-conditioned matrix in the
    middle of a batch is still named by its tuple, with the same message."""
    times = np.array([[0.1, 0.2, 0.3][: m + 1]] * 3)
    times[1, -1] = 0.35
    cases = [(np.full((m, m), np.nan), "inf"), (-np.eye(m), "inf")]
    if m == 2:  # a 1x1 matrix has condition number 1
        rng = np.random.default_rng(32)
        cases.append((_spd(rng, 1, 2, np.array([1e13]))[0], r"\d\.\d\de\+1[23]"))
    for bad, cond in cases:
        A = np.stack([np.eye(m), bad, np.eye(m)])
        named = rf"degenerate tuple \(0\.1, (0\.2, )?0\.35\): condition number {cond} "
        with pytest.raises(DegenerateConfigurationError, match=named + r"\(smallest gap"):
            batch_cholesky(A, times)


@pytest.mark.parametrize(
    "spec, T", [("wiener", 1.0), ("counterexample", 1.0), ("perturbed:sl", math.pi / 2)]
)
def test_equal_shifts_are_paired_once(spec, T):
    """A shift and an equal copy (two objects, as ``--h1 const1 --h2 const1``
    parses) share one ``pairing`` in batch_projections and fw_eps, with values
    bitwise equal to pairing each separately; distinct shifts are paired each."""
    grid = make_grid(T, 64)
    model = parse_model(spec, grid)
    h, h_copy, other = (parse_function(f, grid, model.aux_dim) for f in ("sin:1", "sin:1", "sin:2"))
    calls = []
    spy = dataclasses.replace(model, _pairing=lambda g: calls.append(g) or model._pairing(g))
    times = np.array([[0.1, 0.4, 0.7], [0.2, 0.3, 0.9], [0.05, 0.5, 0.55]]) * T
    gamma, (y1, y2) = batch_projections(spy, h, h_copy)(times)
    assert len(calls) == 1
    for g, y in ((h, y1), (h_copy, y2)):
        ref_gamma, (ref,) = batch_projections(model, g)(times)
        assert np.array_equal(gamma, ref_gamma) and np.array_equal(y, ref)
    batch_projections(spy, h, other, h_copy)
    assert len(calls) == 3

    calls.clear()
    eps, tt = 0.1, TimeTuple(times[0])
    value = fw_eps(TransformPoint(spy, tt, h, h_copy), eps)
    assert len(calls) == 1
    inc = model.increments(times[:1])
    A = model.increment_gram(inc)
    L, det = batch_cholesky(A + eps * np.eye(2), times[:1])
    ys = [batch_ortho_coeffs(L, model.pairing(g)(inc)) for g in (h, h_copy)]
    expo = sum(float(np.sum(y**2)) for y in ys)
    assert value == math.exp(-0.5 * expo) / float(det[0])
