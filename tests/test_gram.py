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
    DET_MIN,
    batch_cholesky,
    batch_decompose,
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
    """A positive gap is a tuple, however small: gaps of 2^-40 and 1e-13 next to 0.25
    factor on Wiener, whose det G is 1, with Gamma within 8 ulps of the product of the
    float gaps; a gap of 1e-310 at 0 makes Gamma subnormal, and the kernel refuses it."""
    m = wiener_model(make_grid(1.0, 64))
    for tiny in (2**-40, 1e-13):
        times = [0.0, 0.25, 0.25 + tiny, 0.5]
        want = math.prod(np.diff(times))
        assert abs(decompose(m, TimeTuple(times)).gamma - want) <= 8 * np.spacing(want)
    named = (
        r"tuple \(0\.0, 1e-310, 0\.25\): normalized Gram determinant 1\.00e\+00, "
        r"Gram determinant 2\.50e-311"
    )
    with pytest.raises(DegenerateConfigurationError, match=named):
        decompose(m, TimeTuple([0.0, 1e-310, 0.25]))


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
    """A Wiener gap of 1e-14 at 0.5 is the exact difference of its float times and
    factors; a refused tuple names its smallest gap."""
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    times = [0.5, 0.5 + 1e-14, 0.9]
    want = math.prod(np.diff(times))
    assert abs(decompose(m, TimeTuple(times)).gamma - want) <= 4 * np.spacing(want)
    with pytest.raises(DegenerateConfigurationError, match=r"smallest gap 1\.000e-310"):
        decompose(m, TimeTuple([0.0, 1e-310, 0.9]))


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
    # all-equal tuples: a zero Gram matrix has det G = 0/0
    for tup in ((0.5, 0.5), (0.5, 0.5, 0.5)):
        with pytest.raises(DegenerateConfigurationError, match=re.escape(f"tuple {tup}")):
            batch_decompose(m, np.array([tup]))


def test_ill_conditioned_tuple_is_rejected_on_every_path(capsys):
    """Wiener gaps of 1e-13 and 0.6 give cond2(A) = 6e12 but det G = 1: the batched
    kernel, its B=1 call and the CLI all accept them, with Gamma the product of the
    gaps.  A tuple with a subnormal Gamma in the middle of a batch is rejected by
    name on every path."""
    m = wiener_model(make_grid(1.0, 64))
    tiny = [0.3, 0.3000000000001, 0.9]
    want = math.prod(np.diff(tiny))
    _, _, gamma, _ = batch_decompose(m, np.array([[0.1, 0.4, 0.8], tiny, [0.2, 0.5, 0.9]]))
    assert gamma[1] == decompose(m, TimeTuple(tiny)).gamma
    assert abs(gamma[1] - want) <= 4 * np.spacing(want)
    assert main(["gram", "--grid-n", "64", "--times", "0.3,0.3000000000001,0.9"]) == 0
    capsys.readouterr()

    bad = [0.0, 1e-310, 0.9]
    times = np.array([[0.1, 0.4, 0.8], bad, [0.2, 0.5, 0.9]])
    named = (
        r"tuple \(0\.0, 1e-310, 0\.9\): normalized Gram determinant 1\.00e\+00, "
        r"Gram determinant 9\.00e-311 \(smallest gap 1\.000e-310\)"
    )
    with pytest.raises(DegenerateConfigurationError, match=named):
        batch_decompose(m, times)
    with pytest.raises(DegenerateConfigurationError, match=named):
        decompose(m, TimeTuple(bad))
    assert main(["gram", "--grid-n", "64", "--times", "0,1e-310,0.9"]) == 3
    assert "1e-310" in capsys.readouterr().err


def test_2x2_check_decides_like_the_normalized_determinant():
    """batch_cholesky judges det G, G = D^{-1/2} A D^{-1/2}.  On seeded 2x2 SPD
    matrices with det G = 1 - rho^2 from 1e-10 to 1e-6 and diagonals 1e-8 to 10,
    each scaled on its own, it accepts and rejects the same matrices as the
    comparison of 1 - rho^2 with DET_MIN does, except within 1e-3 (relative) of
    DET_MIN, where both are rounding."""
    rng = np.random.default_rng(12)
    B = 2000
    det_g, d = 10.0 ** rng.uniform(-10, -6, B), 10.0 ** rng.uniform(-8, 1, (B, 2))
    rho = rng.choice([-1.0, 1.0], B) * np.sqrt(1.0 - det_g)
    A = np.empty((B, 2, 2))
    A[:, 0, 0], A[:, 1, 1] = d[:, 0], d[:, 1]
    A[:, 0, 1] = A[:, 1, 0] = rho * np.sqrt(d[:, 0] * d[:, 1])
    by_det = det_g >= DET_MIN
    far = np.abs(det_g / DET_MIN - 1.0) > 1e-3
    times = np.array([[0.1, 0.2, 0.3]])
    accepted = []
    for a in A:
        try:
            batch_cholesky(a[None], times)
            accepted.append(True)
        except DegenerateConfigurationError:
            accepted.append(False)
    accepted = np.array(accepted)
    assert 0 < by_det[far].sum() < far.sum() and far.sum() > 0.99 * B
    assert np.array_equal(accepted[far], by_det[far])


def test_batch_decompose_never_blames_an_innocent_row(monkeypatch):
    m = wiener_model(make_grid(1.0, 64))
    times = np.array(
        [[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.4, 0.5], [0.3, 0.4, 0.5, 0.6], [0.4, 0.5, 0.6, 0.7]]
    )
    A = np.repeat(np.eye(3)[None], 4, axis=0)
    monkeypatch.setattr(ProcessModel, "increment_gram", lambda self, inc: A)
    assert np.allclose(batch_decompose(m, times)[2], 1.0)
    A[2, 1, 1] = np.nan
    named = r"tuple \(0\.3, .*normalized Gram determinant nan"
    with pytest.raises(DegenerateConfigurationError, match=named):
        batch_decompose(m, times)
    A[1, 2, 2] = -1.0
    with pytest.raises(DegenerateConfigurationError, match=r"tuple \(0\.2, "):
        batch_decompose(m, times)


def _scaled(rng, B, m):
    """Seeded SPD m x m matrices A = D^{1/2} G D^{1/2}: G has unit diagonal and is
    the Gram matrix of m + 2 random normal vectors in m dimensions, and the diagonal
    D spans 1e-8 to 10 within each matrix, so cond2(A) reaches 1e9 while cond2(G)
    stays below about 1e4."""
    X = rng.standard_normal((B, m, m + 2))
    C = X @ X.transpose(0, 2, 1)
    c = np.sqrt(np.einsum("bii->bi", C))
    G = C / (c[:, :, None] * c[:, None, :])
    d = np.sqrt(10.0 ** rng.uniform(-8, 1, (B, m)))
    A = d[:, :, None] * G * d[:, None, :]
    return 0.5 * (A + A.transpose(0, 2, 1)), G


@pytest.mark.parametrize("m", range(1, 7))
def test_factor_matches_lapack(m):
    """The one loop against np.linalg.cholesky, on seeded SPD matrices: for m <= 2
    (no sums) factor and Gamma are within 1 ulp of LAPACK's; above, the sums run in
    another order, and each entry of row i lies within m cond2(G) ulps of sqrt(A_ii),
    the row's norm, and Gamma within 2 m cond2(G) ulps, relative.  The upper
    triangle is zero."""
    rng = np.random.default_rng(20 + m)
    B = 4000
    A, G = _scaled(rng, B, m)
    L, gamma, _ = batch_cholesky(A, np.tile(np.arange(m + 1) * 0.1, (B, 1)))
    ref = np.linalg.cholesky(A)
    ref_gamma = np.prod(np.einsum("bii->bi", ref), axis=1) ** 2
    assert np.array_equal(np.triu(L, 1), np.zeros_like(L))
    if m <= 2:
        assert np.all(np.abs(L - ref) <= np.spacing(np.abs(ref)))
        assert np.all(np.abs(gamma - ref_gamma) <= np.spacing(ref_gamma))
    else:
        ulps = m * np.linalg.cond(G)
        row = np.sqrt(np.einsum("bii->bi", A))[:, :, None]
        assert np.all(np.abs(L - ref) <= ulps[:, None, None] * np.spacing(row))
        assert np.all(np.abs(gamma / ref_gamma - 1.0) <= 2 * ulps * np.finfo(float).eps)


@pytest.mark.parametrize("m", range(1, 7))
def test_factor_keeps_the_check(m):
    """A non-finite row, an indefinite row, a row whose Gamma is subnormal and, for
    m >= 2, a row with det G < DET_MIN, each in the middle of a batch, are named by
    their tuple with det G, Gamma and the smallest gap.  A 1x1 G is [1], so -I
    at m = 1 fails on its NaN Gamma alone."""
    times = np.array([np.arange(m + 1) * 0.25] * 3)
    times[1, -1] -= 0.125
    near = np.eye(m)
    if m >= 2:  # unit diagonal, det G = 1 - rho^2 = 1e-9
        near[0, 1] = near[1, 0] = math.sqrt(1.0 - 1e-9)
    cases = [
        (np.full((m, m), np.nan), "nan", "nan"),
        (-np.eye(m), r"1\.00e\+00" if m == 1 else "nan", "nan"),
        (1e-320 ** (1.0 / m) * np.eye(m), r"1\.00e\+00", r"\d\.\d\de-3\d\d"),
    ]
    if m >= 2:
        cases.append((near, r"1\.0\de-09", r"1\.0\de-09"))
    tup = re.escape(str(tuple(float(t) for t in times[1])))
    for bad, det_g, gamma in cases:
        A = np.stack([np.eye(m), bad, np.eye(m)])
        named = (
            rf"degenerate tuple {tup}: normalized Gram determinant {det_g}, "
            rf"Gram determinant {gamma} \(smallest gap 1\.250e-01\)"
        )
        with pytest.raises(DegenerateConfigurationError, match=named):
            batch_cholesky(A, times)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("s", [1, 2])
def test_border_matches_a_lapack_solve(m, s):
    """The border's coefficients y = L^{-1} u against np.linalg.solve of LAPACK's
    factor, rows scaled by its diagonal (unscaled, the solve's own error grows with
    cond2(A)), on seeded A = X^T X with column norms over 9 decades and u = X^T h:
    within m cond2(G) ulps of |h|, for A and A + eps I (largest seen 0.57 m cond2(G)).
    A as a B-first contiguous array, as the models' tuple-last view and as the
    tuple-last array with swapped matrix axes that adding eps I to that view makes,
    and u as B-first or tuple-last, give bitwise-equal factors, Gamma and y; the
    B = 1 call gives row 0 of the B = 4,096 call bitwise."""
    rng = np.random.default_rng(30 + 2 * m + s)
    B = 4096
    X = rng.standard_normal((B, m + 2, m)) * np.sqrt(10.0 ** rng.uniform(-8, 1, (B, 1, m)))
    h = rng.standard_normal((B, s, m + 2))
    times = np.tile(np.arange(m + 1) * 0.1, (B, 1))
    u = list(np.einsum("bni,bsn->sbi", X, h))
    u_last = [np.array(v.T, order="C").T for v in u]
    A_last = np.array(np.einsum("bni,bnj->jib", X, X), order="C").T
    for eps in (0.0, 1e-3):
        swapped = A_last + eps * np.eye(m)
        A = np.ascontiguousarray(swapped)
        assert swapped.strides[0] == A.strides[2] == A.itemsize
        L, gamma, ys = batch_cholesky(A, times, u)
        for got in (
            batch_cholesky(np.array(swapped.T, order="C").T, times, u_last),
            batch_cholesky(swapped, times, u_last),
            batch_cholesky(A[:1], times[:1], [v[:1] for v in u_last]),
        ):
            rows = slice(len(got[0]))
            assert np.array_equal(got[0], L[rows]) and np.array_equal(got[1], gamma[rows])
            assert all(np.array_equal(a, b[rows]) for a, b in zip(got[2], ys, strict=True))
        R = np.linalg.cholesky(A)
        r = np.einsum("bii->bi", R)[:, :, None]
        ref = np.linalg.solve(R / r, np.stack(u, axis=2) / r)
        d = np.sqrt(np.einsum("bii->bi", A))
        bound = m * np.linalg.cond(A / (d[:, :, None] * d[:, None, :])) * np.finfo(float).eps
        for i, y in enumerate(ys):
            err = np.max(np.abs(y - ref[:, :, i]), axis=1)
            assert np.all(err <= bound * np.linalg.norm(h[:, i], axis=1))


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
    _, det, ys = batch_cholesky(
        A + eps * np.eye(2), times[:1], [model.pairing(g)(inc) for g in (h, h_copy)]
    )
    expo = sum(float(np.sum(y**2)) for y in ys)
    assert value == math.exp(-0.5 * expo) / float(det[0])
