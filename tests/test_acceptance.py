"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Gram entries and pairings are exact integrals over intervals, so the scans
that drive gaps far below the cell width (the diagonal boundedness scan at
gap 1e-6, SLND and Berman at gap 1e-4) run on the default n=512 grid.
"""

import itertools
import math
import time

import numpy as np
from scipy import integrate

from continuum import increment_rows
from silt import (
    QuadratureSpec,
    TimeTuple,
    TransformPoint,
    berman_scan,
    counterexample_model,
    decompose,
    divergence_probe,
    fw_eps,
    fw_limit,
    fw_wiener,
    integrand_diagonal_scan,
    iterated_bound_check,
    make_grid,
    mc_fw_estimate,
    parse_function,
    point_projection_norm_sq,
    product_form_wiener,
    regularized_integral,
    regularized_integrand,
    schur_bound_check,
    schur_kernel_norm,
    slnd_ratio,
    slnd_scan,
    sturm_liouville_model,
    wiener_model,
)
from silt.function_space import GridFunction
from silt.quadrature import integrate_simplex_level
from silt.regularization import batch_regularized_integrand

HALF_PI = math.pi / 2


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def three_models(n=512):
    grid = make_grid(1.0, n)
    gpi = make_grid(HALF_PI, n)
    return [wiener_model(grid), counterexample_model(grid), sturm_liouville_model(gpi)]


def random_tuple(rng, T, k, min_gap):
    while True:
        ts = np.sort(rng.uniform(0.0, T, k))
        if np.all(np.diff(ts) >= min_gap) and ts[0] > min_gap:
            return TimeTuple(ts)


def random_shift(rng, grid, aux_dim):
    b1 = parse_function("sin:1", grid, aux_dim)
    b2 = parse_function("sin:2", grid, aux_dim)
    return rng.normal() * b1 + rng.normal() * b2


def test_criterion_01_projection_identity():
    """Projection identity: A^{-1}(u,u) = sum of squared projections on an
    orthonormal basis of the continuum increment rows, 200 random configurations,
    < 10 s."""
    t0 = time.time()
    models = three_models()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(200):
        m = models[trial % 3]
        k = int(rng.integers(2, 6))
        tt = random_tuple(rng, m.grid.T, k, 0.02 * m.grid.T)
        h = random_shift(rng, m.grid, m.aux_dim)
        dec = decompose(m, tt)
        u = m.pairing(h)(m.increments(np.asarray(tt.times)[None]))[0]
        quad = float(u @ np.linalg.solve(dec.A, u))
        rows, (h_rows,) = increment_rows(m, tt.times, (h,))
        Q = np.linalg.qr(rows.T)[0]
        basis = float(np.sum((Q.T @ h_rows) ** 2))
        worst = max(worst, abs(quad - basis) / (1.0 + h.norm_sq()))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "projection identity", ok, f"max scaled dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_wiener_specialization():
    """Wiener specialization: fw_limit(wiener) = fw_wiener, 100 random points, rel 1e-10."""
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        tt = random_tuple(rng, 1.0, k, 0.02)
        h1 = random_shift(rng, grid, 0)
        h2 = random_shift(rng, grid, 0)
        a = fw_limit(TransformPoint(m, tt, h1, h2))
        b = fw_wiener(tt, h1, h2)
        worst = max(worst, abs(a / b - 1.0))
    ok = worst <= 1e-10
    report(2, "Wiener specialization", ok, f"max rel dev {worst:.2e}")


def test_criterion_03_eps_limit():
    """fw_eps(1e-6)/fw_limit within 1e-5 on 20 well-separated configurations.

    The ratio deviates by about eps * tr A^{-1} = eps * sum(1/gap), so
    'well separated' must mean gaps of order the interval; times are drawn
    jittered-equispaced, which keeps every gap far above the 0.05 floor.
    """
    models = three_models()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        m = models[trial % 3]
        T = m.grid.T
        k = int(rng.integers(2, 4))
        base = np.linspace(T / (k + 1), T * k / (k + 1), k)
        ts = base + rng.uniform(-0.3, 0.3, k) * T / (k + 1)
        assert np.all(np.diff(ts) >= 0.05) and ts[0] >= 0.05
        c = rng.normal(size=4)
        b1 = parse_function("sin:1", m.grid, m.aux_dim)
        b2 = parse_function("sin:2", m.grid, m.aux_dim)
        h1 = c[0] * b1 + c[1] * b2
        h1 = h1 * (1.0 / math.sqrt(h1.norm_sq()))
        h2 = c[2] * b1 + c[3] * b2
        h2 = h2 * (1.0 / math.sqrt(h2.norm_sq()))
        pt = TransformPoint(m, TimeTuple(ts), h1, h2)
        worst = max(worst, abs(fw_eps(pt, 1e-6) / fw_limit(pt) - 1.0))
    ok = worst <= 1e-5
    report(3, "eps limit", ok, f"max |ratio-1| {worst:.2e}")


def test_criterion_04_monte_carlo_closure():
    """mc_fw_estimate within 3 stderr of fw_eps (analytic normalization),
    eps=0.5, k=2, 2e5 samples, seed 0, 10 configurations, < 60 s."""
    t0 = time.time()
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    rng = np.random.default_rng(4)
    worst_z = 0.0
    for _ in range(10):
        tt = random_tuple(rng, 1.0, 2, 0.1)
        h1 = random_shift(rng, grid, 0)
        h2 = random_shift(rng, grid, 0)
        pt = TransformPoint(m, tt, h1, h2, "analytic")
        mean, stderr = mc_fw_estimate(pt, 0.5, 200_000, seed=0)
        z = abs(mean - fw_eps(pt, 0.5)) / stderr
        worst_z = max(worst_z, z)
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 60.0
    report(4, "Monte Carlo closure", ok, f"max |z| {worst_z:.2f}, {elapsed:.1f}s")


def test_criterion_05_regularized_integral_wiener():
    """regularized_integral(wiener): k=2 matches the 1-D oracle to 2e-3 and
    k=3 converges with final refinement gap <= 1e-3 |value|, < 5 min."""
    t0 = time.time()
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    one = parse_function("const1", grid)
    rv2 = regularized_integral(m, 2, one, one, QuadratureSpec(k=2))
    oracle, err = integrate.quad(
        lambda u: (1 - u) * (-math.expm1(-u)) / u, 0.0, 1.0, epsabs=1e-10
    )
    assert err < 1e-6
    rv3 = regularized_integral(m, 3, one, one, QuadratureSpec(k=3))
    gap3 = abs(rv3.level_estimates[-1] - rv3.level_estimates[-2])
    elapsed = time.time() - t0
    ok = (
        rv2.converged
        and abs(rv2.value - oracle) <= 2e-3
        and rv3.converged
        and gap3 <= 1e-3 * abs(rv3.value)
        and elapsed < 300.0
    )
    report(
        5,
        "regularized integral, Wiener",
        ok,
        f"k=2 {rv2.value:.6f} vs oracle {oracle:.6f}, "
        f"k=3 {rv3.value:.6f} gap {gap3 / abs(rv3.value):.1e}, {elapsed:.0f}s",
    )


def test_criterion_06_divergence_contrast():
    """Unregularized truncated integral tracks ln(1/delta)-1+delta within 2%;
    the regularized counterpart's successive-delta differences fall below 1e-3."""
    grid = make_grid(1.0, 8192)
    m = wiener_model(grid)
    z = parse_function("zero", grid)
    deltas = [1e-2, 1e-3, 1e-4]
    rows = divergence_probe(m, 2, z, z, deltas, gap_cells=192, t_cells=96, chunk=1024)
    rels = [abs(v / (math.log(1 / d) - 1 + d) - 1.0) for d, v in rows]
    one = parse_function("const1", grid)
    f = batch_regularized_integrand(m, one, one)
    reg = [
        integrate_simplex_level(1.0, 2, f, d, 256, 128, closure=False, chunk=1024)
        for d in deltas
    ]
    diffs = [abs(b - a) for a, b in zip(reg, reg[1:])]
    ok = max(rels) <= 0.02 and all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:])) and diffs[-1] < 1e-3
    report(
        6,
        "divergence contrast",
        ok,
        f"max rel dev {max(rels):.2e}, regularized diffs {[f'{d:.1e}' for d in diffs]}",
    )


def test_criterion_07_schur_machinery():
    """Kernel norm <= 4; schur_bound_check on 100 random nonnegative h;
    iterated_bound_check for k in {2,3}."""
    nrm = schur_kernel_norm()
    grid = make_grid(1.0, 512)
    rng = np.random.default_rng(7)
    fails = 0
    for _ in range(100):
        h = GridFunction(grid, np.abs(rng.normal(size=grid.n)))
        _, _, ok = schur_bound_check(h)
        fails += not ok
    iter_ok = all(iterated_bound_check(parse_function("hat:0.5:0.5", grid), k)[2] for k in (2, 3))
    ok = nrm <= 4.0 * (1 + 1e-3) and fails == 0 and iter_ok
    report(7, "Schur machinery", ok, f"kernel norm {nrm:.4f}, {fails}/100 bound failures")


def test_criterion_08_regularized_integral_perturbed():
    """regularized_integral(perturbed:sl, k in {2,3}) converges; the
    integrand stays bounded along gaps 1e-2..1e-6 (10x its value at 1e-2)."""
    grid = make_grid(HALF_PI, 512)
    m = sturm_liouville_model(grid)
    one = parse_function("const1", grid)
    rv2 = regularized_integral(m, 2, one, one, QuadratureSpec(k=2))
    rv3 = regularized_integral(m, 3, one, one, QuadratureSpec(k=3))
    rows = integrand_diagonal_scan(
        m, [0.4, 0.8, 1.2], 2, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], one, one
    )
    ref = rows[0][1]
    bounded = all(v <= 10.0 * ref for _, v in rows)
    ok = rv2.converged and rv3.converged and bounded
    report(
        8,
        "regularized integral, perturbed",
        ok,
        f"k=2 {rv2.value:.4f}, k=3 {rv3.value:.4f}, scan max/ref "
        f"{max(v for _, v in rows) / ref:.2f}",
    )


def test_criterion_09_slnd_suite():
    """Wiener ratios identically 1; perturbed:sl ratios within 0.05 of 1 at
    gap 1e-4 for every subset M over k <= 4."""
    grid = make_grid(1.0, 512)
    mw = wiener_model(grid)
    worst_w = 0.0
    for k in (3, 4, 5):
        tt = TimeTuple(np.linspace(0.1, 0.9, k))
        for r in range(1, k):
            for M in itertools.combinations(range(1, k), r):
                worst_w = max(worst_w, abs(slnd_ratio(mw, tt, M) - 1))
    msl = sturm_liouville_model(make_grid(HALF_PI, 512))
    base = [0.3, 0.6, 0.9, 1.2]
    worst_sl = 0.0
    for k in (2, 3, 4):
        tt = TimeTuple(base[:k])
        for r in range(1, k):
            for M in itertools.combinations(range(1, k), r):
                rep = slnd_scan(msl, tt, M, [1e-2, 1e-3, 1e-4])
                worst_sl = max(worst_sl, abs(rep.ratios[-1] - 1.0))
    ok = worst_w <= 1e-12 and worst_sl <= 0.05
    report(9, "SLND suite", ok, f"wiener dev {worst_w:.1e}, sl dev at 1e-4 {worst_sl:.3f}")


def test_criterion_10_separation_example():
    """Counterexample: Berman statistic >= 0.95 at window 1e-4 while the
    projection of e+0 on g(t1) keeps norm^2 = 1/2 for every t1."""
    grid = make_grid(1.0, 512)
    m = counterexample_model(grid)
    rep = berman_scan(m, 0.3, 3, [1e-2, 1e-3, 1e-4])
    e = GridFunction(grid, np.zeros(grid.n), np.array([1.0]))
    projs = [point_projection_norm_sq(m, t1, e) for t1 in (0.1, 0.25, 0.5, 0.75, 0.95)]
    dev = max(abs(p - 0.5) for p in projs)
    ok = rep.ratios[-1] >= 0.95 and dev <= 1e-6
    report(
        10,
        "separation example",
        ok,
        f"Berman at 1e-4 {rep.ratios[-1]:.5f}, proj dev {dev:.1e}",
    )


def test_criterion_11_inclusion_exclusion_identity():
    """Subset enumeration equals the factorized Wiener product form to 1e-10
    on 100 random configurations with k <= 6."""
    grid = make_grid(1.0, 512)
    m = wiener_model(grid)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        tt = random_tuple(rng, 1.0, k, 0.02)
        h1 = random_shift(rng, grid, 0)
        h2 = random_shift(rng, grid, 0)
        a = regularized_integrand(m, tt, h1, h2)
        b = product_form_wiener(tt, h1, h2)
        worst = max(worst, abs(a - b) / (1e-30 + abs(b)))
    ok = worst <= 1e-10
    report(11, "inclusion-exclusion identity", ok, f"max rel dev {worst:.2e}")
