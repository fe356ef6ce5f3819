import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from silt import (
    DegenerateConfigurationError,
    QuadratureSpec,
    TimeTuple,
    ValidationError,
    counterexample_model,
    divergence_probe,
    iterated_bound_check,
    make_grid,
    parse_function,
    product_form_wiener,
    regularized_integral,
    regularized_integrand,
    schur_bound_check,
    sturm_liouville_model,
    wiener_model,
)
from silt.function_space import GridFunction, cumulative
from silt.gram import decreasing_values, gap_scan_tuple
from silt import quadrature, regularization
from silt.quadrature import (
    _MAX_NODES,
    _ORDERS,
    gap_lattice,
    gauss_legendre,
    integrate_simplex,
    integrate_simplex_orders,
    simplex_rule,
)
from silt.regularization import batch_regularized_integrand
from silt.transform import batch_fw_limit


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 512)


@pytest.fixture(scope="module")
def model(grid):
    return wiener_model(grid)


# ---------------------------------------------------------------------------
# quadrature engine


def test_gap_lattice_integrates_simple_function():
    # integral of 1/(gap) over gaps in [min_gap, T] is log(T/min_gap)
    gaps, wts = gap_lattice(1.0, 2, 1e-4, 400)
    got = float(np.sum(wts.ravel() / gaps.ravel()))
    assert got == pytest.approx(math.log(1e4), rel=1e-6)


def test_integrate_simplex_volume():
    # volume of the ordered simplex {0 < t1 < t2 < T} is T^2/2
    val = integrate_simplex_orders(1.0, 2, lambda t: np.ones(t.shape[0]), None, [(400, 64)])[0]
    assert val == pytest.approx(0.5, rel=1e-13)


def test_integrate_simplex_volume_k3():
    val = integrate_simplex_orders(1.0, 3, lambda t: np.ones(t.shape[0]), None, [(128, 32)])[0]
    assert val == pytest.approx(1.0 / 6.0, rel=1e-13)


def _dirichlet(T, k, powers):
    """Integral over the ordered simplex of t_1^a_0 prod_i gap_i^a_i, for
    powers = (a_0, ..., a_{k-1})."""
    num = math.prod(math.factorial(a) for a in powers)
    return T ** (k + sum(powers)) * num / math.factorial(k + sum(powers))


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_floor_free_lattice_is_exact_for_low_monomials(k, order):
    """Per coordinate the nested linear rule is a Gauss rule times a polynomial
    Jacobian, so a monomial of degree <= 3 in t_1 and the gaps is integrated to
    its Dirichlet integral: 1 to T^k / k!, at every order and every T."""
    t1, first, last = np.eye(k, dtype=int)[[0, 1, -1]]
    powers = [0 * t1, first, 2 * last, t1 + first + last]
    for T in np.exp(np.random.default_rng(order + k).uniform(-5.0, 5.0, 3)):
        sums = np.zeros(len(powers))
        for times, w in simplex_rule(T, k, None, order, order, 4096):
            coords = np.concatenate([times[:, :1], np.diff(times, axis=1)], axis=1)
            for j, a in enumerate(powers):
                sums[j] += np.sum(np.prod(coords**a, axis=1) * w.ravel())
        for got, a in zip(sums, powers):
            want = _dirichlet(T, k, a)
            assert abs(got - want) <= 1e-13 * want, (T, a, got, want)


# the orders of every simplex integral, and the fixed orders that tests and the diverge
# benchmark pass
@pytest.mark.parametrize("n", sorted({*_ORDERS, 64, 96, 256}))
def test_gauss_legendre_is_exact_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(w > 0)
    assert 0.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    power = np.ones(n)
    for d in range(2 * n):
        assert abs(float(np.sum(w * power)) - 1.0 / (d + 1)) <= 1e-14, d
        power *= x


def test_min_gap_validation():
    with pytest.raises(ValidationError):
        gap_lattice(1.0, 2, 0.0, 16)
    with pytest.raises(ValidationError):
        gap_lattice(1.0, 2, 2.0, 16)
    # no second gap fits above a floor of 0.6: an empty lattice integrates to 0
    gaps, wts = gap_lattice(1.0, 3, 0.6, 16)
    assert gaps.shape == (0, 2) and wts.shape == (0,)
    assert integrate_simplex_orders(1.0, 3, lambda t: np.ones(t.shape[0]), 0.6, [(16, 8)]) == [0.0]


def test_lattice_above_the_row_limit_is_refused_before_any_node(monkeypatch):
    # 384 points per coordinate at k = 4 make 384^4 = 21.7 G nodes, above the 32^4 budget
    def no_nodes(*args, **kwargs):
        raise AssertionError("gauss_legendre called")

    monkeypatch.setattr(quadrature, "gauss_legendre", no_nodes)
    with pytest.raises(
        ValidationError,
        match="a k=4 order of 384 x 384 points has 21743271936 nodes, "
        "above the budget of 1048576",
    ):
        integrate_simplex_orders(1.0, 4, no_nodes, 0.1, [(384, 384)])


def test_the_node_budget_decides_k_levels_and_orders(monkeypatch):
    """``QuadratureSpec`` accepts exactly the k >= 2 and levels that leave at least three
    orders of ``_ORDERS[:levels]`` within ``_MAX_NODES`` (there is no 7th order), which
    makes k 2..6 and levels 3..6; the driver then builds those orders and no other."""
    seen, estimates = [], itertools.count()

    def recording(T, k, f, min_gap, orders, **kw):
        seen.extend(orders)
        return [float(next(estimates)) for _ in orders]  # differences of 1 never converge

    monkeypatch.setattr(quadrature, "integrate_simplex_orders", recording)
    accepted = set()
    for k, levels in itertools.product(range(1, 9), range(1, 8)):
        fit = [o for o in _ORDERS[:levels] if o**k <= _MAX_NODES]
        if k < 2 or levels > len(_ORDERS) or len(fit) < 3:
            with pytest.raises(ValidationError):
                QuadratureSpec(k=k, levels=levels)
            continue
        seen.clear()
        rv = integrate_simplex(1.0, None, QuadratureSpec(k=k, levels=levels))
        assert seen == [(o, o) for o in fit] and len(rv.level_estimates) == len(fit)
        assert all(g ** (k - 1) * t <= _MAX_NODES for g, t in seen)
        accepted.add((k, levels))
    assert {k for k, _ in accepted} == set(range(2, 7))
    assert {levels for _, levels in accepted} == set(range(3, 7))


_MERGE_MODELS = {
    "wiener": (wiener_model, 1.0),
    "perturbed:sl": (sturm_liouville_model, math.pi / 2),
}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_MERGE_MODELS)),
    k=st.integers(2, 4),
    levels=st.integers(2, len(_ORDERS)),
    chunk=st.sampled_from([97, 1000, 4096]),
)
def test_merged_orders_equal_one_call_per_order(name, k, levels, chunk):
    """Estimates from one stream of several orders are bitwise those of a one-order call
    per order, for every ``chunk``, also one that
    splits an order over several batches and lets a batch span two orders.  k = 4
    runs up to level 4 (order 16): its orders 24 and 32 take 70k and 210k nodes."""
    levels = min(levels, 4) if k == 4 else levels
    make, T = _MERGE_MODELS[name]
    grid = make_grid(T, 64)
    one = parse_function("const1", grid)
    f = batch_regularized_integrand(make(grid), one, parse_function("sin:1", grid))
    orders = [(o, o) for o in _ORDERS[:levels]]
    merged = integrate_simplex_orders(T, k, f, None, orders, chunk=chunk)
    single = [integrate_simplex_orders(T, k, f, None, [o], chunk=chunk)[0] for o in orders]
    assert [x.hex() for x in merged] == [x.hex() for x in single]


def test_first_three_orders_take_one_integrand_call(monkeypatch):
    """The k=3 Wiener case of the regularize benchmark evaluates the nodes of the first
    three orders (4^3 + 6^3 + 9^3 = 1,009) in one integrand call, then one call per later
    order."""
    grid = make_grid(1.0, 512)
    model, one = wiener_model(grid), parse_function("const1", grid)
    sizes = []

    def counted(*args):
        f = batch_regularized_integrand(*args)
        return lambda times: sizes.append(len(times)) or f(times)

    monkeypatch.setattr(regularization, "batch_regularized_integrand", counted)
    rv = regularized_integral(model, 3, one, one, QuadratureSpec(k=3, levels=4, tol=5e-3))
    nodes = [
        sum(len(times) for times, _ in simplex_rule(1.0, 3, None, o, o, 4096))
        for o in _ORDERS[: len(rv.level_estimates)]
    ]
    assert sum(nodes[:3]) == sum(o**3 for o in _ORDERS[:3])
    assert sizes == [sum(nodes[:3]), *nodes[3:]]


def test_readme_states_the_order_schedule():
    """README's list of orders and its first-stream node count at k=3 are those of
    ``_ORDERS``."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    listed = re.search(r"tries the orders ([\d, ]+?) in turn", readme)
    assert listed and listed.group(1) == ", ".join(map(str, _ORDERS))
    stream = re.search(r"(\d+)³ \+ (\d+)³ \+ (\d+)³ = ([\d,]+) at k=3", readme)
    assert stream, "README states no first-stream node count at k=3"
    first = [int(o) for o in stream.groups()[:3]]
    assert first == list(_ORDERS[:3])
    assert int(stream.group(4).replace(",", "")) == sum(o**3 for o in first)


def test_degenerate_node_fails_on_the_same_tuple_as_one_call_per_order():
    """An integrand that rejects a node of the third order and one of the second fails, in
    the merged stream as in one call per order, on the node of the second."""
    grid = make_grid(1.0, 512)
    f = batch_regularized_integrand(wiener_model(grid), *[parse_function("const1", grid)] * 2)
    second, third = (next(simplex_rule(1.0, 3, None, o, o, 4096))[0] for o in _ORDERS[1:3])
    bad = [third[7], second[40]]

    def rejecting(times):
        hit = [i for i, t in enumerate(times) if any(np.array_equal(t, b) for b in bad)]
        if hit:
            raise DegenerateConfigurationError(f"degenerate tuple {tuple(times[hit[0]])}")
        return f(times)

    with pytest.raises(DegenerateConfigurationError) as single:
        for o in _ORDERS[:3]:
            integrate_simplex_orders(1.0, 3, rejecting, None, [(o, o)])
    with pytest.raises(DegenerateConfigurationError) as merged:
        integrate_simplex_orders(1.0, 3, rejecting, None, [(o, o) for o in _ORDERS[:3]])
    assert str(merged.value) == str(single.value) == f"degenerate tuple {tuple(bad[1])}"


# ---------------------------------------------------------------------------
# regularized integrand


def test_integrand_zero_shifts_is_exact_zero(grid, model):
    z = parse_function("zero", grid)
    tt = TimeTuple([0.2, 0.5, 0.9])
    assert regularized_integrand(model, tt, z, z) == 0.0


def test_inclusion_exclusion_telescopes_to_product():
    # sum over subsets of (-1)^|M| exp(-sum_{i in M} a_i) = prod (1 - e^{-a_i})
    import itertools

    rng = np.random.default_rng(1)
    for k1 in range(1, 10):
        a = rng.exponential(size=k1)
        total = 0.0
        for mask in itertools.product((0, 1), repeat=k1):
            total += (-1) ** sum(mask) * math.exp(-sum(ai for ai, m in zip(a, mask) if m))
        assert total == pytest.approx(float(np.prod(-np.expm1(-a))), rel=1e-12)


def test_integrand_matches_wiener_product_form(grid, model):
    rng = np.random.default_rng(9)
    b1 = parse_function("sin:1", grid)
    b2 = parse_function("hat:0.5:0.4", grid)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        while True:
            ts = np.sort(rng.uniform(0.02, 1.0, k))
            if np.all(np.diff(ts) >= 0.02):
                break
        h1 = rng.normal() * b1 + rng.normal() * b2
        h2 = rng.normal() * b2
        tt = TimeTuple(ts)
        got = regularized_integrand(model, tt, h1, h2)
        want = product_form_wiener(tt, h1, h2)
        assert got == pytest.approx(want, rel=1e-10)


def test_batch_integrand_matches_scalar(grid, model):
    h1 = parse_function("sin:1", grid)
    h2 = parse_function("hat:0.5:0.4", grid)
    f = batch_regularized_integrand(model, h1, h2)
    rng = np.random.default_rng(4)
    times = np.sort(rng.uniform(0.05, 1.0, size=(20, 3)), axis=1)
    times = times[np.min(np.diff(times, axis=1), axis=1) > 0.02]
    vals = f(times)
    for row, v in zip(times, vals):
        assert v == pytest.approx(
            regularized_integrand(model, TimeTuple(row), h1, h2), rel=1e-10
        )


# ---------------------------------------------------------------------------
# regularized integral


def test_regularized_integral_zero_shifts_all_levels_zero(grid, model):
    z = parse_function("zero", grid)
    rv = regularized_integral(model, 2, z, z, QuadratureSpec(k=2, levels=3))
    assert rv.value == 0.0
    assert all(e == 0.0 for e in rv.level_estimates)


def test_regularized_integral_matches_quad_oracle(grid, model):
    # k=2, h1=h2=const1 reduces to int_0^1 (1-u)(1-e^{-u})/u du
    one = parse_function("const1", grid)
    rv = regularized_integral(model, 2, one, one, QuadratureSpec(k=2, levels=5))
    oracle, err = integrate.quad(
        lambda u: (1 - u) * (-math.expm1(-u)) / u, 0.0, 1.0, epsabs=1e-10
    )
    assert err < 1e-8
    assert rv.value == pytest.approx(oracle, abs=2e-3)
    assert rv.converged


def _phi(g):
    # per-gap factor of the Wiener integrand with const1 shifts
    return -math.expm1(-g) / g if g > 0 else 1.0


def test_wiener_default_spec_matches_oracles(grid, model):
    # the simplex integral of prod phi(gap_i) is int_0^1 (1 - s) phi^{*(k-1)}(s) ds
    one = parse_function("const1", grid)
    oracle2, err2 = integrate.quad(lambda s: (1 - s) * _phi(s), 0.0, 1.0, epsabs=1e-13)

    def conv(s):
        return integrate.quad(lambda u: _phi(u) * _phi(s - u), 0.0, s, epsabs=1e-13)[0]

    oracle3, err3 = integrate.quad(lambda s: (1 - s) * conv(s), 0.0, 1.0, epsabs=1e-12)
    assert err2 < 1e-10 and err3 < 1e-10
    assert oracle3 == pytest.approx(0.131616767, abs=1e-9)
    for k, oracle in ((2, oracle2), (3, oracle3)):
        rv = regularized_integral(model, k, one, one, QuadratureSpec(k=k))
        assert rv.converged
        assert abs(rv.value - oracle) <= 1e-6, (k, rv.value, oracle)
        assert rv.error_estimate == abs(rv.level_estimates[-1] - rv.level_estimates[-2])


def _wiener_oracle(c: float, k: int, T: float = 1.0) -> tuple:
    """int_0^T (T - s) phi^{*(k-1)}(s) ds for phi(g) = (1 - e^{-c^2 g}) / g, the simplex
    integral of the Wiener integrand with shifts c const1, and quad's error estimate of it.

    phi has the Laplace transform log(1 + a/p), a = c^2, cut along [-a, 0], so
    phi^{*(k-1)}(s) = (1/pi) int_0^a e^{-rs} Im (l(r) + i pi)^{k-1} dr with
    l(r) = log((a - r) / r), and the s-integral is T^2 ramp(rT).  The weight's
    first k-2 moments vanish (phi^{*(k-1)}(s) = O(s^{k-2})), so the ramp's first k-2
    Taylor terms are left out, which spares quad their cancellation.  The pair r, a - r
    (where l changes sign) is taken at once in y = -log(r / a), y > log 2.
    """
    a = c * c

    def ramp(x):  # int_0^1 (1 - s) e^{-xs} ds = sum_m (-x)^m / (m + 2)!, from m = k - 2
        if x < 0.5:
            return math.fsum((-x) ** m / math.factorial(m + 2) for m in range(k - 2, 14))
        head = math.fsum((-x) ** m / math.factorial(m + 2) for m in range(k - 2))
        return (x + math.expm1(-x)) / (x * x) - head

    def f(y):
        u = math.exp(-y)
        l = math.log1p(-u) + y
        return u * sum(
            (complex(sign * l, math.pi) ** (k - 1)).imag * ramp(a * T * r)
            for sign, r in ((1, u), (-1, 1.0 - u))
        )

    val, err = integrate.quad(f, math.log(2.0), math.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
    return a * T * T * val / math.pi, a * T * T * err / math.pi


def test_wiener_oracle_matches_the_direct_quad():
    """The branch-cut form against the nested quad of ``test_wiener_default_spec_matches_oracles``."""
    assert _wiener_oracle(1.0, 3)[0] == pytest.approx(0.13161676748529, abs=1e-13)
    for c in (0.1, 1.0, 3.0):
        direct, err = integrate.quad(
            lambda s: (1 - s) * -math.expm1(-c * c * s) / s, 0.0, 1.0, epsabs=1e-15
        )
        assert err < 1e-13
        assert _wiener_oracle(c, 2)[0] == pytest.approx(direct, abs=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=st.floats(0.1, 3.0), k=st.sampled_from([2, 3, 4]))
def test_wiener_const_shifts_converge_to_the_oracle(grid, model, c, k):
    """Wiener with shifts c const1: the converged value lies within its error estimate
    (plus rounding) of the 1-D oracle."""
    one = parse_function("const1", grid)
    rv = regularized_integral(model, k, c * one, c * one, QuadratureSpec(k=k))
    oracle = _wiener_oracle(c, k)[0]
    assert rv.converged
    assert abs(rv.value - oracle) <= rv.error_estimate + 1e-12 * (1 + abs(oracle)), (rv, oracle)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
def test_wiener_const_shifts_converge_to_the_oracle_at_k5_and_k6(grid, model, c, k):
    """As at k = 2..4, on the orders within the node budget: four at k=5, three at k=6.
    At k=6, c=3 the oracle's quad warns of roundoff, so its own estimate is checked too."""
    one = parse_function("const1", grid)
    rv = regularized_integral(model, k, c * one, c * one, QuadratureSpec(k=k))
    oracle, err = _wiener_oracle(c, k)
    assert err <= 1e-10 * (1 + abs(oracle)), (oracle, err)
    assert rv.converged
    assert abs(rv.value - oracle) <= rv.error_estimate + 1e-12 * (1 + abs(oracle)), (rv, oracle)


def test_order_schedule_grows_by_at_least_half_each_level():
    """The last difference is the last error times (r^p - 1) for an error C n^-p, so a ratio
    r >= 1.5 between orders keeps it at least the error for p >= 1.71; a first order of 4
    keeps the k=4 monomials exact, and the top order stays 32."""
    assert _ORDERS[0] >= 4 and _ORDERS[-1] == 32
    assert all(b >= 1.5 * a for a, b in zip(_ORDERS, _ORDERS[1:])), _ORDERS


def test_counterexample_aux_shift_estimates_cover_the_error(grid):
    """The aux increment sqrt(b) - sqrt(a) has a corner at a = 0, so Gauss converges only
    algebraically there; every converged value still lies within its error estimate of the
    closed-form k=2 integral of (1 - e^{-u^2/A}) / A, d = b - a, e = sqrt(b) - sqrt(a),
    u = d + e and A = d + e^2 (shifts const1 with aux coordinate 1)."""
    h = GridFunction(grid, np.ones(grid.n), [1.0])

    def integrand(b, a):
        d, e = b - a, math.sqrt(b) - math.sqrt(a)
        u, A = d + e, d + e * e
        return -math.expm1(-u * u / A) / A

    want, err = integrate.dblquad(
        integrand, 0.0, 1.0, lambda a: a, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    assert err < 1e-10
    model = counterexample_model(grid)
    runs = [
        regularized_integral(model, 2, h, h, QuadratureSpec(k=2, tol=tol))
        for tol in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    ]
    converged = [rv for rv in runs if rv.converged]
    assert converged
    for rv in converged:
        assert abs(rv.value - want) <= rv.error_estimate, (rv, want)


@pytest.mark.parametrize("floor", [0.01, 0.1, 0.33])
def test_min_gap_truncates_the_simplex(grid, model, floor):
    """A given floor integrates the gaps above it only: Wiener const1 at k = 2 is
    int_floor^T (T - s) phi(s) ds."""
    one = parse_function("const1", grid)
    spec = QuadratureSpec(k=2, min_gap=floor, tol=1e-10)
    rv = regularized_integral(model, 2, one, one, spec)
    want, err = integrate.quad(lambda s: (1 - s) * _phi(s), floor, 1.0, epsabs=1e-15)
    assert err < 1e-13 and rv.converged
    assert abs(rv.value - want) <= 1e-12, (rv, want)


def test_one_driver_calls_the_fixed_order_integrals():
    """Every simplex integral in src/silt goes through ``integrate_simplex``: only it and
    the pinned branch of ``divergence_probe`` call ``integrate_simplex_orders``."""
    callers = []
    for path in sorted(Path(quadrature.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "integrate_simplex_orders"
                ]
    assert sorted(callers) == [
        ("quadrature", "integrate_simplex"),
        ("regularization", "divergence_probe"),
    ]


def test_growing_differences_do_not_converge(grid, model, monkeypatch):
    # every difference meets tol, but each is larger than the one before
    estimates = iter([0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5])
    monkeypatch.setattr(
        "silt.quadrature.integrate_simplex_orders",
        lambda T, k, f, min_gap, orders, **kw: [next(estimates) for _ in orders],
    )
    one = parse_function("const1", grid)
    rv = regularized_integral(model, 2, one, one, QuadratureSpec(k=2, tol=1e-3))
    assert rv.converged is False
    assert rv.level_estimates == (0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5)
    assert rv.error_estimate == pytest.approx(5e-6, rel=1e-9)


def test_spec_validation():
    # at k = 7 the third order has 9^7 nodes, above the budget of 32^4
    for k in (1, 7):
        with pytest.raises(ValidationError, match=f"multiplicity k must lie in 2..6, got {k}"):
            QuadratureSpec(k=k)
    # the stop rule needs three orders, and there is no 7th Gauss order
    for levels in (1, 2, 7):
        with pytest.raises(ValidationError, match=f"levels must lie in 3..6, got {levels}"):
            QuadratureSpec(k=2, levels=levels)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_spec_rejects_a_tol_that_is_not_positive_and_finite(bad):
    # with tol = nan, min(diff, nan) is diff: any shrinking difference would converge
    with pytest.raises(ValidationError, match=f"tol must be positive and finite, got {bad}"):
        QuadratureSpec(k=2, tol=bad)


def test_spec_k_mismatch_rejected(grid, model):
    one = parse_function("const1", grid)
    with pytest.raises(ValidationError):
        regularized_integral(model, 3, one, one, QuadratureSpec(k=2))


# ---------------------------------------------------------------------------
# divergence probe


def test_divergence_probe_closed_form():
    grid = make_grid(1.0, 8192)
    model = wiener_model(grid)
    z = parse_function("zero", grid)
    rows = divergence_probe(model, 2, z, z, [1e-1, 1e-2], chunk=1024)
    for d, v in rows:
        assert v == pytest.approx(math.log(1 / d) - 1 + d, rel=1e-3)
    # unbounded growth with log(1/delta) slope
    assert rows[1][1] - rows[0][1] == pytest.approx(math.log(10), rel=0.05)


@pytest.mark.parametrize("delta", [10.0**-e for e in range(2, 9)])
def test_truncated_integral_matches_the_closed_form(model, delta):
    """Zero shifts at k = 2 integrate 1/gap over the delta-truncated simplex to
    ln(1/delta) - 1 + delta: the default spec lies within its error estimate, and tol
    1e-10 within 1e-10 relative."""
    zero = parse_function("zero", model.grid)
    f, want = batch_fw_limit(model, zero, zero, "paper"), math.log(1 / delta) - 1 + delta
    rv = integrate_simplex(1.0, f, QuadratureSpec(k=2, min_gap=delta))
    assert rv.converged and abs(rv.value - want) <= rv.error_estimate, (rv, want)
    fine = integrate_simplex(1.0, f, QuadratureSpec(k=2, min_gap=delta, tol=1e-10))
    assert fine.converged and abs(fine.value - want) <= 1e-10 * want, (fine, want)


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
def test_truncated_integrals_differ_by_the_regularized_integral(model, delta):
    """The regularization as a finite part: at k = 2 with the paper normalization the
    regularized integrand is 1/Gamma minus the limit integrand, so the truncated integral
    with zero shifts minus that with shifts const1 is the regularized integral less the
    part below delta, which is at most delta, to within the three error estimates."""
    zero, one = parse_function("zero", model.grid), parse_function("const1", model.grid)
    spec = QuadratureSpec(k=2, min_gap=delta, tol=1e-9)
    a, b = (
        integrate_simplex(1.0, batch_fw_limit(model, h, h, "paper"), spec) for h in (zero, one)
    )
    reg = regularized_integral(model, 2, one, one, QuadratureSpec(k=2, tol=1e-9))
    assert a.converged and b.converged and reg.converged
    assert reg.value == pytest.approx(0.4287201581, abs=1e-10)
    err = a.error_estimate + b.error_estimate + reg.error_estimate
    assert abs(a.value - b.value - reg.value) <= 2 * delta + err, (a, b, reg)


def test_divergence_probe_validates_deltas(grid, model):
    z = parse_function("zero", grid)
    with pytest.raises(ValidationError):
        divergence_probe(model, 2, z, z, [1e-3, 1e-2])
    with pytest.raises(ValidationError):
        divergence_probe(model, 2, z, z, [1e-2, 0.0])


@pytest.mark.parametrize("cells", [{"gap_cells": 64}, {"t_cells": 32}])
def test_divergence_probe_refuses_half_a_fixed_order(grid, model, cells):
    z = parse_function("zero", grid)
    with pytest.raises(ValidationError, match="gap_cells and t_cells are given together"):
        divergence_probe(model, 2, z, z, [1e-2], **cells)


# ---------------------------------------------------------------------------
# diagonal boundedness scan


def test_integrand_diagonal_scan_bounded():
    # grid fine enough that the smallest scanned gap spans several cells
    fine = make_grid(1.0, 50_000)
    m = wiener_model(fine)
    one = parse_function("const1", fine)
    base = [0.2, 0.5, 0.9]
    values = [
        abs(regularized_integrand(m, gap_scan_tuple(base, [1], g, fine.T), one, one))
        for g in (1e-2, 1e-3)
    ]
    assert all(v <= 10.0 * values[0] for v in values)


def test_integrand_diagonal_scan_validates_index(grid):
    with pytest.raises(ValidationError, match=r"gap indices \[2\] out of range 1..1"):
        gap_scan_tuple([0.2, 0.5], [2], 1e-2, grid.T)


def test_integrand_diagonal_scan_names_the_gap(grid, model):
    one = parse_function("const1", grid)
    with pytest.raises(ValidationError, match=r"at gap 0.6 leaves the interval \[0, 1.0\]"):
        gap_scan_tuple([0.2, 0.5, 0.9], [2], 0.6, grid.T)
    with pytest.raises(ValidationError, match=r"strictly decreasing, got \(0.01, 0.01\)"):
        decreasing_values([1e-2, 1e-2], "scan gaps")
    # the upper end is T up to 1e-12, as in the SLND and Berman scans
    tt = gap_scan_tuple([0.2, 0.5, 0.9], [2], 0.5 + 5e-13, grid.T)
    assert regularized_integrand(model, tt, one, one) > 0


# ---------------------------------------------------------------------------
# Schur machinery


def test_schur_bound_meets_hardys_constant_on_near_extremal_shifts():
    """Hardy's inequality (Hardy, Littlewood and Polya, Inequalities, Thm 327): the
    averaging operator has norm 2 on L2, so the left side is at most 4 ||h||^2 on [a, T],
    half the paper's 8 ||h||^2.  The draws are the cell averages of (t - a)^(-1/2 + eps),
    whose continuum ratio 1/(1/2 + eps)^2 tends to 4, with random cells raised by up to
    ``mix`` times the mean; at n = 512 some draw reaches 2.7 ||h||^2."""
    ratios = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([16, 64, 512]),
        a=st.floats(0.0, 0.9),
        eps=st.floats(1e-3, 0.5),
        mix=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=512, a=0.0, eps=0.01, mix=0.0, seed=0)
    def draw(n, a, eps, mix, seed):
        grid = make_grid(1.0, n)
        edges, p = np.arange(n + 1) * grid.weight, 0.5 + eps
        F = np.maximum(edges - a, 0.0) ** p / p
        h = np.diff(F) / grid.weight
        rng = np.random.default_rng(seed)
        h += mix * h.mean() * (rng.random(n) < 0.2) * rng.random(n)
        lhs, rhs, ok = schur_bound_check(GridFunction(grid, h), a)
        norm_sq = rhs / 8.0
        assert ok and lhs <= 4.0 * norm_sq * (1 + 1e-12), (lhs / norm_sq, n, a, eps)
        if n == 512:
            ratios.append(lhs / norm_sq)

    draw()
    assert max(ratios) >= 2.7


def test_schur_bound_random_nonnegative(grid):
    rng = np.random.default_rng(12)
    for _ in range(100):
        h = GridFunction(grid, np.abs(rng.normal(size=grid.n)))
        lhs, rhs, ok = schur_bound_check(h)
        assert ok
        assert lhs <= rhs * (1 + 1e-6)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.77])
def test_schur_sides_match_a_gauss_rule_on_each_cell(grid, a):
    """Both sides of ``schur_bound_check`` against 24 Gauss points on each piece of
    [a, T] cut at the cell edges, where (int_a^t h)^2 / (t - a)^2 and h^2 are smooth,
    to 1e-12 relative, for random nonnegative h."""
    x, w = np.polynomial.legendre.leggauss(24)
    cuts = np.unique(np.concatenate([[a], np.arange(grid.n + 1) * grid.weight]))
    lo, hi = cuts[cuts >= a][:-1, None], cuts[cuts >= a][1:, None]
    t, wts = lo + (hi - lo) * (x + 1) / 2, (hi - lo) * w / 2
    rng = np.random.default_rng(13)
    for _ in range(100):
        h = GridFunction(grid, np.abs(rng.normal(size=grid.n)))
        H = lambda s: np.interp(s, *cumulative(h))
        vals = h.values[np.minimum((t / grid.weight).astype(int), grid.n - 1)]
        lhs, rhs, _ = schur_bound_check(h, a)
        assert lhs == pytest.approx(np.sum(((H(t) - H(a)) / (t - a)) ** 2 * wts), rel=1e-12)
        assert rhs == pytest.approx(8.0 * np.sum(vals**2 * wts), rel=1e-12)


def test_schur_bound_nonzero_left_endpoint(grid):
    h = parse_function("const1", grid)
    lhs, rhs, ok = schur_bound_check(h, a=0.3)
    assert ok
    # closed form: the integrand is ((t-a)/(t-a))^2 = 1, so lhs = T-a
    assert lhs == pytest.approx(0.7, rel=1e-12)
    assert rhs == pytest.approx(8 * 0.7, rel=1e-12)


def test_schur_bound_rejects_negative_h(grid):
    h = GridFunction(grid, -np.ones(grid.n))
    with pytest.raises(ValidationError):
        schur_bound_check(h)


def test_iterated_bound_and_homogeneity(grid):
    h = parse_function("hat:0.5:0.5", grid)
    for k in (2, 3):
        val, bound, ok = iterated_bound_check(h, k)
        assert ok
        val2, bound2, ok2 = iterated_bound_check(3.0 * h, k)
        assert ok2
        assert val2 == pytest.approx(9.0 ** (k - 1) * val, rel=1e-9)
        assert bound2 == pytest.approx(9.0 ** (k - 1) * bound, rel=1e-12)


def test_iterated_bound_fails_a_value_that_does_not_converge(grid, monkeypatch):
    # every difference meets tol, but each is larger than the one before
    estimates = iter([0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5])
    monkeypatch.setattr(
        quadrature,
        "integrate_simplex_orders",
        lambda T, k, f, min_gap, orders, **kw: [next(estimates) for _ in orders],
    )
    val, bound, ok = iterated_bound_check(parse_function("hat:0.5:0.5", grid), 2)
    assert val == 1.5e-5 * bound and not ok


@pytest.mark.parametrize(
    "k, want", [(2, 1 / 2), (3, 1 / 6), (4, 1 / 24), (5, 1 / 120), (6, 1 / 720)]
)
def test_iterated_bound_of_const1_is_the_simplex_volume(grid, k, want):
    """For h = 1 the integrand is 1, so the iterated integral over the whole simplex is
    its volume 1/k! on [0, 1], at every order."""
    val, bound, ok = iterated_bound_check(parse_function("const1", grid), k)
    assert abs(val - want) <= 1e-12
    assert bound == 8.0 ** (k - 1) and ok


def test_iterated_bound_zero_h(grid):
    z = parse_function("zero", grid)
    val, bound, ok = iterated_bound_check(z, 2)
    assert (val, bound, ok) == (0.0, 0.0, True)


# ---------------------------------------------------------------------------
# perturbed model end-to-end


def test_sl_integral_close_to_wiener_on_matched_interval():
    grid = make_grid(math.pi / 2, 512)
    one = parse_function("const1", grid)
    spec = QuadratureSpec(k=2, levels=5)
    sl = regularized_integral(sturm_liouville_model(grid), 2, one, one, spec)
    wn = regularized_integral(wiener_model(grid), 2, one, one, spec)
    assert sl.converged and wn.converged
    assert abs(sl.value - wn.value) <= 0.25 * wn.value
