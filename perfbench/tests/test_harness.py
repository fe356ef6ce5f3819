"""Tests of the benchmark harness's own logic (no timing, no silt workloads)."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from silt_bench.inputs import mc_inputs, pointwise_inputs  # noqa: E402
from silt_bench.layers import LAYERS, PASS_SPAN, PER_PASS, Aggregate, per_layer_metrics  # noqa: E402
from silt_bench.spans import Probe, Tracer, install, self_times  # noqa: E402
from silt_bench.tally import Tally  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def traced_tree():
    """harness.pass(10) > gram.decompose(6) > process_models.factor_values(4)
    > function_space.indicator_values(1), plus transform.fw_limit(3)."""
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span(PASS_SPAN):
        clock.tick(0.5)
        with tr.span("gram.decompose"):
            clock.tick(1.0)
            with tr.span("process_models.factor_values"):
                clock.tick(1.5)
                with tr.span("function_space.indicator_values"):
                    clock.tick(1.0)
                clock.tick(1.5)
            clock.tick(1.0)
        with tr.span("transform.fw_limit"):
            clock.tick(3.0)
        clock.tick(0.5)
    return tr


def test_self_time_is_duration_minus_direct_children():
    tr = traced_tree()
    durations = [s.duration for s in tr.spans]
    assert durations == [10.0, 6.0, 4.0, 1.0, 3.0]
    assert self_times(tr.spans) == [1.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_split_adds_up_to_pass_time():
    agg = Aggregate(traced_tree().spans, (PASS_SPAN,))
    assert set(agg.layer_self) == set(LAYERS)
    assert agg.layer_self["harness"] == 1.0
    assert agg.layer_self["gram"] == 2.0
    assert sum(agg.layer_self.values()) == pytest.approx(10.0)


def test_per_layer_metrics_are_per_pass_means():
    clock = FakeClock()
    tr = Tracer(clock)
    for _ in range(2):
        with tr.span(PASS_SPAN):
            with tr.span("gram.decompose"):
                clock.tick(2.0)
            clock.tick(1.0)
    m = per_layer_metrics(tr.spans, untraced_walls=[2.5, 2.5], fail_frac=0.25)
    assert m["gram.decompose_s"] == (2.0, "s")
    assert m["gram.decompose_calls"] == (1.0, "count")
    assert m["traced_wall_s"][0] == pytest.approx(3.0)
    assert m["trace_overhead_s"][0] == pytest.approx(0.5)
    assert m["fail_frac"] == (0.25, "ratio")


def test_levels_past_tol_counts_nodes_after_first_converged_level():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span(PASS_SPAN):
        reg = tr.begin("regularization.regularized_integral")
        for nodes in (10, 40, 160, 640):
            with tr.span("quadrature.integrate_simplex_level"):
                with tr.span("regularization.integrand") as sp:
                    sp.data["nodes"] = nodes
        # differences 0.1, 0.001 (meets tol at the third level), 0.0001
        tr.spans[reg].data.update({"estimates": [1.0, 1.1, 1.101, 1.1011], "tol": 1e-3})
        tr.end(reg)
    past, total = Aggregate(tr.spans, (PASS_SPAN,)).levels_past_tol()
    assert (past, total) == (640, 850)


def test_tally_counts_raised_errors_and_failed_checks():
    class Numerical(ArithmeticError):
        pass

    def boom():
        raise Numerical("degenerate")

    tally = Tally((Numerical,))
    assert tally.run("ok", lambda: 2.0, lambda v: v == 2.0) == 2.0
    assert tally.run("raises", boom, lambda v: True) is None
    assert tally.run("wrong", lambda: 3.0, lambda v: v == 2.0) == 3.0
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_frac == pytest.approx(2 / 3)
    assert tally.failures[0].startswith("raises: Numerical")
    with pytest.raises(KeyError):
        tally.run("defect", lambda: {}["x"], lambda v: True)


def test_generator_is_deterministic_per_seed():
    assert pointwise_inputs(7, 30, 3) == pointwise_inputs(7, 30, 3)
    assert mc_inputs(7, 5) == mc_inputs(7, 5)
    assert pointwise_inputs(7, 30, 3) != pointwise_inputs(8, 30, 3)
    assert mc_inputs(7, 5) != mc_inputs(8, 5)


def test_generated_tuples_are_valid():
    for p in pointwise_inputs(3, 60, 3):
        assert 2 <= len(p.times) <= 5
        gaps = [b - a for a, b in zip(p.times, p.times[1:])]
        assert p.times[0] >= 0.02 and min(gaps) >= 0.02 and p.times[-1] <= 1.0
        assert p.subset and all(1 <= i < len(p.times) for i in p.subset)
    assert {p.model for p in pointwise_inputs(3, 6, 3)} == {0, 1, 2}


def test_install_wraps_rebinds_and_reports_missing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # as left by 'from .core import work'
    pkg.work = work
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    tr = Tracer()
    inst = install(
        tr,
        [
            Probe("core.work", "fakepkg.core", "work", record=lambda a, k, r: {"n": a[0]}),
            Probe("core.gone", "fakepkg.core", "renamed_away"),
            Probe("absent.work", "fakepkg.absent", "work"),
        ],
        "fakepkg",
    )
    assert inst.missing == ["fakepkg.core.renamed_away", "fakepkg.absent.work"]
    assert user.work(1) == 2 and pkg.work(2) == 3
    assert [(s.name, s.data) for s in tr.spans] == [("core.work", {"n": 1}), ("core.work", {"n": 2})]
    inst.uninstall()
    assert core.work is work and user.work is work and pkg.work is work


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = per_layer_metrics([], [], 0.0)
    assert per_layer == {name: unit for name, (_, unit) in reported.items()}
    assert set(PER_PASS) <= set(per_layer)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
