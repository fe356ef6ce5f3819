"""The probed functions of each silt layer and the per-layer metrics.

Layers are silt's modules.  ``cli`` is a thin JSON wrapper and is left out
(``setup_s`` covers its import); ``errors`` holds no work.  Every span name
is ``<layer>.<function>``; the benchmark's own span is ``harness.pass``
around each traced pass, so the self times of all spans in a pass add up to
the pass's traced wall time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from .spans import Probe, Span, layer_of, roots, self_times

LAYERS = (
    "function_space",
    "process_models",
    "gram",
    "transform",
    "quadrature",
    "regularization",
    "nondeterminism",
    "harness",
)

PASS_SPAN = "harness.pass"
SETUP_SPAN = "harness.setup"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _factor_rows(args, kwargs, result):
    V, X = result
    return {"rows": V.shape[0], "bytes": (V.size + X.size) * 8}


def _nodes(args, kwargs, result):
    return {"nodes": args[0].shape[0]}


def _levels(args, kwargs, result):
    spec = _arg(args, kwargs, 4, "spec")
    return {"estimates": list(result.level_estimates), "tol": getattr(spec, "tol", None)}


def _samples(args, kwargs, result):
    return {"samples": _arg(args, kwargs, 2, "n_samples")}


PROBES = [
    Probe("function_space.indicator_values", "silt.function_space", "indicator_values"),
    Probe("function_space.operator_norm", "silt.function_space", "operator_norm"),
    Probe("process_models.embedded_factors", "silt.process_models", "ProcessModel.embedded_factors"),
    Probe(
        "process_models.factor_values",
        "silt.process_models",
        "ProcessModel.factor_values",
        record=_factor_rows,
    ),
    Probe("gram.decompose", "silt.gram", "decompose"),
    Probe("gram.projection_norm_sq", "silt.gram", "projection_norm_sq"),
    Probe("gram.batch_decompose", "silt.gram", "batch_decompose"),
    Probe("gram.batch_ortho_coeffs", "silt.gram", "batch_ortho_coeffs"),
    Probe("transform.fw_limit", "silt.transform", "fw_limit"),
    Probe("transform.fw_eps", "silt.transform", "fw_eps"),
    Probe("transform.mc_fw_estimate", "silt.transform", "mc_fw_estimate", record=_samples),
    Probe("quadrature.gap_lattice", "silt.quadrature", "gap_lattice"),
    Probe("quadrature.integrate_simplex_level", "silt.quadrature", "integrate_simplex_level"),
    Probe(
        "regularization.regularized_integral",
        "silt.regularization",
        "regularized_integral",
        record=_levels,
    ),
    Probe("regularization.divergence_probe", "silt.regularization", "divergence_probe"),
    Probe("regularization.regularized_integrand", "silt.regularization", "regularized_integrand"),
    Probe(
        "regularization.batch_regularized_integrand",
        "silt.regularization",
        "batch_regularized_integrand",
        returns="regularization.integrand",
        returns_record=_nodes,
    ),
    Probe(
        "regularization.batch_fw_limit",
        "silt.regularization",
        "batch_fw_limit",
        returns="regularization.integrand",
        returns_record=_nodes,
    ),
    Probe("nondeterminism.slnd_ratio", "silt.nondeterminism", "slnd_ratio"),
    Probe("nondeterminism.berman_stat", "silt.nondeterminism", "berman_stat"),
]


class Aggregate:
    """Totals per span name over the spans under a set of root spans."""

    def __init__(self, spans: List[Span], root_names: Tuple[str, ...]):
        own = self_times(spans)
        top = roots(spans)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.spans = spans
        self.children: Dict[int, List[int]] = defaultdict(list)
        self.selected: List[int] = []
        for i, s in enumerate(spans):
            if spans[top[i]].name not in root_names:
                continue
            self.selected.append(i)
            self.inclusive[s.name] += s.duration
            self.self[s.name] += own[i]
            self.calls[s.name] += 1
            for key, value in s.data.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.sums[f"{s.name}:{key}"] += value
            layer = layer_of(s.name)
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own[i]
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def nodes_under(self, idx: int) -> float:
        return sum(
            self.spans[c].data.get("nodes", 0)
            for c in self.children[idx]
            if self.spans[c].name == "regularization.integrand"
        )

    def levels_past_tol(self) -> Tuple[float, float]:
        """(nodes after the level difference first met tol, all level nodes).

        Level j of a regularized_integral call first meets tol when
        |e_j - e_{j-1}| <= tol (1 + |e_j|), the test silt applies to the
        last difference.  Calls that never meet it add no nodes past tol.
        """
        past = total = 0.0
        for i in self.selected:
            s = self.spans[i]
            if s.name != "regularization.regularized_integral":
                continue
            est, tol = s.data.get("estimates"), s.data.get("tol")
            level_nodes = [
                self.nodes_under(c)
                for c in self.children[i]
                if self.spans[c].name == "quadrature.integrate_simplex_level"
            ]
            total += sum(level_nodes)
            if tol is None or est is None or len(est) != len(level_nodes):
                continue
            for j in range(1, len(est)):
                if abs(est[j] - est[j - 1]) <= tol * (1.0 + abs(est[j])):
                    past += sum(level_nodes[j + 1 :])
                    break
        return past, total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name -> (unit, total over the traced passes); reported divided by the pass count
PER_PASS: Dict[str, Tuple[str, Callable[[Aggregate], float]]] = {
    "quadrature.lattice_s": ("s", lambda a: a.inclusive["quadrature.gap_lattice"]),
    "quadrature.self_s": ("s", lambda a: a.self["quadrature.integrate_simplex_level"]),
    "quadrature.nodes": ("count", lambda a: a.sums["regularization.integrand:nodes"]),
    "quadrature.levels": ("count", lambda a: a.calls["quadrature.integrate_simplex_level"]),
    "regularization.integrand_self_s": ("s", lambda a: a.self["regularization.integrand"]),
    "process_models.factors_s": (
        "s",
        lambda a: a.self["process_models.embedded_factors"] + a.self["process_models.factor_values"],
    ),
    "process_models.factor_rows": ("count", lambda a: a.sums["process_models.factor_values:rows"]),
    "process_models.factor_bytes": ("bytes", lambda a: a.sums["process_models.factor_values:bytes"]),
    "function_space.indicator_s": ("s", lambda a: a.inclusive["function_space.indicator_values"]),
    "gram.batch_decompose_self_s": ("s", lambda a: a.self["gram.batch_decompose"]),
    "gram.batch_ortho_s": ("s", lambda a: a.inclusive["gram.batch_ortho_coeffs"]),
    "gram.decompose_s": ("s", lambda a: a.inclusive["gram.decompose"]),
    "gram.decompose_calls": ("count", lambda a: a.calls["gram.decompose"]),
    "transform.fw_limit_s": ("s", lambda a: a.inclusive["transform.fw_limit"]),
    "transform.fw_eps_s": ("s", lambda a: a.inclusive["transform.fw_eps"]),
    "transform.mc_s": ("s", lambda a: a.inclusive["transform.mc_fw_estimate"]),
    "nondeterminism.slnd_s": ("s", lambda a: a.inclusive["nondeterminism.slnd_ratio"]),
    "nondeterminism.berman_s": ("s", lambda a: a.inclusive["nondeterminism.berman_stat"]),
}
for _layer in LAYERS:
    PER_PASS[f"split.{_layer}_s"] = ("s", lambda a, _l=_layer: a.layer_self[_l])


def per_layer_metrics(
    spans: List[Span], untraced_walls: List[float], fail_frac: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as (value, unit); times and counts are means per pass.

    ``traced_wall_s`` is the mean duration of the ``harness.pass`` spans, so
    the ``split.*`` self times add up to it; ``trace_overhead_s`` is its
    excess over the mean of the untraced passes run alongside.
    """
    passes = Aggregate(spans, (PASS_SPAN,))
    setup = Aggregate(spans, (SETUP_SPAN,))
    n = max(1, passes.calls[PASS_SPAN])
    out = {name: (fn(passes) / n, unit) for name, (unit, fn) in PER_PASS.items()}
    past, total = passes.levels_past_tol()
    out["regularization.levels_past_tol_frac"] = (_ratio(past, total), "ratio")
    out["function_space.operator_norm_s"] = (setup.inclusive["function_space.operator_norm"], "s")
    out["transform.mc_samples_per_s"] = (
        _ratio(passes.sums["transform.mc_fw_estimate:samples"], passes.inclusive["transform.mc_fw_estimate"]),
        "1/s",
    )
    traced = passes.inclusive[PASS_SPAN] / n
    out["traced_wall_s"] = (traced, "s")
    out["trace_overhead_s"] = (traced - _mean(untraced_walls), "s")
    out["fail_frac"] = (fail_frac, "ratio")
    return out


def _mean(values: List[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0
