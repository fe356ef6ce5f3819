"""The four workloads.

Each workload class is built in three steps.  ``__init__`` is the set-up
that ``setup_s`` times together with the import of silt: grids, models and
shifts.  ``prepare`` computes the untimed reference values the checks
compare against.  ``run_pass`` is one measured pass; every call it makes
into silt is one operation of the tally.

Calls go through the ``silt`` package's attributes at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List

import numpy as np

from .inputs import PointSpec, mc_inputs, pointwise_inputs
from .tally import Tally, rel_close

HALF_PI = math.pi / 2
REFERENCE_FILE = Path(__file__).resolve().parent.parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class Regularize:
    """regularized_integral with const1 shifts: the ROADMAP's four cases.

    All cases use n = 512 and one ``tol``; ``levels`` is fixed so that every
    case runs at least one level past the first level whose difference meets
    ``tol`` (k = 2 meets it at level 2, k = 3 at level 3).  The default six
    levels would take about 3 minutes per pass here.
    """

    N = 512
    LEVELS = 4
    TOL = 5e-3
    CASES = (  # label, model spec, T, k
        ("wiener-k2", "wiener", 1.0, 2),
        ("wiener-k3", "wiener", 1.0, 3),
        ("sl-k2", "perturbed:sl", HALF_PI, 2),
        ("sl-k3", "perturbed:sl", HALF_PI, 3),
    )

    def __init__(self, silt, seed: int):
        self.silt = silt
        self.cases = []
        built = {}
        for label, spec, T, k in self.CASES:
            if spec not in built:
                grid = silt.make_grid(T, self.N)
                built[spec] = (silt.parse_model(spec, grid), silt.parse_function("const1", grid))
            model, one = built[spec]
            quad = silt.QuadratureSpec(k=k, levels=self.LEVELS, tol=self.TOL)
            self.cases.append((label, model, k, one, quad))
        self.refs = {}

    def prepare(self) -> None:
        from scipy import integrate

        reference = load_reference()["regularize"]
        for label, *_ in self.CASES:
            self.refs[label] = reference.get(label)
        oracle, err = integrate.quad(
            lambda u: (1 - u) * (-math.expm1(-u)) / u, 0.0, 1.0, epsabs=1e-12
        )
        if err > 1e-8:
            raise RuntimeError(f"1-D oracle inaccurate (error estimate {err:.1e})")
        self.refs["wiener-k2"] = oracle

    def run_pass(self, tally: Tally) -> None:
        silt = self.silt
        for label, model, k, one, quad in self.cases:
            ref = self.refs[label]
            tally.run(
                label,
                lambda: silt.regularized_integral(model, k, one, one, quad),
                lambda rv: rv.converged and abs(rv.value - ref) <= quad.tol * (1 + abs(ref)),
            )


class Diverge:
    """divergence_probe on Wiener with zero shifts at n = 8192.

    A fixed lattice with no closure and no levels.  The factor rows are 16
    times wider than at n = 512, so the factor layer is memory-bound: one
    chunk's factor array is about 134 MB (the result records it next to the
    L3 size).
    """

    N = 8192
    DELTAS = (1e-2, 1e-3, 1e-4)
    GAP_CELLS = 64
    T_CELLS = 32
    CHUNK = 1024
    RTOL = 0.02

    def __init__(self, silt, seed: int):
        self.silt = silt
        grid = silt.make_grid(1.0, self.N)
        self.model = silt.wiener_model(grid)
        self.zero = silt.parse_function("zero", grid)

    def prepare(self) -> None:
        self.refs = [math.log(1 / d) - 1 + d for d in self.DELTAS]

    def largest_factor_bytes(self) -> int:
        """Computed size of one chunk's (tuples * k, n) factor array."""
        tuples = max(1, self.CHUNK // self.T_CELLS) * self.T_CELLS
        return tuples * 2 * self.N * 8

    def run_pass(self, tally: Tally) -> None:
        silt = self.silt
        tally.run(
            "divergence_probe",
            lambda: silt.divergence_probe(
                self.model,
                2,
                self.zero,
                self.zero,
                self.DELTAS,
                gap_cells=self.GAP_CELLS,
                t_cells=self.T_CELLS,
                chunk=self.CHUNK,
            ),
            lambda rows: len(rows) == len(self.refs)
            and all(rel_close(v, ref, self.RTOL) for (_, v), ref in zip(rows, self.refs)),
        )


def _shifts(silt, model, coeffs):
    b1 = silt.parse_function("sin:1", model.grid, model.aux_dim)
    b2 = silt.parse_function("sin:2", model.grid, model.aux_dim)
    return coeffs[0] * b1 + coeffs[1] * b2, coeffs[2] * b1 + coeffs[3] * b2


class Pointwise:
    """Transform values at seeded points, n = 512: scalar calls, then Monte Carlo.

    Scalar part: at tuples with k = 2..5, cycling over wiener, counterexample
    and perturbed:sl, one call each of decompose, fw_limit, fw_eps,
    regularized_integrand, slnd_ratio and berman_stat.  Per-call overhead
    dominates it; it is the control for batched changes.  Wiener points are
    checked against the independent oracles (fw_wiener, product_form_wiener)
    and the identities Gamma = prod(gaps), SLND ratio = Berman statistic = 1;
    the other models against bounds that hold for every Gaussian model.

    Monte Carlo part: mc_fw_estimate at k = 2 Wiener points, eps = 0.5,
    analytic normalization.  Philox draws and (b, n) GEMMs dominate; it is
    the only sampler work.  Each estimate is checked against fw_eps by its
    z-score; at 5 standard errors a correct sampler fails about once in two
    million checks.

    The two parts share one workload because the interpreter-bound scalar
    part alone drifted too much between runs on a shared 2-core host (the
    quartile spread of its median pass time over ten seeds was 0.43 of the
    median); the vectorized sampler steadies the pass, and the traced run
    still splits the two.
    """

    N = 512
    POINTS = 80
    EPS = 0.1
    RTOL = 1e-10
    SLACK = 1e-9
    MC_POINTS = 4
    MC_SAMPLES = 16384
    MC_EPS = 0.5
    Z_MAX = 5.0

    def __init__(self, silt, seed: int):
        self.silt = silt
        g1 = silt.make_grid(1.0, self.N)
        self.models = [
            silt.wiener_model(g1),
            silt.counterexample_model(g1),
            silt.parse_model("perturbed:sl", silt.make_grid(HALF_PI, self.N)),
        ]
        self.specs: List[PointSpec] = pointwise_inputs(seed, self.POINTS, len(self.models))
        self.points = []
        for p in self.specs:
            model = self.models[p.model]
            h1, h2 = _shifts(silt, model, p.coeffs)
            tt = silt.TimeTuple([t * model.grid.T for t in p.times])
            self.points.append(silt.TransformPoint(model, tt, h1, h2))
        self.mc_specs: List[PointSpec] = mc_inputs(seed, self.MC_POINTS)
        self.mc_points = []
        for p in self.mc_specs:
            h1, h2 = _shifts(silt, self.models[0], p.coeffs)
            self.mc_points.append(
                silt.TransformPoint(self.models[0], silt.TimeTuple(p.times), h1, h2, "analytic")
            )

    def prepare(self) -> None:
        silt = self.silt
        self.oracles = [
            (
                silt.fw_wiener(pt.tt, pt.h1, pt.h2),
                silt.product_form_wiener(pt.tt, pt.h1, pt.h2),
                float(np.prod(pt.tt.gaps)),
            )
            if pt.model.name == "wiener"
            else None
            for pt in self.points
        ]
        self.mc_refs = [silt.fw_eps(pt, self.MC_EPS) for pt in self.mc_points]

    def _capped(self, gamma, strict=True):
        """Check 0 < v Gamma <= 1 (0 <= for the regularized integrand).

        fw_limit, fw_eps and the regularized integrand are all at most
        1/Gamma under the paper normalization.
        """
        low = (lambda x: x > 0.0) if strict else (lambda x: x >= 0.0)
        return lambda v: gamma is not None and low(v) and v * gamma <= 1.0 + self.SLACK

    def run_pass(self, tally: Tally) -> None:
        self._scalar_pass(tally)
        self._mc_pass(tally)

    def _scalar_pass(self, tally: Tally) -> None:
        silt = self.silt
        for i, (pt, p, oracle) in enumerate(zip(self.points, self.specs, self.oracles)):
            tag = f"{pt.model.name}#{i}"
            if oracle is None:
                check_gamma = lambda d: 0.0 < d.gamma <= float(np.prod(np.diag(d.A))) * (1 + self.SLACK)  # noqa: E731
            else:
                fw_ref, prod_ref, gaps = oracle
                check_gamma = lambda d: rel_close(d.gamma, gaps, self.RTOL)  # noqa: E731
            dec = tally.run(f"decompose {tag}", lambda: silt.decompose(pt.model, pt.tt), check_gamma)
            gamma = None if dec is None else dec.gamma
            if oracle is None:
                check_limit, check_reg = self._capped(gamma), self._capped(gamma, strict=False)
                check_ratio = lambda r: 0.0 < r <= 1.0 + self.SLACK  # noqa: E731
            else:
                check_limit = lambda v: rel_close(v, fw_ref, self.RTOL)  # noqa: E731
                check_reg = lambda v: rel_close(v, prod_ref, self.RTOL)  # noqa: E731
                check_ratio = lambda r: abs(r - 1.0) <= self.RTOL  # noqa: E731
            tally.run(f"fw_limit {tag}", lambda: silt.fw_limit(pt), check_limit)
            tally.run(f"fw_eps {tag}", lambda: silt.fw_eps(pt, self.EPS), self._capped(gamma))
            tally.run(
                f"regularized_integrand {tag}",
                lambda: silt.regularized_integrand(pt.model, pt.tt, pt.h1, pt.h2),
                check_reg,
            )
            tally.run(
                f"slnd_ratio {tag}",
                lambda: silt.slnd_ratio(pt.model, pt.tt, p.subset),
                check_ratio,
            )
            tally.run(f"berman_stat {tag}", lambda: silt.berman_stat(pt.model, pt.tt), check_ratio)

    def _mc_pass(self, tally: Tally) -> None:
        silt = self.silt
        for i, (pt, p, ref) in enumerate(zip(self.mc_points, self.mc_specs, self.mc_refs)):
            tally.run(
                f"mc_fw_estimate #{i}",
                lambda: silt.mc_fw_estimate(pt, self.MC_EPS, self.MC_SAMPLES, seed=p.mc_key),
                lambda r: r[1] > 0 and abs(r[0] - ref) <= self.Z_MAX * r[1],
            )


WORKLOADS = {
    "regularize": Regularize,
    "diverge": Diverge,
    "pointwise": Pointwise,
}
