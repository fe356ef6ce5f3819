"""Seeded input generator for the ``pointwise`` and ``mc`` workloads.

It returns plain numbers only: times, shift coefficients, subsets and Monte
Carlo keys.  The workloads turn them into ``TimeTuple``s and
``GridFunction``s, so silt never sees the seed.  The same seed gives the same
inputs on every machine and numpy version that keeps PCG64's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# Gaps stay at least this share of T above the diagonal and t_1 above 0, as
# in the acceptance criteria: increments then span many grid cells, where
# the indicator construction is exact.
POINTWISE_GAP_SHARE = 0.02
MC_GAP_SHARE = 0.1

# Stream labels keep the two workloads' draws independent for one seed.
_POINTWISE_STREAM = 1
_MC_STREAM = 2


@dataclass(frozen=True)
class PointSpec:
    model: int                 # index into the workload's model list
    times: Tuple[float, ...]   # fractions of T, strictly increasing
    coeffs: Tuple[float, ...]  # h1 = c0 sin:1 + c1 sin:2, h2 = c2 sin:1 + c3 sin:2
    subset: Tuple[int, ...]    # 1-based increment labels for slnd_ratio
    mc_key: int                # Philox key for mc_fw_estimate


def _times(rng: np.random.Generator, k: int, gap: float) -> Tuple[float, ...]:
    while True:
        ts = np.sort(rng.uniform(0.0, 1.0, k))
        if ts[0] >= gap and np.all(np.diff(ts) >= gap):
            return tuple(float(t) for t in ts)


def _subset(rng: np.random.Generator, k: int) -> Tuple[int, ...]:
    while True:
        pick = rng.random(k - 1) < 0.5
        if pick.any():
            return tuple(int(i) + 1 for i in np.flatnonzero(pick))


def pointwise_inputs(seed: int, n_points: int, n_models: int) -> List[PointSpec]:
    """Points cycling over the models, with k drawn from 2..5."""
    rng = np.random.default_rng([seed, _POINTWISE_STREAM])
    out = []
    for i in range(n_points):
        k = int(rng.integers(2, 6))
        out.append(
            PointSpec(
                model=i % n_models,
                times=_times(rng, k, POINTWISE_GAP_SHARE),
                coeffs=tuple(float(c) for c in rng.normal(size=4)),
                subset=_subset(rng, k),
                mc_key=0,
            )
        )
    return out


def mc_inputs(seed: int, n_points: int) -> List[PointSpec]:
    """k = 2 points on one model, each with its own Philox key."""
    rng = np.random.default_rng([seed, _MC_STREAM])
    out = []
    for _ in range(n_points):
        out.append(
            PointSpec(
                model=0,
                times=_times(rng, 2, MC_GAP_SHARE),
                coeffs=tuple(float(c) for c in rng.normal(size=4)),
                subset=(1,),
                mc_key=int(rng.integers(0, 2**31)),
            )
        )
    return out
