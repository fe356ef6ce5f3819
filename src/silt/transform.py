"""Pointwise Fourier-Wiener transform values and their Monte Carlo validator.

Two normalization conventions are carried throughout: ``paper`` reproduces
the printed limit formula, ``analytic`` keeps the (2 pi)^{-(k-1)} constant
that the Gaussian integral produces so that direct Monte Carlo sampling can
close on the analytic value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .function_space import GridFunction
from .gram import (
    TimeTuple,
    batch_projections,
    wiener_projections,
)
from .process_models import ProcessModel

NORMALIZATIONS = ("paper", "analytic")
MC_CHUNK = 1 << 16  # Monte Carlo samples drawn at once: bounds the sampler's memory


def _norm_factor(normalization: str, k: int) -> float:
    """The constant in front of a k-point transform value under a convention."""
    if normalization not in NORMALIZATIONS:
        raise ValidationError(
            f"normalization must be one of {NORMALIZATIONS}, got '{normalization}'"
        )
    return 1.0 if normalization == "paper" else (2.0 * math.pi) ** (-(k - 1))


@dataclass(frozen=True)
class TransformPoint:
    """A point at which the transform is evaluated: model, times and shifts."""

    model: ProcessModel
    tt: TimeTuple
    h1: GridFunction
    h2: GridFunction
    normalization: str = "paper"

    def __post_init__(self):
        _norm_factor(self.normalization, self.tt.k)

    @property
    def norm_factor(self) -> float:
        return _norm_factor(self.normalization, self.tt.k)


def fw_eps(point: TransformPoint, eps: float) -> float:
    """Transform of the eps-smoothed delta product (closed Gaussian form).

    det(A + eps I)^{-1} exp(-[(A+eps I)^{-1} quadratic forms of u1, u2] / 2)
    times the normalization factor: the limit form of the model whose
    increments carry independent noise of variance eps, Gram matrix A + eps I.
    Only A + eps I is checked and factored, so a tuple whose Gram matrix A is
    singular still has a value.
    """
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    model, noise = point.model, eps * np.eye(point.tt.k - 1)
    noisy = dataclasses.replace(model, _gram=lambda inc: model.increment_gram(inc) + noise)
    det, ys = batch_projections(noisy, point.h1, point.h2)(np.asarray(point.tt.times)[None])
    expo = sum(float(np.add.reduce(y**2, None)) for y in ys)
    return point.norm_factor * math.exp(-0.5 * expo) / float(det[0])


def batch_fw_limit(
    model: ProcessModel,
    h1: GridFunction,
    h2: GridFunction,
    normalization: str = "paper",
):
    """Vectorized limit integrand over arrays of time tuples (B, k) -> (B,).

    exp(-(||P h1||^2 + ||P h2||^2)/2) / Gamma times the normalization factor:
    the unregularized integrand, whose simplex integral diverges.  Works from
    the model's structured primitives; no factor rows are built.
    """
    projections = batch_projections(model, h1, h2)

    def f(times: np.ndarray) -> np.ndarray:
        gamma, (y1, y2) = projections(times)
        proj = np.add.reduce(y1**2, axis=1) + np.add.reduce(y2**2, axis=1)
        return _norm_factor(normalization, times.shape[1]) * np.exp(-0.5 * proj) / gamma

    return f


def fw_limit(point: TransformPoint) -> float:
    """The eps -> 0 limit: exp(-(||P h1||^2 + ||P h2||^2)/2) / Gamma."""
    f = batch_fw_limit(point.model, point.h1, point.h2, point.normalization)
    return float(f(np.asarray(point.tt.times)[None])[0])


def fw_wiener(
    tt: TimeTuple,
    h1: GridFunction,
    h2: GridFunction,
    normalization: str = "paper",
) -> float:
    """Wiener specialization: per-interval projections over the product of gaps."""
    factor = _norm_factor(normalization, tt.k)
    expo = sum(wiener_projections(tt, h1, h2).flat)
    return factor * math.exp(-0.5 * expo) / float(np.prod(tt.gaps))


def mc_fw_estimate(
    point: TransformPoint,
    eps: float,
    n_samples: int,
    seed: int,
) -> Tuple[float, float]:
    """Direct sampling estimate of E[prod f_eps(dx(t_i)) E(h1, h2)].

    Exact k-dimensional draws from a thin QR of the dense increment and shift
    columns C = [dg_1 .. dg_{k-1}, h1, h2] = QR: white noise Z enters only
    through Z.C, which has the law of xi R for xi ~ N(0, I), also when C is
    rank-deficient.  A counter-based generator (Philox) keyed by the seed and
    a fixed chunk size make the estimate reproducible.  Converges to fw_eps
    with the analytic normalization.
    """
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} must lie in [0, 2**128)")
    if n_samples < 1000:
        raise ValidationError("need at least 1000 samples")
    # dense increments, so that the sampler stays independent of the Gram kernel
    E_inc = np.diff(point.model.embedded_factors(point.tt.times), axis=0)  # (k-1, D)
    C = np.column_stack([E_inc.T, point.h1.embedded(), point.h2.embedded()])
    R = np.linalg.qr(C, mode="r")
    k1 = E_inc.shape[0]
    # log of the density constant (2 pi eps)^{-(k-1)} and of the tilt's normalization
    log_c = -k1 * math.log(2.0 * math.pi * eps)
    log_c -= 0.5 * (point.h1.norm_sq() + point.h2.norm_sq())

    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = np.empty(n_samples)
    for done in range(0, n_samples, MC_CHUNK):
        b = min(MC_CHUNK, n_samples - done)
        Y1 = rng.standard_normal((b, R.shape[0])) @ R
        Y2 = rng.standard_normal((b, R.shape[0])) @ R
        Q = (Y1[:, :k1] ** 2 + Y2[:, :k1] ** 2).sum(axis=1)
        vals[done : done + b] = np.exp(log_c - Q / (2.0 * eps) + Y1[:, k1] + Y2[:, k1 + 1])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_samples))
