"""Pointwise Fourier-Wiener transform values and their Monte Carlo validator.

One closure, ``batch_fw_limit``'s, evaluates the closed form at every eps from the
Gram kernel's projections: ``fw_eps`` is its B=1 row at eps > 0, ``fw_limit`` at
eps = 0, and ``divergence_probe`` integrates it at eps = 0.  The Wiener form
``fw_wiener`` is an independent oracle that calls neither.

The validator samples the law of the increments and shifts that ``fw_eps``
integrates in closed form, from the same exact Gram matrix and pairings.
Two normalization conventions are carried throughout: ``paper`` reproduces
the printed limit formula, ``analytic`` keeps the (2 pi)^{-(k-1)} constant
that the Gaussian integral produces so that direct Monte Carlo sampling can
close on the analytic value.
"""

from __future__ import annotations

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


def fw_eps(point: TransformPoint, eps: float) -> float:
    """Transform of the eps-smoothed delta product (closed Gaussian form).

    det(A + eps I)^{-1} exp(-[(A+eps I)^{-1} quadratic forms of u1, u2] / 2)
    times the normalization factor: the limit form of the model whose
    increments carry independent noise of variance eps, Gram matrix A + eps I.
    The B=1 row of ``batch_fw_limit``'s closure at eps.  Only A + eps I is
    checked and factored, so a tuple whose Gram matrix A is singular still
    has a value.
    """
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    f = batch_fw_limit(point.model, point.h1, point.h2, point.normalization)
    return float(f(np.asarray(point.tt.times)[None], eps)[0])


def batch_fw_limit(
    model: ProcessModel,
    h1: GridFunction,
    h2: GridFunction,
    normalization: str = "paper",
):
    """Vectorized transform over arrays of time tuples: (times (B, k), eps) -> (B,).

    exp(-(||P h1||^2 + ||P h2||^2)/2) / Gamma times the normalization factor,
    with P and Gamma those of A + eps I (``batch_projections``): at the default
    eps = 0 the unregularized limit integrand, whose simplex integral diverges,
    and at eps > 0 the eps-smoothed closed form of ``fw_eps``.  The name, from
    the quadrature's eps = 0 use, is the one the benchmark's per-layer probe
    reads.  Works from the model's structured primitives; no factor rows are built.
    """
    projections = batch_projections(model, h1, h2)

    def f(times: np.ndarray, eps: float = 0.0) -> np.ndarray:
        gamma, (y1, y2) = projections(times, eps)
        proj = np.add.reduce(y1**2, axis=1) + np.add.reduce(y2**2, axis=1)
        return _norm_factor(normalization, times.shape[1]) * np.exp(-0.5 * proj) / gamma

    return f


def fw_limit(point: TransformPoint) -> float:
    """The eps -> 0 limit: exp(-(||P h1||^2 + ||P h2||^2)/2) / Gamma, the B=1 row of
    ``batch_fw_limit``'s closure at eps = 0."""
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

    White noise Z enters only through (Z.dg_1 .. Z.dg_{k-1}, Z.h_j), Gaussian with
    covariance [[A, u_j], [u_j^T, ||h_j||^2]] from the model's exact Gram matrix A
    and pairings u_j.  Its draws are xi sqrt(lambda) V^T for xi ~ N(0, I), from the
    eigendecomposition, so a singular A and a shift in the increment span sample too.
    A counter-based generator (Philox) keyed by the seed and a fixed chunk size make
    the estimate reproducible; the chunks' means and squared deviations are merged
    (Chan et al.), so memory does not grow with n_samples.  Converges to fw_eps with
    the analytic normalization.
    """
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} must lie in [0, 2**128)")
    if n_samples < 1000:
        raise ValidationError("need at least 1000 samples")
    model, k1 = point.model, point.tt.k - 1
    inc = model.increments(np.asarray(point.tt.times)[None])
    cov = np.empty((k1 + 1, k1 + 1))
    cov[:k1, :k1] = model.increment_gram(inc)[0]
    factors = []
    for h in (point.h1, point.h2):
        cov[:k1, k1] = cov[k1, :k1] = model.pairing(h)(inc)[0]
        cov[k1, k1] = h.norm_sq()
        lam, V = np.linalg.eigh(cov)
        factors.append(np.sqrt(np.maximum(lam, 0.0))[:, None] * V.T)
    # log of the density constant (2 pi eps)^{-(k-1)} and of the tilt's normalization
    log_c = -k1 * math.log(2.0 * math.pi * eps)
    log_c -= 0.5 * (point.h1.norm_sq() + point.h2.norm_sq())

    rng = np.random.Generator(np.random.Philox(key=seed))

    def chunk(b: int) -> Tuple[float, float]:
        """Mean and sum of squared deviations of b samples; the draws die on return."""
        Y1, Y2 = (rng.standard_normal((b, k1 + 1)) @ R for R in factors)
        Q = (Y1[:, :k1] ** 2 + Y2[:, :k1] ** 2).sum(axis=1)
        vals = np.exp(log_c - Q / (2.0 * eps) + Y1[:, k1] + Y2[:, k1])
        m = float(vals.mean())
        return m, float(((vals - m) ** 2).sum())

    mean = m2 = 0.0
    for done in range(0, n_samples, MC_CHUNK):
        b = min(MC_CHUNK, n_samples - done)
        chunk_mean, chunk_m2 = chunk(b)
        delta, n = chunk_mean - mean, done + b
        mean += delta * b / n
        m2 += chunk_m2 + delta**2 * done * b / n
    return mean, math.sqrt(m2 / (n_samples - 1) / n_samples)
