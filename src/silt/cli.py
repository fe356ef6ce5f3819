"""Single command-line entry point wiring all modules.

Subcommands: gram, transform, regularize, diverge, schur, slnd, berman,
pdecay, mc, selftest.  Scalar results are emitted as JSON, scans as CSV;
every artifact embeds the effective run configuration and tool version, so
identical configurations produce byte-identical bodies.  Exit codes: 0 ok,
2 validation error, 3 numerical failure (non-convergence, degenerate Gram).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConsistencyError, DegenerateConfigurationError, SiltError, ValidationError
from .function_space import inner, make_grid, parse_function
from .gram import TimeTuple, decompose, projection_norm_sq
from .nondeterminism import (
    berman_scan,
    berman_stat,
    point_projection_norm_sq,
    projection_decay,
    slnd_ratio,
    slnd_scan,
)
from .process_models import covariance, parse_model, wiener_model
from .quadrature import integrate_simplex_level  # noqa: F401  (re-export for scripts)
from .regularization import (
    QuadratureSpec,
    divergence_probe,
    regularized_integral,
    regularized_integrand,
    schur_bound_check,
)
from .transform import TransformPoint, fw_eps, fw_limit, fw_wiener, mc_fw_estimate

DEFAULTS = {
    "T": 1.0,
    "n": 512,
    "model": "wiener",
    "seed": 0,
    "normalization": "paper",
    "levels": 6,
    "min_gap": None,  # resolved per grid: max(1e-6, 2T/n)
}


@dataclass
class RunConfig:
    """Effective configuration, serialized into every output artifact."""

    model: str = DEFAULTS["model"]
    T: float = DEFAULTS["T"]
    n: int = DEFAULTS["n"]
    seed: int = DEFAULTS["seed"]
    normalization: str = DEFAULTS["normalization"]
    levels: int = DEFAULTS["levels"]
    min_gap: Optional[float] = DEFAULTS["min_gap"]
    out: Optional[str] = None

    def as_dict(self):
        d = dataclasses.asdict(self)
        d.pop("out", None)
        return d


_CONFIG_KEYS = {
    ("grid", "T"): ("T", float),
    ("grid", "n"): ("n", int),
    ("model", "spec"): ("model", str),
    ("run", "seed"): ("seed", int),
    ("run", "normalization"): ("normalization", str),
    ("run", "levels"): ("levels", int),
    ("run", "min_gap"): ("min_gap", float),
    ("run", "out"): ("out", str),
}


def load_config(path: str) -> RunConfig:
    """INI-style config with sections [grid] [model] [run]; flags override it."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file '{path}': {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"config parse error in '{path}': {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        for key, raw in parser.items(section):
            # configparser lowercases keys; map grid.t back to grid.T
            canonical = (section, "T" if (section, key) == ("grid", "t") else key)
            if canonical not in _CONFIG_KEYS:
                raise ValidationError(
                    f"unknown config key '{key}' in section [{section}] of '{path}'"
                )
            attr, conv = _CONFIG_KEYS[canonical]
            try:
                setattr(cfg, attr, conv(raw))
            except ValueError as exc:
                raise ValidationError(
                    f"bad value '{raw}' for {section}.{key} in '{path}'"
                ) from exc
    return cfg


def _parse_times(text: str) -> List[float]:
    try:
        times = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed times '{text}'") from exc
    if len(times) < 2:
        raise ValidationError(f"need at least two times, got '{text}'")
    return times


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed float list '{text}'") from exc


def _emit_json(cfg: RunConfig, result: dict) -> None:
    doc = {
        "tool": "silt",
        "version": __version__,
        "config": cfg.as_dict(),
        "result": result,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    _write(cfg.out, text + "\n")


def _emit_csv(cfg: RunConfig, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [
        f"# silt {__version__}",
        "# config " + json.dumps(cfg.as_dict(), sort_keys=True),
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    _write(cfg.out, "\n".join(lines) + "\n")


def _write(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(cfg: RunConfig):
    grid = make_grid(cfg.T, cfg.n)
    model = parse_model(cfg.model, grid)
    return grid, model


def _quad_spec(cfg: RunConfig, k: int, closure: bool = True) -> QuadratureSpec:
    return QuadratureSpec(
        k=k,
        levels=cfg.levels,
        min_gap=cfg.min_gap,
        diagonal_closure=closure,
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gram(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_times(args.times))
    dec = decompose(model, tt)
    result = {
        "gamma": dec.gamma,
        "gram_matrix": dec.A.tolist(),
        "eigenvalues": np.linalg.eigvalsh(dec.A).tolist(),
    }
    if args.h is not None:
        h = parse_function(args.h, grid, model.aux_dim)
        result["projection_norm_sq"] = projection_norm_sq(dec, h)
    _emit_json(cfg, result)
    return 0


def _cmd_transform(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_times(args.times))
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    point = TransformPoint(model, tt, h1, h2, cfg.normalization)
    result = {"convention": cfg.normalization}
    if args.mc:
        mean, stderr = mc_fw_estimate(point, args.eps or 0.5, args.mc, cfg.seed)
        result.update(value=mean, stderr=stderr, eps=args.eps or 0.5, mode="mc")
    elif args.eps is not None:
        result.update(value=fw_eps(point, args.eps), eps=args.eps, mode="eps")
    else:
        result.update(value=fw_limit(point), mode="limit")
    if cfg.model == "wiener":
        result["wiener_form"] = fw_wiener(tt, h1, h2, cfg.normalization)
    _emit_json(cfg, result)
    return 0


def _cmd_regularize(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    rv = regularized_integral(model, args.k, h1, h2, _quad_spec(cfg, args.k))
    _emit_json(
        cfg,
        {
            "value": rv.value,
            "level_estimates": list(rv.level_estimates),
            "refinement_ratios": [
                r if math.isfinite(r) else None for r in rv.refinement_ratios
            ],
            "converged": rv.converged,
        },
    )
    return 0 if rv.converged else 3


def _cmd_diverge(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    deltas = _parse_floats(args.deltas)
    rows = divergence_probe(model, args.k, h1, h2, deltas, cfg.normalization)
    _emit_csv(cfg, ["delta", "value"], rows)
    return 0


def _cmd_schur(cfg: RunConfig, args) -> int:
    grid, _ = _build(cfg)
    h = parse_function(args.h, grid)
    lhs, rhs, ok = schur_bound_check(h, args.a)
    _emit_json(cfg, {"lhs": lhs, "rhs": rhs, "pass": ok})
    return 0 if ok else 3


def _cmd_slnd(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_times(args.times))
    M = [int(tok) for tok in args.subset.split(",") if tok.strip() != ""]
    if args.scan:
        report = slnd_scan(model, tt, M, _parse_floats(args.scan))
        _emit_csv(cfg, ["gap", "value"], list(zip(report.gaps, report.ratios)))
    else:
        _emit_json(cfg, {"ratio": slnd_ratio(model, tt, M)})
    return 0


def _cmd_berman(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    times = _parse_times(args.times)
    if args.scan:
        report = berman_scan(model, times[0], len(times), _parse_floats(args.scan))
        _emit_csv(cfg, ["gap", "value"], list(zip(report.gaps, report.ratios)))
    else:
        _emit_json(cfg, {"stat": berman_stat(model, TimeTuple(times))})
    return 0


def _cmd_pdecay(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    h = parse_function(args.h, grid, model.aux_dim)
    if args.point:
        value = math.sqrt(point_projection_norm_sq(model, args.t1, h))
    else:
        value = projection_decay(model, args.t1, args.t2, h)
    _emit_csv(cfg, ["gap", "value"], [(args.t2 - args.t1, value)])
    return 0


def _cmd_mc(cfg: RunConfig, args) -> int:
    args.mc = args.samples
    return _cmd_transform(cfg, args)


def _cmd_selftest(cfg: RunConfig, args) -> int:
    """Smoke tests over directly checkable identities."""
    checks = []

    def check(name, got, want, tol=1e-12):
        ok = abs(got - want) <= tol * (1.0 + abs(want))
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {got!r} (expected {want!r})")
        return ok

    grid = make_grid(1.0, 256)
    model = wiener_model(grid)
    one = parse_function("const1", grid)
    check("inner(const1, const1) = 1", inner(one, one), 1.0)
    check("wiener covariance(0.2, 0.9) = 0.2", covariance(model, 0.2, 0.9), 0.2, 1e-12)
    tt = TimeTuple([0.2, 0.5, 0.9])
    check("wiener Gamma(0.2,0.5,0.9) = 0.12", decompose(model, tt).gamma, 0.12, 1e-12)
    point = TransformPoint(model, TimeTuple([0.25, 0.75]), 0.0 * one, 0.0 * one)
    check("fw_limit zero shifts = 1/Gamma", fw_limit(point), 2.0, 1e-12)
    check(
        "regularized integrand vanishes at zero shifts",
        regularized_integrand(model, tt, 0.0 * one, 0.0 * one),
        0.0,
        1e-15,
    )
    check("wiener slnd ratio = 1", slnd_ratio(model, tt, {1}), 1.0, 1e-12)
    ok = all(flag for _, flag in checks)
    print(f"{sum(1 for _, f in checks if f)}/{len(checks)} selftest checks passed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file ([grid] [model] [run])")
    parser.add_argument("--model", help="wiener | perturbed:sl | perturbed:file=<csv> | counterexample")
    parser.add_argument("--grid-T", type=float, dest="T", help="interval endpoint")
    parser.add_argument("--grid-n", type=int, dest="n", help="number of grid cells")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--normalization", choices=["paper", "analytic"])
    parser.add_argument("--levels", type=int, help="quadrature refinement levels")
    parser.add_argument("--min-gap", type=float, dest="min_gap", help="diagonal exclusion floor")
    parser.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silt",
        description="regularized Fourier-Wiener transforms of self-intersection local time",
    )
    parser.add_argument("--version", action="version", version=f"silt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="Gram determinant, matrix and projections")
    _common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--h")
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("transform", help="Fourier-Wiener transform values")
    _common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--mc", type=int, help="Monte Carlo sample count")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("regularize", help="regularized simplex integral")
    _common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.set_defaults(handler=_cmd_regularize)

    p = sub.add_parser("diverge", help="divergence probe of the unregularized integral")
    _common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--deltas", required=True, help="decreasing truncation levels")
    p.set_defaults(handler=_cmd_diverge)

    p = sub.add_parser("schur", help="Schur-test bound verification")
    _common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser("slnd", help="strong local nondeterminism ratio / scan")
    _common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--subset", required=True, help="comma list of 1-based gap indices")
    p.add_argument("--scan", help="decreasing gap values")
    p.set_defaults(handler=_cmd_slnd)

    p = sub.add_parser("berman", help="Berman local nondeterminism statistic / scan")
    _common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--scan", help="decreasing window sizes")
    p.set_defaults(handler=_cmd_berman)

    p = sub.add_parser("pdecay", help="projection on a single increment")
    _common(p)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--point", action="store_true", help="project on g(t1) itself")
    p.set_defaults(handler=_cmd_pdecay)

    p = sub.add_parser("mc", help="Monte Carlo transform estimate")
    _common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("selftest", help="run built-in smoke tests")
    _common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _merge_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for attr in ("model", "T", "n", "seed", "normalization", "levels", "min_gap", "out"):
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, attr, val)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.handler(cfg, args)
    except ValidationError as exc:
        print(f"silt: validation error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateConfigurationError, ConsistencyError) as exc:
        print(f"silt: numerical failure: {exc}", file=sys.stderr)
        return 3
    except SiltError as exc:
        print(f"silt: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
