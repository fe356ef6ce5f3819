"""Single command-line entry point wiring all modules.

Subcommands: gram, transform (``--mc`` for the Monte Carlo estimate),
regularize, diverge, schur, slnd, berman, pdecay, selftest.  Scalar results
are emitted as JSON, scans as CSV; every artifact embeds the run settings its
subcommand read and the tool version, so identical configurations produce
byte-identical bodies.  Exit codes: 0 ok,
2 validation error, 3 numerical failure (non-convergence, degenerate Gram).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import SiltError, ValidationError
from .function_space import inner, make_grid, operator_norm, parse_function
from .gram import TimeTuple, decompose, projection_norm_sq
from .nondeterminism import (
    berman_scan,
    berman_stat,
    point_projection_norm_sq,
    projection_decay,
    slnd_ratio,
    slnd_scan,
)
from .process_models import parse_model, sturm_liouville_operator, wiener_model
from .quadrature import _ORDERS, QuadratureSpec, check_converged
from .regularization import (
    divergence_probe,
    regularized_integral,
    regularized_integrand,
    schur_bound_check,
)
from .transform import NORMALIZATIONS, TransformPoint, fw_eps, fw_limit, mc_fw_estimate


def _setting(default, ini: str, flag: str, reads, conv=str, **arg):
    """A run setting: default, INI ``section.key``, flag, readers, converter, argparse options."""
    meta = dict(ini=ini, flag=flag, reads=reads, conv=conv, arg=arg)
    return dataclasses.field(default=default, metadata=meta)


# the subcommands that build a model on the grid, and those that build a grid
_MODELED = ("gram", "transform", "regularize", "diverge", "slnd", "berman", "pdecay")
_GRIDDED = _MODELED + ("schur",)


@dataclass
class RunConfig:
    """Effective configuration of one subcommand.  Each setting names the subcommands that
    read it, and that alone decides each subcommand's flags, INI keys and echoed settings."""

    command: str
    model: str = _setting(
        "wiener", "model.spec", "--model", _MODELED,
        help="wiener | perturbed:sl | perturbed:file=<csv> | counterexample",
    )
    T: float = _setting(1.0, "grid.T", "--grid-T", _GRIDDED, float, help="interval endpoint")
    n: int = _setting(512, "grid.n", "--grid-n", _GRIDDED, int, help="number of grid cells")
    seed: int = _setting(0, "run.seed", "--seed", ("transform",), int, help="random seed")
    normalization: str = _setting(
        "paper", "run.normalization", "--normalization", ("transform", "diverge"),
        choices=NORMALIZATIONS,
    )
    levels: int = _setting(
        QuadratureSpec.levels, "run.levels", "--levels", ("regularize",), int,
        help=f"most Gauss orders to try, of {', '.join(map(str, _ORDERS))} (2..{len(_ORDERS)})",
    )
    min_gap: Optional[float] = _setting(
        None, "run.min_gap", "--min-gap", ("regularize",), float,
        help="truncate the regularize simplex at this gap (default: no floor)",
    )
    out: Optional[str] = _setting(
        None, "run.out", "--out", _GRIDDED, help="output path (default stdout)"
    )

    def as_dict(self):  # the settings the subcommand read, but the output path
        return {f.name: getattr(self, f.name) for f in _settings(self.command) if f.name != "out"}


def _settings(command: str):  # the run settings that ``command`` reads
    return [f for f in dataclasses.fields(RunConfig) if command in f.metadata.get("reads", ())]


def load_config(path: str, command: str) -> RunConfig:
    """INI-style config with sections [grid] [model] [run]; flags override it.

    Keys are case-insensitive and section names case-sensitive, as configparser
    reads them.  A known key that ``command`` does not read is ignored.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file '{path}': {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"config parse error in '{path}': {exc}") from exc
    settings = {}
    for f in dataclasses.fields(RunConfig)[1:]:  # all but the command
        section, _, key = f.metadata["ini"].partition(".")
        settings[section, key.lower()] = f
    cfg = RunConfig(command)
    for section in parser.sections():
        for key, raw in parser.items(section):
            f = settings.get((section, key.lower()))
            if f is None:
                raise ValidationError(
                    f"unknown config key '{key}' in section [{section}] of '{path}'"
                )
            if command not in f.metadata["reads"]:
                continue
            try:
                value = f.metadata["conv"](raw)
                choices = f.metadata["arg"].get("choices")
                if choices is not None and value not in choices:
                    raise ValueError(raw)
                setattr(cfg, f.name, value)
            except ValueError as exc:
                raise ValidationError(
                    f"bad value '{raw}' for {section}.{key} in '{path}'"
                ) from exc
    return cfg


def _parse_floats(text: str, what: str = "float list") -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed {what} '{text}'") from exc


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
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output file '{out}': {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _build(cfg: RunConfig):
    grid = make_grid(cfg.T, cfg.n)
    model = parse_model(cfg.model, grid)
    return grid, model


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gram(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_floats(args.times, "times"))
    dec = decompose(model, tt)
    result = {
        "gamma": dec.gamma,
        "gram_matrix": dec.A.tolist(),
        "eigenvalues": np.linalg.eigvalsh(dec.A).tolist(),
    }
    if args.h is not None:
        h = parse_function(args.h, grid, model.aux_dim)
        result["projection_norm_sq"] = projection_norm_sq(model, tt.times, h)
    _emit_json(cfg, result)
    return 0


def _cmd_transform(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_floats(args.times, "times"))
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    point = TransformPoint(model, tt, h1, h2, cfg.normalization)
    result = {"convention": cfg.normalization}
    if args.mc is not None:
        eps = 0.5 if args.eps is None else args.eps
        mean, stderr = mc_fw_estimate(point, eps, args.mc, cfg.seed)
        result.update(value=mean, stderr=stderr, eps=eps, mode="mc")
    elif args.eps is not None:
        result.update(value=fw_eps(point, args.eps), eps=args.eps, mode="eps")
    else:
        result.update(value=fw_limit(point), mode="limit")
    _emit_json(cfg, result)
    return 0


def _cmd_regularize(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    spec = QuadratureSpec(k=args.k, levels=cfg.levels, min_gap=cfg.min_gap)
    rv = regularized_integral(model, args.k, h1, h2, spec)
    _emit_json(cfg, dataclasses.asdict(rv))
    check_converged(rv, spec.tol)
    return 0


def _cmd_diverge(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    h1 = parse_function(args.h1, grid, model.aux_dim)
    h2 = parse_function(args.h2, grid, model.aux_dim)
    deltas = _parse_floats(args.deltas)
    rows = divergence_probe(model, args.k, h1, h2, deltas, cfg.normalization)
    _emit_csv(cfg, ["delta", "value"], rows)
    return 0


def _cmd_schur(cfg: RunConfig, args) -> int:
    h = parse_function(args.h, make_grid(cfg.T, cfg.n))
    lhs, rhs, ok = schur_bound_check(h, args.a)
    _emit_json(cfg, {"lhs": lhs, "rhs": rhs, "pass": ok})
    if not ok:
        raise SiltError(f"Schur bound check failed: lhs {lhs!r} > rhs {rhs!r}")
    return 0


def _cmd_slnd(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_floats(args.times, "times"))
    try:
        M = [int(tok) for tok in args.subset.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed subset '{args.subset}'") from exc
    if args.scan:
        report = slnd_scan(model, tt, M, _parse_floats(args.scan))
        _emit_csv(cfg, ["gap", "value"], list(zip(report.gaps, report.ratios)))
    else:
        _emit_json(cfg, {"ratio": slnd_ratio(model, tt, M)})
    return 0


def _cmd_berman(cfg: RunConfig, args) -> int:
    grid, model = _build(cfg)
    tt = TimeTuple(_parse_floats(args.times, "times"))
    if args.scan:
        report = berman_scan(model, tt.times[0], tt.k, _parse_floats(args.scan))
        _emit_csv(cfg, ["gap", "value"], list(zip(report.gaps, report.ratios)))
    else:
        _emit_json(cfg, {"stat": berman_stat(model, tt)})
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


def _sl_covariance(s, t):
    """(g(s), g(t)) of perturbed:sl in closed form: with s <= t, the steps' overlap s, the
    steps against the corrections S 1I_[0,t] = -cos t sin u (u < t), -sin t cos u (u > t),
    and the corrections against each other on [0, s], [s, t] and [t, pi/2]."""
    s, t = np.minimum(s, t), np.maximum(s, t)
    cs, ss, ct, st = np.cos(s), np.sin(s), np.cos(t), np.sin(t)
    return (
        s - ct * (1 - cs) - cs * (1 - cs) - ss * (st - ss)
        + cs * ct * (s / 2 - np.sin(2 * s) / 4)
        + ss * ct * (st**2 - ss**2) / 2
        + ss * st * ((math.pi / 2 - t) / 2 - np.sin(2 * t) / 4)
    )


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
    check("wiener covariance(0.2, 0.9) = 0.2", float(model.covariance(0.2, 0.9)), 0.2, 1e-12)
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
    msl = parse_model("perturbed:sl", make_grid(math.pi / 2, 256))
    nrm = operator_norm(sturm_liouville_operator(msl.grid))
    check("perturbed:sl ||S|| = 2/3 < 1", nrm, 2 / 3, 1e-3)
    # the Gram kernel against the closed-form covariance, differenced over the gaps
    tsl = TimeTuple([0.2, 0.5, 0.8, 1.1])
    C = _sl_covariance(*np.meshgrid(tsl.times, tsl.times))
    C = np.diff(np.diff(C, axis=0), axis=1)
    A = decompose(msl, tsl).A
    ratio = float(np.linalg.det(A) / np.linalg.det(C))
    check("perturbed:sl Gamma / closed-form Gram determinant = 1", ratio, 1.0, 1e-12)
    check("perturbed:sl Gram entries = closed form", float(np.max(np.abs(A - C))), 0.0, 1e-12)
    ok = all(flag for _, flag in checks)
    print(f"{sum(1 for _, f in checks if f)}/{len(checks)} selftest checks passed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silt",
        description="regularized Fourier-Wiener transforms of self-intersection local time",
    )
    parser.add_argument("--version", action="version", version=f"silt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, config=None)
        settings = _settings(name)
        if settings:
            p.add_argument("--config", help="INI config file ([grid] [model] [run])")
        for f in settings:
            m = f.metadata
            p.add_argument(m["flag"], dest=f.name, type=m["conv"], **m["arg"])
        return p

    p = command("gram", _cmd_gram, "Gram determinant, matrix and projections")
    p.add_argument("--times", required=True)
    p.add_argument("--h")

    p = command("transform", _cmd_transform, "Fourier-Wiener transform values")
    p.add_argument("--times", required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--eps", type=float, help="smoothing eps (default 0.5 with --mc)")
    p.add_argument("--mc", type=int, help="Monte Carlo sample count")

    p = command("regularize", _cmd_regularize, "regularized simplex integral")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)

    p = command("diverge", _cmd_diverge, "divergence probe of the unregularized integral")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--deltas", required=True, help="decreasing truncation levels")

    p = command("schur", _cmd_schur, "Schur-test bound verification")
    p.add_argument("--h", required=True)
    p.add_argument("--a", type=float, default=0.0)

    p = command("slnd", _cmd_slnd, "strong local nondeterminism ratio / scan")
    p.add_argument("--times", required=True)
    p.add_argument("--subset", required=True, help="comma list of 1-based gap indices")
    p.add_argument("--scan", help="decreasing gap values")

    p = command("berman", _cmd_berman, "Berman local nondeterminism statistic / scan")
    p.add_argument("--times", required=True)
    p.add_argument("--scan", help="decreasing window sizes")

    p = command("pdecay", _cmd_pdecay, "projection on a single increment")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--point", action="store_true", help="project on g(t1) itself")

    command("selftest", _cmd_selftest, "run built-in smoke tests")

    return parser


def _merge_config(args) -> RunConfig:
    cfg = load_config(args.config, args.command) if args.config else RunConfig(args.command)
    for f in _settings(args.command):
        val = getattr(args, f.name)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


# a float that starts with "-" and that argparse, after a space, takes for a flag
_SIGNED_FLOAT = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)", re.IGNORECASE)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # --a -inf as --a=-inf, so the checks name it
        first = argv[i].partition(",")[0]  # a comma list such as --times -0.1,0.5 too
        if argv[i - 1][:2] == "--" and "=" not in argv[i - 1] and _SIGNED_FLOAT.fullmatch(first):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.handler(cfg, args)
    except ValidationError as exc:
        print(f"silt: validation error: {exc}", file=sys.stderr)
        return 2
    except SiltError as exc:
        print(f"silt: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
