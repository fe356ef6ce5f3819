import argparse
import dataclasses
import importlib
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import silt
from silt.cli import RunConfig, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_gram_subcommand(capsys):
    doc = run_json(capsys, "gram", "--times", "0.2,0.5,0.9")
    assert doc["tool"] == "silt"
    assert doc["result"]["gamma"] == pytest.approx(0.12, abs=1e-12)
    assert doc["config"]["model"] == "wiener"


def test_transform_limit_and_eps(capsys):
    doc = run_json(
        capsys, "transform", "--times", "0.25,0.75", "--h1", "zero", "--h2", "zero"
    )
    assert doc["result"]["value"] == pytest.approx(2.0, rel=1e-12)
    doc = run_json(
        capsys,
        "transform",
        "--times",
        "0.25,0.75",
        "--h1",
        "zero",
        "--h2",
        "zero",
        "--eps",
        "0.1",
    )
    assert doc["result"]["value"] == pytest.approx(1 / 0.6, rel=1e-12)


def test_regularize_subcommand(capsys):
    code, out, err = run(
        capsys,
        "regularize",
        "--k",
        "2",
        "--h1",
        "const1",
        "--h2",
        "const1",
        "--levels",
        "4",
        "--grid-n",
        "256",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["converged"] is True
    assert doc["result"]["value"] == pytest.approx(0.4287, abs=5e-3)


def test_schur_subcommand(capsys):
    doc = run_json(capsys, "schur", "--h", "const1")
    assert doc["result"]["pass"] is True


def test_slnd_subcommand(capsys):
    doc = run_json(capsys, "slnd", "--times", "0.2,0.5,0.9", "--subset", "1")
    assert doc["result"]["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_sub_cell_gap_gram_is_exact(capsys):
    """A gap of 1e-4 inside one cell of n=512 (w = 1.95e-3): Gamma / prod(gaps) = 1;
    the two-cell rows read 0.0787 there and exited 0."""
    times = [0.5003, 0.5004, 0.9]
    doc = run_json(capsys, "gram", "--times", ",".join(map(str, times)))
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert doc["result"]["gamma"] / math.prod(gaps) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_diverge_below_the_cell_is_exact(capsys):
    """diverge --k 2 at delta 1e-2 and 1e-3 on n=512 (delta = 1e-3 is half a cell)
    lies within its quadrature error (rounding) of ln(1/delta) - 1 + delta, at the
    CLI's Gauss orders and at one fixed 64x32 order; the two-cell rows read 5.9% high."""
    deltas = (1e-2, 1e-3)
    code, out, err = run(
        capsys, "diverge", "--k", "2", "--h1", "zero", "--h2", "zero", "--deltas", "1e-2,1e-3"
    )
    assert code == 0, err
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[3:]]
    grid = silt.make_grid(1.0, 512)
    zero = silt.parse_function("zero", grid)
    small = silt.divergence_probe(
        silt.wiener_model(grid), 2, zero, zero, deltas, gap_cells=64, t_cells=32
    )
    for got in (rows, small):
        for (d, v), want in zip(got, deltas):
            assert d == want
            assert v == pytest.approx(math.log(1 / d) - 1 + d, rel=1e-12, abs=0.0)


def test_diverge_emits_csv(capsys):
    code, out, err = run(
        capsys,
        "diverge",
        "--k",
        "2",
        "--h1",
        "zero",
        "--h2",
        "zero",
        "--deltas",
        "0.1,0.05",
        "--grid-n",
        "256",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# silt")
    assert lines[1].startswith("# config")
    assert lines[2] == "delta,value"
    assert len(lines) == 5


def test_validation_errors_exit_2(capsys):
    code, out, err = run(capsys, "transform", "--times", "bogus", "--h1", "zero", "--h2", "zero")
    assert code == 2
    assert "validation error" in err
    code, out, err = run(capsys, "gram", "--times", "0.5,0.2")
    assert code == 2


# what the error must name, for the cases that give a scan or probe sequence, a
# smoothing eps, a seed or an interval endpoint
NAMED_VALUES = {
    "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --eps inf":
        "eps must be positive and finite, got inf",
    "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 --eps inf":
        "eps must be positive and finite, got inf",
    "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 --seed -1":
        "seed -1 must lie in [0, 2**128)",
    "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 "
    "--seed 340282366920938463463374607431768211456":
        "seed 340282366920938463463374607431768211456 must lie in [0, 2**128)",
    "regularize --k 2 --h1 const1 --h2 const1 --levels 7": "levels must lie in 3..6, got 7",
    "regularize --k 2 --h1 const1 --h2 const1 --levels 2": "levels must lie in 3..6, got 2",
    "schur --h const1 --a -0.5": "left endpoint a=-0.5 must lie in [0, T=1.0)",
    "schur --h const1 --a=-inf": "left endpoint a=-inf must lie in [0, T=1.0)",
    # a value after a space that starts with - and is not a plain negative number
    "schur --h const1 --a -inf": "left endpoint a=-inf must lie in [0, T=1.0)",
    "pdecay --t1 -1e-3 --t2 0.5 --h const1": "model time -0.001 outside [0, 1.0]",
    "pdecay --t1 0.3 --h const1": "pdecay needs --t2 unless --point is given",
    "pdecay --t1 0.5 --t2 0.3 --h const1": "need t1 < t2",
    # on the counterexample (one aux coordinate) a lone aux row 1,5 is not coordinate 0
    "gram --grid-n 2 --model counterexample --times 0.2,0.5 --h {dir}/aux_index.csv":
        "aux row ['1', '5']: index 1 outside 0..0",
    "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --eps -inf":
        "eps must be positive and finite, got -inf",
    "diverge --k 2 --h1 zero --h2 zero --deltas nan": "deltas must be finite, positive and "
    "strictly decreasing, got (nan,)",
    "slnd --times 0.2,0.5,0.9 --subset 1 --scan 0.1,0": "scan gaps must be finite, positive "
    "and strictly decreasing, got (0.1, 0.0)",
    "slnd --times 0.2,0.5,0.9 --subset 5 --scan 0.1,0.01": "gap indices [5] out of range 1..2",
    "berman --times 0.3,0.35,0.4 --scan 0.1,nan": "scan windows must be finite, positive and "
    "strictly decreasing, got (0.1, nan)",
}


@pytest.mark.parametrize(
    "argv",
    [
        "regularize --k 2 --h1 const1 --h2 const1 --levels 3 --min-gap nan",
        "diverge --k 2 --h1 zero --h2 zero --deltas nan",
        "gram --grid-T nan --times 0.2,0.5",
        "gram --times 0.2,0.5 --h hat:0.5:nan",
        "gram --grid-n 2 --times 0.2,0.5 --h {dir}/h_nan.csv",
        "gram --grid-n 2 --model perturbed:file={dir}/kernel_nan.csv --times 0.2,0.9",
        "gram --grid-n 2 --model perturbed:file={dir}/node_nan.csv --times 0.2,0.9",
        "slnd --times 0.2,0.5,0.9 --subset x",
        "transform --times 0.25,0.75 --h1 zero --h2 zero --mc 1000 --eps 0",
        "slnd --times 0.2,0.5,0.9 --subset 1 --scan 0.1,0",
        "slnd --times 0.2,0.5,0.9 --subset 5 --scan 0.1,0.01",
        "berman --times 0.3,0.35,0.4 --scan 0.1,nan",
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --eps inf",
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 --eps inf",
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 --seed -1",
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --mc 2000 "
        "--seed 340282366920938463463374607431768211456",
        "schur --h const1 --a -0.5",
        "schur --h const1 --a=-inf",
        "schur --h const1 --a -inf",
        "pdecay --t1 -1e-3 --t2 0.5 --h const1",
        "pdecay --t1 0.3 --h const1",
        "pdecay --t1 0.5 --t2 0.3 --h const1",
        "gram --grid-n 2 --model counterexample --times 0.2,0.5 --h {dir}/aux_index.csv",
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --eps -inf",
        "regularize --k 2 --h1 const1 --h2 const1 --levels 7",
        "regularize --k 2 --h1 const1 --h2 const1 --levels 2",
    ],
)
def test_non_finite_or_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "h_nan.csv").write_text("node,value\n0.25,1.0\n0.75,nan\n")
    (tmp_path / "kernel_nan.csv").write_text("0.25,0.25,nan\n")
    (tmp_path / "node_nan.csv").write_text("nan,0.25,0.5\n")
    (tmp_path / "aux_index.csv").write_text("node,value\n0.25,1.0\n0.75,2.0\naux,value\n1,5\n")
    code, out, err = run(capsys, *argv.format(dir=tmp_path).split())
    assert code == 2, err
    assert "validation error" in err
    assert NAMED_VALUES.get(argv, "") in err


@pytest.mark.parametrize(
    "argv, named",
    [
        ("gram --times -0.1,0.5", "times must be nonnegative, got -0.1"),
        ("gram --times=-0.1,0.5", "times must be nonnegative, got -0.1"),
        (
            "diverge --k 2 --h1 zero --h2 zero --deltas -1e-2,1e-3",
            "deltas must be finite, positive and strictly decreasing, got (-0.01, 0.001)",
        ),
        (
            "slnd --times 0.2,0.5,0.9 --subset 1 --scan -0.1,0.01",
            "scan gaps must be finite, positive and strictly decreasing, got (-0.1, 0.01)",
        ),
    ],
)
def test_list_option_starting_with_a_negative_number_exits_2(capsys, argv, named):
    """A comma list after a space whose first item is a negative number reaches
    the input checks, which name the value, instead of argparse's "expected one
    argument"."""
    code, out, err = run(capsys, *argv.split())
    assert code == 2, err
    assert f"validation error: {named}" in err


@pytest.mark.parametrize("k", [0, 1, 7])
def test_diverge_k_outside_the_lattice_rule_exits_2(capsys, monkeypatch, k):
    # the k rule of every simplex integral refuses k before any lattice is built: at
    # k = 7 the third order has 9^7 nodes, above the budget of 32^4
    def no_lattice(*args, **kwargs):
        raise AssertionError("gap_lattice called")

    monkeypatch.setattr(silt.quadrature, "gap_lattice", no_lattice)
    argv = f"diverge --k {k} --h1 zero --h2 zero --deltas 0.1".split()
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert f"validation error: multiplicity k must lie in 2..6, got {k}" in err


def test_diverge_k4_exits_0_with_finite_rows(capsys):
    argv = "diverge --k 4 --h1 sin:1 --h2 zero --deltas 0.1,0.01".split()
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[3:]]
    assert [d for d, _ in rows] == [0.1, 0.01]
    assert all(math.isfinite(v) and v > 0 for _, v in rows)


def test_diverge_k5_exits_0_with_finite_rows(capsys):
    argv = "diverge --k 5 --h1 zero --h2 zero --deltas 1e-2,1e-3".split()
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[3:]]
    assert [d for d, _ in rows] == [1e-2, 1e-3]
    assert all(math.isfinite(v) and v > 0 for _, v in rows)


def test_diverge_exits_3_naming_the_delta_that_does_not_converge(capsys, monkeypatch):
    # the truncation at 0.1 converges, and each difference at 0.01 grows
    growing = iter([0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5])
    monkeypatch.setattr(
        "silt.quadrature.integrate_simplex_orders",
        lambda T, k, f, min_gap, orders, **kw: [
            1.0 if min_gap == 0.1 else next(growing) for _ in orders
        ],
    )
    argv = "diverge --k 2 --h1 zero --h2 zero --deltas 0.1,0.01".split()
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "silt: numerical failure: delta 0.01 not converged: last level difference 5.000e-06 "
        "grew from the difference before it\n"
    )


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gram", "--times", "0.2,0.5", "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"validation error: cannot write output file '{path}'" in err


def test_exit_3_says_why(capsys, monkeypatch):
    # each difference halves, but none meets tol
    estimates = iter([0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875])
    monkeypatch.setattr(
        "silt.quadrature.integrate_simplex_orders",
        lambda T, k, f, min_gap, orders, **kw: [next(estimates) for _ in orders],
    )
    code, out, err = run(capsys, "regularize", "--k", "2", "--h1", "sin:3", "--h2", "sin:3")
    assert code == 3
    assert json.loads(out)["result"]["converged"] is False
    assert err == (
        "silt: numerical failure: not converged: last level difference 3.125e-02 "
        "> tol*(1+|value|) = 1.969e-03\n"
    )
    monkeypatch.setattr(silt.cli, "schur_bound_check", lambda h, a: (2.0, 1.0, False))
    code, out, err = run(capsys, "schur", "--h", "const1")
    assert code == 3
    assert json.loads(out)["result"] == {"lhs": 2.0, "rhs": 1.0, "pass": False}
    assert err == "silt: numerical failure: Schur bound check failed: lhs 2.0 > rhs 1.0\n"


def test_exit_3_names_the_failed_stop_condition(capsys, monkeypatch):
    # every difference meets tol, but each is larger than the one before
    estimates = iter([0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5])
    monkeypatch.setattr(
        "silt.quadrature.integrate_simplex_orders",
        lambda T, k, f, min_gap, orders, **kw: [next(estimates) for _ in orders],
    )
    code, out, err = run(capsys, "regularize", "--k", "2", "--h1", "const1", "--h2", "const1")
    assert code == 3
    assert json.loads(out)["result"]["converged"] is False
    assert err == (
        "silt: numerical failure: not converged: last level difference 5.000e-06 grew from "
        "the difference before it\n"
    )


@pytest.mark.parametrize(
    "argv", ["berman --times 0,0.5", "pdecay --point --t1 0 --t2 0.5 --h const1"]
)
def test_t1_zero_exits_2_naming_t1(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2, err
    assert "validation error: t1 = 0.0" in err


def test_import_needs_only_numpy():
    # neither scipy nor numpy.polynomial: they would add to start-up time and memory;
    # nor the test extra's pytest and hypothesis
    src = str(Path(silt.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import silt; print(sorted("
        "{'scipy', 'numpy.polynomial', 'pytest', 'hypothesis'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nT = 1.0\nn = 128\n\n[model]\nspec = wiener\n")
    doc = run_json(capsys, "gram", "--config", str(cfg), "--times", "0.2,0.5,0.9")
    assert doc["config"]["n"] == 128
    # a flag overrides the file
    doc = run_json(
        capsys, "gram", "--config", str(cfg), "--grid-n", "64", "--times", "0.2,0.5,0.9"
    )
    assert doc["config"]["n"] == 64


def test_config_file_bad_key_reports_location(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nm = 128\n")
    code, out, err = run(capsys, "gram", "--config", str(cfg), "--times", "0.2,0.5")
    assert code == 2
    assert "grid" in err and "m" in err


def test_unknown_model_exits_2(capsys):
    code, out, err = run(capsys, "gram", "--model", "nope", "--times", "0.2,0.5")
    assert code == 2


def test_degenerate_tuple_exits_3(capsys):
    """No floor on the gaps: the Gram kernel's check alone refuses a tuple, here for
    its subnormal Gamma; Wiener gaps of 1e-13 and 1e-10 at 0.5 factor, with Gamma the
    product of the float gaps."""
    code, out, err = run(capsys, "gram", "--times", "0,1e-310,0.9")
    assert code == 3
    assert out == ""
    assert "numerical failure: degenerate tuple (0.0, 1e-310, 0.9)" in err
    for times in ([0.5, 0.5000000000001, 0.9], [0.5, 0.5000000001, 0.9]):
        doc = run_json(capsys, "gram", "--times", ",".join(map(str, times)))
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert doc["result"]["gamma"] == pytest.approx(math.prod(gaps), rel=1e-15, abs=0.0)


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run(
            capsys, "gram", "--times", "0.2,0.5,0.9", "--out", str(path)
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    assert "PASS perturbed:sl ||S|| = 2/3 < 1: 0.66667" in out
    assert "PASS perturbed:sl Gamma / closed-form Gram determinant = 1" in out
    assert "PASS perturbed:sl Gram entries = closed form" in out
    assert "9/9 selftest checks passed" in out


GRAM = ("gram", "--times", "0.2,0.5,0.9")
TRANSFORM = ("transform", "--times", "0.3,0.8", "--h1", "sin:1", "--h2", "zero")
REGULARIZE = ("regularize", "--k", "2", "--h1", "const1", "--h2", "const1")

# one row per run setting: a subcommand that reads it, INI section and key, config
# field, INI value and the value it gives, flag, flag value and the value it gives,
# and a value the setting's converter or choices reject (None for text settings,
# which take any string)
SETTINGS = [
    (GRAM, "grid", "T", "T", "2.0", 2.0, "--grid-T", "1.5", 1.5, "abc"),
    (GRAM, "grid", "n", "n", "64", 64, "--grid-n", "32", 32, "1.5"),
    (GRAM, "model", "spec", "model", "counterexample", "counterexample", "--model", "wiener",
     "wiener", None),
    (TRANSFORM + ("--mc", "1000"), "run", "seed", "seed", "7", 7, "--seed", "9", 9, "x"),
    (TRANSFORM, "run", "normalization", "normalization", "analytic", "analytic",
     "--normalization", "paper", "paper", "weird"),
    (REGULARIZE, "run", "levels", "levels", "3", 3, "--levels", "4", 4, "two"),
    (REGULARIZE + ("--levels", "3"), "run", "min_gap", "min_gap", "0.05", 0.05,
     "--min-gap", "0.01", 0.01, "small"),
    (GRAM, "run", "out", "out", "ini.json", "ini.json", "--out", "flag.json", "flag.json", None),
]


def _config(capsys, tmp_path, *argv):
    """The configuration echoed by a run in ``tmp_path``, and the name of the file
    it was written to (None for stdout)."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if out:
        return _echo(out), None
    (written,) = tmp_path.glob("*.json")
    text = written.read_text()
    written.unlink()
    return _echo(text), written.name


def _echo(text):
    if text.startswith("# silt"):
        return json.loads(text.splitlines()[1][len("# config "):])
    return json.loads(text)["config"]


@pytest.mark.parametrize("row", SETTINGS, ids=[f"{r[1]}.{r[2]}" for r in SETTINGS])
def test_every_config_setting(tmp_path, capsys, monkeypatch, row):
    argv, section, key, attr, ini, ini_value, flag, flag_arg, flag_value, bad = row
    monkeypatch.chdir(tmp_path)

    def value(*extra):
        config, written = _config(capsys, tmp_path, *argv, *extra)
        return written if attr == "out" else config[attr]

    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {ini}\n")
    assert value("--config", str(cfg)) == ini_value
    assert value("--config", str(cfg), flag, flag_arg) == flag_value
    # keys are case-insensitive
    cfg.write_text(f"[{section}]\n{key.swapcase()} = {ini}\n")
    assert value("--config", str(cfg)) == ini_value
    # section names are not
    cfg.write_text(f"[{section.upper()}]\n{key} = {ini}\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"unknown config key '{key.lower()}' in section [{section.upper()}]" in err
    if bad is not None:
        cfg.write_text(f"[{section}]\n{key} = {bad}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert f"validation error: bad value '{bad}' for {section}.{key.lower()} in" in err
        if attr not in READS["schur"]:
            # a known key that the subcommand does not read is not even converted
            code, out, err = run(capsys, *ARGV["schur"], "--config", str(cfg))
            assert code == 0, err


# the run settings each subcommand reads, its runnable argv, and for every setting a
# flag value and the value it gives; a subcommand that reads any setting takes --config
BUILD = {"model", "T", "n", "out"}
READS = {
    "gram": BUILD,
    "slnd": BUILD,
    "berman": BUILD,
    "pdecay": BUILD,
    "transform": BUILD | {"normalization", "seed"},
    "regularize": BUILD | {"levels", "min_gap"},
    "diverge": BUILD | {"normalization"},
    "schur": {"T", "n", "out"},
    "selftest": set(),
}
ARGV = {
    "gram": GRAM,
    "slnd": ("slnd", "--times", "0.2,0.5,0.9", "--subset", "1"),
    "berman": ("berman", "--times", "0.2,0.5,0.9"),
    "pdecay": ("pdecay", "--t1", "0.3", "--t2", "0.5", "--h", "const1"),
    "transform": TRANSFORM,
    "regularize": REGULARIZE,
    "diverge": ("diverge", "--k", "2", "--h1", "zero", "--h2", "zero", "--deltas", "0.1"),
    "schur": ("schur", "--h", "const1"),
    "selftest": ("selftest",),
}
FLAGS = {
    "model": ("--model", "counterexample", "counterexample"),
    "T": ("--grid-T", "2.0", 2.0),
    "n": ("--grid-n", "64", 64),
    "seed": ("--seed", "7", 7),
    "normalization": ("--normalization", "analytic", "analytic"),
    "levels": ("--levels", "3", 3),
    "min_gap": ("--min-gap", "0.01", 0.01),
    "out": ("--out", "x.json", "x.json"),
}
# every known INI key, set to the values above; each subcommand applies those it reads
ALL_KEYS_INI = """[grid]
T = 2.0
n = 64
[model]
spec = counterexample
[run]
seed = 7
normalization = analytic
levels = 3
min_gap = 0.01
out = x.json
"""


def _subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_the_parser_takes_exactly_the_settings_each_subcommand_reads():
    """Every setting has a row; each subcommand's parser takes the flags of the
    settings it reads, and --config if it reads any: 44 settable values in all."""
    settings = [f for f in dataclasses.fields(RunConfig) if f.metadata]
    assert {f.name for f in settings} == set(FLAGS)
    assert {f.name: f.metadata["flag"] for f in settings} == {k: v[0] for k, v in FLAGS.items()}
    parsers = _subparsers()
    assert set(parsers) == set(READS)
    known = {"--config"} | {flag for flag, _, _ in FLAGS.values()}
    taken = {}
    for name, p in parsers.items():
        taken[name] = known & {s for a in p._actions for s in a.option_strings}
        want = {FLAGS[attr][0] for attr in READS[name]} | ({"--config"} if READS[name] else set())
        assert taken[name] == want, name
    assert sum(map(len, taken.values())) == 44


def test_levels_help_names_the_orders():
    (levels,) = [a for a in _subparsers()["regularize"]._actions if a.dest == "levels"]
    assert levels.help == "most Gauss orders to try, of 4, 6, 9, 14, 21, 32 (3..6)"


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_echoes_what_it_reads_and_refuses_the_rest(
    tmp_path, capsys, monkeypatch, command
):
    """A flag a subcommand reads reaches its config echo, which holds exactly the
    settings it read (but the output path); any other setting flag exits 2; an INI
    file that sets every known key applies those it reads and ignores the others."""
    monkeypatch.chdir(tmp_path)
    argv, reads = ARGV[command], READS[command]
    if reads:
        config, written = _config(capsys, tmp_path, *argv)
        assert set(config) == reads - {"out"}
        for attr in sorted(reads):
            flag, arg, want = FLAGS[attr]
            config, written = _config(capsys, tmp_path, *argv, flag, arg)
            assert (written if attr == "out" else config[attr]) == want, flag
        (tmp_path / "all.ini").write_text(ALL_KEYS_INI)
        config, written = _config(capsys, tmp_path, *argv, "--config", "all.ini")
        assert written == "x.json"
        assert config == {attr: FLAGS[attr][2] for attr in reads - {"out"}}
    else:
        assert main(list(argv)) == 0
    refused = [FLAGS[attr][:2] for attr in sorted(set(FLAGS) - reads)]
    for flag, arg in refused + ([] if reads else [("--config", "all.ini")]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, arg])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {arg}" in capsys.readouterr().err


def run_csv(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == f"# silt {silt.__version__}"
    assert lines[1].startswith("# config {")
    return lines[2], [[float(x) for x in line.split(",")] for line in lines[3:]]


def test_berman_stat_and_scan(capsys):
    doc = run_json(capsys, "berman", "--times", "0.3,0.5,0.7")
    assert set(doc) == {"tool", "version", "config", "result"}
    assert set(doc["result"]) == {"stat"}
    assert 0.0 < doc["result"]["stat"] <= 1.0
    header, rows = run_csv(capsys, "berman", "--times", "0.3,0.5,0.7", "--scan", "0.01,0.001")
    assert header == "gap,value"
    assert [r[0] for r in rows] == [0.01, 0.001]
    assert all(0.0 < r[1] <= 1.0 for r in rows)


def test_slnd_scan(capsys):
    header, rows = run_csv(
        capsys, "slnd", "--times", "0.2,0.5,0.9", "--subset", "1", "--scan", "0.05,0.01"
    )
    assert header == "gap,value"
    assert [r[0] for r in rows] == [0.05, 0.01]
    # Wiener increments are independent: the ratio is 1 at gaps of several cells
    assert all(r[1] == pytest.approx(1.0, abs=1e-12) for r in rows)


@pytest.mark.parametrize("point", [False, True])
def test_pdecay_both_modes(capsys, point):
    argv = ["pdecay", "--t1", "0.3", "--t2", "0.5", "--h", "const1"] + ["--point"] * point
    header, rows = run_csv(capsys, *argv)
    assert header == "gap,value"
    assert len(rows) == 1
    # the gap is the increment's length: t2 - t1, or t1 for g(t1), the increment of (0, t1)
    assert rows[0][0] == pytest.approx(0.3 if point else 0.2, abs=1e-15)
    # Wiener, h = 1: |(1, dg)| / ||dg|| = sqrt(t2 - t1), and sqrt(t1) on g(t1)
    assert rows[0][1] == pytest.approx(math.sqrt(0.3 if point else 0.2), rel=1e-12)


@pytest.mark.parametrize("t2", [[], ["--t2", "0.1"]])
def test_pdecay_point_reads_no_t2(capsys, t2):
    """Under --point, --t2 is optional and not read: a t2 below t1 changes nothing."""
    header, rows = run_csv(capsys, "pdecay", "--point", "--t1", "0.3", "--h", "const1", *t2)
    assert header == "gap,value"
    assert rows[0][0] == 0.3 and rows[0][1] == pytest.approx(math.sqrt(0.3), rel=1e-12)


def test_transform_mc(capsys):
    doc = run_json(
        capsys, "transform", "--times", "0.3,0.8", "--h1", "sin:1", "--h2", "zero",
        "--mc", "20000", "--seed", "3",
    )
    result = doc["result"]
    assert set(result) == {"convention", "value", "stderr", "eps", "mode"}
    assert result["mode"] == "mc" and result["eps"] == 0.5 and result["convention"] == "paper"
    assert doc["config"]["seed"] == 3
    assert result["stderr"] > 0.0


def _readme_cli_lines():
    """The ``silt ...`` lines of the README's CLI code block, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_exits_zero(capsys, line):
    assert line[0] == "silt"
    code, _, err = run(capsys, *line[1:])
    assert code == 0, err


def test_readme_code_references_resolve():
    """Every backticked ``module.name`` in the README (``silt.`` prefix optional) whose
    module is a file of ``src/silt`` names an attribute that exists: a renamed, moved or
    deleted function leaves no stale reference behind."""
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem for p in (root / "src" / "silt").glob("*.py")} - {"__init__"}
    readme = (root / "README.md").read_text()
    refs = re.findall(r"`(?:silt\.)?(\w+)\.(\w+(?:\.\w+)*)`", readme)
    refs = [(mod, name) for mod, name in refs if mod in modules]
    assert len(refs) >= 5, refs
    stale = []
    for mod, name in refs:
        obj = importlib.import_module(f"silt.{mod}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            stale.append(f"{mod}.{name}")
    assert not stale, f"README names what src/silt does not define: {stale}"
