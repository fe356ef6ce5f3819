import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import silt
from silt.cli import main


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
    CLI's lattice and at a smaller one; the two-cell rows read 5.9% high."""
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
    "regularize --k 2 --h1 const1 --h2 const1 --levels 7": "levels must lie in 2..6, got 7",
    "schur --h const1 --a -0.5": "left endpoint a=-0.5 must lie in [0, T=1.0)",
    "schur --h const1 --a=-inf": "left endpoint a=-inf must lie in [0, T=1.0)",
    # a value after a space that starts with - and is not a plain negative number
    "schur --h const1 --a -inf": "left endpoint a=-inf must lie in [0, T=1.0)",
    "pdecay --t1 -1e-3 --t2 0.5 --h const1": "model time -0.001 outside [0, 1.0]",
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
        "regularize --k 2 --h1 const1 --h2 const1 --levels 2 --min-gap nan",
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
        "transform --times 0.3,0.8 --h1 sin:1 --h2 zero --eps -inf",
        "regularize --k 2 --h1 const1 --h2 const1 --levels 7",
    ],
)
def test_non_finite_or_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "h_nan.csv").write_text("node,value\n0.25,1.0\n0.75,nan\n")
    (tmp_path / "kernel_nan.csv").write_text("0.25,0.25,nan\n")
    (tmp_path / "node_nan.csv").write_text("nan,0.25,0.5\n")
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


@pytest.mark.parametrize(
    "flags, min_gap",
    [
        ("--k 2 --grid-n 3", 2 / 3),
        ("--k 2 --grid-n 4", 0.5),
        ("--k 2 --min-gap 0.6", 0.6),
        ("--k 3 --min-gap 0.34", 0.34),
        ("--k 4 --min-gap 0.25", 0.25),
    ],
)
def test_closure_lattice_with_no_row_exits_2(capsys, flags, min_gap):
    """k gaps of min_gap fill T: the closure keeps no lattice row, which would sum
    to a false converged 0."""
    argv = f"regularize {flags} --h1 const1 --h2 const1".split()
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    k = argv[2]
    assert f"a k={k} closure needs k*min_gap < T, got min_gap {min_gap}, T 1.0" in err


@pytest.mark.parametrize("flags", ["--k 2 --grid-n 5", "--k 3 --min-gap 0.33"])
def test_closure_lattice_with_a_row_runs(capsys, flags):
    doc = run_json(capsys, *f"regularize {flags} --h1 const1 --h2 const1".split())
    assert doc["result"]["converged"] and doc["result"]["value"] > 0


@pytest.mark.parametrize("k", [0, 1, 5])
def test_diverge_k_outside_the_lattice_rule_exits_2(capsys, monkeypatch, k):
    # k = 5 would build a lattice of about 384^4 rows: no lattice may be built
    def no_lattice(*args, **kwargs):
        raise AssertionError("gap_lattice called")

    monkeypatch.setattr(silt.quadrature, "gap_lattice", no_lattice)
    argv = f"diverge --k {k} --h1 zero --h2 zero --deltas 0.1".split()
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert f"validation error: multiplicity k must be 2, 3 or 4, got {k}" in err


def test_diverge_k4_at_the_cli_lattice_exits_2(capsys, monkeypatch):
    # 384 points per gap make 384^3 = 56.6 M gap rows: refused before any node is made
    def no_nodes(*args, **kwargs):
        raise AssertionError("gauss_legendre called")

    monkeypatch.setattr(silt.quadrature, "gauss_legendre", no_nodes)
    argv = "diverge --k 4 --h1 zero --h2 zero --deltas 0.1".split()
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert (
        "validation error: a k=4 lattice with 384 points per gap has up to 56623104 gap rows, "
        "above the limit of 1000000" in err
    )


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gram", "--times", "0.2,0.5", "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"validation error: cannot write output file '{path}'" in err


def test_exit_3_says_why(capsys, monkeypatch):
    argv = ("regularize", "--k", "3", "--h1", "const1", "--h2", "const1", "--levels", "2")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["result"]["converged"] is False
    (line,) = err.splitlines()
    assert line.startswith("silt: numerical failure: not converged: last level difference ")
    assert "> tol*(1+|value|) = " in line
    monkeypatch.setattr(silt.cli, "schur_bound_check", lambda h, a: (2.0, 1.0, False))
    code, out, err = run(capsys, "schur", "--h", "const1")
    assert code == 3
    assert json.loads(out)["result"] == {"lhs": 2.0, "rhs": 1.0, "pass": False}
    assert err == "silt: numerical failure: Schur bound check failed: lhs 2.0 > rhs 1.0\n"


def test_exit_3_names_the_failed_stop_condition(capsys, monkeypatch):
    # zero shifts: every estimate is 0, so the lone difference meets tol
    argv = ("regularize", "--k", "2", "--h1", "zero", "--h2", "zero", "--levels", "2")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["result"]["error_estimate"] == 0.0
    assert err == (
        "silt: numerical failure: not converged: last level difference 0.000e+00 is the only "
        "one, and a lone difference is not trusted (levels >= 3)\n"
    )
    estimates = iter([0.0, 1e-6, 3e-6, 6e-6, 1e-5, 1.5e-5])
    monkeypatch.setattr(
        "silt.regularization.integrate_simplex_orders",
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
    # neither scipy nor numpy.polynomial: they would add to start-up time and memory
    src = str(Path(silt.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import silt; "
        "print(sorted({'scipy', 'numpy.polynomial'} & set(sys.modules)))"
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
    code, out, err = run(capsys, "gram", "--times", "0.5,0.500000001,0.9")
    # gap below TimeTuple min_gap -> validation (2); truly degenerate Gram -> 3
    assert code in (2, 3)


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


# one row per run setting: INI section and key, config field, INI value and the
# value it gives, flag, flag value and the value it gives, and a value the
# setting's converter or choices reject (None for text settings, which take any string)
SETTINGS = [
    ("grid", "T", "T", "2.0", 2.0, "--grid-T", "1.5", 1.5, "abc"),
    ("grid", "n", "n", "64", 64, "--grid-n", "32", 32, "1.5"),
    ("model", "spec", "model", "counterexample", "counterexample", "--model", "wiener", "wiener", None),
    ("run", "seed", "seed", "7", 7, "--seed", "9", 9, "x"),
    ("run", "normalization", "normalization", "analytic", "analytic",
     "--normalization", "paper", "paper", "weird"),
    ("run", "levels", "levels", "3", 3, "--levels", "4", 4, "two"),
    ("run", "min_gap", "min_gap", "0.05", 0.05, "--min-gap", "0.01", 0.01, "small"),
    ("run", "out", "out", "ini.json", "ini.json", "--out", "flag.json", "flag.json", None),
]
GRAM = ("gram", "--times", "0.2,0.5,0.9")


def _setting_value(capsys, tmp_path, attr, *argv):
    """The value of one setting in the effective configuration of a gram run."""
    code, out, err = run(capsys, *GRAM, *argv)
    assert code == 0, err
    if attr != "out":
        return json.loads(out)["config"][attr]
    assert out == ""
    (written,) = tmp_path.glob("*.json")
    written.unlink()
    return written.name


@pytest.mark.parametrize("row", SETTINGS, ids=[f"{r[0]}.{r[1]}" for r in SETTINGS])
def test_every_config_setting(tmp_path, capsys, monkeypatch, row):
    section, key, attr, ini, ini_value, flag, flag_arg, flag_value, bad = row
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {ini}\n")
    assert _setting_value(capsys, tmp_path, attr, "--config", str(cfg)) == ini_value
    assert _setting_value(capsys, tmp_path, attr, "--config", str(cfg), flag, flag_arg) == flag_value
    # keys are case-insensitive
    cfg.write_text(f"[{section}]\n{key.swapcase()} = {ini}\n")
    assert _setting_value(capsys, tmp_path, attr, "--config", str(cfg)) == ini_value
    # section names are not
    cfg.write_text(f"[{section.upper()}]\n{key} = {ini}\n")
    code, out, err = run(capsys, *GRAM, "--config", str(cfg))
    assert code == 2
    assert f"unknown config key '{key.lower()}' in section [{section.upper()}]" in err
    if bad is not None:
        cfg.write_text(f"[{section}]\n{key} = {bad}\n")
        code, out, err = run(capsys, *GRAM, "--config", str(cfg))
        assert code == 2
        assert f"validation error: bad value '{bad}' for {section}.{key.lower()} in" in err


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
    assert rows[0][0] == pytest.approx(0.2, abs=1e-15)
    # Wiener, h = 1: |(1, dg)| / ||dg|| = sqrt(t2 - t1), and sqrt(t1) on g(t1)
    assert rows[0][1] == pytest.approx(math.sqrt(0.3 if point else 0.2), rel=1e-12)


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
