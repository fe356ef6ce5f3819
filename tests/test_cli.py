import json
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
    ],
)
def test_non_finite_or_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "h_nan.csv").write_text("node,value\n0.25,1.0\n0.75,nan\n")
    (tmp_path / "kernel_nan.csv").write_text("0.25,0.25,nan\n")
    (tmp_path / "node_nan.csv").write_text("nan,0.25,0.5\n")
    code, out, err = run(capsys, *argv.format(dir=tmp_path).split())
    assert code == 2, err
    assert "validation error" in err


@pytest.mark.parametrize(
    "argv", ["berman --times 0,0.5", "pdecay --point --t1 0 --t2 0.5 --h const1"]
)
def test_t1_zero_exits_2_naming_t1(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2, err
    assert "validation error: t1 = 0.0" in err


def test_import_needs_only_numpy():
    src = str(Path(silt.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import silt; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    assert "selftest checks passed" in out
