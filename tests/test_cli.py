import math

import numpy as np
import pytest

from meshspectra import (
    ConvergenceError,
    GradingParams,
    MeshFamily,
    SweepAxis,
    SweepSpec,
    calibrate,
    emit_csv,
    run_sweep,
)
from meshspectra import cli
from meshspectra.harness import CSV_COLUMNS


def run_cli(*argv):
    return cli.main(list(argv))


def table_from_stdout(captured):
    pairs = {}
    for line in captured.splitlines():
        if not line or line.startswith(("wrote", "sweep:", "mesh:")):
            continue
        key, value = line.split(None, 1)
        pairs[key] = value.strip()
    return pairs


# -------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error(capsys):
    assert run_cli() == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("calibrate", "--dim", "2", "--wat") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_invalid_grading_parameters_exit_1(capsys):
    code = run_cli(
        "mesh", "--dim", "2", "--family", "shishkin", "--n", "8", "--eps", "1.5",
        "--out", "/tmp/never-written.txt",
    )
    assert code == 1
    assert "meshspectra:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--family", "power", "--n", "16", "--eps", "0.3", "--c-sigma", "2"),
     "power grading does not depend on eps"),
    (("analyze", "--family", "shishkin", "--n", "16", "--beta", "2"),
     "shishkin grading does not depend on beta"),
    (("mesh", "--family", "single_layer", "--n", "16", "--c-sigma", "2", "--out", "m.txt"),
     "single_layer grading does not depend on c_sigma"),
    (("mesh", "--family", "uniform", "--n", "16", "--eps", "0.1", "--out", "m.txt"),
     "uniform grading does not depend on eps"),
])
def test_unread_grading_flag_exits_1_before_any_work(
    argv, message, tmp_path, monkeypatch, capsys
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grading flags were checked")

    for name in ("calibrate", "build_mesh"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], "--dim", "2", *argv[1:]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unread_grading_key_in_config_exits_1(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "dim = 2\nfamily = power\naxis = n\nvalues = 8, 16\n"
        f"out = {tmp_path / 'c'}\neps = 0.05\n"
    )
    assert run_cli("sweep", "--config", str(conf)) == 1
    assert "power grading does not depend on eps" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_missing_config_file_exits_2(capsys):
    assert run_cli("sweep", "--config", "/nonexistent/sweep.conf") == 2
    assert "meshspectra:" in capsys.readouterr().err


def test_convergence_failure_exits_2(monkeypatch, capsys, tmp_path):
    def boom(spec, measure_time=False):
        raise ConvergenceError("sweep point n=8 did not converge: stalled")

    monkeypatch.setattr(cli, "run_sweep", boom)
    code = run_cli(
        "sweep", "--dim", "2", "--family", "uniform", "--axis", "n",
        "--values", "4,8", "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# -------------------------------------------------------------------- mesh


def test_mesh_command_writes_file(tmp_path, capsys):
    out = tmp_path / "meshes" / "u4.txt"
    code = run_cli("mesh", "--dim", "2", "--family", "uniform", "--n", "4", "--out", str(out))
    assert code == 0
    head = out.read_text().splitlines()[0].split()
    assert head == ["2", "25", "32"]
    assert "free=9" in capsys.readouterr().out


# ----------------------------------------------------------------- analyze


def test_analyze_fixed_point_table(capsys):
    code = run_cli(
        "analyze", "--dim", "2", "--family", "uniform", "--n", "8", "--ref", "8",
        "--tol", "1e-10",
    )
    assert code == 0
    pairs = table_from_stdout(capsys.readouterr().out)
    lam = float(pairs["lambda_exact"])
    expect = 8.0 * math.sin(math.pi / 16.0) ** 2
    assert abs(lam - expect) <= 1e-8 * expect
    # calibrating on the analyzed mesh itself makes every estimate exact
    for key in ("lambda_new", "lambda_gm", "lambda_khx"):
        assert abs(float(pairs[key]) - lam) <= 1e-10 * lam
    assert pairs["n_free"] == "49"
    assert pairs["M"] == "6"


def test_analyze_optional_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli(
        "analyze", "--dim", "2", "--family", "power", "--n", "8", "--beta", "2",
        "--ref", "8", "--csv", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param,n_free,lambda_exact")
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 8.0


def test_analyze_and_sweep_write_the_same_record(tmp_path, capsys):
    point = ["--dim", "2", "--family", "power", "--beta", "2", "--ref", "8"]
    report = tmp_path / "report.csv"
    assert run_cli("analyze", *point, "--n", "8", "--csv", str(report)) == 0
    table = table_from_stdout(capsys.readouterr().out)
    assert run_cli("sweep", *point, "--axis", "n", "--values", "4,8",
                   "--out", str(tmp_path / "sweep")) == 0
    analyzed = report.read_bytes().splitlines()
    swept = (tmp_path / "sweep.csv").read_bytes().splitlines()
    assert analyzed[0] == swept[0]
    assert analyzed[1] == swept[2]  # the n=8 point, byte for byte
    # the table lists the CSV columns between param and seconds, same values
    assert analyzed[0].decode().split(",") == list(CSV_COLUMNS)
    assert list(table)[3:] == list(CSV_COLUMNS[1:10])
    fields = dict(zip(CSV_COLUMNS, analyzed[1].decode().split(",")))
    for key in CSV_COLUMNS[1:10]:
        assert math.isclose(float(table[key]), float(fields[key]), rel_tol=1e-11)


@pytest.mark.parametrize(
    "argv",
    [
        ["mesh", "--family", "uniform", "--out", "never-written.txt"],
        ["analyze", "--family", "uniform"],
        ["calibrate"],
    ],
    ids=["mesh", "analyze", "calibrate"],
)
@pytest.mark.parametrize("dim, n, cap", [(2, 258, 256), (3, 17, 16)])
def test_mesh_size_cap_exits_1(argv, dim, n, cap, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    size = ["--ref" if argv[0] == "calibrate" else "--n", str(n)]
    assert run_cli(*argv, "--dim", str(dim), *size) == 1
    assert f"n={n} exceeds the {dim}D cap of {cap} intervals" in capsys.readouterr().err
    assert not (tmp_path / "never-written.txt").exists()


# --------------------------------------------------------------- calibrate


def test_calibrate_prints_and_stores(tmp_path, capsys):
    out = tmp_path / "cal.txt"
    code = run_cli("calibrate", "--dim", "2", "--ref", "8", "--out", str(out))
    assert code == 0
    pairs = table_from_stdout(capsys.readouterr().out)
    assert pairs["dim"] == "2" and pairs["n_ref"] == "8"

    stored = {}
    for line in out.read_text().splitlines():
        key, _, value = line.partition("=")
        stored[key.strip()] = value.strip()
    cal = calibrate(2, n_ref=8)
    assert float(stored["c_new"]) == cal.c_new  # %.17g round-trips
    assert float(stored["c_gm"]) == cal.c_gm
    assert float(stored["c_khx"]) == cal.c_khx


# ------------------------------------------------------------------- sweep


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    base = tmp_path / "runs" / "uniform"
    code = run_cli(
        "sweep", "--dim", "2", "--family", "uniform", "--axis", "n",
        "--values", "4,8", "--ref", "8", "--out", str(base),
    )
    assert code == 0
    csv_path = base.with_name("uniform.csv")
    svg_path = base.with_name("uniform.svg")
    assert csv_path.exists() and svg_path.exists()
    assert "2 points" in capsys.readouterr().out

    spec = SweepSpec(
        dim=2,
        base=GradingParams(MeshFamily.UNIFORM, 8),
        axis=SweepAxis.N,
        values=(4.0, 8.0),
        calibration_ref=8,
    )
    direct = tmp_path / "direct.csv"
    emit_csv(run_sweep(spec), direct)
    assert csv_path.read_bytes() == direct.read_bytes()


def test_sweep_repeat_invocations_byte_identical(tmp_path):
    args = [
        "sweep", "--dim", "2", "--family", "shishkin", "--eps", "0.1", "--axis", "n",
        "--values", "4,8", "--ref", "8",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_sweep_from_config_with_flag_override(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "# comment line\n"
        "dim = 2\n"
        "family = uniform\n"
        "axis = n\n"
        "values = 4, 8\n"
        "ref = 8\n"
        f"out = {tmp_path / 'from-config'}\n"
    )
    assert run_cli("sweep", "--config", str(conf)) == 0
    lines = (tmp_path / "from-config.csv").read_text().splitlines()
    assert len(lines) == 3

    # flags win over config settings
    assert run_cli("sweep", "--config", str(conf), "--values", "8,16",
                   "--out", str(tmp_path / "over")) == 0
    lines = (tmp_path / "over.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "8"
    assert lines[2].split(",")[0] == "16"


def test_sweep_eps_axis_requires_fixed_n(tmp_path, capsys):
    code = run_cli(
        "sweep", "--dim", "2", "--family", "shishkin", "--axis", "eps",
        "--values", "0.2,0.1", "--out", str(tmp_path / "e"),
    )
    assert code == 1
    assert "fixed mesh size" in capsys.readouterr().err


def test_sweep_rejects_one_value_before_solving(tmp_path, capsys):
    out = tmp_path / "X"
    code = run_cli(
        "sweep", "--dim", "2", "--family", "uniform", "--axis", "n",
        "--values", "16", "--out", str(out),
    )
    assert code == 1
    assert "at least 2 values" in capsys.readouterr().err
    assert not out.with_name("X.csv").exists()
    assert not out.with_name("X.svg").exists()


def test_sweep_rejects_malformed_config(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("dim 2\n")
    assert run_cli("sweep", "--config", str(conf)) == 1
    assert "expected 'key = value'" in capsys.readouterr().err


def test_sweep_rejects_unparseable_values(tmp_path, capsys):
    code = run_cli(
        "sweep", "--dim", "2", "--family", "uniform", "--axis", "n",
        "--values", "4,abc", "--out", str(tmp_path / "v"),
    )
    assert code == 1


@pytest.mark.parametrize("bad_line, message", [
    ("bata = 4.0", "unknown key 'bata'"),
    ("dim = 3", "repeated key 'dim'"),
])
def test_sweep_rejects_unknown_or_repeated_config_key(bad_line, message, tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "dim = 2\nfamily = power\naxis = n\nvalues = 4, 8\n"
        f"out = {tmp_path / 'k'}\n{bad_line}\n"
    )
    assert run_cli("sweep", "--config", str(conf)) == 1
    assert f"{conf}:6: {message}" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (("--family", "bakhvalov", "--n", "128", "--axis", "eps", "--values", "0.01,1.5"),
     "eps must lie in (0, 1), got 1.5"),
    (("--family", "shishkin", "--n", "64", "--axis", "n", "--values", "64,65"),
     "n must be even, got 65"),
    (("--family", "shishkin", "--layer", "internal", "--axis", "n", "--values", "64,66"),
     "needs n divisible by 4, got 66"),
    (("--family", "uniform", "--axis", "n", "--values", "8,inf"),
     "mesh sizes must be integers, got inf"),
    (("--family", "shishkin", "--c-sigma", "nan", "--axis", "n", "--values", "8,16"),
     "c_sigma must be positive, got nan"),
    (("--family", "power", "--beta", "nan", "--axis", "n", "--values", "8,16"),
     "beta must be >= 1, got nan"),
    # an axis the family's nodes do not read: every point would be the same mesh
    (("--family", "uniform", "--n", "32", "--axis", "eps", "--values", "0.2,0.1"),
     "uniform grading does not depend on eps"),
    (("--family", "uniform", "--n", "32", "--axis", "beta", "--values", "1,2"),
     "uniform grading does not depend on beta"),
    (("--family", "shishkin", "--n", "32", "--axis", "beta", "--values", "1,2"),
     "shishkin grading does not depend on beta"),
    (("--family", "bakhvalov", "--n", "32", "--axis", "beta", "--values", "1,2"),
     "bakhvalov grading does not depend on beta"),
    (("--family", "single_layer", "--n", "32", "--axis", "beta", "--values", "1,2"),
     "single_layer grading does not depend on beta"),
    (("--family", "power", "--n", "32", "--axis", "eps", "--values", "0.2,0.1,0.05"),
     "power grading does not depend on eps"),
    (("--family", "power", "--c-sigma", "2", "--axis", "n", "--values", "8,16"),
     "power grading does not depend on c_sigma"),
    # the Shishkin transition clamps to 1 at both values: the same uniform mesh twice
    (("--family", "shishkin", "--n", "8", "--axis", "eps", "--values", "0.9,0.6"),
     "eps=0.9 and eps=0.6 build the same mesh"),
])
def test_sweep_rejects_bad_point_before_solving(flags, message, tmp_path, monkeypatch, capsys):
    import meshspectra.harness as hz

    def no_solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved before the spec was checked")

    monkeypatch.setattr(hz, "lambda_min_sparse", no_solve)
    out = tmp_path / "B"
    assert run_cli("sweep", "--dim", "2", *flags, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.with_name("B.csv").exists()
