import ast
import builtins
import functools
import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from meshspectra import (
    ConvergenceError,
    MeshFamily,
    SweepAxis,
    SweepSpec,
    calibrate,
    emit_csv,
    emit_svg_loglog,
    run_sweep,
)
from meshspectra import bounds, cli, harness
from meshspectra.harness import CSV_COLUMNS, PLOT_COLUMNS


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

    for module, name in ((bounds, "calibrate"), (cli, "build_mesh"), (harness, "prepare")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], "--dim", "2", *argv[1:]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--family", "uniform", "--n", "256", "--tol", "0"),
     "tol must lie in (1e-14, 1e-2), got 0"),
    (("sweep", "--family", "bakhvalov", "--n", "256", "--axis", "eps", "--values", "0.2,0.1",
      "--tol", "0.5", "--out", "s"), "tol must lie in (1e-14, 1e-2), got 0.5"),
    # the sweep values set the swept setting: a fixed value for it would be ignored
    (("sweep", "--family", "shishkin", "--n", "16", "--axis", "eps", "--values", "0.2,0.1",
      "--eps", "0.05", "--out", "s"), "a sweep over 'eps' takes no fixed 'eps'"),
    (("sweep", "--family", "uniform", "--n", "16", "--axis", "n", "--values", "8,32",
      "--out", "s"), "a sweep over 'n' takes no fixed 'n'"),
    (("sweep", "--family", "power", "--n", "16", "--beta", "3", "--axis", "beta",
      "--values", "1,2", "--out", "s"), "a sweep over 'beta' takes no fixed 'beta'"),
])
def test_refused_setting_exits_1_before_any_work(argv, message, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the settings were checked")

    for module, name in ((bounds, "calibrate"), (cli, "build_mesh"), (harness, "prepare"),
                         (harness, "run_sweep")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], "--dim", "2", *argv[1:]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, flags, key", [
    (None, ("--family", "uniform", "--axis", "n", "--values", "4,8", "--out", "s"), "dim"),
    ("dim = 2\nfamily = uniform\naxis = n\nvalues = 4, 8\n", (), "out"),
], ids=["no-dim-flag", "config-without-out"])
def test_sweep_without_a_required_setting_exits_1(config, flags, key, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "sweep.conf").write_text(config)
        flags = ("--config", "sweep.conf", *flags)
    assert run_cli("sweep", *flags) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"meshspectra: missing required setting '{key}' (flag or config)"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["sweep.conf"])


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
    def boom(spec):
        raise ConvergenceError("sweep point n=8 did not converge: stalled")

    monkeypatch.setattr(harness, "run_sweep", boom)
    code = run_cli(
        "sweep", "--dim", "2", "--family", "uniform", "--axis", "n",
        "--values", "4,8", "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_bakhvalov_eps_below_rounding_exits_1_with_one_line(capsys):
    # log1p(-1) would warn, then the transition would be inf (any warning fails the test)
    assert run_cli("analyze", "--dim", "2", "--family", "bakhvalov", "--n", "64",
                   "--eps", "1e-17") == 1
    assert capsys.readouterr().err.splitlines() == [
        "meshspectra: eps=1e-17 is too small for bakhvalov grading: 1 - eps rounds to 1"
    ]


def test_sweep_point_with_underflowed_cells_exits_1_with_one_line(tmp_path, capsys):
    # eps=1e-300 makes the corner cells' volume 0; patch_stats refuses the point
    # before it divides by it (any numpy warning fails the test)
    out = tmp_path / "tiny"
    assert run_cli("sweep", "--dim", "2", "--family", "shishkin", "--n", "16", "--axis", "eps",
                   "--values", "0.2,1e-300", "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["meshspectra: sweep point eps=1e-300: smallest cell volume 0 is below "
                   "2.22507e-308: the mesh is degenerate or too fine for double precision"]
    assert not out.with_name("tiny.csv").exists()


def test_sweep_point_refused_by_assembly_names_the_point(tmp_path, monkeypatch, capsys):
    # eps=1e-150 passes patch_stats but assemble refuses its flattened corner
    # cells, before the eps=0.2 point is solved
    import meshspectra.harness as hz

    solved = []
    monkeypatch.setattr(hz, "lambda_min_sparse", lambda *args, **kwargs: solved.append(args))
    out = tmp_path / "flat"
    assert run_cli("sweep", "--dim", "2", "--family", "shishkin", "--n", "16", "--axis", "eps",
                   "--values", "0.2,1e-150", "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "meshspectra: sweep point eps=1e-150: "
        "degenerate simplex (det 4.33e-152 vs edge scale 0.0156)"
    ]
    assert not out.with_name("flat.csv").exists()
    assert solved == []


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


def no_calibration(*args, **kwargs):
    raise AssertionError("analyze calibrated before it checked its mesh")


def test_analyze_refuses_a_degenerate_mesh_before_calibrating(monkeypatch, capsys):
    # eps=1e-300 makes the corner cells' volume 0; patch_stats refuses the mesh
    monkeypatch.setattr(bounds, "calibrate", no_calibration)
    assert run_cli("analyze", "--dim", "2", "--family", "shishkin", "--n", "8",
                   "--eps", "1e-300") == 1
    assert capsys.readouterr().err.splitlines() == [
        "meshspectra: smallest cell volume 0 is below 2.22507e-308: "
        "the mesh is degenerate or too fine for double precision"
    ]


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
    if argv[0] == "analyze":
        # the refused mesh costs no calibration
        monkeypatch.setattr(bounds, "calibrate", no_calibration)
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
        family=MeshFamily.UNIFORM,
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


@pytest.mark.parametrize("lines, message", [
    ("family = tetra", "argument --family: invalid choice: 'tetra'"),
    ("family = uniform\ntol = abc", "argument --tol: invalid float value: 'abc'"),
    ("family = uniform\ntol = 0.5", "tol must lie in (1e-14, 1e-2), got 0.5"),
    ("family = uniform\nn = 16", "a sweep over 'n' takes no fixed 'n'"),
    ("family = uniform\nnormalize = maybe", "argument --normalize: cannot read 'maybe'"),
])
def test_sweep_config_value_is_checked_as_its_flag(lines, message, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep started before its settings were checked")

    monkeypatch.setattr(harness, "run_sweep", no_work)
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"dim = 2\naxis = n\nvalues = 8, 16\nout = {tmp_path / 'c'}\n{lines}\n")
    assert run_cli("sweep", "--config", str(conf)) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# each case sets every key of one sweep; together they set every sweep setting
@pytest.mark.parametrize("config, flags", [
    ("dim = 2\nfamily = shishkin\nn = 16\nc_sigma = 1.5\nlayer = internal\naxis = eps\n"
     "values = 0.1, 0.05\ntol = 1e-9\nref = 8\nnormalize = true\n",
     ("--dim", "2", "--family", "shishkin", "--n", "16", "--c-sigma", "1.5", "--layer", "internal",
      "--axis", "eps", "--values", "0.1,0.05", "--tol", "1e-9", "--ref", "8", "--normalize")),
    ("dim = 2\nfamily = bakhvalov\neps = 0.05\nc_sigma = 0.5\nlayer = boundary\naxis = n\n"
     "values = 8, 16\ntol = 1e-9\nref = 8\nnormalize = false\n",
     ("--dim", "2", "--family", "bakhvalov", "--eps", "0.05", "--c-sigma", "0.5", "--layer",
      "boundary", "--axis", "n", "--values", "8,16", "--tol", "1e-9", "--ref", "8",
      "--normalize=false")),
    ("dim = 2\nfamily = power\nbeta = 2.5\naxis = n\nvalues = 4, 8\nref = 8\n",
     ("--dim", "2", "--family", "power", "--beta", "2.5", "--axis", "n", "--values", "4,8",
      "--ref", "8")),
], ids=["eps-sweep", "n-sweep", "beta"])
def test_sweep_config_writes_the_bytes_of_the_same_flags(config, flags, tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(config + f"out = {tmp_path / 'config'}\n")
    assert run_cli("sweep", "--config", str(conf)) == 0
    assert run_cli("sweep", *flags, "--out", str(tmp_path / "flags")) == 0
    for ext in ("csv", "svg"):
        assert (tmp_path / f"config.{ext}").read_bytes() == (tmp_path / f"flags.{ext}").read_bytes()


def test_sweep_normalize_flag_and_config(tmp_path):
    sweep = ("sweep", "--dim", "2", "--family", "uniform", "--axis", "n", "--values", "4,8",
             "--ref", "8")
    for name, extra in (("flag", ["--normalize"]), ("false", ["--normalize=false"]), ("off", [])):
        assert run_cli(*sweep, *extra, "--out", str(tmp_path / name)) == 0
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"normalize = true\nout = {tmp_path / 'config'}\n")
    assert run_cli(*sweep, "--config", str(conf)) == 0
    spec = SweepSpec(dim=2, family=MeshFamily.UNIFORM, axis=SweepAxis.N,
                     values=(4.0, 8.0), calibration_ref=8)
    emit_svg_loglog(run_sweep(spec), list(PLOT_COLUMNS), tmp_path / "direct.svg", normalize=True)
    svg = {p.stem: p.read_bytes() for p in tmp_path.glob("*.svg")}
    assert svg["flag"] == svg["config"] == svg["direct"]
    assert svg["false"] == svg["off"] != svg["flag"]


@pytest.mark.parametrize("flags, message", [
    (("--family", "bakhvalov", "--n", "128", "--axis", "eps", "--values", "0.01,1.5"),
     "eps must lie in (0, 1), got 1.5"),
    (("--family", "shishkin", "--axis", "n", "--values", "64,65"),
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
    (("--family", "bakhvalov", "--n", "64", "--axis", "eps", "--values", "0.2,1e-17"),
     "eps=1e-17 is too small for bakhvalov grading"),
    # 1 - x_1 rounds onto 1.0 at the cap
    (("--family", "power", "--n", "256", "--axis", "beta", "--values", "2,8"),
     "beta=8 is too large for power grading at n=256"),
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


# ---------------------------------------------------------------- imports


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this checkout's package;
    return the finished process (stdout and stderr as text) and the sorted
    names of the package modules loaded when the code ended."""
    import meshspectra

    src = os.path.dirname(os.path.dirname(meshspectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    report = ("\nimport sys; print(*sorted(m for m in sys.modules "
              "if m.partition('.')[0] == 'meshspectra'), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code + report, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out, out.stderr.splitlines()[-1].split()


# the exit code and every loaded scipy module, as the last line of stderr
# before the package modules
_RUN_MAIN = ("import sys; from meshspectra import cli; code = cli.main(sys.argv[1:]); "
             "print(code, *sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)")


def _main_in_fresh_python(*argv):
    """Exit code, stdout, loaded scipy modules and loaded package modules of
    one command run in a new interpreter."""
    out, package = _fresh_python(_RUN_MAIN, *argv)
    code, *loaded = out.stderr.splitlines()[-2].split()
    return int(code), out.stdout, loaded, package


# what importing the CLI loads; each command imports the layers it runs
_CLI_IMPORT = ["meshspectra", "meshspectra.cli", "meshspectra.meshgen"]
_EVERY_LAYER = sorted(_CLI_IMPORT + [f"meshspectra.{m}" for m in
                                     ("bounds", "fem", "harness", "spectra")])


@functools.lru_cache(maxsize=None)
def _cli_import():
    """The scipy modules and the package modules that importing the CLI loads,
    from one new interpreter shared by the tests below."""
    out, package = _fresh_python("import sys, meshspectra.cli; "
                                 "print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    return out.stdout.split(), package


def test_importing_the_cli_loads_no_dense_or_iterative_solver():
    # every command pays for what importing the CLI loads; the package needs
    # neither module, which together with scipy.sparse about triple the import time
    scipy, _ = _cli_import()
    assert [m for m in scipy if m in ("scipy.linalg", "scipy.sparse.linalg")] == []


def test_importing_the_cli_loads_no_scipy():
    # scipy.sparse alone costs more than the rest of the import; only assembly
    # and the multigrid build load it
    scipy, _ = _cli_import()
    assert scipy == []


def test_importing_the_cli_loads_the_mesh_layer_only():
    assert _cli_import()[1] == _CLI_IMPORT


def _module_scope_names(tree: ast.Module) -> set[str]:
    """Every name a module binds at its top level: defs, classes, imports and
    assignment targets, also under an if (TYPE_CHECKING) or a try."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
            continue
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in a module: arguments, returns and
    annotated assignments, at any depth; a quoted one is parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_every_annotation_name_is_bound_in_its_module():
    # annotations are not evaluated (from __future__ import annotations), so a
    # name that only a function imports, such as scipy.sparse as sp, goes
    # unnoticed until a type checker reads it; a module binds such a name
    # under TYPE_CHECKING, which keeps its import lazy
    import meshspectra

    unbound = []
    for path in sorted(pathlib.Path(meshspectra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _module_scope_names(tree) | set(dir(builtins))
        for annotation in _annotations(tree):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                annotation = ast.parse(annotation.value, mode="eval")
            unbound += [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(annotation)
                        if isinstance(node, ast.Name) and node.id not in bound]
    assert unbound == []


@pytest.mark.parametrize("argv, package", [
    (("mesh", "--dim", "3", "--family", "power", "--n", "4", "--beta", "3"), _CLI_IMPORT),
    (("calibrate", "--dim", "2", "--ref", "8"), sorted(_CLI_IMPORT + ["meshspectra.bounds"])),
    (("analyze", "--dim", "2", "--family", "uniform", "--n", "4", "--ref", "8"), _EVERY_LAYER),
    (("sweep", "--dim", "2", "--family", "uniform", "--axis", "n", "--values", "4,8",
      "--ref", "8"), _EVERY_LAYER),
], ids=["mesh", "calibrate", "analyze", "sweep"])
def test_each_command_loads_the_layers_it_runs(argv, package, tmp_path):
    if argv[0] in ("mesh", "sweep"):
        argv += ("--out", str(tmp_path / "out"))
    code, _, _, loaded = _main_in_fresh_python(*argv)
    assert code == 0
    assert loaded == package


def test_every_public_name_resolves_and_is_listed():
    import meshspectra

    listed = dir(meshspectra)
    for name in meshspectra.__all__:
        assert name in listed
        assert getattr(meshspectra, name) is not None
    assert len(set(meshspectra.__all__)) == len(meshspectra.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        meshspectra.no_such_name


@pytest.mark.parametrize("argv", [
    ("mesh", "--dim", "3", "--family", "power", "--n", "4", "--beta", "3"),
    ("calibrate", "--dim", "3"),
], ids=["mesh", "calibrate"])
def test_commands_that_build_no_matrix_never_load_scipy(argv, tmp_path):
    if argv[0] == "mesh":
        argv += ("--out", str(tmp_path / "mesh.txt"))
    code, _, loaded, _ = _main_in_fresh_python(*argv)
    assert code == 0
    assert loaded == []


def test_analyze_loads_scipy_sparse_and_prints_the_same_table(capsys):
    # this point switches to the multigrid preconditioner, so the hierarchy is
    # built, but no dense or iterative solver (scipy.linalg,
    # scipy.sparse.linalg: 8.5 MB of peak RSS) is loaded; the table matches
    # this process's, which loaded scipy up front
    argv = ("analyze", "--dim", "2", "--family", "bakhvalov", "--n", "32", "--eps", "0.01")
    code, stdout, loaded, _ = _main_in_fresh_python(*argv)
    assert code == 0
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))] == []
    assert run_cli(*argv) == 0
    assert stdout == capsys.readouterr().out


# SHA-256 of the help text of the CLI and of each subcommand, at 80 columns;
# the parser is built from the mesh layer alone, and must print what it
# printed when it was built from every layer
HELP_DIGESTS = {
    "": "555f4cca72dab3c624df5da67703110d35f24b2d3fd97aa5d8bb1869577fdcc1",
    "mesh": "ddf2fd3b6b1749d9087cf1ff34e7196e0aa56e3414368da7a4bfcfa6d07b410d",
    "analyze": "a9d5abeba289771015634fe27977d4edb3103f250bf0c8b0c825703f4ca5404f",
    "sweep": "5d1d1b24edf22b2e9fa580f317a9b68caf18f0a67e9bc22f8ec204438d158e55",
    "calibrate": "51284f845be82a817e9d8d0800ae19b35ab6dbe73f1cc0f66e0764805dcde1da",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently across Python versions; "
                           "the digests are of the 3.11 layout that CI runs")
@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "meshspectra")
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*filter(None, [command]), "--help") == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command]
