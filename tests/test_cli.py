"""CLI driver tests (via ``main(argv)``, no subprocesses)."""

import os

import pytest

from repro.cli import _parse_value, main

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"
MAIN = "module Main where\nimport Power\n\ncube y = power 3 y\n"


@pytest.fixture
def project(tmp_path):
    (tmp_path / "Power.mod").write_text(POWER)
    (tmp_path / "Main.mod").write_text(MAIN)
    return str(tmp_path)


def test_parse_value():
    assert _parse_value("42") == 42
    assert _parse_value("true") is True
    assert _parse_value("false") is False
    assert _parse_value("[1,2,3]") == (1, 2, 3)
    assert _parse_value("[]") == ()


def test_analyze_writes_interfaces(project, capsys):
    assert main(["analyze", project]) == 0
    out = capsys.readouterr().out
    assert "Power" in out and "analysed" in out
    assert os.path.exists(os.path.join(project, "Power.bti"))
    assert not [f for f in os.listdir(project) if f.endswith(".key")]
    # Second run: everything up to date.
    main(["analyze", project])
    out = capsys.readouterr().out
    assert "up to date" in out


def test_analyze_reports_a_parse_error_like_build(project, capsys):
    with open(os.path.join(project, "Main.mod"), "a") as f:
        f.write("@@@\n")
    assert main(["analyze", project]) == 3
    err = capsys.readouterr().err
    assert "Main" in err and "ParseError" in err


def test_cogen_writes_genexts(project, capsys):
    assert main(["cogen", project]) == 0
    assert os.path.exists(os.path.join(project, "Power.genext.py"))
    assert os.path.exists(os.path.join(project, "Main.genext.py"))


def test_specialise_prints_residual(project, capsys):
    assert main(["specialise", project, "cube"]) == 0
    out = capsys.readouterr().out
    assert "cube y = y * (y * y)" in out


def test_specialise_with_static_binding(project, capsys):
    assert main(["specialise", project, "power", "n=4"]) == 0
    out = capsys.readouterr().out
    assert "x * (x * (x * x))" in out


def test_specialise_writes_modules(project, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["specialise", project, "power", "x=2", "-o", out_dir]) == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["Power.mod"]


def test_specialise_dfs_strategy(project, capsys):
    assert main(["specialise", project, "power", "x=2", "--strategy", "dfs"]) == 0


def test_specialise_force_residual(project, capsys):
    assert main(["specialise", project, "cube", "--residual", "power"]) == 0
    out = capsys.readouterr().out
    assert "power_" in out  # a residual power function exists


def test_run(project, capsys):
    assert main(["run", project, "cube", "3"]) == 0
    assert capsys.readouterr().out.strip() == "27"


def test_run_with_list_argument(tmp_path, capsys):
    (tmp_path / "M.mod").write_text(
        "module M where\n\n"
        "sum xs = if null xs then 0 else head xs + sum (tail xs)\n"
    )
    assert main(["run", str(tmp_path), "sum", "[1,2,3]"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_show_prints_schemes_and_annotations(project, capsys):
    assert main(["show", project]) == 0
    out = capsys.readouterr().out
    assert "power : forall t,u." in out
    assert "power {t u} n x =t" in out


def test_bad_binding_syntax(project):
    with pytest.raises(SystemExit):
        main(["specialise", project, "power", "n3"])


def test_specialise_with_optimise_flag(tmp_path, capsys):
    (tmp_path / "M.mod").write_text(
        "module M where\n\n"
        "dbl x = (x + 1) * (x + 1)\n"
        "f k x = dbl (x + k)\n"
    )
    assert main(["specialise", str(tmp_path), "f", "k=0", "--optimise"]) == 0
    out = capsys.readouterr().out
    # CSE introduced a let (a beta-redex).
    assert "\\s" in out or "@" in out


def test_stdlib_workflow_via_cli(tmp_path, capsys):
    import shutil

    from repro.stdlib import MODULES, stdlib_dir

    for name in MODULES:
        shutil.copy(
            os.path.join(stdlib_dir(), name + ".mod"), str(tmp_path)
        )
    assert main(["analyze", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "map :" in out
    assert main(["specialise", str(tmp_path), "pow", "n=3"]) == 0
    out = capsys.readouterr().out
    assert "x * (x * (x * 1))" in out or "x * (x * x)" in out


def test_explain(project, capsys):
    assert main(["explain", project, "power"]) == 0
    out = capsys.readouterr().out
    assert "the result of power absorbs t because" in out
    assert "Similix rule" in out
