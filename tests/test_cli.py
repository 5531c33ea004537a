import importlib.util
import io
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from limitstab import verify
from limitstab.cli import _parser, main
from limitstab.modelio import save_model
from limitstab.presets import conifold_double


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_table_tsv_golden():
    code, text = run_cli(
        "table", "--preset", "conifold_double:1", "--beta", "2", "--n", "4",
        "--range", "-2:0",
    )
    assert code == 0
    assert text == "-2\t-3/2\t4\n-3/2\t-1\t1\n-1\t0\t0\n"


def test_walls_tsv():
    code, text = run_cli(
        "walls", "--preset", "conifold_single:1", "--beta", "1", "--range", "-1:0"
    )
    assert code == 0
    assert text == "wall\t-1\nwall\t-1/2\nwall\t0\n"


def test_mu_output():
    code, text = run_cli(
        "mu", "--preset", "conifold_pair:3,2", "--beta", "1,1", "--n", "2"
    )
    assert code == 0
    assert "mu\t1/2" in text and "k_pt\t-1/4" in text and "k_dual\t-1/5" in text


def test_compare_output_includes_both_routes():
    code, text = run_cli(
        "compare", "--preset", "conifold_single:1",
        "--f", "0,0,(1),2", "--e", "-1,0,(2),3", "--k", "-1",
    )
    assert code == 0
    lines = dict(
        line.split("\t", 1) for line in text.strip().splitlines()
    )
    assert lines["order"] == "Precedes"
    assert lines["closed_order"] == "Precedes"
    assert lines["slope_lhs"] == "2" and lines["slope_rhs"] == "2"
    assert lines["tie_lhs"] == "-3" and lines["tie_rhs"] == "4"
    assert lines["W_degree"] == "1" and lines["W_leading"] == "7"


def test_compare_zero_class_is_a_usage_error(capsys):
    code, _ = run_cli(
        "compare", "--preset", "conifold_single:1",
        "--f", "0,0,(0),0", "--e", "-1,0,(1),1", "--k", "0",
    )
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_cross_report():
    code, text = run_cli(
        "cross", "--preset", "conifold_double:1", "--beta", "2", "--n", "4",
        "--k", "-1",
    )
    assert code == 0
    assert "wall\t-1" in text
    assert "L_minus\t1" in text and "L_plus\t0" in text and "total\t1" in text
    data_lines = [l for l in text.splitlines() if l.startswith("datum")]
    assert len(data_lines) == 2
    assert any("beta1=(2) n1=4" in l and "contribution=1" in l for l in data_lines)
    assert any("beta1=(1) n1=2" in l and "contribution=0" in l for l in data_lines)


def test_series_output():
    code, text = run_cli(
        "series", "--preset", "conifold_single:1", "--beta", "1", "--n-max", "3"
    )
    assert code == 0
    assert "1\t1\t0\t0" in text
    assert "2\t-2\t0\t0" in text
    assert "coefficient\t-1\t0" in text
    assert "coefficient\t3\t3" in text


def test_verify_exits_zero():
    code, text = run_cli("verify")
    assert code == 0
    assert text.strip().splitlines()[-1].startswith("passed")


def test_verify_reports_each_failed_check(monkeypatch):
    single, pair, (model, beta, n_max, rows) = verify.reference_tables()
    (n3, *row3, (label, _)), (n4, lo, hi, values, walls, extra) = rows
    rows = [
        (n3, *row3, (label, lambda model, table: False)),
        (n4, lo, hi, (Fraction(5),) + values[1:], walls, extra),
    ]
    monkeypatch.setattr(
        verify, "reference_tables", lambda: (single, pair, (model, beta, n_max, rows))
    )
    code, text = run_cli("verify")
    assert code == 1
    lines = text.splitlines()
    assert [l for l in lines if l.startswith("FAIL\t")] == [
        "FAIL\tconifold_double(d=1): no admissible data at -3/2 for n=3\t",
        "FAIL\tconifold_double(d=1): table beta=(2) n=4\t"
        "values ('4', '1', '0') walls ('-3/2', '-1')",
    ]
    assert sum(l.startswith("ok\t") for l in lines) == 13
    assert lines[-1] == "FAILED\t13/15"


def test_reproduce_script_prints_the_reference_tables(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    n_rows = sum(len(rows) for *_, rows in verify.reference_tables())
    assert sum(l.startswith("L(beta=") for l in lines) == n_rows
    assert "-2 --[4]-- -3/2 --[1]-- -1 --[0]-- 0" in lines
    assert "  truncated series: (1)q^1 + (-2)q^2 + (3)q^3 + (-4)q^4" in lines
    after_wall = text.split("L(beta=(2), n=4)")[1].split("  crossing at k = -1 ")[1]
    rows = list(takewhile(lambda l: l.startswith("datum\t"), after_wall.splitlines()[1:]))
    _, cross = run_cli(
        "cross", "--preset", "conifold_double:1", "--beta", "2", "--n", "4",
        "--k", "-1",
    )
    assert rows == [l for l in cross.splitlines() if l.startswith("datum\t")]
    assert len(rows) == 2


def test_package_import_leaves_the_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import limitstab, sys; "
         "print(sorted({'limitstab.cli', 'limitstab.verify', 'argparse'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_render_text_and_svg():
    code, text = run_cli(
        "render", "--preset", "conifold_double:1", "--beta", "2", "--n", "3",
        "--range", "-2:0",
    )
    assert code == 0
    assert "--[-2]--" in text and "walls with a jump: -1" in text
    code, svg = run_cli(
        "render", "--preset", "conifold_double:1", "--beta", "2", "--n", "3",
        "--range", "-2:0", "--format", "svg",
    )
    assert code == 0
    assert svg.startswith("<svg") and 'viewBox="0 0 1000 200"' in svg
    assert ">-1</text>" in svg and ">-2</text>" in svg


def test_missing_model_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("LIMITSTAB_MODEL", raising=False)
    code, _ = run_cli("walls", "--beta", "1", "--range", "-1:0")
    assert code == 2
    assert "no model" in capsys.readouterr().err


def test_env_var_supplies_the_model(tmp_path, monkeypatch):
    path = tmp_path / "double.model"
    save_model(conifold_double(1), str(path))
    monkeypatch.setenv("LIMITSTAB_MODEL", str(path))
    code, text = run_cli("table", "--beta", "2", "--n", "3", "--range", "-2:0")
    assert code == 0
    assert text == "-2\t-1\t-2\n-1\t0\t0\n"


def test_model_file_reproduces_preset_output_byte_for_byte(tmp_path):
    path = tmp_path / "double.model"
    save_model(conifold_double(1), str(path))
    commands = (
        ("table", "--beta", "2", "--n", "4", "--range", "-2:0"),
        ("walls", "--beta", "2", "--range", "-2:0"),
        ("mu", "--beta", "2", "--n", "3"),
        ("cross", "--beta", "2", "--n", "4", "--k", "-1"),
        ("series", "--beta", "2", "--n-max", "0"),
        ("render", "--beta", "2", "--n", "3", "--range", "-2:0", "--format", "svg"),
    )
    for cmd in commands:
        code_p, via_preset = run_cli(cmd[0], "--preset", "conifold_double:1", *cmd[1:])
        code_f, via_file = run_cli(cmd[0], "--model", str(path), *cmd[1:])
        assert code_p == code_f == 0
        assert via_preset == via_file


def test_preset_and_model_are_mutually_exclusive(tmp_path, capsys):
    path = tmp_path / "double.model"
    save_model(conifold_double(1), str(path))
    code, _ = run_cli(
        "walls", "--preset", "conifold_double:1", "--model", str(path),
        "--beta", "2", "--range", "-1:0",
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_model_is_a_usage_error(tmp_path, monkeypatch, capsys, kind, via_env):
    path = tmp_path / "m.model"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"omega_cubed = \xff\n")
    argv = ["walls", "--beta", "1", "--range", "-1:0"]
    if via_env:
        monkeypatch.setenv("LIMITSTAB_MODEL", str(path))
    else:
        argv += ["--model", str(path)]
    code, text = run_cli(*argv)
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read model file {path}: ")
    assert err.count("\n") == 1
    if kind == "missing":
        assert err.endswith(": No such file or directory\n")


def test_reusing_the_parser_leaks_no_state(tmp_path, monkeypatch, capsys):
    """A sequence of calls on one parser gives what each call gives alone."""
    path = str(tmp_path / "m.model")
    table = ("table", "--beta", "2", "--n", "3", "--range", "-2:0")
    steps = (
        # (model in the file, LIMITSTAB_MODEL set, argv)
        (conifold_double(1), False, ("table", "--preset", "conifold_double:1",
                                     "--beta", "2", "--n", "4", "--range", "-2:0")),
        (conifold_double(1), False, ("walls", "--model", path, "--beta", "2", "--range", "-2:0")),
        (conifold_double(1), False, ("mu", "--preset", "conifold_pair:3,2", "--beta", "1,1", "--n", "2")),
        (conifold_double(1), False, ("cross", "--beta", "2", "--n")),
        (conifold_double(1), True, table),
        (conifold_double(2), True, table),
        (conifold_double(2), False, table),
        (conifold_double(2), False, ("compare", "--model", path, "--f", "0,0,(1),2",
                                     "--e", "-1,0,(2),3", "--k", "-1")),
    )

    def run(model, env, argv):
        save_model(model, path)
        if env:
            monkeypatch.setenv("LIMITSTAB_MODEL", path)
        else:
            monkeypatch.delenv("LIMITSTAB_MODEL", raising=False)
        out = io.StringIO()
        try:
            code = main(list(argv), out=out)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), capsys.readouterr().err

    in_sequence = [run(*step) for step in steps]
    alone = []
    for step in steps:
        _parser.cache_clear()
        alone.append(run(*step))
    assert in_sequence == alone
    codes = [code for code, _, _ in in_sequence]
    assert codes == [0, 0, 0, 2, 0, 0, 2, 0]
    assert "expected one argument" in in_sequence[3][2]
    assert "no model" in in_sequence[6][2]
    # the file is read again on every call: new contents, new table
    assert in_sequence[4][1] != in_sequence[5][1]


def test_model_error_exit_code(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("omega_cubed = 6\n[m_table]\n(1) = 1/0\n")
    code, _ = run_cli("walls", "--model", str(bad), "--beta", "1", "--range", "-1:0")
    assert code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "limitstab", "verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("15/15")
