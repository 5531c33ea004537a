import argparse
import importlib.util
import io
import os
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from limitstab import verify
from limitstab.charge import ChernCharacter
from limitstab.cli import (
    _command_parser,
    _merge_option_values,
    _parse_chern,
    _parser,
    build_parser,
    main,
)
from limitstab.modelio import save_model
from limitstab.presets import PRESET_NAMES, conifold_double


def _child_python(*args):
    """Run a child interpreter that imports the limitstab these tests import."""
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
    proc = _child_python(
        "-c", "import limitstab, sys; "
        "print(sorted({'limitstab.cli', 'limitstab.verify', 'argparse'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # argparse, render and verify load where a command uses them
    proc = _child_python(
        "-c", "import limitstab.cli, sys; print(sorted({'dataclasses', 'inspect', 'argparse', "
        "'limitstab.render', 'limitstab.verify'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_each_lazily_importing_command_runs_in_a_fresh_interpreter(capsys, monkeypatch):
    """verify, render, cross, table, a malformed --n (argparse's ArgumentTypeError), a leftover
    argument and no command (the full parser's errors) print and exit in a fresh
    ``python -m limitstab``, which builds its parsers anew, as an in-process ``main`` call does."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at the terminal width
    model = ("--preset", "conifold_double:1", "--beta", "2")
    for argv in (
        ("verify",),
        ("render", *model, "--n", "3", "--range", "-2:0", "--format", "svg"),
        ("cross", *model, "--n", "4", "--k", "-1"),
        ("table", *model, "--n", "4", "--range", "-2:0"),
        ("table", *model, "--n", "abc", "--range", "-2:0"),
        ("table", *model, "--n", "4", "--range", "-2:0", "extra"),
        (),
    ):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert out or err
        proc = _child_python("-m", "limitstab", *argv)
        assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code), argv


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
        ("series", "--beta", "1", "--n-max", "3"),
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
        _command_parser.cache_clear()
        alone.append(run(*step))
    assert in_sequence == alone
    codes = [code for code, _, _ in in_sequence]
    assert codes == [0, 0, 0, 2, 0, 0, 2, 0]
    assert "expected one argument" in in_sequence[3][2]
    assert "no model" in in_sequence[6][2]
    # the file is read again on every call: new contents, new table
    assert in_sequence[4][1] != in_sequence[5][1]


def test_too_many_preset_arguments_is_a_usage_error(capsys):
    arity = {"conifold_single": ("d", "1"), "conifold_pair": ("d1, d2", "3,2"),
             "conifold_double": ("d", "1")}
    assert set(arity) == set(PRESET_NAMES)
    for name, (params, args) in arity.items():
        n = args.count(",") + 1
        code, text = run_cli(
            "walls", "--preset", f"{name}:{args},1", "--beta", "1", "--range", "-1:0"
        )
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert err == f"usage error: too many arguments for {name}({params}): got {n + 1}\n"
        assert "Traceback" not in err


def test_empty_preset_name_selects_the_preset_path(tmp_path, capsys, monkeypatch):
    path = tmp_path / "double.model"
    save_model(conifold_double(1), str(path))
    monkeypatch.setenv("LIMITSTAB_MODEL", str(path))
    walls = ("walls", "--beta", "2", "--range", "-1:0")
    unknown = f"usage error: unknown preset ''; choose from {', '.join(PRESET_NAMES)}\n"
    for preset in (":1", ""):
        assert run_cli(*walls, "--preset", preset, "--model", str(path)) == (2, "")
        assert capsys.readouterr().err == (
            "usage error: --preset and --model are mutually exclusive\n"
        )
        assert run_cli(*walls, "--preset", preset) == (2, "")
        assert capsys.readouterr().err == unknown


def test_every_value_option_accepts_a_dash_leading_value():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = set()
    for command, sub in commands.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                merged = _merge_option_values([command, option, "-1:-1/2", "--x"])
                if action.nargs == 0:  # a flag such as --help keeps its own token
                    assert merged == [command, option, "-1:-1/2", "--x"], (command, option)
                    continue
                assert merged == [command, f"{option}=-1:-1/2", "--x"], (command, option)
                checked.add(option)
    assert {"--beta", "--range", "--k", "--n", "--format"} <= checked


def test_model_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("omega_cubed = 6\n[m_table]\n(1) = 1/0\n")
    code, _ = run_cli("walls", "--model", str(bad), "--beta", "1", "--range", "-1:0")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")
    # a zero or non-effective --beta is a bad argument, not a model failure
    for argv, message in (
        (("walls", "--beta", "0", "--range", "-1:0"), "wall set needs a nonzero class"),
        (("walls", "--beta", "-1", "--range", "-1:0"), "(-1) is not effective"),
        (("mu", "--beta", "0", "--n", "1"), "mu threshold needs a nonzero class"),
        (("mu", "--beta", "-1", "--n", "1"), "(-1) is not effective"),
        (("series", "--beta", "0", "--n-max", "2"), "mu threshold needs a nonzero class"),
        (("series", "--beta", "-1", "--n-max", "2"), "(-1) is not effective"),
        # a series with no row: it printed only its header and exited 0
        (("series", "--beta", "1", "--n-max", "0"), "n_max must be at least 1, got 0"),
        (("series", "--beta", "1", "--n-max", "-1"), "n_max must be at least 1, got -1"),
        (("cross", "--beta", "-1", "--n", "1", "--k", "-1/2"), "(-1) is not effective"),
        # so are a crossing point off the wall set and a class of the wrong rank
        (("cross", "--beta", "1", "--n", "1", "--k", "1/3"), "k0 = 1/3 is not a wall of (1)"),
        (
            ("compare", "--f", "0,0,(1,1),2", "--e", "-1,0,(2),3", "--k", "-1"),
            "F class 0,0,(1,1),2 has rank 2, model has rank 1",
        ),
    ):
        assert run_cli(*argv, "--preset", "conifold_single:1") == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_an_empty_range_is_reported_by_the_engine_before_the_class(capsys):
    table = ("table", "--preset", "conifold_double:1", "--n", "4", "--range", "0:-1")
    for beta in ("2", "-1", "1,1"):
        assert run_cli(*table, "--beta", beta) == (2, "")
        assert capsys.readouterr().err == "usage error: empty interval [0, -1]\n"


def test_a_class_coordinate_int_would_read_is_a_usage_error(capsys):
    for beta in ("1_0", "+1", "1,x", "\u0661", "1,\uff11"):
        assert run_cli("mu", "--preset", "conifold_single:1", "--beta", beta, "--n", "1") == (2, "")
        assert capsys.readouterr().err == f"usage error: malformed class tuple {beta!r}\n"


def test_a_non_ascii_digit_is_a_one_line_usage_error(capsys):
    two = "\u0662"  # ARABIC-INDIC DIGIT TWO, which int() reads as 2
    for argv, message in (
        (("mu", "--preset", "conifold_single:1", "--beta", two, "--n", "2"),
         f"malformed class tuple {two!r}"),
        (("cross", "--preset", "conifold_single:1", "--beta", "1", "--n", "1", "--k", f"-1/{two}"),
         f"malformed rational '-1/{two}'"),
        (("table", "--preset", "conifold_single:1", "--beta", "1", "--n", "1", "--range", f"-{two}:0"),
         f"malformed rational '-{two}'"),
        (("compare", "--preset", "conifold_pair:3,2", "--f", f"0,0,(1,{two}),1/2",
          "--e", "-1,0,(1,1),2", "--k", "-1"), f"malformed rational {two!r}"),
        (("mu", "--preset", f"conifold_single:{two}", "--beta", "1", "--n", "2"),
         f"malformed rational {two!r}"),
    ):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"
    # argparse converts --n and --n-max: its usage lines, then one error line
    for command, option in (("mu", "--n"), ("series", "--n-max")):
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--preset", "conifold_single:1", "--beta", "1", option, two)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("error:") == 1
        assert err.endswith(f"error: argument {option}: invalid int value: {two!r}\n")


def test_an_empty_list_entry_is_a_usage_error_and_a_blank_list_is_empty(capsys):
    compare = ("compare", "--e", "-1,0,(1,1),2", "--k", "-1")
    for argv in (
        compare + ("--preset", "conifold_pair:3,2", "--f", "0,0,(1,,0),1/2"),
        compare + ("--preset", "conifold_pair:3,2", "--f", "0,0,(1,0,),1/2"),
        compare + ("--preset", "conifold_pair:3,,2", "--f", "0,0,(1,0),1/2"),
        compare + ("--preset", "conifold_pair:,3,2,", "--f", "0,0,(1,0),1/2"),
    ):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == "usage error: malformed rational ''\n"
    # a blank list has no entries: the preset's defaults, and a rank-0 vector
    for blank, preset, beta in (("conifold_pair", "conifold_pair:3,2", "1,1"),
                                ("conifold_single: ", "conifold_single:1", "1")):
        mu = ("mu", "--beta", beta, "--n", "2")
        assert run_cli(*mu, "--preset", blank) == run_cli(*mu, "--preset", preset)
        assert capsys.readouterr().err == ""
    assert _parse_chern("0,0,( ),-7/3") == ChernCharacter(0, 0, (), Fraction(-7, 3))


def test_n_and_n_max_take_the_class_coordinate_grammar(capsys):
    # int() alone reads 1_0 as 10 and " +1" as 1
    for command, option in (("mu", "--n"), ("series", "--n-max")):
        argv = (command, "--preset", "conifold_single:1", "--beta", "1", option)
        for text in ("1_0", " +1"):
            with pytest.raises(SystemExit) as info:
                run_cli(*argv, text)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")
        # spaces around the digits are part of the grammar
        assert run_cli(*argv, " 2 ") == run_cli(*argv, "2") != (0, "")


def _past_the_digit_limit() -> str:
    """An integer one digit longer than int() reads from a string."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    return "1" * (limit + 1)


def test_a_number_past_the_digit_limit_is_a_usage_error(capsys):
    long = _past_the_digit_limit()
    for argv, token in (
        (("cross", "--beta", "1", "--n", "1", "--k", long), long),
        (("cross", "--beta", "1", "--n", "1", "--k", f"1/{long}"), long),
        (("walls", "--beta", "1", "--range", f"-{long}:0"), f"-{long}"),
        (("compare", "--f", f"0,0,({long}),2", "--e", "-1,0,(2),3", "--k", "-1"), long),
        # a class coordinate names its own length, not the whole class
        (("walls", "--beta", long, "--range", "-1:0"), long),
        (("mu", "--beta", f" -{long} ", "--n", "1"), f"-{long}"),
    ):
        assert run_cli(*argv, "--preset", "conifold_single:1") == (2, "")
        assert capsys.readouterr().err == (
            f"usage error: integer of {len(token)} characters exceeds int()'s digit limit\n"
        )
    with pytest.raises(SystemExit) as info:
        run_cli("mu", "--preset", "conifold_single:1", "--beta", "1", "--n", long)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --n: integer of {len(long)} characters exceeds int()'s digit limit\n"
    )


def test_a_result_past_the_digit_limit_is_a_one_line_error(capsys):
    n = "9" * (len(_past_the_digit_limit()) - 1)  # the longest --n that int() reads
    argv = ("mu", "--preset", "conifold_single:1/1000", "--beta", "1", "--n", n)
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == "error: a result exceeds str()'s digit limit\n"


def test_a_seed_bound_past_the_digit_limit_is_a_one_line_usage_error(capsys):
    n = "9" * (len(_past_the_digit_limit()) - 1)
    bits = (500 * int(n)).bit_length()  # k_pt = -mu/2 = -n / (2 * 1/1000)
    for command in ("table", "render"):
        argv = (command, "--preset", "conifold_single:1/1000", "--beta", "1", "--n", n,
                "--range", "-1:0")
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == (
            f"usage error: interval must start below the seed bound k_pt = <{bits}-bit number>,"
            " got k_lo = -1\n"
        )


def test_module_entry_point_runs():
    proc = _child_python("-m", "limitstab", "verify")
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("15/15")


def test_a_class_prints_in_the_form_compare_reads():
    for ch in (
        ChernCharacter(-1, 0, (Fraction(1, 2), 3), -4),
        ChernCharacter(0, 0, (0,), 0),
        ChernCharacter(0, 0, (), Fraction(-7, 3)),
    ):
        assert _parse_chern(str(ch)) == ch
    assert str(ChernCharacter(0, 0, (0,), 0)) == "0,0,(0),0"
