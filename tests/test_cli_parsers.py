"""``main`` parses with one command's parser: the same texts and results as the full parser.

``cli._parse_args`` hands an argv that names a command to that command's own
parser and falls back to ``build_parser()``'s full parser when no command is
named or arguments are left over.  These tests hold the two routes equal: the
usage and help texts of each command at two terminal widths, and for every
argv of the CLI transcript and a seeded batch from the documented grammar,
the same namespace, or the same exit code, stdout and stderr.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from limitstab import cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

_COMMANDS = tuple(cli._COMMANDS)


@pytest.mark.parametrize("columns", ("80", "40"))
def test_each_command_parser_prints_its_subparsers_usage_and_help(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)  # argparse reads the width at every format call
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert tuple(commands.choices) == _COMMANDS
    for name, sub in commands.choices.items():
        own = cli._command_parser(name)
        assert own.format_usage() == sub.format_usage(), name
        assert own.format_help() == sub.format_help(), name


def _outcome(parse, argv):
    """``vars`` of the namespace ``parse`` returns, or how it exited and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_VALID = {
    "--preset": "conifold_double:1", "--model": "m.model", "--range": "-2:0", "--beta": "2",
    "--f": "0,0,(1),2", "--e": "-1,0,(2),3", "--k": "-3/2", "--n": "-3", "--n-max": "3",
    "--format": "svg",
}
_VALUES = (*_VALID.values(), "1,1", "-1", "abc", "", "text", "pdf", "\u0662")
# exact, abbreviated, ambiguous (--n is exact, --n- abbreviates --n-max), unknown
_OPTION_NAMES = (*cli._OPTIONS, "--pre", "--mod", "--bet", "--ran", "--n-", "--n-m", "--fo",
                 "--x", "--beta2", "-b", "-x", "--he", "--help", "-h")


def _grammar_argv(rng: random.Random):
    """An argv of the documented grammar: a command (or not), often with every option it takes,
    then a few more tokens, some malformed."""
    argv = []
    if rng.random() < 0.9:
        argv.append(rng.choice(_COMMANDS))
    elif rng.random() < 0.5:
        argv.append(rng.choice(("tab", "Table", "", "bogus", "-h", "--help", "--", "--he")))
    name = argv[0] if argv and argv[0] in cli._COMMANDS else rng.choice(_COMMANDS)
    own = cli._COMMANDS[name][1]
    if rng.random() < 0.6:
        for option in rng.sample(own, len(own)):
            value = _VALID[option]
            argv += [f"{option}={value}"] if rng.random() < 0.3 else [option, value]
    for _ in range(rng.randrange(4)):
        option = rng.choice(own) if own and rng.random() < 0.7 else rng.choice(_OPTION_NAMES)
        value, roll = rng.choice(_VALUES), rng.random()
        if roll < 0.5:
            argv += [option, value]  # a repeated option when the command took it already
        elif roll < 0.65:
            argv.append(f"{option}={value}")
        elif roll < 0.8:
            argv.append(option)  # a missing value, unless a later token is taken as it
        elif roll < 0.9:
            argv.append(value)  # a leftover positional
        else:
            argv.append(rng.choice(("--", "-h")))
    return argv


def _argvs(tmp_path):
    transcript = json.loads(TRANSCRIPT.read_text())
    calls = [[a.replace("{dir}", str(tmp_path)) for a in c["argv"]] for c in transcript["calls"]]
    rng = random.Random(20081)
    return calls + [_grammar_argv(rng) for _ in range(400)]


def test_main_parses_as_the_full_parser_does(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    full_calls = []

    def counted_parser():
        full_calls.append(1)
        return full

    monkeypatch.setattr(cli, "_parser", counted_parser)
    kinds = set()
    for argv in _argvs(tmp_path):
        merged = cli._merge_option_values(argv)
        full_calls.clear()
        got = _outcome(cli._parse_args, merged)
        want = _outcome(full.parse_args, merged)
        assert got == want, argv
        # the full parser parses again only an argv with no command or with arguments left over
        leftover = isinstance(want, tuple) and "unrecognized arguments" in want[2]
        named = bool(merged) and merged[0] in cli._COMMANDS
        assert len(full_calls) == (not named or leftover), argv
        kinds.add("namespace" if isinstance(want, dict) else ("exit", want[0], leftover))
    # the batch reaches every outcome: parsed, help, a leftover and another usage error
    assert kinds == {"namespace", ("exit", 0, False), ("exit", 2, True), ("exit", 2, False)}
