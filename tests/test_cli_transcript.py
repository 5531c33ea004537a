"""Replay a recorded CLI transcript byte for byte.

``tests/data/cli_transcript.json`` holds the model files the calls read and,
for each call, its argv, the value of ``LIMITSTAB_MODEL`` (or null), how the
call ended (``return`` from ``main`` or ``SystemExit`` from argparse), the
exit code, and everything written to stdout and stderr.  ``{dir}`` in argv,
in the environment value and in the outputs stands for the directory the
model files are written to.

The transcript pins behaviour, so record it only from a commit whose CLI
output is known to be right:

    PYTHONPATH=src python tests/test_cli_transcript.py

re-records the outputs of the calls already listed in the file.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from limitstab import cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

# argparse wraps its usage lines to the terminal width, read from $COLUMNS
COLUMNS = "80"


def _call(argv, env):
    out = io.StringIO()
    err = io.StringIO()
    os.environ.pop("LIMITSTAB_MODEL", None)
    if env is not None:
        os.environ["LIMITSTAB_MODEL"] = env
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ended, code = "return", cli.main(list(argv), out=out)
        except SystemExit as exc:
            ended, code = "SystemExit", exc.code
    return {"ended": ended, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(transcript, directory: Path) -> None:
    for name, text in transcript["files"].items():
        (directory / name).write_text(text)


def _expand(value, directory):
    return None if value is None else value.replace("{dir}", str(directory))


def test_cli_transcript_replays_byte_for_byte(tmp_path, monkeypatch):
    transcript = json.loads(TRANSCRIPT.read_text())
    _write_files(transcript, tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("LIMITSTAB_MODEL", raising=False)
    assert len(transcript["calls"]) > 50
    for call in transcript["calls"]:
        argv = [_expand(a, tmp_path) for a in call["argv"]]
        got = _call(argv, _expand(call["env"], tmp_path))
        want = {key: _expand(call[key], tmp_path) for key in ("stdout", "stderr")}
        want.update(ended=call["ended"], exit=call["exit"])
        assert got == want, call["argv"]


def _record() -> None:
    import tempfile

    transcript = json.loads(TRANSCRIPT.read_text())
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_files(transcript, directory)
        for call in transcript["calls"]:
            argv = [_expand(a, directory) for a in call["argv"]]
            got = _call(argv, _expand(call["env"], directory))
            for key in ("stdout", "stderr"):
                got[key] = got[key].replace(str(directory), "{dir}")
            call.update(got)
    os.environ.pop("LIMITSTAB_MODEL", None)
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    _record()
