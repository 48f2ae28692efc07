"""The process exit path: ``python -m heisharm.cli`` ends through
console_main, which flushes the streams and calls os._exit, and must print,
write and exit exactly as an in-process dispatch of the same arguments."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisharm
from heisharm.cli import main

SRC = Path(heisharm.__file__).resolve().parent

CASES = {
    "symmdiff-check": (["symmdiff-check"], 0),
    "plancherel-box": (["plancherel-check", "--family", "box"], 1),
    "inv-log-refused": (["ingham-verify", "--theta", "inv-log"], 2),
    "unknown-flag": (["symmdiff-check", "--bogus"], 2),
    "help": (["--help"], 0),
}


def _buffered_env():
    """Environment of a fresh interpreter that imports this heisharm, with
    PYTHONUNBUFFERED removed: unbuffered streams would hide a missing flush
    before os._exit.  COLUMNS fixes argparse's line width on both sides."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["COLUMNS"] = "80"
    return env


@pytest.mark.parametrize("argv, code", CASES.values(), ids=CASES)
def test_process_exit_matches_in_process_dispatch(tmp_path, capsys, monkeypatch,
                                                  argv, code):
    argv = [*argv, "--out", "r.json"]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    proc = subprocess.run([sys.executable, "-m", "heisharm.cli", *argv],
                          cwd=fresh, capture_output=True, env=_buffered_env())
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(here)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout.decode() == out and proc.stderr.decode() == err
    assert out + err
    assert sorted(os.listdir(fresh)) == sorted(os.listdir(here))
    for name in os.listdir(here):
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


def test_flush_into_closed_pipe_exits_120(tmp_path):
    # the summary line sits in the buffer of a pipe whose reader is gone:
    # the explicit flush fails and the interpreter's own final flush reports
    # it, as a process ending through sys.exit does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "heisharm.cli",
                               "symmdiff-check", "--out", "r.json"],
                              cwd=tmp_path, stdout=write_end,
                              stderr=subprocess.PIPE, env=_buffered_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert b"BrokenPipeError" in proc.stderr
    assert (tmp_path / "r.json").exists()


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # started with descriptor 1 closed, the interpreter sets sys.stdout to
    # None: there is nothing to flush, and the code is the command's own
    proc = subprocess.run([sys.executable, "-m", "heisharm.cli",
                           "symmdiff-check", "--out", "r.json"],
                          cwd=tmp_path, stderr=subprocess.PIPE,
                          env=_buffered_env(), preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "r.json").exists()


def test_main_returns_its_code_in_process(tmp_path):
    assert main(["symmdiff-check", "--out", str(tmp_path / "r.json")]) == 0
    assert main(["ingham-verify", "--theta", "inv-log"]) == 2


def _is_hard_exit(node):
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Attribute) and func.attr == "_exit"
        or isinstance(func, ast.Name) and func.id == "_exit")


def test_one_hard_exit_inside_console_main():
    total = sum(sum(map(_is_hard_exit, ast.walk(ast.parse(path.read_text()))))
                for path in SRC.rglob("*.py"))
    cli = ast.parse((SRC / "cli.py").read_text())
    helper, = (node for node in cli.body if isinstance(node, ast.FunctionDef)
               and node.name == "console_main")
    assert total == 1 and sum(map(_is_hard_exit, ast.walk(helper))) == 1
