"""CLI contract: exit codes, config precedence, reports, determinism."""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import heisharm._gaussian
from heisharm._gaussian import dilation_gap, gaussian_plancherel
from heisharm.chernoff import gamma_bound_log
from heisharm.cli import (_COMMANDS, _DILATE_TOL, _GAUSSIAN, _NAMES, _OPTIONS,
                          RunConfig, _flag, _parse_args, _resolve_config,
                          _run_description, main)
from heisharm.errors import HeisharmError, HypothesisError, TailError
from heisharm.fixtures import packaged_fixtures_dir
from heisharm.group import ball_shift_symmdiff, ball_volume
from heisharm.jsonio import write_json
from heisharm.theta import BUILTIN_THETAS, builtin_theta

from oracles import dilation_gap_numpy, gaussian_plancherel_numpy


def run(tmp_path, name, *argv, out="r.json"):
    path = tmp_path / out
    code = main([name, "--out", str(path), *argv])
    report = json.loads(path.read_text()) if path.exists() else None
    return code, report, path


def _quiet_run(tmp_path, monkeypatch, capsys, argv):
    """main(argv) run in tmp_path with every warning recorded: (exit code,
    stdout, stderr, the warnings the run raised)."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", "r.json"])
    return (code, *capsys.readouterr(), caught)


def test_laguerre_check_passes(tmp_path, capsys):
    code, report, _ = run(tmp_path, "laguerre-check")
    assert code == 0
    assert report["pass"] is True
    assert set(report["gram"]["defects"]) == {"0", "1", "2", "3"}
    assert report["gram"]["max_defect"] <= 1e-8
    assert report["envelope"]["violations"] == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("laguerre-check:") and line.endswith("pass=true")
    # the Gram check runs at min(kmax, 40)
    for kmax, gram_k in ((50, 40), (30, 30)):
        code, report, _ = run(tmp_path, "laguerre-check", "--kmax", str(kmax))
        assert code == 0 and report["gram"]["k_max"] == gram_k


def test_default_report_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["laguerre-check", "--kmax", "12"]) == 0
    assert (tmp_path / "report.json").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["laguerre-check", "--kmax", "0"]) == 2
    assert main(["ingham-verify", "--lambda-min", "5",
                 "--lambda-max", "1"]) == 2
    assert main(["convolve-check", "--factors", "1,2,3"]) == 2
    assert main(["plancherel-check", "--family", "pyramid"]) == 2
    capsys.readouterr()


def _build_parser():
    """The argparse parser that served the command line before the
    table-driven _parse_args, kept as its oracle on valid command lines."""
    width = max(map(len, _COMMANDS))
    parser = argparse.ArgumentParser(
        prog="heisharm",
        description="Certified numerical checks for radial harmonic analysis "
                    "on the Heisenberg group.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<{width}}  {help_line}"
            for name, (*_, help_line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the check to run (listed below)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file of defaults; explicit flags win")
    for name, kind, _, help_line in _OPTIONS:
        # a tuple option stays a string here; RunConfig parses it
        parser.add_argument(_flag(name), dest=name, default=None,
                            type=kind if kind in (int, float) else None,
                            help=help_line)
    return parser


_ORACLE = _build_parser()

# values of each flag that argparse reads as values: nothing that starts
# with "-" but negative integers, some of them refused later by RunConfig
_INT = st.integers(min_value=-3, max_value=300).map(str)
_FLOAT = st.floats(min_value=1e-4, max_value=1e4).map(repr)
_VALUES = {
    "theta": st.sampled_from(["inv-sqrt", "inv-log-sq", "inv-log", "p.json"]),
    "n": _INT, "k_max": _INT, "lambda_nodes": _INT, "max_power": _INT,
    "chain_length": _INT,
    "lambda_min": _FLOAT, "lambda_max": _FLOAT, "dilation": _FLOAT,
    "out": st.sampled_from(["r.json", "sub/r.json", "report"]),
    "fixtures": st.sampled_from(["fx", "fixtures/dir"]),
    "family": st.sampled_from(["box", "gaussian", "both", "envelope", "cone"]),
    "factors": st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=3,
                        max_size=5).map(lambda v: ",".join(map(repr, v))),
}


def _resolved(args):
    try:
        return _resolve_config(*args)
    except HeisharmError as exc:
        return f"refused: {exc}"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_text(json.dumps({"n": 2, "k_max": 12, "lambda_nodes": None}))
    return str(path)


@seed(26)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parser_matches_argparse_oracle(config_path, data):
    # valid command lines: any subset of the flags in any order, each as
    # --flag VALUE or --flag=VALUE, some repeated, the command anywhere
    # between them; both parsers give the same fields and the same
    # RunConfig, or the same refusal
    names = data.draw(st.lists(st.sampled_from(("config",) + _NAMES), max_size=8))
    groups = []
    for name in names:
        flag = "--config" if name == "config" else _flag(name)
        value = (config_path if name == "config"
                 else data.draw(_VALUES[name], label=name))
        joined = data.draw(st.booleans(), label="joined")
        groups.append([f"{flag}={value}"] if joined else [flag, value])
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    groups.insert(data.draw(st.integers(0, len(groups)), label="at"), [command])
    argv = [arg for group in groups for arg in group]
    ours, oracle = _parse_args(argv), vars(_ORACLE.parse_args(argv))
    theirs = (oracle.pop("command"), oracle.pop("config"),
              {name: v for name, v in oracle.items() if v is not None})
    assert ours == theirs
    assert _resolved(ours) == _resolved(theirs)


_MALFORMED = {
    "no-command": [],
    "flags-only": ["--kmax", "3"],
    "unknown-command": ["bogus"],
    "second-command": ["laguerre-check", "symmdiff-check"],
    "unknown-flag": ["symmdiff-check", "--bogus"],
    "abbreviated": ["laguerre-check", "--km", "3"],
    "abbreviated-joined": ["dilate-check", "--dil=1.2"],
    "single-dash": ["laguerre-check", "-k", "3"],
    "missing-value": ["laguerre-check", "--kmax"],
    "flag-as-value": ["laguerre-check", "--out", "--kmax"],
    "non-integer": ["laguerre-check", "--kmax", "3.5"],
    "non-integer-joined": ["laguerre-check", "--kmax=x"],
    "non-number": ["dilate-check", "--dilation", "abc"],
    "empty-number": ["dilate-check", "--dilation="],
}


def test_malformed_command_lines_exit_2_with_one_line(tmp_path, fresh_env):
    # each in one fresh interpreter that never loads numpy: exit 2, nothing
    # on stdout, one line on stderr, and no report written
    script = ("import contextlib, io, json, sys\n"
              "import heisharm.cli\n"
              "rows = {}\n"
              "for key, argv in json.loads(sys.argv[1]).items():\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), "
              "contextlib.redirect_stderr(err):\n"
              "        code = heisharm.cli.main(['--out', 'never.json', *argv])\n"
              "    rows[key] = [code, out.getvalue(), err.getvalue()]\n"
              "rows['numpy'] = 'numpy' in sys.modules\n"
              "print(json.dumps(rows))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_MALFORMED)],
                          cwd=tmp_path, env=fresh_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows.pop("numpy") is False
    for key, (code, out, err) in rows.items():
        assert (code, out) == (2, ""), key
        assert err.startswith("heisharm: error: ") and err.count("\n") == 1, key
    assert rows["abbreviated"][2] == ("heisharm: error: unknown flag --km; "
                                      "heisharm --help lists the flags\n")
    assert rows["non-integer"][2] == ("heisharm: error: --kmax needs an "
                                      "integer, got '3.5'\n")
    assert list(tmp_path.iterdir()) == []


def _flags(options):
    argv = []
    for name, value in options.items():
        argv.append(_flag(name))
        argv.append(",".join(map(str, value)) if isinstance(value, list)
                    else str(value))
    return argv


@pytest.mark.parametrize("command, options, message", [
    ("laguerre-check", {"n": 2}, "laguerre-check does not read n"),
    ("plancherel-check", {"family": "gaussian", "factors": [0.9, 0.8, 0.7, 0.6]},
     "plancherel-check --family gaussian does not read factors"),
    ("convolve-check", {"theta": "inv-log"}, "convolve-check does not read theta"),
    ("dilate-check", {"family": "box"}, "dilate-check does not read family"),
    ("ingham-plan", {"k_max": 12}, "ingham-plan does not read k_max"),
    ("ingham-verify", {"dilation": 1.2}, "ingham-verify does not read dilation"),
    ("carleman", {"family": "box", "n": 3}, "carleman --family box does not read n"),
    ("carleman", {"family": "envelope", "fixtures": "fx"},
     "carleman --family envelope does not read fixtures"),
    ("carleman", {"family": "profile"},
     "unknown family 'profile'; choose box or envelope"),
    ("gamma-bound-check", {"lambda_nodes": 8},
     "gamma-bound-check does not read lambda_nodes"),
    ("symmdiff-check", {"k_max": 5, "n": 7}, "symmdiff-check does not read k_max, n"),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_unread_option_refused(tmp_path, capsys, command, options, message, via):
    # an option the command does not read is refused, whether a flag or a
    # config key sets it; a family it does not implement likewise
    if via == "flag":
        argv = _flags(options)
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options))
        argv = ["--config", str(cfg)]
    out = tmp_path / "never.json"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"heisharm {command}: refused: {message}\n"


_SMALL = {"theta": "inv-sqrt-strong", "k_max": 8, "lambda_min": 0.3,
          "lambda_max": 1.2, "lambda_nodes": 8, "max_power": 3,
          "chain_length": 8}


def test_commands_declare_exactly_the_options_they_read():
    # replay every command and family on a small grid, recording each
    # option its handler reads: the declaration in _COMMANDS must match it.
    # A refusal on the small grid comes after the handler's last read.
    seen = set()

    class Recorder(RunConfig):
        __slots__ = ()

        def __getattribute__(self, name):
            if name in _NAMES:
                seen.add(name)
            return super().__getattribute__(name)

    for command, (handler, _, reads, _) in _COMMANDS.items():
        families = reads if isinstance(reads, dict) else {None: reads}
        for family, declared in families.items():
            cfg = Recorder(command, family=family, **_SMALL)
            seen.clear()
            try:
                handler(cfg)
            except (HypothesisError, TailError):
                pass
            assert seen - {"family"} == set(declared), (command, family)


# one small run of each command and family: (command, family, options), of
# which a run sets by flag those the command reads
_DESCRIBED = [
    ("laguerre-check", None, {"k_max": 12}),
    ("plancherel-check", "both", {"n": 2, **_SMALL}),
    ("plancherel-check", "gaussian", {"n": 2, **_SMALL}),
    ("convolve-check", None, {"k_max": 8, "lambda_nodes": 6}),
    ("dilate-check", None, {"n": 2, **_SMALL}),
    ("ingham-plan", None, {"n": 2, **_SMALL}),
    ("ingham-verify", None, {"n": 2, **_SMALL}),
    ("carleman", "box", {"max_power": 3}),
    ("carleman", "envelope", {"k_max": 16, "lambda_nodes": 64, "max_power": 3}),
    ("gamma-bound-check", None, {"n": 2, **_SMALL}),
    ("symmdiff-check", None, {}),
]


@pytest.mark.parametrize("command, family, options", _DESCRIBED,
                         ids=[f"{c}-{f}" if f else c for c, f, _ in _DESCRIBED])
def test_every_report_names_its_command_and_grid(tmp_path, monkeypatch, command,
                                                 family, options):
    # main writes the run description: the command, and every option the
    # command reads but the fixtures path under its own name, each equal to
    # the resolved config; so the report's option keys re-run it
    reads = _COMMANDS[command][2]
    reads = reads[family] if family else reads
    flags = {k: v for k, v in options.items() if k in reads}
    if family:
        flags["family"] = family
        reads = ("family", *reads)
    argv = [a for k, v in flags.items() for a in (_flag(k), str(v))]
    handler, *rest = _COMMANDS[command]
    written = []
    monkeypatch.setitem(_COMMANDS, command, (
        lambda cfg: written.append(handler(cfg)) or written[-1], *rest))
    code, report, first = run(tmp_path, command, *argv)
    assert code in (0, 1)
    cfg = _resolve_config(command, None, flags)
    # main alone writes the description: no handler restates any of its keys
    (own, _), = written
    assert own.keys() & _run_description(cfg).keys() == set()
    assert report["command"] == command
    # theta, which may be a path, is the profile's name, written by the
    # handler; with a builtin profile that is the resolved value
    keys = {k: v for k, v in report.items() if k in _NAMES}
    assert keys.keys() == set(reads) - {"fixtures"}
    for key, value in keys.items():
        want = getattr(cfg, key)
        assert value == (list(want) if isinstance(want, tuple) else want), key
    config = tmp_path / "config.json"
    config.write_text(json.dumps(keys))
    again = tmp_path / "again"
    again.mkdir()
    monkeypatch.chdir(again)
    assert main([command, "--config", str(config)]) == code
    assert (again / "report.json").read_bytes() == first.read_bytes()


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (*_, help_line) in _COMMANDS.items():
        assert f"  {name}  " in out
        assert help_line in out


def test_ingham_verify_small_grid(tmp_path):
    code, report, _ = run(tmp_path, "ingham-verify", "--kmax", "12",
                          "--lambda-min", "0.1", "--lambda-max", "10",
                          "--lambda-nodes", "24")
    assert code == 0
    assert report["pass"] is True
    assert sorted(report) == ["C", "argmax", "c_n", "chain_length", "command",
                              "k_max", "lambda_max", "lambda_min", "lambda_nodes",
                              "max_log_q", "n", "pass", "theta"]


def test_divergent_profile_refused(tmp_path):
    path = tmp_path / "never.json"
    assert main(["ingham-verify", "--theta", "inv-log",
                 "--out", str(path)]) == 2
    assert not path.exists()


@pytest.mark.parametrize("command", ["ingham-plan", "ingham-verify"])
@pytest.mark.parametrize("y", ["[0, NaN, 2]", "[0, 1, Infinity]"])
def test_non_finite_table_abscissae_refused(tmp_path, capsys, command, y):
    # Python's JSON reader takes NaN and Infinity; the profile refuses them
    prof = tmp_path / "prof.json"
    prof.write_text('{"name": "p", "kind": "table", "declared_class": '
                    f'"convergent", "y": {y}, "theta": [1.0, 0.5, 0.2]}}')
    code, report, _ = run(tmp_path, command, "--theta", str(prof))
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err == (f"heisharm {command}: refused: "
                   "table abscissae y must be finite\n")


_TABLE = {"name": "tab", "kind": "table", "declared_class": "convergent",
          "y": [0.0, 1.0], "theta": [1.0, 0.5]}
_BAD_NAME = "profile name must be a nonempty string of printable characters, got "


@pytest.mark.parametrize("argv", [
    ["ingham-plan"], ["ingham-verify"], ["carleman", "--family", "envelope"],
    ["gamma-bound-check"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("config, message", [
    # a builtin kind with a class of the config's choosing
    ({"name": "sneaky", "kind": "inv-log", "declared_class": "convergent"},
     "profile config kind must be 'table', got 'inv-log'; a builtin is "
     "chosen by its name alone"),
    # a table whose report would re-run as the builtin it is named after
    ({**_TABLE, "name": "inv-sqrt", "theta": [1.0, 1.0]},
     "'inv-sqrt' names a builtin profile, convergent by the package; a table "
     "needs a name of its own"),
    ({**_TABLE, "y": ["0", "1"], "theta": ["1", "0.5"]},
     "table y must hold numbers only, got '0'"),
    ({**_TABLE, "theta": ["1", "0.5"]},
     "table theta must hold numbers only, got '1'"),
    ({**_TABLE, "y": [False, True], "theta": [True, False]},
     "table y must hold numbers only, got False"),
    ({**_TABLE, "name": 5}, _BAD_NAME + "5"),
    ({**_TABLE, "name": None}, _BAD_NAME + "None"),
    ({**_TABLE, "name": ["a"]}, _BAD_NAME + "['a']"),
    ({**_TABLE, "name": ""}, _BAD_NAME + "''"),
    ({**_TABLE, "name": "x\ny"}, _BAD_NAME + "'x\\ny'"),
    # an escape sequence would colour the summary line
    ({**_TABLE, "name": "red\u001b[31mX"}, _BAD_NAME + "'red\\x1b[31mX'"),
    # a JSON list or object as kind is refused like any kind but "table",
    # not left to fail on hashing
    ({"name": "q", "kind": [1], "declared_class": "convergent"},
     "profile config kind must be 'table', got [1]; a builtin is chosen by "
     "its name alone"),
    ({"name": "q", "kind": {"a": 1}, "declared_class": "convergent"},
     "profile config kind must be 'table', got {'a': 1}; a builtin is chosen "
     "by its name alone"),
], ids=["sneaky", "builtin-name", "string-y", "string-theta", "booleans",
        "name-5", "name-null", "name-list", "name-empty", "name-two-lines",
        "name-escape", "kind-list", "kind-dict"])
def test_config_profile_refusals(tmp_path, monkeypatch, capsys, argv, config,
                                 message):
    # every command that reads --theta refuses each with exit 2 and one line
    # that names the field, and writes nothing
    (tmp_path / "prof.json").write_text(json.dumps(config))
    code, out, err, caught = _quiet_run(tmp_path, monkeypatch, capsys,
                                        [*argv, "--theta", "prof.json"])
    assert (code, out, caught) == (2, "", [])
    assert err == f"heisharm {argv[0]}: refused: {message}\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "prof.json"]


def test_gamma_bound_check_paths(tmp_path):
    # the default profile sits below the hypothesis threshold
    assert main(["gamma-bound-check", "--out",
                 str(tmp_path / "g.json")]) == 2
    code, report, _ = run(tmp_path, "gamma-bound-check",
                          "--theta", "inv-sqrt-strong")
    assert code == 0
    assert report["max_power"] == 10
    assert all(r["ratio"] <= 1.0 for r in report["rows"])
    code, report, _ = run(tmp_path, "gamma-bound-check",
                          "--theta", "inv-sqrt-strong", "--max-power", "1")
    assert code == 0
    assert report["max_power"] == 1 and [r["m"] for r in report["rows"]] == [1]


@pytest.mark.parametrize("argv", [
    ["gamma-bound-check", "--theta", "inv-sqrt-strong"],
    ["carleman", "--family", "box"],
    ["carleman", "--family", "envelope", "--theta", "inv-sqrt-strong"],
])
@pytest.mark.parametrize("power", [0, -1])
def test_nonpositive_max_power_refused(tmp_path, capsys, argv, power):
    # an explicit power below 1 is refused, never replaced by the default
    out = tmp_path / "never.json"
    assert main([*argv, "--max-power", str(power),
                 "--out", str(out)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_power": power}))
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    line = (f"heisharm {argv[0]}: refused: max_power must be a positive "
            f"integer, got {power}\n")
    assert capsys.readouterr().err == line * 2


def test_carleman_box_writes_csv(tmp_path):
    code, report, path = run(tmp_path, "carleman", out="carl.json")
    # term_20 sits above the target window, so the check completes and fails
    assert code == 1
    assert report["pass"] is False
    assert report["term_20_in_window"] is False
    assert report["sum_exceeds_5_by"] <= 12
    assert len(report["rows"]) == 20
    csv_lines = (tmp_path / "carl.csv").read_text().splitlines()
    assert csv_lines[0] == "m,log_norm,carleman_term,partial_sum,bound_ratio"
    assert len(csv_lines) == 21
    assert csv_lines[1].endswith(",")  # box family reports no bound ratios


def test_carleman_envelope_family(tmp_path):
    code, report, _ = run(tmp_path, "carleman", "--family", "envelope",
                          "--theta", "inv-sqrt-strong", "--max-power", "6")
    assert code == 0
    assert report["all_ratios_le_1"] is True
    assert all(r["bound_ratio"] <= 1.0 for r in report["rows"])
    # the bound's front constant -2 log(2 pi) + log 2 + log(pi^2 / 8) is
    # -log 16, so each ratio is ||L^m f||^2 * 16 / (the doubled profile's
    # two-term gamma bound)
    theta = builtin_theta("inv-sqrt-strong")
    doubled = lambda y: 2.0 * theta.at(y)
    assert [r["m"] for r in report["rows"]] == list(range(1, 7))
    for row in report["rows"]:
        log_bound = gamma_bound_log(doubled, 1, row["m"])[0]
        want = math.exp(2.0 * row["log_norm"] + math.log(16.0) - log_bound)
        assert row["bound_ratio"] == pytest.approx(want, rel=1e-12)
    # a profile whose doubling misses the hypothesis skips the bound
    code2, report2, _ = run(tmp_path, "carleman", "--family", "envelope",
                            "--theta", "inv-sqrt", "--max-power", "4",
                            out="skip.json")
    assert code2 == 0
    assert "bound_skipped" in report2
    assert report2["rows"][0]["bound_ratio"] is None


def test_carleman_envelope_records_profile_name(tmp_path):
    # the report names the profile, not the path it was read from, so one
    # table copied into two directories gives the same bytes
    profile = {"name": "tab-a", "kind": "table", "declared_class": "convergent",
               "y": [0.0, 1.0, 10.0], "theta": [1.0, 0.5, 0.25]}
    reports = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "tab.json"
        path.write_text(json.dumps(profile))
        code, report, out = run(tmp_path, "carleman", "--family", "envelope",
                                "--theta", str(path), "--kmax", "8",
                                "--lambda-nodes", "8", "--max-power", "4",
                                out=f"{sub}.json")
        assert code == 0 and report["theta"] == "tab-a"
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_convolve_check_small(tmp_path):
    code, report, _ = run(tmp_path, "convolve-check", "--kmax", "8",
                          "--lambda-min", "0.3", "--lambda-max", "1.2",
                          "--lambda-nodes", "4")
    assert code == 0
    assert max(report["max_rel_error"], report["max_column_error"]) <= report["tol"]
    assert report["oracle_samples"] >= 500


def test_convolve_check_prints_the_measure_pass_reads(tmp_path, capsys):
    # a second ball 1000 times wider: max_rel_error sits under the
    # tolerance, the column measure that pass reads does not, and the
    # summary line prints the latter
    code, report, _ = run(tmp_path, "convolve-check",
                          "--factors", "0.9,0.8,1000,0.6")
    assert code == 1 and report["pass"] is False
    assert report["max_rel_error"] <= report["tol"] < 8 < report["max_column_error"]
    assert capsys.readouterr().out == (
        f"convolve-check: max_column_error={report['max_column_error']:.3e} "
        f"samples={report['oracle_samples']} pass=false\n")


def test_dilate_check(tmp_path):
    code, report, _ = run(tmp_path, "dilate-check", "--lambda-nodes", "160")
    assert code == 0
    assert report["dilation"] == pytest.approx(1.4)
    assert report["max_rel_error"] <= report["tol"]


def test_dilate_check_defaults(tmp_path):
    code, report, _ = run(tmp_path, "dilate-check")
    assert code == 0
    assert (report["lambda_min"], report["lambda_max"]) == (1e-3, 1e3)
    assert report["k_max"] == 64 and report["lambda_nodes"] == 320


# dilate-check's six benchmark entries, two contractions, n = 3, a window
# whose target underflows to 0 on its upper columns, and a grid of 164480
# cells
_DILATE_PATHS = [["--dilation", r, "--n", n] for r in ("1.2", "1.4", "1.8")
                 for n in ("1", "2")]
_DILATE_PATHS += [["--dilation", "0.7"], ["--dilation", "0.5", "--n", "2"],
                  ["--n", "3"], ["--lambda-max", "1e300"],
                  ["--kmax", "256", "--lambda-nodes", "640"]]


@pytest.mark.parametrize("flags", _DILATE_PATHS, ids=" ".join)
def test_dilate_float_path_matches_numpy_path(flags):
    # the float path against dilation_gap_numpy on the same config: the
    # same nodes, the same verdict, and max_rel_error = gap / scale within a
    # few ulps.  Both run the same operations on each cell, apart from the
    # nodes' 10^y, t_hat's exp and the powers of the prefactor and of |q|,
    # each an ulp at most from numpy's (tests/test_transform.py); so a cell
    # that can set the gap or the scale moves by a few ulps of the scale,
    # and the quotient by that much, times 1 + max_rel_error for the
    # scale's own move
    command, _, given = _parse_args(["dilate-check", *flags])
    cfg = _resolve_config(command, None, given)
    args = (cfg.n, _GAUSSIAN, cfg.dilation, cfg.k_max, cfg.lambda_min,
            cfg.lambda_max, cfg.lambda_nodes)
    floats, oracle = dilation_gap(*args), dilation_gap_numpy(*args)
    assert floats[0] == oracle[0] > 0
    worst, want = floats[2] / floats[1], oracle[2] / oracle[1]
    assert (worst <= _DILATE_TOL) is (want <= _DILATE_TOL)
    assert abs(worst - want) <= 8.0 * sys.float_info.epsilon * (1.0 + want)


# numpy with every SIMD extension its dispatch found on this host switched
# off: its exp, log and pow are then libm's, the ones a Python float takes
_NO_SIMD = " ".join(np.__config__.CONFIG["SIMD Extensions"]["found"])

# answers gaussian_plancherel_numpy's arguments, one JSON line each, with
# [spatial, spectral]; JSON carries a float's repr, so no bit is lost
_ORACLE_SERVER = (
    "import json, sys\n"
    "from oracles import gaussian_plancherel_numpy\n"
    "for line in sys.stdin:\n"
    "    n, widths, *grid = json.loads(line)\n"
    "    print(json.dumps(gaussian_plancherel_numpy(n, tuple(widths), *grid)),\n"
    "          flush=True)\n")


@pytest.fixture(scope="module")
def no_simd_oracle():
    """gaussian_plancherel_numpy in a child interpreter whose numpy runs no
    SIMD code path, called with the arguments of gaussian_plancherel."""
    paths = [str(Path(heisharm.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_NO_SIMD,
               PYTHONPATH=os.pathsep.join(paths))
    with subprocess.Popen([sys.executable, "-c", _ORACLE_SERVER], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:

        def call(*args):
            child.stdin.write(json.dumps(args) + "\n")
            child.stdin.flush()
            return tuple(json.loads(child.stdout.readline()))

        # closing its input ends the child, which Popen's exit waits for
        yield call


@seed(43)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 300), st.integers(2, 300),
       st.floats(-8.0, 3.0), st.floats(0.001, 6.0))
def test_gaussian_plancherel_matches_numpy_path(no_simd_oracle, n, k_max, nodes,
                                                log_min, decades):
    # the float path sums the numpy path's terms in its order, so with
    # numpy's SIMD off the two give the same spatial norm and the same
    # spectral norm, up to an ulp: numpy's ** squares by x * x where a
    # Python float's calls pow, which rounds an ulp away at times, in
    # lam^(n+1) at n = 1 and in the prefactor's n-th power at n = 2.  With
    # SIMD on, numpy's log moves a node's log-lambda weight, half the gap
    # between two logs, by an ulp of the log, which is many ulps of the gap
    args = (n, _GAUSSIAN, k_max, 10.0 ** log_min, 10.0 ** (log_min + decades), nodes)
    spatial, spectral = gaussian_plancherel(*args)
    want = no_simd_oracle(*args)
    assert spatial == want[0]
    assert abs(spectral - want[1]) <= math.ulp(want[1])


def test_plancherel_families(tmp_path):
    code, report, _ = run(tmp_path, "plancherel-check", "--family", "gaussian")
    assert code == 0
    assert report["rows"][0]["rel_error"] <= 1e-4
    # the sharp-edged box needs far more degrees than any practical grid
    code2, report2, _ = run(tmp_path, "plancherel-check", "--family", "box",
                            "--kmax", "64", "--lambda-nodes", "96",
                            out="box.json")
    assert code2 == 1
    assert report2["rows"][0]["pass"] is False


@pytest.mark.parametrize("family", ["box", "both"])
def test_box_plancherel_above_n_170_refused(tmp_path, capsys, family):
    # 171! is past the largest float, which the box's closed form divides by
    out = tmp_path / "r.json"
    assert main(["plancherel-check", "--family", family, "--n", "171",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("heisharm plancherel-check: refused: "
                                       "the box family needs n <= 170, got 171\n")
    assert list(tmp_path.iterdir()) == []


def test_dilate_check_vanishing_target_refused(tmp_path, monkeypatch, capsys):
    # two nodes: the one compared is lam = 1e3, where the target Gaussian's
    # e^{-lam^2 sigma_t^2 / 2} underflows to 0, so its scale is 0
    code, _, err, caught = _quiet_run(tmp_path, monkeypatch, capsys,
                                      ["dilate-check", "--lambda-nodes", "2"])
    assert (code, caught) == (2, [])
    assert err == ("heisharm dilate-check: refused: the target Gaussian "
                   "underflows to 0 on every compared node; lower lambda_max "
                   "or add lambda nodes\n")
    assert list(tmp_path.iterdir()) == []


def test_symmdiff_check(tmp_path, capsys):
    code, report, _ = run(tmp_path, "symmdiff-check")
    assert code == 0
    assert [r["dim"] for r in report["rows"]] == [2, 4]
    assert all(r["bound_violations"] == 0 for r in report["rows"])
    assert "dim2_ratio=" in capsys.readouterr().out
    # the dim-2 lens check compares all 50 (R, d) pairs: its reported error
    # is the recomputed maximum, positive and within the tolerance
    row = report["rows"][0]
    assert row["pairs"] == 50
    worst = 0.0
    for R in np.geomspace(0.5, 5.0, 10).tolist():
        for d in (frac * R for frac in (0.1, 0.5, 1.0, 1.5, 1.9)):
            lens = ball_volume(R, 2) - 0.5 * ball_shift_symmdiff(2, R, d)
            exact = (2.0 * R * R * math.acos(0.5 * d / R)
                     - 0.5 * d * math.sqrt(4.0 * R * R - d * d))
            worst = max(worst, abs(lens - exact))
    assert 0.0 < row["max_lens_error"] <= 1e-10
    assert row["max_lens_error"] == worst


def test_ingham_plan_report(tmp_path):
    code, report, _ = run(tmp_path, "ingham-plan", "--chain-length", "12")
    assert code == 0
    assert report["chain_length"] == 12
    assert report["a"] == pytest.approx(np.pi ** -0.5)
    assert report["factor_bound"]["violations"] == 0
    rho1 = report["c_n"] ** 2 * np.e ** 2 * (0.5 ** 0.5) + 0.5
    assert report["rho_head"][0] == pytest.approx(rho1)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": 8, "lambda_nodes": 16,
                               "lambda_min": 0.2, "lambda_max": 5.0}))
    code, report, _ = run(tmp_path, "ingham-verify", "--config", str(cfg),
                          "--kmax", "12")
    assert code == 0
    assert report["k_max"] == 12  # flag beats config
    # config beats default
    assert (report["lambda_min"], report["lambda_max"]) == (0.2, 5.0)


def test_unknown_config_key_refused(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["laguerre-check", "--config", str(cfg),
                 "--out", str(tmp_path / "x.json")]) == 2
    cfg.write_text("[]")
    assert main(["laguerre-check", "--config", str(cfg),
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["laguerre-check", "--config",
                 str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("file_cfg, message", [
    ({"n": "x"}, "n must be an integer"),
    ({"k_max": 3.7}, "k_max must be an integer"),
    ({"k_max": True}, "k_max must be an integer"),
    ({"lambda_min": "0.1"}, "lambda_min must be a finite number"),
    ({"theta": 3}, "theta must be a string"),
    ({"factors": [0.9, "a", 0.7, 0.6]}, "factors must be a finite number"),
    ({"factors": 0.9}, "factors must be a list of numbers"),
    ({"lambda_max": 10 ** 400}, "lambda_max must be a finite number"),
])
def test_config_value_of_wrong_type_refused(tmp_path, capsys, file_cfg, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    out = tmp_path / "never.json"
    assert main(["ingham-verify", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_config_null_is_unset(tmp_path):
    argv = ["ingham-verify", "--kmax", "10", "--lambda-min", "0.1",
            "--lambda-max", "10", "--lambda-nodes", "16"]
    code, plain, _ = run(tmp_path, *argv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": None, "theta": None, "k_max": None,
                               "out": None, "family": None}))
    code2, nulls, _ = run(tmp_path, *argv, "--config", str(cfg), out="null.json")
    assert code == code2 == 0
    assert nulls == plain
    # a null family leaves the command's own default in place
    cfg.write_text(json.dumps({"family": None, "max_power": None}))
    code3, report, _ = run(tmp_path, "carleman", "--config", str(cfg),
                           out="carl.json")
    assert code3 == 1 and report["family"] == "box" and report["M"] == 20
    code4, report, _ = run(tmp_path, "gamma-bound-check", "--theta",
                           "inv-sqrt-strong", "--config", str(cfg), out="g.json")
    assert code4 == 0 and report["max_power"] == 10


@pytest.mark.parametrize("argv, message", [
    (["dilate-check", "--dilation", "inf"], "dilation must be a finite number"),
    (["dilate-check", "--lambda-max", "inf"], "lambda_max must be a finite number"),
    (["dilate-check", "--lambda-min", "nan"], "lambda_min must be a finite number"),
    (["convolve-check", "--factors", "nan,0.8,0.7,0.6"],
     "factors must be a finite number"),
    (["convolve-check", "--factors", "0.9,x,0.7,0.6"], "cannot parse factors"),
    # each grid control names its own bound
    (["plancherel-check", "--lambda-nodes", "1"],
     "lambda_nodes must be at least 2, got 1"),
    (["plancherel-check", "--n", "0"], "n must be at least 1, got 0"),
    (["plancherel-check", "--kmax", "0"], "k_max must be at least 1, got 0"),
    # windows so narrow that their nodes tie, or only their logs do:
    # dilate-check refuses them as the grid does
    (["dilate-check", "--lambda-min", "1e300", "--lambda-max", "1.0000000000001e300",
      "--lambda-nodes", "8", "--dilation", "1.0000000000001"],
     "lambda nodes must be positive, ascending, nonzero"),
    (["dilate-check", "--lambda-min", "9.03e90", "--lambda-max", "9.030000000000005e90",
      "--lambda-nodes", "2", "--dilation", "1.0000000000001"],
     "lambda weights must be positive and match the nodes"),
])
def test_non_finite_option_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "never.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("option", ["out", "fixtures"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_empty_path_refused(tmp_path, monkeypatch, capsys, option, via):
    # an empty report path would write nothing and an empty fixtures
    # directory would read the packaged fixtures; both are refused up front
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = [_flag(option), ""]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({option: ""}))
        argv = ["--config", "cfg.json"]
    if option == "fixtures":
        argv += ["--out", "r.json"]
    assert main(["laguerre-check", "--kmax", "4", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"heisharm laguerre-check: refused: {option} must "
                            "name a path, got ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if via == "flag" else ["cfg.json"])


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_report_path_exits_2(tmp_path, capsys, target):
    # a report that cannot be written is a usage error, not a failed check
    out = tmp_path / "missing" / "r.json"
    if target == "directory":
        out = tmp_path / "taken"
        out.mkdir()
    assert main(["symmdiff-check", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("heisharm symmdiff-check: ")
    # the message names the report path, not the writer's temporary file
    assert str(out) in captured.err and ".tmp-" not in captured.err
    # nothing is left behind, not even the writer's temporary file
    left = [p.name for p in tmp_path.rglob("*")]
    assert left == (["taken"] if target == "directory" else [])


def test_written_files_get_the_mode_open_gives(tmp_path):
    # the writer's temporary file is created 0o666 & ~umask, like open()'s,
    # not 0o600
    umask = os.umask(0o022)
    try:
        (tmp_path / "plain.txt").write_text("x")
        write_json(tmp_path / "r.json", {"a": 1})
    finally:
        os.umask(umask)
    modes = [(tmp_path / name).stat().st_mode & 0o777
             for name in ("r.json", "plain.txt")]
    assert modes == [0o644, 0o644]


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "r.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "refused", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as info:
        write_json(target, {"a": 1})
    assert info.value.filename == str(target) and info.value.filename2 is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    assert target.read_text() == "old\n"


def test_temporary_name_collision_removes_nothing(tmp_path, monkeypatch):
    # a temporary name that already exists is refused by O_EXCL, and the
    # writer removes only a file it created
    monkeypatch.setattr(os, "urandom", lambda k: bytes(k))
    taken = tmp_path / (".tmp-" + bytes(8).hex())
    taken.write_text("someone else's\n")
    with pytest.raises(FileExistsError) as info:
        write_json(tmp_path / "r.json", {"a": 1})
    assert info.value.filename == str(tmp_path / "r.json")
    assert taken.read_text() == "someone else's\n"
    assert not (tmp_path / "r.json").exists()


_MEASURE = ("lambda_max must stay below {} at n = 1, where lam_log_w lam^2 "
            "of the lambda measure overflows; got {}")
# the square root of the largest double: the limit where the weights are <= 1
_ROOT = "1.34078e+154"
_FACTOR_COUNT = ("the factor count must stay below 2^63 = 9.22337e+18, where it "
                 "leaves int64; got {} at nu = (2k+n)|lam| up to {}")
_ZERO_COLUMN = ("the window must stay below lambda = {}, where the product of the "
                "two box tables underflows to 0 at every degree and "
                "max_column_error would divide by it; got lambda_max = {}")
_SUBNORMAL_COLUMN = ("the window must stay below lambda = {}, where the product of "
                     "the two box tables falls to {}, below the smallest normal "
                     "double, at every degree and max_column_error would divide "
                     "by it; got lambda_max = {}")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["plancherel-check", "--family", "gaussian",
                  "--lambda-max", "1e200"], _MEASURE.format(_ROOT, "1e+200"),
                 id="plancherel-gaussian"),
    pytest.param(["plancherel-check", "--family", "box", "--lambda-max", "1e200"],
                 _MEASURE.format(_ROOT, "1e+200"), id="plancherel-box"),
    pytest.param(["plancherel-check", "--lambda-max", "1e300"],
                 _MEASURE.format(_ROOT, "1e+300"), id="plancherel-both"),
    pytest.param(["carleman", "--family", "envelope", "--theta", "inv-sqrt",
                  "--lambda-max", "1e160"], _MEASURE.format(_ROOT, "1e+160"),
                 id="carleman"),
    pytest.param(["carleman", "--family", "envelope", "--lambda-max", "1e200"],
                 _MEASURE.format(_ROOT, "1e+200"), id="carleman-default-theta"),
    pytest.param(["carleman", "--family", "envelope", "--lambda-max", "1.35e154"],
                 _MEASURE.format(_ROOT, "1.35e+154"), id="carleman-past-limit"),
    # two nodes: the log weight of the top node is about 180, and the
    # product with lam^2 overflows though lam^2 does not
    pytest.param(["carleman", "--family", "envelope", "--lambda-max", "1e154",
                  "--lambda-nodes", "2"], _MEASURE.format("9.97275e+152", "1e+154"),
                 id="carleman-top-weight"),
    pytest.param(["plancherel-check", "--family", "gaussian", "--lambda-max",
                  "1e153", "--lambda-nodes", "2"],
                 _MEASURE.format("9.97275e+152", "1e+153"), id="plancherel-top-weight"),
    pytest.param(["ingham-verify", "--lambda-max", "1e307"],
                 "lambda_max must stay below 6.99491e+305 at k_max = 64, n = 1, "
                 "where nu = (2k+n)|lam| at k up to 2 k_max overflows; got 1e+307",
                 id="ingham-verify-nu"),
    pytest.param(["ingham-verify", "--theta", "inv-sqrt", "--lambda-max", "1e300"],
                 _FACTOR_COUNT.format("4.0039e+75", "2.57e+302"), id="ingham-verify"),
    # k runs to 2 k_max = 128 in the stability table, so nu = 257 lambda_max,
    # and the inv-sqrt count is about nu^(1/4)
    pytest.param(["ingham-verify", "--lambda-max", "3e73"],
                 _FACTOR_COUNT.format("9.37052e+18", "7.71e+75"),
                 id="ingham-verify-past-limit"),
    pytest.param(["ingham-verify", "--lambda-max", "1e12"],
                 "C = exp(max_log_q) overflows: max_log_q = 5445.46 is past "
                 "709.783, the log of the largest double", id="ingham-verify-C"),
    pytest.param(["carleman", "--family", "envelope", "--theta", "inv-sqrt",
                  "--lambda-min", "1e12", "--lambda-max", "1e13"],
                 "zero function: Carleman sums are degenerate", id="zero-function"),
    # where the dilated and target coefficients differ by more than the
    # largest double times the target's scale
    pytest.param(["dilate-check", "--n", "220", "--kmax", "3", "--lambda-nodes", "6",
                  "--lambda-min", "7.72e-47", "--lambda-max", "4e191"],
                 "report value max_rel_error is not finite", id="dilate-relative-error"),
    # the two box tables' product falls below the normal doubles in a whole
    # column, which max_column_error divides by: to a subnormal at lambda =
    # 7.8e77 (and to 0 at 8.8e83 and 1e90) in the first window, at the top
    # of the next two, and to 0 at every node of the far windows, whose
    # lambda t_top stays a double
    pytest.param(["convolve-check", "--lambda-max", "1e90"],
                 _SUBNORMAL_COLUMN.format("7.76507e+77", "4.87e-309", "1e+90"),
                 id="convolve-subnormal-column"),
    pytest.param(["convolve-check", "--lambda-max", "1e80"],
                 _SUBNORMAL_COLUMN.format("1e+80", "2.42e-317", "1e+80"),
                 id="convolve-subnormal-top-1e80"),
    pytest.param(["convolve-check", "--lambda-max", "1e81"],
                 _SUBNORMAL_COLUMN.format("1e+81", "1.35e-321", "1e+81"),
                 id="convolve-subnormal-top-1e81"),
    # tau1 just inside the limit of lambda_max tau1^2: the interval's sinc
    # leaves every column of the product subnormal
    pytest.param(["convolve-check", "--factors", "0.9,9.9e153,0.7,0.6"],
                 _SUBNORMAL_COLUMN.format("0.15", "1.66e-308", "1.8"),
                 id="convolve-subnormal-tau1"),
    pytest.param(["convolve-check", "--lambda-min", "1e307", "--lambda-max", "1.7e308"],
                 _ZERO_COLUMN.format("1e+307", "1.7e+308"), id="convolve-far-window"),
    pytest.param(["convolve-check", "--factors", "1,1,1,1", "--lambda-min", "1e307",
                  "--lambda-max", "1.55e308"],
                 _ZERO_COLUMN.format("1e+307", "1.55e+308"), id="convolve-below-t-top"),
    # the Gaussian's spatial norm (4 pi)^n, past n = 280, on a window whose
    # coefficients and measure stay doubles
    pytest.param(["plancherel-check", "--family", "gaussian", "--n", "300",
                  "--lambda-min", "2", "--lambda-max", "3"],
                 "the Gaussian's spatial norm overflows at n = 300: (pi sz^2)^n "
                 "passes the largest double", id="gaussian-norm"),
])
def test_non_finite_report_refused(tmp_path, monkeypatch, capsys, argv, message):
    # a window whose report would not be finite is refused with one line
    # that names the limit, and numpy warns of nothing
    code, out, err, caught = _quiet_run(tmp_path, monkeypatch, capsys, argv)
    assert (code, out, caught) == (2, "", [])
    assert err == f"heisharm {argv[0]}: refused: {message}\n"
    assert list(tmp_path.iterdir()) == []


_WIDTH = "factors {} must stay {} {}, where {}; got {}"
_EXTREME = [
    pytest.param(["dilate-check", "--dilation", "1e200"],
                 "dilation must stay below 1.15792e+77, where r^4 overflows; "
                 "got 1e+200", id="dilate-large"),
    pytest.param(["dilate-check", "--dilation", "1e-150"],
                 "dilation must stay above 8.63617e-78, where r^-4 overflows; "
                 "got 1e-150", id="dilate-small"),
    pytest.param(["dilate-check", "--n", "30", "--dilation", "1e-5"],
                 "dilation must stay above 1.06696e-05, where r^-62 overflows; "
                 "got 1e-05", id="dilate-n30"),
    # the Gaussians' closed forms: b = lam sz^2 with sz = 2 at the top of the
    # window, (4 pi sz^2/(2 + b))^n at its bottom, for the source and for the
    # target, whose width is sz / r, and the source times r^-(2n+2)
    pytest.param(["dilate-check", "--lambda-max", "5e307"],
                 "lambda_max must stay below 4.49423e+307, where b = lambda_max "
                 "sz^2 overflows; got 5e+307", id="dilate-b"),
    pytest.param(["dilate-check", "--dilation", "0.5", "--lambda-max", "3e307"],
                 "lambda_max must stay below 1.12356e+307, where b = lambda_max "
                 "(sz/r)^2 overflows; got 3e+307", id="dilate-target-b"),
    pytest.param(["dilate-check", "--n", "221"],
                 "n must stay below 220.281 at lambda_min = 0.001, where "
                 "(4 pi sz^2/(2 + lambda_min sz^2))^n overflows; got 221",
                 id="dilate-n221"),
    pytest.param(["dilate-check", "--n", "30", "--dilation", "1.1e-5",
                  "--lambda-min", "1e-20"],
                 "n must stay below 26.3873 at lambda_min = 1e-20, where "
                 "(4 pi (sz/r)^2/(2 + lambda_min (sz/r)^2))^n (st/r^2) sqrt(2 pi) "
                 "overflows; got 30", id="dilate-target-n"),
    pytest.param(["dilate-check", "--n", "120", "--dilation", "0.1", "--lambda-min",
                  "1", "--lambda-max", "1e6", "--lambda-nodes", "2"],
                 "dilation must stay above 0.152296 at n = 120, where r^-242 times "
                 "the source coefficients it reads, up to 2.92191e+110, overflows; "
                 "got 0.1", id="dilate-source-times-r"),
    # a second ball so much wider than the first that the spatial side's
    # overlap angle loses the check's tolerance to rounding, long before its
    # u-sums overflow
    *(pytest.param(["convolve-check", "--factors", f"0.9,0.8,{rho2},0.6"],
                   "factors rho2 must stay below 1.90995e+06 (2.12217e+06 rho1), "
                   "where the spatial convolution's overlap angle arccos(gamma) "
                   f"loses the tolerance 0.001 to rounding; got {rho2}",
                   id=f"convolve-rho2-{rho2}")
      for rho2 in ("1.91e+06", "3e+84", "3e+85", "1e+86")),
    # convolve-check's window tops out at lambda_max = 1.8
    pytest.param(["convolve-check", "--factors", "1e300,1,1,1"],
                 _WIDTH.format("rho1", "below", "9.99359e+153",
                               "lambda_max rho1^2 overflows", "1e+300"),
                 id="convolve-rho1-1e300"),
    pytest.param(["convolve-check", "--factors", "1e200,0.8,0.7,0.6"],
                 _WIDTH.format("rho1", "below", "9.99359e+153",
                               "lambda_max rho1^2 overflows", "1e+200"),
                 id="convolve-rho1-1e200"),
    pytest.param(["convolve-check", "--factors", "0.9,1e200,0.7,0.6"],
                 _WIDTH.format("tau1", "below", "9.99359e+153",
                               "lambda_max tau1^2 overflows", "1e+200"),
                 id="convolve-tau1-1e200"),
    pytest.param(["convolve-check", "--factors", "0.9,1e-200,0.7,0.6"],
                 _WIDTH.format("tau1", "above", "2.22276e-162",
                               "tau1^2 underflows to 0", "1e-200"),
                 id="convolve-tau1-1e-200"),
    # and at lambda_min = 0.15 s^-1 = 1 / (lambda_min rho1^2) overflows
    pytest.param(["convolve-check", "--factors", "1e-300,1,1,1"],
                 _WIDTH.format("rho1", "above", "1.92574e-154",
                               "(lambda_min rho1^2)^-1 overflows", "1e-300"),
                 id="convolve-rho1-1e-300"),
    # the spatial side's prefactors: rho1^2 rho2^2, 1/(tau1^2 tau2^2) and
    # their quotient 1/(rho1^2 tau1^2 rho2^2 tau2^2)
    pytest.param(["convolve-check", "--factors", "1e100,1,1e60,1"],
                 _WIDTH.format("rho1", "below", "1.34078e+94",
                               "rho1^2 rho2^2 overflows", "1e+100"),
                 id="convolve-rho-product"),
    pytest.param(["convolve-check", "--factors", "1e40,1e-100,1e40,1e-70"],
                 _WIDTH.format("tau1", "above", "7.45834e-85",
                               "1/(tau1^2 tau2^2) overflows", "1e-100"),
                 id="convolve-tau-product"),
    pytest.param(["convolve-check", "--factors", "0.9,0.8,1e-100,1e-100"],
                 _WIDTH.format("rho1", "above", "9.32293e+45",
                               "1/(rho1^2 tau1^2 rho2^2 tau2^2) overflows", "0.9"),
                 id="convolve-width-quotient"),
    # plancherel-check's window is [1e-4, 100]
    pytest.param(["plancherel-check", "--family", "box", "--factors", "1e300,1,1,1"],
                 _WIDTH.format("rho1", "below", "1.34078e+153",
                               "lambda_max rho1^2 overflows", "1e+300"),
                 id="plancherel-rho1-1e300"),
    pytest.param(["plancherel-check", "--family", "box", "--factors", "1,1e200,1,1"],
                 _WIDTH.format("tau1", "below", "1.34078e+153",
                               "lambda_max tau1^2 overflows", "1e+200"),
                 id="plancherel-tau1-1e200"),
    pytest.param(["plancherel-check", "--family", "box", "--factors", "1e-300,1,1,1"],
                 _WIDTH.format("rho1", "above", "7.45834e-153",
                               "(lambda_min rho1^2)^-1 overflows", "1e-300"),
                 id="plancherel-rho1-1e-300"),
    # past n = 97, 2 x^n in the box's J recurrence overflows below the cap
    # x = 1490.3 from which every row is zero (and the incomplete gamma's
    # series y^n, y = x/2, with it at n = 150)
    pytest.param(["plancherel-check", "--family", "box", "--n", "150",
                  "--lambda-min", "0.1", "--lambda-max", "60", "--factors", "1,1,1,1"],
                 _WIDTH.format("rho1", "below", "0.457794",
                               "2 x^150 at x = lambda_max rho1^2 a^2/2 overflows", "1"),
                 id="plancherel-box-power-n150"),
    pytest.param(["plancherel-check", "--family", "both", "--n", "98",
                  "--lambda-min", "1", "--factors", "5,1,1,1"],
                 _WIDTH.format("rho1", "below", "1.53003",
                               "2 x^98 at x = lambda_max rho1^2 a^2/2 overflows", "5"),
                 id="plancherel-box-power-n98"),
    # the cosine transform's lambda t up to the spatial grid's top t
    pytest.param(["convolve-check", "--factors", "1,1,1,1", "--lambda-min", "1e307",
                  "--lambda-max", "1.7e308"],
                 "lambda_max must stay below 1.55087e+308 at t_top = 1.15915, where "
                 "lambda_max t_top of the cosine transform overflows; got 1.7e+308",
                 id="convolve-lambda-t-top"),
]


@pytest.mark.parametrize("argv, message", _EXTREME)
def test_extreme_widths_and_dilations_refused(tmp_path, monkeypatch, capsys,
                                              argv, message):
    # a width or dilation whose closed forms leave the finite nonzero
    # doubles is refused before numpy loads, with one line naming the limit
    code, out, err, caught = _quiet_run(tmp_path, monkeypatch, capsys, argv)
    assert (code, out, caught) == (2, "", [])
    assert err == f"heisharm {argv[0]}: refused: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_width_refusals_load_no_numpy(tmp_path, fresh_env):
    # every refusal above, in one fresh interpreter: numpy never loads
    script = ("import contextlib, io, json, sys\n"
              "import heisharm.cli\n"
              "with contextlib.redirect_stderr(io.StringIO()):\n"
              "    codes = [heisharm.cli.main([*argv, '--out', 'r.json'])\n"
              "             for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    argvs = [param.values[0] for param in _EXTREME]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          cwd=tmp_path, env=fresh_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[2] * len(argvs), False]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    # convolve-check's fixed spatial grid does not resolve a ball a thousand
    # times wider than the other: max_column_error reads 8.6 and 10.1 at a
    # ratio of 1000 and 1.0 at 1e150 and 1.9e6, where max_rel_error stays
    # under the tolerance
    (["convolve-check", "--factors", "1e150,0.8,0.7,0.6"], 1),
    (["convolve-check", "--factors", "0.9,0.8,1000,0.6"], 1),
    (["convolve-check", "--factors", "1000,0.8,0.7,0.6"], 1),
    (["plancherel-check", "--family", "box", "--factors", "1,1e-150,1,1"], 1),
    (["dilate-check", "--dilation", "1e76", "--lambda-min", "1e-300",
      "--lambda-max", "1e300"], 1),
    (["dilate-check", "--lambda-max", "4e307"], 1),
    (["dilate-check", "--n", "220"], 0),
    (["convolve-check", "--factors", "0.9,0.8,1.9e6,0.6"], 1),
    # just inside dilate-check's limits on the target's b and prefactor and
    # on the source times r^-(2n+2)
    (["dilate-check", "--dilation", "0.5", "--lambda-max", "1.1e307"], 1),
    (["dilate-check", "--n", "26", "--dilation", "1.1e-5", "--lambda-min", "1e-20"], 1),
    (["dilate-check", "--n", "120", "--dilation", "0.153", "--lambda-min", "1",
      "--lambda-max", "1e6", "--lambda-nodes", "2"], 1),
    # just inside the box forms' limits on rho^2, tau^2 and rho^-n / tau,
    # and on rho^2 for each ball of the convolution (just inside its limit on
    # tau1^2 the product's columns are subnormal, and refused below)
    (["plancherel-check", "--family", "box", "--factors", "1.3e153,1,1,1"], 1),
    (["plancherel-check", "--family", "box", "--factors", "1,1.3e153,1,1"], 1),
    (["plancherel-check", "--family", "box", "--factors", "7.5e-153,1,1,1"], 1),
    (["convolve-check", "--factors", "9.9e153,1,1,1"], 1),
    # and just inside the spatial side's limits on rho1^2 rho2^2 and
    # 1/(tau1^2 tau2^2)
    (["convolve-check", "--factors", "1.3e94,1,1e60,1"], 1),
    (["convolve-check", "--factors", "1e40,7.5e-85,1e40,1e-70"], 1),
    # the box past n = 76, where 2 x^n below the old cap x = 1e4 overflowed;
    # as --n 76 on the same window
    (["plancherel-check", "--family", "box", "--n", "77", "--lambda-min", "1e-3",
      "--lambda-max", "6000"], 1),
    (["plancherel-check", "--family", "box", "--n", "77", "--lambda-min", "1e-3",
      "--factors", "10,1,1,1"], 1),
    (["plancherel-check", "--family", "box", "--n", "76", "--lambda-min", "1e-3",
      "--lambda-max", "6000"], 1),
    # just inside the limits of 2 x^n at n = 150 and 98, and of the product
    # of the two box tables, whose smallest column is 8.2e-306 here, a normal
    # double; the spatial side does not resolve that column, so it exits 1
    (["plancherel-check", "--family", "box", "--n", "150", "--lambda-min", "0.1",
      "--lambda-max", "60", "--factors", "0.4577,1,1,1"], 1),
    (["plancherel-check", "--family", "both", "--n", "98", "--lambda-min", "1",
      "--factors", "1.53,1,1,1"], 1),
    (["convolve-check", "--lambda-max", "1e77"], 1),
])
def test_widths_inside_the_limits_run_quietly(tmp_path, monkeypatch, capsys,
                                              argv, code):
    got, _, err, caught = _quiet_run(tmp_path, monkeypatch, capsys, argv)
    assert (got, err, caught) == (code, "", [])
    assert (tmp_path / "r.json").exists()


def test_window_below_the_measure_limit_runs(tmp_path, monkeypatch, capsys):
    code, _, err, caught = _quiet_run(tmp_path, monkeypatch, capsys, [
        "carleman", "--family", "envelope", "--lambda-max", "1.34e154"])
    assert (code, err, caught) == (0, "", [])
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is True


def test_dilate_check_far_window_runs_quietly(tmp_path, monkeypatch, capsys):
    # (lam sigma_t)^2 overflows past about 1e154, and the Gaussian's
    # transform there is exp(-inf) = 0: the run completes without a warning
    code, _, err, caught = _quiet_run(tmp_path, monkeypatch, capsys,
                                      ["dilate-check", "--lambda-max", "1e300"])
    assert (code, err, caught) == (1, "", [])
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is False


def _overflow(n, step):
    return (f"heisharm plancherel-check: refused: the Plancherel norm overflows "
            f"at n = {n}: {step} passes the largest double\n")


_FAR_WINDOW = ["--lambda-min", "1e-6", "--lambda-max", "1e-3"]


# plancherel-check --family gaussian: its flags, exit code and stderr
_GAUSSIAN_RUNS = [
    (["--n", "81"], 1, ""),
    # R_k^2 times the Hilbert-Schmidt weight overflows before the lambda
    # measure scales it down, though the norm itself would fit
    (["--n", "82"], 2, _overflow(82, "R_k(lam)^2 times the Hilbert-Schmidt weight")),
    (["--n", "215", *_FAR_WINDOW], 2, _overflow(215, "R_k(lam)^2")),
    # the table's prefactor overflows: Python's ** raises where numpy's pow
    # gives inf
    *[(["--n", n, *_FAR_WINDOW], 2, "heisharm plancherel-check: refused: "
       "coefficient values must be finite\n") for n in ("225", "240")],
    (["--n", "200"], 2, "heisharm plancherel-check: refused: lambda_max must stay "
     "below 34.1669 at n = 200, where lam_log_w lam^201 of the lambda measure "
     "overflows; got 100\n"),
    (["--n", "100", "--kmax", "100000", "--lambda-min", "1e-3", "--lambda-max", "1",
      "--lambda-nodes", "2"], 2,
     _overflow(100, "the Hilbert-Schmidt weight (k+n-1)!/(k!(n-1)!)")),
    # the column sums overflow, though no cell does
    (["--n", "82", "--kmax", "1024", "--lambda-min", "0.0128", "--lambda-max",
      "0.0129", "--lambda-nodes", "2"], 2,
     _overflow(82, "the sum against the lambda measure")),
]


@pytest.mark.parametrize("flags, code, err", _GAUSSIAN_RUNS,
                         ids=[" ".join(flags) for flags, _, _ in _GAUSSIAN_RUNS])
def test_gaussian_plancherel_overflow_refused_quietly(tmp_path, monkeypatch, capsys,
                                                       flags, code, err):
    # the float path and the numpy path give the same exit code and line,
    # and neither warns
    for path in (gaussian_plancherel, gaussian_plancherel_numpy):
        monkeypatch.setattr(heisharm._gaussian, "gaussian_plancherel", path)
        got, _, stderr, caught = _quiet_run(tmp_path, monkeypatch, capsys, [
            "plancherel-check", "--family", "gaussian", *flags])
        assert (got, stderr, caught) == (code, err, [])
        assert (tmp_path / "r.json").exists() == (code == 1)


def test_non_finite_report_value_refused(tmp_path, capsys, monkeypatch):
    # the last guard: a report value that is not finite is refused before
    # anything is written
    handler = lambda cfg: ({"rows": [{"x": 1.0}, {"x": float("nan")}]}, "")
    monkeypatch.setitem(_COMMANDS, "symmdiff-check",
                        (handler, *_COMMANDS["symmdiff-check"][1:]))
    out = tmp_path / "r.json"
    assert main(["symmdiff-check", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("heisharm symmdiff-check: refused: report value "
                            "rows[1].x is not finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", HeisharmError.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_every_library_error_is_refused(tmp_path, capsys, monkeypatch, error):
    # one clause refuses every HeisharmError with exit 2, whatever raises it
    def handler(cfg):
        raise error("raised by the handler")
    monkeypatch.setitem(_COMMANDS, "symmdiff-check",
                        (handler, *_COMMANDS["symmdiff-check"][1:]))
    out = tmp_path / "r.json"
    assert main(["symmdiff-check", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("heisharm symmdiff-check: refused: raised by the "
                            "handler\n")
    assert not out.exists()


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _fuzz_value(rng, name):
    """A value of the option name: a width or dilation near 1 or anywhere
    in 1e-300..1e300, n up to the box's 170, counts past their limits, and
    degrees up to 1024 and lambda node counts up to 2048."""
    width = lambda: repr(_log_uniform(rng, 0.1, 10.0) if rng.random() < 0.5
                         else _log_uniform(rng, 1e-300, 1e300))
    draws = {
        "n": lambda: rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(1, 170),
        "k_max": lambda: (rng.randint(1, 128) if rng.random() < 0.9
                          else rng.randint(129, 1024)),
        "lambda_nodes": lambda: (rng.randint(2, 64) if rng.random() < 0.8
                                 else rng.randint(65, 2048)),
        "factors": lambda: ",".join(width() for _ in range(4)),
        "dilation": width,
        "max_power": lambda: rng.randint(1, 40),
        "chain_length": lambda: rng.randint(1, 1100),
        "theta": lambda: rng.choice(sorted(BUILTIN_THETAS)),
    }
    return str(draws[name]())


def _fuzz_argv(rng):
    """A command, one of its families, and a random subset of the options
    it reads with random values; a lambda window anywhere in
    1e-300..1.7e308, narrow or wide.  fixtures keeps the packaged ones."""
    command = rng.choice(sorted(_COMMANDS))
    reads = _COMMANDS[command][2]
    argv = [command]
    if isinstance(reads, dict):
        family = rng.choice(sorted(reads))
        argv += ["--family", family]
        reads = reads[family]
    for name in reads:
        if name not in ("fixtures", "lambda_min", "lambda_max") and rng.random() < 0.6:
            argv += [_flag(name), _fuzz_value(rng, name)]
    if "lambda_max" in reads and rng.random() < 0.6:
        lo = _log_uniform(rng, 1e-300, 1.7e308)
        hi = (min(1.7e308, lo * _log_uniform(rng, 1.5, 1e4)) if rng.random() < 0.5
              else _log_uniform(rng, 1e-300, 1.7e308))
        lo, hi = sorted((lo, hi))
        argv += ["--lambda-min", repr(lo), "--lambda-max", repr(hi)]
    return argv


_FUZZ_RUNS = 300
_FUZZ_FIXED = [
    ["plancherel-check", "--family", "box", "--n", "77", "--lambda-min", "1e-3",
     "--lambda-max", "6000"],
    ["convolve-check", "--lambda-max", "1e90"],
]


# the commands that run a path on Python floats: (the path, its numpy oracle)
_FLOAT_PATHS = {"dilate-check": (dilation_gap, dilation_gap_numpy),
                "plancherel-check": (gaussian_plancherel, gaussian_plancherel_numpy)}


def test_fuzzed_command_lines_exit_cleanly(tmp_path, monkeypatch, capsys):
    # seeded command lines over the typed option space, in process: each
    # exits 0 or 1 with a report and a quiet stderr, or 2 with one stderr
    # line and no report, and numpy warns of nothing.  A dilate-check line
    # or plancherel-check line is run again with dilation_gap_numpy or
    # gaussian_plancherel_numpy in place of the float path, which must give
    # its exit code and line
    rng = random.Random(40)
    faults = []
    for argv in _FUZZ_FIXED + [_fuzz_argv(rng) for _ in range(_FUZZ_RUNS)]:
        code, _, err, caught = _quiet_run(tmp_path, monkeypatch, capsys, argv)
        stderr_ok = (err == "" if code in (0, 1) else
                     code == 2 and err.endswith("\n") and err.count("\n") == 1)
        if caught or not stderr_ok or (tmp_path / "r.json").exists() != (code != 2):
            faults.append((argv, code, err, [str(w.message) for w in caught]))
        swap = _FLOAT_PATHS.get(argv[0])
        if swap:
            monkeypatch.setattr(heisharm._gaussian, swap[0].__name__, swap[1])
            again = _quiet_run(tmp_path, monkeypatch, capsys, argv)
            monkeypatch.setattr(heisharm._gaussian, swap[0].__name__, swap[0])
            if (again[0], again[2]) != (code, err):
                faults.append((argv, code, err, again[0], again[2]))
        for path in tmp_path.iterdir():
            path.unlink()
    assert faults == []


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_module(stem):
    """perfbench/<stem>.py, executed from its source so that nothing is
    written under perfbench/."""
    path = _PERFBENCH / f"{stem}.py"
    module = types.ModuleType(f"perfbench_{stem}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


_WORKLOADS = _benchmark_module("workloads")
_OUTCOME = _benchmark_module("outcome")


@pytest.mark.parametrize("entry", [e for e in _WORKLOADS.all_entries()
                                   if not e["calibrate"]],
                         ids=lambda e: e["id"])
def test_benchmark_entry_resolves(tmp_path, entry):
    # every benchmark op parses and resolves to a config, without running:
    # a CLI change that would fail an op fails here first
    argv = _WORKLOADS.op_argv(entry, str(tmp_path / "r.json"), str(tmp_path),
                              str(tmp_path / "fixtures"))
    cfg = _resolve_config(*_parse_args(argv))
    assert cfg.command == argv[0] and cfg.out == str(tmp_path / "r.json")


_DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def _numpy_build():
    """numpy's version and the SIMD extensions its dispatch found on this
    host: report bytes are per build and per host."""
    return {"numpy": np.__version__,
            "simd": np.__config__.CONFIG["SIMD Extensions"]["found"]}


def _digest_menu():
    """(name, argv without --out) of every pinned run: the benchmark's
    non-calibration entries, table profiles and fixtures filled in as the
    benchmark fills them, and ingham-plan's float-path plans."""
    from test_special import _PLANS
    menu = [(e["id"], _WORKLOADS.op_argv(e, "", "{profiles}",
                                         str(packaged_fixtures_dir()))[:-2])
            for e in _WORKLOADS.all_entries() if not e["calibrate"]]
    return menu + [(" ".join(argv), argv) for argv in _PLANS]


def test_reports_match_their_pinned_digests(tmp_path):
    # every pinned run, in process: its exit code and the sha256 of each
    # file it writes, against tests/report_digests.json.  A change that
    # moves a report's bytes updates that file in the same commit, and the
    # diff shows which runs moved.  calibrate.run_all is pinned byte for
    # byte by test_run_all_reproduces_packaged_fixtures
    pinned = json.loads(_DIGESTS.read_text())
    if pinned["build"] != _numpy_build():
        pytest.skip(f"digests are pinned for {pinned['build']}; this host "
                    f"runs {_numpy_build()}")
    _WORKLOADS.write_profiles(str(tmp_path))
    got = {}
    for i, (name, argv) in enumerate(_digest_menu()):
        out = tmp_path / f"run{i}"
        out.mkdir()
        argv = [a.replace("{profiles}", str(tmp_path)) for a in argv]
        code = main([*argv, "--out", str(out / "report.json")])
        got[name] = {"exit": code, "files": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}}
    moved = {name: run for name, run in got.items()
             if pinned["runs"].get(name) != run}
    assert sorted(got) == sorted(pinned["runs"]), "the menu changed"
    assert moved == {}, "moved runs and their new digests:\n" + json.dumps(
        moved, indent=1, sort_keys=True)


@pytest.mark.parametrize("entry", [e for e in _WORKLOADS.all_entries()
                                   if e["kind"] == "convolve"],
                         ids=lambda e: e["id"])
def test_convolve_check_meets_benchmark_reference(tmp_path, entry):
    # the benchmark's own check of a convolve-check op, run in-process: a
    # change that moves a headline past the benchmark's tolerance, or the
    # exit status, fails here first
    refs = json.loads((_PERFBENCH / "references.json").read_text())
    out_dir = tmp_path / "op"
    out_dir.mkdir()
    argv = _WORKLOADS.op_argv(entry, str(out_dir / "report.json"),
                              str(tmp_path), str(tmp_path / "fixtures"))
    got = _OUTCOME.outcome(entry, main(argv), str(out_dir))
    assert _OUTCOME.check(got, refs[entry["id"]]) == []


@pytest.mark.parametrize("entry", [e for e in _WORKLOADS.all_entries()
                                   if e["argv"][:1] in (["ingham-plan"],
                                                        ["ingham-verify"])],
                         ids=lambda e: e["id"])
def test_chain_meets_benchmark_reference(tmp_path, entry):
    # the benchmark's own check of an ingham-plan or ingham-verify op, run
    # in-process on the packaged fixtures, which the benchmark's calibration
    # op reproduces
    refs = json.loads((_PERFBENCH / "references.json").read_text())
    _WORKLOADS.write_profiles(str(tmp_path))
    out_dir = tmp_path / "op"
    out_dir.mkdir()
    argv = _WORKLOADS.op_argv(entry, str(out_dir / "report.json"),
                              str(tmp_path), str(packaged_fixtures_dir()))
    got = _OUTCOME.outcome(entry, main(argv), str(out_dir))
    assert _OUTCOME.check(got, refs[entry["id"]]) == []


@pytest.mark.parametrize("command", ["ingham-plan", "ingham-verify"])
def test_chain_length_limit(tmp_path, capsys, command):
    small = ["--kmax", "8", "--lambda-min", "0.1", "--lambda-max", "10",
             "--lambda-nodes", "8"] if command == "ingham-verify" else []
    code, report, _ = run(tmp_path, command, "--chain-length", "1074", *small)
    assert code == 0 and report["pass"] is True
    capsys.readouterr()
    code, _, _ = run(tmp_path, command, "--chain-length", "1075", out="never.json")
    assert code == 2
    assert "at most 1074 factors" in capsys.readouterr().err


def test_reports_identical_across_dispatches(tmp_path):
    argv = ["ingham-verify", "--kmax", "10", "--lambda-min", "0.1",
            "--lambda-max", "10", "--lambda-nodes", "16"]
    blobs = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        assert main([*argv, "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    # the worker-count option is gone, as flag and as config key
    assert main([*argv, "--threads", "2",
                 "--out", str(tmp_path / "x.json")]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    assert main([*argv, "--config", str(cfg),
                 "--out", str(tmp_path / "x.json")]) == 2


def test_fixtures_dir_override(tmp_path):
    fxdir = tmp_path / "fx"
    shutil.copytree(packaged_fixtures_dir(), fxdir)
    fx = json.loads((fxdir / "box_factor_envelope.json").read_text())
    fx["c_n"]["1"] = 0.01  # sabotage: far below the calibrated constant
    (fxdir / "box_factor_envelope.json").write_text(json.dumps(fx))
    code, report, _ = run(tmp_path, "ingham-plan", "--fixtures", str(fxdir))
    assert code == 1
    assert report["factor_bound"]["violations"] > 0


def test_ingham_verify_names_the_fixture_constant(tmp_path):
    # the report's c_n is the constant read from --fixtures, not the
    # packaged one
    fxdir = tmp_path / "fx"
    shutil.copytree(packaged_fixtures_dir(), fxdir)
    path = fxdir / "box_factor_envelope.json"
    fx = json.loads(path.read_text())
    packaged = fx["c_n"]["1"]
    fx["c_n"]["1"] = 1.5 * packaged
    path.write_text(json.dumps(fx))
    small = ["--kmax", "8", "--lambda-min", "0.1", "--lambda-max", "10",
             "--lambda-nodes", "8"]
    code, report, _ = run(tmp_path, "ingham-verify", *small)
    assert code == 0 and report["c_n"] == packaged
    code, report, _ = run(tmp_path, "ingham-verify", *small,
                          "--fixtures", str(fxdir), out="scaled.json")
    assert code == 0 and report["c_n"] == 1.5 * packaged


# tamper -> (fixture, command that reads it, part of the refusal line)
_GATE_CASES = {
    # a fixture of an 18-point grid: one dimension and one lambda, degrees
    # 0 to 5, three radii
    "shrunk-grid": ("lemma21_constants.json", "laguerre-check",
                    "records k_max = 5, not 200 of this package's calibration grid"),
    "no-dims": ("lemma21_constants.json", "laguerre-check",
                "records dims = None, not [1, 2, 3] of this package's calibration grid"),
    "no-C_fit": ("lemma21_constants.json", "laguerre-check",
                 "holds C_fit = None, not a positive finite number"),
    "text-c_n": ("box_factor_envelope.json", "ingham-plan",
                 "holds c_n.1 = 'abc', not a positive finite number"),
    "not-json": ("box_factor_envelope.json", "ingham-plan", "is not valid JSON"),
    "not-object": ("box_factor_envelope.json", "ingham-plan", "holds no JSON object"),
}


@pytest.mark.parametrize("tamper", list(_GATE_CASES))
def test_fixture_grid_record_gate(tmp_path, capsys, tamper):
    name, command, says = _GATE_CASES[tamper]
    fxdir = tmp_path / "fx"
    shutil.copytree(packaged_fixtures_dir(), fxdir)
    assert run(tmp_path, command, "--fixtures", str(fxdir))[0] == 0
    capsys.readouterr()
    path = fxdir / name
    fx = json.loads(path.read_text())
    if tamper == "shrunk-grid":
        fx.update(dims=[1], lambdas=[1.0], k_max=5, radii_nodes=3)
    elif tamper in ("no-dims", "no-C_fit"):
        del fx[tamper[3:]]
    elif tamper == "text-c_n":
        fx["c_n"]["1"] = "abc"
    path.write_text({"not-json": "{", "not-object": "[1]"}.get(tamper, json.dumps(fx)))
    code, _, out = run(tmp_path, command, "--fixtures", str(fxdir),
                       out="tampered.json")
    err = capsys.readouterr().err
    assert (code, err.count("\n"), out.exists()) == (2, 1, False)
    assert err.startswith(f"heisharm {command}: refused: calibration fixture "
                          f"{str(path)!r} ")
    assert says in err


@pytest.mark.parametrize("command", ["ingham-plan", "ingham-verify"])
def test_uncalibrated_dimension_names_the_calibrated_ones(tmp_path, capsys,
                                                         command):
    code, _, path = run(tmp_path, command, "--n", "4")
    assert (code, path.exists()) == (2, False)
    assert capsys.readouterr().err == (
        f"heisharm {command}: refused: no calibrated factor-bound constant "
        "for n=4; the calibration covers n = 1, 2, 3\n")
