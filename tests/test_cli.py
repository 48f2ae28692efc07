"""CLI contract: exit codes, config precedence, reports, determinism."""

import json
import shutil

import numpy as np
import pytest

from heisharm.cli import _COMMANDS, _NAMES, RunConfig, main
from heisharm.errors import HypothesisError, TailError
from heisharm.fixtures import packaged_fixtures_dir


def run(tmp_path, name, *argv, out="r.json"):
    path = tmp_path / out
    code = main([name, "--out", str(path), *argv])
    report = json.loads(path.read_text()) if path.exists() else None
    return code, report, path


def test_laguerre_check_passes(tmp_path, capsys):
    code, report, _ = run(tmp_path, "laguerre-check")
    assert code == 0
    assert report["pass"] is True
    assert set(report["gram"]["defects"]) == {"0", "1", "2", "3"}
    assert report["gram"]["max_defect"] <= 1e-8
    assert report["envelope"]["violations"] == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("laguerre-check:") and line.endswith("pass=true")


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


def _flags(options):
    argv = []
    for name, value in options.items():
        argv.append("--kmax" if name == "k_max" else "--" + name.replace("_", "-"))
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
    assert sorted(report) == ["C", "argmax", "k_max", "lambda_range",
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


def test_gamma_bound_check_paths(tmp_path):
    # the default profile sits below the hypothesis threshold
    assert main(["gamma-bound-check", "--out",
                 str(tmp_path / "g.json")]) == 2
    code, report, _ = run(tmp_path, "gamma-bound-check",
                          "--theta", "inv-sqrt-strong")
    assert code == 0
    assert report["M"] == 10
    assert all(r["ratio"] <= 1.0 for r in report["rows"])


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
    assert "max_power must be a positive integer" in capsys.readouterr().err


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
    assert report["max_rel_error"] <= report["tol"]
    assert report["oracle_samples"] >= 500


def test_dilate_check(tmp_path):
    code, report, _ = run(tmp_path, "dilate-check", "--lambda-nodes", "160")
    assert code == 0
    assert report["dilation"] == pytest.approx(1.4)
    assert report["max_rel_error"] <= report["tol"]


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


def test_symmdiff_check(tmp_path, capsys):
    code, report, _ = run(tmp_path, "symmdiff-check")
    assert code == 0
    assert [r["dim"] for r in report["rows"]] == [2, 4]
    assert all(r["bound_violations"] == 0 for r in report["rows"])
    assert report["rows"][0]["max_lens_error"] <= 1e-10
    assert "dim2_ratio=" in capsys.readouterr().out


def test_ingham_plan_report(tmp_path):
    code, report, _ = run(tmp_path, "ingham-plan", "--chain-length", "12")
    assert code == 0
    assert report["J"] == 12
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
    assert report["lambda_range"] == [0.2, 5.0]  # config beats default


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
    assert code4 == 0 and report["M"] == 10


@pytest.mark.parametrize("argv, message", [
    (["dilate-check", "--dilation", "inf"], "dilation must be a finite number"),
    (["dilate-check", "--lambda-max", "inf"], "lambda_max must be a finite number"),
    (["dilate-check", "--lambda-min", "nan"], "lambda_min must be a finite number"),
    (["convolve-check", "--factors", "nan,0.8,0.7,0.6"],
     "factors must be a finite number"),
    (["convolve-check", "--factors", "0.9,x,0.7,0.6"], "cannot parse factors"),
])
def test_non_finite_option_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "never.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


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
    # nothing is left behind, not even the writer's temporary file
    left = [p.name for p in tmp_path.rglob("*")]
    assert left == (["taken"] if target == "directory" else [])


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


@pytest.mark.parametrize("tamper", ["mismatch", "missing", "not-json"])
def test_fixture_grid_hash_gate(tmp_path, tamper):
    fxdir = tmp_path / "fx"
    shutil.copytree(packaged_fixtures_dir(), fxdir)
    assert run(tmp_path, "ingham-plan", "--fixtures", str(fxdir))[0] == 0
    path = fxdir / "box_factor_envelope.json"
    fx = json.loads(path.read_text())
    if tamper == "mismatch":
        fx["grid_hash"] = "0" * 16
    elif tamper == "missing":
        del fx["grid_hash"]
    path.write_text(json.dumps(fx) if tamper != "not-json" else "{")
    code, _, _ = run(tmp_path, "ingham-plan", "--fixtures", str(fxdir),
                     out="tampered.json")
    assert code == 2
