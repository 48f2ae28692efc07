"""Calibration reproduces the packaged fixtures."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from heisharm.calibrate import run_all
from heisharm.cli import main
from heisharm.fixtures import GRIDS, load_fixture, packaged_fixtures_dir

FIXTURES = tuple(GRIDS)


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """The directory of one run_all, shared by the tests of this module."""
    out = tmp_path_factory.mktemp("calibrated") / "new"  # run_all creates it
    run_all(out_dir=out)
    return out


def test_run_all_reproduces_packaged_fixtures(calibrated):
    # byte for byte: no stored value passes through an eigensolver (the
    # Gauss-Legendre rule, grids.roots_legendre, runs only in calibrate_cn's
    # quadrature cross-check), so a rerun has no LAPACK rounding to absorb
    for name in FIXTURES:
        packaged = Path(packaged_fixtures_dir(), name).read_bytes()
        assert (calibrated / name).read_bytes() == packaged, name


def test_calibrated_fixtures_pass_the_gate(calibrated, tmp_path):
    # each fixture records the grid that load_fixture compares, and the
    # commands that read them run on the new directory
    for name in FIXTURES:
        load_fixture(name, calibrated)
    for command in ("laguerre-check", "ingham-plan"):
        assert main([command, "--fixtures", str(calibrated),
                     "--out", str(tmp_path / f"{command}.json")]) == 0


def test_chain_gap_fixture_with_the_retired_c3_still_loads(tmp_path):
    # fixtures calibrated when the ball term had a constant c3 = 1 of its
    # own keep loading: only C is read
    path = Path(packaged_fixtures_dir(), "chain_gap_constants.json")
    (tmp_path / path.name).write_text(json.dumps({**json.loads(path.read_text()),
                                                  "c3": 1.0}))
    fixture = load_fixture(path.name, tmp_path)
    assert fixture["C"] == load_fixture(path.name, None)["C"]


def test_package_import_leaves_calibrate_unloaded(fresh_env):
    # a fresh interpreter: this test process has imported heisharm.calibrate
    # already.  The package must not import it eagerly, or
    # ``python -m heisharm.calibrate`` finds it in sys.modules and warns;
    # importing the module itself still works.
    code = ("import sys, heisharm\n"
            "assert 'heisharm.calibrate' not in sys.modules\n"
            "from heisharm.calibrate import run_all\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env)
    assert proc.returncode == 0, proc.stderr


def test_calibrate_module_refuses_arguments(fresh_env):
    # a help request or a mistyped flag prints the usage and writes nothing
    paths = [Path(packaged_fixtures_dir(), name) for name in FIXTURES]
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in paths]
    for flag, code, stream in (("--help", 0, "stdout"), ("--bogus", 2, "stderr")):
        proc = subprocess.run([sys.executable, "-m", "heisharm.calibrate", flag],
                              capture_output=True, text=True, env=fresh_env)
        assert proc.returncode == code, (flag, proc.stderr)
        assert getattr(proc, stream).startswith("usage:"), flag
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in paths] == before
