"""Calibration reproduces the packaged fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import heisharm
from heisharm.calibrate import run_all
from heisharm.fixtures import packaged_fixtures_dir

FIXTURES = ("lemma21_constants.json", "box_factor_envelope.json",
            "chain_gap_constants.json")


def test_run_all_reproduces_packaged_fixtures(tmp_path):
    out = tmp_path / "new"  # does not exist yet: run_all creates it
    run_all(out_dir=out)
    # byte for byte: no stored value passes through an eigensolver (numpy's
    # leggauss runs only in calibrate_cn's quadrature cross-check), so a
    # rerun has no LAPACK rounding to absorb
    for name in FIXTURES:
        packaged = Path(packaged_fixtures_dir(), name).read_bytes()
        assert (out / name).read_bytes() == packaged, name


def _fresh_env():
    """Environment for a fresh interpreter that imports this heisharm."""
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.abspath(heisharm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_package_import_leaves_calibrate_unloaded():
    # a fresh interpreter: this test process has imported heisharm.calibrate
    # already.  The package must not import it eagerly, or
    # ``python -m heisharm.calibrate`` finds it in sys.modules and warns;
    # importing the module itself still works.
    code = ("import sys, heisharm\n"
            "assert 'heisharm.calibrate' not in sys.modules\n"
            "from heisharm.calibrate import run_all\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr


def test_calibrate_module_refuses_arguments():
    # a help request or a mistyped flag prints the usage and writes nothing
    paths = [Path(packaged_fixtures_dir(), name) for name in FIXTURES]
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in paths]
    for flag, code, stream in (("--help", 0, "stdout"), ("--bogus", 2, "stderr")):
        proc = subprocess.run([sys.executable, "-m", "heisharm.calibrate", flag],
                              capture_output=True, text=True, env=_fresh_env())
        assert proc.returncode == code, (flag, proc.stderr)
        assert getattr(proc, stream).startswith("usage:"), flag
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in paths] == before
