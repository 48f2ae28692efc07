"""Calibration reproduces the packaged fixtures."""

import os
import subprocess
import sys

import pytest

import heisharm
from heisharm.calibrate import run_all
from heisharm.fixtures import load_fixture

FIXTURES = ("lemma21_constants.json", "box_factor_envelope.json",
            "chain_gap_constants.json")


def _assert_same(new, old, where):
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), where
        for key in old:
            _assert_same(new[key], old[key], f"{where}/{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_same(a, b, f"{where}[{i}]")
    elif isinstance(old, float):
        assert new == pytest.approx(old, rel=1e-12, abs=0.0), where
    else:
        assert new == old, where


def test_run_all_reproduces_packaged_fixtures(tmp_path):
    out = tmp_path / "new"  # does not exist yet: run_all creates it
    run_all(out_dir=out)
    for name in FIXTURES:
        new = load_fixture(name, out)
        old = load_fixture(name)
        assert new["grid_hash"] == old["grid_hash"]
        _assert_same(new, old, name)


def test_package_import_leaves_calibrate_unloaded():
    # a fresh interpreter: this test process has imported heisharm.calibrate
    # already.  The package must not import it eagerly, or
    # ``python -m heisharm.calibrate`` finds it in sys.modules and warns;
    # importing the module itself still works.
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.abspath(heisharm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, heisharm\n"
            "assert 'heisharm.calibrate' not in sys.modules\n"
            "from heisharm.calibrate import envelope_check\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
