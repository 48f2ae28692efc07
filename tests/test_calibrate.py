"""Calibration reproduces the packaged fixtures."""

import hashlib
import subprocess
import sys
from pathlib import Path

from heisharm import fixtures
from heisharm.calibrate import run_all
from heisharm.fixtures import packaged_fixtures_dir

FIXTURES = ("lemma21_constants.json", "box_factor_envelope.json",
            "chain_gap_constants.json")


def test_run_all_reproduces_packaged_fixtures(tmp_path):
    out = tmp_path / "new"  # does not exist yet: run_all creates it
    run_all(out_dir=out)
    # byte for byte: no stored value passes through an eigensolver (the
    # Gauss-Legendre rule, grids.roots_legendre, runs only in calibrate_cn's
    # quadrature cross-check), so a rerun has no LAPACK rounding to absorb
    for name in FIXTURES:
        packaged = Path(packaged_fixtures_dir(), name).read_bytes()
        assert (out / name).read_bytes() == packaged, name


def _grid_hash(*parts):
    return hashlib.sha256(";".join(repr(p) for p in parts).encode()).hexdigest()[:16]


def test_grid_hashes_cover_the_grid_constants():
    # the package records each hash as a constant, so that loading a fixture
    # needs no digest; here they are recomputed from the grid constants
    f = fixtures
    assert f.GRID_HASHES == {
        "lemma21_constants.json": _grid_hash(
            f.ENVELOPE_K_MAX, f.ENVELOPE_LAMBDAS, f.ENVELOPE_DIMS,
            f.ENVELOPE_RADII_NODES, f.ENVELOPE_RADII_RANGE),
        "box_factor_envelope.json": _grid_hash(
            f.FACTOR_DIMS, f.FACTOR_K_MAX, f.FACTOR_S_NODES, f.FACTOR_S_RANGE),
        "chain_gap_constants.json": _grid_hash(
            f.CHAIN_GAP_THETA, f.CHAIN_GAP_J, f.CHAIN_GAP_K_PROBE,
            *f.CHAIN_GAP_GRID.values()),
    }


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
