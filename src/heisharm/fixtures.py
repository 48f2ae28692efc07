"""Access to calibrated constants shipped with the package.

Fixtures are JSON files produced by the calibration entry point
(python -m heisharm.calibrate); each records a hash of the calibration grid
that produced it.  The grid constants and their hashes live here, so every
load checks the recorded hash against the grid this package calibrates on
and refuses a fixture from any other grid.  An explicit directory (CLI flag
--fixtures) overrides the packaged copies.
"""

import os

import numpy as np

from .errors import DomainError
from .jsonio import read_json

__all__ = ["packaged_fixtures_dir", "load_fixture", "calibration_grid"]

# envelope calibration grid: all degrees to ENVELOPE_K_MAX, five lambda
# decades, 400 radii (origin + log-spaced over the range), three dimensions
ENVELOPE_K_MAX = 200
ENVELOPE_LAMBDAS = (1e-2, 1e-1, 1.0, 1e1, 1e2)
ENVELOPE_DIMS = (1, 2, 3)
ENVELOPE_RADII_NODES = 400
ENVELOPE_RADII_RANGE = (1e-3, 300.0)

# factor-bound calibration grid: degrees, s nodes and s range per dimension
FACTOR_DIMS = (1, 2, 3)
FACTOR_K_MAX = 200
FACTOR_S_NODES = 120
FACTOR_S_RANGE = (1e-9, 1e3)

# chain-gap probe: the reference chain and the spectral grid it is read on
CHAIN_GAP_THETA = "inv-sqrt"
CHAIN_GAP_J = 16
CHAIN_GAP_K_PROBE = 12
CHAIN_GAP_GRID = {"k_max": 64, "lambda_min": 1e-3, "lambda_max": 1e3,
                  "lambda_nodes": 128}


# the first 16 hex digits of the sha256 of each grid's constants, joined
# by ";" as their reprs in the order the fixture's calibration reads them,
# recorded here so that loading a fixture computes no digest; change them
# with the constants (tests/test_calibrate.py recomputes them) and rerun
# the calibration
GRID_HASHES = {
    "lemma21_constants.json": "1199a72dcc8683a0",
    "box_factor_envelope.json": "8304b7e31ea3de08",
    "chain_gap_constants.json": "3270dbb54515680f",
}


def calibration_grid(s_nodes=FACTOR_S_NODES):
    """Shared (k, s) sampling for calibrating and validating the factor
    envelope: all degrees up to FACTOR_K_MAX, and s_nodes of s = lam rho^2
    log-spaced across the lam in [1e-3, 1e3], rho in [1e-3, 1] product range."""
    return np.arange(FACTOR_K_MAX + 1), np.geomspace(*FACTOR_S_RANGE, s_nodes)


def packaged_fixtures_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fixture(name, fixtures_dir=None):
    if name not in GRID_HASHES:
        raise DomainError(f"unknown calibration fixture {name!r}")
    path = os.path.join(fixtures_dir or packaged_fixtures_dir(), name)
    try:
        obj = read_json(path)
    except OSError as exc:
        raise DomainError(
            f"missing calibration fixture {path!r}; run "
            "'python -m heisharm.calibrate' to regenerate") from exc
    except ValueError as exc:
        raise DomainError(f"calibration fixture {path!r} is not valid JSON: "
                          f"{exc}") from exc
    recorded = obj.get("grid_hash") if isinstance(obj, dict) else None
    if recorded != GRID_HASHES[name]:
        raise DomainError(
            f"calibration fixture {path!r} records grid_hash {recorded!r}, "
            f"not {GRID_HASHES[name]!r} of this package's calibration grid; "
            "run 'python -m heisharm.calibrate' to regenerate")
    return obj
