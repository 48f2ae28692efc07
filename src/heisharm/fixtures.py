"""Access to calibrated constants shipped with the package.

Fixtures are JSON files produced by the calibration entry point
(python -m heisharm.calibrate); each records a hash of the calibration grid
that produced it.  The grid constants live here, so every load checks the
recorded hash against the grid this package calibrates on and refuses a
fixture from any other grid.  An explicit directory (CLI flag --fixtures)
overrides the packaged copies.
"""

import hashlib
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
                  "lambda_nodes": 128, "nodes_per_panel": 48}


def _grid_hash(*parts):
    return hashlib.sha256(";".join(repr(p) for p in parts).encode()).hexdigest()[:16]


GRID_HASHES = {
    "lemma21_constants.json": _grid_hash(ENVELOPE_K_MAX, ENVELOPE_LAMBDAS,
                                         ENVELOPE_DIMS, ENVELOPE_RADII_NODES,
                                         ENVELOPE_RADII_RANGE),
    "box_factor_envelope.json": _grid_hash(FACTOR_DIMS, FACTOR_K_MAX,
                                           FACTOR_S_NODES, FACTOR_S_RANGE),
    "chain_gap_constants.json": _grid_hash(CHAIN_GAP_THETA, CHAIN_GAP_J,
                                           CHAIN_GAP_K_PROBE,
                                           *CHAIN_GAP_GRID.values()),
}


def calibration_grid(k_max=FACTOR_K_MAX, s_nodes=FACTOR_S_NODES):
    """Shared (k, s) sampling for calibrating and validating the factor
    envelope: all degrees up to k_max, s = lam rho^2 log-spaced across the
    lam in [1e-3, 1e3], rho in [1e-3, 1] product range."""
    return np.arange(k_max + 1), np.geomspace(*FACTOR_S_RANGE, s_nodes)


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
