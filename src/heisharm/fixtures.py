"""Access to calibrated constants shipped with the package.

Fixtures are JSON files produced by the calibration entry point
(python -m heisharm.calibrate).  Each holds the constants calibrated on one
grid beside the fields of that grid, which this module states once, in
GRIDS.  Every load compares those fields with GRIDS and checks the
constants a command reads, so a fixture from another grid, or one lacking a
usable constant, is refused.  An explicit directory (CLI flag --fixtures)
overrides the packaged copies.

Loading a fixture needs no numpy; only the two grid builders import it, so
ingham-plan reads its constant and s nodes without the numeric stack.
"""

import math
import os
import sys

from .errors import DomainError
from .jsonio import read_json

__all__ = ["packaged_fixtures_dir", "load_fixture", "calibration_s_nodes",
           "calibration_grid", "envelope_radii"]

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
# margin of the frozen c_n over the calibration sup
CN_SAFETY = 1.1

# chain-gap probe: the reference chain and the spectral grid it is read on
CHAIN_GAP_THETA = "inv-sqrt"
CHAIN_GAP_J = 16
CHAIN_GAP_K_PROBE = 12
CHAIN_GAP_GRID = {"k_max": 64, "lambda_min": 1e-3, "lambda_max": 1e3,
                  "lambda_nodes": 128}


# each fixture's grid as it records it, beside the constants calibrated on
# it: the calibration writes these fields and every load compares them
GRIDS = {
    "lemma21_constants.json": {
        "k_max": ENVELOPE_K_MAX, "lambdas": list(ENVELOPE_LAMBDAS),
        "dims": list(ENVELOPE_DIMS), "radii_nodes": ENVELOPE_RADII_NODES,
        "radii_range": list(ENVELOPE_RADII_RANGE)},
    "box_factor_envelope.json": {
        "k_max": FACTOR_K_MAX, "s_nodes": FACTOR_S_NODES,
        "s_range": list(FACTOR_S_RANGE), "safety": CN_SAFETY},
    "chain_gap_constants.json": {
        "theta": CHAIN_GAP_THETA, "n": 1, "J": CHAIN_GAP_J,
        "k_probe_max": CHAIN_GAP_K_PROBE, "grid": CHAIN_GAP_GRID},
}

# the constants commands read from each fixture, as dotted key paths; each
# must be a positive finite number
_CONSTANTS = {
    "lemma21_constants.json": ("C_fit", "gamma_fit"),
    "box_factor_envelope.json": tuple(f"c_n.{n}" for n in FACTOR_DIMS),
    "chain_gap_constants.json": ("C", "c3"),
}


def calibration_s_nodes(count):
    """count floats s = lam rho^2 log-spaced across the lam in [1e-3, 1e3],
    rho in [1e-3, 1] product range: numpy.geomspace's formula
    10 ** (log10 lo + i step), with the endpoints exact."""
    lo, hi = FACTOR_S_RANGE
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (count - 1)
    return [lo, *(10.0 ** (i * step + start) for i in range(1, count - 1)), hi]


def calibration_grid(s_nodes=FACTOR_S_NODES):
    """Shared (k, s) sampling for calibrating and validating the factor
    envelope, as numpy arrays: all degrees up to FACTOR_K_MAX, and the
    s_nodes values of calibration_s_nodes."""
    import numpy as np
    return np.arange(FACTOR_K_MAX + 1), np.array(calibration_s_nodes(s_nodes))


def envelope_radii():
    """The envelope calibration radii: the origin, then log-spaced radii."""
    import numpy as np
    return np.concatenate(([0.0], np.geomspace(*ENVELOPE_RADII_RANGE,
                                               ENVELOPE_RADII_NODES - 1)))


def packaged_fixtures_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fixture(name, fixtures_dir=None):
    if name not in GRIDS:
        raise DomainError(f"unknown calibration fixture {name!r}")
    path = os.path.join(fixtures_dir or packaged_fixtures_dir(), name)
    regenerate = "; run 'python -m heisharm.calibrate' to regenerate"
    try:
        obj = read_json(path)
    except OSError as exc:
        raise DomainError(f"missing calibration fixture {path!r}"
                          + regenerate) from exc
    except ValueError as exc:
        raise DomainError(f"calibration fixture {path!r} is not valid JSON: "
                          f"{exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError(f"calibration fixture {path!r} holds no JSON object"
                          + regenerate)
    for key, value in GRIDS[name].items():
        if obj.get(key) != value:
            raise DomainError(
                f"calibration fixture {path!r} records {key} = {obj.get(key)!r}"
                f", not {value!r} of this package's calibration grid" + regenerate)
    for keys in _CONSTANTS[name]:
        value = obj
        for key in keys.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0 < value <= sys.float_info.max):
            raise DomainError(f"calibration fixture {path!r} holds {keys} = "
                              f"{value!r}, not a positive finite number"
                              + regenerate)
    return obj
