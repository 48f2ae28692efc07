"""One-shot calibration runs that freeze the package's certified constants.

Three fixture files ship with the package; each is produced here, once, and
then only read:

* ``lemma21_constants.json`` - the pair (C_fit, gamma_fit) closing the
  four-region Laguerre envelope.  gamma_fit is set a safe 10% below the
  slowest exponential rate observed anywhere on the calibration grid, and
  C_fit is 1.1 times the worst observed ratio against the unit-constant
  envelope, so domination on that grid holds by construction.

* ``box_factor_envelope.json`` - the constants c_n of the oscillatory bound
  on ball-indicator coefficients, from the sup of the closed-form
  coefficients in :func:`heisharm.ingham.calibrate_cn`, checked on a
  doubled grid and against radial quadrature.

* ``chain_gap_constants.json`` - the constant C with
  measured gap <= C * (tau_{k+1}^2 + c3 rho_{k+1}) along the reference
  chain; c3 is fixed at 1 since the interval term is negligible next to the
  ball term and only the product C*c3 is identifiable.

Every fixture records a hash of the grid parameters that produced it; the
grid constants and their hashes live in :mod:`heisharm.fixtures`, which
refuses a fixture whose hash does not match.  Rerun with
``python -m heisharm.calibrate`` after changing any of those constants.
"""

import os
import sys

import numpy as np

from .fixtures import (
    CHAIN_GAP_GRID,
    CHAIN_GAP_J,
    CHAIN_GAP_K_PROBE,
    CHAIN_GAP_THETA,
    ENVELOPE_DIMS,
    ENVELOPE_K_MAX,
    ENVELOPE_LAMBDAS,
    ENVELOPE_RADII_NODES,
    FACTOR_DIMS,
    FACTOR_K_MAX,
    FACTOR_S_NODES,
    FACTOR_S_RANGE,
    GRID_HASHES,
    load_fixture,
    packaged_fixtures_dir,
)
from .grids import QuadratureGrid
from .ingham import CN_SAFETY, calibrate_cn, cauchy_gap, plan_sequences
from .jsonio import write_json
from .laguerre import envelope_values, normalized_laguerre_table, nu
from .theta import builtin_theta

__all__ = [
    "envelope_radii",
    "calibrate_envelope",
    "envelope_check",
    "calibrate_factor_bound",
    "calibrate_chain_gap",
    "run_all",
]

GAMMA_FLOOR = 1e-3


def envelope_radii():
    """Radii of the envelope calibration grid (shared with its validation)."""
    return np.concatenate(([0.0], np.geomspace(1e-3, 300.0, ENVELOPE_RADII_NODES - 1)))


def calibrate_envelope():
    """Fit (C_fit, gamma_fit) for the four-region envelope.

    Pass one scans the exponential region (w > 3 nu / 2) for the slowest
    observed decay rate of C_{k,n} |phi| * s^{n-1} in w and backs gamma_fit
    off it by 10%; pass two takes the worst log-ratio of the table against
    the gamma-fitted envelope with unit constant, anywhere on the grid, and
    adds another 10%.  Zero table entries (underflow far past the turning
    point) are skipped: the envelope dominates them trivially.
    """
    r = envelope_radii()
    k = np.arange(ENVELOPE_K_MAX + 1)
    tables = {}
    rates = []
    for n in ENVELOPE_DIMS:
        v = nu(k, n)[:, None]
        for lam in ENVELOPE_LAMBDAS:
            tab = np.abs(normalized_laguerre_table(ENVELOPE_K_MAX, lam, n, r))
            tables[(n, lam)] = tab
            w = 0.5 * lam * r * r
            s = r * np.sqrt(lam)
            mask = (w[None, :] > 1.5 * v) & (tab > 0)
            if not np.any(mask):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                logval = np.log(tab) + (n - 1.0) * np.where(s > 0, np.log(np.where(s > 0, s, 1.0)), 0.0)
                rates.append(float(np.min((-logval / w)[mask])))
    gamma_fit = max(GAMMA_FLOOR, 0.9 * min(rates))

    worst = -np.inf
    for (n, lam), tab in tables.items():
        for ki in k:
            shape = envelope_values(int(ki), lam, n, r, 1.0, gamma_fit)
            mask = tab[ki] > 0
            with np.errstate(divide="ignore"):
                ratio = np.log(tab[ki][mask]) - np.log(shape[mask])
            worst = max(worst, float(np.max(ratio)))
    c_fit = 1.1 * float(np.exp(worst))
    return {
        "C_fit": c_fit,
        "gamma_fit": gamma_fit,
        "k_max": ENVELOPE_K_MAX,
        "lambdas": list(ENVELOPE_LAMBDAS),
        "dims": list(ENVELOPE_DIMS),
        "radii_nodes": ENVELOPE_RADII_NODES,
        "grid_hash": GRID_HASHES["lemma21_constants.json"],
    }


def envelope_check(fixture=None, k_max=None, dims=None, fixtures_dir=None):
    """Validate the frozen envelope against the calibration grid.

    Replays the calibration grid (optionally truncated in degree or
    restricted in dimension) and counts points where the normalized scaled
    Laguerre function exceeds the fitted envelope.  The certified outcome
    is zero violations.
    """
    if fixture is None:
        fixture = load_fixture("lemma21_constants.json", fixtures_dir)
    c_fit = float(fixture["C_fit"])
    gamma_fit = float(fixture["gamma_fit"])
    k_hi = int(fixture["k_max"]) if k_max is None else int(min(k_max, fixture["k_max"]))
    dims = tuple(fixture["dims"]) if dims is None else tuple(dims)
    r = envelope_radii()
    points = 0
    violations = 0
    worst = 0.0
    for n in dims:
        for lam in fixture["lambdas"]:
            tab = np.abs(normalized_laguerre_table(k_hi, lam, n, r))
            for ki in range(k_hi + 1):
                env = envelope_values(ki, lam, n, r, c_fit, gamma_fit)
                points += r.size
                # envelope underflow deep in the exponential zone is a
                # violation only if the function itself is still nonzero
                pos = env > 0
                violations += int(np.sum(tab[ki][~pos] > 0))
                ratio = tab[ki][pos] / env[pos]
                violations += int(np.sum(ratio > 1.0))
                if ratio.size:
                    worst = max(worst, float(np.max(ratio)))
    return {
        "C_fit": c_fit,
        "gamma_fit": gamma_fit,
        "k_max": k_hi,
        "dims": list(dims),
        "points": points,
        "violations": violations,
        "max_ratio": worst,
        "grid_hash": fixture["grid_hash"],
    }


def calibrate_factor_bound():
    """Frozen c_n for each supported dimension."""
    return {
        "c_n": {str(n): calibrate_cn(n) for n in FACTOR_DIMS},
        "k_max": FACTOR_K_MAX,
        "s_nodes": FACTOR_S_NODES,
        "s_range": list(FACTOR_S_RANGE),
        "safety": CN_SAFETY,
        "grid_hash": GRID_HASHES["box_factor_envelope.json"],
    }


def calibrate_chain_gap(c_n_1):
    """Frozen C for the chain Cauchy-gap bound, probed at k = 1..12 of the
    reference inv-sqrt chain on H^1."""
    theta = builtin_theta(CHAIN_GAP_THETA)
    plan = plan_sequences(theta, 1, J=CHAIN_GAP_J, c_n=c_n_1)
    grid = QuadratureGrid.make(**CHAIN_GAP_GRID)
    worst = 0.0
    for kk in range(1, CHAIN_GAP_K_PROBE + 1):
        bound, measured = cauchy_gap(plan, kk, grid, c3=1.0)
        worst = max(worst, measured / bound)
    return {
        "C": 1.1 * worst,
        "c3": 1.0,
        "theta": CHAIN_GAP_THETA,
        "n": 1,
        "J": CHAIN_GAP_J,
        "k_probe_max": CHAIN_GAP_K_PROBE,
        "grid": dict(CHAIN_GAP_GRID),
        "grid_hash": GRID_HASHES["chain_gap_constants.json"],
    }


def run_all(out_dir=None):
    out_dir = packaged_fixtures_dir() if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    env = calibrate_envelope()
    write_json(f"{out_dir}/lemma21_constants.json", env)
    print(f"lemma21_constants.json: C_fit={env['C_fit']:.6g} gamma_fit={env['gamma_fit']:.6g}")
    fac = calibrate_factor_bound()
    write_json(f"{out_dir}/box_factor_envelope.json", fac)
    print("box_factor_envelope.json: " +
          " ".join(f"c_{n}={fac['c_n'][n]:.6g}" for n in sorted(fac["c_n"])))
    gap = calibrate_chain_gap(float(fac["c_n"]["1"]))
    write_json(f"{out_dir}/chain_gap_constants.json", gap)
    print(f"chain_gap_constants.json: C={gap['C']:.6g} c3={gap['c3']:.6g}")


_USAGE = ("usage: python -m heisharm.calibrate  (takes no arguments; rewrites "
          "the packaged fixtures)")


def main(argv):
    """Entry point of ``python -m heisharm.calibrate``: any argument is
    refused before anything is written, so a help request or a mistyped
    flag cannot overwrite the packaged fixtures."""
    if argv in (["-h"], ["--help"]):
        print(_USAGE)
        return 0
    if argv:
        print(_USAGE, file=sys.stderr)
        return 2
    run_all()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
