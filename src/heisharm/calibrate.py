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
  coefficients in :func:`calibrate_cn`, checked on a doubled grid and
  against radial quadrature.

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

from .errors import QuadratureError
from .fixtures import (
    CHAIN_GAP_GRID,
    CHAIN_GAP_J,
    CHAIN_GAP_K_PROBE,
    CHAIN_GAP_THETA,
    ENVELOPE_DIMS,
    ENVELOPE_K_MAX,
    ENVELOPE_LAMBDAS,
    ENVELOPE_RADII_NODES,
    ENVELOPE_RADII_RANGE,
    FACTOR_DIMS,
    FACTOR_K_MAX,
    FACTOR_S_NODES,
    FACTOR_S_RANGE,
    GRID_HASHES,
    calibration_grid,
    packaged_fixtures_dir,
)
from .grids import QuadratureGrid, radial_rule
from .ingham import cauchy_gap, plan_sequences
from .jsonio import write_json
from .laguerre import envelope_radii, envelope_values, normalized_laguerre_table, nu
from .theta import builtin_theta
from .transform import ball_coefficients, ball_normalizer, transform_at_lambda

__all__ = [
    "calibrate_envelope",
    "calibrate_cn",
    "calibrate_factor_bound",
    "calibrate_chain_gap",
    "run_all",
]

GAMMA_FLOOR = 1e-3

# largest relative disagreement allowed between the closed-form and the
# quadrature calibration sups: the change the frozen c_n may tolerate
_ORACLE_TOL = 1e-9

# margin of the frozen c_n over the calibration sup
CN_SAFETY = 1.1


def calibrate_envelope():
    """Fit (C_fit, gamma_fit) for the four-region envelope.

    Pass one scans the exponential region (w > 3 nu / 2) for the slowest
    observed decay rate of C_{k,n} |phi| * s^{n-1} in w and backs gamma_fit
    off it by 10%; pass two takes the worst log-ratio of the table against
    the gamma-fitted envelope with unit constant, anywhere on the grid, and
    adds another 10%.  Zero table entries (underflow far past the turning
    point) are skipped: the envelope dominates them trivially.
    """
    r = envelope_radii(ENVELOPE_RADII_RANGE, ENVELOPE_RADII_NODES)
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
        "radii_range": list(ENVELOPE_RADII_RANGE),
        "grid_hash": GRID_HASHES["lemma21_constants.json"],
    }


def _quadrature_table(s, k_max, n, nodes_per_panel):
    """ball_coefficients at the single s by radial Gauss-Legendre
    quadrature: the oracle the closed form is checked against."""
    x, w = radial_rule(s, k_max, n, ball_normalizer(n), nodes_per_panel)
    return transform_at_lambda(np.ones_like(x), x, w, s, k_max, n)


def calibrate_cn(n, k_max=FACTOR_K_MAX, s_nodes=FACTOR_S_NODES, nodes_per_panel=48,
                 safety=CN_SAFETY, refine_check=True):
    """Envelope constant: safety * sup over the calibration grid of
    |coeff(k, s)| ((2k+n) s)^{(2n-1)/4}, with the coefficients from the
    closed form.

    With refine_check the sup is recomputed on the doubled s grid and the
    two sups must agree within 5%, and the base-grid sup is recomputed by
    radial quadrature at nodes_per_panel, which must agree within
    _ORACLE_TOL, so a frozen constant can never be an artifact of either
    method.
    """
    k, s = calibration_grid(k_max, s_nodes)

    def sup_of(s, table):
        weight = ((2.0 * k[:, None] + n) * s[None, :]) ** ((2.0 * n - 1.0) / 4.0)
        return float(np.max(np.abs(table) * weight))

    sup = sup_of(s, ball_coefficients(s, k_max, n))
    if refine_check:
        _, s2 = calibration_grid(k_max, 2 * s_nodes)
        fine = sup_of(s2, ball_coefficients(s2, k_max, n))
        rel = abs(fine - sup) / max(sup, fine)
        if rel > 0.05:
            raise QuadratureError(
                "factor-bound calibration sup moved under grid refinement",
                disagreement=float(rel))
        quad = np.stack([_quadrature_table(si, k_max, n, nodes_per_panel)
                         for si in s], axis=1)
        oracle = sup_of(s, quad)
        rel = abs(oracle - sup) / max(sup, oracle)
        if rel > _ORACLE_TOL:
            raise QuadratureError(
                "closed-form calibration sup disagrees with radial quadrature",
                disagreement=float(rel))
        sup = max(sup, fine)
    return float(safety * sup)


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
    bounds, measured = cauchy_gap(plan, CHAIN_GAP_K_PROBE, grid, c3=1.0)
    return {
        "C": 1.1 * float(np.max(measured / bounds)),
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
    from .cli import console_main
    console_main(main)
