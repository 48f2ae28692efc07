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

Every fixture records, beside its constants, the grid that produced them;
the grids are stated once, in :data:`heisharm.fixtures.GRIDS`, which the
calibration writes and every load compares.  Rerun with
``python -m heisharm.calibrate`` after changing any grid constant there.
"""

import os
import sys

import numpy as np

from ._ball import ball_normalizer
from .errors import QuadratureError
from .fixtures import (
    CHAIN_GAP_GRID,
    CHAIN_GAP_J,
    CHAIN_GAP_K_PROBE,
    CHAIN_GAP_THETA,
    CN_SAFETY,
    ENVELOPE_DIMS,
    ENVELOPE_K_MAX,
    ENVELOPE_LAMBDAS,
    FACTOR_DIMS,
    FACTOR_K_MAX,
    FACTOR_S_NODES,
    GRIDS,
    calibration_grid,
    envelope_radii,
    packaged_fixtures_dir,
)
from .grids import QuadratureGrid, radial_rule
from .ingham import cauchy_gap
from .jsonio import write_json
from .laguerre import envelope_values, normalized_laguerre_table, nu
from .plan import plan_sequences
from .theta import builtin_theta
from .transform import ball_coefficients, transform_at_lambda

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


def calibrate_envelope():
    """Fit (C_fit, gamma_fit) for the four-region envelope, with their grid.

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
        shape = envelope_values(ENVELOPE_K_MAX, lam, n, r, 1.0, gamma_fit)
        mask = tab > 0
        with np.errstate(divide="ignore"):
            ratio = np.log(tab[mask]) - np.log(shape[mask])
        worst = max(worst, float(np.max(ratio)))
    c_fit = 1.1 * float(np.exp(worst))
    return {"C_fit": c_fit, "gamma_fit": gamma_fit, **GRIDS["lemma21_constants.json"]}


def _quadrature_table(s, k_max, n):
    """ball_coefficients at the single s by radial Gauss-Legendre quadrature
    (48 nodes per panel): the oracle the closed form is checked against."""
    x, w = radial_rule(s, k_max, n, ball_normalizer(n), 48)
    return transform_at_lambda(np.ones_like(x), x, w, s, k_max, n)


def calibrate_cn(n):
    """Envelope constant: CN_SAFETY * sup over the calibration grid of
    |coeff(k, s)| ((2k+n) s)^{(2n-1)/4}, with the coefficients from the
    closed form.

    The sup is recomputed on the doubled s grid and the two sups must agree
    within 5%, and the base-grid sup is recomputed by radial quadrature,
    which must agree within _ORACLE_TOL, so a frozen constant can never be
    an artifact of either method.
    """
    k, s = calibration_grid()

    def sup_of(s, table):
        weight = ((2.0 * k[:, None] + n) * s[None, :]) ** ((2.0 * n - 1.0) / 4.0)
        return float(np.max(np.abs(table) * weight))

    sup = sup_of(s, ball_coefficients(s, FACTOR_K_MAX, n))
    _, s2 = calibration_grid(2 * FACTOR_S_NODES)
    fine = sup_of(s2, ball_coefficients(s2, FACTOR_K_MAX, n))
    rel = abs(fine - sup) / max(sup, fine)
    if rel > 0.05:
        raise QuadratureError(
            f"factor-bound calibration sup moved under grid refinement "
            f"by {rel:.3e} relative (> 0.05)")
    quad = np.stack([_quadrature_table(si, FACTOR_K_MAX, n) for si in s], axis=1)
    oracle = sup_of(s, quad)
    rel = abs(oracle - sup) / max(sup, oracle)
    if rel > _ORACLE_TOL:
        raise QuadratureError(
            f"closed-form calibration sup disagrees with radial quadrature "
            f"by {rel:.3e} relative (> {_ORACLE_TOL:g})")
    return float(CN_SAFETY * max(sup, fine))


def calibrate_factor_bound():
    """Frozen c_n for each supported dimension, with their grid of GRIDS."""
    return {"c_n": {str(n): calibrate_cn(n) for n in FACTOR_DIMS},
            **GRIDS["box_factor_envelope.json"]}


def calibrate_chain_gap(c_n_1):
    """Frozen C for the chain Cauchy-gap bound, probed at k = 1..12 of the
    reference inv-sqrt chain on H^1, with its grid of GRIDS."""
    theta = builtin_theta(CHAIN_GAP_THETA)
    plan = plan_sequences(theta, 1, J=CHAIN_GAP_J, c_n=c_n_1)
    grid = QuadratureGrid.make(**CHAIN_GAP_GRID)
    bounds, measured = cauchy_gap(plan, CHAIN_GAP_K_PROBE, grid, c3=1.0)
    return {"C": 1.1 * float(np.max(measured / bounds)), "c3": 1.0,
            **GRIDS["chain_gap_constants.json"]}


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
