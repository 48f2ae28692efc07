"""Acceptance gate: every certified claim at its stated tolerance.

One test per claim, plain asserts, no expected-failure markers: a red line
here means the stated bound is not met by this build, full stop.  Each
test also asserts its own wall-clock budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from heisharm.chernoff import (ingham_norm_bound_check, spectral_box,
                               sublaplacian_norms)
from heisharm.fixtures import load_fixture
from heisharm.grids import QuadratureGrid
from heisharm.group import ball_shift_symmdiff, ball_volume, sphere_surface
from heisharm.ingham import verify_decay
from heisharm.laguerre import envelope_check, orthonormality_defect
from heisharm.plan import factor_bound_check, plan_sequences
from heisharm.theta import builtin_theta
from heisharm.transform import (box_convolution_coefficients, multiply_coeffs,
                                plancherel_norm)

from oracles import box_factor, forward_radial

ORTHO_TOL = 1e-8
PLANCHEREL_TOL = 1e-4
CONV_TOL = 1e-3
LENS_TOL = 1e-10
TERM20_WINDOW = (0.45, 0.50)


def plancherel_grid():
    return QuadratureGrid.make(k_max=256, lambda_min=1e-4, lambda_max=100.0,
                               lambda_nodes=576)


def test_laguerre_orthonormality():
    t0 = time.perf_counter()
    worst = max(orthonormality_defect(40, delta) for delta in (0, 1, 2, 3))
    assert worst <= ORTHO_TOL
    assert time.perf_counter() - t0 <= 10.0


def test_envelope_dominates_all_grid_points():
    t0 = time.perf_counter()
    out = envelope_check(load_fixture("lemma21_constants.json"))
    assert out["points"] >= 400_000
    assert out["dims"] == [1, 2, 3] and out["k_max"] == 200
    assert out["violations"] == 0
    assert time.perf_counter() - t0 <= 60.0


def test_plancherel_round_trip_gaussian(gaussian_plancherel_transform):
    # the shared fixture is forward_radial(gaussian_factor(1, 2.0, 0.2)) on
    # plancherel_grid(); its compute time counts against this budget
    t0 = time.perf_counter()
    coeffs, transform_s = gaussian_plancherel_transform
    assert coeffs.grid.same_as(plancherel_grid())
    sz, st = 2.0, 0.2
    spatial = np.sqrt(np.pi * sz ** 2 * st * np.sqrt(np.pi))
    spectral = plancherel_norm(coeffs)
    assert abs(spectral - spatial) / spatial <= PLANCHEREL_TOL
    assert transform_s + time.perf_counter() - t0 <= 30.0


def test_plancherel_round_trip_box():
    # the box transform decays like k^{-1/2} in degree, so the truncated
    # spectral norm undershoots by ~K^{-1/2}; no affordable grid reaches 1e-4
    t0 = time.perf_counter()
    rho, tau = 0.9, 0.8
    spatial = rho ** -1.0 / tau
    spectral = plancherel_norm(forward_radial(box_factor(1, rho, tau),
                                              plancherel_grid()))
    assert abs(spectral - spatial) / spatial <= PLANCHEREL_TOL
    assert time.perf_counter() - t0 <= 30.0


def test_convolution_theorem_matches_spatial_oracle():
    t0 = time.perf_counter()
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    grid = QuadratureGrid.make(k_max=32, lambda_min=0.15, lambda_max=1.8,
                               lambda_nodes=16)
    product = multiply_coeffs(
        forward_radial(box_factor(1, rho1, tau1), grid),
        forward_radial(box_factor(1, rho2, tau2), grid))
    spatial = box_convolution_coefficients(rho1, tau1, rho2, tau2,
                                           grid.lam, grid.k_max,
                                           r_panel_nodes=13)
    samples = 26 * 39  # spatial sampling grid of the oracle side
    assert samples >= 1000
    err = np.max(np.abs(spatial - product.values)
                 / (1.0 + np.abs(product.values)))
    assert err <= CONV_TOL
    assert time.perf_counter() - t0 <= 300.0


def test_factor_coefficients_under_calibrated_envelope():
    t0 = time.perf_counter()
    c_n = load_fixture("box_factor_envelope.json")["c_n"]
    for n in (1, 2):
        out = factor_bound_check(n, c_n[str(n)])
        assert out["points"] == 201 * 120
        assert out["violations"] == 0
        assert out["max_ratio"] <= 1.0
    assert time.perf_counter() - t0 <= 60.0


def test_decay_certification_stable_under_doubling():
    t0 = time.perf_counter()
    theta = builtin_theta("inv-sqrt")
    plan = plan_sequences(theta, 1, J=16)
    report = verify_decay(plan, theta, QuadratureGrid.make(
        k_max=64, lambda_min=1e-2, lambda_max=1e2, lambda_nodes=192))
    assert np.isfinite(report["max_log_q"])
    assert report["pass"] is True
    assert time.perf_counter() - t0 <= 300.0


def test_gamma_integral_chain_ratios():
    t0 = time.perf_counter()
    out = ingham_norm_bound_check(builtin_theta("inv-sqrt-strong"), 1, 10)
    assert [r["m"] for r in out["rows"]] == list(range(1, 11))
    assert all(r["ratio"] <= 1.0 for r in out["rows"])
    assert time.perf_counter() - t0 <= 60.0


def test_ball_symmdiff_surface_bound_and_lens():
    t0 = time.perf_counter()
    radii = np.geomspace(0.5, 5.0, 10)
    fracs = (0.1, 0.5, 1.0, 1.5, 1.9)
    for dim in (2, 4):
        pairs = 0
        for R in radii:
            for frac in fracs:
                d = frac * R
                sd = ball_shift_symmdiff(dim, float(R), float(d))
                assert sd <= d * sphere_surface(dim, float(R))
                if dim == 2:
                    lens = 2.0 * R * R * np.arccos(0.5 * d / R) \
                        - 0.5 * d * np.sqrt(4.0 * R * R - d * d)
                    assert abs(ball_volume(float(R), 2) - 0.5 * sd
                               - lens) <= LENS_TOL
                pairs += 1
        assert pairs == 50
    assert time.perf_counter() - t0 <= 5.0


def carleman_box_profile():
    # the example of carleman --family box, at its default M = 20
    return sublaplacian_norms(spectral_box(), 20, tail_frac=1.0)


def test_carleman_term20_in_stated_window():
    # closed form: term_20 = (2 pi)^{1/40} ((2^42 - 1)/21)^{-1/80} = 0.7559,
    # above the stated window
    t0 = time.perf_counter()
    term20 = float(carleman_box_profile().carleman_terms[19])
    assert TERM20_WINDOW[0] <= term20 <= TERM20_WINDOW[1]
    assert time.perf_counter() - t0 <= 10.0


def test_carleman_closed_form_and_sum_growth():
    t0 = time.perf_counter()
    prof = carleman_box_profile()
    closed = float((2.0 * np.pi) ** (1.0 / 40.0)
                   * ((2.0 ** 42 - 1.0) / 21.0) ** (-1.0 / 80.0))
    assert prof.carleman_terms[19] == pytest.approx(closed, rel=1e-5)
    crossed = np.flatnonzero(prof.partial_sums > 5.0)
    assert crossed.size and crossed[0] + 1 <= 12
    # ||L^m f||^{1/(2m)} climbs toward the spectral top sqrt(2)
    growth = float(np.exp(prof.log_norms[20] / 40.0))
    assert np.sqrt(2.0) - 0.2 <= growth <= np.sqrt(2.0)
    assert time.perf_counter() - t0 <= 10.0


def test_reports_byte_identical_across_processes(tmp_path, fresh_env):
    t0 = time.perf_counter()
    blobs = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "heisharm.cli", "ingham-verify",
             "--kmax", "64", "--lambda-min", "0.01", "--lambda-max", "100",
             "--lambda-nodes", "192", "--out", str(path)],
            capture_output=True, text=True, cwd=tmp_path, env=fresh_env)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert report["pass"] is True
    assert time.perf_counter() - t0 <= 900.0
