"""Sublaplacian moments, Carleman sums and the gamma-integral chain."""

import numpy as np
import pytest

from heisharm.chernoff import (MAX_POWER, carleman_partial_sums,
                               check_gamma_hypothesis, gamma_bound_log,
                               gamma_integral_log, ingham_norm_bound_check,
                               sublaplacian_norms)
from heisharm.errors import DomainError, HypothesisError, TailError
from heisharm.grids import QuadratureGrid
from heisharm.oracles import forward_radial, gaussian_factor
from heisharm.theta import builtin_theta
from heisharm.transform import SpectralCoefficients

CONVEXITY_TOL = -1e-9


def log_convexity_margin(profile):
    """Smallest second difference of log ||L^m f||_2; Cauchy-Schwarz on the
    spectral measure makes the exact sequence convex, so values below about
    -1e-9 indicate a computation problem."""
    ln = profile.log_norms
    if ln.size < 3:
        return np.inf
    return float(np.min(np.diff(ln, 2)))


def spectral_box(lambda_nodes=4097):
    g = QuadratureGrid.make(k_max=1, lambda_min=1.0, lambda_max=2.0,
                            lambda_nodes=lambda_nodes, nodes_per_panel=8)
    vals = np.zeros((2, g.lam.size))
    vals[0] = 1.0
    return SpectralCoefficients(n=1, grid=g, values=vals, symmetric=True)


def box_log_norm_sq(m):
    # ||L^m f||^2 = (2 pi)^-2 * 2 * int_1^2 lam^{2m+1} dlam
    return float(-2.0 * np.log(2.0 * np.pi) + np.log(2.0)
                 + np.log(4.0 ** (m + 1) - 1.0) - np.log(2.0 * m + 2.0))


def test_box_moments_match_closed_form():
    prof = sublaplacian_norms(spectral_box(), 20, tail_frac=1.0)
    assert prof.M == 20 and not prof.degenerate
    # log-trapezoid curvature error grows like (2m+2)^2 h^2
    for m in (0, 1, 5, 20):
        assert prof.log_norms[m] == pytest.approx(0.5 * box_log_norm_sq(m),
                                                  abs=1e-5)
    # m = 20 Carleman term in closed form
    assert prof.carleman_terms[19] == pytest.approx(
        np.exp(-box_log_norm_sq(20) / 80.0), rel=1e-6)
    assert np.allclose(prof.partial_sums, np.cumsum(prof.carleman_terms))


def test_box_moment_tail_gate():
    # the window edge carries a fixed share of every moment, so the default
    # interior-decay gate refuses the pure indicator
    with pytest.raises(TailError) as err:
        sublaplacian_norms(spectral_box(), 3)
    assert err.value.failing_power == 0
    with pytest.raises(DomainError):
        sublaplacian_norms(spectral_box(), 0, tail_frac=1.0)


def test_degenerate_zero_function():
    g = QuadratureGrid.make(k_max=1, lambda_min=1.0, lambda_max=2.0,
                            lambda_nodes=64)
    zero = SpectralCoefficients(n=1, grid=g, values=np.zeros((2, 64)),
                                symmetric=True)
    prof = sublaplacian_norms(zero, 4, tail_frac=1.0)
    assert prof.degenerate
    assert np.all(np.isinf(prof.carleman_terms))
    with pytest.raises(DomainError):
        carleman_partial_sums(prof)


def test_log_convexity_of_moments():
    prof = sublaplacian_norms(spectral_box(), 15, tail_frac=1.0)
    assert log_convexity_margin(prof) >= CONVEXITY_TOL
    g = QuadratureGrid.make(k_max=24, lambda_min=1e-3, lambda_max=50.0,
                            lambda_nodes=160)
    c = forward_radial(gaussian_factor(1, 1.0, 0.4), g)
    assert log_convexity_margin(sublaplacian_norms(c, 8)) >= CONVEXITY_TOL


def test_normalized_terms_nonincreasing():
    prof = sublaplacian_norms(spectral_box(), 20, tail_frac=1.0)
    sums = carleman_partial_sums(prof)
    assert np.all(np.diff(sums["normalized_terms"]) <= 1e-12)
    assert np.allclose(sums["normalized_partial_sums"],
                       np.cumsum(sums["normalized_terms"]))
    assert np.array_equal(sums["terms"], prof.carleman_terms)


def test_gamma_integral_constant_profile():
    # Theta = 1: int lam^{2m+n} e^{-sqrt(lam)} dlam = 2 Gamma(4m + 2n + 2)
    from scipy.special import gammaln
    for m, n in ((1, 1), (3, 2)):
        expect = np.log(2.0) + gammaln(4.0 * m + 2.0 * n + 2.0)
        got = gamma_integral_log(lambda y: np.ones_like(np.asarray(y, float)),
                                 n, m)
        assert got == pytest.approx(expect, abs=1e-8)


def test_gamma_bound_combines_terms():
    theta = builtin_theta("inv-sqrt-strong")
    total, t1, t2 = gamma_bound_log(theta, 1, 4)
    assert total == pytest.approx(np.logaddexp(t1, t2))
    assert total >= max(t1, t2)


def test_hypothesis_gate():
    check_gamma_hypothesis(builtin_theta("inv-sqrt-strong"))  # equality case
    with pytest.raises(HypothesisError) as err:
        check_gamma_hypothesis(builtin_theta("inv-sqrt"))
    assert err.value.sample >= 1.0
    with pytest.raises(HypothesisError):
        check_gamma_hypothesis(builtin_theta("zero"))


def test_gamma_chain_ratios():
    out = ingham_norm_bound_check(builtin_theta("inv-sqrt-strong"), 1, 10)
    assert out["pass"] is True
    assert len(out["rows"]) == 10
    for row in out["rows"]:
        assert row["ratio"] <= 1.0
        assert row["log_bound"] == pytest.approx(
            np.logaddexp(row["log_term1"], row["log_term2"]))
    with pytest.raises(DomainError):
        ingham_norm_bound_check(builtin_theta("inv-sqrt-strong"), 1,
                                MAX_POWER + 1)
    with pytest.raises(DomainError):
        ingham_norm_bound_check(builtin_theta("inv-sqrt-strong"), 1, 0)
    with pytest.raises(HypothesisError):
        ingham_norm_bound_check(builtin_theta("inv-sqrt"), 1, 4)
