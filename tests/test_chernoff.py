"""Sublaplacian moments, Carleman sums and the gamma-integral chain."""

import math

import numpy as np
import pytest

from heisharm.chernoff import (MAX_POWER, check_gamma_hypothesis,
                               gamma_bound_log, gamma_integral_log,
                               ingham_norm_bound_check, spectral_box,
                               sublaplacian_norms)
from heisharm.errors import DomainError, HypothesisError, TailError
from heisharm.grids import QuadratureGrid
from heisharm.theta import builtin_theta
from heisharm.transform import SpectralCoefficients

from oracles import forward_radial, gaussian_factor

CONVEXITY_TOL = -1e-9


def log_convexity_margin(profile):
    """Smallest second difference of log ||L^m f||_2; Cauchy-Schwarz on the
    spectral measure makes the exact sequence convex, so values below about
    -1e-9 indicate a computation problem."""
    ln = profile.log_norms
    if ln.size < 3:
        return np.inf
    return float(np.min(np.diff(ln, 2)))


# the example of carleman --family box
BOX = spectral_box()


def box_log_norm_sq(m):
    # ||L^m f||^2 = (2 pi)^-2 * 2 * int_1^2 lam^{2m+1} dlam
    return float(-2.0 * np.log(2.0 * np.pi) + np.log(2.0)
                 + np.log(4.0 ** (m + 1) - 1.0) - np.log(2.0 * m + 2.0))


def test_box_moments_match_closed_form():
    prof = sublaplacian_norms(BOX, 20, tail_frac=1.0)
    assert prof.M == 20
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
    with pytest.raises(TailError, match=r"^moment m=0 "):
        sublaplacian_norms(BOX, 3)
    with pytest.raises(DomainError):
        sublaplacian_norms(BOX, 0, tail_frac=1.0)


def test_degenerate_zero_function():
    # the Carleman sum is a criterion on a nonzero f: the zero function is
    # refused where its norms are computed, under either tail gate
    g = QuadratureGrid(k_max=1, lambda_min=1.0, lambda_max=2.0,
                       lambda_nodes=64)
    zero = SpectralCoefficients(n=1, grid=g, values=np.zeros((2, 64)))
    for tail_frac in (1.0, 1e-6):
        with pytest.raises(DomainError, match="^zero function: Carleman sums "
                                              "are degenerate$"):
            sublaplacian_norms(zero, 4, tail_frac=tail_frac)


def test_log_convexity_of_moments():
    prof = sublaplacian_norms(BOX, 15, tail_frac=1.0)
    assert log_convexity_margin(prof) >= CONVEXITY_TOL
    g = QuadratureGrid(k_max=24, lambda_min=1e-3, lambda_max=50.0,
                       lambda_nodes=160)
    c = forward_radial(gaussian_factor(1, 1.0, 0.4), g)
    assert log_convexity_margin(sublaplacian_norms(c, 8)) >= CONVEXITY_TOL


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
    total, t1, t2 = gamma_bound_log(theta.at, 1, 4)
    assert total == pytest.approx(np.logaddexp(t1, t2))
    assert total >= max(t1, t2)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 7), (3, 12), (1, 48)])
def test_gamma_bound_terms_match_lgamma_derivation(n, m):
    # inv-sqrt-strong is 2 min(1, y^{-1/2}), so Theta(m^4) = 2 / m^2 for
    # m >= 1; the terms are 2 m^{8(n+1)} Gamma(4m) Theta(m^4)^{-4m} and
    # 4 e^{-m^2} Gamma(8m + 4(n+1))
    _, t1, t2 = gamma_bound_log(builtin_theta("inv-sqrt-strong").at, n, m)
    log_theta = math.log(2.0) - 2.0 * math.log(m)
    want1 = (math.log(2.0) + 8 * (n + 1) * math.log(m) + math.lgamma(4 * m)
             - 4 * m * log_theta)
    want2 = math.log(4.0) - m * m + math.lgamma(8 * m + 4 * (n + 1))
    assert t1 == pytest.approx(want1, rel=1e-12)
    assert t2 == pytest.approx(want2, rel=1e-12)


def test_hypothesis_gate():
    check_gamma_hypothesis(builtin_theta("inv-sqrt-strong").at)  # equality case
    with pytest.raises(HypothesisError, match=r"at y = 1$"):
        check_gamma_hypothesis(builtin_theta("inv-sqrt").at)
    with pytest.raises(HypothesisError):
        check_gamma_hypothesis(builtin_theta("zero").at)


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
