"""Laguerre recurrences, orthonormal function families and the envelope."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.special import comb, eval_genlaguerre, gamma

from heisharm.errors import DomainError
from heisharm.laguerre import (_orthonormal_table, breakpoints, envelope_values,
                               normalized_laguerre_table, nu,
                               orthonormality_defect)

R = np.array([0.0, 0.3, 1.7, 4.0, 11.5])


def _row_scale(k, delta):
    """c_k = (k! / Gamma(k+delta+1))^(1/2): row k of _orthonormal_table is
    c_k L_k^delta(u) e^(-u/2)."""
    return np.sqrt(gamma(k + 1.0) / gamma(k + delta + 1.0))


def test_poly_low_degree_closed_forms():
    for delta in (0.0, 1.0, 2.5):
        tab = _orthonormal_table(2, delta, R)
        poly = [tab[k] * np.exp(0.5 * R) / _row_scale(k, delta) for k in range(3)]
        assert np.allclose(poly[0], 1.0)
        assert np.allclose(poly[1], 1.0 + delta - R)
        expect2 = 0.5 * (R ** 2 - 2.0 * (delta + 2.0) * R
                         + (delta + 1.0) * (delta + 2.0))
        assert np.allclose(poly[2], expect2)


@seed(3)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=25),
       st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=60.0))
def test_poly_matches_reference(k, delta, r):
    ours = float(_orthonormal_table(k, delta, r)[k])
    ref = _row_scale(k, delta) * float(eval_genlaguerre(k, delta, r)) * np.exp(-0.5 * r)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_poly_rejects_bad_params():
    with pytest.raises(DomainError):
        orthonormality_defect(-1, 0.0)
    with pytest.raises(DomainError):
        orthonormality_defect(2, -1.5)


def test_std_function_degree_zero():
    # std_L_0^delta(r) = r^(delta/2) e^(-r/2) / Gamma(delta+1)^(1/2)
    for delta in (0.0, 1.0, 3.0):
        expect = R ** (0.5 * delta) * np.exp(-0.5 * R) / np.sqrt(gamma(delta + 1.0))
        assert np.allclose(_orthonormal_table(0, delta, R)[0] * R ** (0.5 * delta),
                           expect)


def test_std_table_consistent_with_fn():
    # C_{k,n} phi_{k,lam}^{n-1}(r) = Gamma(n)^(1/2) c_k L_k^{n-1}(u) e^(-u/2)
    # at u = |lam| r^2 / 2
    lam, n = 0.7, 3
    tab = normalized_laguerre_table(6, lam, n, R)
    std = _orthonormal_table(6, n - 1.0, 0.5 * lam * R ** 2)
    for k in (0, 3, 6):
        assert np.allclose(tab[k], np.sqrt(gamma(n)) * std[k])


def test_orthonormality_defect_small():
    for delta in (0, 1, 2, 3):
        assert orthonormality_defect(40, delta) < 1e-10
    # stays tiny well past the raw-polynomial overflow degree
    assert orthonormality_defect(120, 0) < 1e-9


def test_orthonormality_defect_refuses_subnormal_weights():
    # the kmax + 20 node rule's smallest weight is normal at kmax 165 and
    # subnormal from 166, where it would keep only a few bits
    assert orthonormality_defect(165, 0) < 1e-10
    with pytest.raises(DomainError):
        orthonormality_defect(166, 0)


def test_norm_constant_values():
    # L_k^{n-1}(0) = binom(k+n-1, k), so row k of the normalized table at
    # r = 0 is C_{k,n} binom(k+n-1, k)
    def norm_constant(k, n):
        return normalized_laguerre_table(k, 1.0, n, 0.0)[k] / comb(k + n - 1, k)

    assert norm_constant(0, 4) == pytest.approx(1.0)
    # C_{2,2}^2 = 2! 1! / 3! = 1/3
    assert norm_constant(2, 2) == pytest.approx(np.sqrt(1.0 / 3.0))
    assert norm_constant(5, 1) == pytest.approx(1.0)


def test_normalized_table_ground_row():
    r = np.linspace(0.0, 6.0, 50)
    for n, lam in ((1, 0.8), (2, 2.5), (3, 0.1)):
        tab = normalized_laguerre_table(8, lam, n, r)
        assert np.allclose(tab[0], np.exp(-lam * r ** 2 / 4.0), atol=1e-14)


def test_normalized_table_broadcasts_lambda():
    r = np.linspace(0.0, 6.0, 7)
    lams = np.array([-0.8, 0.3, 2.5])
    tab = normalized_laguerre_table(5, lams[:, None], 2, r)
    assert tab.shape == (6, 3, 7)
    for i, lam in enumerate(lams):
        np.testing.assert_array_equal(tab[:, i], normalized_laguerre_table(5, lam, 2, r))
    with pytest.raises(DomainError):
        normalized_laguerre_table(5, np.array([[0.5], [0.0]]), 2, r)


def test_normalized_table_radial_orthogonality():
    # rows are orthogonal against r^(2n-1) dr with weight from the measure
    n, lam, kmax = 2, 1.3, 12
    r = np.linspace(1e-6, 40.0, 20001)
    tab = normalized_laguerre_table(kmax, lam, n, r)
    w = r ** (2 * n - 1)
    g01 = np.trapezoid(tab[0] * tab[1] * w, r)
    g00 = np.trapezoid(tab[0] * tab[0] * w, r)
    assert abs(g01) / g00 < 1e-6


def test_nu_and_breakpoints_scaling():
    assert nu(3, 2) == 16
    b_low = breakpoints(10, 0.5, 1)
    b_high = breakpoints(10, 2.0, 1)
    assert b_low[0] < b_low[1] < b_low[2]
    # each breakpoint scales like lam^(-1/2)
    for lo, hi in zip(b_low, b_high):
        assert lo / hi == pytest.approx(2.0)


def test_breakpoints_select_envelope_regime():
    # a radius inside each interval cut by the breakpoints takes that
    # interval's case of envelope_values: core, oscillatory, turning point,
    # exponential (n = 1, so the s-power prefactor is 1)
    k, lam, n, c, g = 12, 1.0, 1, 1.0, 0.05
    b = breakpoints(k, lam, n)
    assert b[0] < b[1] < b[2]
    r = np.array([0.5 * b[0], 0.5 * (b[0] + b[1]), 0.5 * (b[1] + b[2]),
                  2.0 * b[2]])
    v = nu(k, n)
    w = 0.5 * lam * r ** 2
    expect = c * np.array([1.0, (v * w[1]) ** -0.25,
                           v ** -0.25 * (v ** (1.0 / 3.0) + abs(v - w[2])) ** -0.25,
                           np.exp(-g * w[3])])
    assert envelope_values(k, lam, n, r, c, g) == pytest.approx(expect, rel=1e-12)


def test_envelope_values_match_per_radius():
    k, lam, n = 7, 0.3, 2
    r = np.array([0.1, 1.0, 5.0, 12.0, 40.0])
    vals = envelope_values(k, lam, n, r, 1.2, 0.06)
    for i, ri in enumerate(r):
        assert vals[i] == pytest.approx(
            envelope_values(k, lam, n, np.array([ri]), 1.2, 0.06)[0], rel=1e-12)


def test_envelope_origin_finite():
    for n in (1, 2, 3):
        v = envelope_values(5, 1.0, n, np.array([0.0]), 1.0, 0.05)
        assert np.isfinite(v[0]) and v[0] > 0


def test_envelope_rejects_bad_constants():
    with pytest.raises(DomainError):
        envelope_values(3, 1.0, 1, R, -1.0, 0.05)
    with pytest.raises(DomainError):
        envelope_values(3, 0.0, 1, R, 1.0, 0.05)


@seed(5)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=60),
       st.floats(min_value=1e-2, max_value=1e2),
       st.integers(min_value=1, max_value=3))
def test_normalized_values_bounded_by_weyl_row(k, lam, n):
    # each row is bounded by its value scale: |C phi| <= C_{k,n} L_k(0) = sqrt(dim)
    r = np.linspace(0.0, 3.0 * np.sqrt(nu(k, n) / lam), 400)
    tab = normalized_laguerre_table(k, lam, n, r)
    cap = np.sqrt(np.exp(
        np.sum(np.log(np.arange(k + 1, k + n)))
        - np.sum(np.log(np.arange(1, n))))) if n > 1 else 1.0
    assert np.max(np.abs(tab[k])) <= cap * (1.0 + 1e-12)
