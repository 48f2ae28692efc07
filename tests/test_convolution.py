"""Group convolution: spatial oracle, box pair sampling, spectral product."""

import numpy as np
import pytest

from heisharm import (
    DimensionMismatchError,
    HeisenbergPoint,
    QuadratureGrid,
    ball_normalizer,
    box_convolution_coefficients,
    box_convolution_grids,
    box_factor,
    box_pair_convolution,
    direct_convolution_oracle,
    forward_radial,
    multiply_coeffs,
)
from heisharm.grids import _unit_rule

CONV_TOL = 1e-3


def box_callable(rho, tau):
    # spatial form: rho^-2 tau^-2 on the Koranyi-ball cross interval product
    a = ball_normalizer(1)
    radius, half = a * rho, 0.5 * tau ** 2
    amp = rho ** -2.0 * tau ** -2.0
    return lambda z, t: amp * ((np.abs(z) <= radius) & (np.abs(t) <= half))


def test_oracle_mass_and_support():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    f = box_callable(rho1, tau1)
    g = box_callable(rho2, tau2)
    a = ball_normalizer(1)
    z_r, t_r = a * rho2, 0.5 * tau2 ** 2
    # the second support is nested inside the first, so at the origin the
    # convolution equals sup(f) exactly; the tensor rule resolves the disc
    # edge only at O(1/nodes)
    origin = direct_convolution_oracle(f, g, HeisenbergPoint([0.0], 0.0),
                                       z_r, t_r, nodes=48)
    assert origin == pytest.approx(rho1 ** -2 * tau1 ** -2, rel=2e-2)
    # beyond the summed z-supports the convolution vanishes identically
    far = HeisenbergPoint([a * (rho1 + rho2) + 0.1], 0.0)
    assert direct_convolution_oracle(f, g, far, z_r, t_r, nodes=12) == 0.0


def test_oracle_rejects_higher_dimension():
    f = box_callable(0.9, 0.8)
    with pytest.raises(DimensionMismatchError):
        direct_convolution_oracle(f, f, HeisenbergPoint([0.1, 0.2], 0.0),
                                  0.5, 0.3)


def test_box_pair_matches_oracle():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    f = box_callable(rho1, tau1)
    g = box_callable(rho2, tau2)
    a = ball_normalizer(1)
    z_r, t_r = a * rho2, 0.5 * tau2 ** 2
    rng = np.random.default_rng(11)
    pts = rng.uniform([0.0, -0.6], [a * (rho1 + rho2), 0.6], size=(8, 2))
    sup = rho1 ** -2 * tau1 ** -2

    def worst(nodes):
        errs = []
        for r, t in pts:
            direct = direct_convolution_oracle(
                f, g, HeisenbergPoint([complex(r)], t), z_r, t_r, nodes=nodes)
            fast = box_pair_convolution(rho1, tau1, rho2, tau2, r, t)
            errs.append(abs(direct - fast))
        return max(errs)

    coarse, fine = worst(28), worst(96)
    # agreement is limited by the oracle's O(1/nodes) edge resolution, and
    # refining the oracle moves it toward the panel evaluator, not away
    assert fine < 2e-2 * sup
    assert fine < 0.65 * coarse


def test_grids_cover_twisted_support():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    x, wx, tx, wt = box_convolution_grids(rho1, tau1, rho2, tau2)
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    assert x.max() < A1 + A2 <= x.max() + 0.2
    # group twist stretches the t-support past the interval sum
    t_interval = 0.5 * tau1 ** 2 + 0.5 * tau2 ** 2
    t_top = t_interval + 0.5 * A1 * A2
    assert tx.max() > t_interval
    assert tx.max() < t_top <= tx.max() + 0.2
    # total mass of the convolution is one; weights integrate it on r >= 0
    h = np.array([[box_pair_convolution(rho1, tau1, rho2, tau2, r, t)
                   for t in tx] for r in x])
    mass = 2.0 * np.pi * np.sum((x * wx)[:, None] * h * (2.0 * wt)[None, :])
    assert mass == pytest.approx(1.0, abs=2e-6)


def test_convolution_theorem_small_grid():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    grid = QuadratureGrid.make(k_max=16, lambda_min=0.2, lambda_max=1.5,
                               lambda_nodes=8)
    c1 = forward_radial(box_factor(1, rho1, tau1), grid)
    c2 = forward_radial(box_factor(1, rho2, tau2), grid)
    product = multiply_coeffs(c1, c2)
    spatial = box_convolution_coefficients(rho1, tau1, rho2, tau2,
                                           grid.lam, grid.k_max)
    err = np.max(np.abs(spatial - product.values) /
                 (1.0 + np.abs(product.values)))
    assert err < CONV_TOL


def test_unit_rule_arrays_read_only():
    # box_pair_convolution and the radial panels share the cached rule, so
    # an in-place edit by one caller would corrupt every later rule
    x, w = _unit_rule(16)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert _unit_rule(16)[0] is x
