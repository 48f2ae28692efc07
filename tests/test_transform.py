"""Forward transform, norms, dilation and the box convolution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from heisharm._ball import ball_normalizer
from heisharm.chernoff import spectral_box
from heisharm.errors import DomainError, GridMismatchError, QuadratureError
from heisharm.grids import QuadratureGrid, radial_rule
from heisharm.transform import (SpectralCoefficients, ball_coefficients,
                                box_coefficients,
                                dilate_coeffs, gaussian_coefficients,
                                multiply_coeffs, plancherel_norm,
                                projection_hs_norm_sq, transform_at_lambda)

from oracles import (ball_coefficients_table, box_factor, forward_radial,
                     gaussian_factor, ground_state)

GRID = QuadratureGrid.make(k_max=24, lambda_min=0.05, lambda_max=20.0,
                           lambda_nodes=64)


def test_ball_normalizer_unit_volume():
    # pi (a rho)^2 = rho^2 on H^1
    assert ball_normalizer(1) == pytest.approx(np.pi ** -0.5)
    a3 = ball_normalizer(3)
    assert np.pi ** 3 / 6.0 * a3 ** 6 == pytest.approx(1.0)


@seed(11)
@settings(max_examples=24, deadline=None)
@given(st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 200]),
       st.floats(min_value=-9.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_ball_coefficients_match_quadrature(n, k_max, log_s, rho):
    # the quadrature oracle: a box factor's forward transform over its
    # interval transform, on a grid whose ends sit at s = lam rho^2 in
    # [10^log_s, min(1e3, 10^(log_s + 4))]
    tau = 1e-3  # t_hat stays within 1e-3 of 1 up to lam = 1e5
    s_lo = 10.0 ** log_s
    s_hi = min(1e3, 1e4 * s_lo)
    grid = QuadratureGrid.make(k_max=k_max, lambda_min=s_lo / rho ** 2,
                               lambda_max=s_hi / rho ** 2, lambda_nodes=3)
    f = box_factor(n, rho, tau)
    oracle = forward_radial(f, grid).values / f.t_hat(grid.lam)
    closed = ball_coefficients(grid.lam * rho ** 2, k_max, n)
    assert closed.shape == (k_max + 1, 3)
    assert np.max(np.abs(closed - oracle)) <= 1e-11


def test_ball_coefficients_refuse_bad_s_and_stay_finite():
    big = ball_coefficients(np.array([1e-40, 1e-9, 1e5, 1e12, 1e200]), 40, 3)
    assert np.all(np.isfinite(big))
    assert np.max(np.abs(big)) <= 1.0 + 1e-10
    for bad in ([0.0, 1.0], [-1.0], [np.nan], [[1.0]]):
        with pytest.raises(DomainError):
            ball_coefficients(np.array(bad), 4, 1)


def _branch_s(n):
    """s at which ball_coefficients' gammainc_int argument s a^2 / 4 meets
    its series/sum branch point y = n + 1."""
    return 4.0 * (n + 1.0) / ball_normalizer(n) ** 2


@seed(17)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=40),
       st.lists(st.floats(min_value=-6.0, max_value=-1e-3), min_size=1,
                max_size=6),
       st.lists(st.floats(min_value=1e-3, max_value=1.5), min_size=1,
                max_size=6),
       st.data())
def test_ball_coefficients_columns_are_independent(n, k_max, below, above,
                                                   data):
    # bit for bit, although the series for the columns below the branch
    # runs as long as the slowest of them needs
    s = _branch_s(n) * 10.0 ** np.array(below + above)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=s.size,
                                       max_size=s.size)))
    full = ball_coefficients(s, k_max, n)
    assert_array_equal(ball_coefficients(s[keep], k_max, n), full[:, keep])
    for i in range(s.size):
        assert_array_equal(ball_coefficients(s[i:i + 1], k_max, n),
                           full[:, i:i + 1])


@seed(19)
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=60),
       st.lists(st.floats(min_value=-6.0, max_value=1.5), min_size=1,
                max_size=8))
def test_ball_coefficients_rows_do_not_depend_on_top_degree(n, k, extra, log_s):
    s = _branch_s(n) * 10.0 ** np.array(log_s)
    assert_array_equal(ball_coefficients(s, k + extra, n)[:k + 1],
                       ball_coefficients(s, k, n))


@seed(23)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=90),
       st.lists(st.floats(min_value=-9.0, max_value=12.0), min_size=1,
                max_size=8))
def test_ball_coefficients_match_table_oracle_bitwise(n, k_max, log_s):
    s = 10.0 ** np.array(log_s)
    assert_array_equal(ball_coefficients(s, k_max, n),
                       ball_coefficients_table(s, k_max, n))


def _peak_bytes(fn):
    fn()  # the first call may fill caches
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ball_and_box_coefficients_hold_one_table():
    # the streamed recurrence holds the returned table, a few rows and
    # numpy's 64 KiB ufunc buffer; a whole Laguerre table or an out-of-place
    # scaling would each add one more table
    s = np.geomspace(1e-3, 1e3, 128)
    out, peak = _peak_bytes(lambda: ball_coefficients(s, 256, 2))
    assert peak <= 2.0 * out.nbytes
    grid = QuadratureGrid.make(k_max=256, lambda_min=1e-4, lambda_max=1e2,
                               lambda_nodes=576)
    _, peak = _peak_bytes(
        lambda: plancherel_norm(box_coefficients(1, 0.9, 0.8, grid)))
    # values and their weighted squares: two tables
    assert peak <= 2.5 * (grid.k_max + 1) * grid.lam.size * 8


@seed(13)
@settings(max_examples=24, deadline=None)
@given(st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 64]),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.sampled_from([(1e-4, 2.0), (2.0, 1e3), (1e-3, 50.0)]))
def test_gaussian_coefficients_match_quadrature(n, k_max, sigma_z, sigma_t, b_ends):
    # grid ends at b = lam sigma_z^2 well below 2, exactly 2 (q = 0) and
    # well above 2 (q near -1)
    b_lo, b_hi = b_ends
    grid = QuadratureGrid.make(k_max=k_max, lambda_min=b_lo / sigma_z ** 2,
                               lambda_max=b_hi / sigma_z ** 2, lambda_nodes=4)
    oracle = forward_radial(gaussian_factor(n, sigma_z, sigma_t), grid).values
    closed = gaussian_coefficients(n, sigma_z, sigma_t, grid)
    assert closed.grid is grid
    assert (np.max(np.abs(closed.values - oracle))
            <= 1e-10 * np.max(np.abs(oracle)))


def test_gaussian_coefficients_ground_state_and_refusals():
    # lam sigma_z^2 = 2 is the ground state: (2 pi / lam)^n delta_{k0}
    for n in (1, 2, 3):
        for j in (0, 17, GRID.lam.size - 1):
            lam = GRID.lam[j]
            sz = np.sqrt(2.0 / lam)
            c = gaussian_coefficients(n, sz, 0.3, GRID)
            col = c.values[:, j] / gaussian_factor(n, sz, 0.3).t_hat(lam)
            expect = (2.0 * np.pi / lam) ** n
            assert col[0] == pytest.approx(expect, rel=1e-14)
            assert np.max(np.abs(col[1:])) <= 1e-14 * expect
    for sz, st_ in ((0.0, 0.2), (-1.0, 0.2), (2.0, 0.0), (2.0, -0.1)):
        with pytest.raises(DomainError):
            gaussian_coefficients(1, sz, st_, GRID)


def test_ground_state_coefficients():
    for n in (1, 2):
        f = ground_state(n)
        c = forward_radial(f, GRID)
        expect = (2.0 * np.pi / GRID.lam) ** n
        assert np.allclose(c.values[0], expect, rtol=1e-8)
        assert np.max(np.abs(c.values[1:])) < 1e-8 * np.max(expect)


def per_column_forward(f, grid, nodes_per_panel):
    """Oracle of forward_radial's batched recurrence: one radial rule, one
    Laguerre table and one transform_at_lambda per lambda node."""
    cols = []
    for lam in grid.lam:
        R = f.support_radius
        if f.lambda_dependent:
            R = f.support_radius / np.sqrt(lam)
        x, w = radial_rule(lam, grid.k_max, f.n, R, nodes_per_panel)
        fvals = f.profile_at(x, lam) * float(f.t_hat(lam))
        cols.append(transform_at_lambda(fvals, x, w, lam, grid.k_max, f.n))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("batch_nodes", [None, 300])
@pytest.mark.parametrize("f", [box_factor(1, 0.9, 0.8), box_factor(3, 0.7, 0.5),
                               gaussian_factor(2, 1.0, 0.4), ground_state(1)],
                         ids=["box1", "box3", "gauss2", "ground1"])
def test_forward_radial_matches_per_column_loop(f, batch_nodes, monkeypatch):
    # 300 nodes split the grid into several batches, some of a single column
    if batch_nodes is not None:
        monkeypatch.setattr("oracles._BATCH_NODES", batch_nodes)
    grid = QuadratureGrid.make(k_max=24, lambda_min=1e-3, lambda_max=50.0,
                               lambda_nodes=12)
    coarse = forward_radial(f, grid, check=False, nodes_per_panel=32).values
    fine = forward_radial(f, grid, nodes_per_panel=32).values
    for got, npp in ((coarse, 32), (fine, 64)):
        ref = per_column_forward(f, grid, npp)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_forward_radial_refusal_names_its_numbers():
    # three nodes per panel do not resolve degree 24: the refusal states the
    # disagreement, the tolerance and the worst cell
    grid = QuadratureGrid.make(k_max=24, lambda_min=0.5, lambda_max=40.0,
                               lambda_nodes=4)
    with pytest.raises(QuadratureError, match=r"panel refinement: disagreement "
                                              r"\d\.\d{3}e-\d\d \(> 1e-08\) "
                                              r"at k = \d+, lambda = [\d.]+$"):
        forward_radial(gaussian_factor(1, 1.0, 0.4), grid, nodes_per_panel=3)


def test_unit_mass_bounds_coefficients():
    c = forward_radial(box_factor(1, 0.9, 0.8), GRID)
    assert np.max(np.abs(c.values)) <= 1.0 + 1e-10
    # small-lambda, degree-zero coefficient approaches the total mass
    g = QuadratureGrid.make(k_max=2, lambda_min=1e-5, lambda_max=1e-4,
                            lambda_nodes=8)
    c0 = forward_radial(box_factor(1, 0.9, 0.8), g)
    assert c0.values[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_spectral_box_norms_match_closed_forms():
    # even in t, so both lambda half-axes count:
    # ||f||^2 = 2 (2 pi)^{-2} int_1^2 lam dlam = 3 / (4 pi^2)
    assert plancherel_norm(spectral_box()) == pytest.approx(
        np.sqrt(3.0 / (2.0 * np.pi) ** 2), rel=1e-6)


def test_plancherel_gaussian(gaussian_plancherel_transform):
    c, _ = gaussian_plancherel_transform
    g = c.grid
    spatial = np.sqrt(np.pi * 4.0 * 0.2 * np.sqrt(np.pi))
    assert plancherel_norm(c) == pytest.approx(spatial, rel=1e-4)
    # the closed form on the plancherel-check grid, against the oracle
    closed = gaussian_coefficients(1, 2.0, 0.2, g)
    assert (np.max(np.abs(closed.values - c.values))
            <= 1e-10 * np.max(np.abs(c.values)))
    assert plancherel_norm(closed) == pytest.approx(plancherel_norm(c), rel=1e-12)


def test_projection_dimensions():
    assert projection_hs_norm_sq(np.arange(4), 1) == pytest.approx([1, 1, 1, 1])
    # dim of the k-th eigenspace on H^2 is k+1
    assert projection_hs_norm_sq(np.arange(4), 2) == pytest.approx([1, 2, 3, 4])


def test_multiply_coeffs_requires_same_grid():
    c = forward_radial(box_factor(1, 0.9, 0.8), GRID)
    other = QuadratureGrid.make(k_max=24, lambda_min=0.05, lambda_max=20.0,
                                lambda_nodes=65)
    d = forward_radial(box_factor(1, 0.7, 0.6), other)
    with pytest.raises(GridMismatchError):
        multiply_coeffs(c, d)
    prod = multiply_coeffs(c, forward_radial(box_factor(1, 0.7, 0.6), GRID))
    assert prod.values.shape == c.values.shape


def test_dilation_closed_form_on_smooth_column():
    # R_k(lam) = delta_k0 exp(-(log lam)^2) maps to r^-4 exp(-(log(lam/r^2))^2)
    g = QuadratureGrid.make(k_max=1, lambda_min=1e-3, lambda_max=1e3,
                            lambda_nodes=512)
    vals = np.zeros((2, g.lam.size))
    vals[0] = np.exp(-np.log(g.lam) ** 2)
    c = SpectralCoefficients(n=1, grid=g, values=vals)
    r = 1.3
    d = dilate_coeffs(c, r)
    inner = (g.lam >= g.lam[0] * r ** 2)
    expect = r ** -4.0 * np.exp(-np.log(g.lam[inner] / r ** 2) ** 2)
    assert np.allclose(d.values[0][inner], expect, atol=2e-4 * r ** -4.0)
    with pytest.raises(DomainError):
        dilate_coeffs(c, -1.0)


def test_dilation_matches_spatial_dilation():
    r = 1.4
    g = QuadratureGrid.make(k_max=48, lambda_min=1e-3, lambda_max=1e3,
                            lambda_nodes=320)
    c = forward_radial(gaussian_factor(1, 2.0, 0.2), g)
    d = dilate_coeffs(c, r)
    target = forward_radial(gaussian_factor(1, 2.0 / r, 0.2 / r ** 2), g)
    # the closed form the CLI uses, against both oracle transforms
    for oracle, sz, st_ in ((c, 2.0, 0.2), (target, 2.0 / r, 0.2 / r ** 2)):
        closed = gaussian_coefficients(1, sz, st_, g).values
        assert (np.max(np.abs(closed - oracle.values))
                <= 1e-10 * np.max(np.abs(oracle.values)))
    mask = g.lam >= g.lam[0] * r ** 2
    scale = np.max(np.abs(target.values[:, mask]))
    err = np.max(np.abs(d.values[:, mask] - target.values[:, mask])) / scale
    assert err < 1e-3
