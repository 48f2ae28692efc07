"""Group law, Koranyi geometry, polar-type coordinates and ball geometry."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from heisharm.errors import DimensionMismatchError, DomainError
from heisharm.group import (HeisenbergCoords, HeisenbergPoint, Rotation,
                            ball_shift_symmdiff, ball_volume, dilate, distance,
                            from_heisenberg_coords, identity, inverse,
                            koranyi_norm, lift_theta_independent, multiply,
                            sphere_surface, to_heisenberg_coords)

ATOL = 1e-12
LENS_TOL = 1e-10

coord = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def pt(zr, zi, t):
    return HeisenbergPoint(np.array([complex(zr, zi)]), t)


def close(x, y, tol=ATOL):
    return np.allclose(x.z, y.z, atol=tol) and abs(x.t - y.t) <= tol


def test_group_law_example():
    # (1+i, 0.5)(2-i, -0.25): twist = Im((1+i)(2+i))/2 = 3/2
    x = pt(1.0, 1.0, 0.5)
    y = pt(2.0, -1.0, -0.25)
    z = multiply(x, y)
    assert np.allclose(z.z, [3.0 + 0.0j])
    assert z.t == pytest.approx(0.5 - 0.25 + 1.5)


def test_identity_and_inverse():
    x = pt(0.3, -1.2, 2.0)
    e = identity(1)
    assert close(multiply(x, e), x)
    assert close(multiply(e, x), x)
    assert close(multiply(x, inverse(x)), e)
    assert close(multiply(inverse(x), x), e)


@seed(7)
@settings(max_examples=60, deadline=None)
@given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
def test_associativity(a, b, c, d, e, f, g, h, i):
    x, y, z = pt(a, b, c), pt(d, e, f), pt(g, h, i)
    lhs = multiply(multiply(x, y), z)
    rhs = multiply(x, multiply(y, z))
    assert close(lhs, rhs, tol=1e-9)


def test_noncommutativity():
    x = pt(1.0, 0.0, 0.0)
    y = pt(0.0, 1.0, 0.0)
    assert multiply(x, y).t != multiply(y, x).t


def test_koranyi_norm_values():
    assert koranyi_norm(pt(0.0, 0.0, 4.0)) == pytest.approx(2.0)
    assert koranyi_norm(pt(1.0, 0.0, 0.0)) == pytest.approx(1.0)
    # |z|^4 = 1e400 overflows naively; the hypot form stays finite
    big = pt(1e100, 0.0, 0.0)
    assert koranyi_norm(big) == pytest.approx(1e100)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(coord, coord, coord, st.floats(min_value=0.1, max_value=8.0))
def test_norm_homogeneous_under_dilation(a, b, t, r):
    x = pt(a, b, t)
    assert koranyi_norm(dilate(x, r)) == pytest.approx(r * koranyi_norm(x),
                                                      rel=1e-12, abs=1e-12)


def test_dilation_is_automorphism():
    x = pt(0.4, -0.2, 0.9)
    y = pt(-1.1, 0.6, -0.3)
    r = 1.7
    assert close(dilate(multiply(x, y), r),
                 multiply(dilate(x, r), dilate(y, r)), tol=1e-12)
    with pytest.raises(DomainError):
        dilate(x, 0.0)


def test_distance_left_invariance():
    x, y, g = pt(0.2, 0.3, -0.5), pt(-0.7, 0.1, 0.4), pt(1.0, -1.0, 2.0)
    assert distance(multiply(g, x), multiply(g, y)) == pytest.approx(
        distance(x, y), rel=1e-12)


def test_dimension_mismatch_refused():
    x = pt(1.0, 0.0, 0.0)
    y = HeisenbergPoint(np.zeros(2, dtype=complex), 0.0)
    with pytest.raises(DimensionMismatchError):
        multiply(x, y)


@seed(13)
@settings(max_examples=60, deadline=None)
@given(coord, coord, coord)
def test_coords_round_trip(a, b, t):
    x = pt(a, b, t)
    back = from_heisenberg_coords(to_heisenberg_coords(x))
    # sqrt(sin theta) halves the precision at the t-axis seam theta = pi
    assert np.allclose(back.z, x.z, atol=2e-7)
    assert back.t == pytest.approx(x.t, abs=1e-9)


def test_coords_ranges():
    c = to_heisenberg_coords(pt(0.5, -0.5, -2.0))
    assert 0.0 <= c.theta <= np.pi
    assert c.rho >= 0
    assert np.abs(np.abs(c.omega[0]) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        from_heisenberg_coords(HeisenbergCoords(rho=1.0,
                                                omega=np.array([1.0 + 0j]),
                                                theta=4.0))


def test_rotation_preserves_norm_and_t():
    rot = Rotation(np.exp(1j * 0.7))
    x = pt(0.8, -0.6, 1.3)
    y = rot.apply(x)
    assert y.t == x.t
    assert koranyi_norm(y) == pytest.approx(koranyi_norm(x), rel=1e-12)
    with pytest.raises(DomainError):
        Rotation(1.5)


def test_rotation_unitary_matrix():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    rot = Rotation(u)
    x = HeisenbergPoint(np.array([1.0 + 2.0j, -0.5 + 0.0j]), 0.4)
    assert koranyi_norm(rot.apply(x)) == pytest.approx(koranyi_norm(x))
    with pytest.raises(DomainError):
        Rotation(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_lift_theta_independent_restricts_on_t_zero_slice():
    g = lambda z: float(np.sum(np.abs(z) ** 2))
    f = lift_theta_independent(g)
    x = pt(0.6, -0.3, 0.0)
    # theta = pi/2 on the slice, so rho*omega recovers z up to phase modulus
    assert f(x) == pytest.approx(g(x.z), rel=1e-12)


def test_ball_geometry_values():
    assert ball_volume(1.0, 2) == pytest.approx(np.pi)
    assert ball_volume(1.0, 4) == pytest.approx(np.pi ** 2 / 2.0)
    assert sphere_surface(2, 3.0) == pytest.approx(6.0 * np.pi)
    assert sphere_surface(4, 1.0) == pytest.approx(2.0 * np.pi ** 2)


def test_symmdiff_matches_planar_lens():
    for R, d in ((1.0, 0.3), (0.7, 0.9), (2.5, 4.9)):
        lens = 2.0 * R ** 2 * np.arccos(0.5 * d / R) \
            - 0.5 * d * np.sqrt(4.0 * R ** 2 - d ** 2)
        sd = ball_shift_symmdiff(2, R, d)
        assert abs(sd - (2.0 * np.pi * R ** 2 - 2.0 * lens)) < LENS_TOL


def test_symmdiff_edges_and_bound():
    assert ball_shift_symmdiff(4, 1.3, 0.0) == 0.0
    assert ball_shift_symmdiff(4, 1.3, 2.6) == pytest.approx(
        2.0 * ball_volume(1.3, 4))
    assert ball_shift_symmdiff(4, 1.3, 99.0) == pytest.approx(
        2.0 * ball_volume(1.3, 4))
    xi = np.linspace(0.0, 2.0, 41)
    vals = [ball_shift_symmdiff(2, 1.0, x) for x in xi]
    assert np.all(np.diff(vals) >= 0)
    for dim in (2, 4):
        for d in (0.05, 0.4, 1.0):
            assert ball_shift_symmdiff(dim, 1.0, d) <= d * sphere_surface(dim, 1.0)
    with pytest.raises(DomainError):
        ball_shift_symmdiff(3, 1.0, 0.5)
    with pytest.raises(DomainError):
        ball_shift_symmdiff(2, -1.0, 0.5)
