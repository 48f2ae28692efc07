"""Ball geometry in C^n: volumes, sphere surfaces and shifted-ball
symmetric differences."""

import numpy as np
import pytest

from heisharm.errors import DomainError
from heisharm.group import ball_shift_symmdiff, ball_volume, sphere_surface

LENS_TOL = 1e-10


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
