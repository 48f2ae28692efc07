"""Ball geometry in C^n: volumes, sphere surfaces and shifted-ball
symmetric differences."""

import math
import re
import sys

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

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


# (R, xi) with R in [1e-3, 1e3] and xi / R in [1e-150, 2), the ratio drawn
# both uniformly and log-uniformly
_SHIFTS = st.tuples(
    st.floats(min_value=1e-3, max_value=1e3),
    st.one_of(st.floats(min_value=1e-150, max_value=2.0, exclude_max=True),
              st.floats(min_value=-150.0, max_value=0.3).map(lambda e: 10.0 ** e)),
).map(lambda p: (p[0], p[0] * p[1]))


@seed(47)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4, 6]), _SHIFTS)
# small shifts where the form 2V - 4 cap cancels: to 1.9 and 1.9e6 times
# the bound, and to 0
@example(2, (3.0, 3e-8))
@example(2, (1.0, 1e-8))
@example(2, (3.0, 3e-14))
def test_symmdiff_small_shifts_keep_their_digits(dim, shift):
    R, xi = shift
    sd = ball_shift_symmdiff(dim, R, xi)
    assert math.isfinite(sd)
    assert sd <= xi * sphere_surface(dim, R) * (1.0 + 1e-12)
    ref = 2.0 * ball_volume(R, dim) * sc.betainc(0.5, 0.5 * (dim + 1), (xi / (2.0 * R)) ** 2)
    assert abs(sd - ref) <= 1e-14 * ref


def _log_unit_volume(dim):
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1)


# (what overflows, the measure at (dim, R), the log of its R^p coefficient,
# p): the volume pi^(dim/2) R^dim / Gamma(dim/2 + 1), the surface dim V / R
# and the symmetric difference's 2V
_MEASURES = [
    ("the ball volume", lambda dim, R: ball_volume(R, dim),
     _log_unit_volume, lambda dim: dim),
    ("the sphere surface", sphere_surface,
     lambda dim: math.log(dim) + _log_unit_volume(dim), lambda dim: dim - 1),
    ("twice the ball volume", lambda dim, R: ball_shift_symmdiff(dim, R, R),
     lambda dim: math.log(2.0) + _log_unit_volume(dim), lambda dim: dim),
]


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("name, measure, log_c, power", _MEASURES,
                         ids=[m[0] for m in _MEASURES])
def test_radii_whose_measure_overflows_are_refused_by_name(dim, name, measure,
                                                           log_c, power):
    limit = math.exp((math.log(sys.float_info.max) - log_c(dim)) / power(dim))
    assert math.isfinite(measure(dim, limit * (1.0 - 1e-9)))
    outside = limit * (1.0 + 1e-9)
    with pytest.raises(DomainError) as exc:
        measure(dim, outside)
    tail = f" at dim = {dim}, where {name} overflows; got {outside:g}"
    found = re.fullmatch(r"R must stay below (\S+)" + re.escape(tail), str(exc.value))
    assert found and float(found[1]) == pytest.approx(limit, rel=1e-6)


def test_tiny_radii_underflow_to_zero():
    assert ball_volume(1e-300, 4) == 0.0
    assert ball_shift_symmdiff(4, 1e-300, 1e-301) == 0.0
