"""Ball geometry in C^n = R^2n, the z-factor of the Heisenberg group H^n.
The box factors of the Ingham chain are indicators of balls in C^n: their
volumes, bounding-sphere surfaces and the volume of the symmetric
difference of a ball and its shift have closed forms here, on math."""

import math

from ._ball import require_doubles
from .errors import DomainError

__all__ = ["ball_volume", "sphere_surface", "ball_shift_symmdiff", "lens_area",
           "betainc_half_complement"]


def _measure(R, dim, p, log_c, name):
    """e^log_c R^p for R > 0, refused at dim where the measure name
    overflows."""
    if not R > 0:
        raise DomainError(f"need R > 0, got {R:g}")
    require_doubles([("R", R, [(p, log_c, name, None)], f" at dim = {dim}")])
    return math.exp(log_c + p * math.log(R))


def _log_unit_volume(dim):
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1)


def ball_volume(R, dim):
    return _measure(R, dim, dim, _log_unit_volume(dim), "the ball volume")


def sphere_surface(dim, R):
    """Surface measure of the radius-R sphere bounding a ball in R^dim."""
    return _measure(R, dim, dim - 1, math.log(2.0) + 0.5 * dim * math.log(math.pi)
                    - math.lgamma(0.5 * dim), "the sphere surface")


def betainc_half_complement(a, y):
    """1 - I_x(a, 1/2) = I_{y^2}(1/2, a), x = 1 - y^2, of the regularized
    incomplete beta, for a half-integer a > 0 and 0 <= y <= 1.

    From 1 - I_x(1/2, 1/2) = (2/pi) atan2(y, sqrt x), stepped in a by DLMF
    8.17.20 with b = 1/2: 1 - I_x(a+1, 1/2) = 1 - I_x(a, 1/2) + c_a x^a y,
    c_a = Gamma(a+1/2) / (Gamma(a+1) sqrt(pi)), c_{a+1} = c_a (a+1/2)/(a+1).
    No term is negative, so the sum keeps its relative accuracy as y -> 0,
    where 1 minus I_x(a, 1/2) loses every digit; x = (1 - y)(1 + y) keeps
    its own near y = 1."""
    if a <= 0 or a - 0.5 != int(a - 0.5):
        raise ValueError(f"need a half-integer a > 0, got {a}")
    x = (1.0 - y) * (1.0 + y)
    step, value, c = 0.5, 2.0 / math.pi * math.atan2(y, math.sqrt(x)), 2.0 / math.pi
    while step < a:
        value += c * x ** step * y
        c *= (step + 0.5) / (step + 1.0)
        step += 1.0
    return value


def ball_shift_symmdiff(dim, R, xi_norm):
    """Volume of B(0,R) symmetric-difference B(xi,R) in R^dim, |xi| given:
    2V times the complement of the lens share I_x((dim+1)/2, 1/2), the lens
    being two caps of height R - |xi|/2, 1 - x = y^2, y = |xi| / 2R.  R is
    refused where 2V overflows."""
    if dim < 2 or dim % 2 != 0:
        raise DomainError("dim must be an even integer >= 2")
    if not (R > 0 and xi_norm >= 0):
        raise DomainError(f"need R > 0 and xi_norm >= 0, got {R:g} and {xi_norm:g}")
    require_doubles([("R", R, [(dim, math.log(2.0) + _log_unit_volume(dim),
                                "twice the ball volume", None)], f" at dim = {dim}")])
    y = min(xi_norm / (2.0 * R), 1.0)
    return 2.0 * ball_volume(R, dim) * betainc_half_complement(0.5 * (dim + 1), y)


def lens_area(R, d):
    """Area of the intersection of two disks of radius R, centers d < 2R
    apart."""
    return 2.0 * R * R * math.acos(0.5 * d / R) - 0.5 * d * math.sqrt(4.0 * R * R - d * d)
