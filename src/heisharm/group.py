"""Ball geometry in C^n = R^2n, the z-factor of the Heisenberg group H^n.

The box factors of the Ingham chain are indicators of balls in C^n, so
their volumes, bounding-sphere surfaces and the volume of the symmetric
difference of a ball and its shift have closed forms here.
"""

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "ball_volume",
    "sphere_surface",
    "ball_shift_symmdiff",
    "lens_area",
    "betainc_half",
]


def ball_volume(R, dim):
    return float(np.exp(0.5 * dim * np.log(np.pi) - math.lgamma(0.5 * dim + 1)
                        + dim * np.log(R)))


def sphere_surface(dim, R):
    """Surface measure of the radius-R sphere bounding a ball in R^dim."""
    return float(np.exp(np.log(2.0) + 0.5 * dim * np.log(np.pi)
                        - math.lgamma(0.5 * dim) + (dim - 1) * np.log(R)))


def betainc_half(a, x):
    """Regularized incomplete beta I_x(a, 1/2) for a half-integer a > 0 and
    0 <= x <= 1 (array or scalar).

    From I_x(1/2, 1/2) = (2/pi) atan2(sqrt x, sqrt(1-x)), whose atan2 form
    keeps full absolute accuracy near x = 1, where arcsin(sqrt x) does not,
    stepped in a by DLMF 8.17.20 with b = 1/2: I_x(a+1, 1/2) = I_x(a, 1/2)
    - c_a x^a sqrt(1-x), c_a = Gamma(a+1/2) / (Gamma(a+1) sqrt(pi)), and
    c_{a+1} = c_a (a+1/2)/(a+1).
    """
    if a <= 0 or a - 0.5 != int(a - 0.5):
        raise ValueError(f"need a half-integer a > 0, got {a}")
    x = np.asarray(x, dtype=float)
    y = np.sqrt(1.0 - x)
    step, value, c = 0.5, 2.0 / np.pi * np.arctan2(np.sqrt(x), y), 2.0 / np.pi
    while step < a:
        value = value - c * x ** step * y
        c *= (step + 0.5) / (step + 1.0)
        step += 1.0
    return value if value.ndim else float(value)


def ball_shift_symmdiff(dim, R, xi_norm):
    """Volume of B(0,R) symmetric-difference B(xi,R) in R^dim, |xi| given.

    Twice the ball volume minus twice the lens; the lens is two spherical
    caps of height R - |xi|/2, via the regularized incomplete beta.
    """
    if dim < 2 or dim % 2 != 0:
        raise DomainError("dim must be an even integer >= 2")
    if R <= 0 or xi_norm < 0:
        raise DomainError("need R > 0 and xi_norm >= 0")
    V = ball_volume(R, dim)
    if xi_norm >= 2.0 * R:
        return 2.0 * V
    if xi_norm == 0.0:
        return 0.0
    h = R - 0.5 * xi_norm
    x = (2.0 * R * h - h * h) / R ** 2
    cap = 0.5 * V * betainc_half(0.5 * (dim + 1), x)
    return 2.0 * V - 4.0 * cap


def lens_area(R, d):
    """Area of the intersection of two disks of radius R, centers d < 2R
    apart.  numpy's arccos, not math.acos: where numpy dispatches to its
    SIMD arccos the two differ in the last bits."""
    return 2.0 * R * R * np.arccos(0.5 * d / R) - 0.5 * d * np.sqrt(4.0 * R * R - d * d)
