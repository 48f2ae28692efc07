"""Ball geometry in C^n = R^2n, the z-factor of the Heisenberg group H^n.

The box factors of the Ingham chain are indicators of balls in C^n, so
their volumes, bounding-sphere surfaces and the volume of the symmetric
difference of a ball and its shift have closed forms here.
"""

import numpy as np

from ._special import betainc_half, gammaln
from .errors import DomainError

__all__ = [
    "ball_volume",
    "sphere_surface",
    "ball_shift_symmdiff",
]


def ball_volume(R, dim):
    return float(np.exp(0.5 * dim * np.log(np.pi) - gammaln(0.5 * dim + 1)
                        + dim * np.log(R)))


def sphere_surface(dim, R):
    """Surface measure of the radius-R sphere bounding a ball in R^dim."""
    return float(np.exp(np.log(2.0) + 0.5 * dim * np.log(np.pi)
                        - gammaln(0.5 * dim) + (dim - 1) * np.log(R)))


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
