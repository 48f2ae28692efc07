"""Points and elementary geometry of the Heisenberg group H^n = C^n x R.

The group law is (z,t)(w,s) = (z+w, t+s+Im(z.conj(w))/2), the inverse is
(-z,-t), and the anisotropic dilations delta_r(z,t) = (rz, r^2 t) scale the
homogeneous Koranyi norm |(z,t)| = (|z|^4 + t^2)^(1/4) by r.  Lebesgue
measure dz dt serves as the Haar measure.

Polar-type coordinates: every point satisfies t + i|z|^2 = rho^2 e^(i theta)
with theta in [0, pi], rho the Koranyi norm, and z = rho sqrt(sin theta) omega
for a unit vector omega.  At z = 0 the direction omega is taken to be the
first basis vector so the coordinate map is total.  Balls in C^n = R^2n
have closed-form volume, surface and shifted-ball symmetric difference.
"""

import numpy as np

from ._record import Record
from ._special import betainc_half, gammaln
from .errors import DimensionMismatchError, DomainError

__all__ = [
    "HeisenbergPoint",
    "HeisenbergCoords",
    "Rotation",
    "multiply",
    "inverse",
    "identity",
    "koranyi_norm",
    "distance",
    "dilate",
    "to_heisenberg_coords",
    "from_heisenberg_coords",
    "lift_theta_independent",
    "ball_volume",
    "sphere_surface",
    "ball_shift_symmdiff",
]


class HeisenbergPoint(Record):
    """A point (z, t) with z in C^n and t real."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if z.ndim != 1 or z.size == 0:
            raise DomainError("z must be a nonempty complex vector")
        self._assign(z=z, t=float(t))

    @property
    def n(self):
        return self.z.size


class HeisenbergCoords(Record):
    """Polar-type coordinates (rho, omega, theta) of a point."""

    __slots__ = ("rho", "omega", "theta")

    def __init__(self, rho, omega, theta):
        self._assign(rho=rho, omega=omega, theta=theta)


def _check_same_dim(x, y):
    if x.n != y.n:
        raise DimensionMismatchError(
            f"points live on H^{x.n} and H^{y.n}; operations need equal dimension"
        )


def identity(n=1):
    return HeisenbergPoint(np.zeros(n, dtype=complex), 0.0)


def multiply(x: HeisenbergPoint, y: HeisenbergPoint) -> HeisenbergPoint:
    """Group product xy = (z+w, t+s+Im(z.conj(w))/2)."""
    _check_same_dim(x, y)
    twist = 0.5 * float(np.imag(np.sum(x.z * np.conj(y.z))))
    return HeisenbergPoint(x.z + y.z, x.t + y.t + twist)


def inverse(x: HeisenbergPoint) -> HeisenbergPoint:
    return HeisenbergPoint(-x.z, -x.t)


def koranyi_norm(x: HeisenbergPoint) -> float:
    """Homogeneous norm (|z|^4 + t^2)^(1/4)."""
    zsq = float(np.sum(np.abs(x.z) ** 2))
    # hypot keeps |z|^4 + t^2 from overflowing for large coordinates
    return float(np.sqrt(np.hypot(zsq, x.t)))


def distance(x: HeisenbergPoint, y: HeisenbergPoint) -> float:
    """Left-invariant distance |x^-1 y|."""
    return koranyi_norm(multiply(inverse(x), y))


def dilate(x: HeisenbergPoint, r: float) -> HeisenbergPoint:
    """Anisotropic dilation delta_r(z,t) = (rz, r^2 t), r > 0."""
    if r <= 0:
        raise DomainError(f"dilation parameter must be positive, got {r}")
    return HeisenbergPoint(r * x.z, r * r * x.t)


def to_heisenberg_coords(x: HeisenbergPoint) -> HeisenbergCoords:
    """Coordinates (rho, omega, theta) with t + i|z|^2 = rho^2 e^(i theta).

    theta lies in [0, pi] because |z|^2 >= 0.  At the origin and on the
    t-axis, omega defaults to the first basis vector.
    """
    zsq = float(np.sum(np.abs(x.z) ** 2))
    rho = koranyi_norm(x)
    theta = float(np.arctan2(zsq, x.t))
    if zsq > 0:
        omega = x.z / np.sqrt(zsq)
    else:
        omega = np.zeros(x.n, dtype=complex)
        omega[0] = 1.0
    return HeisenbergCoords(rho=rho, omega=omega, theta=theta)


def from_heisenberg_coords(c: HeisenbergCoords, n=None) -> HeisenbergPoint:
    """Inverse of to_heisenberg_coords: z = rho sqrt(sin theta) omega, t = rho^2 cos theta."""
    omega = np.atleast_1d(np.asarray(c.omega, dtype=complex))
    if not (0.0 <= c.theta <= np.pi):
        raise DomainError(f"theta must lie in [0, pi], got {c.theta}")
    if c.rho < 0:
        raise DomainError(f"rho must be nonnegative, got {c.rho}")
    z = c.rho * np.sqrt(np.sin(c.theta)) * omega
    t = c.rho ** 2 * np.cos(c.theta)
    return HeisenbergPoint(z, t)


def lift_theta_independent(g):
    """Lift a radial profile on C^n to a theta-independent function on H^n.

    Returns f with f(z,t) = g(rho omega), where rho is the Koranyi norm of
    (z,t) and omega the direction of z.  Such f depends on (z,t) only through
    rho and omega, never through theta; on the slice t = 0 it restricts to g.
    """

    def f(x: HeisenbergPoint):
        c = to_heisenberg_coords(x)
        return g(c.rho * c.omega)

    return f


class Rotation:
    """A unitary rotation z -> sigma z fixing the center.

    For n = 1 pass a unit complex phase; for general n an (n, n) complex
    matrix.  Unitarity is checked to 1e-10 at construction.
    """

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=complex)
        if sigma.ndim == 0:
            if abs(abs(complex(sigma)) - 1.0) > 1e-10:
                raise DomainError("phase must have unit modulus")
            self.matrix = sigma.reshape(1, 1)
        else:
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise DomainError("rotation must be a square matrix or a scalar phase")
            defect = np.abs(sigma.conj().T @ sigma - np.eye(sigma.shape[0])).max()
            if defect > 1e-10:
                raise DomainError(f"matrix is not unitary (defect {defect:.3e})")
            self.matrix = sigma
        self.n = self.matrix.shape[0]

    def apply(self, x: HeisenbergPoint) -> HeisenbergPoint:
        if x.n != self.n:
            raise DimensionMismatchError(
                f"rotation on C^{self.n} applied to point in H^{x.n}"
            )
        return HeisenbergPoint(self.matrix @ x.z, x.t)


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
