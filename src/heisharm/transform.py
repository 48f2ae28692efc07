"""Radial group Fourier transform and spectral calculus.

A radial function f(z, t) = F(|z|, t) is represented spectrally by the
coefficients

    R_k(lam) = (2 pi^n / Gamma(n)) * C_{k,n}^2
               * int_0^inf f^lam(r) phi_k(lam, r) r^{2n-1} dr,

where f^lam(r) = int f(r, t) e^{i lam t} dt, phi_k is the scaled Laguerre
function of order n-1, and C_{k,n}^2 = k! (n-1)! / (k+n-1)!.  With this
normalization the coefficients of the identity-scaled Gaussian e^{-|lam| r^2 / 4}
are (2 pi / lam)^n delta_{k0}, group convolution becomes the entrywise
product, and the sublaplacian acts as multiplication by (2k+n) |lam|.

Coefficients are stored on the positive lambda half-axis only.  The
``symmetric`` flag records whether the function is even in t, in which case
norm integrals double the single-sided value; with symmetric=False the
norms are literal single-sided integrals.
"""

import numpy as np

from ._record import Record
from ._special import gammainc_int, gammaln
from .errors import DimensionMismatchError, DomainError, GridMismatchError
from .grids import _unit_rule, gauss_legendre_panels
from .laguerre import _orthonormal_rows, normalized_laguerre_table

__all__ = [
    "SpectralCoefficients",
    "box_coefficients",
    "gaussian_coefficients",
    "ball_normalizer",
    "ball_coefficients",
    "projection_hs_norm_sq",
    "transform_at_lambda",
    "plancherel_norm",
    "multiply_coeffs",
    "dilate_coeffs",
    "box_pair_convolution",
    "box_convolution_grids",
    "box_convolution_coefficients",
]


def ball_normalizer(n):
    """Radius multiplier a with vol_{2n}(a) * a^{2n}-ball volume equal to 1.

    The ball of radius a*rho in C^n has Lebesgue volume rho^{2n}, so the
    indicator scaled by rho^{-2n} integrates to one.
    """
    return float(np.exp((gammaln(n + 1) - n * np.log(np.pi)) / (2.0 * n)))


# e^{-x/2} is exactly zero in double precision past x = 1491, so every row of
# an orthonormal table is zero there; capping x^{alpha+1} at this point only
# keeps 0 * inf out of the recurrence
_POWER_CAP = 1e4


def ball_coefficients(s, k_max, n):
    """Coefficients 0..k_max of the unit normalized ball indicator (height 1
    on |z| <= a, a = ball_normalizer(n)) at every s = lam rho^2 > 0 of a 1-d
    array; returns shape (k_max+1, s.size).

    Closed form of the radial transform: with alpha = n-1, x = s a^2 / 2 and
    I_k(x) = int_0^x u^alpha e^{-u/2} L_k^alpha(u) du,

        I_0 = 2^{alpha+1} gamma(alpha+1, x/2),
        I_{k+1} = (2 x^{alpha+1} e^{-x/2} L_k^{alpha+1}(x)
                   - (k+alpha+1) I_k) / (k+1),

    carried on J_k = (k!/Gamma(k+alpha+1))^{1/2} I_k so that the
    L_k^{alpha+1} values come bounded from the orthonormal recurrence.  The
    substitution u = s r^2 / 2 turns R_k into 2^alpha s^{-n} sqrt(Gamma(n))
    pref C_{k,n} J_k, with pref C_{k,n} the weights of transform_at_lambda.

    Two properties hold bit for bit, and the chain layer relies on both:
    the table at a subset of the s values is those columns of the full
    table, and rows 0..k of a table up to any degree K >= k are the table
    up to k, since both recurrences run forward in k.  The one batch-wide
    quantity is the length of gammainc_int's series, which runs until every
    column has converged; the terms a column gets past its own stopping
    point are below _SERIES_EPS = 1e-17 of its sum, under half an ulp, so
    they leave it unchanged.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or not np.all(s > 0):
        raise DomainError("need a 1-d array of s > 0")
    alpha = n - 1.0
    a = ball_normalizer(n)
    x = 0.5 * s * a * a
    xpow = 2.0 * np.minimum(x, _POWER_CAP) ** (alpha + 1.0)
    J = np.empty((k_max + 1, s.size))
    J[0] = 2.0 ** (alpha + 1.0) * np.exp(0.5 * gammaln(alpha + 1.0)) \
        * gammainc_int(n, 0.5 * x)
    # rows 0..k_max-1 of the L^{alpha+1} recurrence feed J as they come, so
    # J is the only (k_max+1)-row table held
    rows = _orthonormal_rows(k_max, alpha + 1.0, x)
    for k, orth_k in zip(range(k_max), rows):
        J[k + 1] = (xpow * orth_k - np.sqrt(k + alpha + 1.0) * J[k]) / np.sqrt(k + 1.0)
    weights = _coefficient_weights(k_max, n) * (np.exp(0.5 * gammaln(n)) * 2.0 ** alpha)
    J *= weights[:, None]
    J *= s ** -float(n)
    return J


def _box_t_hat(tau, lam):
    """Transform of the normalized indicator of an interval of length tau^2
    in t: sinc(tau^2 lam / 2)."""
    return np.sinc(tau ** 2 * np.asarray(lam, dtype=float) / (2.0 * np.pi))


def _gaussian_t_hat(sigma_t, lam):
    """Transform of e^{-t^2/(2 sigma_t^2)}: sigma_t sqrt(2 pi)
    e^{-lam^2 sigma_t^2 / 2}."""
    lam = np.asarray(lam, dtype=float)
    return sigma_t * np.sqrt(2.0 * np.pi) * np.exp(-(lam * sigma_t) ** 2 / 2.0)


def box_coefficients(n, rho, tau, grid):
    """SpectralCoefficients on the grid of the box factor: the normalized
    indicator of the ball of radius a*rho in z (a = ball_normalizer(n))
    times that of an interval of length tau^2 in t.  Closed form: the unit
    ball table at s = lam rho^2 times the interval transform.
    heisharm.oracles.forward_radial of oracles.box_factor is its quadrature
    oracle."""
    if rho <= 0 or tau <= 0:
        raise DomainError("box factor needs rho > 0 and tau > 0")
    vals = ball_coefficients(grid.lam * rho ** 2, grid.k_max, n)
    vals *= _box_t_hat(tau, grid.lam)
    return SpectralCoefficients(n=n, grid=grid, values=vals, symmetric=True)


def gaussian_coefficients(n, sigma_z, sigma_t, grid):
    """SpectralCoefficients on the grid of the Gaussian
    e^{-|z|^2/(2 sigma_z^2)} e^{-t^2/(2 sigma_t^2)}, from the closed form
    given by the Laguerre generating function: with b = lam sigma_z^2 and
    q = (2 - b) / (2 + b),

        R_k(lam) = (4 pi sigma_z^2 / (2 + b))^n q^k t_hat(lam).

    At b = 2 this is the ground state (2 pi / lam)^n delta_{k0}.
    heisharm.oracles.forward_radial of oracles.gaussian_factor is its
    quadrature oracle.
    """
    if sigma_z <= 0 or sigma_t <= 0:
        raise DomainError("gaussian factor needs positive widths")
    b = grid.lam * sigma_z ** 2
    q = (2.0 - b) / (2.0 + b)
    k = np.arange(grid.k_max + 1, dtype=float)
    vals = (4.0 * np.pi * sigma_z ** 2 / (2.0 + b)) ** n * _gaussian_t_hat(sigma_t, grid.lam) \
        * q[None, :] ** k[:, None]
    return SpectralCoefficients(n=n, grid=grid, values=vals, symmetric=True)


def projection_hs_norm_sq(k, n):
    """Squared Hilbert-Schmidt norm of the k-th spectral projection:
    the eigenspace dimension (k+n-1)! / (k! (n-1)!)."""
    k = np.asarray(k)
    return np.exp(gammaln(k + n) - gammaln(k + 1) - gammaln(n))


class SpectralCoefficients(Record):
    """Matrix of R_k(lam) on a shared grid; rows are degrees 0..k_max,
    columns the positive lambda nodes.  Instances are immutable; all
    operations return new objects."""

    __slots__ = ("n", "grid", "values", "symmetric")

    def __init__(self, n, grid, values, symmetric=True):
        v = np.asarray(values, dtype=float)
        want = (grid.k_max + 1, grid.lam.size)
        if v.shape != want:
            raise GridMismatchError(f"values shape {v.shape} != {want} from grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("coefficient values must be finite")
        if n < 1:
            raise DimensionMismatchError("n must be a positive integer")
        v = v.copy()
        v.setflags(write=False)
        self._assign(n=n, grid=grid, values=v, symmetric=symmetric)

    @property
    def k(self):
        return np.arange(self.grid.k_max + 1)

    def with_values(self, values):
        """The same coefficient set with new values, validated as in
        construction."""
        return type(self)(self.n, self.grid, values, self.symmetric)


def _coefficient_weights(k_max, n):
    """pref C_{k,n} for k = 0..k_max, with pref = 2 pi^n / Gamma(n): the
    factor in front of every coefficient's radial integral."""
    k = np.arange(k_max + 1)
    c = np.exp(0.5 * (gammaln(k + 1) + gammaln(n) - gammaln(k + n)))
    return 2.0 * np.pi ** n / np.exp(gammaln(n)) * c


def transform_at_lambda(fvals, x, w, lam, k_max, n):
    """Coefficient vector R_.(lam) from samples fvals of f^lam on the radial
    rule (x, w).  Used directly when f^lam only exists as samples, e.g. the
    output of a spatial convolution."""
    fvals = np.asarray(fvals, dtype=float)
    x = np.asarray(x, dtype=float)
    table = normalized_laguerre_table(k_max, lam, n, x)
    integrand = fvals * w * x ** (2 * n - 1)
    return _coefficient_weights(k_max, n) * np.sum(table * integrand[None, :], axis=1)


def _transform_at_lambdas(fvals, x, w, lams, k_max, n):
    """transform_at_lambda at every lam of a 1-d array at once, with row i
    of fvals holding the samples at lams[i]; returns shape
    (k_max+1, lams.size).

    One Laguerre table covers every (lam, r) pair, and each (k, lam) sum
    runs over the same contiguous row of radii as in transform_at_lambda,
    so every column is the float that transform_at_lambda gives.
    """
    x = np.asarray(x, dtype=float)
    table = normalized_laguerre_table(k_max, np.asarray(lams, dtype=float)[:, None], n, x)
    integrand = np.asarray(fvals, dtype=float) * w * x ** (2 * n - 1)
    return _coefficient_weights(k_max, n)[:, None] * np.sum(table * integrand, axis=-1)


def plancherel_norm(coeffs):
    """L^2 norm of the represented function."""
    g = coeffs.grid
    n = coeffs.n
    hs = projection_hs_norm_sq(coeffs.k, n)
    sq = coeffs.values ** 2
    sq *= hs[:, None]
    per_lam = np.sum(sq, axis=0)
    total = np.sum(per_lam * g.lambda_measure_weights(n))
    if coeffs.symmetric:
        total *= 2.0
    return float(np.sqrt(total / (2.0 * np.pi) ** (n + 1)))


def _require_compatible(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: n={a.n} vs n={b.n}")
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("coefficient sets live on different grids")
    if a.symmetric != b.symmetric:
        raise GridMismatchError("mixed symmetric conventions")


def multiply_coeffs(a, b):
    """Spectral side of group convolution: entrywise product."""
    _require_compatible(a, b)
    return a.with_values(a.values * b.values)


def dilate_coeffs(coeffs, r):
    """Coefficients of f composed with the dilation (z,t) -> (rz, r^2 t):

        R_k(lam) -> r^{-(2n+2)} R_k(lam / r^2),

    evaluated by linear interpolation in log lambda; queries outside the
    stored window are set to zero, so norms of strongly dilated functions
    lose the mass that leaves the window.
    """
    if not r > 0:
        raise DomainError("dilation factor must be positive")
    g = coeffs.grid
    logl = np.log(g.lam)
    q = logl - 2.0 * np.log(r)
    out = np.empty_like(coeffs.values)
    for k in range(coeffs.values.shape[0]):
        out[k] = np.interp(q, logl, coeffs.values[k], left=0.0, right=0.0)
    out *= float(r) ** (-(2.0 * coeffs.n + 2.0))
    return coeffs.with_values(out)


def _box_u_rule(cuts, singular, nodes):
    """Composite Gauss-Legendre rule in u over the panels between cuts.

    arccos of the overlap angle behaves like sqrt(u - c) at the cut points
    where the circles touch; substituting u = c +/- v^2 on panels ending
    there makes the integrand analytic again.
    """
    panels = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s_lo = any(abs(lo - c) < 1e-12 for c in singular)
        s_hi = any(abs(hi - c) < 1e-12 for c in singular)
        if s_lo and s_hi:
            mid = 0.5 * (lo + hi)
            panels += [(lo, mid, True, False), (mid, hi, False, True)]
        else:
            panels.append((lo, hi, s_lo, s_hi))
    per = nodes // len(panels) + 8
    q, qw = _unit_rule(per)
    xs, ws = [], []
    for lo, hi, s_lo, s_hi in panels:
        if s_lo or s_hi:
            vmax = np.sqrt(hi - lo)
            v = 0.5 * vmax * (q + 1.0)
            wv = 0.5 * vmax * qw * 2.0 * v
            xs.append(lo + v ** 2 if s_lo else hi - v ** 2)
            ws.append(wv)
        else:
            xs.append(0.5 * (hi - lo) * (q + 1.0) + lo)
            ws.append(np.full(per, 0.5 * (hi - lo)) * qw)
    return np.concatenate(xs), np.concatenate(ws)


def _ramp_arc_integral(d, s, psis):
    """int_{-psi*}^{psi*} (d + s sin(psi))_+ dpsi, elementwise, for s >= 0
    and psi* in [0, pi].

    For s > 0 the integrand is positive where sin(psi) > -d/s, which on
    (-pi, pi] is the arc (a, pi - a) with a = arcsin(-d/s), together with
    (-pi, -pi - a) when a < 0.  On each arc the antiderivative is
    d psi - s cos(psi).  At s = 0 the value is the limit 2 psi* d_+, which
    the same arcs give with a = -pi/2 for d > 0 and a = pi/2 otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(s > 0, -d / s, np.where(d > 0, -1.0, 1.0))
    a = np.arcsin(np.clip(c, -1.0, 1.0))

    def arc(lo, hi):
        # [d psi - s cos(psi)]_lo^hi without cancelling the cosines
        return d * (hi - lo) + 2.0 * s * np.sin(0.5 * (hi + lo)) * np.sin(0.5 * (hi - lo))

    lo1 = np.maximum(a, -psis)
    hi1 = np.maximum(lo1, np.minimum(np.pi - a, psis))
    hi2 = np.maximum(-psis, -np.pi - a)
    return arc(lo1, hi1) + arc(-psis, hi2)


def _ramp_arc_integrals(d, s, psis):
    """_ramp_arc_integral on the table of every offset d (1-d, rows) against
    every (s, psi*) pair (1-d, columns), with the arcsin and the sines
    evaluated only on the cells where the ramp changes sign on the arc.

    Where s <= |d| the integrand (d + s sin(psi))_+ keeps one sign on the
    whole arc: for d <= 0 it is 0 there, which _ramp_arc_integral also
    returns, and for d > 0 its clipped -d/s is -1, so a = -pi/2 and the arc
    ends, with them the sine terms, depend on the column alone.  The other
    cells go through _ramp_arc_integral itself; every value is the float it
    gives, with the same operands in the same order.
    """
    out = np.zeros((d.size, s.size))
    # arc(lo1, hi1) + arc(-psis, hi2) of _ramp_arc_integral at a = arcsin(-1)
    # for the rows with d > 0; their sign-changing cells are overwritten below
    a = np.arcsin(-1.0)
    neg = -psis
    lo1 = np.maximum(a, neg)
    hi1 = np.maximum(lo1, np.minimum(np.pi - a, psis))
    hi2 = np.maximum(neg, -np.pi - a)
    sin1 = 2.0 * s * np.sin(0.5 * (hi1 + lo1)) * np.sin(0.5 * (hi1 - lo1))
    sin2 = 2.0 * s * np.sin(0.5 * (hi2 + neg)) * np.sin(0.5 * (hi2 - neg))
    up = np.flatnonzero(d > 0)
    du = d[up, None]
    out[up] = (du * (hi1 - lo1) + sin1) + (du * (hi2 - neg) + sin2)
    # a NaN offset fails the comparison and keeps _ramp_arc_integral's NaN
    cells = np.flatnonzero(~(np.abs(d)[:, None] >= s))
    row, col = np.divmod(cells, s.size)
    out.flat[cells] = _ramp_arc_integral(d[row], s[col], psis[col])
    return out


def box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes=256):
    """Group convolution of two box factors on the n=1 group, evaluated
    directly in space at the points (|z|, t) = (r, t).

    The t-part convolution of the two normalized interval indicators is the
    closed-form trapezoid G; what remains is a planar integral over the
    second ball, reduced to polar coordinates:

        h(r, t) = rho1^{-2} rho2^{-2} int_0^{u*} u
                  int_{-psi*(u)}^{psi*(u)} G(t + r u sin(psi)/2) dpsi du,

    with psi*(u) the half-angle where |z - w| leaves the first ball.  G is
    the sum of four ramps,

        G(T) = hgt [(T+M)_+ - (T+m)_+ - (T-m)_+ + (T-M)_+],

    with M, m the sum and difference of the interval half-widths, so the
    psi-integral is exact (:func:`_ramp_arc_integral`); its arcsin and
    sines run only on the (t, ramp, u) cells where the ramp changes sign on
    the arc (:func:`_ramp_arc_integrals`).  The u-integral is split where
    psi* loses smoothness; its rule depends on r only, so it is built once
    per distinct r and shared by every t.
    """
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = tau1 ** 2 / 2.0, tau2 ** 2 / 2.0
    hgt = 1.0 / (tau1 ** 2 * tau2 ** 2)
    big, small = half1 + half2, abs(half1 - half2)
    # ramp offsets of G, with signs + - - +
    offsets = np.array([big, small, -small, -big])

    rb, tb = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(t, dtype=float))
    out = np.zeros(rb.shape)
    flat_t, flat_out = tb.ravel(), out.reshape(-1)
    radii, which = np.unique(rb.ravel(), return_inverse=True)
    for j, ri in enumerate(radii.tolist()):
        umax = min(A2, ri + A1)
        if umax <= 0:
            continue
        singular = [c for c in (abs(A1 - ri), ri + A1) if 0.0 < c <= umax]
        cuts = sorted({0.0, umax} | {c for c in singular if c < umax})
        ux, uw = _box_u_rule(cuts, singular, u_nodes)
        gamma = (ri ** 2 + ux ** 2 - A1 ** 2) / np.maximum(2.0 * ri * ux, 1e-300)
        if ri == 0.0:
            psis = np.where(ux <= A1, np.pi, 0.0)
        else:
            psis = np.arccos(np.clip(gamma, -1.0, 1.0))
        sel = np.flatnonzero(which == j)
        # ramps has shape (len(sel), 4, u nodes); u is the last, contiguous
        # axis, so each sample's u-sum is the same whatever else is batched
        d = (flat_t[sel, None] + offsets[None, :]).ravel()
        ramps = _ramp_arc_integrals(d, 0.5 * ri * ux, psis).reshape(sel.size, 4, -1)
        inner = ramps[:, 0] - ramps[:, 1] - ramps[:, 2] + ramps[:, 3]
        flat_out[sel] = np.sum(inner * (ux * uw), axis=-1)
    return out * (hgt / (rho1 ** 2 * rho2 ** 2))


def box_convolution_grids(rho1, tau1, rho2, tau2,
                          r_panel_nodes=12, t_panel_nodes=13):
    """Sampling grids (r nodes, r weights, t nodes, t weights) for the
    spatial convolution of two box factors on H^1.

    Panels split where the convolution has kinks: at |A1 - A2| and A1 + A2
    in r, at the interval half-width gap and sum in t.  The twist term of
    the group law widens the t-support beyond the interval sum by up to
    A1 A2 / 2, the largest symplectic area between the two balls.
    """
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = 0.5 * tau1 ** 2, 0.5 * tau2 ** 2
    t_top = half1 + half2 + 0.5 * A1 * A2
    rcuts = [0.0] + sorted(c for c in {abs(A1 - A2)} if 0.0 < c < A1 + A2) + [A1 + A2]
    x, wx = gauss_legendre_panels(rcuts, r_panel_nodes)
    tcuts = [0.0] + sorted(c for c in {abs(half1 - half2), half1 + half2}
                           if 0.0 < c < t_top) + [t_top]
    tx, wt = gauss_legendre_panels(tcuts, t_panel_nodes)
    return x, wx, tx, wt


def box_convolution_coefficients(rho1, tau1, rho2, tau2, lams, k_max,
                                 r_panel_nodes=12, t_panel_nodes=13,
                                 u_nodes=192):
    """Spectral coefficients of the group convolution of two box factors on
    H^1, obtained entirely on the spatial side.

    The convolution is sampled on the tensor grid of
    :func:`box_convolution_grids`, cosine-transformed in t at each lam, then
    pushed through the radial transform, every lam at once.  Returns an
    array of shape (k_max+1, len(lams)).
    """
    x, wx, tx, wt = box_convolution_grids(rho1, tau1, rho2, tau2,
                                          r_panel_nodes, t_panel_nodes)
    H = box_pair_convolution(rho1, tau1, rho2, tau2, x[:, None], tx[None, :],
                             u_nodes)
    lams = np.asarray(lams, dtype=float)
    # even in t, so the transform in t is twice the half-line cosine sum; t
    # is the last, contiguous axis, so each (lam, r) sum is the same row sum
    # whatever else is batched
    cosines = wt * np.cos(lams[:, None] * tx)
    flam = 2.0 * np.sum(H[None, :, :] * cosines[:, None, :], axis=-1)
    return _transform_at_lambdas(flam, x, wx, lams, k_max, 1)
