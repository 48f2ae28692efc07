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

Coefficients are stored on the positive lambda half-axis only.  Every
represented function is even in t, so R_k(-lam) = R_k(lam) and the norms
double the one-sided lambda integral; there is no convention flag.
"""

import numpy as np

from ._ball import (ball_normalizer, ball_recurrence, ball_steps, ball_weights,
                    coefficient_weights, convolution_t_top, log_c, log_hs_norm_sq,
                    plancherel_overflow)
from ._record import Record
from .errors import DimensionMismatchError, DomainError, GridMismatchError
from .grids import _unit_rule, gauss_legendre_panels
from .laguerre import normalized_laguerre_table

__all__ = [
    "SpectralCoefficients",
    "box_coefficients",
    "ball_coefficients",
    "projection_hs_norm_sq",
    "transform_at_lambda",
    "plancherel_norm",
    "multiply_coeffs",
    "box_pair_convolution",
    "box_convolution_grids",
    "box_convolution_coefficients",
]


def ball_coefficients(s, k_max, n):
    """Coefficients 0..k_max of the unit normalized ball indicator (height 1
    on |z| <= a, a = ball_normalizer(n)) at every s = lam rho^2 > 0 of a 1-d
    array; returns shape (k_max+1, s.size).  _ball states the closed form
    and evaluates it: this function runs its recurrence and weights with
    numpy on every column at once, and _ball.ball_columns with math one
    column at a time, for ingham-plan's factor-bound replay.

    Two properties hold bit for bit, and the chain layer relies on both:
    the table at a subset of the s values is those columns of the full
    table, and rows 0..k of a table up to any degree K >= k are the table
    up to k, since both recurrences run forward in k.  By the first,
    ingham._chain_prefixes puts the s values of a block of factors side by
    side in one call and reads each factor's columns back as the table
    that factor would get alone.  The one batch-wide quantity is the
    length of the incomplete gamma's series, which runs until every column
    has converged and leaves each column unchanged
    (_ball.gammainc_series says why).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or not np.all(s > 0):
        raise DomainError("need a 1-d array of s > 0")
    J = np.empty((k_max + 1, s.size))
    # the J rows come one at a time, so J is the only (k_max+1)-row table held
    for k, row in enumerate(ball_recurrence(np, n, s, ball_steps(k_max, n))):
        J[k] = row
    J *= ball_weights(np, log_c(k_max, n), n)[:, None]
    J *= s ** -float(n)
    return J


def _box_t_hat(tau, lam):
    """Transform of the normalized indicator of an interval of length tau^2
    in t: sinc(tau^2 lam / 2)."""
    return np.sinc(tau ** 2 * np.asarray(lam, dtype=float) / (2.0 * np.pi))


def box_coefficients(n, rho, tau, grid):
    """SpectralCoefficients on the grid of the box factor: the normalized
    indicator of the ball of radius a*rho in z (a = ball_normalizer(n))
    times that of an interval of length tau^2 in t.  Closed form: the unit
    ball table at s = lam rho^2 times the interval transform."""
    if rho <= 0 or tau <= 0:
        raise DomainError("box factor needs rho > 0 and tau > 0")
    vals = ball_coefficients(grid.lam * rho ** 2, grid.k_max, n)
    vals *= _box_t_hat(tau, grid.lam)
    return SpectralCoefficients(n=n, grid=grid, values=vals)


def projection_hs_norm_sq(k, n):
    """Squared Hilbert-Schmidt norm of the k-th spectral projection:
    the eigenspace dimension (k+n-1)! / (k! (n-1)!), of k's shape."""
    k = np.asarray(k, dtype=float)
    return np.exp(np.reshape(log_hs_norm_sq(k.ravel().tolist(), n), k.shape))


class SpectralCoefficients(Record):
    """Matrix of R_k(lam) on a shared grid; rows are degrees 0..k_max,
    columns the positive lambda nodes.  Instances are immutable; all
    operations return new objects."""

    __slots__ = ("n", "grid", "values")

    def __init__(self, n, grid, values):
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
        self._assign(n=n, grid=grid, values=v)

    def with_values(self, values):
        """The same coefficient set with new values, validated as in
        construction."""
        return type(self)(self.n, self.grid, values)


def transform_at_lambda(fvals, x, w, lam, k_max, n):
    """Coefficient vector R_.(lam) from samples fvals of f^lam on the radial
    rule (x, w).  Used directly when f^lam only exists as samples, e.g. the
    output of a spatial convolution.

    lam is a scalar, giving shape (k_max+1,), or a 1-d array with row i of
    fvals holding the samples at lam[i], giving shape (k_max+1, lam.size).
    One Laguerre table covers every (lam, r) pair, and each (k, lam) sum
    runs over one contiguous row of radii, so a column does not depend on
    the other lambdas batched with it.
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    table = normalized_laguerre_table(k_max, lam[..., None], n, x)
    integrand = np.asarray(fvals, dtype=float) * w * x ** (2 * n - 1)
    weights = coefficient_weights(np, log_c(k_max, n), n).reshape(
        (-1,) + (1,) * lam.ndim)
    return weights * np.sum(table * integrand, axis=-1)


def plancherel_norm(coeffs):
    """L^2 norm of the represented function.  R_k^2 is weighted before the
    lambda measure scales it down, so a product can overflow where the norm
    would fit; each step of _ball.PLANCHEREL_STEPS runs over the whole
    table, and the first that overflows is refused, naming n and the step."""
    g = coeffs.grid
    n = coeffs.n
    step = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            hs = projection_hs_norm_sq(np.arange(g.k_max + 1), n)
            step = 1
            sq = coeffs.values ** 2
            step = 2
            sq *= hs[:, None]
            step = 3
            # twice the one-sided integral: even in t
            total = 2.0 * np.sum(np.sum(sq, axis=0) * g.lambda_measure_weights(n))
    except FloatingPointError:
        raise plancherel_overflow(n, step) from None
    return float(np.sqrt(total / (2.0 * np.pi) ** (n + 1)))


def _require_compatible(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: n={a.n} vs n={b.n}")
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("coefficient sets live on different grids")


def multiply_coeffs(a, b):
    """Spectral side of group convolution: entrywise product."""
    _require_compatible(a, b)
    return a.with_values(a.values * b.values)


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


def _ramp_arc_sums(d, s, psis, w):
    """sum_j w_j _ramp_arc_integral(d_i, s_j, psis_j) for every offset d_i
    of a 1-d array, over the (s, psi*, w) columns of three 1-d arrays, with
    s >= 0 and w >= 0.

    Where s <= |d| the integrand (d + s sin(psi))_+ keeps one sign on the
    whole arc, so the integral is 2 psi* d_+: the sines cancel.  With the
    columns sorted by s, those cells of row i are the first
    searchsorted(s, |d_i|, side="right") columns, and their sum is d_+ times
    a prefix sum of 2 w psi*.  Only the remaining cells, where the ramp
    changes sign on the arc, go through _ramp_arc_integral; bincount adds
    each row's cells in column order, so a row's sum does not depend on the
    other rows.  searchsorted places a NaN offset past every column, so its
    row is NaN times a prefix sum: NaN, as _ramp_arc_integral gives.
    """
    order = np.argsort(s, kind="stable")
    s, psis, w = s[order], psis[order], w[order]
    prefix = np.zeros(s.size + 1)
    np.cumsum(2.0 * w * psis, out=prefix[1:])
    first = np.searchsorted(s, np.abs(d), side="right")
    out = np.maximum(d, 0.0) * prefix[first]
    # the sign-changing cells of row i are columns first[i]..s.size-1
    counts = s.size - first
    row = np.repeat(np.arange(d.size), counts)
    starts = np.cumsum(counts) - counts
    col = np.arange(row.size) + np.repeat(first - starts, counts)
    part = _ramp_arc_integral(d[row], s[col], psis[col])
    part *= w[col]
    out += np.bincount(row, weights=part, minlength=d.size)
    return out


# the spatial box convolution's Gauss-Legendre nodes, read at call time: per
# r and per t panel of its sampling grid, per u rule of a sample's integral
CONV_R_NODES, CONV_T_NODES, CONV_U_NODES = 12, 13, 192


def box_pair_convolution(rho1, tau1, rho2, tau2, r, t):
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
    psi-integral is exact (:func:`_ramp_arc_integral`).  Each (ramp, t)
    row's u-sum takes its one-signed cells, 2 psi* d_+, from a prefix sum in
    u and runs the arc formula only on the cells where the ramp changes
    sign on the arc (:func:`_ramp_arc_sums`).  The u-integral is split where
    psi* loses smoothness; its rule, on a budget of CONV_U_NODES, depends on
    r only, so it is built once per distinct r and shared by every t.
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
        ux, uw = _box_u_rule(cuts, singular, CONV_U_NODES)
        if ri == 0.0:
            psis = np.where(ux <= A1, np.pi, 0.0)
        else:
            # 1 - gamma <= A1^2 / (2 ri u) cancels where A1 << ri:
            # _ball.convolution_domain refuses a rho2 / rho1 where it loses
            # the tolerance
            gamma = (ri ** 2 + ux ** 2 - A1 ** 2) / np.maximum(2.0 * ri * ux, 1e-300)
            psis = np.arccos(np.clip(gamma, -1.0, 1.0))
        sel = np.flatnonzero(which == j)
        # ramp-major: row i * len(sel) + k is ramp i at the sample sel[k]
        d = (offsets[:, None] + flat_t[sel]).ravel()
        ramps = _ramp_arc_sums(d, 0.5 * ri * ux, psis, ux * uw).reshape(4, sel.size)
        flat_out[sel] = ramps[0] - ramps[1] - ramps[2] + ramps[3]
    return out * (hgt / (rho1 ** 2 * rho2 ** 2))


def box_convolution_grids(rho1, tau1, rho2, tau2):
    """Sampling grids (r nodes, r weights, t nodes, t weights) for the
    spatial convolution of two box factors on H^1, of CONV_R_NODES
    Gauss-Legendre nodes per r panel and CONV_T_NODES per t panel.

    Panels split where the convolution has kinks: at |A1 - A2| and A1 + A2
    in r, at the interval half-width gap and sum in t; the t panels end at
    _ball.convolution_t_top.
    """
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = 0.5 * tau1 ** 2, 0.5 * tau2 ** 2
    t_top = convolution_t_top(rho1, tau1, rho2, tau2)
    rcuts = [0.0] + sorted(c for c in {abs(A1 - A2)} if 0.0 < c < A1 + A2) + [A1 + A2]
    x, wx = gauss_legendre_panels(rcuts, CONV_R_NODES)
    tcuts = [0.0] + sorted(c for c in {abs(half1 - half2), half1 + half2}
                           if 0.0 < c < t_top) + [t_top]
    tx, wt = gauss_legendre_panels(tcuts, CONV_T_NODES)
    return x, wx, tx, wt


def box_convolution_coefficients(rho1, tau1, rho2, tau2, lams, k_max):
    """Spectral coefficients of the group convolution of two box factors on
    H^1, obtained entirely on the spatial side.

    The convolution is sampled on the tensor grid of
    :func:`box_convolution_grids` at the CONV_* node counts, cosine-transformed
    in t at each lam, then pushed through the radial transform, every lam at
    once.  Returns an array of shape (k_max+1, len(lams)).
    """
    x, wx, tx, wt = box_convolution_grids(rho1, tau1, rho2, tau2)
    H = box_pair_convolution(rho1, tau1, rho2, tau2, x[:, None], tx[None, :])
    lams = np.asarray(lams, dtype=float)
    # even in t, so the transform in t is twice the half-line cosine sum; t
    # is the last, contiguous axis, so each (lam, r) sum is the same row sum
    # whatever else is batched
    cosines = wt * np.cos(lams[:, None] * tx)
    flam = 2.0 * np.sum(H[None, :, :] * cosines[:, None, :], axis=-1)
    return transform_at_lambda(flam, x, wx, lams, k_max, 1)
