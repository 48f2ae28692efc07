"""Quadrature and one-cell oracles of the fast paths in heisharm.

The tests check every closed form and every streamed sweep against these
references; they live beside the tests, outside the package, since no
production code path uses them.
RadialFunction samples a separable radial function in space,
forward_radial pushes it through radial Gauss-Legendre quadrature with a
panel-refinement check, direct_convolution_oracle evaluates a group
convolution on H^1 by brute force, and tail_integral_estimate the integral
int_1^inf Theta(t)/t dt that decides a profile's class.  box_factor and
gaussian_factor share their t-transforms with box_coefficients and
gaussian_coefficients, so the oracles and the closed forms agree on the
t-part by construction and differ only in the radial integral.

numpy_lambda_window builds QuadratureGrid's lambda axis with numpy's
geomspace and log: the reference of _ball.lambda_window.

gaussian_coefficients evaluates the Gaussian's closed form of
heisharm._gaussian with numpy on every column of a grid at once.
dilate_coeffs dilates a coefficient set on its grid with numpy, and
dilation_gap_numpy is dilate-check's comparison on numpy's grid with
gaussian_coefficients and dilate_coeffs: the reference of
_gaussian.dilation_gap, dilate-check's path on Python floats.
gaussian_plancherel_numpy is plancherel-check's Gaussian row with numpy,
plancherel_norm of gaussian_coefficients: the reference of
_gaussian.gaussian_plancherel, the row's path on Python floats.

ball_coefficients_table is ball_coefficients with its numpy operations
written out, the bitwise reference of the closed form's streamed
recurrences.
factor_t_hat, factor_coeff, chain_coeff and chain_coefficients evaluate the
Ingham chain of heisharm.ingham one factor, one cell or one chain length at
a time, as products of factor values in linear space: the references for
its stream of log partial products.  factor_bound_replay is the
factor-bound replay of heisharm.plan on numpy arrays, over the
calibration grid's own nodes: the reference for its float replay.
"""

import math

import numpy as np

from heisharm._ball import (_SERIES_EPS, POWER_CAP, ball_normalizer,
                            coefficient_weights, log_c, orthonormal_rows,
                            row_steps)
from heisharm._gaussian import (gaussian_column, gaussian_norm, gaussian_powers,
                               gaussian_t_hat)
from heisharm._record import Record
from heisharm.errors import DimensionMismatchError, DomainError, QuadratureError
from heisharm.fixtures import FACTOR_K_MAX, calibration_grid
from heisharm.grids import QuadratureGrid, radial_rule
from heisharm.transform import (SpectralCoefficients, _box_t_hat,
                                ball_coefficients, plancherel_norm)


class RadialFunction(Record):
    """Separable radial function F(|z|, t) = profile(|z|) * (t-part).

    profile maps radial abscissae to values; when lambda_dependent is set it
    receives (r, lam) instead, which covers profiles defined directly on the
    partial Fourier side.  t_hat(lam) is the Fourier transform of the t-part
    under the e^{i lam t} convention.  support_radius bounds the radial
    support (or effective support) and doubles as the outermost quadrature
    panel edge, so profile discontinuities must sit there, not inside.
    """

    __slots__ = ("n", "profile", "t_hat", "support_radius", "lambda_dependent")

    def __init__(self, n, profile, t_hat, support_radius, lambda_dependent=False):
        if n < 1:
            raise DimensionMismatchError("n must be a positive integer")
        if not support_radius > 0:
            raise DomainError("support_radius must be positive")
        self._assign(n=n, profile=profile, t_hat=t_hat,
                     support_radius=support_radius, lambda_dependent=lambda_dependent)

    def profile_at(self, r, lam):
        if self.lambda_dependent:
            return np.asarray(self.profile(r, lam), dtype=float)
        return np.asarray(self.profile(r), dtype=float)


def box_factor(n, rho, tau):
    """Product of normalized indicators: ball of radius a*rho in z, interval
    of length tau^2 in t.  Both parts integrate to one."""
    if rho <= 0 or tau <= 0:
        raise DomainError("box factor needs rho > 0 and tau > 0")
    a = ball_normalizer(n)
    R = a * rho
    height = rho ** (-2.0 * n)

    def profile(r):
        return np.where(np.asarray(r, dtype=float) <= R, height, 0.0)

    def t_hat(lam):
        return _box_t_hat(tau, lam)

    return RadialFunction(n=n, profile=profile, t_hat=t_hat, support_radius=R)


# radial support of the Gaussian oracles: 14 sigma_z for gaussian_factor,
# whose profile is e^-98 there, and 14 / sqrt(lam) for ground_state (e^-49)
_GAUSSIAN_CUTOFF = 14.0

# forward_radial's panel-refinement tolerance, relative to the largest
# coefficient
_CHECK_TOL = 1e-8


def gaussian_factor(n, sigma_z, sigma_t):
    """Gaussian e^{-|z|^2/(2 sigma_z^2)} e^{-t^2/(2 sigma_t^2)}; t_hat is the
    usual Gaussian transform sigma_t sqrt(2 pi) e^{-lam^2 sigma_t^2 / 2}."""
    if sigma_z <= 0 or sigma_t <= 0:
        raise DomainError("gaussian factor needs positive widths")

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r ** 2 / (2.0 * sigma_z ** 2))

    def t_hat(lam):
        with np.errstate(over="ignore"):
            return gaussian_t_hat(np, sigma_t, np.asarray(lam, dtype=float))

    return RadialFunction(n=n, profile=profile, t_hat=t_hat,
                          support_radius=_GAUSSIAN_CUTOFF * sigma_z)


def numpy_lambda_window(lambda_min, lambda_max, lambda_nodes):
    """(nodes, weights) of QuadratureGrid's lambda axis with numpy: the nodes
    of np.geomspace, and half the spread of each node's neighbours in
    np.log (of the one neighbour at an end)."""
    lam = np.geomspace(lambda_min, lambda_max, lambda_nodes)
    logl = np.log(lam)
    w = np.empty_like(logl)
    w[1:-1] = 0.5 * (logl[2:] - logl[:-2])
    w[0] = 0.5 * (logl[1] - logl[0])
    w[-1] = 0.5 * (logl[-1] - logl[-2])
    return lam, w


def gaussian_coefficients(n, sigma_z, sigma_t, grid):
    """SpectralCoefficients on the grid of the Gaussian
    e^{-|z|^2/(2 sigma_z^2)} e^{-t^2/(2 sigma_t^2)}, from the closed form
    that heisharm._gaussian states, R_k(lam) = c(lam) q(lam)^k, evaluated
    with numpy on every column at once; _gaussian.dilation_gap and
    gaussian_plancherel evaluate it with math, one column at a time.
    """
    if sigma_z <= 0 or sigma_t <= 0:
        raise DomainError("gaussian factor needs positive widths")
    # (lam sigma_t)^2 overflows to inf past about 1e154 / sigma_t, where
    # exp(-inf) = 0 is the transform's limit
    with np.errstate(over="ignore"):
        c, q = gaussian_column(np, n, sigma_z, sigma_t, grid.lam)
    k = np.arange(grid.k_max + 1, dtype=float)[:, None]
    return SpectralCoefficients(n=n, grid=grid, values=c * gaussian_powers(np, q, k))


def gaussian_plancherel_numpy(n, widths, k_max, lambda_min, lambda_max, lambda_nodes):
    """_gaussian.gaussian_plancherel with numpy, in the order the numpy
    path of plancherel-check took its steps: the grid of
    QuadratureGrid, which refuses its own windows, the Gaussian's
    table, its spatial norm, and plancherel_norm of the table."""
    grid = QuadratureGrid(k_max, lambda_min, lambda_max, lambda_nodes)
    coeffs = gaussian_coefficients(n, *widths, grid)
    return gaussian_norm(n, *widths), plancherel_norm(coeffs)


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


def dilation_gap_numpy(n, source, r, k_max, lambda_min, lambda_max, lambda_nodes):
    """_gaussian.dilation_gap with numpy: the grid of QuadratureGrid,
    which refuses its own windows, the source Gaussian's table dilated by
    dilate_coeffs and the table of the target, of widths (sigma_z / r,
    sigma_t / r^2), compared on the nodes lam in [lambda_min max(1, r^2),
    lambda_max min(1, r^2)]."""
    grid = QuadratureGrid(k_max, lambda_min, lambda_max, lambda_nodes)
    dilated = dilate_coeffs(gaussian_coefficients(n, *source, grid), r).values
    want = gaussian_coefficients(n, source[0] / r, source[1] / r ** 2, grid).values
    mask = ((grid.lam >= lambda_min * max(1.0, r ** 2))
            & (grid.lam <= lambda_max * min(1.0, r ** 2)))
    return (int(np.sum(mask)), float(np.max(np.abs(want[:, mask]), initial=0.0)),
            float(np.max(np.abs(dilated[:, mask] - want[:, mask]), initial=0.0)))


def ground_state(n):
    """Function whose partial transform is e^{-|lam| r^2 / 4}: the lowest
    scaled Laguerre function at every lambda.  Coefficients are exactly
    (2 pi / lam)^n delta_{k0}."""

    def profile(r, lam):
        r = np.asarray(r, dtype=float)
        return np.exp(-np.abs(lam) * r ** 2 / 4.0)

    def t_hat(lam):
        return np.ones_like(np.asarray(lam, dtype=float))

    # effective radial width is 2/sqrt(lam); the forward driver rescales
    # the support per lambda for lambda-dependent profiles
    return RadialFunction(n=n, profile=profile, t_hat=t_hat,
                          support_radius=_GAUSSIAN_CUTOFF, lambda_dependent=True)


# radial nodes per Laguerre recurrence in _forward_columns: the few rows of
# this many floats that the recurrence touches stay in cache (a single sweep
# over all 690k nodes of the plancherel-check grid runs about 1.7x slower)
_BATCH_NODES = 1 << 14


def _forward_columns(f, grid, nodes_per_panel):
    """Every column of forward_radial at one panel order.

    The radial rules of consecutive lambda nodes are concatenated in batches
    of about _BATCH_NODES nodes, and one Laguerre recurrence runs over each
    batch; each degree's row is summed per column with np.add.reduceat, so
    no (K+1) x N table is ever held.
    """
    n, k_max = f.n, grid.k_max
    us, integrands = [], []
    for lam in grid.lam:
        R = f.support_radius
        if f.lambda_dependent:
            # lambda-side profiles live on scale 1/sqrt(lam); support_radius
            # is interpreted in those units
            R = f.support_radius / np.sqrt(abs(lam))
        x, w = radial_rule(lam, k_max, n, R, nodes_per_panel)
        fvals = f.profile_at(x, lam) * float(np.asarray(f.t_hat(lam), dtype=float))
        us.append(0.5 * abs(lam) * x * x)
        integrands.append(fvals * w * x ** (2 * n - 1))
    sizes = np.array([u.size for u in us])
    offsets = np.cumsum(sizes) - sizes
    batch = offsets // _BATCH_NODES
    out = np.empty((k_max + 1, grid.lam.size))
    for b in np.unique(batch):
        cols = np.flatnonzero(batch == b)
        lo, hi = cols[0], cols[-1] + 1
        starts = offsets[lo:hi] - offsets[lo]
        integrand = np.concatenate(integrands[lo:hi])
        rows = orthonormal_rows(np, k_max, n - 1.0, np.concatenate(us[lo:hi]),
                                row_steps(k_max, n - 1.0))
        for k, row in enumerate(rows):
            out[k, lo:hi] = np.add.reduceat(row * integrand, starts)
    # C_{k,n} phi_k = sqrt(Gamma(n)) * c_k L_k^{n-1}(u) e^{-u/2}
    weights = (coefficient_weights(np, log_c(k_max, n), n)
               * np.exp(0.5 * math.lgamma(n)))
    return weights[:, None] * out


def forward_radial(f, grid, check=True, nodes_per_panel=64):
    """Transform a RadialFunction on the grid, by radial rules of
    nodes_per_panel Gauss-Legendre nodes per panel.

    With check=True every column is recomputed at doubled panel order and
    the two must agree to _CHECK_TOL relative to the largest coefficient;
    otherwise QuadratureError names the disagreement and the worst
    (k, lambda) cell.
    """
    vals = _forward_columns(f, grid, nodes_per_panel)
    if check:
        fine = _forward_columns(f, grid, 2 * nodes_per_panel)
        scale = max(1.0, float(np.max(np.abs(fine))))
        diff = np.abs(vals - fine)
        worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[worst] > _CHECK_TOL * scale:
            raise QuadratureError(
                f"radial quadrature did not settle under panel refinement: "
                f"disagreement {diff[worst] / scale:.3e} (> {_CHECK_TOL:g}) "
                f"at k = {int(worst[0])}, lambda = {float(grid.lam[worst[1]]):.6g}")
        vals = fine
    return SpectralCoefficients(n=f.n, grid=grid, values=vals)


def direct_convolution_oracle(f, g, z, t, g_z_radius, g_t_radius, nodes=24):
    """(f * g)(x) = int f(x y^{-1}) g(y) dy on H^1 at x = (z, t), by tensor
    Gauss-Legendre over the support box of g: |Re w|, |Im w| <= g_z_radius,
    |s| <= g_t_radius.

    f and g are vectorized callables of (z, t) with complex z; z is a
    length-1 complex sequence.  Slow, and with no convergence control
    beyond the node count per axis.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (1,):
        raise DimensionMismatchError("the spatial oracle is implemented on H^1 only")
    xz, xt = complex(z[0]), float(t)
    # numpy's own rule keeps the oracle independent of grids._unit_rule
    q, qw = np.polynomial.legendre.leggauss(nodes)
    u1, u2, s = np.meshgrid(g_z_radius * q, g_z_radius * q, g_t_radius * q,
                            indexing="ij")
    wts = np.einsum("i,j,k->ijk", g_z_radius * qw, g_z_radius * qw,
                    g_t_radius * qw)
    wz = u1 + 1j * u2
    # y = (w, s);  x y^{-1} = (xz - w, xt - s - Im(xz conj(w))/2)
    fv = f(xz - wz, xt - s - 0.5 * np.imag(xz * np.conj(wz)))
    return float(np.sum(fv * g(wz, s) * wts))


def tail_integral_estimate(profile, hi):
    """Trapezoid estimate of int_1^hi Theta(t)/t dt on 4097 log-spaced
    nodes."""
    t = np.geomspace(1.0, hi, 4097)
    x = np.log(t)
    vals = profile(t)
    return float(np.trapezoid(vals, x))


def _lgamma(x):
    """math.lgamma on every entry of the 1-d array x."""
    return np.array([math.lgamma(v) for v in x.tolist()])


def ball_coefficients_table(s, k_max, n):
    """ball_coefficients with its numpy operations written out here: the
    whole orthonormal L^{alpha+1} table built before the J recurrence, the
    incomplete gamma's series and Poisson sum masked in place, and one
    out-of-place scaling at the end.  The closed form, streamed over the
    recurrences of _ball, must give the same floats."""
    alpha = n - 1.0
    delta = alpha + 1.0
    a = ball_normalizer(n)
    x = 0.5 * s * a * a
    orth = np.empty((k_max + 1, s.size))
    orth[0] = np.exp(-0.5 * x - 0.5 * math.lgamma(delta + 1.0))
    if k_max >= 1:
        orth[1] = (1.0 + delta - x) * orth[0] / np.sqrt(1.0 + delta)
    for k in range(1, k_max):
        step = (2.0 * k + 1.0 + delta - x) / np.sqrt((k + 1.0) * (k + 1.0 + delta))
        b = np.sqrt(k * (k + delta) / ((k + 1.0) * (k + 1.0 + delta)))
        orth[k + 1] = step * orth[k] - b * orth[k - 1]
    # P(n, x/2): the series below n + 1, one minus the Poisson sum above
    y = 0.5 * x
    small = y < n + 1.0
    ys, yl = y[small], y[~small]
    term, total, m = np.ones_like(ys), np.ones_like(ys), 0
    while np.any(term > _SERIES_EPS * total):
        m += 1
        term = term * ys / (n + m)
        total = total + term
    q, logy = np.zeros_like(yl), np.log(yl)
    for j in range(n):
        q += np.exp(-yl + j * logy - math.lgamma(j + 1.0))
    gamma = np.empty_like(y)
    gamma[small] = np.exp(-ys) * ys ** n / math.factorial(n) * total
    gamma[~small] = 1.0 - q
    xpow = 2.0 * np.minimum(x, POWER_CAP) ** delta
    J = np.empty((k_max + 1, s.size))
    J[0] = 2.0 ** delta * np.exp(0.5 * math.lgamma(delta)) * gamma
    for k in range(k_max):
        J[k + 1] = (xpow * orth[k] - np.sqrt(k + alpha + 1.0) * J[k]) / np.sqrt(k + 1.0)
    k = np.arange(k_max + 1)
    c = np.exp(0.5 * (_lgamma(k + 1) + math.lgamma(n) - _lgamma(k + n)))
    weights = (2.0 * np.pi ** n / np.exp(math.lgamma(n)) * c
               * (np.exp(0.5 * math.lgamma(n)) * 2.0 ** alpha))
    return weights[:, None] * J * s ** -float(n)


def factor_t_hat(j, lam, plan):
    """Transform of the j-th interval factor: sinc(tau_j^2 lam / 2)."""
    if not (1 <= j <= plan.J):
        raise DomainError(f"factor index {j} outside 1..{plan.J}")
    return _box_t_hat(plan.tau[j - 1], lam)


def factor_coeff(j, k, lam, plan):
    """k-th coefficient of the j-th z-factor at lam (1-based j)."""
    if not (1 <= j <= plan.J):
        raise DomainError(f"factor index {j} outside 1..{plan.J}")
    if lam == 0:
        raise DomainError("lam must be nonzero")
    # the rho-factor coefficient at lam is the unit-factor coefficient at
    # the scale-invariant s = lam rho^2 (substitute r = rho v)
    s = abs(lam) * plan.rho[j - 1] ** 2
    return float(ball_coefficients(np.array([s]), int(k), plan.n)[int(k), 0])


def chain_coeff(plan, N, k, lam):
    """Chain coefficient of G_N at one cell: the product of the first N
    factor coefficients and interval transforms.  N = 0 is the empty
    product 1."""
    if N < 0 or N > plan.J:
        raise DomainError(f"chain length {N} outside 0..{plan.J}")
    value = 1.0
    for j in range(1, N + 1):
        value *= factor_coeff(j, k, lam, plan) * float(factor_t_hat(j, lam, plan))
    return value


def chain_coefficients(plan, N, grid):
    """SpectralCoefficients of G_N on the grid: the product of the first N
    factor tables."""
    if N < 0 or N > plan.J:
        raise DomainError(f"chain length {N} outside 0..{plan.J}")
    vals = np.ones((grid.k_max + 1, grid.lam.size))
    for rho, tau in zip(plan.rho[:N], plan.tau[:N]):
        vals *= (ball_coefficients(grid.lam * rho ** 2, grid.k_max, plan.n)
                 * _box_t_hat(tau, grid.lam))
    return SpectralCoefficients(n=plan.n, grid=grid, values=vals)


def factor_bound_replay(n, c_n, thin):
    """plan.factor_bound_check's report, from one ball_coefficients table on
    every thin-th s column of calibration_grid, against the envelope
    min(1, c_n ((2k+n) s)^{-(2n-1)/4}) as arrays."""
    k, s = calibration_grid()
    s = s[::thin]
    vals = np.abs(ball_coefficients(s, FACTOR_K_MAX, n))
    env = np.minimum(1.0, c_n * np.sqrt((2.0 * k[:, None] + n) * s) ** (0.5 - n))
    return {"n": n, "c_n": c_n, "k_max": FACTOR_K_MAX, "s_columns": int(s.size),
            "points": int(k.size * s.size),
            "violations": int(np.sum(vals > env)),
            "max_ratio": float(np.max(vals / env))}
