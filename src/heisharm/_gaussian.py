"""The Gaussian's closed form, written once for one float or an array, and
dilate-check's and plancherel-check's Gaussian paths on Python floats.

The Gaussian e^{-|z|^2/(2 sz^2)} e^{-t^2/(2 st^2)} has, by the Laguerre
generating function, with b = lam sz^2 and q = (2 - b) / (2 + b),

    R_k(lam) = (4 pi sz^2 / (2 + b))^n t_hat(lam) q^k,
    t_hat(lam) = st sqrt(2 pi) e^{-(lam st)^2 / 2},

and at b = 2 this is the ground state (2 pi / lam)^n delta_{k0}.  q^k is
taken as |q|^k, negated where q < 0 and k is odd: a negative base sends
numpy's pow down its slow path, and |q|^k is the same number to an ulp.

Each function that takes xp evaluates its formula with the elementary
functions of that namespace, as _ball's kernels do: numpy for an array
(the tests' gaussian_coefficients), _ball.FLOATS for one float
(dilation_gap and gaussian_plancherel).  The two agree to rounding:
numpy's exp and pow may take SIMD code paths an ulp away from libm's.
(lam st)^2 is formed as a product, which overflows to inf and so to
t_hat = 0 on both paths; a Python float's ``**`` and math.exp would raise
there instead.

dilation_gap is dilate-check on Python floats, and gaussian_plancherel
plancherel-check's Gaussian row; neither imports numpy.  Their oracles in
the tests, dilation_gap_numpy and gaussian_plancherel_numpy, run the same
checks with numpy.  dilation_domain states where dilate-check's forms stay
doubles.
"""

import math

from ._ball import (_LOG_HUGE, FLOATS, NONZERO, interp, lambda_window,
                    log_hs_norm_sq, pairwise_sum, plancherel_overflow)
from .errors import DomainError

__all__ = ["gaussian_t_hat", "gaussian_column", "gaussian_powers",
           "gaussian_norm", "gaussian_plancherel", "dilation_domain",
           "dilation_gap"]


def gaussian_t_hat(xp, sigma_t, lam):
    """Transform of e^{-t^2/(2 sigma_t^2)}: sigma_t sqrt(2 pi)
    e^{-(lam sigma_t)^2 / 2}, which is 0 where the square overflows."""
    return (sigma_t * math.sqrt(2.0 * math.pi)
            * xp.exp(-(lam * sigma_t) * (lam * sigma_t) / 2.0))


def gaussian_column(xp, n, sigma_z, sigma_t, lam):
    """(c, q) at lam: R_k(lam) = c q^k, with c = (4 pi sigma_z^2 /
    (2 + b))^n t_hat(lam) and q = (2 - b) / (2 + b), b = lam sigma_z^2."""
    b = lam * sigma_z ** 2
    c = (4.0 * math.pi * sigma_z ** 2 / (2.0 + b)) ** n * gaussian_t_hat(xp, sigma_t, lam)
    return c, (2.0 - b) / (2.0 + b)


def gaussian_powers(xp, q, k):
    """q^k for |q| <= 1 and float degrees k, as |q|^k negated where q < 0
    and k is odd; it stays in [-1, 1], so no power overflows."""
    p = abs(q) ** k
    return xp.where((q < 0.0) & (k % 2.0 == 1.0), -p, p)


def gaussian_norm(n, sigma_z, sigma_t):
    """The Gaussian's L^2 norm sqrt((pi sigma_z^2)^n sigma_t sqrt(pi)),
    refused where the power overflows."""
    try:
        return math.sqrt((math.pi * sigma_z ** 2) ** n * sigma_t * math.sqrt(math.pi))
    except OverflowError:
        raise DomainError(f"the Gaussian's spatial norm overflows at n = {n}: "
                          f"(pi sz^2)^n passes the largest double") from None


def gaussian_plancherel(n, widths, k_max, lambda_min, lambda_max, lambda_nodes):
    """plancherel-check's Gaussian row on Python floats: (spatial, spectral),
    the L^2 norm of the Gaussian of widths = (sigma_z, sigma_t) and its
    Plancherel norm on degrees 0..k_max and the lambda axis of
    _ball.lambda_window, as transform.plancherel_norm forms it from the
    coefficients R_k(lam) = c q^k: each column sums (c |q|^k)^2 times
    the Hilbert-Schmidt weight over k = 0..k_max in order, as numpy's sum
    over axis 0 does (the sign of q^k drops out of the square), and the
    column sums times lam_log_w lam^(n+1) are added by _ball.pairwise_sum.
    Refusals come in the numpy path's order and with its messages: the
    window, coefficients that are not finite (Python's ** raises where
    numpy's pow gives inf), the spatial norm, then the first
    PLANCHEREL_STEPS step that overflows; measure_domain's check of the
    lambda measure is the caller's."""
    lam, _, lam_log_w = lambda_window(lambda_min, lambda_max, lambda_nodes)
    columns = []
    for lj in lam:
        try:
            c, q = gaussian_column(FLOATS, n, *widths, lj)
        except OverflowError:
            c = q = math.inf
        if not (math.isfinite(c) and math.isfinite(q)):
            raise DomainError("coefficient values must be finite")
        columns.append((c, abs(q)))
    spatial = gaussian_norm(n, *widths)
    ks = [float(k) for k in range(k_max + 1)]
    try:
        hs = [math.exp(v) for v in log_hs_norm_sq(ks, n)]
    except OverflowError:
        raise plancherel_overflow(n, 0) from None
    sums = []
    for (c, a), lj, wj in zip(columns, lam, lam_log_w):
        total = 0.0
        for k, h in zip(ks, hs):
            v = c * a ** k
            total += v * v * h
        sums.append(total * (wj * lj ** (n + 1)))
    total = 2.0 * pairwise_sum(sums)
    if not math.isfinite(total):
        # a product passed the largest double (total is inf, or NaN where
        # an inf met a weight that underflowed to 0): name the first step of
        # the numpy path's whose values do, over the whole table
        cells = [c * a ** k for c, a in columns for k in ks]
        if any(v * v == math.inf for v in cells):
            raise plancherel_overflow(n, 1)
        if any(v * v * h == math.inf for v, h in zip(cells, hs * len(columns))):
            raise plancherel_overflow(n, 2)
        raise plancherel_overflow(n, 3)
    return spatial, math.sqrt(total / (2.0 * math.pi) ** (n + 1))


def dilation_domain(n, source, r, lambda_min, lambda_max, lambda_nodes):
    """The checks of dilate-check at dimension n, the Gaussian of widths
    source = (sz, st) dilated by r on lambda_nodes nodes of [lambda_min,
    lambda_max]: r^(2n+2) and r^-(2n+2); b = lam sz^2 at the top for source
    and target; their prefactor (4 pi sz^2/(2 + b))^n, alone or times
    st sqrt(2 pi), at the bottom; r^-(2n+2) times the source values read.
    The prefactor bounds n itself, as an integer, and names the target's of
    two limits tied at r = 1: require_doubles, on log x, cannot say that."""
    k = 2 * n + 2
    yield ("dilation", r, [(k, 0.0, f"r^{k}", NONZERO), (-k, 0.0, f"r^-{k}", NONZERO)], "")
    sz, st = source
    widths = (("sz", sz, st, "st"), ("(sz/r)", sz / r, st / r ** 2, "(st/r^2)"))
    yield ("lambda_max", lambda_max, [(1, 2 * math.log(z), f"b = lambda_max {name}^2",
                                       None) for name, z, _, _ in widths], "")
    limits = []
    for name, z, t, t_name in widths:
        log_base = math.log(4 * math.pi * z * z / (2 + lambda_min * z * z))
        log_t = math.log(t * math.sqrt(2 * math.pi))
        if log_base > 0:
            limits.append(((_LOG_HUGE - max(log_t, 0.0)) / log_base,
                           f"(4 pi {name}^2/(2 + lambda_min {name}^2))^n"
                           + (f" {t_name} sqrt(2 pi)" if log_t > 0 else "")))
    if limits and n > min(limits)[0]:
        limit, form = min(limits)
        raise DomainError(f"n must stay below {limit:.6g} at lambda_min = "
                          f"{lambda_min:g}, where {form} overflows; got {n}")
    # the dilation reads the source at lam / r^2 >= lambda_min and scales it
    # by r^-k; the coefficients fall with lam, and the largest it reads is
    # at a node above lam_q e^-h, h the log spacing of the nodes
    h = (math.log(lambda_max) - math.log(lambda_min)) / (lambda_nodes - 1)
    lam_q = max(lambda_min, lambda_min / (r * r) * math.exp(-h))
    log_top = (n * math.log(4 * math.pi * sz * sz / (2 + lam_q * sz * sz))
               + math.log(st * math.sqrt(2 * math.pi)) - lam_q * st * lam_q * st / 2)
    yield ("dilation", r, [(-k, log_top, f"r^-{k} times the source coefficients it "
                            f"reads, up to {math.exp(log_top):.6g},", None)], f" at n = {n}")


def _column(n, sigma_z, sigma_t, lam, ks):
    """R_k(lam) of the Gaussian for every float degree k of ks."""
    c, q = gaussian_column(FLOATS, n, sigma_z, sigma_t, lam)
    return [c * gaussian_powers(FLOATS, q, k) for k in ks]


def dilation_gap(n, source, r, k_max, lambda_min, lambda_max, lambda_nodes):
    """dilate-check on Python floats, for the Gaussian of widths source =
    (sigma_z, sigma_t), dilated by r, against the target, its closed form
    of widths (sigma_z / r, sigma_t / r^2), on degrees 0..k_max and the
    lambda axis of _ball.lambda_window, which refuses a window it cannot
    lay its rule on: (the count of nodes lam in [lambda_min max(1, r^2),
    lambda_max min(1, r^2)], where the queries lam / r^2 stay in the
    window, and over those nodes and degrees 0..k_max the largest |target|
    and the largest |dilated - target|).  The dilated coefficients are
    r^{-(2n+2)} R_k(lam / r^2), interpolated linearly in log lam by
    np.interp's formula (_ball.interp), 0 outside the window;
    dilation_domain keeps r^{-(2n+2)} times the source values read a
    double.  The source's columns are evaluated only where the
    interpolation reads them."""
    lam, logl, _ = lambda_window(lambda_min, lambda_max, lambda_nodes)
    target = (source[0] / r, source[1] / r ** 2)
    lo = lambda_min * max(1.0, r ** 2)
    hi = lambda_max * min(1.0, r ** 2)
    ks = [float(k) for k in range(k_max + 1)]
    shift = 2.0 * math.log(r)
    factor = float(r) ** (-(2.0 * n + 2.0))
    columns = {}

    def column(j):
        if j not in columns:
            columns[j] = _column(n, *source, lam[j], ks)
        return columns[j]

    compared, scale, gap = 0, 0.0, 0.0
    for lj, xj in zip(lam, logl):
        if not lo <= lj <= hi:
            continue
        compared += 1
        want = _column(n, *target, lj, ks)
        got = interp(xj - shift, logl, column)
        scale = max(scale, max(map(abs, want)))
        gap = max(gap, max(abs(d * factor - t) for d, t in zip(got, want)))
    return compared, scale, gap
