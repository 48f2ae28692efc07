"""The ball factor's closed form, written once for one float or an array.

The coefficients of the unit normalized ball indicator (height 1 on
|z| <= a, a = ball_normalizer(n)) at s = lam rho^2 come from the radial
transform in closed form: with alpha = n-1, x = s a^2 / 2 and
I_k(x) = int_0^x u^alpha e^{-u/2} L_k^alpha(u) du,

    I_0 = 2^{alpha+1} gamma(alpha+1, x/2),
    I_{k+1} = (2 x^{alpha+1} e^{-x/2} L_k^{alpha+1}(x)
               - (k+alpha+1) I_k) / (k+1),

carried on J_k = (k!/Gamma(k+alpha+1))^{1/2} I_k so that the
L_k^{alpha+1} values come bounded from the orthonormal recurrence.  The
substitution u = s r^2 / 2 turns R_k into 2^alpha s^{-n} sqrt(Gamma(n))
pref C_{k,n} J_k, with pref C_{k,n} the weights of
transform.transform_at_lambda.  The lower incomplete gamma enters as
gamma(n, x/2) = Gamma(n) P(n, x/2).

Each function that takes xp evaluates its formula with the elementary
functions of that namespace: numpy for an array, FLOATS for one Python
float.  Constants that do not depend on the argument are taken with math
on both paths, and ``**`` is numpy's pow on an array and libm's on a
float, so each path keeps the exp, log and pow it has always used, and
the two agree to rounding: numpy's may take SIMD code paths an ulp away
from libm's.  The array callers are ``laguerre._orthonormal_table``
(``orthonormal_rows``) and ``transform.ball_coefficients`` (the J
recurrence and its weights); the float caller is ``ball_columns``, one s
column at a time for ``ingham-plan``'s factor-bound replay, which imports
no numpy.  ``geomspace`` gives numpy's log-spaced nodes on Python floats,
and ``lambda_window`` the one lambda axis, which QuadratureGrid holds as
arrays and the float paths sample; ``interp`` and ``pairwise_sum`` give
numpy's linear interpolation and its pairwise sum on Python floats, for
the float paths that interpolate and sum on that axis.

Each closed form states its domain of doubles beside its formula: a
*_domain generator yields its checks in the order a command runs them, and
require_doubles, the one limit solver, refuses the first value out of it.
"""

import math
import sys
from bisect import bisect_right
from types import SimpleNamespace

from .errors import DomainError

__all__ = ["MAX_N", "POWER_CAP", "FLOATS", "NONZERO", "NORMAL", "require_doubles",
           "geomspace", "lambda_window", "measure_domain", "interp", "pairwise_sum",
           "PLANCHEREL_STEPS", "plancherel_overflow", "row_steps",
           "orthonormal_rows", "gammainc_series", "gammainc_poisson", "gammainc",
           "log_c", "log_hs_norm_sq", "coefficient_weights", "ball_normalizer",
           "ball_steps", "ball_recurrence", "ball_weights", "ball_columns",
           "box_domain", "box_norm", "convolution_t_top", "convolution_domain"]

# the elementary functions the closed forms take from their caller, under
# numpy's names, on one Python float; numpy itself serves an array
FLOATS = SimpleNamespace(exp=math.exp, log=math.log, minimum=min, any=bool,
                         where=lambda cond, a, b: a if cond else b,
                         zeros_like=lambda y: 0.0)


# logs of the largest and the smallest positive double and of the smallest
# normal one, pulled in by a relative 1e-12 so that a log's rounding cannot
# pass a form out of range
_LOG_HUGE = math.log(math.nextafter(math.inf, 0.0)) * (1.0 - 1e-12)
_LOG_TINY = math.log(math.ulp(0.0)) * (1.0 - 1e-12)
_LOG_NORMAL = math.log(sys.float_info.min) * (1.0 - 1e-12)

# the floor a form is held to, its last entry, as (log edge, what the
# refusal says it does there): NONZERO where 0 would break what it feeds,
# NORMAL where a subnormal value has already lost the precision it needs;
# None where 0 does no harm
NONZERO = (_LOG_TINY, "underflows to 0")
NORMAL = (_LOG_NORMAL, "falls below the smallest normal double")


def require_doubles(checks):
    """Refuse at the first (option, x, forms, at) of checks where a form
    (p, c, name, floor), e^c x^p at the value x of option, overflows or
    crosses its floor, naming the tightest limit crossed and at, the
    setting it holds for."""
    for option, x, forms, at in checks:
        log_x, crossed = math.log(x), []
        for p, c, name, floor in forms:
            for edge, fate in ((_LOG_HUGE, "overflows"), *([floor] if floor else [])):
                # the form meets edge at log x = limit; upper: x must stay below
                limit, upper = (edge - c) / p, (edge > 0) == (p > 0)
                if (log_x > limit) == upper:
                    crossed.append((abs(log_x - limit), limit, upper, f"{name} {fate}"))
        if crossed:
            _, limit, upper, why = max(crossed)
            raise DomainError(f"{option} must stay {'below' if upper else 'above'} "
                              f"{math.exp(limit):.6g}{at}, where {why}; got {x:g}")


def geomspace(start, stop, num):
    """numpy's geomspace(start, stop, num) for 0 < start < stop and num >= 2,
    as a list of Python floats: 10 ** (i step + log10 start), step =
    (log10 stop - log10 start) / (num - 1), or (i / (num - 1)) delta where
    step underflows to 0, with the endpoints exact.  numpy's power may take a
    SIMD code path an ulp away from libm's."""
    log_start = math.log10(start)
    delta = math.log10(stop) - log_start
    step = delta / (num - 1)
    inner = ([i * step + log_start for i in range(1, num - 1)] if step != 0.0
             else [i / (num - 1) * delta + log_start for i in range(1, num - 1)])
    return [start, *(10.0 ** y for y in inner), stop]


def lambda_window(lambda_min, lambda_max, lambda_nodes):
    """The lambda axis of every spectral object, as lists of Python floats:
    the nodes geomspace gives, their logs and the trapezoid weights in log
    lambda, half the spread of each node's neighbours (of the one neighbour
    at an end).  A window the rule cannot be laid on, and nodes or weights
    that rounding leaves unordered or zero, are refused."""
    if not (0 < lambda_min < lambda_max):
        raise DomainError("need 0 < lambda_min < lambda_max")
    if lambda_nodes < 2:
        raise DomainError("need at least two lambda nodes")
    lam = geomspace(lambda_min, lambda_max, lambda_nodes)
    if not all(a < b for a, b in zip(lam, lam[1:])):
        raise DomainError("lambda nodes must be positive, ascending, nonzero")
    logl = [math.log(v) for v in lam]
    weights = [0.5 * (b - a) for a, b in [logl[:2], *zip(logl, logl[2:]), logl[-2:]]]
    if not all(w > 0.0 for w in weights):
        raise DomainError("lambda weights must be positive and match the nodes")
    return lam, logl, weights


def measure_domain(n, lambda_min, lambda_max, lambda_nodes):
    """The check of QuadratureGrid.lambda_measure_weights(n), lam^(n+1)
    times lambda_window's weights, bounded on their spacing h, the nodes'
    log spacing: the product is largest at the top node or the next one
    down, e^(-(n+1) h) lower in lam^(n+1)."""
    h = (math.log(lambda_max) - math.log(lambda_min)) / (lambda_nodes - 1)
    scale = max(1.0, 0.5 * h, h * math.exp(-(n + 1) * h) if lambda_nodes > 2 else 0.0)
    yield ("lambda_max", lambda_max, [(n + 1, math.log(scale), f"lam_log_w lam^{n + 1} "
                                       "of the lambda measure", None)], f" at n = {n}")


def interp(x, xs, column):
    """[np.interp(x, xs, row, left=0.0, right=0.0) for each row] at one
    float x, for ascending nodes xs, where column(j) is the list of the
    rows' finite values at node j: 0 outside [xs[0], xs[-1]], f_j at a node
    x = xs[j], and else slope (x - x_j) + f_j on the interval [x_j,
    x_{j+1}) that holds x, with slope = (f_{j+1} - f_j) / (x_{j+1} - x_j),
    as numpy forms it."""
    if not xs[0] <= x <= xs[-1]:
        return [0.0] * len(column(0))
    j = bisect_right(xs, x) - 1
    if x == xs[j]:
        return column(j)
    dx, u = xs[j + 1] - xs[j], x - xs[j]
    return [(f1 - f0) / dx * u + f0 for f0, f1 in zip(column(j), column(j + 1))]


def pairwise_sum(values):
    """np.sum of a contiguous 1-d float64 array, in the order of numpy's
    pairwise summation (pairwise_sum in its loops for add.reduce), from
    add's identity 0.0: a block of fewer than 8 values is summed in order;
    one of up to 128 in eight running sums of every eighth value, joined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then its last
    count % 8 values in order; a longer one as two blocks split at half
    its count rounded down to a multiple of 8."""
    def block(lo, count):
        if count < 8:
            total = 0.0
            for v in values[lo:lo + count]:
                total += v
            return total
        if count <= 128:
            sums = values[lo:lo + 8]
            end = lo + count - count % 8
            for i in range(lo + 8, end, 8):
                sums = [s + v for s, v in zip(sums, values[i:i + 8])]
            total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
                (sums[4] + sums[5]) + (sums[6] + sums[7]))
            for v in values[end:lo + count]:
                total += v
            return total
        half = count // 2
        half -= half % 8
        return block(lo, half) + block(lo + half, count - half)

    return 0.0 + block(0, len(values))


# the steps of a Plancherel norm, in the order transform.plancherel_norm
# takes them, each over the whole table; the first whose values pass the
# largest double is refused by plancherel_overflow
PLANCHEREL_STEPS = ("the Hilbert-Schmidt weight (k+n-1)!/(k!(n-1)!)", "R_k(lam)^2",
                    "R_k(lam)^2 times the Hilbert-Schmidt weight",
                    "the sum against the lambda measure")


def plancherel_overflow(n, step):
    """The refusal of a Plancherel norm at dimension n whose step, an index
    of PLANCHEREL_STEPS, passes the largest double."""
    return DomainError(f"the Plancherel norm overflows at n = {n}: "
                       f"{PLANCHEREL_STEPS[step]} passes the largest double")


# the largest n the closed form takes: gammainc_series divides by n!, and
# 171! is past the largest double
MAX_N = 170

# e^{-x/2} is exactly zero in double precision from x = 1490.27 on, and so is
# every computed row of an orthonormal table of L^n there, so capping x at
# this point leaves every computed product 2 x^n row as it was.  The true
# rows are not zero there: from x ~ 1450 on, where the seed is subnormal or
# zero, the computed rows of degree k >~ x/4 are wrong.  2 POWER_CAP^n is a
# double up to n = 97; past it, box_domain refuses a window whose x reaches
# past (max double / 2)^(1/n), and so keeps 0 * inf out of the recurrence
POWER_CAP = 1490.3

# series terms below this share of the running sum no longer change it
_SERIES_EPS = 1e-17


def row_steps(k_max, delta):
    """The u-free constants of orthonormal_rows to degree k_max: for the
    step to each row k + 1 >= 2, (sqrt((k+1)(k+1+delta)), 2k+1+delta, b_k)."""
    return [(math.sqrt((k + 1.0) * (k + 1.0 + delta)), 2.0 * k + 1.0 + delta,
             math.sqrt(k * (k + delta) / ((k + 1.0) * (k + 1.0 + delta))))
            for k in range(1, k_max)]


def orthonormal_rows(xp, k_max, delta, u, steps):
    """Rows k = 0..k_max of c_k L_k^delta(u) e^{-u/2}, c_k = (k!/Gamma(k+
    delta+1))^{1/2}, one at a time, from steps = row_steps(k_max, delta)."""
    prev = xp.exp(-0.5 * u - 0.5 * math.lgamma(delta + 1.0))
    yield prev
    if k_max < 1:
        return
    row = (1.0 + delta - u) * prev / math.sqrt(1.0 + delta)
    yield row
    for root, diag, b in steps:
        prev, row = row, (diag - u) / root * row - b * prev
        yield row


def gammainc_series(xp, n, y):
    """P(n, y) for an integer n >= 1 by the series e^{-y} y^n / n!
    sum_m y^m n!/(n+m)!, whose ratios stay under one for y < n + 1.  On an
    array the series runs until every entry has converged; the terms an
    entry gets past its own stopping point are below _SERIES_EPS of its
    sum, under half an ulp, so they leave it unchanged.  y^n stays a double
    wherever ball_recurrence's 2 x^n at x = 2y does."""
    term = total = 1.0
    m = 0
    while xp.any(term > _SERIES_EPS * total):
        m += 1
        term = term * y / (n + m)
        total = total + term
    return xp.exp(-y) * y ** n / math.factorial(n) * total


def gammainc_poisson(xp, n, y):
    """P(n, y) = 1 - sum_{j<n} exp(-y + j log y - lgamma(j+1)) for an
    integer n >= 1 and finite y >= n + 1, where the sum is below 1/2, so
    the subtraction costs at most one bit; the log form keeps y^j from
    overflowing at large y."""
    logy = xp.log(y)
    q = 0.0
    for j in range(n):
        q += xp.exp(-y + j * logy - math.lgamma(j + 1.0))
    return 1.0 - q


def gammainc(xp, n, y):
    """The regularized lower incomplete gamma P(n, y) (DLMF 8.4.11) for an
    integer 1 <= n <= MAX_N and finite y >= 0: gammainc_series below
    y = n + 1 and gammainc_poisson above.  Each half gets only its own
    entries, the series 0 and the Poisson sum n + 1 in the other's, so the
    series runs no longer than its own entries need and neither half meets
    an argument that would overflow it."""
    small = y < n + 1.0
    return xp.where(small, gammainc_series(xp, n, xp.where(small, y, 0.0)),
                    gammainc_poisson(xp, n, xp.where(small, n + 1.0, y)))


def log_c(k_max, n):
    """log C_{k,n} = log (k!(n-1)!/(k+n-1)!)^{1/2} for k = 0..k_max."""
    return [0.5 * (math.lgamma(k + 1) + math.lgamma(n) - math.lgamma(k + n))
            for k in range(k_max + 1)]


def log_hs_norm_sq(ks, n):
    """log of the squared Hilbert-Schmidt norm of the k-th spectral
    projection, the eigenspace dimension (k+n-1)!/(k!(n-1)!), for each float
    k of ks."""
    return [math.lgamma(k + n) - math.lgamma(k + 1.0) - math.lgamma(n) for k in ks]


def coefficient_weights(xp, logs, n):
    """pref C_{k,n}, with pref = 2 pi^n / Gamma(n): the factor in front of
    every coefficient's radial integral, from logs = log C_{k,n}, one float
    with FLOATS or a list of them with numpy."""
    return 2.0 * math.pi ** n / xp.exp(math.lgamma(n)) * xp.exp(logs)


def ball_normalizer(n):
    """Radius multiplier a with vol_{2n}(a) * a^{2n}-ball volume equal to 1.

    The ball of radius a*rho in C^n has Lebesgue volume rho^{2n}, so the
    indicator scaled by rho^{-2n} integrates to one.
    """
    return math.exp((math.lgamma(n + 1) - n * math.log(math.pi)) / (2.0 * n))


def ball_steps(k_max, n):
    """The s-free constants of ball_recurrence to degree k_max in dimension
    n: the radius multiplier a, the row steps of L^n, and
    (sqrt(k+n), sqrt(k+1)) for each k < k_max."""
    return (ball_normalizer(n), row_steps(k_max, float(n)),
            [(math.sqrt(k + n), math.sqrt(k + 1.0)) for k in range(k_max)])


def ball_recurrence(xp, n, s, steps):
    """J_k for k = 0..k_max at x = s a^2 / 2, one at a time, from
    steps = ball_steps(k_max, n): J_0 from P(n, x/2), and the rows of L^n
    feed the recurrence as they come."""
    delta = float(n)
    a, rows, scales = steps
    x = 0.5 * s * a * a
    xpow = 2.0 * xp.minimum(x, POWER_CAP) ** delta
    J = 2.0 ** delta * xp.exp(0.5 * math.lgamma(delta)) * gammainc(xp, n, 0.5 * x)
    yield J
    for (up, down), row in zip(scales, orthonormal_rows(xp, len(scales), delta,
                                                        x, rows)):
        J = (xpow * row - up * J) / down
        yield J


def ball_weights(xp, logs, n):
    """pref C_{k,n} sqrt(Gamma(n)) 2^{n-1}, the weights of the J_k in the
    ball coefficients, from logs as in coefficient_weights."""
    return coefficient_weights(xp, logs, n) * (xp.exp(0.5 * math.lgamma(n))
                                               * 2.0 ** (n - 1.0))


def ball_columns(s, k_max, n):
    """Coefficients 0..k_max of the unit normalized ball indicator at each
    float s > 0 of the sequence s, as one list per s: column i of
    transform.ball_coefficients(s, k_max, n), to rounding, evaluated with
    FLOATS.  The constants that do not depend on s are computed once."""
    steps = ball_steps(k_max, n)
    weights = [ball_weights(FLOATS, c, n) for c in log_c(k_max, n)]
    columns = []
    for si in s:
        scale = si ** -float(n)
        columns.append([J * w * scale for J, w in zip(
            ball_recurrence(FLOATS, n, si, steps), weights)])
    return columns


def box_domain(n, lambda_min, lambda_max, i, rho, tau, lambda_nodes=None):
    """The checks of box_coefficients at dimension n on [lambda_min,
    lambda_max] for factor i of widths rho and tau: rho^2, tau^2, s = lam
    rho^2 and lam tau^2 at the top and s^-n at the bottom, where 0 does no
    harm, and past n = 97 ball_recurrence's 2 x^n at x = s a^2/2 at the top
    (gammainc_series' y^n, y = x/2, stays a double wherever it does); n
    past MAX_N is refused.  With lambda_nodes, plancherel-check's: the
    measure first, then tau, then rho with box_norm's forms."""
    if n > MAX_N:
        raise DomainError(f"the box family needs n <= {MAX_N}, got {n}")
    top, bottom = math.log(lambda_max), math.log(lambda_min)
    rho_name, tau_name = f"rho{i}", f"tau{i}"
    rho_forms = [(2, 0.0, f"{rho_name}^2", NONZERO),
                 (2, top, f"lambda_max {rho_name}^2", None),
                 (-2 * n, -n * bottom, f"(lambda_min {rho_name}^2)^-{n}", None)]
    if n * math.log(POWER_CAP) + math.log(2.0) > _LOG_HUGE:
        log_x = top + 2.0 * math.log(ball_normalizer(n)) - math.log(2.0)
        rho_forms.append((2 * n, math.log(2.0) + n * log_x,
                          f"2 x^{n} at x = lambda_max {rho_name}^2 a^2/2", None))
    tau_check = (f"factors {tau_name}", tau, [(2, 0.0, f"{tau_name}^2", NONZERO),
                                              (2, top, f"lambda_max {tau_name}^2", None)], "")
    if lambda_nodes is None:
        yield from [(f"factors {rho_name}", rho, rho_forms, ""), tau_check]
        return
    yield from measure_domain(n, lambda_min, lambda_max, lambda_nodes)
    yield tau_check
    yield (f"factors {rho_name}", rho, rho_forms + [
        (-n, 0.0, f"{rho_name}^-{n}", NONZERO),
        (-n, -math.log(tau), f"{rho_name}^-{n} / {tau_name}", NONZERO)], "")


def box_norm(n, rho, tau):
    """The L^2 norm of the box factor of widths rho and tau."""
    return rho ** -n / tau


def convolution_t_top(rho1, tau1, rho2, tau2):
    """The top t of the convolution of two box factors on H^1: the interval
    half-widths tau^2 / 2 summed, widened by the group law's twist term by
    up to A1 A2 / 2, the largest symplectic area between the two balls."""
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    return 0.5 * tau1 ** 2 + 0.5 * tau2 ** 2 + 0.5 * A1 * A2


def convolution_domain(lambda_max, rho1, tau1, rho2, tau2, tol):
    """The checks of transform.box_convolution_coefficients past the box
    tables: the spatial side's height 1/(tau1^2 tau2^2), from squares that
    must stay normal doubles, since a subnormal one has lost the precision
    that keeps the height inside its limit; the scale rho1^2 rho2^2 it
    divides by and their quotient; an overlap angle that loses the
    tolerance tol to rounding; and lambda_max t_top."""
    c = -2 * math.log(tau2)
    yield ("factors tau1", tau1, [(-2, c, "1/(tau1^2 tau2^2)", NONZERO),
                                  (2, 0.0, "tau1^2", NORMAL)], "")
    yield ("factors tau2", tau2, [(2, 0.0, "tau2^2", NORMAL)], "")
    yield ("factors rho1", rho1, [(2, 2 * math.log(rho2), "rho1^2 rho2^2", NONZERO), (
        -2, c - 2 * (math.log(tau1) + math.log(rho2)), "1/(rho1^2 tau1^2 rho2^2 tau2^2)",
        NONZERO)], "")
    # the overlap angle arccos(gamma) lives where 1 - gamma <= A1^2 / (2 r u),
    # r and u up to A1 + A2, so it keeps about eps ((rho1 + rho2) / rho1)^2
    wider = math.sqrt(tol / math.ulp(1.0)) - 1
    if rho2 > wider * rho1:
        raise DomainError(f"factors rho2 must stay below {wider * rho1:.6g} ({wider:.6g} "
                          f"rho1), where the spatial convolution's overlap angle "
                          f"arccos(gamma) loses the tolerance {tol:g} to rounding; "
                          f"got {rho2:g}")
    t_top = convolution_t_top(rho1, tau1, rho2, tau2)
    yield ("lambda_max", lambda_max, [(1, math.log(t_top), "lambda_max t_top of the "
                                       "cosine transform", None)], f" at t_top = {t_top:.6g}")
