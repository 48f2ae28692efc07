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
no numpy.  ``geomspace`` and ``interp`` give numpy's log-spaced nodes
and its linear interpolation on Python floats, for the float paths that
sample and interpolate on them.
"""

import math
from bisect import bisect_right
from types import SimpleNamespace

__all__ = ["MAX_N", "POWER_CAP", "FLOATS", "geomspace", "interp", "row_steps",
           "orthonormal_rows", "gammainc_series", "gammainc_poisson",
           "gammainc", "log_c", "coefficient_weights", "ball_normalizer",
           "ball_steps", "ball_recurrence", "ball_weights", "ball_columns"]

# the elementary functions the closed forms take from their caller, under
# numpy's names, on one Python float; numpy itself serves an array
FLOATS = SimpleNamespace(exp=math.exp, log=math.log, minimum=min, any=bool,
                         where=lambda cond, a, b: a if cond else b,
                         zeros_like=lambda y: 0.0)


def geomspace(start, stop, num):
    """np.geomspace(start, stop, num) for 0 < start < stop and num >= 2, as a
    list of Python floats: 10 ** (i step + log10 start), step = (log10 stop
    - log10 start) / (num - 1), or (i / (num - 1)) delta where step
    underflows to 0, with the endpoints exact.  numpy's power may take a
    SIMD code path an ulp away from libm's."""
    log_start = math.log10(start)
    delta = math.log10(stop) - log_start
    step = delta / (num - 1)
    inner = ([i * step + log_start for i in range(1, num - 1)] if step != 0.0
             else [i / (num - 1) * delta + log_start for i in range(1, num - 1)])
    return [start, *(10.0 ** y for y in inner), stop]


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


# the largest n the closed form takes: gammainc_series divides by n!, and
# 171! is past the largest double
MAX_N = 170

# e^{-x/2} is exactly zero in double precision from x = 1490.27 on, and so is
# every row of an orthonormal table of L^n there, so capping x at this point
# leaves every product 2 x^n row as it was.  2 POWER_CAP^n is a double up to
# n = 97; past it, cli refuses a window whose x reaches past
# (max double / 2)^(1/n), and so keeps 0 * inf out of the recurrence
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
