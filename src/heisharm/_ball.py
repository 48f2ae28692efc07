"""The ball factor's closed form, written once for one float or an array.

Each function that takes xp evaluates its formula with the elementary
functions of that namespace: numpy for an array, FLOATS for one Python
float.  Constants that do not depend on the argument are taken with math
on both paths, and ``**`` is numpy's pow on an array and libm's on a
float, so each path keeps the exp, log and pow it has always used, and
the two agree to rounding: numpy's may take SIMD code paths an ulp away
from libm's.  The array callers are ``laguerre._orthonormal_table``
(``orthonormal_rows``), ``_special.gammainc_int`` (the two halves
``gammainc_series`` and ``gammainc_poisson``) and
``transform.ball_coefficients`` (the J recurrence and its weights); the
float caller is ``ball_columns``, one s column at a time for
``ingham-plan``'s factor-bound replay, which imports no numpy.
"""

import math
from types import SimpleNamespace

__all__ = ["FLOATS", "row_steps", "orthonormal_rows", "gammainc_series",
           "gammainc_poisson", "log_c", "coefficient_weights", "ball_normalizer",
           "ball_steps", "ball_recurrence", "ball_weights", "ball_columns"]

# the elementary functions the closed forms take from their caller, under
# numpy's names, on one Python float; numpy itself serves an array
FLOATS = SimpleNamespace(exp=math.exp, log=math.log, minimum=min, any=bool,
                         where=lambda cond, a, b: a if cond else b,
                         zeros_like=lambda y: 0.0)

# e^{-x/2} is exactly zero in double precision past x = 1491, so every row of
# an orthonormal table is zero there; capping x^{alpha+1} at this point only
# keeps 0 * inf out of the recurrence
_POWER_CAP = 1e4

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
    sum, under half an ulp, so they leave it unchanged."""
    term = total = 1.0
    m = 0
    while xp.any(term > _SERIES_EPS * total):
        m += 1
        term = term * y / (n + m)
        total = total + term
    return xp.exp(-y) * y ** n / math.factorial(n) * total


def gammainc_poisson(xp, n, y):
    """P(n, y) = 1 - sum_{j<n} exp(-y + j log y - lgamma(j+1)) for an
    integer n >= 1 and y >= n + 1, where the sum is below 1/2, so the
    subtraction costs at most one bit; the log form keeps y^j from
    overflowing at large y."""
    logy = xp.log(y)
    q = 0.0
    for j in range(n):
        q += xp.exp(-y + j * logy - math.lgamma(j + 1.0))
    return 1.0 - q


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
    """The x-free constants of ball_recurrence to degree k_max in dimension
    n: the row steps of L^n, and (sqrt(k+n), sqrt(k+1)) for each k < k_max."""
    return (row_steps(k_max, float(n)),
            [(math.sqrt(k + n), math.sqrt(k + 1.0)) for k in range(k_max)])


def ball_recurrence(xp, n, x, p, steps):
    """J_k = (k!/Gamma(k+n))^{1/2} I_k for k = 0..k_max at x = s a^2 / 2,
    one at a time, from p = P(n, x/2) and steps = ball_steps(k_max, n), as
    transform.ball_coefficients states them; rows of L^n feed J as they come."""
    delta = float(n)
    rows, scales = steps
    xpow = 2.0 * xp.minimum(x, _POWER_CAP) ** delta
    J = 2.0 ** delta * xp.exp(0.5 * math.lgamma(delta)) * p
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
    a = ball_normalizer(n)
    steps = ball_steps(k_max, n)
    weights = [ball_weights(FLOATS, c, n) for c in log_c(k_max, n)]
    columns = []
    for si in s:
        x = 0.5 * si * a * a
        y = 0.5 * x
        p = (gammainc_series if y < n + 1.0 else gammainc_poisson)(FLOATS, n, y)
        scale = si ** -float(n)
        columns.append([J * w * scale for J, w in zip(
            ball_recurrence(FLOATS, n, x, p, steps), weights)])
    return columns
