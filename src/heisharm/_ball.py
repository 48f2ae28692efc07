"""The unit ball's closed forms on Python floats, with no numpy.

``ball_normalizer`` is the radius constant a of every ball factor, and
``ball_columns`` is the float twin of ``transform.ball_coefficients``: the
same incomplete-gamma start, orthonormal L^{alpha+1} recurrence and
weights, one s column at a time, with ``math`` in place of numpy.

The twin serves ``ingham-plan``'s thinned factor-bound replay
(``plan.factor_bound_check``): 20 columns of 201 degrees take a few
milliseconds on floats, less than importing numpy would cost the command.
The tables of chains, box coefficients and the calibration (10^4 to 10^5
cells) are ``ball_coefficients``' alone.  The two agree to rounding, not
bit for bit, since numpy's exp, log and pow may take SIMD code paths that
differ from libm's by an ulp;
``tests/test_plan.py::test_ball_columns_match_ball_coefficients`` holds
the twin within 1e-12 of each column's largest coefficient on the whole
calibration grid.
"""

import math

__all__ = ["ball_normalizer", "ball_columns"]

# e^{-x/2} is exactly zero in double precision past x = 1491, so every row of
# an orthonormal table is zero there; capping x^{alpha+1} at this point only
# keeps 0 * inf out of the recurrence
_POWER_CAP = 1e4

# series terms below this share of the running sum no longer change it
_SERIES_EPS = 1e-17


def ball_normalizer(n):
    """Radius multiplier a with vol_{2n}(a) * a^{2n}-ball volume equal to 1.

    The ball of radius a*rho in C^n has Lebesgue volume rho^{2n}, so the
    indicator scaled by rho^{-2n} integrates to one.
    """
    return math.exp((math.lgamma(n + 1) - n * math.log(math.pi)) / (2.0 * n))


def _gammainc_int(n, y):
    """_special.gammainc_int at one float y >= 0, term for term: the series
    below y = n + 1, one minus the finite Poisson sum above."""
    if y < n + 1.0:
        term = total = 1.0
        m = 0
        while term > _SERIES_EPS * total:
            m += 1
            term = term * y / (n + m)
            total = total + term
        return math.exp(-y) * y ** n / math.factorial(n) * total
    logy = math.log(y)
    q = 0.0
    for j in range(n):
        q += math.exp(-y + j * logy - math.lgamma(j + 1.0))
    return 1.0 - q


def _orthonormal_rows(k_max, delta, u, steps):
    """laguerre._orthonormal_rows at one float u: rows k = 0..k_max of
    c_k L_k^delta(u) e^{-u/2}, with steps[k-1] = (sqrt((k+1)(k+1+delta)),
    2k+1+delta, b_k) the u-free constants of the step to row k+1."""
    prev = math.exp(-0.5 * u - 0.5 * math.lgamma(delta + 1.0))
    yield prev
    if k_max < 1:
        return
    row = (1.0 + delta - u) * prev / math.sqrt(1.0 + delta)
    yield row
    for root, diag, b in steps:
        prev, row = row, (diag - u) / root * row - b * prev
        yield row


def ball_columns(s, k_max, n):
    """Coefficients 0..k_max of the unit normalized ball indicator at each
    float s > 0 of the sequence s, as one list per s: column i is column i
    of ball_coefficients(s, k_max, n), to rounding.

    The constants that do not depend on s are computed once; the rows of
    the order alpha + 1 recurrence at x feed the J recurrence as they come,
    as in ball_coefficients.
    """
    alpha = n - 1.0
    delta = alpha + 1.0
    a = ball_normalizer(n)
    lead = 2.0 ** delta * math.exp(0.5 * math.lgamma(delta))
    steps = [(math.sqrt((k + 1.0) * (k + 1.0 + delta)), 2.0 * k + 1.0 + delta,
              math.sqrt(k * (k + delta) / ((k + 1.0) * (k + 1.0 + delta))))
             for k in range(1, k_max)]
    # J_{k+1} = (xpow row_k - up[k] J_k) / down[k]
    up = [math.sqrt(k + alpha + 1.0) for k in range(k_max)]
    down = [math.sqrt(k + 1.0) for k in range(k_max)]
    # transform._coefficient_weights times sqrt(Gamma(n)) 2^alpha
    front = 2.0 * math.pi ** n / math.exp(math.lgamma(n))
    tail = math.exp(0.5 * math.lgamma(n)) * 2.0 ** alpha
    weights = [front * math.exp(0.5 * (math.lgamma(k + 1) + math.lgamma(n)
                                       - math.lgamma(k + n))) * tail
               for k in range(k_max + 1)]
    columns = []
    for si in s:
        x = 0.5 * si * a * a
        xpow = 2.0 * min(x, _POWER_CAP) ** delta
        J = [lead * _gammainc_int(n, 0.5 * x)]
        for k, row in zip(range(k_max), _orthonormal_rows(k_max, delta, x, steps)):
            J.append((xpow * row - up[k] * J[k]) / down[k])
        scale = si ** -float(n)
        columns.append([Jk * w * scale for Jk, w in zip(J, weights)])
    return columns
