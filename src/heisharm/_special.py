"""Special functions at the arguments the package uses, in numpy and math.

Each function covers only the domain its callers reach, and says so:

* ``gammaln``: log Gamma(x) for x > 0, by ``math.lgamma`` element by
  element (ulp-accurate; a cumulative sum of logs is not).
* ``gammainc_int``: the regularized lower incomplete gamma P(n, y) for an
  integer n >= 1 (DLMF 8.4.11), by its power series below y = n + 1 and by
  one minus the finite Poisson sum above, with every term in log form so
  nothing overflows however large y is.
* ``betainc_half``: the regularized incomplete beta I_x(a, 1/2) for a
  half-integer a, from I_x(1/2, 1/2) = (2/pi) atan2(sqrt x, sqrt(1-x)),
  stepped in a by DLMF 8.17.20.  The atan2 form keeps full absolute
  accuracy near x = 1, where arcsin(sqrt x) does not.
* ``logsumexp``: log sum exp(a), shifted by the maximum.

The Gauss rules live beside their users: the Gauss-Legendre rule in
``grids`` (``roots_legendre``), the Gauss-Laguerre rule in ``laguerre``,
beside the orthonormal recurrence it evaluates.
"""

import math

import numpy as np

# the series' stopping share, which _ball's float twin of gammainc_int shares
from ._ball import _SERIES_EPS

__all__ = ["gammaln", "gammainc_int", "betainc_half", "logsumexp"]


def gammaln(x):
    """log Gamma(x) for x > 0; a float for a scalar, else an array of x's
    shape."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        return math.lgamma(float(a))
    return np.fromiter(map(math.lgamma, a.ravel().tolist()), dtype=float,
                       count=a.size).reshape(a.shape)


def gammainc_int(n, y):
    """Regularized lower incomplete gamma P(n, y) for an integer n >= 1 and
    finite y >= 0 (array or scalar).

    Below y = n + 1 the series e^{-y} y^n / n! sum_m y^m n!/(n+m)! has
    ratios under one and no cancellation.  Above it, P = 1 - sum_{j<n}
    exp(-y + j log y - lgamma(j+1)), where the sum is below 1/2, so the
    subtraction costs at most one bit; the log form keeps y^j from
    overflowing at large y.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"need an integer n >= 1, got {n}")
    n = int(n)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < n + 1.0

    ys = y[small]
    term = np.ones_like(ys)
    total = np.ones_like(ys)
    m = 0
    while np.any(term > _SERIES_EPS * total):
        m += 1
        term = term * ys / (n + m)
        total = total + term
    out[small] = np.exp(-ys) * ys ** n / math.factorial(n) * total

    yl = y[~small]
    logy = np.log(yl)
    q = np.zeros_like(yl)
    for j in range(n):
        q += np.exp(-yl + j * logy - math.lgamma(j + 1.0))
    out[~small] = 1.0 - q
    return out if out.ndim else float(out)


def betainc_half(a, x):
    """Regularized incomplete beta I_x(a, 1/2) for a half-integer a > 0 and
    0 <= x <= 1 (array or scalar).

    DLMF 8.17.20 with b = 1/2: I_x(a+1, 1/2) = I_x(a, 1/2)
    - c_a x^a sqrt(1-x), c_a = Gamma(a+1/2) / (Gamma(a+1) sqrt(pi)), and
    c_{a+1} = c_a (a+1/2)/(a+1).
    """
    if a <= 0 or a - 0.5 != int(a - 0.5):
        raise ValueError(f"need a half-integer a > 0, got {a}")
    x = np.asarray(x, dtype=float)
    y = np.sqrt(1.0 - x)
    step, value, c = 0.5, 2.0 / np.pi * np.arctan2(np.sqrt(x), y), 2.0 / np.pi
    while step < a:
        value = value - c * x ** step * y
        c *= (step + 0.5) / (step + 1.0)
        step += 1.0
    return value if value.ndim else float(value)


def logsumexp(a):
    """log(sum(exp(a))) over every entry of a, shifted by the maximum; an
    all -inf input gives -inf."""
    a = np.asarray(a, dtype=float)
    top = np.max(a)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))
