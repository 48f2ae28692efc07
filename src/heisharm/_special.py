"""Special functions at the arguments the package uses, in numpy and math.

Each function covers only the domain its callers reach, and says so:

* ``gammaln``: log Gamma(x) for x > 0, by ``math.lgamma`` element by
  element (ulp-accurate; a cumulative sum of logs is not).
* ``gammainc_int``: the regularized lower incomplete gamma P(n, y) for an
  integer n >= 1 (DLMF 8.4.11), by its power series below y = n + 1 and by
  one minus the finite Poisson sum above, with every term in log form so
  nothing overflows however large y is.  The two halves are written once
  in ``_ball``, for one float or an array; this function masks an array
  between them.
* ``betainc_half``: the regularized incomplete beta I_x(a, 1/2) for a
  half-integer a, from I_x(1/2, 1/2) = (2/pi) atan2(sqrt x, sqrt(1-x)),
  stepped in a by DLMF 8.17.20.  The atan2 form keeps full absolute
  accuracy near x = 1, where arcsin(sqrt x) does not.
* ``logsumexp``: log sum exp(a), shifted by the maximum.

The Gauss rules live beside their users: the Gauss-Legendre rule in
``grids`` (``roots_legendre``), the Gauss-Laguerre rule in ``laguerre``,
beside the orthonormal table it evaluates.
"""

import math

import numpy as np

from ._ball import gammainc_poisson, gammainc_series

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
    finite y >= 0 (array or scalar): _ball.gammainc_series below
    y = n + 1 and _ball.gammainc_poisson above, each on its entries."""
    if n < 1 or n != int(n):
        raise ValueError(f"need an integer n >= 1, got {n}")
    n = int(n)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < n + 1.0
    out[small] = gammainc_series(np, n, y[small])
    out[~small] = gammainc_poisson(np, n, y[~small])
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
