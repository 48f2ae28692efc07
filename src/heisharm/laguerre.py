"""Stable evaluation of Laguerre polynomials and Laguerre functions.

Three families appear throughout the radial calculus on H^n:

* the Laguerre polynomials ``L_k^delta(r)`` with the three-term recurrence
  ``(k+1) L_{k+1} = (2k+1+delta-r) L_k - (k+delta) L_{k-1}``;

* the standard Laguerre functions

  ``std_L_k^delta(r) = (k! / Gamma(k+delta+1))^(1/2) L_k^delta(r)
  e^(-r/2) r^(delta/2)``,

  which form an orthonormal system in L^2((0, inf), dr);

* the scaled Laguerre functions
  ``phi_{k,lam}^{n-1}(r) = L_k^{n-1}(|lam| r^2 / 2) e^(-|lam| r^2 / 4)``
  entering the spectral decomposition of radial functions, together with
  their normalized variant ``C_{k,n} phi`` where
  ``C_{k,n} = (k!(n-1)!/(k+n-1)!)^(1/2)``.

Raw polynomial values overflow near k = 150, so all function evaluation
runs a recurrence carried directly on the orthonormal family, whose values
stay bounded; the square-root normalization ratios are folded into the
recurrence coefficients.  Gamma ratios are always taken through log-gamma.
The recurrence is ``_ball.orthonormal_rows``, written once for one float or
an array; ``_orthonormal_table`` runs it on numpy arrays.

The module also provides the four-region piecewise envelope that dominates
``C_{k,n} |phi_{k,lam}^{n-1}(r)|``: with ``nu = 2(2k+n)`` and the scaled
argument ``w = |lam| r^2 / 2``, the radial axis splits at
``sqrt(2/(nu |lam|))``, ``sqrt(nu/|lam|)`` and ``sqrt(3 nu/|lam|)`` into a
flat core, an oscillatory stretch with ``(nu w)^(-1/4)`` decay, an Airy-type
turning-point window, and an exponentially decaying far zone.  The two free
constants of the envelope are calibrated once and frozen in a fixture, and
envelope_check replays the package's calibration grid against them.
"""

import math

import numpy as np

from ._ball import orthonormal_rows, row_steps
from .errors import DomainError

__all__ = [
    "normalized_laguerre_table",
    "nu",
    "breakpoints",
    "envelope_values",
    "envelope_check",
    "orthonormality_defect",
]


def _check_params(k, delta):
    if k < 0 or k != int(k):
        raise DomainError(f"degree k must be a nonnegative integer, got {k}")
    if delta <= -1:
        raise DomainError(f"Laguerre type must satisfy delta > -1, got {delta}")


def _orthonormal_table(kmax, delta, u):
    """Values c_k L_k^delta(u) e^(-u/2) for all k <= kmax.

    c_k = (Gamma(k+1)/Gamma(k+delta+1))^(1/2) makes the rows bounded, so the
    forward recurrence is stable far past the degree where raw polynomials
    overflow.  Rows times u^(delta/2) are the orthonormal standard Laguerre
    functions.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((kmax + 1,) + u.shape)
    rows = orthonormal_rows(np, kmax, delta, u, row_steps(kmax, delta))
    for k, row in enumerate(rows):
        out[k] = row
    return out


def _laguerre_newton_step(N, delta, x):
    """One Newton step x - L_N / L_N' towards the zeros of L_N^delta.

    Runs the recurrence on p_k = L_k / binom(k+delta, k) and its difference
    D_k = p_k - p_{k-1}, which stays accurate near x = 0 where the
    three-term form cancels; then L_N / L_N' = x p_N / (N D_N).  Both are
    rescaled by the same power of two every step, so large x cannot
    overflow and the ratio is unchanged.
    """
    D = -x / (delta + 1.0)
    p = 1.0 + D
    for k in range(1, N):
        D = (k * D - x * p) / (k + delta + 1.0)
        p = p + D
        _, e = np.frexp(p)
        p, D = np.ldexp(p, -e), np.ldexp(D, -e)
    return x - x * p / (N * D)


def roots_genlaguerre(N, delta):
    """N-point Gauss rule (x, w) for the weight x^delta e^{-x} on (0, inf).

    Nodes are the eigenvalues of the Jacobi matrix (diagonal 2k+1+delta,
    off-diagonal sqrt(k(k+delta))), Golub-Welsch (1969), polished by one
    Newton step.  Weights are the Christoffel numbers
    w_i = e^{-x_i} / sum_{k<N} T_k(x_i)^2 with T the orthonormal table, a
    sum of positive terms with full relative accuracy out in the tail,
    where eigenvector components cannot resolve weights far below eps.  A
    weight below the float range comes out 0, and inf where every T_k
    underflows.
    """
    _check_params(N, delta)
    k = np.arange(1.0, N)
    off = np.sqrt(k * (k + delta))
    jacobi = np.diag(2.0 * np.arange(N) + 1.0 + delta) + np.diag(off, 1) + np.diag(off, -1)
    x = _laguerre_newton_step(N, delta, np.linalg.eigvalsh(jacobi))
    tab = _orthonormal_table(N - 1, delta, x)
    with np.errstate(divide="ignore"):
        w = np.exp(-x - np.log(np.sum(tab * tab, axis=0)))
    return x, w


def orthonormality_defect(kmax, delta):
    """Worst deviation of the Gram matrix of std_L_0..std_L_kmax from the
    identity, measured with a Gauss rule of type delta with kmax + 20 nodes.

    Every pairwise product is a degree <= 2 kmax polynomial against the
    weight x^delta e^{-x}, so that rule integrates the whole Gram matrix
    exactly; any defect is pure rounding.  A rule whose smallest weight is
    subnormal keeps only a few bits of it, so such rules are refused, which
    caps kmax at 165, 166, 168 and 169 for delta = 0, 1, 2 and 3.
    """
    _check_params(kmax, delta)
    x, w = roots_genlaguerre(int(kmax + 20), delta)
    if not np.all((w >= np.finfo(float).tiny) & np.isfinite(w)):
        raise DomainError("Gauss-Laguerre weights underflowed; lower the degree")
    tab = _orthonormal_table(kmax, delta, x)
    # w e^x stays polynomial-sized; the exp of the summed logs avoids
    # overflowing e^x on its own for large nodes
    gram = (tab * np.exp(np.log(w) + x)) @ tab.T
    return float(np.max(np.abs(gram - np.eye(kmax + 1))))


def normalized_laguerre_table(kmax, lam, n, r):
    """C_{k,n} phi_{k,lam}^{n-1}(r) for all k <= kmax, with lam broadcast
    against r; returns shape (kmax+1,) + the broadcast shape.

    The workhorse of every radial quadrature: one recurrence sweep yields
    the whole column of degrees at the given (lam, r) points.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0):
        raise DomainError("scaling parameter lambda must be nonzero")
    if n < 1 or n != int(n):
        raise DomainError(f"dimension n must be a positive integer, got {n}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radii must be nonnegative")
    u = 0.5 * np.abs(lam) * r * r
    # C_{k,n} phi_k = sqrt(Gamma(n)) * c_k L_k^{n-1}(u) e^{-u/2}
    return np.exp(0.5 * math.lgamma(n)) * _orthonormal_table(kmax, n - 1.0, u)


# ---------------------------------------------------------------------------
# Piecewise envelope


def nu(k, n):
    """The spectral scale nu(k) = 2(2k+n)."""
    return 2.0 * (2 * np.asarray(k) + n)


def breakpoints(k, lam, n):
    """Region boundaries (sqrt(2/(nu|lam|)), sqrt(nu/|lam|), sqrt(3 nu/|lam|))."""
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    v = nu(k, n)
    al = abs(lam)
    return (np.sqrt(2.0 / (v * al)), np.sqrt(v / al), np.sqrt(3.0 * v / al))


def envelope_values(k_max, lam, n, r, c_fit, gamma_fit):
    """Envelope for C_{k,n}|phi_{k,lam}^{n-1}| at every degree k <= k_max
    and the radii r: shape (k_max+1,) + r.shape, the shape of
    normalized_laguerre_table(k_max, lam, n, r).

    The four cases, in the scaled variable w = |lam| r^2 / 2 and with
    s = r sqrt(|lam|):

    ==============  =============================================
    w <= 1/nu       c s^(-(n-1)) (nu w)^((n-1)/2)
    1/nu < w<=nu/2  c s^(-(n-1)) (nu w)^(-1/4)
    nu/2 < w<=3nu/2 c s^(-(n-1)) nu^(-1/4)(nu^(1/3)+|nu-w|)^(-1/4)
    w > 3nu/2       c s^(-(n-1)) e^(-gamma w)
    ==============  =============================================

    r = 0 is assigned the finite core limit c (nu/2)^((n-1)/2).
    """
    if c_fit <= 0 or gamma_fit <= 0:
        raise DomainError("envelope constants must be positive")
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    r = np.asarray(r, dtype=float)
    al = abs(lam)
    w = 0.5 * al * r * r
    s = r * np.sqrt(al)
    # the powers of nu alone are taken one degree at a time: numpy's pow
    # over an array of degrees can differ from its 0-d pow in the last bit;
    # at r = 0 the (n-1)-powers cancel, leaving the finite limit (nu/2)^((n-1)/2)
    powers = [(d, d ** -0.25, d ** (1.0 / 3.0), (0.5 * d) ** (0.5 * (n - 1.0)))
              for d in (nu(k, n) for k in range(k_max + 1))]
    # one row per degree, broadcast against r of any shape
    v, v_quarter, v_third, v_core = np.array(powers).T.reshape(
        (4, -1) + (1,) * r.ndim)
    with np.errstate(divide="ignore", invalid="ignore"):
        spow = np.where(r > 0, s ** (-(n - 1.0)), 1.0)
        core = np.where(r > 0, (v * w) ** (0.5 * (n - 1.0)), v_core)
        osc = np.where(w > 0, (v * w) ** -0.25, np.inf)
        turn = v_quarter * (v_third + np.abs(v - w)) ** -0.25
        expo = np.exp(-gamma_fit * w)
    case = np.where(
        w <= 1.0 / v,
        core,
        np.where(w <= 0.5 * v, osc, np.where(w <= 1.5 * v, turn, expo)),
    )
    return c_fit * spow * case


def envelope_check(fixture, k_max):
    """Validate the frozen C_fit and gamma_fit of a loaded
    lemma21_constants.json fixture on the package's envelope calibration grid.

    Replays that grid up to degree min(k_max, ENVELOPE_K_MAX) and counts
    points where the normalized scaled Laguerre function exceeds the fitted
    envelope.  The certified outcome is zero violations.
    """
    # imported here: the transforms import this module and load no fixtures
    from .fixtures import ENVELOPE_DIMS, ENVELOPE_K_MAX, ENVELOPE_LAMBDAS, envelope_radii
    c_fit = float(fixture["C_fit"])
    gamma_fit = float(fixture["gamma_fit"])
    k_hi = int(min(k_max, ENVELOPE_K_MAX))
    r = envelope_radii()
    points = 0
    violations = 0
    worst = 0.0
    for n in ENVELOPE_DIMS:
        for lam in ENVELOPE_LAMBDAS:
            tab = np.abs(normalized_laguerre_table(k_hi, lam, n, r))
            env = envelope_values(k_hi, lam, n, r, c_fit, gamma_fit)
            points += env.size
            # envelope underflow deep in the exponential zone is a
            # violation only if the function itself is still nonzero
            pos = env > 0
            violations += int(np.sum(tab[~pos] > 0))
            ratio = tab[pos] / env[pos]
            violations += int(np.sum(ratio > 1.0))
            if ratio.size:
                worst = max(worst, float(np.max(ratio)))
    return {
        "C_fit": c_fit,
        "gamma_fit": gamma_fit,
        "k_max": k_hi,
        "dims": list(ENVELOPE_DIMS),
        "points": points,
        "violations": violations,
        "max_ratio": worst,
    }
