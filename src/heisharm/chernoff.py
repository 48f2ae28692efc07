"""Sublaplacian norm growth and Carleman-sum diagnostics.

Powers of the sublaplacian act spectrally as ((2k+n)|lam|)^m, so

    ||L^m f||_2^2 = (2pi)^{-(n+1)} int sum_k ((2k+n)|lam|)^{2m} R_k^2
                    ||P_k||_HS^2 |lam|^n dlam.

Everything here runs in log space: the moments overflow float64 long
before they stop being informative.  Divergence of the Carleman sum
sum_m ||L^m f||^{-1/(2m)} is never "decided"; reports state partial sums
and growth trends only.

The module imports numpy where it evaluates on arrays, so loading it costs
nothing: ingham_norm_bound_check refuses a power past MAX_POWER, and a
profile that fails the gamma hypothesis (checked on Python floats), before
numpy loads.  The hypothesis and the gamma bound take Theta at one float
(a profile's ThetaProfile.at) and evaluate with math.
"""

import math

from ._ball import geomspace
from ._record import Record
from .errors import DomainError, HypothesisError, TailError

__all__ = [
    "MAX_POWER",
    "spectral_box",
    "sublaplacian_norms",
    "gamma_integral_log",
    "gamma_bound_log",
    "check_gamma_hypothesis",
    "ingham_norm_bound_check",
    "logsumexp",
]

# the highest power the gamma-bound check accepts: a policy, not an accuracy
# limit.  gamma_integral_log agrees with a 262145-node trapezoid on
# u in [-60, 120] to 2.3e-13 in log I for m up to 48 (inv-sqrt-strong,
# inv-sqrt and inv-log-sq at n = 1); the cap stays until a computed guard on
# the integrand's share at the window ends replaces it
MAX_POWER = 12

# gamma_integral_log's trapezoid window in u = log lam and its node count;
# check_gamma_hypothesis's samples, log-spaced on [1, HYPOTHESIS_Y_MAX]
GAMMA_U_WINDOW, GAMMA_U_NODES = (-46.0, 60.0), 8193
HYPOTHESIS_Y_MAX, HYPOTHESIS_NODES = 1e8, 2049


class NormGrowthProfile(Record):
    """Norms ||L^m f||_2 for m = 0..M with the derived Carleman data.

    The norms are held as log_norms, since they overflow float64 for wide
    spectral windows.  The three arrays are made read-only.
    """

    __slots__ = ("log_norms", "carleman_terms", "partial_sums")

    def __init__(self, log_norms, carleman_terms, partial_sums):
        log_norms.setflags(write=False)
        carleman_terms.setflags(write=False)
        partial_sums.setflags(write=False)
        self._assign(log_norms=log_norms, carleman_terms=carleman_terms,
                     partial_sums=partial_sums)

    @property
    def M(self):
        return self.log_norms.size - 1


# lambda nodes of the closed-form Carleman example
_BOX_NODES = 2049


def spectral_box():
    """The closed-form Carleman example: coefficients R_0 = 1 on lam in
    [1, 2] at n = 1, every other coefficient 0, on _BOX_NODES log-spaced
    nodes.  Its moments are
    ||L^m f||_2^2 = 2 (2pi)^-2 int_1^2 lam^{2m+1} dlam."""
    import numpy as np

    from .grids import QuadratureGrid
    from .transform import SpectralCoefficients
    grid = QuadratureGrid(k_max=1, lambda_min=1.0, lambda_max=2.0,
                          lambda_nodes=_BOX_NODES)
    vals = np.zeros((2, grid.lam.size))
    vals[0] = 1.0
    return SpectralCoefficients(n=1, grid=grid, values=vals)


def logsumexp(a):
    """log(sum(exp(a))) over every entry of a, shifted by the maximum; an
    all -inf input gives -inf."""
    import numpy as np
    a = np.asarray(a, dtype=float)
    top = np.max(a)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))


def sublaplacian_norms(coeffs, M, tail_frac=1e-6):
    """Norm growth profile for m = 0..M on the coefficient grid.

    The Carleman sum is a criterion on a nonzero f, so coefficients whose
    norm is zero are refused with DomainError.  Each moment must actually
    converge inside the lambda window: if the topmost lambda column carries
    more than tail_frac of the m-th squared norm, the m-th moment is
    boundary-dominated and TailError names the smallest failing m.
    """
    if M < 1:
        raise DomainError("need M >= 1")
    import numpy as np

    from .transform import projection_hs_norm_sq
    g = coeffs.grid
    n = coeffs.n
    k = np.arange(g.k_max + 1, dtype=float)[:, None]
    lam = g.lam[None, :]
    with np.errstate(divide="ignore"):
        log_base = (2.0 * np.log(np.abs(coeffs.values))
                    + np.log(projection_hs_norm_sq(k, n))
                    + np.log(g.lambda_measure_weights(n))[None, :])
    log_mu = np.log((2.0 * k + n) * lam)
    offset = np.log(2.0) - (n + 1) * np.log(2.0 * np.pi)  # even in t

    log_norm_sq = np.empty(M + 1)
    for m in range(M + 1):
        terms = log_base + 2.0 * m * log_mu
        total = logsumexp(terms)
        log_norm_sq[m] = total + offset
        if np.isfinite(total):
            boundary = logsumexp(terms[:, -1])
            if boundary - total > np.log(tail_frac):
                raise TailError(
                    f"moment m={m} dominated by the lambda boundary "
                    f"(share {np.exp(boundary - total):.2e} > {tail_frac:.0e}); "
                    "widen the lambda window")
    if np.isneginf(log_norm_sq[0]):
        raise DomainError("zero function: Carleman sums are degenerate")

    log_norms = 0.5 * log_norm_sq
    m = np.arange(1, M + 1, dtype=float)
    with np.errstate(over="ignore"):
        terms = np.exp(-log_norms[1:] / (2.0 * m))
    return NormGrowthProfile(log_norms=log_norms,
                             carleman_terms=terms,
                             partial_sums=np.cumsum(terms))


def gamma_integral_log(theta, n, m):
    """log of I(m) = int_0^inf lam^{2m+n} e^{-Theta(sqrt(lam)) sqrt(lam)} dlam,
    by trapezoid on GAMMA_U_NODES nodes of GAMMA_U_WINDOW in u = log lam."""
    import numpy as np
    u = np.linspace(*GAMMA_U_WINDOW, GAMMA_U_NODES)
    lam = np.exp(u)
    log_g = (2.0 * m + n + 1.0) * u - theta(np.sqrt(lam)) * np.sqrt(lam)
    w = np.full(GAMMA_U_NODES, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(logsumexp(log_g + np.log(w)))


def gamma_bound_log(theta_at, n, m):
    """log of the two-term gamma bound
    2 m^{8(n+1)} Gamma(4m) Theta(m^4)^{-4m} + 4 e^{-m^2} Gamma(8m + 4(n+1)),
    with Theta given at one float by theta_at, returned with the two
    constituent term logs; the sum is numpy's logaddexp formula."""
    t1 = (math.log(2.0) + 8.0 * (n + 1) * math.log(m) + math.lgamma(4.0 * m)
          - 4.0 * m * math.log(theta_at(float(m) ** 4)))
    t2 = math.log(4.0) - float(m) ** 2 + math.lgamma(8.0 * m + 4.0 * (n + 1))
    return max(t1, t2) + math.log1p(math.exp(-abs(t1 - t2))), t1, t2


def check_gamma_hypothesis(theta_at):
    """The gamma chain needs Theta(y) >= 2 y^{-1/2} for y >= 1, with Theta
    given at one float by theta_at (a profile's ThetaProfile.at); the first
    violation at the HYPOTHESIS_NODES samples, geomspace on
    [1, HYPOTHESIS_Y_MAX] on Python floats, raises HypothesisError naming
    its y."""
    for y in geomspace(1.0, HYPOTHESIS_Y_MAX, HYPOTHESIS_NODES):
        if theta_at(y) - 2.0 * y ** -0.5 < -1e-12:
            raise HypothesisError(
                f"profile fails Theta(y) >= 2/sqrt(y) at y = {y:.6g}")


def ingham_norm_bound_check(theta, n, M):
    """Check I(m) <= gamma bound for m = 1..M on the ThetaProfile theta and
    report its name and the ratios.

    The hypothesis Theta(y) >= 2 y^{-1/2} (y >= 1) is verified on samples
    first.  M is capped at MAX_POWER by policy (see its comment); the
    quadrature itself stays accurate well past it.
    """
    if not (1 <= M <= MAX_POWER):
        raise DomainError(f"need 1 <= M <= {MAX_POWER}")
    check_gamma_hypothesis(theta.at)
    import numpy as np
    rows = []
    for m in range(1, M + 1):
        log_i = gamma_integral_log(theta, n, m)
        log_b, log_t1, log_t2 = gamma_bound_log(theta.at, n, m)
        rows.append({
            "m": m,
            "log_integral": log_i,
            "log_bound": log_b,
            "log_term1": log_t1,
            "log_term2": log_t2,
            "ratio": float(np.exp(log_i - log_b)),
            "pass": bool(log_i <= log_b),
        })
    return {
        "theta": theta.name,
        "rows": rows,
        "pass": bool(all(r["pass"] for r in rows)),
    }
