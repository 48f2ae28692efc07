"""Sublaplacian norm growth and Carleman-sum diagnostics.

Powers of the sublaplacian act spectrally as ((2k+n)|lam|)^m, so

    ||L^m f||_2^2 = (2pi)^{-(n+1)} int sum_k ((2k+n)|lam|)^{2m} R_k^2
                    ||P_k||_HS^2 |lam|^n dlam.

Everything here runs in log space: the moments overflow float64 long
before they stop being informative.  Divergence of the Carleman sum
sum_m ||L^m f||^{-1/(2m)} is never "decided"; reports state partial sums
and growth trends only.
"""

import numpy as np

from ._record import Record
from ._special import gammaln, logsumexp
from .errors import DomainError, HypothesisError, TailError
from .transform import projection_hs_norm_sq

__all__ = [
    "MAX_POWER",
    "sublaplacian_norms",
    "carleman_partial_sums",
    "gamma_integral_log",
    "gamma_bound_log",
    "check_gamma_hypothesis",
    "ingham_norm_bound_check",
]

# gamma-integral quadrature holds its accuracy to about here; beyond it the
# lambda moments outrun the node density
MAX_POWER = 12


class NormGrowthProfile(Record):
    """Norms ||L^m f||_2 for m = 0..M with the derived Carleman data.

    The norms are held as log_norms, since they overflow float64 for wide
    spectral windows.  degenerate marks the zero function, whose Carleman
    terms are reported as +inf.  The three arrays are made read-only.
    """

    __slots__ = ("log_norms", "carleman_terms", "partial_sums", "degenerate")

    def __init__(self, log_norms, carleman_terms, partial_sums, degenerate=False):
        log_norms.setflags(write=False)
        carleman_terms.setflags(write=False)
        partial_sums.setflags(write=False)
        self._assign(log_norms=log_norms, carleman_terms=carleman_terms,
                     partial_sums=partial_sums, degenerate=degenerate)

    @property
    def M(self):
        return self.log_norms.size - 1


def sublaplacian_norms(coeffs, M, tail_frac=1e-6):
    """Norm growth profile for m = 0..M on the coefficient grid.

    Each moment must actually converge inside the lambda window: if the
    topmost lambda column carries more than tail_frac of the m-th squared
    norm, the m-th moment is boundary-dominated and TailError names the
    smallest failing m.
    """
    if M < 1:
        raise DomainError("need M >= 1")
    g = coeffs.grid
    n = coeffs.n
    k = np.arange(g.k_max + 1, dtype=float)[:, None]
    lam = g.lam[None, :]
    with np.errstate(divide="ignore"):
        log_base = (2.0 * np.log(np.abs(coeffs.values))
                    + np.log(projection_hs_norm_sq(k, n))
                    + np.log(g.lambda_measure_weights(n))[None, :])
    log_mu = np.log((2.0 * k + n) * lam)
    offset = (np.log(2.0) if coeffs.symmetric else 0.0) - (n + 1) * np.log(2.0 * np.pi)

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
                    "widen the lambda window", failing_power=m)

    degenerate = bool(np.isneginf(log_norm_sq[0]))
    log_norms = 0.5 * log_norm_sq
    m = np.arange(1, M + 1, dtype=float)
    with np.errstate(over="ignore"):
        terms = np.exp(-log_norms[1:] / (2.0 * m))
    terms = np.where(np.isneginf(log_norms[1:]), np.inf, terms)
    return NormGrowthProfile(log_norms=log_norms,
                             carleman_terms=terms,
                             partial_sums=np.cumsum(terms),
                             degenerate=degenerate)


def carleman_partial_sums(profile):
    """Partial sums of the Carleman terms, raw and unit-normalized.

    Under unit normalization (||f||_2 scaled to 1) the terms are
    nonincreasing in m, which makes trends comparable across functions.
    """
    if profile.degenerate:
        raise DomainError("zero function: Carleman sums are degenerate")
    m = np.arange(1, profile.M + 1, dtype=float)
    log_rel = profile.log_norms[1:] - profile.log_norms[0]
    normalized = np.exp(-log_rel / (2.0 * m))
    return {
        "terms": profile.carleman_terms.copy(),
        "partial_sums": profile.partial_sums.copy(),
        "normalized_terms": normalized,
        "normalized_partial_sums": np.cumsum(normalized),
    }


def gamma_integral_log(theta, n, m, u_lo=-46.0, u_hi=60.0, nodes=8193):
    """log of I(m) = int_0^inf lam^{2m+n} e^{-Theta(sqrt(lam)) sqrt(lam)} dlam,
    by trapezoid in u = log lam under logsumexp shifting."""
    u = np.linspace(u_lo, u_hi, nodes)
    lam = np.exp(u)
    log_g = (2.0 * m + n + 1.0) * u - theta(np.sqrt(lam)) * np.sqrt(lam)
    w = np.full(nodes, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(logsumexp(log_g + np.log(w)))


def gamma_bound_log(theta, n, m):
    """log of the two-term gamma bound
    2 m^{8(n+1)} Gamma(4m) Theta(m^4)^{-4m} + 4 e^{-m^2} Gamma(8m + 4(n+1)),
    returned with the two constituent term logs."""
    t1 = (np.log(2.0) + 8.0 * (n + 1) * np.log(m) + gammaln(4.0 * m)
          - 4.0 * m * np.log(theta(float(m) ** 4)))
    t2 = np.log(4.0) - float(m) ** 2 + gammaln(8.0 * m + 4.0 * (n + 1))
    return float(np.logaddexp(t1, t2)), float(t1), float(t2)


def check_gamma_hypothesis(theta, y_max=1e8, nodes=2049):
    """The gamma chain needs Theta(y) >= 2 y^{-1/2} for y >= 1; sampled
    violation raises HypothesisError carrying the failing y."""
    y = np.geomspace(1.0, y_max, nodes)
    deficit = theta(y) - 2.0 * y ** -0.5
    bad = deficit < -1e-12
    if np.any(bad):
        y_bad = float(y[np.argmax(bad)])
        raise HypothesisError(
            f"profile fails Theta(y) >= 2/sqrt(y) at y = {y_bad:.6g}",
            sample=y_bad)


def ingham_norm_bound_check(theta, n, M):
    """Check I(m) <= gamma bound for m = 1..M and report the ratios.

    The hypothesis Theta(y) >= 2 y^{-1/2} (y >= 1) is verified on samples
    first; M is capped at MAX_POWER because the quadrature loses relative
    accuracy beyond that.
    """
    if not (1 <= M <= MAX_POWER):
        raise DomainError(f"need 1 <= M <= {MAX_POWER}")
    check_gamma_hypothesis(theta)
    rows = []
    for m in range(1, M + 1):
        log_i = gamma_integral_log(theta, n, m)
        log_b, log_t1, log_t2 = gamma_bound_log(theta, n, m)
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
        "theta": getattr(theta, "name", "<callable>"),
        "n": n,
        "M": M,
        "rows": rows,
        "pass": bool(all(r["pass"] for r in rows)),
    }
