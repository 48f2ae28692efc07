"""Compactly supported functions with certified spectral decay.

The construction convolves box factors F_j: the j-th factor is the group
convolution of a normalized ball indicator of radius a*rho_j in z with a
normalized interval indicator of length tau_j^2 in t (their group
convolution is just the pointwise product, since the twist vanishes when
one factor sits at z = 0).  The widths come from a decay profile Theta:

    rho_j = c_n^2 e^2 Theta(j) / j + 2^{-j},      tau_j = 2^{-j}.

Summability of rho_j is the convergence of int_1^inf Theta(t)/t dt, so
profiles declared divergent are refused: no compactly supported function
can decay that fast spectrally.

Spectrally the chain G_N is the entrywise product of factor coefficients.
A z-factor's k-th coefficient depends only on s = lam rho^2 and obeys the
calibrated oscillatory envelope

    |coeff| <= min(1, c_n (rho sqrt((2k+n)|lam|))^{-n+1/2}),

with c_n frozen by the calibration run.  The coefficients come from the
closed form in transform.ball_coefficients, one call per factor over the
lambda columns that still need it, so a chain sweep holds (lambda, k)
arrays only; heisharm.calibrate freezes c_n, after cross-checking the
closed form against radial quadrature.  Taking N = adaptive_N factors at
spectral frequency nu = (2k+n)|lam| yields decay e^{-Theta(sqrt(nu)) sqrt(nu)}
up to a constant; verify_decay certifies this numerically by maximizing
the reweighted square q = chain^2 e^{+2 Theta(sqrt(nu)) sqrt(nu)} over a
(k, lam) window, in log space so nothing overflows.
"""

import numpy as np

from ._record import Record
from .errors import DomainError
from .fixtures import FACTOR_K_MAX, FACTOR_S_NODES, calibration_grid, load_fixture
from .theta import require_convergent
from .transform import (SpectralCoefficients, _box_t_hat, ball_coefficients,
                        ball_normalizer, plancherel_norm)

__all__ = [
    "SequencePlan",
    "plan_sequences",
    "factor_coeff_envelope",
    "factor_bound_check",
    "adaptive_N",
    "verify_decay",
    "support_radius",
    "cauchy_gap",
]

# Koranyi gauge of the point (0, tau^2/2): (t^2)^{1/4} = tau / sqrt(2)
TAU_GAUGE = 4.0 ** -0.25


class SequencePlan(Record):
    """Frozen factor widths for one construction run.

    a is the ball-radius constant making each z-factor a probability
    density; c = 4^{-1/4} converts an interval half-length tau^2/2 into its
    Koranyi gauge tau*c.  rho and tau are read-only float arrays of length J.
    """

    __slots__ = ("theta_name", "declared_class", "n", "J", "c_n", "rho", "tau")

    def __init__(self, theta_name, declared_class, n, J, c_n, rho, tau):
        # copies: the record freezes its arrays, never the caller's
        rho = np.array(rho, dtype=float)
        tau = np.array(tau, dtype=float)
        if rho.shape != (J,) or tau.shape != (J,):
            raise DomainError("plan sequences must have length J")
        if np.any(rho <= 0) or np.any(tau <= 0):
            raise DomainError("factor widths must be strictly positive")
        if np.any(np.diff(rho) > 0) or np.any(np.diff(tau) > 0):
            raise DomainError("factor widths must be nonincreasing")
        rho.setflags(write=False)
        tau.setflags(write=False)
        self._assign(theta_name=theta_name, declared_class=declared_class,
                     n=n, J=J, c_n=c_n, rho=rho, tau=tau)

    @property
    def a(self):
        return ball_normalizer(self.n)

    @property
    def c(self):
        return TAU_GAUGE


def _chain_constant(n, c_n=None, fixtures_dir=None):
    if c_n is not None:
        return float(c_n)
    fx = load_fixture("box_factor_envelope.json", fixtures_dir)
    key = str(n)
    if key not in fx["c_n"]:
        raise DomainError(
            f"no calibrated factor-bound constant for n={n}; rerun calibration")
    return float(fx["c_n"][key])


def plan_sequences(theta, n, J=64, c_n=None, fixtures_dir=None):
    """Factor widths rho_j, tau_j for j = 1..J under the profile theta.

    The additive 2^{-j} keeps rho strictly positive and summable even for
    the zero profile; the leading term meets the required lower bound
    rho_j >= c_n^2 e^2 Theta(j)/j by construction.
    """
    require_convergent(theta)
    if J < 1:
        raise DomainError("need at least one factor")
    if J > 1074:
        # 2^{-1074} is the smallest positive double
        raise DomainError(f"at most 1074 factors: tau_j = 2^-j underflows to 0 "
                          f"past j = 1074, got J = {J}")
    cn = _chain_constant(n, c_n, fixtures_dir)
    j = np.arange(1, J + 1, dtype=float)
    rho = cn ** 2 * np.e ** 2 * theta(j) / j + 2.0 ** -j
    tau = 2.0 ** -j
    return SequencePlan(theta_name=theta.name, declared_class=theta.declared_class,
                        n=n, J=J, c_n=cn, rho=rho, tau=tau)


def factor_coeff_envelope(k, lam, rho, n, c_n):
    """Oscillatory bound min(1, c_n (rho sqrt((2k+n)|lam|))^{-n+1/2}) on a
    z-factor coefficient, with the trivial unit bound taking over where the
    power blows up."""
    x = rho * np.sqrt((2.0 * np.asarray(k, dtype=float) + n) * np.abs(lam))
    with np.errstate(divide="ignore"):
        return np.minimum(1.0, c_n * np.where(x > 0, x, np.inf) ** (0.5 - n))


def factor_bound_check(n, c_n=None, k_max=FACTOR_K_MAX, s_nodes=FACTOR_S_NODES,
                       thin=1, fixtures_dir=None):
    """Validate |coeff(k, s)| <= min(1, c_n ((2k+n) s)^{-(2n-1)/4}) over the
    calibration grid, with the frozen c_n by default.

    thin keeps every thin-th s column, trading coverage for speed; the
    certified outcome is zero violations at thin = 1.
    """
    c_n = _chain_constant(n, c_n, fixtures_dir)
    k, s = calibration_grid(k_max, s_nodes)
    s = s[::max(int(thin), 1)]
    vals = np.abs(ball_coefficients(s, k_max, n))
    # a unit-radius factor at lam = s
    env = factor_coeff_envelope(k[:, None], s[None, :], 1.0, n, c_n)
    return {
        "n": n,
        "c_n": c_n,
        "k_max": k_max,
        "s_columns": int(s.size),
        "points": int((k_max + 1) * s.size),
        "violations": int(np.sum(vals > env)),
        "max_ratio": float(np.max(vals / env)),
    }


def adaptive_N(theta, k, lam, n):
    """Number of chain factors used at the cell (k, lam):
    floor(Theta(sqrt(nu)) sqrt(nu)) with nu = (2k+n)|lam|, clamped to
    floor(sqrt(nu)) so that every factor index stays below sqrt(nu) even
    for profiles with Theta(0) > 1."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0):
        raise DomainError("lam must be nonzero")
    nu = (2.0 * np.asarray(k, dtype=float) + n) * np.abs(lam)
    root = np.sqrt(nu)
    raw = np.floor(theta(root) * root)
    return np.minimum(raw, np.floor(root)).astype(int)


def _chain_log_columns(plan, lam, k_max, N):
    """Signed log chain coefficients of G_N at every (lambda, k) cell.

    lam is a 1-d array of nonzero lambdas and N the number of factors at
    each cell: one int for all, or an int array broadcasting against
    (lam.size, k_max+1), whose leading axes ask for several chain lengths
    at once.  Returns (signs, logmags) of the broadcast shape; N = 0 is the
    empty product 1.  The factors stream in increasing j: factor j's table
    comes from one ball_coefficients call over the lambda columns that
    still need it, its log magnitude is added to a running (lambda, k) sum,
    and each cell copies the running values out once j reaches its N.  The
    sums thus accumulate serially in increasing j from 0.0, which is the
    determinism contract, and no factor table outlives its step.
    """
    lam = np.asarray(lam, dtype=float)
    N = np.asarray(N, dtype=int)
    N = np.broadcast_to(N, np.broadcast_shapes(N.shape, (lam.size, k_max + 1)))
    # the factors each lambda column needs, over k and any leading axes
    need = N.max(axis=tuple(a for a in range(N.ndim) if a != N.ndim - 2),
                 initial=0)
    signs, logs = np.ones(N.shape), np.zeros(N.shape)
    run_signs, run_logs = np.ones(N.shape[-2:]), np.zeros(N.shape[-2:])
    for j in range(int(need.max(initial=0))):
        cols = np.flatnonzero(need > j)
        # one-element slices keep ** 2 on numpy's array path, the path
        # a gather of every factor's widths at once takes
        s = np.abs(lam[cols]) * plan.rho[j:j + 1] ** 2
        term = (ball_coefficients(s, k_max, plan.n)
                * _box_t_hat(plan.tau[j:j + 1], lam[cols])).T
        with np.errstate(divide="ignore"):
            run_logs[cols] += np.log(np.abs(term))
        run_signs[cols] *= np.sign(term)
        done = N == j + 1
        np.copyto(signs, run_signs, where=done)
        np.copyto(logs, run_logs, where=done)
    return signs, logs


def _log_q_table(plan, theta, k_max, lam_nodes):
    """log q = 2 log|G_N| + 2 Theta(sqrt(nu)) sqrt(nu) at every (lambda, k)
    cell of the window, with N = adaptive_N capped at the plan's J."""
    k = np.arange(k_max + 1, dtype=float)[None, :]
    lam = lam_nodes[:, None]
    root = np.sqrt((2.0 * k + plan.n) * np.abs(lam))
    # a plan only has J factors; using fewer than adaptive_N asks for
    # weakens the certified decay, which is conservative, not wrong
    N = np.minimum(adaptive_N(theta, k, lam, plan.n), plan.J)
    _, logs = _chain_log_columns(plan, lam_nodes, k_max, N)
    return 2.0 * logs + 2.0 * theta(root) * root


def _max_log_q(log_q, lam_nodes):
    """(max log q, its k, its lambda) over a log q table; ties go to the
    first lambda column and, within it, the first k."""
    k_star = np.argmax(log_q, axis=1)
    col_max = log_q[np.arange(lam_nodes.size), k_star]
    best = int(np.argmax(col_max))
    return float(col_max[best]), int(k_star[best]), float(lam_nodes[best])


def verify_decay(plan, theta, k_max=64, lambda_min=1e-2, lambda_max=1e2,
                 lambda_nodes=192, stability_check=True):
    """Certify the decay of the adaptive chain over a (k, lam) window.

    Maximizes q(k, lam) = G_N(k, lam)^2 e^{+2 Theta(sqrt(nu)) sqrt(nu)},
    with N = adaptive_N, in log space.  The fitted constant is
    C = max q; pass requires a finite maximum that moves by at most 0.1 in
    log when k_max doubles.  One log q table serves both maxima: with the
    stability check it is built at 2 k_max, the certified maximum is read
    from its k <= k_max block and the doubled one from the whole table.
    That is exact, since ball_coefficients is a forward recurrence in k
    (rows 0..k_max do not depend on the top degree) and adaptive_N and
    Theta act cell by cell.  Report schema is fixed; byte determinism
    across repeated runs is part of the contract.
    """
    require_convergent(theta, "nothing to certify")
    lam_nodes = np.geomspace(lambda_min, lambda_max, lambda_nodes)
    top = 2 * k_max if stability_check else k_max
    log_q = _log_q_table(plan, theta, top, lam_nodes)
    max_log_q, k_star, lam_star = _max_log_q(log_q[:, :k_max + 1], lam_nodes)
    stable = True
    if stability_check:
        max2, _, _ = _max_log_q(log_q, lam_nodes)
        stable = bool(abs(max2 - max_log_q) <= 0.1)
    ok = bool(np.isfinite(max_log_q) and stable)
    return {
        "theta": plan.theta_name,
        "n": plan.n,
        "k_max": k_max,
        "lambda_range": [float(lambda_min), float(lambda_max)],
        "max_log_q": float(max_log_q),
        "argmax": {"k": int(k_star), "lambda": float(lam_star)},
        "C": float(np.exp(max_log_q)),
        "pass": ok,
    }


def support_radius(plan, N=None):
    """Koranyi-gauge radius containing supp G_N: triangle inequality over
    the a*rho_j ball factors and tau_j/sqrt(2) interval factors.  N = None
    uses the full plan."""
    if N is None:
        N = plan.J
    if not (1 <= N <= plan.J):
        raise DomainError(f"need 1 <= N <= J = {plan.J}")
    return float(plan.a * np.sum(plan.rho[:N]) + TAU_GAUGE * np.sum(plan.tau[:N]))


def cauchy_gap(plan, K, grid, c3=None, fixtures_dir=None):
    """(bounds, measured) arrays over the chain steps G_k -> G_{k+1},
    k = 1..K, all read from one stream of the factors of G_1 .. G_{K+1}.

    bound = tau_{k+1}^2 + c3 rho_{k+1} with the calibrated c3; measured is
    the Plancherel norm of the coefficient difference on the grid.  The
    calibrated envelope constant C (measured <= C * bound) lives in the
    chain-gap fixture next to c3.
    """
    if not (1 <= K < plan.J):
        raise DomainError(f"need 1 <= K < J = {plan.J}")
    if c3 is None:
        c3 = float(load_fixture("chain_gap_constants.json", fixtures_dir)["c3"])
    signs, logs = _chain_log_columns(plan, grid.lam, grid.k_max,
                                     np.arange(1, K + 2)[:, None, None])
    gaps = np.diff(signs * np.exp(logs), axis=0)
    measured = [plancherel_norm(SpectralCoefficients(
        n=plan.n, grid=grid, values=g.T, symmetric=True)) for g in gaps]
    return plan.tau[1:K + 1] ** 2 + c3 * plan.rho[1:K + 1], np.array(measured)
