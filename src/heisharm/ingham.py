"""Compactly supported functions with certified spectral decay.

The construction convolves box factors F_j: the j-th factor is the group
convolution of a normalized ball indicator of radius a*rho_j in z with a
normalized interval indicator of length tau_j^2 in t (their group
convolution is just the pointwise product, since the twist vanishes when
one factor sits at z = 0).  The widths come from a decay profile Theta,
planned on Python floats in heisharm.plan:

    rho_j = c_n^2 e^2 Theta(j) / j + 2^{-j},      tau_j = 2^{-j}.

This module runs the chain on them, as numpy arrays.  Summability of
rho_j is the convergence of int_1^inf Theta(t)/t dt, so a plan refuses a
profile declared divergent: no compactly supported function can decay
that fast spectrally.

Spectrally the chain G_N is the entrywise product of factor coefficients.
A z-factor's k-th coefficient depends only on s = lam rho^2, and obeys the
factor bound that heisharm.plan replays.  The coefficients come from the
closed form in transform.ball_coefficients over the lambda columns that
still need each factor, one call per block of consecutive factors within
a fixed cell budget, so a chain sweep holds (lambda, k) arrays and one
block's table only; heisharm.calibrate freezes c_n, after cross-checking the
closed form against radial quadrature.  Taking N = adaptive_N factors at
spectral frequency nu = (2k+n)|lam| yields decay e^{-Theta(sqrt(nu)) sqrt(nu)}
up to a constant; verify_decay certifies this numerically by maximizing
the reweighted square q = chain^2 e^{+2 Theta(sqrt(nu)) sqrt(nu)} over a
(k, lam) window, in log space so nothing overflows.
"""

import math
import sys

import numpy as np

from .errors import DomainError
from .transform import (SpectralCoefficients, _box_t_hat, ball_coefficients,
                        plancherel_norm)

__all__ = [
    "adaptive_N",
    "verify_decay",
    "cauchy_gap",
]

# exp overflows past the log of the largest double
_LOG_MAX = math.log(sys.float_info.max)


def adaptive_N(theta, k, lam, n):
    """(N, decay) at the cells (k, lam): decay = Theta(sqrt(nu)) sqrt(nu)
    with nu = (2k+n)|lam|, and the chain's factor count N = floor(decay),
    clamped to floor(sqrt(nu)) so that every factor index stays below
    sqrt(nu) even for profiles with Theta(0) > 1."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0):
        raise DomainError("lam must be nonzero")
    nu = (2.0 * np.asarray(k, dtype=float) + n) * np.abs(lam)
    root = np.sqrt(nu)
    decay = theta(root) * root
    count = np.minimum(np.floor(decay), np.floor(root))
    # an int64 holds the count below 2^63; nan, from an infinite nu, is refused too
    if not np.all(count < 2.0 ** 63):
        raise DomainError(f"the factor count must stay below 2^63 = {2.0 ** 63:.6g}, "
                          f"where it leaves int64; got {np.max(count):.6g} at "
                          f"nu = (2k+n)|lam| up to {np.max(nu):.6g}")
    return count.astype(int), decay


# cells of one ball_coefficients table in the chain stream, 1 MiB of
# doubles: consecutive factors share a call while their columns fit
_BLOCK_CELLS = 2 ** 17


def _chain_prefixes(plan, lam, k_max, need):
    """Stream the chain's partial products G_1, G_2, ... over a 1-d array
    lam of nonzero lambdas, column i taking need[i] factors.

    After factor j it yields the running (signs, logmags), of shape
    (lam.size, k_max+1) and updated in place: G_j on the columns with
    need >= j.  Factor j's table covers those columns.  Consecutive factors
    share one ball_coefficients call, their s values side by side, while
    the block's tables stay within _BLOCK_CELLS cells; a factor is never
    split across blocks.  The table at a factor's columns is the table that
    factor would get on its own, bit for bit (ball_coefficients' column
    property).  Each factor's log magnitude is added serially in increasing
    j from 0.0, which is the determinism contract.
    """
    signs, logs = np.ones((lam.size, k_max + 1)), np.zeros((lam.size, k_max + 1))
    rho, tau = np.asarray(plan.rho), np.asarray(plan.tau)
    top = int(need.max(initial=0))
    # the (factor, column) pairs in increasing factor, then column; factor j
    # owns the pairs first[j]:first[j + 1]
    jj, li = np.nonzero(np.arange(top)[:, None] < need)
    first = np.searchsorted(jj, np.arange(top + 1))
    start = 0
    while start < top:
        stop = start + 1
        while (stop < top and (first[stop + 1] - first[start]) * (k_max + 1)
               <= _BLOCK_CELLS):
            stop += 1
        block = slice(first[start], first[stop])
        s = np.abs(lam[li[block]]) * rho[jj[block]] ** 2
        table = ball_coefficients(s, k_max, plan.n)
        table *= _box_t_hat(tau[jj[block]], lam[li[block]])
        for j in range(start, stop):
            term = table[:, first[j] - block.start:first[j + 1] - block.start].T
            cols = li[first[j]:first[j + 1]]
            with np.errstate(divide="ignore"):
                logs[cols] += np.log(np.abs(term))
            signs[cols] *= np.sign(term)
            yield signs, logs
        start = stop


def _log_q_table(plan, k_max, lam_nodes):
    """log q = 2 log|G_N| + 2 Theta(sqrt(nu)) sqrt(nu), Theta the plan's, at
    every (lambda, k) cell of the window, with N = adaptive_N capped at the
    plan's J; each cell copies its G_N as the chain stream passes j = N."""
    k = np.arange(k_max + 1, dtype=float)[None, :]
    N, decay = adaptive_N(plan.theta, k, lam_nodes[:, None], plan.n)
    # a plan only has J factors; using fewer than adaptive_N asks for
    # weakens the certified decay, which is conservative, not wrong
    N = np.minimum(N, plan.J)
    logs = np.zeros(N.shape)
    stream = _chain_prefixes(plan, lam_nodes, k_max, N.max(axis=1))
    for j, (_, run_logs) in enumerate(stream, start=1):
        np.copyto(logs, run_logs, where=N == j)
    return 2.0 * logs + 2.0 * decay


def _max_log_q(log_q, lam_nodes):
    """(max log q, its k, its lambda) over a log q table; ties go to the
    first lambda column and, within it, the first k."""
    k_star = np.argmax(log_q, axis=1)
    col_max = log_q[np.arange(lam_nodes.size), k_star]
    best = int(np.argmax(col_max))
    return float(col_max[best]), int(k_star[best]), float(lam_nodes[best])


def verify_decay(plan, grid):
    """Certify the adaptive chain's decay at k <= grid.k_max, lam in grid.lam.

    Maximizes q(k, lam) = G_N(k, lam)^2 e^{+2 Theta(sqrt(nu)) sqrt(nu)},
    Theta the plan's, with N = adaptive_N, in log space.  The fitted constant is
    C = max q, and a maximum whose C overflows is refused; pass requires a
    finite maximum that moves by at most 0.1 in log when k_max doubles, a
    check that is always on.  One log q table,
    built at 2 k_max, serves both maxima: the certified one is read from its
    k <= k_max block and the doubled one from the whole table.
    That is exact, since ball_coefficients is a forward recurrence in k
    (rows 0..k_max do not depend on the top degree) and adaptive_N and
    Theta act cell by cell.  Report schema is fixed; byte determinism
    across repeated runs is part of the contract.
    """
    k_max, lam_nodes = grid.k_max, grid.lam
    k_top = 2 * k_max
    # the table forms nu = (2k+n)|lam| at every k <= k_top
    limit = np.finfo(float).max / (2 * k_top + plan.n)
    if lam_nodes[-1] >= limit:
        raise DomainError(f"lambda_max must stay below {limit:.6g} at k_max = "
                          f"{k_max}, n = {plan.n}, where nu = (2k+n)|lam| at k "
                          f"up to 2 k_max overflows; got {lam_nodes[-1]:g}")
    log_q = _log_q_table(plan, k_top, lam_nodes)
    max_log_q, k_star, lam_star = _max_log_q(log_q[:, :k_max + 1], lam_nodes)
    if max_log_q > _LOG_MAX:
        raise DomainError(f"C = exp(max_log_q) overflows: max_log_q = {max_log_q:.6g} "
                          f"is past {_LOG_MAX:.6g}, the log of the largest double")
    max2, _, _ = _max_log_q(log_q, lam_nodes)
    stable = bool(abs(max2 - max_log_q) <= 0.1)
    ok = bool(np.isfinite(max_log_q) and stable)
    return {
        "theta": plan.theta.name,
        "max_log_q": float(max_log_q),
        "argmax": {"k": int(k_star), "lambda": float(lam_star)},
        "C": float(np.exp(max_log_q)),
        "pass": ok,
    }


def cauchy_gap(plan, K, grid):
    """(bounds, measured) arrays over the chain steps G_k -> G_{k+1},
    k = 1..K, all read from one stream of the factors of G_1 .. G_{K+1}.

    bound = tau_{k+1}^2 + rho_{k+1}; measured is the Plancherel norm of
    the coefficient difference on the grid.  The chain-gap fixture holds the
    calibrated constant C of the envelope measured <= C * bound.
    """
    if not (1 <= K < plan.J):
        raise DomainError(f"need 1 <= K < J = {plan.J}")
    stream = _chain_prefixes(plan, grid.lam, grid.k_max, np.full(grid.lam.size, K + 1))
    gaps = np.diff([signs * np.exp(logs) for signs, logs in stream], axis=0)
    measured = [plancherel_norm(SpectralCoefficients(
        n=plan.n, grid=grid, values=g.T)) for g in gaps]
    rho, tau = np.asarray(plan.rho[1:K + 1]), np.asarray(plan.tau[1:K + 1])
    return tau ** 2 + rho, np.array(measured)
