"""The plan of the Ingham construction, on Python floats.

The j-th factor of the chain is a normalized ball of radius a*rho_j in z
times a normalized interval of length tau_j^2 in t, with the widths

    rho_j = c_n^2 e^2 Theta(j) / j + 2^{-j},      tau_j = 2^{-j}.

This module plans them, bounds the support of the chain and replays the
calibrated factor bound at the unit-radius scale s = |lam| rho^2,

    |coeff| <= min(1, c_n sqrt((2k+n) s)^{-n+1/2}),

on a thinned calibration grid.  It imports no numpy: ``ingham-plan`` with
a builtin profile computes a few thousand scalars, and loading numpy
would cost it more than all of them (a table profile loads numpy to
validate its arrays).  Theta (``ThetaProfile.at``), the replay's s nodes
(``fixtures.calibration_s_nodes``) and coefficients (``_ball.ball_columns``)
come from the one source of each formula, evaluated with math; the chain
code in ``heisharm.ingham`` reads the widths as numpy arrays.
"""

import math

from ._ball import ball_columns, ball_normalizer
from ._record import Record
from .errors import DomainError
from .fixtures import (FACTOR_DIMS, FACTOR_K_MAX, FACTOR_S_NODES,
                       calibration_s_nodes, load_fixture)
from .theta import require_convergent

__all__ = [
    "SequencePlan",
    "plan_sequences",
    "support_radius",
    "factor_coeff_envelope",
    "factor_bound_check",
]

# factor_bound_check replays every REPLAY_THIN-th s column, so ingham-plan
# stays light; the certified outcome is zero violations at REPLAY_THIN = 1
REPLAY_THIN = 6


class SequencePlan(Record):
    """Frozen factor widths for one construction run under the profile
    theta, which a plan refuses if it is declared divergent.

    a is the ball-radius constant making each z-factor a probability
    density; c = 4^{-1/4} converts an interval half-length tau^2/2 into its
    Koranyi gauge tau*c.  rho and tau are tuples of J floats, copied from
    the caller's sequences.
    """

    __slots__ = ("theta", "n", "J", "c_n", "rho", "tau")
    c = 4.0 ** -0.25

    def __init__(self, theta, n, J, c_n, rho, tau):
        require_convergent(theta)
        rho = tuple(map(float, rho))
        tau = tuple(map(float, tau))
        if len(rho) != J or len(tau) != J:
            raise DomainError("plan sequences must have length J")
        if any(v <= 0 for v in rho + tau):
            raise DomainError("factor widths must be strictly positive")
        if any(later > v for seq in (rho, tau) for v, later in zip(seq, seq[1:])):
            raise DomainError("factor widths must be nonincreasing")
        self._assign(theta=theta, n=n, J=J, c_n=c_n, rho=rho, tau=tau)

    @property
    def a(self):
        return ball_normalizer(self.n)


def _chain_constant(n, fixtures_dir):
    calibrated = [str(d) for d in FACTOR_DIMS]
    if str(n) not in calibrated:
        raise DomainError(f"no calibrated factor-bound constant for n={n}; the "
                          f"calibration covers n = {', '.join(calibrated)}")
    return float(load_fixture("box_factor_envelope.json", fixtures_dir)["c_n"][str(n)])


def plan_sequences(theta, n, J, c_n=None, fixtures_dir=None):
    """Factor widths rho_j, tau_j for j = 1..J under the profile theta.

    The additive 2^{-j} keeps rho strictly positive and summable even for
    the zero profile; the leading term meets the required lower bound
    rho_j >= c_n^2 e^2 Theta(j)/j by construction.  c_n, when not given, is
    read from the factor-bound fixture.
    """
    if J < 1:
        raise DomainError("need at least one factor")
    if J > 1074:
        # 2^{-1074} is the smallest positive double
        raise DomainError(f"at most 1074 factors: tau_j = 2^-j underflows to 0 "
                          f"past j = 1074, got J = {J}")
    cn = float(c_n) if c_n is not None else _chain_constant(n, fixtures_dir)
    rho = [cn ** 2 * math.e ** 2 * theta.at(j) / j + 2.0 ** -j
           for j in range(1, J + 1)]
    tau = [2.0 ** -j for j in range(1, J + 1)]
    return SequencePlan(theta=theta, n=n, J=J, c_n=cn, rho=rho, tau=tau)


def support_radius(plan):
    """Koranyi-gauge radius containing supp G_J: triangle inequality over
    the a*rho_j ball factors and tau_j/sqrt(2) interval factors, each sum
    correctly rounded."""
    return plan.a * math.fsum(plan.rho) + plan.c * math.fsum(plan.tau)


def factor_coeff_envelope(k, s, n, c_n):
    """Oscillatory bound min(1, c_n sqrt((2k+n) s)^{-n+1/2}) on the k-th
    coefficient of a z-factor at the unit-radius scale s = |lam| rho^2,
    with the trivial unit bound taking over where the power blows up."""
    x = math.sqrt((2.0 * k + n) * s)
    return min(1.0, c_n * x ** (0.5 - n)) if x > 0 else 1.0


def factor_bound_check(n, c_n):
    """Validate |coeff(k, s)| <= min(1, c_n ((2k+n) s)^{-(2n-1)/4}) over
    every REPLAY_THIN-th s column of the calibration grid, with c_n."""
    s = calibration_s_nodes(FACTOR_S_NODES)[::REPLAY_THIN]
    violations, max_ratio = 0, 0.0
    for si, column in zip(s, ball_columns(s, FACTOR_K_MAX, n)):
        for k, value in enumerate(column):
            env = factor_coeff_envelope(k, si, n, c_n)
            violations += abs(value) > env
            max_ratio = max(max_ratio, abs(value) / env)
    return {
        "n": n,
        "c_n": c_n,
        "k_max": FACTOR_K_MAX,
        "s_columns": len(s),
        "points": (FACTOR_K_MAX + 1) * len(s),
        "violations": violations,
        "max_ratio": max_ratio,
    }
