"""Quadrature grids: radial Gauss-Legendre panels and log-spaced lambda nodes.

The radial rules adapt to the integrand's oscillation: the scaled Laguerre
function of the largest degree in play oscillates with local frequency at
most sqrt(nu |lam|), and the panel edges include its envelope breakpoints,
so panels are subdivided until each one holds comfortably fewer phase
radians than it has nodes.

The lambda axis carries a trapezoidal rule in log lambda for integrals
against |lam|^n d lam on (0, inf); only positive nodes are stored, and the
norm routines double the integrals, since every integrand is even in lam.
"""

from functools import lru_cache

import numpy as np

from ._ball import lambda_window
from ._record import Record
from .errors import DomainError
from .laguerre import breakpoints, nu

__all__ = ["QuadratureGrid", "gauss_legendre_panels", "radial_rule",
           "roots_legendre"]


def roots_legendre(p):
    """p-point Gauss-Legendre rule (x, w) on [-1, 1], nodes ascending.

    Nodes are the eigenvalues of the Jacobi matrix (zero diagonal,
    off-diagonal b_k = k / sqrt(4k^2 - 1)), Golub-Welsch (1969).  The
    matrix is bipartite between its even and odd rows, so its eigenvalues
    are +-sigma, and 0 for odd p, where sigma^2 are the eigenvalues of the
    floor(p/2)-square tridiagonal B^T B, B the even-to-odd bidiagonal block:
    diagonal b_{2j+1}^2 + b_{2j+2}^2 and off-diagonal b_{2j+2} b_{2j+3}, with
    b_p = 0.  The nodes are polished by one Newton step h = -P_p / P_p' on
    the three-term recurrence.  Weights are
    2 / ((1 - x)(1 + x) P_p'(x)^2) at the polished node x0 + h before it is
    rounded: 1 -+ x0 is exact where it is small, so (1 -+ x0) -+ h keeps
    full relative accuracy, and P_p' moves by h P_p'', from the Legendre
    equation P_p'' = (2x P_p' - p(p+1) P_p) / (1 - x^2); at the rounded
    node the weights next to +-1 would be about 5e-13 off at p = 200.
    Both halves are symmetrized.
    """
    if p < 1 or p != int(p):
        raise DomainError(f"need a positive integer number of nodes, got {p}")
    p = int(p)
    k = np.arange(1.0, p)
    b = np.zeros(p + 1)
    b[1:p] = k / np.sqrt(4.0 * k * k - 1.0)
    half = p // 2
    diag = b[1:2 * half:2] ** 2 + b[2:2 * half + 1:2] ** 2
    off = b[2:2 * half - 1:2] * b[3:2 * half:2]
    sigma = np.sqrt(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                       + np.diag(off, -1)))
    x = np.concatenate((-sigma[::-1], np.zeros(p % 2), sigma))
    prev, cur = np.ones_like(x), x
    for j in range(1, p):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    up, down = 1.0 + x, 1.0 - x
    dp = p * (prev - x * cur) / (up * down)
    d2p = (2.0 * x * dp - p * (p + 1.0) * cur) / (up * down)
    h = -cur / dp
    dp += h * d2p
    w = 2.0 / ((up + h) * (down - h) * dp * dp)
    x = x + h
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@lru_cache(maxsize=32)
def _unit_rule(p):
    # roots_legendre is looked up at call time, so a wrapper bound in its
    # place sees every build; read-only: every caller shares the cached
    # arrays
    x, w = roots_legendre(p)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(edges, nodes_per_panel):
    """Composite Gauss-Legendre rule over consecutive [edges[i], edges[i+1]]."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("panel edges must be strictly increasing with >= 2 entries")
    x0, w0 = _unit_rule(int(nodes_per_panel))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def radial_rule(lam, k_max, n, support_radius, nodes_per_panel):
    """Panelized radial rule on [0, support_radius] resolving degree k_max.

    Edges start from the envelope breakpoints of the largest degree, then
    each panel is split until its phase content sqrt(nu(k_max)|lam|) * length
    stays below 1.2 nodes per radian.
    """
    R = float(support_radius)
    if R <= 0:
        raise DomainError("support radius must be positive")
    b = breakpoints(k_max, lam, n)
    edges = [0.0] + [bp for bp in b if 0.0 < bp < R] + [R]
    freq = np.sqrt(nu(k_max, n) * abs(lam))
    refined = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = 1 + int(freq * (hi - lo) / (1.2 * nodes_per_panel))
        refined.extend(np.linspace(lo, hi, pieces + 1)[1:])
    return gauss_legendre_panels(refined, nodes_per_panel)


class QuadratureGrid(Record):
    """Discretization shared by all spectral objects: degrees up to k_max
    and the lambda axis of _ball.lambda_window(lambda_min, lambda_max,
    lambda_nodes), which refuses a window it cannot lay its rule on.

    Attributes
    ----------
    k_max : truncation degree of the Laguerre expansion.
    lam : positive lambda nodes, ascending, log-spaced.
    lam_log_w : trapezoidal weights in log lambda (measure factor |lam|^n
        applied later, since n belongs to the coefficient set).

    Grids compare by identity; same_as compares values.
    """

    __slots__ = ("k_max", "lam", "lam_log_w")

    def __init__(self, k_max, lambda_min, lambda_max, lambda_nodes):
        lam, _, w = lambda_window(lambda_min, lambda_max, int(lambda_nodes))
        if k_max < 1:
            raise DomainError("k_max must be >= 1")
        lam, w = np.array(lam), np.array(w)
        lam.setflags(write=False)
        w.setflags(write=False)
        self._assign(k_max=int(k_max), lam=lam, lam_log_w=w)

    def lambda_measure_weights(self, n):
        """Weights for integrating against |lam|^n d lam over the positive nodes."""
        return self.lam_log_w * self.lam ** (n + 1)

    def same_as(self, other):
        return (
            self.k_max == other.k_max
            and np.array_equal(self.lam, other.lam)
            and np.array_equal(self.lam_log_w, other.lam_log_w)
        )
