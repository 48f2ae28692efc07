"""Quadrature grids: radial Gauss-Legendre panels and log-spaced lambda nodes.

The radial rules adapt to the integrand's oscillation: the scaled Laguerre
function of the largest degree in play oscillates with local frequency at
most sqrt(nu |lam|), and the panel edges include its envelope breakpoints,
so panels are subdivided until each one holds comfortably fewer phase
radians than it has nodes.

The lambda axis carries a trapezoidal rule in log lambda for integrals
against |lam|^n d lam on (0, inf); node placement is symmetric in the sense
that only positive nodes are stored and even integrands are doubled by the
norm routines when appropriate.
"""

from functools import lru_cache

import numpy as np

from ._record import Record
from .errors import DomainError
from .laguerre import breakpoints, nu

__all__ = ["QuadratureGrid", "gauss_legendre_panels", "radial_rule"]

DEFAULT_LAMBDA_MIN = 1e-3
DEFAULT_LAMBDA_MAX = 1e3
DEFAULT_LAMBDA_NODES = 256
DEFAULT_K_MAX = 256
DEFAULT_NODES_PER_PANEL = 64


@lru_cache(maxsize=32)
def _unit_rule(p):
    # imported here so that only the runs that build a rule load
    # numpy.polynomial; read-only: every caller shares the cached arrays
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(p)
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


def radial_rule(lam, k_max, n, support_radius, nodes_per_panel=DEFAULT_NODES_PER_PANEL):
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
    """Discretization shared by all spectral objects.

    Attributes
    ----------
    k_max : truncation degree of the Laguerre expansion.
    lam : positive lambda nodes, ascending, log-spaced.
    lam_log_w : trapezoidal weights in log lambda (measure factor |lam|^n
        applied later, since n belongs to the coefficient set).
    nodes_per_panel : Gauss-Legendre order used by radial rules.

    Grids compare by identity; same_as compares values.
    """

    __slots__ = ("k_max", "lam", "lam_log_w", "nodes_per_panel")

    def __init__(self, k_max, lam, lam_log_w,
                 nodes_per_panel=DEFAULT_NODES_PER_PANEL):
        # copies: the record freezes its arrays, never the caller's
        lam = np.array(lam, dtype=float)
        w = np.array(lam_log_w, dtype=float)
        if k_max < 1:
            raise DomainError("k_max must be >= 1")
        if lam.ndim != 1 or np.any(lam <= 0) or np.any(np.diff(lam) <= 0):
            raise DomainError("lambda nodes must be positive, ascending, nonzero")
        if w.shape != lam.shape or np.any(w <= 0):
            raise DomainError("lambda weights must be positive and match the nodes")
        lam.setflags(write=False)
        w.setflags(write=False)
        self._assign(k_max=k_max, lam=lam, lam_log_w=w,
                     nodes_per_panel=nodes_per_panel)

    @classmethod
    def make(
        cls,
        k_max=DEFAULT_K_MAX,
        lambda_min=DEFAULT_LAMBDA_MIN,
        lambda_max=DEFAULT_LAMBDA_MAX,
        lambda_nodes=DEFAULT_LAMBDA_NODES,
        nodes_per_panel=DEFAULT_NODES_PER_PANEL,
    ):
        if not (0 < lambda_min < lambda_max):
            raise DomainError("need 0 < lambda_min < lambda_max")
        if lambda_nodes < 2:
            raise DomainError("need at least two lambda nodes")
        lam = np.geomspace(lambda_min, lambda_max, int(lambda_nodes))
        logl = np.log(lam)
        w = np.empty_like(logl)
        w[1:-1] = 0.5 * (logl[2:] - logl[:-2])
        w[0] = 0.5 * (logl[1] - logl[0])
        w[-1] = 0.5 * (logl[-1] - logl[-2])
        return cls(k_max=int(k_max), lam=lam, lam_log_w=w, nodes_per_panel=int(nodes_per_panel))

    def lambda_measure_weights(self, n):
        """Weights for integrating against |lam|^n d lam over the positive nodes."""
        return self.lam_log_w * self.lam ** (n + 1)

    def same_as(self, other):
        return (
            self.k_max == other.k_max
            and self.nodes_per_panel == other.nodes_per_panel
            and np.array_equal(self.lam, other.lam)
            and np.array_equal(self.lam_log_w, other.lam_log_w)
        )
