"""Group convolution: spatial oracle, box pair sampling, spectral product."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from heisharm.errors import DimensionMismatchError, DomainError
from heisharm.grids import QuadratureGrid, _unit_rule
from heisharm._ball import ball_normalizer, coefficient_weights, log_c
from heisharm.laguerre import normalized_laguerre_table
from heisharm.transform import (CONV_U_NODES, _box_u_rule,
                                _ramp_arc_integral, _ramp_arc_sums,
                                box_convolution_coefficients,
                                box_convolution_grids, box_pair_convolution,
                                multiply_coeffs, transform_at_lambda)

from oracles import box_factor, direct_convolution_oracle, forward_radial

CONV_TOL = 1e-3


def gl_box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes=256, psi_nodes=256):
    """Oracle of box_pair_convolution: the same u rule (_box_u_rule), with
    the angular integral done by a psi_nodes-point Gauss-Legendre rule.

    Group convolution of two box factors on the n=1 group, evaluated
    directly in space at the points (|z|, t) = (r, t).

    The t-part convolution of the two normalized interval indicators is the
    closed-form trapezoid G; what remains is a planar integral over the
    second ball, reduced to polar coordinates:

        h(r, t) = rho1^{-2} rho2^{-2} int_0^{u*} u
                  int_{-psi*(u)}^{psi*(u)} G(t + r u sin(psi)/2) dpsi du,

    with psi*(u) the half-angle where |z - w| leaves the first ball.  The
    u-integral is split where psi* loses smoothness.
    """
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = tau1 ** 2 / 2.0, tau2 ** 2 / 2.0
    hgt = 1.0 / (tau1 ** 2 * tau2 ** 2)

    def G(T):
        lo = np.maximum(T - half1, -half2)
        hi = np.minimum(T + half1, half2)
        return hgt * np.maximum(0.0, hi - lo)

    xg, wg = _unit_rule(psi_nodes)

    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast(r, t).shape)
    rb, tb = np.broadcast_arrays(r, t)
    for idx in np.ndindex(out.shape):
        ri, ti = float(rb[idx]), float(tb[idx])
        umax = min(A2, ri + A1)
        if umax <= 0:
            continue
        singular = [c for c in (abs(A1 - ri), ri + A1) if 0.0 < c <= umax]
        cuts = sorted({0.0, umax} | {c for c in singular if c < umax})
        ux, uw = _box_u_rule(cuts, singular, u_nodes)
        gamma = (ri ** 2 + ux ** 2 - A1 ** 2) / np.maximum(2.0 * ri * ux, 1e-300)
        if ri == 0.0:
            psis = np.where(ux <= A1, np.pi, 0.0)
        else:
            psis = np.arccos(np.clip(gamma, -1.0, 1.0))
        # inner integral over psi in [-psi*, psi*], G even combined with
        # sin(psi) odd symmetry would not cancel; integrate the full range
        # map [-1,1] GL nodes onto [-psi*, psi*]; G(t + ...) has no parity
        # in psi for t != 0, so the full range is integrated
        psi = psis[:, None] * xg[None, :]
        inner = np.sum(G(ti + 0.5 * ri * ux[:, None] * np.sin(psi)) * wg[None, :],
                       axis=1) * psis
        out[idx] = np.sum(ux * uw * inner)
    return out / (rho1 ** 2 * rho2 ** 2)


def box_callable(rho, tau):
    # spatial form: rho^-2 tau^-2 on the Koranyi-ball cross interval product
    a = ball_normalizer(1)
    radius, half = a * rho, 0.5 * tau ** 2
    amp = rho ** -2.0 * tau ** -2.0
    return lambda z, t: amp * ((np.abs(z) <= radius) & (np.abs(t) <= half))


def test_oracle_mass_and_support():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    f = box_callable(rho1, tau1)
    g = box_callable(rho2, tau2)
    a = ball_normalizer(1)
    z_r, t_r = a * rho2, 0.5 * tau2 ** 2
    # the second support is nested inside the first, so at the origin the
    # convolution equals sup(f) exactly; the tensor rule resolves the disc
    # edge only at O(1/nodes)
    origin = direct_convolution_oracle(f, g, [0.0], 0.0, z_r, t_r, nodes=48)
    assert origin == pytest.approx(rho1 ** -2 * tau1 ** -2, rel=2e-2)
    # beyond the summed z-supports the convolution vanishes identically
    far = [a * (rho1 + rho2) + 0.1]
    assert direct_convolution_oracle(f, g, far, 0.0, z_r, t_r, nodes=12) == 0.0


def test_oracle_rejects_higher_dimension():
    f = box_callable(0.9, 0.8)
    with pytest.raises(DimensionMismatchError):
        direct_convolution_oracle(f, f, [0.1, 0.2], 0.0, 0.5, 0.3)


def test_box_pair_matches_oracle():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    f = box_callable(rho1, tau1)
    g = box_callable(rho2, tau2)
    a = ball_normalizer(1)
    z_r, t_r = a * rho2, 0.5 * tau2 ** 2
    rng = np.random.default_rng(11)
    pts = rng.uniform([0.0, -0.6], [a * (rho1 + rho2), 0.6], size=(8, 2))
    sup = rho1 ** -2 * tau1 ** -2

    def worst(nodes):
        errs = []
        for r, t in pts:
            direct = direct_convolution_oracle(
                f, g, [complex(r)], t, z_r, t_r, nodes=nodes)
            fast = box_pair_convolution(rho1, tau1, rho2, tau2, r, t)
            errs.append(abs(direct - fast))
        return max(errs)

    coarse, fine = worst(28), worst(96)
    # agreement is limited by the oracle's O(1/nodes) edge resolution, and
    # refining the oracle moves it toward the panel evaluator, not away
    assert fine < 2e-2 * sup
    assert fine < 0.65 * coarse


def test_grids_cover_twisted_support():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    x, wx, tx, wt = box_convolution_grids(rho1, tau1, rho2, tau2)
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    assert x.max() < A1 + A2 <= x.max() + 0.2
    # group twist stretches the t-support past the interval sum
    t_interval = 0.5 * tau1 ** 2 + 0.5 * tau2 ** 2
    t_top = t_interval + 0.5 * A1 * A2
    assert tx.max() > t_interval
    assert tx.max() < t_top <= tx.max() + 0.2
    # total mass of the convolution is one; weights integrate it on r >= 0
    h = box_pair_convolution(rho1, tau1, rho2, tau2, x[:, None], tx[None, :])
    mass = 2.0 * np.pi * np.sum((x * wx)[:, None] * h * (2.0 * wt)[None, :])
    assert mass == pytest.approx(1.0, abs=2e-6)


def _half_widths(tau1, tau2):
    half1, half2 = 0.5 * tau1 ** 2, 0.5 * tau2 ** 2
    return half1 + half2, abs(half1 - half2)


@st.composite
def _box_widths(draw):
    # the second factor repeats a width of the first now and then, so
    # rho1 = rho2 and tau1 = tau2 (m = 0) are drawn, not only hoped for
    width = st.floats(min_value=0.4, max_value=1.2)
    rho1, tau1 = draw(width), draw(width)
    rho2 = draw(st.one_of(st.just(rho1), width))
    tau2 = draw(st.one_of(st.just(tau1), width))
    return rho1, tau1, rho2, tau2


@seed(7)
@settings(max_examples=30, deadline=None)
@given(_box_widths(),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=3, max_size=3))
@example((0.8, 0.7, 0.8, 0.7), [(0.3, 0.2), (0.7, 0.5), (0.9, 0.1)])
@example((0.9, 0.6, 0.9, 0.8), [(0.3, 0.2), (0.7, 0.5), (0.9, 0.1)])
@example((1.2, 0.4, 0.4, 0.4), [(0.3, 0.2), (0.7, 0.5), (0.9, 0.1)])
def test_closed_form_matches_psi_rule_oracle(widths, fractions):
    rho1, tau1, rho2, tau2 = widths
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    big, small = _half_widths(tau1, tau2)
    t_top = big + 0.5 * A1 * A2
    # fixed points: r = 0 (psi* = pi for every u), r = A1 / 2 at the ramp
    # kink t = m (psi* = pi on u < A1 / 2) and r = A1 + A2 / 2 (psi* = 0 on
    # u < A2 / 2); then points drawn on the sampling grid's support
    r = [0.0, 0.5 * A1, A1 + 0.5 * A2] + [fr * (A1 + A2) for fr, _ in fractions]
    t = [0.5 * small, small, 0.5 * big] + [ft * t_top for _, ft in fractions]
    r, t = np.array(r), np.array(t)
    u_nodes = 96
    closed = box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes)
    ref = gl_box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes, 2048)
    coarse = gl_box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes, 192)
    sup = np.max(np.abs(ref))
    closed_err = np.max(np.abs(closed - ref))
    assert closed_err <= 1e-7 * sup
    assert closed_err < np.max(np.abs(coarse - ref))


def test_closed_form_exact_at_origin_axis():
    # at r = 0 the angular integral is 2 pi G(t) for every u <= min(A1, A2),
    # and the u rule integrates u exactly
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    a = ball_normalizer(1)
    big, small = _half_widths(tau1, tau2)
    hgt = 1.0 / (tau1 ** 2 * tau2 ** 2)
    for t in (0.0, 0.1, 0.3):
        G = hgt * min(big - small, max(0.0, big - abs(t)))
        exact = np.pi * (a * min(rho1, rho2)) ** 2 * G / (rho1 ** 2 * rho2 ** 2)
        got = box_pair_convolution(rho1, tau1, rho2, tau2, 0.0, t)
        assert got == pytest.approx(exact, rel=1e-14)


def all_cells_box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes=256):
    """Oracle of box_pair_convolution's cell split: the same u rule and
    u-sum, with _ramp_arc_integral evaluated on every (t, ramp, u) cell."""
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = tau1 ** 2 / 2.0, tau2 ** 2 / 2.0
    hgt = 1.0 / (tau1 ** 2 * tau2 ** 2)
    big, small = half1 + half2, abs(half1 - half2)
    offsets = np.array([big, small, -small, -big])
    rb, tb = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(t, dtype=float))
    out = np.zeros(rb.shape)
    flat_t, flat_out = tb.ravel(), out.reshape(-1)
    radii, which = np.unique(rb.ravel(), return_inverse=True)
    for j, ri in enumerate(radii.tolist()):
        umax = min(A2, ri + A1)
        if umax <= 0:
            continue
        singular = [c for c in (abs(A1 - ri), ri + A1) if 0.0 < c <= umax]
        cuts = sorted({0.0, umax} | {c for c in singular if c < umax})
        ux, uw = _box_u_rule(cuts, singular, u_nodes)
        gamma = (ri ** 2 + ux ** 2 - A1 ** 2) / np.maximum(2.0 * ri * ux, 1e-300)
        if ri == 0.0:
            psis = np.where(ux <= A1, np.pi, 0.0)
        else:
            psis = np.arccos(np.clip(gamma, -1.0, 1.0))
        sel = np.flatnonzero(which == j)
        d = flat_t[sel, None, None] + offsets[None, :, None]
        ramps = _ramp_arc_integral(d, 0.5 * ri * ux, psis)
        inner = ramps[:, 0] - ramps[:, 1] - ramps[:, 2] + ramps[:, 3]
        flat_out[sel] = np.sum(inner * (ux * uw), axis=-1)
    return out * (hgt / (rho1 ** 2 * rho2 ** 2))


# the convolve-check width sets of the benchmark, then tau1 = tau2 (m = 0)
_WIDTH_SETS = [
    (0.9, 0.8, 0.7, 0.6), (0.9, 0.6, 0.6, 0.8), (0.7, 0.9, 0.8, 0.5),
    (0.8, 0.7, 0.9, 0.6), (0.6, 0.6, 0.9, 0.9), (0.8, 0.7, 0.9, 0.7),
]

# the prefix sum in u and the per-row bincount add the u terms in another
# order than one contiguous sum does; the largest gap seen on the width
# sets, at u nodes 64, 192 and 256, is 1.8e-15 of max |H|
_SUM_ORDER_TOL = 4e-15


@pytest.mark.parametrize("widths", _WIDTH_SETS)
def test_cell_split_matches_all_cells(widths):
    # the default sampling grid of box_convolution_coefficients, with an
    # r = 0 row and a t = 0 column added
    x, _, tx, _ = box_convolution_grids(*widths)
    r = np.concatenate([[0.0], x])[:, None]
    t = np.concatenate([[0.0], tx])[None, :]
    split = box_pair_convolution(*widths, r, t)
    ref = all_cells_box_pair_convolution(*widths, r, t, CONV_U_NODES)
    assert np.max(np.abs(split - ref)) <= _SUM_ORDER_TOL * np.max(np.abs(ref))


def dense_ramp_arc_integrals(d, s, psis):
    """Oracle of _ramp_arc_sums: _ramp_arc_integral on the table of every
    offset d (1-d, rows) against every (s, psi*) pair (1-d, columns), with
    the arcsin and the sines evaluated only on the cells where the ramp
    changes sign on the arc.

    Where s <= |d| the integrand (d + s sin(psi))_+ keeps one sign on the
    whole arc: for d <= 0 it is 0 there, which _ramp_arc_integral also
    returns, and for d > 0 its clipped -d/s is -1, so a = -pi/2 and the arc
    ends, with them the sine terms, depend on the column alone.  The other
    cells go through _ramp_arc_integral itself; every value is the float it
    gives, with the same operands in the same order.
    """
    # arc(lo1, hi1) + arc(-psis, hi2) of _ramp_arc_integral at a = arcsin(-1),
    # written for every row, then zeroed on the rows with d <= 0; the
    # sign-changing cells are overwritten below
    a = np.arcsin(-1.0)
    neg = -psis
    lo1 = np.maximum(a, neg)
    hi1 = np.maximum(lo1, np.minimum(np.pi - a, psis))
    hi2 = np.maximum(neg, -np.pi - a)
    sin1 = 2.0 * s * np.sin(0.5 * (hi1 + lo1)) * np.sin(0.5 * (hi1 - lo1))
    sin2 = 2.0 * s * np.sin(0.5 * (hi2 + neg)) * np.sin(0.5 * (hi2 - neg))
    out = np.multiply(d[:, None], hi1 - lo1)
    out += sin1
    second = np.multiply(d[:, None], hi2 - neg)
    second += sin2
    out += second
    # a NaN offset fails both comparisons: its row is not zeroed, and every
    # cell of it takes _ramp_arc_integral's NaN
    out[d <= 0] = 0.0
    cells = np.flatnonzero(~(np.abs(d)[:, None] >= s))
    row, col = np.divmod(cells, s.size)
    out.flat[cells] = _ramp_arc_integral(d[row], s[col], psis[col])
    return out


def dense_box_pair_convolution(rho1, tau1, rho2, tau2, r, t, u_nodes=256):
    """Oracle of box_pair_convolution's prefix-sum kernel: the same u rule,
    with every (ramp, t, u) cell of a radius held in one ramp-major table
    filled by dense_ramp_arc_integrals, combined in place and summed over
    the contiguous u axis."""
    a = ball_normalizer(1)
    A1, A2 = a * rho1, a * rho2
    half1, half2 = tau1 ** 2 / 2.0, tau2 ** 2 / 2.0
    hgt = 1.0 / (tau1 ** 2 * tau2 ** 2)
    big, small = half1 + half2, abs(half1 - half2)
    offsets = np.array([big, small, -small, -big])
    rb, tb = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(t, dtype=float))
    out = np.zeros(rb.shape)
    flat_t, flat_out = tb.ravel(), out.reshape(-1)
    radii, which = np.unique(rb.ravel(), return_inverse=True)
    for j, ri in enumerate(radii.tolist()):
        umax = min(A2, ri + A1)
        if umax <= 0:
            continue
        singular = [c for c in (abs(A1 - ri), ri + A1) if 0.0 < c <= umax]
        cuts = sorted({0.0, umax} | {c for c in singular if c < umax})
        ux, uw = _box_u_rule(cuts, singular, u_nodes)
        gamma = (ri ** 2 + ux ** 2 - A1 ** 2) / np.maximum(2.0 * ri * ux, 1e-300)
        if ri == 0.0:
            psis = np.where(ux <= A1, np.pi, 0.0)
        else:
            psis = np.arccos(np.clip(gamma, -1.0, 1.0))
        sel = np.flatnonzero(which == j)
        d = (offsets[:, None] + flat_t[sel]).ravel()
        ramps = dense_ramp_arc_integrals(d, 0.5 * ri * ux, psis).reshape(4, sel.size, -1)
        inner = ramps[0] - ramps[1]
        inner -= ramps[2]
        inner += ramps[3]
        inner *= ux * uw
        flat_out[sel] = np.sum(inner, axis=-1)
    return out * (hgt / (rho1 ** 2 * rho2 ** 2))


@pytest.mark.parametrize("widths", _WIDTH_SETS)
def test_prefix_sum_kernel_matches_dense_kernel(widths):
    # the grid of box_convolution_coefficients with an r = 0 row and a
    # t = 0 column added, at the check's two u rule sizes and a coarse one
    x, _, tx, _ = box_convolution_grids(*widths)
    r = np.concatenate([[0.0], x])[:, None]
    t = np.concatenate([[0.0], tx])[None, :]
    for u_nodes in (64, 192, 256):
        got = box_pair_convolution(*widths, r, t, u_nodes)
        ref = dense_box_pair_convolution(*widths, r, t, u_nodes)
        assert np.max(np.abs(got - ref)) <= _SUM_ORDER_TOL * np.max(np.abs(ref))


@seed(9)
@settings(max_examples=40, deadline=None)
@given(_box_widths(),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.2),
                          st.floats(min_value=-1.2, max_value=1.2)),
                min_size=1, max_size=8),
       st.sampled_from([40, 96, 192]))
def test_prefix_sum_kernel_matches_dense_kernel_sweep(widths, points, u_nodes):
    # r up to beyond A1 + A2 and t of either sign, past the support; the
    # origin is added so that max |H| is the scale of the function even
    # when every drawn point lies outside the support
    a = ball_normalizer(1)
    span = a * (widths[0] + widths[2])
    r = np.array([0.0] + [fr * span for fr, _ in points])
    t = np.array([0.0] + [ft for _, ft in points])
    got = box_pair_convolution(*widths, r, t, u_nodes)
    ref = dense_box_pair_convolution(*widths, r, t, u_nodes)
    assert np.max(np.abs(got - ref)) <= _SUM_ORDER_TOL * np.max(np.abs(ref))


def _ramp_columns(offsets, columns):
    # an s = 0 column with psi* = pi, then the drawn (s, psi*) pairs; the
    # offsets hit the class boundaries d = +-s and d = 0 exactly
    s = np.array([0.0] + [c[0] for c in columns])
    psis = np.array([np.pi] + [c[1] for c in columns])
    d = np.concatenate([offsets, s, -s, [0.0, 1.0, -1.0]])
    return d, s, psis


@seed(8)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                          st.floats(min_value=0.0, max_value=np.pi)),
                min_size=1, max_size=6))
@example([0.5, -0.5, float("nan")], [(0.5, 1.0), (0.0, np.pi), (1.0, 0.0)])
def test_classified_ramps_match_ramp_arc_integral(offsets, columns):
    d, s, psis = _ramp_columns(offsets, columns)
    # a unit weight on one column isolates that column's cell of every row
    got = np.stack([_ramp_arc_sums(d, s, psis, w) for w in np.eye(s.size)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        # -d/s of a subnormal s overflows to -inf, which the clip handles
        ref = _ramp_arc_integral(d[:, None], s, psis)
    assert got.shape == ref.shape == (d.size, s.size)
    nan = np.isnan(d)
    assert np.all(np.isnan(got[nan])) and np.all(np.isnan(ref[nan]))
    got, ref, d = got[~nan], ref[~nan], d[~nan]
    # |value| <= 2 pi (|d| + s) bounds every term of the arc formula; below
    # the normal range both sides round to multiples of the least subnormal
    scale = 2.0 * np.pi * (np.abs(d)[:, None] + s)
    tiny = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref) <= 4e-16 * scale + 8.0 * tiny)
    # no cell with d <= -s carries mass
    assert np.all(got[d[:, None] <= -s] == 0.0)


@seed(10)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                          st.floats(min_value=0.0, max_value=np.pi),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=1, max_size=6))
@example([0.5, -0.5, float("nan")], [(0.5, 1.0, 0.3), (0.0, np.pi, 1.0), (1.0, 0.0, 0.5)])
def test_ramp_arc_sums_match_dense_table(offsets, columns):
    # columns in drawn order, not sorted by s, with drawn weights
    d, s, psis = _ramp_columns(offsets, [c[:2] for c in columns])
    w = np.array([0.25] + [c[2] for c in columns])
    got = _ramp_arc_sums(d, s, psis, w)
    with np.errstate(over="ignore", invalid="ignore"):
        table = dense_ramp_arc_integrals(d, s, psis)
    ref = table @ w
    np.testing.assert_array_equal(np.isnan(got), np.isnan(d))
    ok = ~np.isnan(d)
    scale = 2.0 * np.pi * np.sum((np.abs(d)[ok, None] + s) * w, axis=1)
    assert np.all(np.abs(got[ok] - ref[ok]) <= 4e-15 * scale)


def test_box_pair_shapes_agree():
    rho1, tau1, rho2, tau2 = 0.9, 0.6, 0.6, 0.8
    x, _, tx, _ = box_convolution_grids(rho1, tau1, rho2, tau2)
    x, tx = x[::5], tx[::7]
    outer = box_pair_convolution(rho1, tau1, rho2, tau2, x[:, None], tx[None, :])
    rr, tt = np.meshgrid(x, tx, indexing="ij")
    full = box_pair_convolution(rho1, tau1, rho2, tau2, rr, tt)
    scalar = np.array([[box_pair_convolution(rho1, tau1, rho2, tau2, r, t)
                        for t in tx] for r in x])
    assert outer.shape == full.shape == scalar.shape == (x.size, tx.size)
    np.testing.assert_array_equal(outer, full)
    np.testing.assert_array_equal(outer, scalar)
    assert np.ndim(box_pair_convolution(rho1, tau1, rho2, tau2, x[0], tx[0])) == 0


def test_convolution_theorem_small_grid():
    rho1, tau1, rho2, tau2 = 0.9, 0.8, 0.7, 0.6
    grid = QuadratureGrid.make(k_max=16, lambda_min=0.2, lambda_max=1.5,
                               lambda_nodes=8)
    c1 = forward_radial(box_factor(1, rho1, tau1), grid)
    c2 = forward_radial(box_factor(1, rho2, tau2), grid)
    product = multiply_coeffs(c1, c2)
    spatial = box_convolution_coefficients(rho1, tau1, rho2, tau2,
                                           grid.lam, grid.k_max)
    err = np.max(np.abs(spatial - product.values) /
                 (1.0 + np.abs(product.values)))
    assert err < CONV_TOL


def per_lambda_transform(fvals, x, w, lam, k_max, n):
    """Oracle of transform_at_lambda: the coefficient vector R_.(lam) at one
    scalar lam, from one Laguerre table over the radii alone."""
    fvals = np.asarray(fvals, dtype=float)
    x = np.asarray(x, dtype=float)
    table = normalized_laguerre_table(k_max, lam, n, x)
    integrand = fvals * w * x ** (2 * n - 1)
    weights = coefficient_weights(np, log_c(k_max, n), n)
    return weights * np.sum(table * integrand[None, :], axis=1)


def per_lambda_box_convolution_coefficients(rho1, tau1, rho2, tau2, lams, k_max):
    """Oracle of box_convolution_coefficients: one cosine sum and one
    per-lam transform per lam."""
    x, wx, tx, wt = box_convolution_grids(rho1, tau1, rho2, tau2)
    H = box_pair_convolution(rho1, tau1, rho2, tau2, x[:, None], tx[None, :])
    out = np.empty((k_max + 1, len(lams)))
    for i, lam in enumerate(np.asarray(lams, dtype=float)):
        flam = 2.0 * np.sum(H * (wt * np.cos(lam * tx))[None, :], axis=1)
        out[:, i] = per_lambda_transform(flam, x, wx, lam, k_max, 1)
    return out


# the convolve-check width sets of the benchmark at its two lambda counts
@pytest.mark.parametrize("lambda_nodes", [16, 24])
@pytest.mark.parametrize("widths", [
    (0.9, 0.8, 0.7, 0.6), (0.9, 0.6, 0.6, 0.8), (0.7, 0.9, 0.8, 0.5),
    (0.8, 0.7, 0.9, 0.6), (0.6, 0.6, 0.9, 0.9),
])
def test_batched_lambdas_match_per_lambda_loop(widths, lambda_nodes):
    grid = QuadratureGrid.make(k_max=32, lambda_min=0.15, lambda_max=1.8,
                               lambda_nodes=lambda_nodes)
    got = box_convolution_coefficients(*widths, grid.lam, grid.k_max)
    ref = per_lambda_box_convolution_coefficients(*widths, grid.lam, grid.k_max)
    np.testing.assert_array_equal(got, ref)


def test_batched_transform_refusals():
    x, w = np.linspace(0.1, 2.0, 8), np.full(8, 0.25)
    fvals = np.ones((3, 8))
    with pytest.raises(DomainError):
        transform_at_lambda(fvals, x, w, np.array([0.5, 0.0, 1.0]), 4, 1)
    with pytest.raises(DomainError):
        transform_at_lambda(fvals, -x, w, np.array([0.5, 0.7, 1.0]), 4, 1)
    with pytest.raises(DomainError):
        transform_at_lambda(fvals[0], x, w, 0.0, 4, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k_max", [1, 32, 200])
def test_transform_at_lambda_matches_per_lambda_oracle(n, k_max):
    # a scalar lam gives shape (k_max+1,) and a 1-d array one column per
    # lam, each the oracle's float, for lam of both signs
    rng = np.random.default_rng(100 * n + k_max)
    x, w = np.sort(rng.uniform(0.0, 6.0, 97)), rng.uniform(0.0, 0.1, 97)
    lams = rng.uniform(0.05, 30.0, 7) * rng.choice([-1.0, 1.0], 7)
    fvals = rng.normal(size=(lams.size, x.size))
    got = transform_at_lambda(fvals, x, w, lams, k_max, n)
    assert got.shape == (k_max + 1, lams.size)
    for i, lam in enumerate(lams):
        want = per_lambda_transform(fvals[i], x, w, lam, k_max, n)
        np.testing.assert_array_equal(got[:, i], want)
        one = transform_at_lambda(fvals[i], x, w, lam, k_max, n)
        assert one.shape == (k_max + 1,)
        np.testing.assert_array_equal(one, want)
    np.testing.assert_array_equal(
        transform_at_lambda(fvals[:1], x, w, lams[:1], k_max, n), got[:, :1])


def test_unit_rule_arrays_read_only():
    # box_pair_convolution and the radial panels share the cached rule, so
    # an in-place edit by one caller would corrupt every later rule
    x, w = _unit_rule(16)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert _unit_rule(16)[0] is x
