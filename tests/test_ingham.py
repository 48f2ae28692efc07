"""Factor plans, the factor-bound calibration, chain products and decay
certification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from heisharm import ingham
from heisharm.calibrate import calibrate_cn
from heisharm.errors import DomainError, ProfileClassError, QuadratureError
from heisharm.fixtures import (FACTOR_K_MAX, FACTOR_S_NODES, FACTOR_S_RANGE,
                               calibration_grid, load_fixture)
from heisharm.grids import QuadratureGrid
from heisharm.ingham import (_chain_prefixes, _log_q_table, adaptive_N,
                             cauchy_gap, verify_decay)
from heisharm.plan import (SequencePlan, factor_bound_check,
                           factor_coeff_envelope, plan_sequences,
                           support_radius)
from heisharm.theta import ThetaProfile, builtin_theta
from heisharm.transform import (SpectralCoefficients, _box_t_hat,
                                ball_coefficients, box_coefficients,
                                plancherel_norm)

from oracles import (box_factor, chain_coeff, chain_coefficients, factor_coeff,
                     factor_t_hat, forward_radial)


def test_plan_width_formulas():
    theta = builtin_theta("inv-sqrt")
    plan = plan_sequences(theta, 1, J=8, c_n=1.25)
    j = np.arange(1, 9, dtype=float)
    assert np.allclose(plan.rho,
                       1.25 ** 2 * np.e ** 2 * (1.0 + j) ** -0.5 / j + 2.0 ** -j)
    assert np.allclose(plan.tau, 2.0 ** -j)
    assert plan.a == pytest.approx(np.pi ** -0.5)
    assert plan.c == pytest.approx(4.0 ** -0.25)
    assert plan.theta_name == "inv-sqrt"


def test_plan_refuses_divergent_profile():
    with pytest.raises(ProfileClassError):
        plan_sequences(builtin_theta("inv-log"), 1, J=4, c_n=1.0)
    with pytest.raises(DomainError):
        plan_sequences(builtin_theta("inv-sqrt"), 1, J=0, c_n=1.0)


def test_plan_validation():
    good = dict(theta_name="x", n=1, J=3, c_n=1.0)
    with pytest.raises(DomainError):
        SequencePlan(rho=np.array([1.0, 2.0, 3.0]),
                     tau=np.array([1.0, 0.5, 0.25]), **good)
    with pytest.raises(DomainError):
        SequencePlan(rho=np.array([1.0, 0.5]),
                     tau=np.array([1.0, 0.5]), **good)
    with pytest.raises(DomainError):
        SequencePlan(rho=np.array([1.0, 0.5, 0.0]),
                     tau=np.array([1.0, 0.5, 0.25]), **good)


def test_factor_t_hat_values():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=4, c_n=1.0)
    tau1 = plan.tau[0]
    lam = 3.7
    assert factor_t_hat(1, lam, plan) == pytest.approx(
        np.sin(0.5 * tau1 ** 2 * lam) / (0.5 * tau1 ** 2 * lam))
    assert factor_t_hat(1, 1e-9, plan) == pytest.approx(1.0, abs=1e-12)
    assert factor_t_hat(1, 2.0 * np.pi / tau1 ** 2, plan) == pytest.approx(
        0.0, abs=1e-14)
    with pytest.raises(DomainError):
        factor_t_hat(5, 1.0, plan)


def test_factor_coeff_ties_to_forward_transform():
    # a box factor's spectral rows are the scale-invariant unit-ball table at
    # s = lam rho^2 times the interval transform; box_coefficients is that
    # product on the whole grid
    rho, tau = 0.8, 0.6
    grid = QuadratureGrid.make(k_max=6, lambda_min=0.5, lambda_max=4.0,
                               lambda_nodes=6)
    for n in (1, 2, 3):
        vals = forward_radial(box_factor(n, rho, tau), grid).values
        assert np.allclose(box_coefficients(n, rho, tau, grid).values, vals,
                           atol=1e-9)
        table = ball_coefficients(grid.lam * rho ** 2, 6, n)
        for i, lam in enumerate(grid.lam):
            sinc = np.sin(0.5 * tau ** 2 * lam) / (0.5 * tau ** 2 * lam)
            assert np.allclose(vals[:, i], table[:, i] * sinc, atol=1e-9)
    with pytest.raises(DomainError):
        ball_coefficients(np.array([-1.0]), 4, 1)


def test_factor_coeff_matches_table():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=4, c_n=1.2)
    lam, k = 2.5, 3
    # one table over every factor's s = lam rho_j^2; factor j reads column j-1
    table = ball_coefficients(lam * np.asarray(plan.rho) ** 2, k, 1)
    for j in range(1, plan.J + 1):
        assert factor_coeff(j, k, lam, plan) == pytest.approx(
            float(table[k, j - 1]), rel=1e-12)
    assert factor_coeff(2, k, -lam, plan) == factor_coeff(2, k, lam, plan)
    with pytest.raises(DomainError):
        factor_coeff(2, k, 0.0, plan)


def test_factor_envelope_formula():
    k = np.array([0, 3, 50])
    env = np.array([factor_coeff_envelope(kk, 2.0, 0.5, 2, 5.1) for kk in k])
    x = 0.5 * np.sqrt((2.0 * k + 2) * 2.0)
    assert np.allclose(env, np.minimum(1.0, 5.1 * x ** -1.5))
    assert factor_coeff_envelope(0, 1e-30, 1.0, 1, 1.3) == 1.0


def test_calibration_grid_shape():
    k, s = calibration_grid(9)
    assert np.array_equal(k, np.arange(FACTOR_K_MAX + 1))
    assert s.shape == (9,)
    assert s[0] == pytest.approx(1e-9) and s[-1] == pytest.approx(1e3)
    # the default is the grid the factor fixture's hash covers
    k, s = calibration_grid()
    assert k[-1] == FACTOR_K_MAX and s.size == FACTOR_S_NODES
    assert (s[0], s[-1]) == pytest.approx(FACTOR_S_RANGE)


def test_calibrate_cn_cross_checks_quadrature(monkeypatch):
    # a closed form off by 1e-6 relative must not freeze a constant
    monkeypatch.setattr(
        "heisharm.calibrate.ball_coefficients",
        lambda s, k_max, n: ball_coefficients(s, k_max, n) * (1.0 + 1e-6))
    with pytest.raises(QuadratureError, match=r"disagrees with radial quadrature "
                                              r"by \d\.\d{3}e-0[67] relative "
                                              r"\(> 1e-09\)$"):
        calibrate_cn(1)


def test_factor_bound_small_replay():
    c_n = load_fixture("box_factor_envelope.json")["c_n"]["1"]
    out = factor_bound_check(1, c_n, thin=3)
    assert out["violations"] == 0
    assert out["max_ratio"] <= 1.0
    assert out["s_columns"] == FACTOR_S_NODES // 3
    assert out["points"] == (FACTOR_K_MAX + 1) * out["s_columns"]


def test_factor_bound_check_refuses_uncalibrated_dimension():
    # the replay takes the plan's c_n, and the planner reads it from the
    # fixture, which holds none for n = 4
    with pytest.raises(DomainError, match="n=4"):
        plan_sequences(builtin_theta("inv-sqrt"), 4, J=4)


def test_adaptive_factor_count():
    inv = builtin_theta("inv-sqrt")
    # nu = 100: floor(10 / sqrt(11)) = 3
    assert adaptive_N(inv, 49, 1.0, 2) == 3
    assert adaptive_N(builtin_theta("zero"), 49, 1.0, 2) == 0
    # Theta(0+) > 1 profiles are clamped to floor(sqrt(nu))
    assert adaptive_N(builtin_theta("inv-sqrt-strong"), 0, 1.0, 1) == 1
    assert adaptive_N(inv, np.array([0, 49]), 1.0, 2).shape == (2,)
    with pytest.raises(DomainError):
        adaptive_N(inv, 3, 0.0, 1)


def test_chain_empty_and_factor_product():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=6, c_n=1.2)
    assert chain_coeff(plan, 0, 5, 2.0) == 1.0
    lam, k = 1.7, 2
    expect = 1.0
    for j in (1, 2, 3):
        expect *= factor_coeff(j, k, lam, plan) * float(factor_t_hat(j, lam, plan))
    assert chain_coeff(plan, 3, k, lam) == pytest.approx(expect, rel=1e-9)
    with pytest.raises(DomainError):
        chain_coeff(plan, 7, 0, 1.0)
    with pytest.raises(DomainError):
        chain_coeff(plan, -1, 0, 1.0)


def _dense_chain_log_columns(plan, lam, k_max, n_cap):
    """The chain layer before factor streaming, kept as the oracle: every
    (lambda, j <= n_cap) factor table from one ball_coefficients call and
    dense (lambda, max(n_cap)+1, k_max+1) cumulative tables; entry [i, N]
    holds G_N at lam[i] for N <= n_cap[i]."""
    lam = np.asarray(lam, dtype=float)
    n_cap = np.broadcast_to(np.asarray(n_cap, dtype=int), lam.shape)
    top = int(n_cap.max(initial=0))
    li, jj = np.nonzero(np.arange(top)[None, :] < n_cap[:, None])
    s = np.abs(lam[li]) * np.asarray(plan.rho)[jj] ** 2
    term = (ball_coefficients(s, k_max, plan.n)
            * _box_t_hat(np.asarray(plan.tau)[jj], lam[li])).T
    step_logs = np.zeros((lam.size, top, k_max + 1))
    step_signs = np.ones((lam.size, top, k_max + 1))
    with np.errstate(divide="ignore"):
        step_logs[li, jj] = np.log(np.abs(term))
    step_signs[li, jj] = np.sign(term)
    shape = (lam.size, top + 1, k_max + 1)
    signs, logs = np.ones(shape), np.zeros(shape)
    signs[:, 1:] = np.cumprod(step_signs, axis=1)
    logs[:, 1:] = np.cumsum(step_logs, axis=1)
    return signs, logs


def _dense_log_q_table(plan, theta, k_max, lam_nodes):
    """Oracle for _log_q_table, from the dense chain tables."""
    k = np.arange(k_max + 1, dtype=float)[None, :]
    lam = lam_nodes[:, None]
    root = np.sqrt((2.0 * k + plan.n) * np.abs(lam))
    N = np.minimum(adaptive_N(theta, k, lam, plan.n), plan.J)
    _, logs = _dense_chain_log_columns(plan, lam_nodes, k_max, N.max(axis=1))
    chain = np.take_along_axis(logs, N[:, None, :], axis=1)[:, 0, :]
    return 2.0 * chain + 2.0 * theta(root) * root


def _dense_max_log_q(plan, theta, k_max, lam_nodes):
    """Oracle for one of verify_decay's maxima, built at its own k_max."""
    log_q = _dense_log_q_table(plan, theta, k_max, lam_nodes)
    k_star = np.argmax(log_q, axis=1)
    col_max = log_q[np.arange(lam_nodes.size), k_star]
    best = int(np.argmax(col_max))
    return float(col_max[best]), int(k_star[best]), float(lam_nodes[best])


@seed(5)
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=5), st.data())
def test_chain_columns_match_scalar_products(n, k_max, lam_count, data):
    # every prefix of one stream, each lambda column with its own factor
    # count, against the product of scalar factor coefficients and interval
    # transforms, cell by cell
    plan = plan_sequences(builtin_theta("inv-sqrt"), n, J=6, c_n=1.2)
    lam = np.geomspace(1e-2, 1e2, lam_count)
    need = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                       min_size=lam_count, max_size=lam_count)))
    steps = 0
    for j, (signs, logs) in enumerate(_chain_prefixes(plan, lam, k_max, need),
                                      start=1):
        steps = j
        assert signs.shape == logs.shape == (lam_count, k_max + 1)
        for i in range(lam_count):
            N = min(j, need[i])
            for k in range(k_max + 1):
                expect = chain_coeff(plan, N, k, lam[i])
                got = signs[i, k] * np.exp(logs[i, k])
                assert np.allclose(got, expect, rtol=1e-12, atol=0.0)
    assert steps == need.max()


def test_chain_coefficients_grid():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=6, c_n=1.2)
    grid = QuadratureGrid.make(k_max=8, lambda_min=0.5, lambda_max=5.0,
                               lambda_nodes=6)
    c = chain_coefficients(plan, 2, grid)
    assert c.values.shape == (9, 6)
    for k, i in ((0, 0), (5, 3)):
        assert c.values[k, i] == pytest.approx(
            chain_coeff(plan, 2, k, grid.lam[i]), rel=1e-9)
    # the stream's prefixes against the products of whole factor tables
    need = np.full(grid.lam.size, plan.J)
    stream = _chain_prefixes(plan, grid.lam, grid.k_max, need)
    for N, (signs, logs) in enumerate(stream, start=1):
        assert np.allclose((signs * np.exp(logs)).T,
                           chain_coefficients(plan, N, grid).values,
                           rtol=1e-12, atol=0.0)


def test_support_radius_formula():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=5, c_n=1.1)
    assert support_radius(plan) == pytest.approx(
        plan.a * np.asarray(plan.rho).sum() + plan.c * np.asarray(plan.tau).sum(),
        rel=1e-14)
    # a two-factor plan has the same first two widths
    two = plan_sequences(builtin_theta("inv-sqrt"), 1, J=2, c_n=1.1)
    assert_array_equal(two.rho, plan.rho[:2])
    assert_array_equal(two.tau, plan.tau[:2])
    expect = (plan.a * (plan.rho[0] + plan.rho[1])
              + plan.c * (plan.tau[0] + plan.tau[1]))
    assert support_radius(two) == pytest.approx(expect, rel=1e-14)


def test_cauchy_gap_within_calibrated_envelope():
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=16)
    grid = QuadratureGrid.make(k_max=32, lambda_min=1e-2, lambda_max=1e2,
                               lambda_nodes=64)
    fixture = load_fixture("chain_gap_constants.json")
    bounds, measured = cauchy_gap(plan, 4, grid, fixture["c3"])
    assert bounds.shape == measured.shape == (4,)
    assert np.all(measured <= fixture["C"] * bounds)
    with pytest.raises(DomainError):
        cauchy_gap(plan, 16, grid, fixture["c3"])


def test_cauchy_gap_streams_the_chain_once(monkeypatch):
    # the gaps for k = 1..K come from one stream of the K+1 factors of
    # G_{K+1}, each gap the difference of consecutive chain columns; the
    # factors share ball_coefficients calls as far as the cell budget lets
    plan = plan_sequences(builtin_theta("inv-sqrt"), 1, J=16, c_n=1.2)
    grid = QuadratureGrid.make(k_max=16, lambda_min=1e-2, lambda_max=1e2,
                               lambda_nodes=24)
    calls = []

    def counted(s, k_max, n):
        calls.append(s.size)
        return ball_coefficients(s, k_max, n)

    monkeypatch.setattr("heisharm.ingham.ball_coefficients", counted)
    K = 12
    bounds, measured = cauchy_gap(plan, K, grid, 1.0)
    # all 13 factors over all 24 columns fit one block
    assert calls == [(K + 1) * 24]
    # a budget of five factors' tables: blocks of 5, 5 and 3 factors
    calls.clear()
    monkeypatch.setattr("heisharm.ingham._BLOCK_CELLS", 5 * 24 * 17)
    assert_array_equal(cauchy_gap(plan, K, grid, 1.0)[1], measured)
    assert calls == [5 * 24, 5 * 24, 3 * 24]
    monkeypatch.undo()
    for k in (1, 5, K):
        gap = (chain_coefficients(plan, k + 1, grid).values
               - chain_coefficients(plan, k, grid).values)
        assert measured[k - 1] == pytest.approx(float(plancherel_norm(
            SpectralCoefficients(n=1, grid=grid, values=gap))),
            rel=1e-12)
        assert bounds[k - 1] == plan.tau[k] ** 2 + plan.rho[k]


def test_verify_decay_smoke():
    theta = builtin_theta("inv-sqrt")
    plan = plan_sequences(theta, 1, J=16)
    report = verify_decay(plan, theta, QuadratureGrid.make(
        k_max=12, lambda_min=0.1, lambda_max=10.0, lambda_nodes=24))
    assert sorted(report) == ["C", "argmax", "max_log_q", "pass", "theta"]
    assert report["pass"] is True
    assert report["C"] == pytest.approx(np.exp(report["max_log_q"]))
    assert 0 <= report["argmax"]["k"] <= 12
    with pytest.raises(ProfileClassError):
        verify_decay(plan, builtin_theta("inv-log"), QuadratureGrid.make(
            k_max=4, lambda_min=1e-2, lambda_max=1e2, lambda_nodes=4))


def test_verify_decay_tracemalloc_peak():
    # the ball workload's verify at the CLI's k_max and lambda_nodes: the
    # streamed chain peaks near 1.9 MiB; dense (lambda, N, k) chain tables
    # for the same window take 6.8 MiB
    theta = builtin_theta("inv-log-sq")
    plan = plan_sequences(theta, 2, J=16)
    grid = QuadratureGrid.make(k_max=64, lambda_min=1e-2, lambda_max=1e2,
                               lambda_nodes=192)
    verify_decay(plan, theta, grid)
    tracemalloc.start()
    try:
        verify_decay(plan, theta, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


@st.composite
def tail_tables(draw):
    """Table profiles declared convergent whose last value, kept beyond the
    table, is 0 (zero tail) or the positive running minimum (flat tail)."""
    size = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(st.floats(min_value=0.1, max_value=50.0),
                          min_size=size, max_size=size))
    vals = draw(st.lists(st.floats(min_value=0.01, max_value=3.0),
                         min_size=size, max_size=size))
    tail = draw(st.sampled_from(["zero", "flat"]))
    y = np.concatenate(([0.0], np.cumsum(steps)))
    vals.append(0.0 if tail == "zero" else min(vals))
    return ThetaProfile(name=f"table-{tail}", kind="table",
                        declared_class="convergent", y=y, vals=np.array(vals))


@seed(19)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), tail_tables())
def test_table_profiles_plan_and_verify(n, theta):
    J = 16
    plan = plan_sequences(theta, n, J=J)
    for seq in (np.asarray(plan.rho), np.asarray(plan.tau)):
        assert seq.shape == (J,)
        assert np.all(seq > 0) and np.all(np.diff(seq) <= 0)
    report = verify_decay(plan, theta, QuadratureGrid.make(
        k_max=16, lambda_min=1e-2, lambda_max=1e2, lambda_nodes=32))
    assert sorted(report) == ["C", "argmax", "max_log_q", "pass", "theta"]
    assert np.isfinite(report["max_log_q"])


@seed(13)
@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([builtin_theta(name) for name in
                                  ("inv-sqrt", "inv-sqrt-strong", "inv-log-sq",
                                   "zero")]),
                 tail_tables()),
       st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=24),
       st.sampled_from([(1e-2, 1e2), (0.1, 10.0), (1e-3, 1e3)]),
       st.integers(min_value=2, max_value=48))
def test_verify_decay_matches_two_pass_oracle(theta, n, J, k_max, window,
                                               lambda_nodes):
    # one 2 k_max table for both maxima against two dense passes, one at
    # k_max and one at 2 k_max
    plan = plan_sequences(theta, n, J=J)
    grid = QuadratureGrid.make(k_max=k_max, lambda_min=window[0],
                               lambda_max=window[1], lambda_nodes=lambda_nodes)
    report = verify_decay(plan, theta, grid)
    lam_nodes = grid.lam
    max_log_q, k_star, lam_star = _dense_max_log_q(plan, theta, k_max, lam_nodes)
    max2 = _dense_max_log_q(plan, theta, 2 * k_max, lam_nodes)[0]
    assert [lam_nodes[0], lam_nodes[-1]] == list(window)
    assert report["max_log_q"] == max_log_q
    assert report["argmax"] == {"k": k_star, "lambda": lam_star}
    assert report["C"] == float(np.exp(max_log_q))
    assert report["pass"] == bool(np.isfinite(max_log_q)
                                  and abs(max2 - max_log_q) <= 0.1)


@seed(13)
@settings(max_examples=20, deadline=None)
@given(st.one_of(st.sampled_from([builtin_theta(name) for name in
                                  ("inv-sqrt", "inv-sqrt-strong", "inv-log-sq",
                                   "zero")]),
                 tail_tables()),
       st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=48),
       st.sampled_from([(1e-2, 1e2), (0.1, 10.0), (1e-3, 1e3)]),
       st.integers(min_value=2, max_value=48))
def test_log_q_table_matches_dense_table(theta, n, J, k_max, window, lambda_nodes):
    # every cell of the streamed table, bitwise, against the dense chain
    plan = plan_sequences(theta, n, J=J)
    lam_nodes = np.geomspace(*window, lambda_nodes)
    assert_array_equal(_log_q_table(plan, theta, k_max, lam_nodes),
                       _dense_log_q_table(plan, theta, k_max, lam_nodes))


def _per_factor_chain_prefixes(plan, lam, k_max, need):
    """The chain stream with one ball_coefficients call per factor, kept as
    the oracle of the blocked _chain_prefixes."""
    signs, logs = np.ones((lam.size, k_max + 1)), np.zeros((lam.size, k_max + 1))
    for j in range(int(need.max(initial=0))):
        cols = np.flatnonzero(need > j)
        s = np.abs(lam[cols]) * np.asarray(plan.rho[j:j + 1]) ** 2
        term = (ball_coefficients(s, k_max, plan.n)
                * _box_t_hat(np.asarray(plan.tau[j:j + 1]), lam[cols])).T
        with np.errstate(divide="ignore"):
            logs[cols] += np.log(np.abs(term))
        signs[cols] *= np.sign(term)
        yield signs, logs


@seed(26)
@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([builtin_theta(name) for name in
                                  ("inv-sqrt", "inv-sqrt-strong", "inv-log-sq",
                                   "zero")]),
                 tail_tables()),
       st.sampled_from([1, 2, 3]), st.integers(min_value=2, max_value=24),
       st.integers(min_value=1, max_value=64),
       st.sampled_from([(1e-2, 1e2), (0.1, 10.0), (1e-3, 1e3)]),
       st.integers(min_value=2, max_value=48),
       st.sampled_from(["one", "several", "all"]), st.data())
def test_blocked_chain_matches_per_factor_oracle(theta, n, J, k_max, window,
                                                 lambda_nodes, blocks, data):
    # blocks of one factor, of at least three whole-grid factors, and of
    # every factor: the stream, verify_decay and cauchy_gap equal the
    # per-factor oracle's, bit for bit
    plan = plan_sequences(theta, n, J=J)
    grid = QuadratureGrid.make(k_max=k_max, lambda_min=window[0],
                               lambda_max=window[1], lambda_nodes=lambda_nodes)
    budget = {"one": 1, "several": 3 * lambda_nodes * (2 * k_max + 1),
              "all": 2 ** 62}[blocks]
    need = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=J),
                                       min_size=lambda_nodes,
                                       max_size=lambda_nodes), label="need"))
    K = data.draw(st.integers(min_value=1, max_value=J - 1), label="K")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingham, "_BLOCK_CELLS", budget)
        pairs = [(signs.copy(), logs.copy()) for signs, logs
                 in _chain_prefixes(plan, grid.lam, k_max, need)]
        report = verify_decay(plan, theta, grid)
        gap = cauchy_gap(plan, K, grid, 1.0)
        mp.setattr(ingham, "_chain_prefixes", _per_factor_chain_prefixes)
        expect = [(signs.copy(), logs.copy()) for signs, logs
                  in _per_factor_chain_prefixes(plan, grid.lam, k_max, need)]
        assert verify_decay(plan, theta, grid) == report
        expect_gap = cauchy_gap(plan, K, grid, 1.0)
    assert len(pairs) == len(expect) == need.max()
    for (signs, logs), (expect_signs, expect_logs) in zip(pairs, expect):
        assert_array_equal(signs, expect_signs)
        assert_array_equal(logs, expect_logs)
    for got, want in zip(gap, expect_gap):
        assert_array_equal(got, want)
