"""The plan on Python floats: the ball coefficients and the profiles
evaluated with math against the same formulas on numpy arrays, the float
replay against the array replay and one fixture read per ingham-plan."""

import math

import numpy as np
import pytest

from heisharm import cli, plan
from heisharm._ball import ball_columns
from heisharm.fixtures import (FACTOR_DIMS, FACTOR_K_MAX, calibration_grid,
                               load_fixture, packaged_fixtures_dir)
from heisharm.plan import factor_bound_check, plan_sequences, support_radius
from heisharm.theta import BUILTIN_THETAS, ThetaProfile, builtin_theta
from heisharm.transform import ball_coefficients

from oracles import factor_bound_replay


def _within_ulps(got, want, ulps):
    return all(abs(g - w) <= ulps * math.ulp(w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", FACTOR_DIMS)
def test_ball_columns_match_ball_coefficients(n):
    # the whole calibration grid, 201 degrees by 120 s columns: each column
    # within 1e-12 of its largest coefficient
    _, s = calibration_grid()
    want = ball_coefficients(s, FACTOR_K_MAX, n)
    got = np.array(ball_columns(s.tolist(), FACTOR_K_MAX, n)).T
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-12 * scale)


@pytest.mark.parametrize("k_max", [0, 1, 2, 3])
def test_ball_columns_low_degrees(k_max):
    s = [1e-3, 0.7, 40.0, 3e3]
    want = ball_coefficients(np.array(s), k_max, 2)
    got = np.array(ball_columns(s, k_max, 2)).T
    assert got.shape == (k_max + 1, 4)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_float_profiles_match_array_profiles():
    # every builtin at every factor index a plan can have, within one ulp
    j = np.arange(1, 1075, dtype=float)
    for name in BUILTIN_THETAS:
        theta = builtin_theta(name)
        got = [theta.at(v) for v in range(1, 1075)]
        assert all(type(v) is float for v in got), name
        assert _within_ulps(got, theta(j).tolist(), 1), name
        for t in (0.0, -2.5, 1e300):
            assert _within_ulps([theta.at(t)], [float(theta(t))], 1), (name, t)
    # a table interpolates by np.interp's formula in both, bit for bit: at
    # its nodes, between them, past both ends and at the float extremes
    table = ThetaProfile(name="t", declared_class="convergent",
                         y=[0.0, 3.0, 40.0], vals=[1.5, 0.4, 0.1])
    y = [0.0, 1.0, 2.7, 3.0, 17.0, 40.0, 1e4, -5.0, math.inf, 5e-324]
    assert [table.at(v) for v in y] == table(np.array(y)).tolist()
    rng = np.random.default_rng(41)
    for size in (2, 7, 77):
        nodes = np.sort(rng.choice(10.0 ** rng.uniform(-3, 8, 4 * size), size,
                                   replace=False))
        table = ThetaProfile(name="t", declared_class="convergent",
                             y=nodes.tolist(), vals=rng.uniform(0.0, 5.0, size).tolist())
        y = np.concatenate((nodes, rng.uniform(0.0, 2.0 * nodes[-1], 400),
                            nodes[0] * rng.uniform(0.0, 1.0, 20),
                            np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf)))
        got = [table.at(v) for v in y.tolist()]
        assert all(type(v) is float for v in got)
        assert got == table(y).tolist(), size


def test_plan_widths_match_the_array_formula():
    # rho_j = c_n^2 e^2 Theta(j)/j + 2^-j on numpy arrays of the same Theta
    # values, bit for bit: the widths differ from an array plan only where
    # the float Theta does
    j = np.arange(1, 1075, dtype=float)
    for name in ("inv-sqrt", "inv-sqrt-strong", "inv-log-sq", "zero"):
        theta = builtin_theta(name)
        p = plan_sequences(theta, 2, J=1074, c_n=1.3)
        values = np.array([theta.at(v) for v in range(1, 1075)])
        rho = 1.3 ** 2 * np.e ** 2 * values / j + 2.0 ** -j
        assert p.rho == tuple(rho.tolist()), name
        assert p.tau == tuple((2.0 ** -j).tolist())


def test_support_radius_is_correctly_rounded():
    p = plan_sequences(builtin_theta("inv-sqrt"), 1, J=64, c_n=1.1)
    assert support_radius(p) == (p.a * math.fsum(p.rho)
                                 + p.c * math.fsum(p.tau))
    assert support_radius(p) == pytest.approx(
        p.a * np.sum(p.rho) + p.c * np.sum(p.tau), rel=1e-15)


@pytest.mark.parametrize("n", FACTOR_DIMS)
def test_float_replay_matches_array_replay(n):
    c_n = load_fixture("box_factor_envelope.json", packaged_fixtures_dir())["c_n"][str(n)]
    got = factor_bound_check(n, c_n)
    want = factor_bound_replay(n, c_n, plan.REPLAY_THIN)
    ratio = got.pop("max_ratio"), want.pop("max_ratio")
    assert got == want
    assert got["violations"] == 0 and got["s_columns"] == 20
    assert ratio[0] == pytest.approx(ratio[1], rel=1e-12)


def test_ingham_plan_reads_its_fixture_once(tmp_path, monkeypatch):
    # the plan reads c_n, and the replay takes the plan's
    calls = []

    def counted(name, *rest):
        calls.append(name)
        return load_fixture(name, *rest)

    monkeypatch.setattr(plan, "load_fixture", counted)
    for argv in (["--n", "2"], ["--theta", "inv-log-sq", "--chain-length", "64"]):
        calls.clear()
        out = tmp_path / "plan.json"
        assert cli.main(["ingham-plan", *argv, "--out", str(out)]) == 0
        assert calls == ["box_factor_envelope.json"]
