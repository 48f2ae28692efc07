"""Decay profiles: builtins, table configs and class declarations."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from heisharm.errors import ProfileClassError
from heisharm.theta import (BUILTIN_THETAS, ThetaProfile, builtin_theta,
                            load_theta, require_convergent, theta_from_config)

from oracles import tail_integral_estimate


def test_builtin_values():
    th = builtin_theta("inv-sqrt")
    assert th(0.0) == pytest.approx(1.0)
    assert th(3.0) == pytest.approx(0.5)
    assert th(-3.0) == pytest.approx(0.5)  # evenness
    strong = builtin_theta("inv-sqrt-strong")
    assert strong(0.5) == pytest.approx(2.0)
    assert strong(4.0) == pytest.approx(1.0)
    assert builtin_theta("zero")(17.0) == 0.0


def test_builtin_classes():
    assert builtin_theta("inv-sqrt").declared_class == "convergent"
    assert builtin_theta("inv-log").divergent
    assert not builtin_theta("inv-log-sq").divergent


def test_unknown_builtin_refused():
    with pytest.raises(ProfileClassError):
        builtin_theta("no-such-profile")


def _inv_sqrt_strong(y):
    y = np.abs(y)
    with np.errstate(divide="ignore"):
        return 2.0 * np.minimum(1.0, np.where(y > 0, y, np.inf) ** -0.5)


# the builtin formulas as standalone functions of t, the branches of
# ThetaProfile.__call__ must give the same floats
_FORMULAS = {
    "inv-sqrt": lambda y: (1.0 + np.abs(y)) ** -0.5,
    "inv-sqrt-strong": _inv_sqrt_strong,
    "inv-log": lambda y: 1.0 / np.log(np.e + np.abs(y)),
    "inv-log-sq": lambda y: np.log(np.e + np.abs(y)) ** -2.0,
    "zero": lambda y: np.zeros_like(np.asarray(y, dtype=float)),
}


def test_builtin_branches_match_formulas_bitwise():
    assert set(_FORMULAS) == set(BUILTIN_THETAS)
    t = np.concatenate([-np.geomspace(1e-3, 1e8, 50), [0.0],
                        np.geomspace(1e-6, 1e12, 300)])
    for name, formula in _FORMULAS.items():
        assert_array_equal(builtin_theta(name)(t), formula(t), err_msg=name)
        assert builtin_theta(name)(3.0) == formula(np.asarray(3.0)), name


def test_all_builtins_nonincreasing():
    y = np.geomspace(1e-3, 1e8, 200)
    for name in BUILTIN_THETAS:
        vals = builtin_theta(name)(y)
        assert np.all(np.diff(vals) <= 1e-15), name


def test_table_profile_running_minimum():
    th = ThetaProfile(name="bump", kind="table", declared_class="convergent",
                      y=np.array([0.0, 1.0, 2.0, 3.0]),
                      vals=np.array([1.0, 0.4, 0.7, 0.2]))
    # the bump at y=2 is flattened to the running minimum
    assert th(2.0) == pytest.approx(0.4)
    assert th(10.0) == pytest.approx(0.2)  # constant extension on the right
    assert th(-0.5) == pytest.approx(th(0.5))  # profiles are even
    # left-constant extension below the first tabulated abscissa
    shifted = ThetaProfile(name="shift", kind="table",
                           declared_class="convergent",
                           y=np.array([1.0, 2.0]), vals=np.array([0.8, 0.3]))
    assert shifted(0.1) == pytest.approx(0.8)


def test_table_profile_validation():
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", kind="table", declared_class="convergent",
                     y=np.array([1.0, 0.5]), vals=np.array([1.0, 1.0]))
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", kind="table", declared_class="convergent",
                     y=np.array([0.0, 1.0]), vals=np.array([1.0, -0.2]))
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", kind="inv-sqrt", declared_class="sideways")


@pytest.mark.parametrize("y", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf],
                               [-np.inf, 0.0, 1.0]])
def test_table_abscissae_must_be_finite(y):
    with pytest.raises(ProfileClassError, match="abscissae y must be finite"):
        ThetaProfile(name="bad", kind="table", declared_class="convergent",
                     y=np.array(y), vals=np.array([1.0, 0.5, 0.2]))
    # the same from a config, where a JSON null reads as nan
    cfg = {"name": "bad", "kind": "table", "declared_class": "divergent",
           "y": [None if np.isnan(v) else v for v in y], "theta": [1.0, 0.5, 0.2]}
    with pytest.raises(ProfileClassError, match="abscissae y must be finite"):
        theta_from_config(cfg)


def test_table_of_non_numbers_refused():
    for y in (["a", "b"], [[0.0, 1.0], [2.0]], "0,1"):
        with pytest.raises(ProfileClassError):
            theta_from_config({"name": "bad", "kind": "table",
                               "declared_class": "convergent",
                               "y": y, "theta": [1.0, 0.5]})


def test_require_convergent_reads_the_declared_class():
    require_convergent(builtin_theta("inv-log-sq"))
    with pytest.raises(ProfileClassError, match="'inv-log' is declared "
                       "divergent: no compactly supported function"):
        require_convergent(builtin_theta("inv-log"))
    with pytest.raises(ProfileClassError,
                       match="declared divergent: nothing to certify$"):
        require_convergent(builtin_theta("inv-log"), "nothing to certify")


def test_config_and_path_loading(tmp_path):
    cfg = {"name": "steps", "kind": "table", "declared_class": "convergent",
           "y": [0.0, 2.0, 8.0], "theta": [0.9, 0.5, 0.1]}
    th = theta_from_config(cfg)
    assert th(4.0) == pytest.approx(np.interp(4.0, [2.0, 8.0], [0.5, 0.1]))

    p = tmp_path / "prof.json"
    p.write_text(__import__("json").dumps(cfg))
    th2 = load_theta(str(p))
    assert th2.name == "steps"
    assert th2(1.0) == th(1.0)

    with pytest.raises(ProfileClassError):
        load_theta(str(tmp_path / "missing.json"))
    with pytest.raises(ProfileClassError):
        theta_from_config({"name": "x"})


def test_load_theta_builtin_name():
    assert load_theta("inv-sqrt").name == "inv-sqrt"


def test_tail_integral_estimates():
    # convergent profiles stop accruing mass between horizons; divergent keep going
    conv = tail_integral_estimate(builtin_theta("inv-log-sq"), hi=1e10)
    conv_far = tail_integral_estimate(builtin_theta("inv-log-sq"), hi=1e14)
    assert conv_far - conv < 0.05 * conv
    div = tail_integral_estimate(builtin_theta("inv-log"), hi=1e10)
    div_far = tail_integral_estimate(builtin_theta("inv-log"), hi=1e14)
    assert div_far - div > 0.1

