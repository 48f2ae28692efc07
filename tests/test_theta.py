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
    assert builtin_theta("inv-log").declared_class == "divergent"
    assert builtin_theta("inv-log-sq").declared_class == "convergent"
    # a builtin is a name: its class comes from BUILTIN_THETAS, and no
    # constructor argument declares another, nor the same one again, nor
    # gives a table the builtin's name
    for name, declared in BUILTIN_THETAS.items():
        assert ThetaProfile(name).declared_class == declared
        for other in ("convergent", "divergent"):
            for table in ({}, {"y": [0.0, 1.0], "vals": [1.0, 1.0]}):
                with pytest.raises(ProfileClassError) as info:
                    ThetaProfile(name, declared_class=other, **table)
                assert str(info.value) == (
                    f"'{name}' names a builtin profile, {declared} by the "
                    f"package; a table needs a name of its own")


def test_unknown_builtin_refused():
    with pytest.raises(ProfileClassError):
        builtin_theta("no-such-profile")


def _inv_sqrt_strong(y):
    # the paper's 2 min(1, y^{-1/2}), with y^{-1/2} = inf at y = 0
    with np.errstate(divide="ignore"):
        return 2.0 * np.minimum(1.0, np.abs(y) ** -0.5)


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
    y = np.concatenate(([0.0], np.geomspace(1e-3, 1e8, 200)))
    for name in BUILTIN_THETAS:
        vals = builtin_theta(name)(y)
        assert np.all(np.diff(vals) <= 1e-15), name


def test_table_profile_running_minimum():
    th = ThetaProfile(name="bump", declared_class="convergent",
                      y=np.array([0.0, 1.0, 2.0, 3.0]),
                      vals=np.array([1.0, 0.4, 0.7, 0.2]))
    # the bump at y=2 is flattened to the running minimum
    assert th(2.0) == pytest.approx(0.4)
    assert th(10.0) == pytest.approx(0.2)  # constant extension on the right
    assert th(-0.5) == pytest.approx(th(0.5))  # profiles are even
    # left-constant extension below the first tabulated abscissa
    shifted = ThetaProfile(name="shift", declared_class="convergent",
                           y=np.array([1.0, 2.0]), vals=np.array([0.8, 0.3]))
    assert shifted(0.1) == pytest.approx(0.8)


def test_table_profile_validation():
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", declared_class="convergent",
                     y=np.array([1.0, 0.5]), vals=np.array([1.0, 1.0]))
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", declared_class="convergent",
                     y=np.array([0.0, 1.0]), vals=np.array([1.0, -0.2]))
    with pytest.raises(ProfileClassError):
        ThetaProfile(name="bad", declared_class="sideways",
                     y=np.array([0.0, 1.0]), vals=np.array([1.0, 1.0]))


@pytest.mark.parametrize("y", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf],
                               [-np.inf, 0.0, 1.0]])
def test_table_abscissae_must_be_finite(y):
    with pytest.raises(ProfileClassError, match="abscissae y must be finite"):
        ThetaProfile(name="bad", declared_class="convergent",
                     y=np.array(y), vals=np.array([1.0, 0.5, 0.2]))
    # the same from a config, where a JSON null reads as nan
    cfg = {"name": "bad", "kind": "table", "declared_class": "divergent",
           "y": [None if np.isnan(v) else v for v in y], "theta": [1.0, 0.5, 0.2]}
    with pytest.raises(ProfileClassError, match="abscissae y must be finite"):
        theta_from_config(cfg)


_BAD_NAME = "profile name must be a nonempty string of printable characters, got "

# config field, the value that replaces a good one, and the refusal
_NOT_A_TABLE = [
    ("y", ["a", "b"], "table y must hold numbers only, got 'a'"),
    ("y", [[0.0, 1.0], [2.0]], "table y must hold numbers only, got [0.0, 1.0]"),
    ("y", "0,1", "table y must hold numbers only, got '0,1'"),
    ("y", 5, "table y must hold numbers only, got 5"),
    ("y", ["0", "1"], "table y must hold numbers only, got '0'"),
    ("theta", ["1", "0.5"], "table theta must hold numbers only, got '1'"),
    ("y", [False, True], "table y must hold numbers only, got False"),
    ("theta", [True, False], "table theta must hold numbers only, got True"),
    ("theta", [1.0, 10 ** 400],
     "table theta must hold numbers only, got 1" + "0" * 400),
    ("name", 5, _BAD_NAME + "5"),
    ("name", None, _BAD_NAME + "None"),
    ("name", ["a"], _BAD_NAME + "['a']"),
    ("name", "", _BAD_NAME + "''"),
    ("name", "x\ny", _BAD_NAME + "'x\\ny'"),
    ("name", "x\n", _BAD_NAME + "'x\\n'"),
    # a terminal escape would reach the summary line raw
    ("name", "red\u001b[31mX", _BAD_NAME + "'red\\x1b[31mX'"),
    # a config holds a table under a name of its own: a builtin kind, with a
    # class of the config's choosing, and a builtin's name are refused
    ("kind", "inv-log", "profile config kind must be 'table', got 'inv-log'; "
                        "a builtin is chosen by its name alone"),
    ("kind", [1], "profile config kind must be 'table', got [1]; a builtin is "
                  "chosen by its name alone"),
    ("name", "inv-sqrt", "'inv-sqrt' names a builtin profile, convergent by "
                         "the package; a table needs a name of its own"),
]


def test_table_of_non_numbers_refused():
    # numpy would read the strings and booleans as numbers, and a name
    # heads a one-line summary a terminal shows; each is refused naming its
    # field
    for field, value, message in _NOT_A_TABLE:
        cfg = {"name": "ok", "kind": "table", "declared_class": "convergent",
               "y": [0.0, 1.0], "theta": [1.0, 0.5], field: value}
        with pytest.raises(ProfileClassError) as info:
            theta_from_config(cfg)
        assert str(info.value) == message, (field, value)


def test_require_convergent_reads_the_declared_class():
    require_convergent(builtin_theta("inv-log-sq"))
    with pytest.raises(ProfileClassError, match="'inv-log' is declared "
                       "divergent: no compactly supported function"):
        require_convergent(builtin_theta("inv-log"))
    # the one message: the refusal is the plan's (SequencePlan), and
    # verify_decay, which reads the plan's profile, never sees a divergent one


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

