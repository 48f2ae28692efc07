"""The record contract: immutable after construction, refusals unchanged,
identity equality for records that hold arrays and value equality for
RunConfig."""

import math

import numpy as np
import pytest

from heisharm.chernoff import NormGrowthProfile
from heisharm.cli import RunConfig
from heisharm.errors import (DimensionMismatchError, DomainError,
                             GridMismatchError, ProfileClassError)
from heisharm.grids import QuadratureGrid
from heisharm.plan import SequencePlan
from heisharm.theta import ThetaProfile, builtin_theta
from heisharm.transform import SpectralCoefficients

from oracles import RadialFunction, box_factor


def _grid():
    return QuadratureGrid(k_max=4, lambda_min=0.1, lambda_max=10.0,
                          lambda_nodes=8)


def _plan():
    return SequencePlan(theta=builtin_theta("inv-sqrt"), n=1, J=3,
                        c_n=1.0, rho=[1.0, 0.5, 0.25], tau=[1.0, 0.5, 0.25])


def _table():
    return ThetaProfile(name="t", declared_class="convergent",
                        y=[0.0, 1.0, 2.0], vals=[1.0, 0.5, 0.2])


def _coeffs():
    grid = _grid()
    return SpectralCoefficients(n=1, grid=grid,
                                values=np.ones((grid.k_max + 1, grid.lam.size)))


RECORDS = {
    "ThetaProfile": lambda: builtin_theta("inv-sqrt"),
    "ThetaProfile-table": _table,
    "QuadratureGrid": _grid,
    "SpectralCoefficients": _coeffs,
    "SequencePlan": _plan,
    "NormGrowthProfile": lambda: NormGrowthProfile(np.zeros(3), np.zeros(2),
                                                   np.zeros(2)),
    "RadialFunction": lambda: box_factor(1, 1.0, 1.0),
}
ARRAY_RECORDS = {k: v for k, v in RECORDS.items() if k != "ThetaProfile"}


@pytest.mark.parametrize("make", [*RECORDS.values(),
                                  lambda: RunConfig("laguerre-check")],
                         ids=[*RECORDS, "RunConfig"])
def test_records_refuse_assignment(make):
    record = make()
    name = (getattr(record, "_fields", None) or type(record).__slots__)[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 7)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(make):
    one, two = make(), make()
    # no elementwise comparison of the held arrays, so no ValueError
    assert one == one and not one != one
    assert one != two and not one == two
    assert hash(one) == hash(one)
    assert len({one, two, one}) == 2


def test_grid_value_comparison_is_same_as():
    one, two = _grid(), _grid()
    assert one != two
    assert one.same_as(two)
    assert not one.same_as(QuadratureGrid(k_max=5, lambda_min=0.1,
                                          lambda_max=10.0, lambda_nodes=8))


def test_run_config_compares_by_value():
    one = RunConfig("ingham-verify", k_max=12, factors="0.9,0.8,0.7,0.6")
    two = RunConfig("ingham-verify", k_max=12.0)
    assert one == two and hash(one) == hash(two)
    assert one != RunConfig("ingham-verify", k_max=13)
    assert {one, two} == {one}


# constructor, its arguments, and the exception type and message it raises
REFUSALS = [
    (ThetaProfile, dict(name="b", declared_class="sideways",
                        y=[0.0, 1.0, 2.0], vals=[1.0, 0.5, 0.2]),
     ProfileClassError, "declared_class must be one of ('convergent', "
                        "'divergent'), got 'sideways'"),
    (ThetaProfile, dict(name="cubic", declared_class="convergent"),
     ProfileClassError, "table y must hold numbers only, got None"),
    (ThetaProfile, dict(name="b", declared_class="convergent",
                        y=[0.0, np.nan, 2.0], vals=[1.0, 0.5, 0.2]),
     ProfileClassError, "table abscissae y must be finite"),
    (ThetaProfile, dict(name="b", declared_class="convergent",
                        y=[0.0, 2.0, 1.0], vals=[1.0, 0.5, 0.2]),
     ProfileClassError, "table abscissae must be >= 0, strictly increasing"),
    (ThetaProfile, dict(name="b", declared_class="convergent",
                        y=[0.0, 1.0, 2.0], vals=[1.0, -0.5, 0.2]),
     ProfileClassError, "table values must be finite and nonnegative"),
    (QuadratureGrid, dict(k_max=0, lambda_min=1.0, lambda_max=2.0, lambda_nodes=2),
     DomainError, "k_max must be >= 1"),
    # windows so narrow that rounding merges two nodes, or two logs
    (QuadratureGrid, dict(k_max=2, lambda_min=1e300,
                          lambda_max=1e300 + 2 * math.ulp(1e300), lambda_nodes=3),
     DomainError, "lambda nodes must be positive, ascending, nonzero"),
    (QuadratureGrid, dict(k_max=2, lambda_min=1e300,
                          lambda_max=1e300 + math.ulp(1e300), lambda_nodes=2),
     DomainError, "lambda weights must be positive and match the nodes"),
    (SequencePlan, dict(theta=builtin_theta("inv-sqrt"), n=1, J=3,
                        c_n=1.0, rho=[1.0, 2.0, 3.0], tau=[1.0, 0.5, 0.25]),
     DomainError, "factor widths must be nonincreasing"),
    (SequencePlan, dict(theta=builtin_theta("inv-sqrt"), n=1, J=3,
                        c_n=1.0, rho=[1.0, 0.5], tau=[1.0, 0.5]),
     DomainError, "plan sequences must have length J"),
    (SequencePlan, dict(theta=builtin_theta("inv-sqrt"), n=1, J=3,
                        c_n=1.0, rho=[1.0, 0.5, 0.0], tau=[1.0, 0.5, 0.25]),
     DomainError, "factor widths must be strictly positive"),
    (RadialFunction, dict(n=0, profile=abs, t_hat=abs, support_radius=1.0),
     DimensionMismatchError, "n must be a positive integer"),
    (RadialFunction, dict(n=1, profile=abs, t_hat=abs, support_radius=0.0),
     DomainError, "support_radius must be positive"),
    (RunConfig, dict(command="no-such-command"),
     DomainError, "unknown command 'no-such-command'"),
    (RunConfig, dict(command="laguerre-check", lambda_nodes=1),
     DomainError, "lambda_nodes must be at least 2, got 1"),
    (RunConfig, dict(command="laguerre-check", lambda_min=2.0, lambda_max=1.0),
     DomainError, "need 0 < lambda_min < lambda_max, got "
                  "lambda_min = 2.0 and lambda_max = 1.0"),
    (RunConfig, dict(command="laguerre-check", factors=(1.0, 1.0, 1.0)),
     DomainError, "factors must be four positive reals "
                  "rho1,tau1,rho2,tau2, got [1.0, 1.0, 1.0]"),
    (RunConfig, dict(command="laguerre-check", dilation=0.0),
     DomainError, "dilation must be positive, got 0.0"),
    (RunConfig, dict(command="laguerre-check", max_power=0),
     DomainError, "max_power must be a positive integer, got 0"),
    (RunConfig, dict(command="laguerre-check", n=None),
     DomainError, "n must be an integer, got None"),
    # a plan holds its profile and refuses one declared divergent
    (SequencePlan, dict(theta=builtin_theta("inv-log"), n=1, J=3,
                        c_n=1.0, rho=[1.0, 0.5, 0.25], tau=[1.0, 0.5, 0.25]),
     ProfileClassError, "profile 'inv-log' is declared divergent: no compactly "
                        "supported function can have this spectral decay"),
    # a builtin's class is the package's, and a table's name is its own
    (ThetaProfile, dict(name="inv-log", declared_class="convergent"),
     ProfileClassError, "'inv-log' names a builtin profile, divergent by the "
                        "package; a table needs a name of its own"),
    (ThetaProfile, dict(name="inv-sqrt", declared_class="convergent",
                        y=[0.0, 1.0], vals=[1.0, 1.0]),
     ProfileClassError, "'inv-sqrt' names a builtin profile, convergent by the "
                        "package; a table needs a name of its own"),
    (ThetaProfile, dict(name="x\ny", declared_class="convergent",
                        y=[0.0, 1.0], vals=[1.0, 1.0]),
     ProfileClassError, "profile name must be a nonempty string of printable "
                        "characters, got 'x\\ny'"),
    (ThetaProfile, dict(name="b", declared_class="convergent",
                        y=[False, True], vals=[1.0, 1.0]),
     ProfileClassError, "table y must hold numbers only, got False"),
    (RunConfig, dict(command="laguerre-check", n=0),
     DomainError, "n must be at least 1, got 0"),
    (RunConfig, dict(command="laguerre-check", k_max=0),
     DomainError, "k_max must be at least 1, got 0"),
    # the grid's window, refused by _ball.lambda_window
    (QuadratureGrid, dict(k_max=2, lambda_min=2.0, lambda_max=1.0, lambda_nodes=2),
     DomainError, "need 0 < lambda_min < lambda_max"),
    (QuadratureGrid, dict(k_max=2, lambda_min=1.0, lambda_max=2.0, lambda_nodes=1),
     DomainError, "need at least two lambda nodes"),
]


# A case keeps its number as its name; the numbers of retired cases stay
# unused (11 and 12 were the two refusals of the deleted HeisenbergPoint).
_RETIRED = {11, 12}
_CASE_NUMBERS = [i for i in range(len(REFUSALS) + len(_RETIRED)) if i not in _RETIRED]


@pytest.mark.parametrize("cls, kwargs, exc, message", REFUSALS,
                         ids=[f"{r[0].__name__}-{i}"
                              for i, r in zip(_CASE_NUMBERS, REFUSALS)])
def test_record_refusals(cls, kwargs, exc, message):
    with pytest.raises(exc) as info:
        cls(**kwargs)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_spectral_coefficients_refusals():
    grid = _grid()
    want = (grid.k_max + 1, grid.lam.size)
    cases = [
        (dict(values=np.ones((2, 3))), GridMismatchError,
         f"values shape (2, 3) != {want} from grid"),
        (dict(values=np.full(want, np.nan)), DomainError,
         "coefficient values must be finite"),
        (dict(values=np.ones(want), n=0), DimensionMismatchError,
         "n must be a positive integer"),
    ]
    for kw, exc, message in cases:
        args = {"n": 1, "grid": grid, **kw}
        with pytest.raises(exc) as info:
            SpectralCoefficients(**args)
        assert type(info.value) is exc and str(info.value) == message


def test_with_values_validates_and_copies():
    c = _coeffs()
    shape = c.values.shape
    with pytest.raises(GridMismatchError) as info:
        c.with_values(np.ones((shape[0], shape[1] + 1)))
    assert str(info.value) == (f"values shape {(shape[0], shape[1] + 1)} != "
                               f"{shape} from grid")
    bad = np.ones(shape)
    bad[1, 2] = np.inf
    with pytest.raises(DomainError, match="coefficient values must be finite"):
        c.with_values(bad)
    src = np.full(shape, 2.0)
    d = c.with_values(src)
    assert d is not c and d.grid is c.grid and d.n == c.n
    assert d.values is not src and not d.values.flags.writeable
    assert np.array_equal(d.values, src)


def test_array_fields_are_read_only():
    table, plan, grid = _table(), _plan(), _grid()
    for arr in (table.y, table.vals, grid.lam, grid.lam_log_w, _coeffs().values):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    # a plan's widths are tuples of floats, frozen as the record is
    for seq in (plan.rho, plan.tau):
        assert type(seq) is tuple and all(type(v) is float for v in seq)


def test_records_copy_the_callers_arrays():
    # the records freeze what they hold, never the array they were given
    rho, tau, y = np.array([1.0, 0.5]), np.array([1.0, 0.25]), np.array([0.0, 1.0])
    plan = SequencePlan(theta=builtin_theta("inv-sqrt"), n=1, J=2,
                        c_n=1.0, rho=rho, tau=tau)
    table = ThetaProfile(name="t", declared_class="convergent",
                         y=y, vals=[1.0, 0.5])
    assert y.flags.writeable and not table.y.flags.writeable
    assert table.y is not y and np.array_equal(table.y, y)
    # the plan's widths are tuples of floats copied from the caller's arrays
    for given, held in ((rho, plan.rho), (tau, plan.tau)):
        assert type(held) is tuple and all(type(v) is float for v in held)
        assert held == tuple(given.tolist())
        given[0] = 7.0
        assert held[0] == 1.0
