"""The registry of closed-form domains walked form by form.

Each closed form states its domain beside its formula: the *_domain
generators of heisharm._ball and heisharm._gaussian yield the checks
(option, x, forms, at) that require_doubles runs.  At each setting below,
every check's tightest limit on each side is found from the forms the
registry yields.  Just inside it, the function the form guards returns
finite values with no numpy warning; just outside, the command refuses
with that form's line.  So a formula that its stated form no longer
matches goes red here.  The refusals that are not forms of the solver (an
n past MAX_N, the overlap angle's width ratio, dilate-check's n limit and
the Gaussian norm's) are pinned by the tests of test_cli.py."""

import math
import re
import warnings
from itertools import chain

import numpy as np
import pytest

from heisharm._ball import (_LOG_HUGE, _LOG_TINY, box_domain, box_norm,
                            convolution_domain, require_doubles)
from heisharm._gaussian import dilation_domain, dilation_gap
from heisharm.errors import DomainError
from heisharm.cli import _CONVOLVE_TOL, _GAUSSIAN, main
from heisharm.grids import QuadratureGrid
from heisharm.transform import (box_coefficients, box_convolution_coefficients,
                                box_convolution_grids, box_pair_convolution)

from oracles import gaussian_coefficients

# convolve-check with two long intervals: rho1 is bounded above by the
# spatial side's height underflowing, and tau1 and tau2 below where their
# squares fall below the smallest normal double
_WIDE_TAUS = ("convolve-check", 1, 0.15, 1.8, 4, (1.0, 1e4, 1.0, 1e4), None)

# (command, n, lambda_min, lambda_max, lambda_nodes, factors, dilation): the
# settings the registry is walked at, chosen so that every form it yields
# binds at one of them or is listed in _DOMINATED.  576 nodes keep the
# measure's trapezoid scale at 1 out to the largest lambda_max, so its
# limit does not move with lambda_max itself
_SETTINGS = [
    ("plancherel-check", 1, 1e-4, 100.0, 576, (1.0, 1.0, 1.0, 1.0), None),
    ("plancherel-check", 1, 1e-4, 0.5, 8, (1.0, 1.0, 1.0, 1.0), None),
    ("plancherel-check", 1, 1e16, 1e17, 8, (1.0, 1.0, 1.0, 1.0), None),
    ("plancherel-check", 3, 1e-4, 100.0, 8, (1.0, 2.0, 1.0, 1.0), None),
    ("plancherel-check", 3, 1e-4, 100.0, 8, (1.0, 0.5, 1.0, 1.0), None),
    ("plancherel-check", 1, 1e-4, 100.0, 8, (1.0, 1e-160, 1.0, 1.0), None),
    ("plancherel-check", 150, 0.1, 60.0, 8, (0.3, 1.0, 1.0, 1.0), None),
    ("convolve-check", 1, 0.15, 1.8, 4, (0.9, 0.8, 0.7, 0.6), None),
    ("convolve-check", 1, 0.15, 1.8, 4, (1e40, 1e-80, 1e40, 1e-70), None),
    ("convolve-check", 1, 0.15, 0.5, 4, (1.0, 1e100, 1.0, 1e100), None),
    ("convolve-check", 1, 1e300, 1e301, 4, (1.0, 1.0, 1.0, 1.0), None),
    ("convolve-check", 1, 0.15, 1.8, 4, (0.9, 0.8, 1e-100, 1e-100), None),
    _WIDE_TAUS,
    ("convolve-check", 1, 0.15, 1.8, 4, (1e-81, 1e5, 1e-80, 1e5), None),
    ("dilate-check", 1, 1e-3, 1e3, 8, None, 1.4),
    ("dilate-check", 1, 1e-3, 1e3, 8, None, 0.5),
    ("dilate-check", 120, 1.0, 1e6, 2, None, 0.2),
]

# forms the registry yields that bind at no setting, each with why: on the
# same side of the same option another form is always tighter
_DOMINATED = {
    "rhoN^-N overflows":
        "(lambda_min rho1^2)^-n overflows first: rho1^-n is the tighter only "
        "for lambda_min past e^(709.78/n), where the lambda measure overflows",
    "r^-N underflows to N": "r^k overflows first, at e^(709.78/k)",
    "r^N underflows to N": "r^-k overflows first, at e^(-709.78/k)",
}


def _checks(command, n, lo, hi, nodes, factors, r):
    """The registry's checks of command at one setting, in the order the
    command runs them."""
    if command == "plancherel-check":
        return box_domain(n, lo, hi, 1, *factors[:2], nodes)
    if command == "convolve-check":
        return chain(box_domain(n, lo, hi, 1, *factors[:2]),
                     box_domain(n, lo, hi, 2, *factors[2:]),
                     convolution_domain(hi, *factors, _CONVOLVE_TOL))
    return dilation_domain(n, _GAUSSIAN, r, lo, hi, nodes)


def _edges(forms):
    """(limit on x, upper, 'name fate') of every edge of forms the solver
    refuses at, where a double x can cross it."""
    for p, c, name, floor in forms:
        for edge, fate in ((_LOG_HUGE, "overflows"), *([floor] if floor else [])):
            log_limit = (edge - c) / p
            if _LOG_TINY < log_limit < _LOG_HUGE:
                yield (math.exp(log_limit), (edge > 0) == (p > 0), f"{name} {fate}")


def _yielded(setting):
    """The checks the registry yields at setting, up to a refusal that is
    not a form of the solver."""
    checks = []
    try:
        checks.extend(_checks(*setting))
    except DomainError:
        pass
    return checks


def _binding(setting, option, upper):
    """('name fate', limit) of the tightest limit on one side of option over
    the checks at setting, followed to where it stops moving with the value
    of option itself; None where there is none, where a value just inside
    it is refused, or where just outside it an earlier check's equal limit
    refuses first."""
    x = None
    for _ in range(8):
        side = [e for o, _, forms, _ in _yielded(
                    setting if x is None else _with(setting, option, x))
                if o == option for e in _edges(forms) if e[1] is upper]
        if not side:
            return None
        limit, _, form = (min if upper else max)(side)
        if x is not None and math.isclose(limit, x, rel_tol=1e-12):
            break
        x = limit
    try:
        require_doubles(_checks(*_with(setting, option, _step(limit, upper, -1))))
    except DomainError:
        return None
    try:
        require_doubles(_checks(*_with(setting, option, _step(limit, upper, 1))))
    except DomainError as exc:
        if str(exc).startswith(option) and f", where {form}; got " in str(exc):
            return form, limit
    return None


def _step(limit, upper, sign):
    """A value just outside limit (sign 1) or just inside it (sign -1)."""
    return limit * (1.0 + sign * (1e-9 if upper else -1e-9))


def _cases():
    """(setting, option, upper, 'name fate', limit) of the binding limit on
    each side of every option the checks bound, at every setting."""
    for setting in _SETTINGS:
        for option in dict.fromkeys(o for o, *_ in _yielded(setting)):
            for upper in (True, False):
                found = _binding(setting, option, upper)
                if found:
                    yield (setting, option, upper, *found)


def _normalized(form):
    """form with each number in it written N."""
    return re.sub(r"\d+(\.\d+)?(e[+-]\d+)?", "N", form)


def _with(setting, option, x):
    """setting with the value of option replaced by x."""
    command, n, lo, hi, nodes, factors, r = setting
    if option == "lambda_max":
        hi = x
    elif option == "dilation":
        r = x
    else:
        factors = list(factors)
        factors["rho1 tau1 rho2 tau2".split().index(option.split()[1])] = x
        factors = tuple(factors)
    return command, n, lo, hi, nodes, factors, r


def _guarded(setting, option, form):
    """The values of the function the form guards at setting."""
    command, n, lo, hi, nodes, factors, r = setting
    grid = QuadratureGrid(2, lo, hi, nodes)
    if command == "dilate-check":
        values = list(dilation_gap(n, _GAUSSIAN, r, 2, lo, hi, nodes))
        for sz, st in (_GAUSSIAN, (_GAUSSIAN[0] / r, _GAUSSIAN[1] / r ** 2)):
            values.append(gaussian_coefficients(n, sz, st, grid).values)
        return values
    if option == "lambda_max" and command == "plancherel-check":
        return [grid.lambda_measure_weights(n)]
    if option == "lambda_max":
        return [box_convolution_coefficients(*factors, [hi], 1)]
    rho, tau = factors[2 * int(option[-1]) - 2:2 * int(option[-1])]
    if form.startswith("rho1^-"):
        return [box_norm(n, rho, tau)]
    if "/(" in form or "rho2^2" in form or "normal" in form:
        # at the ends of the sampling grids convolve-check evaluates it on
        x, _, t, _ = box_convolution_grids(*factors)
        return [box_pair_convolution(*factors, x[[0, -1], None], t[None, [0, -1]])]
    return [box_coefficients(n, rho, tau, grid).values]


_CASES = list(_cases())


def test_every_registered_form_binds_somewhere_or_is_dominated():
    # the settings walk every form the registry yields: a new form binds
    # at a setting below or states here why it never can
    yielded = {_normalized(form) for setting in _SETTINGS
               for _, _, forms, _ in _checks(*setting) for *_, form in _edges(forms)}
    bound = {_normalized(form) for _, _, _, form, _ in _CASES}
    assert sorted(yielded - bound) == sorted(_DOMINATED)


@pytest.mark.parametrize("setting, option, upper, form, limit", [
    pytest.param(*case, id=f"{case[0][0]}-n{case[0][1]}-{case[1]}-{case[3]}")
    for case in _CASES])
def test_registered_form_holds_inside_and_refuses_outside(
        tmp_path, monkeypatch, capsys, setting, option, upper, form, limit):
    inside = _with(setting, option, _step(limit, upper, -1))
    outside = _with(setting, option, _step(limit, upper, 1))
    # just inside, where every check passes (_binding), the guarded
    # function is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.all(np.isfinite(v)) for v in _guarded(inside, option, form))
    # just outside: the command refuses with this form's line
    command, n, lo, hi, nodes, factors, r = outside
    argv = [command, "--lambda-min", repr(lo), "--lambda-max", repr(hi),
            "--lambda-nodes", str(nodes), "--kmax", "2"]
    if command == "dilate-check":
        argv += ["--n", str(n), "--dilation", repr(r)]
    else:
        argv += ["--n", str(n), "--factors", ",".join(map(repr, factors))]
    if command == "plancherel-check":
        argv += ["--family", "box"]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "r.json"]) == 2
    x = {"lambda_max": hi, "dilation": r}.get(option)
    x = factors["rho1 tau1 rho2 tau2".split().index(option[8:])] if x is None else x
    err = capsys.readouterr().err
    assert err.startswith(f"heisharm {command}: refused: {option} must stay "
                          f"{'below' if upper else 'above'} ")
    assert err.endswith(f", where {form}; got {x:g}\n")
