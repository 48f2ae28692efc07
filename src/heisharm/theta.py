"""Decay-rate profiles Theta driving the compact-support construction.

A profile is a nonincreasing, nonnegative function on [0, inf).  The
construction that these profiles feed is possible precisely when

    int_1^inf Theta(t) / t dt < inf,

so every profile has a declared_class of "convergent" or "divergent"
for that integral.  Divergent profiles are loadable (the calculus on them
is well defined) but a plan refuses them; the refusal is a configuration
error, not a numerical failure.

Builtins, each a name with the package's class, which no argument sets:
    inv-sqrt        (1+y)^{-1/2}          convergent
    inv-sqrt-strong 2*min(1, y^{-1/2})    convergent
    inv-log         1/log(e+y)            divergent
    inv-log-sq      1/log(e+y)^2          convergent
    zero            0                     convergent

Table profiles come from JSON configs, each under a name of its own; their
abscissae must be finite, and their values are forced nonincreasing with a
running minimum and extended by constants beyond the tabulated range.

Resolving a builtin name, and refusing a config's kind, name or class,
needs no numpy: it is imported where a profile is evaluated on an array
and where a table is validated, so the planners' refusal of a divergent
builtin runs without the numeric stack.  Each builtin formula is written
once, for numpy (ThetaProfile.__call__) or _ball.FLOATS (ThetaProfile.at,
all that planning the factor widths and checking the gamma hypothesis
read), so ingham-plan with a builtin profile runs without numpy too.  A
table's at interpolates with np.interp's formula on Python floats
(_ball.interp), so it costs no numpy call per float either.
"""

import math
import sys

from ._ball import FLOATS, interp
from ._record import Record
from .errors import ProfileClassError
from .jsonio import read_json

__all__ = [
    "ThetaProfile",
    "builtin_theta",
    "theta_from_config",
    "load_theta",
    "require_convergent",
    "BUILTIN_THETAS",
]

_CLASSES = ("convergent", "divergent")

# name -> declared class; _builtin holds the formulas, for one float
# (ThetaProfile.at) or an array (ThetaProfile.__call__)
BUILTIN_THETAS = {
    "inv-sqrt": "convergent",
    "inv-sqrt-strong": "convergent",
    "inv-log": "divergent",
    "inv-log-sq": "convergent",
    "zero": "convergent",
}


def _builtin(xp, name, y):
    """Theta(y) of the builtin name at y >= 0, with the elementary functions
    of xp: numpy for an array, _ball.FLOATS for one float."""
    if name == "inv-sqrt":
        return (1.0 + y) ** -0.5
    if name == "inv-sqrt-strong":
        # 2 min(1, y^{-1/2}), which is 2 at y = 0
        return 2.0 * xp.where(y > 1.0, y, 1.0) ** -0.5
    if name == "inv-log":
        return 1.0 / xp.log(math.e + y)
    if name == "inv-log-sq":
        return xp.log(math.e + y) ** -2.0
    return xp.zeros_like(y)


def _require_numbers(field, values):
    """Refuse the table column field unless it is a list of numbers: numpy
    would read the strings "0" and "1", and the booleans false and true, as
    numbers.  A float passes whatever its value, and so does None, a JSON
    null read as nan: the table checks refuse those as not finite.  An int
    passes where a float holds it."""
    try:
        bad = [values] if isinstance(values, str) else [
            v for v in values if not (v is None or isinstance(v, float) or
                                      type(v) is int and abs(v) <= sys.float_info.max)]
    except TypeError:
        bad = [values]
    if bad:
        raise ProfileClassError(f"table {field} must hold numbers only, "
                                f"got {bad[0]!r}")


class ThetaProfile(Record):
    """A decay profile: a builtin, named in BUILTIN_THETAS and of its class
    there, or a table under a name of its own and of the class it declares,
    with read-only float arrays y (abscissae) and vals (running minimum),
    held again as Python floats for at, one one-value row per node as
    _ball.interp reads them."""

    __slots__ = ("name", "declared_class", "y", "vals", "_points")

    def __init__(self, name, declared_class=None, y=None, vals=None):
        # a name heads the summary line a terminal prints: one printable line
        if not isinstance(name, str) or not name or not name.isprintable():
            raise ProfileClassError(f"profile name must be a nonempty string of "
                                    f"printable characters, got {name!r}")
        if name in BUILTIN_THETAS:
            # a builtin is its name, and its class is the package's
            if any(v is not None for v in (declared_class, y, vals)):
                raise ProfileClassError(
                    f"{name!r} names a builtin profile, {BUILTIN_THETAS[name]} "
                    f"by the package; a table needs a name of its own")
            declared_class = BUILTIN_THETAS[name]
        else:
            if declared_class not in _CLASSES:
                raise ProfileClassError(
                    f"declared_class must be one of {_CLASSES}, got {declared_class!r}")
            _require_numbers("y", y)
            _require_numbers("theta", vals)
            import numpy as np
            # a copy: the record freezes its y, never the caller's
            y = np.array(y, dtype=float)
            v = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(y)):
                raise ProfileClassError("table abscissae y must be finite")
            if y.ndim != 1 or y.size < 2 or np.any(np.diff(y) <= 0) or y[0] < 0:
                raise ProfileClassError("table abscissae must be >= 0, strictly increasing")
            if v.shape != y.shape or np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ProfileClassError("table values must be finite and nonnegative")
            vals = np.minimum.accumulate(v)
            y.setflags(write=False)
            vals.setflags(write=False)
        points = None if y is None else (y.tolist(), [[v] for v in vals.tolist()])
        self._assign(name=name, declared_class=declared_class, y=y, vals=vals,
                     _points=points)

    def __call__(self, t):
        import numpy as np
        y = np.abs(np.asarray(t, dtype=float))
        if self.y is not None:
            return np.interp(y, self.y, self.vals,
                             left=self.vals[0], right=self.vals[-1])
        return _builtin(np, self.name, y)

    def at(self, t):
        """Theta(|t|) at one number t, as a float: a builtin by its formula
        with FLOATS, within an ulp of __call__ (numpy's log and pow take
        SIMD code paths), and a table as __call__ gives it, by np.interp's
        formula with y clamped to the table, where the end values hold."""
        y = abs(float(t))
        if self._points is not None:
            ys, vals = self._points
            return interp(min(max(y, ys[0]), ys[-1]), ys, vals.__getitem__)[0]
        return _builtin(FLOATS, self.name, y)


def require_convergent(profile):
    """Refuse a profile declared divergent: the construction needs
    int_1^inf Theta(t)/t dt < inf.  The check reads only the declared
    class, so it runs before any numerics."""
    if profile.declared_class == "divergent":
        raise ProfileClassError(
            f"profile {profile.name!r} is declared divergent: no compactly "
            f"supported function can have this spectral decay")


def builtin_theta(name):
    if name not in BUILTIN_THETAS:
        raise ProfileClassError(
            f"no builtin profile {name!r}; choose from {sorted(BUILTIN_THETAS)}")
    return ThetaProfile(name=name)


def theta_from_config(obj):
    """Table profile from a parsed JSON config {name, kind: "table",
    declared_class, y, theta}: a builtin is chosen by its name alone."""
    try:
        name, kind, declared = obj["name"], obj["kind"], obj["declared_class"]
        if kind != "table":
            raise ProfileClassError(f"profile config kind must be 'table', got "
                                    f"{kind!r}; a builtin is chosen by its name alone")
        y, vals = obj["y"], obj["theta"]
    except (KeyError, TypeError) as exc:
        raise ProfileClassError(f"profile config missing field: {exc}") from exc
    return ThetaProfile(name=name, declared_class=declared, y=y, vals=vals)


def load_theta(source):
    """Resolve a profile from a builtin name or a JSON config path."""
    if source in BUILTIN_THETAS:
        return builtin_theta(source)
    try:
        obj = read_json(source)
    except OSError as exc:
        raise ProfileClassError(
            f"{source!r} is neither a builtin profile nor a readable config") from exc
    except ValueError as exc:
        raise ProfileClassError(f"profile config {source!r} is not valid JSON") from exc
    return theta_from_config(obj)
