"""Decay-rate profiles Theta driving the compact-support construction.

A profile is a nonincreasing, nonnegative function on [0, inf).  The
construction that these profiles feed is possible precisely when

    int_1^inf Theta(t) / t dt < inf,

so every profile carries a declared_class of "convergent" or "divergent"
for that integral.  Divergent profiles are loadable (the calculus on them
is well defined) but the planners refuse them; the refusal is a
configuration error, not a numerical failure.

Builtins:
    inv-sqrt        (1+y)^{-1/2}          convergent
    inv-sqrt-strong 2*min(1, y^{-1/2})    convergent
    inv-log         1/log(e+y)            divergent
    inv-log-sq      1/log(e+y)^2          convergent
    zero            0                     convergent

Table profiles come from JSON configs; their abscissae must be finite,
and their values are forced nonincreasing with a running minimum and
extended by constants on both sides of the tabulated range.

Resolving a builtin name or the declared_class of a config needs no
numpy: it is imported where a profile is evaluated on an array and where
a table is validated, so the planners' refusal of a divergent builtin
runs without the numeric stack.  Each builtin formula is written once,
for numpy (ThetaProfile.__call__) or _ball.FLOATS (ThetaProfile.at, all
that planning the factor widths reads), so ingham-plan with a builtin
profile runs without numpy too.
"""

import math

from ._ball import FLOATS
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


def _builtin(xp, kind, y):
    """Theta(y) of a builtin kind at y >= 0, with the elementary functions
    of xp: numpy for an array, _ball.FLOATS for one float."""
    if kind == "inv-sqrt":
        return (1.0 + y) ** -0.5
    if kind == "inv-sqrt-strong":
        # 2 min(1, y^{-1/2}), which is 2 at y = 0
        return 2.0 * xp.where(y > 1.0, y, 1.0) ** -0.5
    if kind == "inv-log":
        return 1.0 / xp.log(math.e + y)
    if kind == "inv-log-sq":
        return xp.log(math.e + y) ** -2.0
    return xp.zeros_like(y)


class ThetaProfile(Record):
    """A decay profile: a builtin kind, or kind "table" with read-only
    float arrays y (abscissae) and vals (the running minimum of the
    tabulated values)."""

    __slots__ = ("name", "kind", "declared_class", "y", "vals")

    def __init__(self, name, kind, declared_class, y=None, vals=None):
        if declared_class not in _CLASSES:
            raise ProfileClassError(
                f"declared_class must be one of {_CLASSES}, got {declared_class!r}")
        if kind == "table":
            import numpy as np
            try:
                # a copy: the record freezes its y, never the caller's
                y = np.array(y, dtype=float)
                v = np.asarray(vals, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ProfileClassError(
                    f"table y and theta must be arrays of numbers: {exc}") from None
            if not np.all(np.isfinite(y)):
                raise ProfileClassError("table abscissae y must be finite")
            if y.ndim != 1 or y.size < 2 or np.any(np.diff(y) <= 0) or y[0] < 0:
                raise ProfileClassError("table abscissae must be >= 0, strictly increasing")
            if v.shape != y.shape or np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ProfileClassError("table values must be finite and nonnegative")
            vals = np.minimum.accumulate(v)
            y.setflags(write=False)
            vals.setflags(write=False)
        elif not isinstance(kind, str) or kind not in BUILTIN_THETAS:
            # a kind that is no string, as a JSON list, would not hash
            raise ProfileClassError(f"unknown profile kind {kind!r}")
        self._assign(name=name, kind=kind, declared_class=declared_class,
                     y=y, vals=vals)

    def __call__(self, t):
        import numpy as np
        y = np.abs(np.asarray(t, dtype=float))
        if self.kind == "table":
            return np.interp(y, self.y, self.vals,
                             left=self.vals[0], right=self.vals[-1])
        return _builtin(np, self.kind, y)

    def at(self, t):
        """Theta(|t|) at one number t, as a float: a builtin by its formula
        with FLOATS, within an ulp of __call__ (numpy's log and pow take
        SIMD code paths), and a table by __call__, which loads numpy."""
        y = abs(float(t))
        if self.kind == "table":
            return float(self(y))
        return _builtin(FLOATS, self.kind, y)

    @property
    def divergent(self):
        return self.declared_class == "divergent"


def require_convergent(profile,
                       consequence="no compactly supported function can have "
                                   "this spectral decay"):
    """Refuse a profile declared divergent: the construction needs
    int_1^inf Theta(t)/t dt < inf.  The check reads only the declared
    class, so it runs before any numerics."""
    if profile.divergent:
        raise ProfileClassError(
            f"profile {profile.name!r} is declared divergent: {consequence}")


def builtin_theta(name):
    if name not in BUILTIN_THETAS:
        raise ProfileClassError(
            f"no builtin profile {name!r}; choose from {sorted(BUILTIN_THETAS)}")
    return ThetaProfile(name=name, kind=name, declared_class=BUILTIN_THETAS[name])


def theta_from_config(obj):
    """Profile from a parsed JSON config {name, kind, declared_class[, y, theta]}."""
    try:
        name = obj["name"]
        kind = obj["kind"]
        declared = obj["declared_class"]
    except (KeyError, TypeError) as exc:
        raise ProfileClassError(f"profile config missing field: {exc}") from exc
    if kind == "table":
        if "y" not in obj or "theta" not in obj:
            raise ProfileClassError("table profile config needs 'y' and 'theta' arrays")
        return ThetaProfile(name=name, kind="table", declared_class=declared,
                            y=obj["y"], vals=obj["theta"])
    return ThetaProfile(name=name, kind=kind, declared_class=declared)


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
