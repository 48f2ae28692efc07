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

Table profiles come from JSON configs; their values are forced
nonincreasing with a running minimum and extended by constants on both
sides of the tabulated range.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ProfileClassError
from .jsonio import read_json

__all__ = [
    "ThetaProfile",
    "builtin_theta",
    "theta_from_config",
    "load_theta",
    "tail_integral_estimate",
    "BUILTIN_THETAS",
]

_CLASSES = ("convergent", "divergent")


def _inv_sqrt(y):
    return (1.0 + np.abs(y)) ** -0.5


def _inv_sqrt_strong(y):
    y = np.abs(y)
    with np.errstate(divide="ignore"):
        return 2.0 * np.minimum(1.0, np.where(y > 0, y, np.inf) ** -0.5)


def _inv_log(y):
    return 1.0 / np.log(np.e + np.abs(y))


def _inv_log_sq(y):
    return np.log(np.e + np.abs(y)) ** -2.0


def _zero(y):
    return np.zeros_like(np.asarray(y, dtype=float))


BUILTIN_THETAS = {
    "inv-sqrt": (_inv_sqrt, "convergent"),
    "inv-sqrt-strong": (_inv_sqrt_strong, "convergent"),
    "inv-log": (_inv_log, "divergent"),
    "inv-log-sq": (_inv_log_sq, "convergent"),
    "zero": (_zero, "convergent"),
}


@dataclass(frozen=True)
class ThetaProfile:
    name: str
    kind: str
    declared_class: str
    y: np.ndarray = field(default=None, repr=False)
    vals: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.declared_class not in _CLASSES:
            raise ProfileClassError(
                f"declared_class must be one of {_CLASSES}, got {self.declared_class!r}")
        if self.kind == "table":
            y = np.asarray(self.y, dtype=float)
            v = np.asarray(self.vals, dtype=float)
            if y.ndim != 1 or y.size < 2 or np.any(np.diff(y) <= 0) or y[0] < 0:
                raise ProfileClassError("table abscissae must be >= 0, strictly increasing")
            if v.shape != y.shape or np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ProfileClassError("table values must be finite and nonnegative")
            v = np.minimum.accumulate(v)
            y.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "vals", v)
        elif self.kind not in BUILTIN_THETAS:
            raise ProfileClassError(f"unknown profile kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "table":
            return np.interp(np.abs(t), self.y, self.vals,
                             left=self.vals[0], right=self.vals[-1])
        return BUILTIN_THETAS[self.kind][0](t)

    @property
    def divergent(self):
        return self.declared_class == "divergent"


def builtin_theta(name):
    if name not in BUILTIN_THETAS:
        raise ProfileClassError(
            f"no builtin profile {name!r}; choose from {sorted(BUILTIN_THETAS)}")
    return ThetaProfile(name=name, kind=name, declared_class=BUILTIN_THETAS[name][1])


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
                            y=np.array(obj["y"], dtype=float),
                            vals=np.array(obj["theta"], dtype=float))
    if kind not in BUILTIN_THETAS:
        raise ProfileClassError(f"unknown profile kind {kind!r}")
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


def tail_integral_estimate(profile, lo=1.0, hi=1e8, nodes=4097):
    """Trapezoid estimate of int_lo^hi Theta(t)/t dt on a log-spaced grid."""
    t = np.geomspace(lo, hi, nodes)
    x = np.log(t)
    vals = profile(t)
    return float(np.trapezoid(vals, x))
