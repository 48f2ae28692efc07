"""Command-line front end: one subcommand per certified check.

Every run resolves a single RunConfig (flags override a JSON config file,
which overrides built-in defaults, and an option the command does not read
is refused), dispatches to exactly one library operation family, writes one
JSON report atomically, and prints one summary line.  Exit status is the
contract: 0 when the certified check passed, 1 when it completed and failed,
2 for configuration or usage errors and for every refusal the library
raises (any HeisharmError).

Reports never embed timestamps or environment data, so identical configs
and fixtures give byte-identical files on every run.
"""

import math
import os
import sys
from collections import namedtuple

from .errors import DomainError, HeisharmError, HypothesisError
from .jsonio import atomic_write_text, read_json, write_json

# each subcommand imports numpy and the library names it calls in its own
# body, so a run loads only the modules of the check it makes, and --help,
# usage errors and config refusals load no numpy at all

__all__ = ["RunConfig", "console_main", "main"]

_KINDS = {str: "a string", int: "an integer", float: "a finite number"}


def _typed(name, kind, value):
    """value as the type kind that _OPTIONS declares for the option name:
    numbers must be finite and integers integral, and factors may be one
    comma-separated string.  Anything else is refused naming the option."""
    if kind is tuple:
        if isinstance(value, str):
            try:
                value = [float(v) for v in value.split(",")]
            except ValueError:
                raise DomainError(f"cannot parse {name} {value!r}") from None
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"{name} must be a list of numbers, got {value!r}")
        return tuple(_typed(name, float, v) for v in value)
    if kind is str:
        ok = isinstance(value, str)
    else:
        # the bound refuses nan and inf, and integers no float can hold
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max
              and (kind is float or value == int(value)))
    if not ok:
        raise DomainError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


# name, type, default, help: each option is a flag (_flag), a config-file key
# and a field of RunConfig, and its default applies where neither the
# command, the config file nor a flag sets it
_OPTIONS = (
    ("theta", str, "inv-sqrt", "decay profile: builtin name or JSON config path"),
    ("n", int, 1, "group dimension n"),
    ("k_max", int, 64, "Laguerre truncation degree"),
    ("lambda_min", float, 1e-2, "smallest lambda node"),
    ("lambda_max", float, 1e2, "largest lambda node"),
    ("lambda_nodes", int, 192, "number of log-spaced lambda nodes"),
    ("out", str, "report.json", "report path (default report.json)"),
    ("fixtures", str, None,
     "directory overriding the packaged calibration fixtures"),
    ("family", str, None, "test family where the command offers several"),
    ("dilation", float, 1.4, "dilation factor for dilate-check"),
    ("factors", tuple, (0.9, 0.8, 0.7, 0.6),
     "box factor widths R1,T1,R2,T2 for convolve/plancherel checks"),
    ("max_power", int, None, "highest sublaplacian power"),
    ("chain_length", int, 16, "number of factors J in the chain plan"),
)
_NAMES = tuple(name for name, *_ in _OPTIONS)


class RunConfig(namedtuple("RunConfig", ("command",) + _NAMES)):
    """Resolved settings of one CLI run: the command and one field per
    option of _OPTIONS, each checked against its declared type.  Configs
    compare by value."""

    __slots__ = ()

    def __new__(cls, command, **options):
        if command not in _COMMANDS:
            raise DomainError(f"unknown command {command!r}")
        unknown = sorted(set(options).difference(_NAMES))
        if unknown:
            raise TypeError(f"unknown RunConfig options: {', '.join(unknown)}")
        values = []
        for name, kind, default, _ in _OPTIONS:
            value = options.get(name, default)
            if value is not None or default is not None:
                value = _typed(name, kind, value)
            values.append(value)
        self = super().__new__(cls, command, *values)
        if self.n < 1 or self.k_max < 1 or self.lambda_nodes < 2:
            raise DomainError("grid controls must be positive")
        if not (0 < self.lambda_min < self.lambda_max):
            raise DomainError("need 0 < lambda_min < lambda_max")
        if len(self.factors) != 4 or any(v <= 0 for v in self.factors):
            raise DomainError("factors must be four positive reals "
                              "rho1,tau1,rho2,tau2")
        if not self.dilation > 0:
            raise DomainError("dilation must be positive")
        if self.max_power is not None and self.max_power < 1:
            raise DomainError("max_power must be a positive integer")
        return self

    def grid(self):
        from .grids import QuadratureGrid
        return QuadratureGrid.make(self.k_max, self.lambda_min, self.lambda_max,
                                   self.lambda_nodes)


def _cmd_laguerre_check(cfg):
    from .fixtures import load_fixture
    from .laguerre import envelope_check, orthonormality_defect
    gram_k = min(cfg.k_max, 40)
    defects = {str(d): orthonormality_defect(gram_k, d) for d in (0, 1, 2, 3)}
    worst = max(defects.values())
    env = envelope_check(load_fixture("lemma21_constants.json", cfg.fixtures), cfg.k_max)
    ok = worst <= 1e-8 and env["violations"] == 0
    return {
        "gram": {"k_max": gram_k, "defects": defects, "max_defect": worst,
                 "tol": 1e-8},
        "envelope": env,
        "pass": bool(ok),
    }, (f"gram_defect={worst:.3e} "
        f"envelope_violations={env['violations']}/{env['points']}")


_PLANCHEREL_TOL = 1e-4
# widths sz, st of the Gaussian that plancherel- and dilate-check transform
_GAUSSIAN = (2.0, 0.2)
# the box's closed form divides by n! (_special.gammainc_int), and 171! is
# past the largest float
_BOX_MAX_N = 170


# logs of the largest and the smallest positive double, pulled in by a
# relative 1e-12 so that a log's rounding cannot pass a form out of range
_LOG_HUGE = math.log(sys.float_info.max) * (1.0 - 1e-12)
_LOG_TINY = math.log(math.ulp(0.0)) * (1.0 - 1e-12)


def _require_doubles(option, x, forms, at=""):
    """Refuse the value x of option where one of forms, the closed forms
    (p, c, name, zero_ok) e^c x^p a command evaluates on it, overflows or,
    unless zero_ok, underflows to 0.  The line names the tightest limit on
    x that is crossed, with at, the setting it holds for."""
    log_x, crossed = math.log(x), []
    for p, c, name, zero_ok in forms:
        for edge, fate in ((_LOG_HUGE, "overflows"), (_LOG_TINY, "underflows to 0")):
            # the form meets edge at log x = limit; upper: x must stay below
            limit, upper = (edge - c) / p, (edge > 0) == (p > 0)
            if (log_x > limit) == upper and not (zero_ok and edge < 0):
                crossed.append((abs(log_x - limit), limit, upper, f"{name} {fate}"))
    if crossed:
        _, limit, upper, why = max(crossed)
        raise DomainError(f"{option} must stay {'below' if upper else 'above'} "
                          f"{math.exp(limit):.6g}{at}, where {why}; got {x:g}")


def _require_finite_measure(cfg):
    """Refuse, before any compute, a window whose lambda measure overflows.
    Norms integrate against |lam|^n dlam with the weights lam_log_w
    lam^(n+1) (QuadratureGrid.lambda_measure_weights): lam^(n+1) is formed
    first and then scaled by the trapezoid weight in log lam, h / 2 at the
    top node and h at the interior ones, h the log spacing of the nodes.
    The largest of these products is at the top node or the next one down,
    e^(-(n+1) h) lower in lam^(n+1)."""
    n, nodes = cfg.n, cfg.lambda_nodes
    h = (math.log(cfg.lambda_max) - math.log(cfg.lambda_min)) / (nodes - 1)
    scale = max(1.0, 0.5 * h, h * math.exp(-(n + 1) * h) if nodes > 2 else 0.0)
    _require_doubles("lambda_max", cfg.lambda_max, [
        (n + 1, math.log(scale), f"lam_log_w lam^{n + 1} of the lambda measure",
         True)], f" at n = {n}")


def _box_forms(cfg, n, rho, tau):
    """The forms of box_coefficients at dimension n on the widths named rho
    and tau: rho^2 and tau^2, and on the lambda window s = lam rho^2 and
    lam tau^2 at the top and s^-n at the bottom, where 0 does no harm."""
    top, bottom = math.log(cfg.lambda_max), math.log(cfg.lambda_min)
    return ([(2, 0.0, f"{rho}^2", False), (2, top, f"lambda_max {rho}^2", True),
             (-2 * n, -n * bottom, f"(lambda_min {rho}^2)^-{n}", True)],
            [(2, 0.0, f"{tau}^2", False), (2, top, f"lambda_max {tau}^2", True)])


def _cmd_plancherel_check(cfg):
    n = cfg.n
    box, gaussian = (cfg.family in (f, "both") for f in ("box", "gaussian"))
    if box and n > _BOX_MAX_N:
        raise DomainError(f"the box family needs n <= {_BOX_MAX_N}, got {n}")
    _require_finite_measure(cfg)
    if box:
        rho, tau = cfg.factors[0], cfg.factors[1]
        rho_forms, tau_forms = _box_forms(cfg, n, "rho1", "tau1")
        _require_doubles("factors tau1", tau, tau_forms)
        # and the spatial norm rho^-n / tau
        _require_doubles("factors rho1", rho, rho_forms + [
            (-n, 0.0, f"rho1^-{n}", False),
            (-n, -math.log(tau), f"rho1^-{n} / tau1", False)])
    import numpy as np

    from .transform import (box_coefficients, gaussian_coefficients,
                            plancherel_norm)
    grid = cfg.grid()
    cases = []
    if box:
        cases.append(("box", box_coefficients(n, rho, tau, grid), rho ** -n / tau))
    if gaussian:
        sz, st = _GAUSSIAN
        cases.append(("gaussian", gaussian_coefficients(n, sz, st, grid),
                      float(np.sqrt((np.pi * sz ** 2) ** n * st * np.sqrt(np.pi)))))
    rows = []
    for name, coeffs, spatial in cases:
        spectral = plancherel_norm(coeffs)
        rel = abs(spectral - spatial) / spatial
        rows.append({"family": name, "spatial_norm": spatial,
                     "spectral_norm": spectral, "rel_error": rel,
                     "tol": _PLANCHEREL_TOL,
                     "pass": bool(rel <= _PLANCHEREL_TOL)})
    ok = all(r["pass"] for r in rows)
    summary = " ".join(f"{r['family']}={r['rel_error']:.3e}" for r in rows)
    return {"rows": rows, "pass": bool(ok)}, summary


_CONVOLVE_TOL = 1e-3


def _cmd_convolve_check(cfg):
    if cfg.n != 1:
        raise DomainError("the spatial convolution oracle runs on H^1 only")
    rho1, tau1, rho2, tau2 = cfg.factors
    for i, rho, tau in ((1, rho1, tau1), (2, rho2, tau2)):
        rho_forms, tau_forms = _box_forms(cfg, 1, f"rho{i}", f"tau{i}")
        _require_doubles(f"factors rho{i}", rho, rho_forms)
        _require_doubles(f"factors tau{i}", tau, tau_forms)
    # the spatial convolution's height and the scale it divides by
    c = -2 * math.log(tau2)
    _require_doubles("factors tau1", tau1, [(-2, c, "1/(tau1^2 tau2^2)", False)])
    _require_doubles("factors rho1", rho1, [
        (2, 2 * math.log(rho2), "rho1^2 rho2^2", False),
        (-2, c - 2 * (math.log(tau1) + math.log(rho2)),
         "1/(rho1^2 tau1^2 rho2^2 tau2^2)", False)])
    # box_pair_convolution's overlap angle arccos(gamma) lives where
    # 1 - gamma <= A1^2 / (2 r u), with r and u up to A1 + A2, and gamma
    # carries a rounding of about eps: arccos keeps a relative precision of
    # about eps ((rho1 + rho2) / rho1)^2, which must stay within the tolerance
    wider = math.sqrt(_CONVOLVE_TOL / sys.float_info.epsilon) - 1
    if rho2 > wider * rho1:
        raise DomainError(
            f"factors rho2 must stay below {wider * rho1:.6g} "
            f"({wider:.6g} rho1), where the spatial convolution's overlap "
            f"angle arccos(gamma) loses the tolerance {_CONVOLVE_TOL:g} to "
            f"rounding; got {rho2:g}")
    import numpy as np

    from .transform import (box_coefficients, box_convolution_coefficients,
                            box_convolution_grids, multiply_coeffs)
    grid = cfg.grid()
    c1 = box_coefficients(1, rho1, tau1, grid)
    c2 = box_coefficients(1, rho2, tau2, grid)
    prod = multiply_coeffs(c1, c2)
    conv = box_convolution_coefficients(rho1, tau1, rho2, tau2,
                                        grid.lam, grid.k_max)
    x, _, tx, _ = box_convolution_grids(rho1, tau1, rho2, tau2)
    diff = np.abs(conv - prod.values)
    err = diff / (1.0 + np.abs(prod.values))
    ki, li = np.unravel_index(int(np.argmax(err)), err.shape)
    worst = float(err[ki, li])
    # pass reads each lambda column against its own scale, the largest
    # |prod| over k: max_rel_error turns absolute where the coefficients are
    # far below 1, and reads near 0 on a spatial side wrong by its whole size
    column = float(np.max(diff.max(axis=0) / np.abs(prod.values).max(axis=0)))
    return {
        "oracle_samples": int(x.size * tx.size),
        "max_rel_error": worst,
        "max_column_error": column,
        "argmax": {"k": int(ki), "lambda": float(grid.lam[li])},
        "tol": _CONVOLVE_TOL,
        "pass": bool(column <= _CONVOLVE_TOL),
    }, f"max_column_error={column:.3e} samples={x.size * tx.size}"


_DILATE_TOL = 1e-3


def _cmd_dilate_check(cfg):
    n, r, k = cfg.n, cfg.dilation, 2 * cfg.n + 2
    _require_doubles("dilation", r, [(k, 0.0, f"r^{k}", False),
                                     (-k, 0.0, f"r^-{k}", False)])
    # the source Gaussian (sz, st) and the dilated target (sz / r, st / r^2):
    # b = lam sz^2 at the top of the window, and (4 pi sz^2/(2 + b))^n, alone
    # and times st sqrt(2 pi), at its bottom must stay doubles
    sz, st = _GAUSSIAN
    widths = (("sz", sz, st, "st"), ("(sz/r)", sz / r, st / r ** 2, "(st/r^2)"))
    _require_doubles("lambda_max", cfg.lambda_max, [
        (1, 2 * math.log(z), f"b = lambda_max {name}^2", True)
        for name, z, _, _ in widths])
    limits = []
    for name, z, t, t_name in widths:
        log_base = math.log(4 * math.pi * z * z / (2 + cfg.lambda_min * z * z))
        log_t = math.log(t * math.sqrt(2 * math.pi))
        if log_base > 0:
            limits.append(((_LOG_HUGE - max(log_t, 0.0)) / log_base,
                           f"(4 pi {name}^2/(2 + lambda_min {name}^2))^n"
                           + (f" {t_name} sqrt(2 pi)" if log_t > 0 else "")))
    if limits and n > min(limits)[0]:
        limit, form = min(limits)
        raise DomainError(f"n must stay below {limit:.6g} at lambda_min = "
                          f"{cfg.lambda_min:g}, where {form} overflows; got {n}")
    # dilate_coeffs reads the source at lam / r^2 >= lambda_min and scales it
    # by r^-k; the coefficients fall with lam, and the largest it reads is
    # at a node above lam_q e^-h, h the log spacing of the nodes
    h = (math.log(cfg.lambda_max) - math.log(cfg.lambda_min)) / (cfg.lambda_nodes - 1)
    lam_q = max(cfg.lambda_min, cfg.lambda_min / (r * r) * math.exp(-h))
    log_top = (n * math.log(4 * math.pi * sz * sz / (2 + lam_q * sz * sz))
               + math.log(st * math.sqrt(2 * math.pi)) - lam_q * st * lam_q * st / 2)
    _require_doubles("dilation", r, [
        (-k, log_top, f"r^-{k} times the source coefficients it reads, up to "
                      f"{math.exp(log_top):.6g},", True)], f" at n = {n}")
    import numpy as np

    from .transform import dilate_coeffs, gaussian_coefficients
    grid = cfg.grid()
    c = gaussian_coefficients(n, sz, st, grid)
    dilated = dilate_coeffs(c, r)
    target = gaussian_coefficients(n, sz / r, st / r ** 2, grid)
    # interpolation queries lam / r^2 must stay inside the stored window
    mask = ((grid.lam >= cfg.lambda_min * max(1.0, r ** 2))
            & (grid.lam <= cfg.lambda_max * min(1.0, r ** 2)))
    if not np.any(mask):
        raise DomainError("dilation pushes every node outside the window; "
                          "widen the lambda range")
    scale = float(np.max(np.abs(target.values[:, mask])))
    if scale == 0.0:
        raise DomainError("the target Gaussian underflows to 0 on every "
                          "compared node; lower lambda_max or add lambda nodes")
    # a Python float quotient past the largest double is inf, not a numpy
    # warning, and main refuses the report for it
    worst = float(np.max(np.abs(dilated.values[:, mask]
                                - target.values[:, mask]))) / scale
    return {
        "compared_nodes": int(np.sum(mask)),
        "max_rel_error": worst,
        "tol": _DILATE_TOL,
        "pass": bool(worst <= _DILATE_TOL),
    }, f"dilation={r:g} max_rel_error={worst:.3e}"


def _cmd_ingham_plan(cfg):
    from .theta import load_theta, require_convergent
    theta = load_theta(cfg.theta)
    # a declared-divergent profile is refused before the planner loads
    require_convergent(theta)
    # the plan and the replay run on Python floats: with a builtin profile
    # this command loads no numpy
    from .plan import factor_bound_check, plan_sequences, support_radius
    plan = plan_sequences(theta, cfg.n, J=cfg.chain_length,
                          fixtures_dir=cfg.fixtures)
    # thinned replay of the factor-bound calibration with the plan's c_n;
    # full density is the acceptance-grade run
    check = factor_bound_check(plan.n, plan.c_n, thin=6)
    ok = check["violations"] == 0
    radius = support_radius(plan)
    return {
        "theta": theta.name,
        "a": plan.a,
        "c": plan.c,
        "c_n": plan.c_n,
        "rho_head": list(plan.rho[:8]),
        "tau_head": list(plan.tau[:8]),
        "support_radius": radius,
        "factor_bound": check,
        "pass": bool(ok),
    }, (f"theta={theta.name} J={plan.J} support_radius={radius:.6g} "
        f"factor_violations={check['violations']}/{check['points']}")


def _cmd_ingham_verify(cfg):
    from .theta import load_theta, require_convergent
    theta = load_theta(cfg.theta)
    require_convergent(theta)
    from .ingham import verify_decay
    from .plan import plan_sequences
    plan = plan_sequences(theta, cfg.n, J=cfg.chain_length,
                          fixtures_dir=cfg.fixtures)
    report = {**verify_decay(plan, theta, cfg.grid()), "c_n": plan.c_n}
    return report, (f"theta={theta.name} n={cfg.n} k_max={cfg.k_max} "
                    f"max_log_q={report['max_log_q']:.6f} C={report['C']:.6g}")


def _carleman_rows(prof, ratios):
    rows = []
    for i in range(prof.M):
        rows.append({
            "m": i + 1,
            "log_norm": float(prof.log_norms[i + 1]),
            "carleman_term": float(prof.carleman_terms[i]),
            "partial_sum": float(prof.partial_sums[i]),
            "bound_ratio": ratios[i] if ratios is not None else None,
        })
    return rows


def _cmd_carleman(cfg):
    import numpy as np

    from .chernoff import (check_gamma_hypothesis, gamma_bound_log,
                           spectral_box, sublaplacian_norms)
    from .theta import load_theta
    from .transform import SpectralCoefficients
    family = cfg.family
    if family == "box":
        M = 20 if cfg.max_power is None else cfg.max_power
        # the window edge is the true spectral support boundary, not a
        # truncation, so the boundary-domination guard is off
        prof = sublaplacian_norms(spectral_box(), M, tail_frac=1.0)
        rows = _carleman_rows(prof, None)
        crossed = [r["m"] for r in rows if r["partial_sum"] > 5.0]
        sum_ok = bool(crossed and crossed[0] <= 12)
        window_ok = bool(M >= 20 and 0.45 <= rows[19]["carleman_term"] <= 0.5)
        ok = window_ok and sum_ok
        detail = {"term_window": [0.45, 0.5], "term_20_in_window": window_ok,
                  "sum_exceeds_5_by": crossed[0] if crossed else None}
    else:  # envelope
        if cfg.n != 1:
            raise DomainError("the envelope family is implemented on H^1 only")
        _require_finite_measure(cfg)
        theta = load_theta(cfg.theta)
        M = 12 if cfg.max_power is None else cfg.max_power
        grid = cfg.grid()
        k = np.arange(grid.k_max + 1, dtype=float)[:, None]
        root = np.sqrt((2.0 * k + 1.0) * grid.lam[None, :])
        coeffs = SpectralCoefficients(n=1, grid=grid, values=np.exp(-theta(root) * root))
        prof = sublaplacian_norms(coeffs, M)
        # the norm bound needs the doubled profile (squared coefficients)
        # to satisfy the gamma hypothesis
        doubled = lambda y: 2.0 * theta(y)
        try:
            check_gamma_hypothesis(doubled)
            ratios = []
            log_front = float(-2.0 * np.log(2.0 * np.pi) + np.log(2.0)
                              + np.log(np.pi ** 2 / 8.0))
            for m in range(1, M + 1):
                log_bound = log_front + gamma_bound_log(doubled, 1, m)[0]
                ratios.append(float(np.exp(2.0 * prof.log_norms[m] - log_bound)))
            bounded = bool(all(v <= 1.0 for v in ratios))
            detail = {"bound": "gamma two-term bound", "all_ratios_le_1": bounded}
            ok = bounded
        except HypothesisError as exc:
            ratios = None
            detail = {"bound": None,
                      "bound_skipped": f"doubled profile fails the gamma "
                                       f"hypothesis: {exc}"}
            ok = True
        detail["theta"] = theta.name
        rows = _carleman_rows(prof, ratios)
    report = {
        "M": M,
        "rows": rows,
        **detail,
        "pass": bool(ok),
    }
    summary = (f"family={family} M={M} "
               f"term_{M}={rows[-1]['carleman_term']:.4f} "
               f"partial_sum={rows[-1]['partial_sum']:.4f}")
    return report, summary


def _cmd_gamma_bound_check(cfg):
    from .chernoff import ingham_norm_bound_check
    from .theta import load_theta
    theta = load_theta(cfg.theta)
    report = ingham_norm_bound_check(theta, cfg.n, cfg.max_power)
    worst = max(r["ratio"] for r in report["rows"])
    return report, f"theta={theta.name} M={cfg.max_power} max_ratio={worst:.3e}"


_SYMMDIFF_RADII = 10
_SYMMDIFF_RATIOS = (0.1, 0.5, 1.0, 1.5, 1.9)
_LENS_TOL = 1e-10


def _exact_lens_area(R, d):
    # planar two-disk intersection, centers d < 2R apart; numpy's arccos, not
    # math.acos: where numpy dispatches to its SIMD arccos the two differ in
    # the last bits, and the reported max_lens_error would move
    import numpy as np
    return 2.0 * R * R * np.arccos(0.5 * d / R) - 0.5 * d * np.sqrt(4.0 * R * R - d * d)


def _cmd_symmdiff_check(cfg):
    import numpy as np

    from .group import ball_shift_symmdiff, ball_volume, sphere_surface
    rows = []
    for dim in (2, 4):
        violations = 0
        worst_ratio = 0.0
        lens_err = 0.0
        for R in np.geomspace(0.5, 5.0, _SYMMDIFF_RADII):
            for frac in _SYMMDIFF_RATIOS:
                d = frac * R
                sd = ball_shift_symmdiff(dim, float(R), d)
                bound = d * sphere_surface(dim, float(R))
                worst_ratio = max(worst_ratio, sd / bound)
                if sd > bound * (1.0 + 1e-12):
                    violations += 1
                if dim == 2:
                    lens = ball_volume(float(R), 2) - 0.5 * sd
                    lens_err = max(lens_err,
                                   abs(lens - _exact_lens_area(float(R), d)))
        rows.append({
            "dim": dim,
            "pairs": _SYMMDIFF_RADII * len(_SYMMDIFF_RATIOS),
            "bound_violations": violations,
            "max_bound_ratio": float(worst_ratio),
            "max_lens_error": float(lens_err) if dim == 2 else None,
            "lens_tol": _LENS_TOL if dim == 2 else None,
        })
    ok = all(r["bound_violations"] == 0 for r in rows)
    ok = ok and rows[0]["max_lens_error"] <= _LENS_TOL
    summary = " ".join(
        f"dim{r['dim']}_ratio={r['max_bound_ratio']:.4f}" for r in rows)
    return {"rows": rows, "pass": bool(ok)}, summary


_GRID = ("k_max", "lambda_min", "lambda_max", "lambda_nodes")

# name -> (handler, the command's own defaults, the options it reads, help
# line).  The options read are a tuple of names, or, where the family
# decides, a dict from each family the command implements to its tuple; out
# is read by every command.  The config file and the flags override the
# defaults, and may set no option the command does not read.
_COMMANDS = {
    "laguerre-check": (_cmd_laguerre_check, {"k_max": 40}, ("k_max", "fixtures"),
                       "Gram defect of the Laguerre functions plus envelope "
                       "validation against the frozen fixture"),
    "plancherel-check": (_cmd_plancherel_check,
                         {"k_max": 256, "lambda_min": 1e-4, "lambda_max": 1e2,
                          "lambda_nodes": 576, "family": "both"},
                         {"box": ("n", *_GRID, "factors"),
                          "gaussian": ("n", *_GRID),
                          "both": ("n", *_GRID, "factors")},
                         "spectral vs spatial L2 norm for box and Gaussian factors"),
    "convolve-check": (_cmd_convolve_check,
                       {"k_max": 32, "lambda_min": 0.15, "lambda_max": 1.8,
                        "lambda_nodes": 16},
                       ("n", *_GRID, "factors"),
                       "spatially computed box convolution vs the coefficient "
                       "product"),
    "dilate-check": (_cmd_dilate_check,
                     {"k_max": 64, "lambda_min": 1e-3, "lambda_max": 1e3,
                      "lambda_nodes": 320},
                     ("n", *_GRID, "dilation"),
                     "dilation covariance of the coefficients on a Gaussian"),
    "ingham-plan": (_cmd_ingham_plan, {},
                    ("theta", "n", "chain_length", "fixtures"),
                    "factor width sequences, support radius and a thinned "
                    "factor-bound replay"),
    "ingham-verify": (_cmd_ingham_verify, {},
                      ("theta", "n", "chain_length", "fixtures", *_GRID),
                      "certified spectral decay of the adaptive chain"),
    "carleman": (_cmd_carleman,
                 {"family": "box", "k_max": 64, "lambda_min": 1e-3,
                  "lambda_max": 1e10, "lambda_nodes": 1024},
                 {"box": ("max_power",),
                  "envelope": ("theta", "n", *_GRID, "max_power")},
                 "sublaplacian norm growth and Carleman partial sums"),
    "gamma-bound-check": (_cmd_gamma_bound_check, {"max_power": 10},
                          ("theta", "n", "max_power"),
                          "moment integrals against the two-term gamma bound"),
    "symmdiff-check": (_cmd_symmdiff_check, {}, (),
                       "shifted-ball symmetric difference vs the surface bound"),
}


def _flag(name):
    """The command-line flag of the option name: --kmax for k_max, else the
    name with dashes for underscores."""
    return "--kmax" if name == "k_max" else "--" + name.replace("_", "-")


# flag -> (option, type): --config names the JSON file of defaults, and
# each option of _OPTIONS has its flag
_FLAGS = {"--config": ("config", str),
          **{_flag(name): (name, kind) for name, kind, *_ in _OPTIONS}}


class _UsageError(Exception):
    """A malformed command line; the message is the line printed."""


def _is_number(arg):
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _parse_args(argv):
    """(command, config path or None, {option: value} of the other flags
    given) from argv, read left to right, or None at -h or --help.

    The one argument that is not a flag is the command, before, between or
    after the flags.  A flag is spelled in full, as --flag VALUE or
    --flag=VALUE; a separate VALUE may not look like a flag unless it is a
    number, and a repeated flag keeps its last value.  An int or float
    option's value must parse as one; the other values stay strings, for
    RunConfig to check.  Anything else raises _UsageError."""
    command, given = None, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-") or _is_number(arg):
            if command is not None:
                raise _UsageError(f"unexpected argument {arg!r} after the "
                                  f"command {command}")
            if arg not in _COMMANDS:
                raise _UsageError(f"unknown command {arg!r}; heisharm --help "
                                  f"lists the commands")
            command = arg
            continue
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise _UsageError(f"unknown flag {flag}; heisharm --help lists "
                              f"the flags")
        name, kind = _FLAGS[flag]
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("-") and not _is_number(value):
                raise _UsageError(f"{flag} needs a value")
        if kind in (int, float):
            try:
                value = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise _UsageError(f"{flag} needs {what}, got {value!r}") from None
        given[name] = value
    if command is None:
        raise _UsageError("no command; heisharm --help lists the commands")
    return command, given.pop("config", None), given


def _help():
    flags = [("-h, --help", "show this help and exit"),
             ("--config PATH", "JSON file of defaults; explicit flags win")]
    flags += [(f"{_flag(name)} {name.upper()}", help_line)
              for name, _, _, help_line in _OPTIONS]
    width = max(map(len, _COMMANDS))
    flag_width = max(len(flag) for flag, _ in flags)
    return "\n".join([
        "usage: heisharm command [--flag VALUE | --flag=VALUE ...]",
        "",
        "Certified numerical checks for radial harmonic analysis on the "
        "Heisenberg group.",
        "",
        "commands:",
        *(f"  {name:<{width}}  {help_line}"
          for name, (*_, help_line) in _COMMANDS.items()),
        "",
        "flags (spelled in full; the last of a repeated flag wins):",
        *(f"  {flag:<{flag_width}}  {help_line}" for flag, help_line in flags),
    ]) + "\n"


def _resolve_config(command, config, flags):
    """Command defaults, then the config file, then the flags; a null in the
    file leaves the option unset, like an absent flag.  An option set in the
    file or by a flag that the command does not read is refused."""
    merged = dict(_COMMANDS[command][1])
    given = {}
    if config is not None:
        try:
            file_cfg = read_json(config)
        except OSError as exc:
            raise DomainError(f"cannot read config {config!r}: {exc}") from exc
        except ValueError as exc:
            raise DomainError(f"config {config!r} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg).difference(_NAMES))
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(unknown)}")
        given.update((k, v) for k, v in file_cfg.items() if v is not None)
    given.update(flags)
    merged.update(given)
    cfg = RunConfig(command, **merged)
    what, reads = _reads(cfg)
    unread = sorted(set(given).difference(reads, ("out",)))
    if unread:
        raise DomainError(f"{what} does not read {', '.join(unread)}")
    return cfg


def _reads(cfg):
    """(the command as a refusal names it, the options it reads with its
    family); a family the command does not implement is refused."""
    reads = _COMMANDS[cfg.command][2]
    if not isinstance(reads, dict):
        return cfg.command, reads
    if cfg.family not in reads:
        *head, last = reads
        raise DomainError(f"unknown family {cfg.family!r}; "
                          f"choose {', '.join(head)} or {last}")
    return f"{cfg.command} --family {cfg.family}", ("family", *reads[cfg.family])


def _run_description(cfg):
    """The keys every report starts from: the command, and each option it
    reads under its own name with its resolved value, factors as a list and
    an unset option as null.  fixtures, a path on one host, is left out, and
    so is theta, which may be one: a handler that loads the profile writes
    its name.  So with a builtin profile a report's option keys are a config
    that runs it again."""
    description = {"command": cfg.command}
    for name in _reads(cfg)[1]:
        if name not in ("fixtures", "theta"):
            value = getattr(cfg, name)
            description[name] = list(value) if isinstance(value, tuple) else value
    return description


def _rows_csv(rows):
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else repr(row[c])
                              if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    return "\n".join(lines) + "\n"


def _non_finite(value, key=""):
    """Key paths, as rows[0].spectral_norm, of the floats in a report that
    are not finite, in order; the bound is False for nan and for inf."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _non_finite(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{key}[{i}]")
    elif isinstance(value, float) and not abs(value) <= sys.float_info.max:
        yield key


def main(argv):
    """Run one subcommand on argv; returns the process exit code."""
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"heisharm: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_help())
        return 0
    command = args[0]
    try:
        cfg = _resolve_config(*args)
        report, summary = _COMMANDS[cfg.command][0](cfg)
        report = {**_run_description(cfg), **report}
        bad = next(_non_finite(report), None)
        if bad is not None:
            raise DomainError(f"report value {bad} is not finite")
        if cfg.out:
            write_json(cfg.out, report)
            if cfg.command == "carleman":
                csv_path = (cfg.out[:-5] + ".csv" if cfg.out.endswith(".json")
                            else cfg.out + ".csv")
                atomic_write_text(csv_path, _rows_csv(report["rows"]))
    except HeisharmError as exc:
        print(f"heisharm {command}: refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"heisharm {command}: {exc}", file=sys.stderr)
        return 2
    ok = bool(report.get("pass", True))
    print(f"{cfg.command}: {summary} pass={'true' if ok else 'false'}")
    return 0 if ok else 1


def console_main(entry=main):
    """Process entry point: run entry(sys.argv[1:]) and end the process
    with the exit code it returns.  Serves the ``heisharm`` script,
    ``python -m heisharm.cli`` and ``python -m heisharm.calibrate``; call
    main to run a command in-process.

    By the time entry returns its report is written, so the process
    flushes its streams and leaves through os._exit, skipping the
    interpreter's teardown: clearing every module and the final garbage
    collections over numpy's objects, tens of milliseconds per run.  An
    exception that escapes entry takes the normal path (traceback, exit
    1).  A flush that fails, as into a closed pipe, falls back to sys.exit,
    so the interpreter reports the failure as it always has (exit 120)."""
    code = entry(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
