"""Command-line front end: one subcommand per certified check.

Every run resolves a single RunConfig (flags override a JSON config file,
which overrides built-in defaults, and an option the command does not read
is refused), dispatches to exactly one library operation family, writes one
JSON report atomically, and prints one summary line.  Exit status is the
contract: 0 when the certified check passed, 1 when it completed and failed,
2 for configuration or usage errors, including profile-class and hypothesis
refusals.

Reports never embed timestamps or environment data, so identical configs
and fixtures give byte-identical files on every run.
"""

import argparse
import os
import sys
from collections import namedtuple

from .errors import (DimensionMismatchError, DomainError, GridMismatchError,
                     HypothesisError, ProfileClassError, QuadratureError,
                     TailError)
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


# name, type, default: each option is a flag's dest, a config-file key and a
# field of RunConfig, and its default applies where neither the command, the
# config file nor a flag sets it
_OPTIONS = (
    ("theta", str, "inv-sqrt"),
    ("n", int, 1),
    ("k_max", int, 64),
    ("lambda_min", float, 1e-2),
    ("lambda_max", float, 1e2),
    ("lambda_nodes", int, 192),
    ("out", str, "report.json"),
    ("fixtures", str, None),
    ("family", str, None),
    ("dilation", float, 1.4),
    ("factors", tuple, (0.9, 0.8, 0.7, 0.6)),
    ("max_power", int, None),
    ("chain_length", int, 16),
)
_NAMES = tuple(name for name, _, _ in _OPTIONS)


class RunConfig(namedtuple("RunConfig", ("command",) + _NAMES)):
    """Resolved settings of one CLI run: the command and one field per
    option of _OPTIONS, each checked against its declared type.  Configs
    compare by value; _replace and _make validate like the constructor."""

    __slots__ = ()

    def __new__(cls, command, **options):
        if command not in _COMMANDS:
            raise DomainError(f"unknown command {command!r}")
        unknown = sorted(set(options).difference(_NAMES))
        if unknown:
            raise TypeError(f"unknown RunConfig options: {', '.join(unknown)}")
        values = []
        for name, kind, default in _OPTIONS:
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

    @classmethod
    def _make(cls, iterable):
        command, *values = iterable
        return cls(command, **dict(zip(_NAMES, values)))

    def grid(self):
        from .grids import QuadratureGrid
        return QuadratureGrid.make(k_max=self.k_max, lambda_min=self.lambda_min,
                                   lambda_max=self.lambda_max,
                                   lambda_nodes=self.lambda_nodes)


def _cmd_laguerre_check(cfg):
    from .fixtures import load_fixture
    from .laguerre import envelope_check, orthonormality_defect
    gram_k = min(cfg.k_max, 40)
    defects = {str(d): orthonormality_defect(gram_k, d) for d in (0, 1, 2, 3)}
    worst = max(defects.values())
    env = envelope_check(load_fixture("lemma21_constants.json", cfg.fixtures), cfg.k_max)
    ok = worst <= 1e-8 and env["violations"] == 0
    return {
        "command": "laguerre-check",
        "gram": {"k_max": gram_k, "defects": defects, "max_defect": worst,
                 "tol": 1e-8},
        "envelope": env,
        "pass": bool(ok),
    }, (f"gram_defect={worst:.3e} "
        f"envelope_violations={env['violations']}/{env['points']}")


_PLANCHEREL_TOL = 1e-4


def _cmd_plancherel_check(cfg):
    import numpy as np

    from .transform import (box_coefficients, gaussian_coefficients,
                            plancherel_norm)
    family = cfg.family
    grid = cfg.grid()
    n = cfg.n
    cases = []
    if family in ("box", "both"):
        rho, tau = cfg.factors[0], cfg.factors[1]
        cases.append(("box", box_coefficients(n, rho, tau, grid), rho ** -n / tau))
    if family in ("gaussian", "both"):
        sz, st = 2.0, 0.2
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
    return {
        "command": "plancherel-check",
        "n": n,
        "k_max": grid.k_max,
        "lambda_range": [cfg.lambda_min, cfg.lambda_max],
        "lambda_nodes": cfg.lambda_nodes,
        "rows": rows,
        "pass": bool(ok),
    }, summary


_CONVOLVE_TOL = 1e-3


def _cmd_convolve_check(cfg):
    import numpy as np

    from .transform import (box_coefficients, box_convolution_coefficients,
                            box_convolution_grids, multiply_coeffs)
    if cfg.n != 1:
        raise DomainError("the spatial convolution oracle runs on H^1 only")
    rho1, tau1, rho2, tau2 = cfg.factors
    grid = cfg.grid()
    c1 = box_coefficients(1, rho1, tau1, grid)
    c2 = box_coefficients(1, rho2, tau2, grid)
    prod = multiply_coeffs(c1, c2)
    conv = box_convolution_coefficients(rho1, tau1, rho2, tau2,
                                        grid.lam, grid.k_max)
    x, _, tx, _ = box_convolution_grids(rho1, tau1, rho2, tau2)
    err = np.abs(conv - prod.values) / (1.0 + np.abs(prod.values))
    ki, li = np.unravel_index(int(np.argmax(err)), err.shape)
    worst = float(err[ki, li])
    return {
        "command": "convolve-check",
        "factors": list(cfg.factors),
        "k_max": grid.k_max,
        "lambda_range": [cfg.lambda_min, cfg.lambda_max],
        "lambda_nodes": cfg.lambda_nodes,
        "oracle_samples": int(x.size * tx.size),
        "max_rel_error": worst,
        "argmax": {"k": int(ki), "lambda": float(grid.lam[li])},
        "tol": _CONVOLVE_TOL,
        "pass": bool(worst <= _CONVOLVE_TOL),
    }, f"max_rel_error={worst:.3e} samples={x.size * tx.size}"


_DILATE_TOL = 1e-3


def _cmd_dilate_check(cfg):
    import numpy as np

    from .transform import dilate_coeffs, gaussian_coefficients
    r = cfg.dilation
    grid = cfg.grid()
    sz, st = 2.0, 0.2
    c = gaussian_coefficients(cfg.n, sz, st, grid)
    dilated = dilate_coeffs(c, r)
    target = gaussian_coefficients(cfg.n, sz / r, st / r ** 2, grid)
    # interpolation queries lam / r^2 must stay inside the stored window
    mask = ((grid.lam >= cfg.lambda_min * max(1.0, r ** 2))
            & (grid.lam <= cfg.lambda_max * min(1.0, r ** 2)))
    if not np.any(mask):
        raise DomainError("dilation pushes every node outside the window; "
                          "widen the lambda range")
    scale = float(np.max(np.abs(target.values[:, mask])))
    worst = float(np.max(np.abs(dilated.values[:, mask]
                                - target.values[:, mask])) / scale)
    return {
        "command": "dilate-check",
        "n": cfg.n,
        "dilation": r,
        "k_max": grid.k_max,
        "lambda_range": [cfg.lambda_min, cfg.lambda_max],
        "lambda_nodes": cfg.lambda_nodes,
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
    from .ingham import factor_bound_check, plan_sequences, support_radius
    plan = plan_sequences(theta, cfg.n, J=cfg.chain_length,
                          fixtures_dir=cfg.fixtures)
    # thinned replay of the factor-bound calibration; full density is the
    # acceptance-grade run
    check = factor_bound_check(cfg.n, thin=6, fixtures_dir=cfg.fixtures)
    ok = check["violations"] == 0
    return {
        "command": "ingham-plan",
        "theta": theta.name,
        "n": cfg.n,
        "J": plan.J,
        "a": plan.a,
        "c": plan.c,
        "c_n": plan.c_n,
        "rho_head": [float(v) for v in plan.rho[:8]],
        "tau_head": [float(v) for v in plan.tau[:8]],
        "support_radius": support_radius(plan),
        "factor_bound": check,
        "pass": bool(ok),
    }, (f"theta={theta.name} J={plan.J} "
        f"support_radius={support_radius(plan):.6g} "
        f"factor_violations={check['violations']}/{check['points']}")


def _cmd_ingham_verify(cfg):
    from .theta import load_theta, require_convergent
    theta = load_theta(cfg.theta)
    require_convergent(theta)
    from .ingham import plan_sequences, verify_decay
    plan = plan_sequences(theta, cfg.n, J=cfg.chain_length,
                          fixtures_dir=cfg.fixtures)
    report = verify_decay(plan, theta, k_max=cfg.k_max,
                          lambda_min=cfg.lambda_min,
                          lambda_max=cfg.lambda_max,
                          lambda_nodes=cfg.lambda_nodes)
    return report, (f"theta={theta.name} n={cfg.n} k_max={cfg.k_max} "
                    f"max_log_q={report['max_log_q']:.6f} C={report['C']:.6g}")


# spectral window of the closed-form Carleman example: the k = 0 indicator
# on lam in [1, 2]
_CARLEMAN_BOX_NODES = 2049


def _carleman_rows(prof, ratios):
    from .chernoff import carleman_partial_sums
    cs = carleman_partial_sums(prof)
    rows = []
    for i in range(prof.M):
        rows.append({
            "m": i + 1,
            "log_norm": float(prof.log_norms[i + 1]),
            "carleman_term": float(cs["terms"][i]),
            "partial_sum": float(cs["partial_sums"][i]),
            "bound_ratio": ratios[i] if ratios is not None else None,
        })
    return rows


def _cmd_carleman(cfg):
    import numpy as np

    from .chernoff import (check_gamma_hypothesis, gamma_bound_log,
                           sublaplacian_norms)
    from .grids import QuadratureGrid
    from .theta import load_theta
    from .transform import SpectralCoefficients
    family = cfg.family
    if family == "box":
        M = 20 if cfg.max_power is None else cfg.max_power
        grid = QuadratureGrid.make(k_max=1, lambda_min=1.0, lambda_max=2.0,
                                   lambda_nodes=_CARLEMAN_BOX_NODES,
                                   nodes_per_panel=16)
        vals = np.zeros((2, grid.lam.size))
        vals[0] = 1.0
        coeffs = SpectralCoefficients(n=1, grid=grid, values=vals,
                                      symmetric=True)
        # the window edge is the true spectral support boundary, not a
        # truncation, so the boundary-domination guard is off
        prof = sublaplacian_norms(coeffs, M, tail_frac=1.0)
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
        theta = load_theta(cfg.theta)
        M = 12 if cfg.max_power is None else cfg.max_power
        grid = cfg.grid()
        k = np.arange(grid.k_max + 1, dtype=float)[:, None]
        root = np.sqrt((2.0 * k + 1.0) * grid.lam[None, :])
        coeffs = SpectralCoefficients(n=1, grid=grid,
                                      values=np.exp(-theta(root) * root),
                                      symmetric=True)
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
        rows = _carleman_rows(prof, ratios)
    report = {
        "command": "carleman",
        "family": family,
        "M": M,
        "rows": rows,
        **detail,
        "pass": bool(ok),
    }
    if family == "envelope":
        report["theta"] = theta.name
    summary = (f"family={family} M={M} "
               f"term_{M}={rows[-1]['carleman_term']:.4f} "
               f"partial_sum={rows[-1]['partial_sum']:.4f}")
    return report, summary


def _cmd_gamma_bound_check(cfg):
    from .chernoff import ingham_norm_bound_check
    from .theta import load_theta
    theta = load_theta(cfg.theta)
    report = ingham_norm_bound_check(theta, cfg.n, cfg.max_power)
    report = {"command": "gamma-bound-check", **report}
    worst = max(r["ratio"] for r in report["rows"])
    return report, f"theta={theta.name} M={report['M']} max_ratio={worst:.3e}"


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
    return {
        "command": "symmdiff-check",
        "rows": rows,
        "pass": bool(ok),
    }, summary


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


def _build_parser():
    width = max(map(len, _COMMANDS))
    parser = argparse.ArgumentParser(
        prog="heisharm",
        description="Certified numerical checks for radial harmonic analysis "
                    "on the Heisenberg group.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<{width}}  {help_line}"
            for name, (*_, help_line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the check to run (listed below)")
    parser.add_argument("--theta", default=None, metavar="NAME|PATH",
                        help="decay profile: builtin name or JSON config path")
    parser.add_argument("--n", type=int, default=None, help="group dimension n")
    parser.add_argument("--kmax", dest="k_max", type=int, default=None,
                        help="Laguerre truncation degree")
    parser.add_argument("--lambda-min", type=float, default=None)
    parser.add_argument("--lambda-max", type=float, default=None)
    parser.add_argument("--lambda-nodes", type=int, default=None)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="report path (default report.json)")
    parser.add_argument("--fixtures", default=None, metavar="DIR",
                        help="directory overriding the packaged calibration "
                             "fixtures")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file of defaults; explicit flags win")
    parser.add_argument("--family", default=None,
                        help="test family where the command offers several")
    parser.add_argument("--dilation", type=float, default=None,
                        help="dilation factor for dilate-check")
    parser.add_argument("--factors", default=None, metavar="R1,T1,R2,T2",
                        help="box factor widths for convolve/plancherel checks")
    parser.add_argument("--max-power", type=int, default=None,
                        help="highest sublaplacian power")
    parser.add_argument("--chain-length", type=int, default=None,
                        help="number of factors J in the chain plan")
    return parser


def _resolve_config(args):
    """Command defaults, then the config file, then the flags; a null in the
    file leaves the option unset, like an absent flag.  An option set in the
    file or by a flag that the command does not read is refused."""
    merged = dict(_COMMANDS[args.command][1])
    given = {}
    if args.config is not None:
        try:
            file_cfg = read_json(args.config)
        except OSError as exc:
            raise DomainError(f"cannot read config {args.config!r}: {exc}") from exc
        except ValueError as exc:
            raise DomainError(f"config {args.config!r} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg).difference(_NAMES))
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(unknown)}")
        given.update((k, v) for k, v in file_cfg.items() if v is not None)
    for name in _NAMES:
        flag = getattr(args, name)
        if flag is not None:
            given[name] = flag
    merged.update(given)
    cfg = RunConfig(args.command, **merged)
    _refuse_unread(cfg, given)
    return cfg


def _refuse_unread(cfg, given):
    """Refuse a family the command does not implement, and any option in
    given that the command (with its family) does not read."""
    reads = _COMMANDS[cfg.command][2]
    what = cfg.command
    if isinstance(reads, dict):
        if cfg.family not in reads:
            *head, last = reads
            raise DomainError(f"unknown family {cfg.family!r}; "
                              f"choose {', '.join(head)} or {last}")
        what = f"{cfg.command} --family {cfg.family}"
        reads = ("family", *reads[cfg.family])
    unread = sorted(set(given).difference(reads, ("out",)))
    if unread:
        raise DomainError(f"{what} does not read {', '.join(unread)}")


def _rows_csv(rows):
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else repr(row[c])
                              if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    return "\n".join(lines) + "\n"


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        report, summary = _COMMANDS[cfg.command][0](cfg)
        if cfg.out:
            write_json(cfg.out, report)
            if cfg.command == "carleman":
                csv_path = (cfg.out[:-5] + ".csv" if cfg.out.endswith(".json")
                            else cfg.out + ".csv")
                atomic_write_text(csv_path, _rows_csv(report["rows"]))
    except (ProfileClassError, HypothesisError, TailError, DomainError,
            DimensionMismatchError, GridMismatchError) as exc:
        print(f"heisharm {args.command}: refused: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"heisharm {args.command}: check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"heisharm {args.command}: {exc}", file=sys.stderr)
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
